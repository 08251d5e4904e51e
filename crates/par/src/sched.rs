//! Adaptive serial/parallel cutover for [`WorkerPool`](crate::WorkerPool)
//! regions.
//!
//! A fixed grain (`len >= 4 * threads`, `len / threads` chunks) *costs*
//! time on real circuits: a simulation wave of a few hundred ~100ns gates
//! finishes long before the spawn cost of even one scoped thread is paid
//! back. The pool therefore decides per region from a measured model:
//!
//! * **Calibration** — a one-time probe times empty scoped spawns and reads
//!   the hardware thread count. It runs once per process (`OnceLock`) and
//!   can be overridden with a fixed [`Calibration`] for deterministic
//!   tests.
//! * **Per-region cost model** — every call site names a region
//!   (`"sim_wave"`, `"cpm_wave"`, `"eval"`, …). The scheduler keeps an
//!   estimated cost in nanoseconds per *unit* (item × weight, where the
//!   weight carries a known scale factor such as the simulation word
//!   count), seeded per region and learned online from span timings with
//!   an exponential moving average.
//! * **Cutover** — a region runs parallel only when its predicted serial
//!   time exceeds the predicted parallel time (spawn cost × workers +
//!   serial ÷ workers) by a safety margin. A hard minimum-items guard and
//!   a minimum-serial-time floor keep sub-millisecond regions serial no
//!   matter what the model says.
//! * **Level-scaled chunking** — parallel regions are split into chunks
//!   sized so each carries roughly [`CHUNK_TARGET_NS`] of predicted work
//!   (bounded to `[workers, 8 × workers]` chunks), instead of `len /
//!   threads`. More chunks than workers is what lets whole-chunk stealing
//!   rebalance stragglers.
//!
//! The floors and the chunk target are constants, not options: no
//! benchmark workload ever ran another value, and scheduling never
//! affects result bytes — only which thread computes them and in what
//! grouping — so there is no output reason to vary them either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the pool decides between serial and parallel execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Cost-model-driven cutover with level-scaled chunks and stealing.
    #[default]
    Adaptive,
    /// Every region with ≥ 2 items fans out (testing aid: exercises the
    /// parallel path and stealing even where the model would cut to
    /// serial, e.g. on a single-core host).
    Force,
}

/// Spawn-cost and hardware facts the cutover model needs. Obtained once
/// per process by [`Calibration::probe`], or injected for deterministic
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Calibration {
    /// Measured cost of spawning + joining one scoped thread, nanoseconds.
    pub spawn_ns: u64,
    /// Hardware threads available to the process.
    pub hw_threads: usize,
}

impl Calibration {
    /// Probes the host once per process: times a few empty
    /// `thread::scope` fan-outs (best of four, so a descheduled probe
    /// doesn't poison the estimate) and reads `available_parallelism`.
    pub fn probe() -> Calibration {
        static PROBE: OnceLock<Calibration> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let workers = hw_threads.clamp(2, 4);
            let mut best = u64::MAX;
            for _ in 0..4 {
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {});
                    }
                });
                best = best.min(t0.elapsed().as_nanos().try_into().unwrap_or(u64::MAX));
            }
            // Clamp below: a suspiciously fast probe (vDSO-less coarse
            // clock) must not make the model think spawns are free.
            Calibration { spawn_ns: (best / workers as u64).max(1_000), hw_threads }
        })
    }
}

/// Scheduling configuration of a pool: the decision policy plus an
/// optional fixed calibration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedConfig {
    /// Decision policy.
    pub mode: SchedMode,
    /// Fixed calibration, bypassing the one-time probe. `None` (the
    /// default) probes lazily on first use.
    pub calibration: Option<Calibration>,
}

impl SchedConfig {
    /// Adaptive, unless the comma-separated `ALS_SCHED` environment
    /// variable contains the token `force` (a test aid that drives every
    /// region through the parallel path). Other tokens are ignored so a
    /// stale environment cannot break a run.
    pub fn from_env() -> SchedConfig {
        SchedConfig::from_spec(&std::env::var("ALS_SCHED").unwrap_or_default())
    }

    fn from_spec(spec: &str) -> SchedConfig {
        if spec.split(',').any(|token| token.trim() == "force") {
            SchedConfig::forced()
        } else {
            SchedConfig::default()
        }
    }

    /// Always fan out (`ALS_SCHED=force`). Used by tests that must
    /// exercise the parallel path regardless of host parallelism.
    pub fn forced() -> SchedConfig {
        SchedConfig { mode: SchedMode::Force, calibration: None }
    }

    /// Adaptive mode with a fixed calibration — fully deterministic
    /// decisions given identical observation sequences.
    pub fn with_calibration(cal: Calibration) -> SchedConfig {
        SchedConfig { mode: SchedMode::Adaptive, calibration: Some(cal) }
    }
}

/// Regions below this many items never fan out (hard guard, applied
/// before the model runs).
pub(crate) const MIN_ITEMS: usize = 16;

/// Regions whose predicted serial time is below this floor never fan out
/// (keeps sub-millisecond regions — the 30× sim regression — on the
/// caller's thread).
pub(crate) const MIN_SERIAL_NS: f64 = 200_000.0;

/// Target predicted work per chunk: small enough for stealing to
/// rebalance, large enough that the per-chunk claim is noise.
pub(crate) const CHUNK_TARGET_NS: f64 = 100_000.0;

/// Inline spans predicted shorter than this are not worth the two
/// `Instant` reads it takes to learn from them (the reads are ~2% of a
/// 20µs span and shrink from there).
pub(crate) const LEARN_MIN_NS: f64 = 20_000.0;

/// Safety margin: predicted serial time must beat predicted parallel time
/// by 15% before a region fans out, so model noise near the break-even
/// point resolves to the cheap (serial) side.
const CUTOVER_MARGIN: f64 = 1.15;

/// Upper bound on chunks per worker: enough slack for stealing to
/// rebalance stragglers without drowning in per-chunk overhead.
const MAX_CHUNKS_PER_WORKER: usize = 8;

/// The outcome of one cutover decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Fan out across workers.
    Parallel,
    /// The model predicts serial is faster.
    Serial,
    /// A hard guard (min items / min serial time) kept the region inline
    /// before the model was consulted.
    Floor,
}

/// Online cost estimate for one named region: nanoseconds per unit
/// (item × weight), seeded per region name and refined by an EMA over
/// observed span timings. Atomic so parallel regions can be observed
/// without locks; the f64 estimate is stored as its bit pattern.
#[derive(Debug)]
pub(crate) struct RegionCost {
    unit_ns_bits: AtomicU64,
    samples: AtomicU64,
}

impl RegionCost {
    fn new(seed_unit_ns: f64) -> RegionCost {
        RegionCost {
            unit_ns_bits: AtomicU64::new(seed_unit_ns.to_bits()),
            samples: AtomicU64::new(0),
        }
    }

    /// Current estimated cost of one unit (item × weight), nanoseconds.
    pub(crate) fn unit_ns(&self) -> f64 {
        f64::from_bits(self.unit_ns_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn observe(&self, units: u64, elapsed: Duration) {
        if units == 0 {
            return;
        }
        let observed = elapsed.as_nanos() as f64 / units as f64;
        if !observed.is_finite() || observed <= 0.0 {
            return;
        }
        let n = self.samples.fetch_add(1, Ordering::Relaxed);
        let new = if n == 0 {
            // First measurement replaces the static seed outright.
            observed
        } else {
            (3.0 * self.unit_ns() + observed) / 4.0
        };
        self.unit_ns_bits.store(new.to_bits(), Ordering::Relaxed);
    }
}

/// Static per-region seeds, ns per unit. Only the order of magnitude
/// matters — the first real observation replaces the seed — but a sane
/// seed makes the very first decision of a run correct on typical hosts:
/// simulation gates are a handful of word-ops per pattern word, CPM rows
/// and LAC evaluations stream whole arena rows, and cut computation walks
/// fanout cones.
fn seed_for(region: &str) -> f64 {
    match region {
        "sim" | "sim_wave" => 2.0,
        "cpm_wave" | "eval" => 100.0,
        "cuts" => 5_000.0,
        _ => 1_000.0,
    }
}

/// The sizing of one parallel region: how many workers to spawn and how
/// many items each chunk carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    /// Scoped threads to spawn (≤ pool budget, ≤ chunk count).
    pub(crate) workers: usize,
    /// Items per chunk; the last chunk may be short.
    pub(crate) chunk_len: usize,
    /// Total chunks (`ceil(len / chunk_len)`).
    pub(crate) chunks: usize,
}

/// Cost-model state shared by all regions of one pool (and its clones).
///
/// Decisions and plans are pure functions of the configuration, the
/// calibration and the observation history, which is what makes cutover
/// decisions reproducible: two schedulers constructed with the same
/// [`SchedConfig`] (fixed calibration) and fed the same observation
/// sequence decide identically.
#[derive(Debug)]
pub(crate) struct Scheduler {
    cfg: SchedConfig,
    regions: Mutex<HashMap<&'static str, Arc<RegionCost>>>,
}

impl Scheduler {
    pub(crate) fn new(cfg: SchedConfig) -> Scheduler {
        Scheduler { cfg, regions: Mutex::new(HashMap::new()) }
    }

    /// Whether span timings feed the model (adaptive mode only).
    pub(crate) fn learning(&self) -> bool {
        self.cfg.mode == SchedMode::Adaptive
    }

    /// The calibration in effect: the configured fixture, or the one-time
    /// process-wide probe.
    fn calibration(&self) -> Calibration {
        self.cfg.calibration.unwrap_or_else(Calibration::probe)
    }

    /// The (lazily created) cost accumulator for a region.
    pub(crate) fn region(&self, name: &'static str) -> Arc<RegionCost> {
        let mut map = self.regions.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name).or_insert_with(|| Arc::new(RegionCost::new(seed_for(name)))))
    }

    /// Predicted parallel time of a region over `workers` workers,
    /// nanoseconds (spawn cost plus the ideally-divided serial work).
    pub(crate) fn predict_parallel_ns(&self, serial_ns: f64, workers: usize) -> f64 {
        (self.calibration().spawn_ns * workers as u64) as f64 + serial_ns / workers as f64
    }

    /// Workers an adaptive region of `len` items may use on a pool of
    /// `threads`.
    fn workers(&self, len: usize, threads: usize) -> usize {
        threads.min(self.calibration().hw_threads).min(len)
    }

    /// Serial-vs-parallel cutover for a region of `len` items whose
    /// predicted serial time is `serial_ns`, on a pool of `threads` (> 1).
    pub(crate) fn decide(&self, serial_ns: f64, len: usize, threads: usize) -> Decision {
        if self.cfg.mode == SchedMode::Force {
            return if len >= 2 { Decision::Parallel } else { Decision::Floor };
        }
        if len < MIN_ITEMS || serial_ns < MIN_SERIAL_NS {
            return Decision::Floor;
        }
        let workers = self.workers(len, threads);
        if workers > 1 && serial_ns > self.predict_parallel_ns(serial_ns, workers) * CUTOVER_MARGIN
        {
            Decision::Parallel
        } else {
            Decision::Serial
        }
    }

    /// Chunk sizing for a region that [`Scheduler::decide`]d to fan out.
    pub(crate) fn plan(&self, serial_ns: f64, len: usize, threads: usize) -> ChunkPlan {
        debug_assert!(len > 0);
        let (chunks, max_workers) = match self.cfg.mode {
            SchedMode::Force => ((threads * 4).min(len), threads),
            SchedMode::Adaptive => {
                let workers = self.workers(len, threads).max(1);
                let by_cost = (serial_ns / CHUNK_TARGET_NS).ceil() as usize;
                (by_cost.clamp(workers, workers * MAX_CHUNKS_PER_WORKER).min(len), workers)
            }
        };
        let chunk_len = len.div_ceil(chunks.max(1));
        let chunks = len.div_ceil(chunk_len);
        ChunkPlan { workers: max_workers.min(chunks).max(1), chunk_len, chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Scheduler {
        Scheduler::new(SchedConfig::with_calibration(Calibration {
            spawn_ns: 20_000,
            hw_threads: 8,
        }))
    }

    /// Predicted serial time of `len` items of `weight` in a region.
    fn serial_ns(r: &RegionCost, len: usize, weight: u64) -> f64 {
        len as f64 * weight as f64 * r.unit_ns()
    }

    #[test]
    fn floor_guards_fire_before_the_model() {
        let s = fixed();
        let r = s.region("cpm_wave");
        assert_eq!(s.decide(serial_ns(&r, 15, 1_000), 15, 8), Decision::Floor, "min items");
        // 100 items x 1 word x 100ns seed = 10us < 200us floor.
        assert_eq!(s.decide(serial_ns(&r, 100, 1), 100, 8), Decision::Floor, "min serial time");
    }

    #[test]
    fn model_cuts_over_when_serial_dominates_spawn_cost() {
        let s = fixed();
        let r = s.region("cpm_wave");
        // 10k items x 64 words x 100ns = 64ms serial; parallel over 8
        // workers ~ 8.16ms — clear win.
        assert_eq!(s.decide(serial_ns(&r, 10_000, 64), 10_000, 8), Decision::Parallel);
        // After observing a much cheaper reality (0.5ns/unit), a mid-size
        // region cuts back to serial: 6.5k items x 64 words = 208us
        // serial, while parallel pays 160us of spawn for 26us of divided
        // work (186us, within the 15% margin of serial).
        r.observe(10_000 * 64, Duration::from_micros(320));
        assert_eq!(r.unit_ns(), 0.5);
        assert_eq!(s.decide(serial_ns(&r, 6_500, 64), 6_500, 8), Decision::Serial);
        // ...while the original heavy region stays parallel.
        assert_eq!(s.decide(serial_ns(&r, 10_000, 64), 10_000, 8), Decision::Parallel);
    }

    #[test]
    fn chunks_scale_with_predicted_cost_not_thread_count() {
        let s = fixed();
        let r = s.region("cpm_wave");
        // 64ms of predicted work at a 100us chunk target wants 640
        // chunks, clamped to workers * 8.
        let plan = s.plan(serial_ns(&r, 10_000, 64), 10_000, 8);
        assert_eq!(plan.workers, 8);
        assert_eq!(plan.chunks, 64);
        // A small region still gets at least one chunk per worker.
        let small = s.plan(serial_ns(&r, 40, 1), 40, 8);
        assert!(small.chunks >= small.workers);
        assert!(small.chunk_len * small.chunks >= 40);
    }

    #[test]
    fn first_observation_replaces_seed_then_ema() {
        let r = RegionCost::new(1_000.0);
        r.observe(1_000, Duration::from_micros(10)); // 10ns/unit
        assert_eq!(r.unit_ns(), 10.0);
        r.observe(1_000, Duration::from_micros(50)); // 50ns/unit
        assert_eq!(r.unit_ns(), 20.0); // (3*10 + 50) / 4
        assert_eq!(r.samples.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn only_the_force_token_changes_the_env_config() {
        assert_eq!(SchedConfig::from_spec("force"), SchedConfig::forced());
        assert_eq!(SchedConfig::from_spec("adaptive, force"), SchedConfig::forced());
        for stale in ["", "off", "serial", "steal=0,min_items=3"] {
            assert_eq!(SchedConfig::from_spec(stale), SchedConfig::default(), "{stale}");
        }
    }
}
