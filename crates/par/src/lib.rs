//! Shared worker pool for the analysis hot path.
//!
//! All three analysis steps of the dual-phase framework — disjoint cuts,
//! CPM construction and LAC evaluation — are embarrassingly parallel over
//! independent nodes once their read-only inputs (reach map, ranks,
//! simulation values, earlier CPM rows) are fixed. This crate provides the
//! one threading primitive they all share, with three guarantees:
//!
//! * **Determinism.** Work is split into contiguous chunks and results are
//!   joined in chunk order, so the output of every map is byte-identical
//!   to the serial fold regardless of the thread count, the scheduling
//!   mode or which worker ends up computing (or stealing) a chunk.
//! * **Bounded threads.** A [`WorkerPool`] carries a fixed thread budget;
//!   each parallel region spawns at most that many scoped threads and
//!   joins them before returning (no detached workers, no global state).
//! * **Contained panics.** A panic on a worker thread is caught per chunk,
//!   every worker is still joined, and the payload of the panicking chunk
//!   with the lowest index is surfaced as a [`WorkerPanic`] value the
//!   engine converts into its structured `EngineError::WorkerPanic` — a
//!   run aborts with context instead of tearing down the process.
//!
//! The surface is one pre-resolved [`Region`] per call site and three
//! calls. [`WorkerPool::fan_out`] is the only place a serial/parallel
//! cutover is decided and counted; [`WorkerPool::inline`] runs a region on
//! the caller's thread and feeds the cost model; [`WorkerPool::map`] is
//! the fallible map with per-worker scratch, written as the two. Loops
//! that install results in place on their serial branch (simulation and
//! CPM waves) call `fan_out` and `inline` themselves and use
//! [`Fanout::map`] on the parallel branch.
//!
//! Whether a region fans out — and into how many chunks — is decided by
//! an adaptive cost model (ns per item, learned online from span timings,
//! seeded by a one-time calibration probe; see [`SchedConfig`]).
//! Parallel regions are split into more chunks than workers (sized by
//! predicted cost, not `len / threads`) and idle workers *steal whole
//! chunks* from stragglers: each worker owns a contiguous range of chunk
//! indices claimed through a per-range atomic cursor, and an idle worker
//! claims from a victim's cursor exactly like the owner does, so every
//! chunk is computed exactly once and results are reassembled by chunk
//! index afterwards — stealing moves *where* a chunk runs, never *where
//! its results land*.
//!
//! The pool intentionally uses `std::thread::scope` rather than persistent
//! worker threads: analysis regions borrow the circuit, simulator and cut
//! state immutably, and scoped spawns make those borrows safe without any
//! `Arc`/channel machinery or external dependencies.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use als_obs::{Counter, Histogram, Obs};

mod sched;

pub use sched::{Calibration, SchedConfig, SchedMode};
use sched::{ChunkPlan, Decision, RegionCost, Scheduler, LEARN_MIN_NS};

/// A worker thread panicked inside a parallel region; carries the panic
/// payload rendered as text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic(pub String);

impl WorkerPanic {
    fn from_payload(payload: Box<dyn Any + Send>) -> WorkerPanic {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".to_string());
        WorkerPanic(detail)
    }

    /// Re-raises the contained panic on the current thread. For callers
    /// whose API has no error channel (e.g. simulation refresh).
    pub fn resume(self) -> ! {
        std::panic::panic_any(self.0)
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker thread panicked: {}", self.0)
    }
}

impl std::error::Error for WorkerPanic {}

/// A scheduling region of one pool, resolved once by
/// [`WorkerPool::region`]: a per-item weight plus the cost estimate it
/// shares with every region of the same name on that pool and its clones.
///
/// The weight is a known scale factor (such as the simulation word count)
/// that lets one learned ns-per-unit estimate transfer between runs whose
/// items differ only in that factor: predicted serial time is
/// `len · weight · unit_ns`.
#[derive(Clone, Debug)]
pub struct Region {
    weight: u64,
    cost: Arc<RegionCost>,
}

impl Region {
    /// Current estimated cost of one unit (item × weight), nanoseconds.
    pub fn unit_ns(&self) -> f64 {
        self.cost.unit_ns()
    }

    /// Folds a timed span of `len` items into the region's cost estimate.
    /// [`WorkerPool::inline`] and [`Fanout::map`] do this themselves; it is
    /// public so a test can replay a fixed observation history.
    pub fn observe(&self, len: usize, elapsed: Duration) {
        self.cost.observe((len as u64).saturating_mul(self.weight), elapsed);
    }

    /// Predicted serial time of `len` items, nanoseconds.
    fn serial_ns(&self, len: usize) -> f64 {
        len as f64 * self.weight as f64 * self.cost.unit_ns()
    }
}

/// Pre-registered utilization metrics of one pool. Disabled handles are
/// inlined no-ops, so an uninstrumented pool pays nothing per region.
#[derive(Clone, Debug, Default)]
struct PoolMetrics {
    /// Whether the backing [`Obs`] records anything (gates the per-region
    /// `Instant` reads, which unlike the handles are not free).
    enabled: bool,
    /// Parallel regions that actually fanned out.
    regions: Counter,
    /// Regions that stayed on the caller's thread (small inputs or a
    /// serial pool).
    serial_regions: Counter,
    /// Items mapped across all regions.
    items: Counter,
    /// Per-worker busy time inside a parallel region, microseconds.
    busy_us: Histogram,
    /// Per-region pool utilization: `100 · Σ busy / (workers · span)`.
    utilization_pct: Histogram,
    /// Cutover decisions that fanned out.
    cutover_parallel: Counter,
    /// Cutover decisions the cost model resolved to serial.
    cutover_serial: Counter,
    /// Cutover decisions short-circuited by a hard floor guard.
    cutover_floor: Counter,
    /// Chunks executed by a worker other than their range owner.
    steals: Counter,
    /// `100 · |predicted − actual| / actual` for parallel regions.
    pred_err_pct: Histogram,
}

impl PoolMetrics {
    fn register(obs: &Obs) -> PoolMetrics {
        PoolMetrics {
            enabled: obs.is_enabled(),
            regions: obs.counter("als_pool_regions_total", "parallel regions that fanned out"),
            serial_regions: obs
                .counter("als_pool_serial_regions_total", "regions that ran on the caller thread"),
            items: obs.counter("als_pool_items_total", "items mapped over the pool"),
            busy_us: obs
                .histogram("als_pool_worker_busy_us", "per-worker busy time per region (us)"),
            utilization_pct: obs.histogram(
                "als_pool_utilization_pct",
                "per-region worker utilization (percent of workers x wall time)",
            ),
            cutover_parallel: obs
                .counter("als_sched_cutover_parallel_total", "cutover decisions that fanned out"),
            cutover_serial: obs.counter(
                "als_sched_cutover_serial_total",
                "cutover decisions the cost model kept serial",
            ),
            cutover_floor: obs.counter(
                "als_sched_cutover_floor_total",
                "cutover decisions stopped by the min-items/min-time floor",
            ),
            steals: obs.counter("als_sched_steals_total", "chunks executed by a non-owner worker"),
            pred_err_pct: obs.histogram(
                "als_sched_pred_err_pct",
                "percent error of predicted vs actual parallel region time",
            ),
        }
    }
}

/// A fixed-size budget of worker threads for chunk-parallel maps.
///
/// The pool itself is trivially cheap to construct and `Clone` (clones
/// share the cost model, so learned costs transfer); the threads are
/// spawned per parallel region (scoped) and joined before the call
/// returns.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    threads: usize,
    sched: Arc<Scheduler>,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// A pool of `threads` workers (values below 1 are clamped to 1 —
    /// serial execution), scheduled per the `ALS_SCHED` environment
    /// variable (adaptive unless it says `force`).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_config(threads, SchedConfig::from_env())
    }

    /// A pool with an explicit scheduling configuration (ignores
    /// `ALS_SCHED`). Tests that depend on cutover decisions use this with
    /// a fixed [`Calibration`] or [`SchedConfig::forced`] so the host's
    /// core count cannot change the outcome.
    pub fn with_config(threads: usize, cfg: SchedConfig) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
            sched: Arc::new(Scheduler::new(cfg)),
            metrics: PoolMetrics::default(),
        }
    }

    /// Attaches an observability handle: the pool pre-registers its
    /// utilization metrics and records them per region. With a disabled
    /// `Obs` this is equivalent to the plain pool.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> WorkerPool {
        self.metrics = PoolMetrics::register(obs);
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool always executes on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Resolves the named region's cost estimate once, with the given
    /// per-item weight (values below 1 count as 1). Call sites that decide
    /// per wave hold the `Region` across waves.
    pub fn region(&self, name: &'static str, weight: u64) -> Region {
        Region { weight: weight.max(1), cost: self.sched.region(name) }
    }

    /// The serial/parallel cutover for `len` items of `region`: `Some`
    /// with the chunk plan when the region should fan out, `None` when it
    /// should run [`inline`](WorkerPool::inline). Every call on a
    /// multi-thread pool records exactly one `als_sched_cutover_*`
    /// decision; a 1-thread pool always answers `None` and records
    /// nothing.
    pub fn fan_out<'a>(&'a self, region: &'a Region, len: usize) -> Option<Fanout<'a>> {
        if self.threads <= 1 {
            return None;
        }
        let serial_ns = region.serial_ns(len);
        let decision = self.sched.decide(serial_ns, len, self.threads);
        match decision {
            Decision::Parallel => self.metrics.cutover_parallel.inc(),
            Decision::Serial => self.metrics.cutover_serial.inc(),
            Decision::Floor => self.metrics.cutover_floor.inc(),
        }
        (decision == Decision::Parallel).then(|| Fanout {
            pool: self,
            region,
            len,
            serial_ns,
            plan: self.sched.plan(serial_ns, len, self.threads),
        })
    }

    /// Runs `body` — `len` items of `region` — on the caller's thread.
    /// When the model predicts at least 20 µs of work on an adaptive
    /// multi-thread pool, the span is timed and folded into the region's
    /// estimate; smaller spans never pay the clock reads.
    pub fn inline<R>(&self, region: &Region, len: usize, body: impl FnOnce() -> R) -> R {
        self.metrics.serial_regions.inc();
        self.metrics.items.add(len as u64);
        let learn =
            self.threads > 1 && self.sched.learning() && region.serial_ns(len) >= LEARN_MIN_NS;
        if !learn {
            return body();
        }
        let t0 = Instant::now();
        let out = body();
        region.observe(len, t0.elapsed());
        out
    }

    /// Maps a fallible `f` over `items` under `region`, returning the
    /// results in item order or the first error in item order (a worker
    /// panic, converted into `E`, takes precedence).
    ///
    /// `init` builds one scratch state per worker per call (once in total
    /// when the region runs inline), so reusable buffers amortise over a
    /// whole chunk instead of being rebuilt per item.
    ///
    /// A multi-thread pool contains item panics on either side of the
    /// cutover — the error surface must not depend on the cost model's
    /// decision. A 1-thread pool deliberately propagates them, matching
    /// the engine's serial degradation contract.
    pub fn map<S, T, R, E, I, F>(
        &self,
        region: &Region,
        items: &[T],
        init: I,
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: From<WorkerPanic> + Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> Result<R, E> + Sync,
    {
        if let Some(fanout) = self.fan_out(region, items.len()) {
            return fanout.map(items, init, f);
        }
        self.inline(region, items.len(), || {
            let run = || {
                let mut scratch = init();
                items.iter().map(|item| f(&mut scratch, item)).collect()
            };
            if self.is_serial() {
                return run();
            }
            std::panic::catch_unwind(AssertUnwindSafe(run))
                .unwrap_or_else(|payload| Err(WorkerPanic::from_payload(payload).into()))
        })
    }
}

/// A region [`WorkerPool::fan_out`] decided to run in parallel, with its
/// chunk plan for the `len` items it was asked about.
#[derive(Debug)]
pub struct Fanout<'a> {
    pool: &'a WorkerPool,
    region: &'a Region,
    len: usize,
    serial_ns: f64,
    plan: ChunkPlan,
}

impl Fanout<'_> {
    /// Scoped threads the region will spawn.
    pub fn workers(&self) -> usize {
        self.plan.workers
    }

    /// Chunks the items are split into (at least one per worker).
    pub fn chunks(&self) -> usize {
        self.plan.chunks
    }

    /// Maps `f` over `items` (exactly the `len` items the fan-out was
    /// decided for) across the planned workers, with the semantics of
    /// [`WorkerPool::map`]: one `init` scratch per worker, results in item
    /// order, the lowest-index panicking chunk's payload on panic, else
    /// the first error in item order. Idle workers steal whole chunks from
    /// stragglers; busy time feeds the region's cost model.
    ///
    /// # Panics
    /// Panics if `items.len()` differs from the planned length.
    pub fn map<S, T, R, E, I, F>(self, items: &[T], init: I, f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: From<WorkerPanic> + Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> Result<R, E> + Sync,
    {
        let Fanout { pool, region, len, serial_ns, plan } = self;
        assert_eq!(items.len(), len, "fan-out planned for {len} items");
        let ChunkPlan { workers, chunk_len, chunks } = plan;
        let metrics = &pool.metrics;
        metrics.regions.inc();
        metrics.items.add(len as u64);
        // Busy-time reads are gated on `enabled` OR adaptive learning:
        // handles are free when disabled but `Instant::now` is not.
        let timed = metrics.enabled;
        let learning = pool.sched.learning();
        let time_workers = timed || learning;
        let region_start = timed.then(Instant::now);
        let predicted_ns =
            (timed && learning).then(|| pool.sched.predict_parallel_ns(serial_ns, workers));

        // Contiguous chunk-index ranges, one per worker; every chunk is
        // claimed exactly once through its range's atomic cursor, whether
        // by the owner or a stealer.
        let ends: Vec<usize> = (0..workers).map(|w| (w + 1) * chunks / workers).collect();
        let cursors: Vec<AtomicUsize> =
            (0..workers).map(|w| AtomicUsize::new(w * chunks / workers)).collect();
        let (cursors, ends, init, f) = (&cursors, &ends, &init, &f);

        type WorkerOut<R, E> =
            (Vec<(usize, Result<Vec<R>, E>)>, u64, Option<Duration>, Option<(usize, WorkerPanic)>);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || -> WorkerOut<R, E> {
                        let t0 = time_workers.then(Instant::now);
                        let mut scratch = init();
                        let mut parts = Vec::new();
                        let mut steals = 0u64;
                        let mut panicked = None;
                        'drain: for k in 0..workers {
                            let v = (w + k) % workers;
                            loop {
                                let c = cursors[v].fetch_add(1, Ordering::Relaxed);
                                if c >= ends[v] {
                                    break;
                                }
                                if v != w {
                                    steals += 1;
                                }
                                let part = &items[c * chunk_len..((c + 1) * chunk_len).min(len)];
                                // Catch per chunk so the *lowest-index*
                                // panicking chunk can be surfaced even
                                // when stealing reorders execution.
                                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    part.iter().map(|item| f(&mut scratch, item)).collect()
                                }));
                                match run {
                                    Ok(rs) => parts.push((c, rs)),
                                    Err(payload) => {
                                        panicked = Some((c, WorkerPanic::from_payload(payload)));
                                        break 'drain;
                                    }
                                }
                            }
                        }
                        (parts, steals, t0.map(|t| t.elapsed()), panicked)
                    })
                })
                .collect();

            // Join every handle even after a panic: leaving a panicked
            // scoped thread unjoined would make the scope itself panic and
            // bypass the error conversion.
            let mut by_chunk: Vec<Option<Result<Vec<R>, E>>> = (0..chunks).map(|_| None).collect();
            let mut first_panic: Option<(usize, WorkerPanic)> = None;
            let mut busy = Duration::ZERO;
            let mut steal_total = 0u64;
            for h in handles {
                match h.join() {
                    Ok((parts, steals, worker_busy, panicked)) => {
                        for (c, rs) in parts {
                            by_chunk[c] = Some(rs);
                        }
                        steal_total += steals;
                        if let Some(b) = worker_busy {
                            busy += b;
                            if timed {
                                metrics.busy_us.observe_duration(b);
                            }
                        }
                        if let Some((c, p)) = panicked {
                            if first_panic.as_ref().is_none_or(|(fc, _)| c < *fc) {
                                first_panic = Some((c, p));
                            }
                        }
                    }
                    Err(payload) => {
                        // A panic that escaped the per-chunk catch (e.g.
                        // inside `init`): surface it, but let any
                        // chunk-attributed panic win the ordering.
                        let p = WorkerPanic::from_payload(payload);
                        if first_panic.is_none() {
                            first_panic = Some((usize::MAX, p));
                        }
                    }
                }
            }

            metrics.steals.add(steal_total);
            if learning {
                region.observe(len, busy);
            }
            if let Some(start) = region_start {
                let span_ns = start.elapsed().as_nanos();
                if span_ns > 0 {
                    let pct = busy.as_nanos() * 100 / (span_ns * workers as u128);
                    metrics.utilization_pct.observe(pct.min(100) as u64);
                    if let Some(pred) = predicted_ns {
                        let actual = span_ns as f64;
                        let err = ((pred - actual).abs() * 100.0 / actual) as u64;
                        metrics.pred_err_pct.observe(err);
                    }
                }
            }

            if let Some((_, p)) = first_panic {
                return Err(p.into());
            }
            let mut all = Vec::with_capacity(len);
            for part in by_chunk {
                // Every cursor ran to its range end and no chunk panicked,
                // so every index was claimed and completed exactly once;
                // the first failed chunk in order holds the first error.
                all.extend(part.expect("chunk completed by exactly one worker")?);
            }
            Ok(all)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A calibration fixture: decisions become a pure function of the
    /// config and observations, independent of the host.
    fn fixed_cal() -> Calibration {
        Calibration { spawn_ns: 20_000, hw_threads: 8 }
    }

    fn obs() -> Obs {
        Obs::new(als_obs::ObsConfig::default()).unwrap()
    }

    /// `pool.map` over an infallible per-item function.
    fn map_plain<T: Sync, R: Send>(
        pool: &WorkerPool,
        name: &'static str,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Result<Vec<R>, WorkerPanic> {
        pool.map(&pool.region(name, 1), items, || (), |(), item| Ok(f(item)))
    }

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 16] {
            for cfg in [
                SchedConfig::default(),
                SchedConfig::forced(),
                SchedConfig::with_calibration(fixed_cal()),
            ] {
                let pool = WorkerPool::with_config(threads, cfg.clone());
                let got = map_plain(&pool, "anon", &items, |x| x * 3 + 1).unwrap();
                assert_eq!(got, expect, "threads = {threads}, cfg = {cfg:?}");
            }
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_per_call() {
        let items: Vec<usize> = (0..500).collect();
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        let region = pool.region("eval", 1);
        for round in 0..3 {
            let builds = AtomicUsize::new(0);
            // Scratch accumulates a per-worker counter; the mapped value
            // must not depend on it (determinism), only on the item.
            let got = pool
                .map(
                    &region,
                    &items,
                    || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |count, &x| {
                        *count += 1;
                        Ok::<_, WorkerPanic>(x * 2)
                    },
                )
                .unwrap();
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "round {round}");
            assert_eq!(builds.load(Ordering::Relaxed), 4, "one scratch per worker, round {round}");
        }
        // Inline: one scratch for the whole call.
        let serial = WorkerPool::with_config(1, SchedConfig::default());
        let builds = AtomicUsize::new(0);
        serial
            .map(
                &serial.region("eval", 1),
                &items,
                || builds.fetch_add(1, Ordering::Relaxed),
                |_, &x| Ok::<_, WorkerPanic>(x),
            )
            .unwrap();
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn adaptive_floors_keep_small_and_cheap_regions_serial() {
        let pool = WorkerPool::with_config(8, SchedConfig::with_calibration(fixed_cal()));
        // Hard min-items guard: below 16 items never fans out, whatever
        // the model thinks.
        assert!(pool.fan_out(&pool.region("cuts", 1_000), sched::MIN_ITEMS - 1).is_none());
        // A sub-millisecond region (sim seed: 2ns/unit · 1000 = 2us) stays
        // serial under the min-serial-time floor.
        assert!(pool.fan_out(&pool.region("sim_wave", 1), 1000).is_none());
        // A predicted-heavy region clears both floors and the model.
        let heavy = pool.region("cpm_wave", 64);
        let fanout = pool.fan_out(&heavy, 10_000).expect("heavy region fans out");
        assert_eq!((fanout.workers(), fanout.chunks()), (8, 64));
    }

    #[test]
    fn worker_panic_is_converted_not_propagated() {
        let items: Vec<usize> = (0..200).collect();
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        let err = map_plain(&pool, "anon", &items, |&x| {
            assert!(x != 137, "boom at {x}");
            x
        })
        .unwrap_err();
        assert!(err.0.contains("boom at 137"), "payload: {}", err.0);
        assert!(err.to_string().contains("worker thread panicked"));
    }

    #[test]
    fn multi_thread_pool_contains_panics_even_when_region_runs_serial() {
        // The error surface must not depend on the cutover decision: a
        // region the cost model keeps serial still returns WorkerPanic
        // on a multi-thread pool...
        let items: Vec<usize> = (0..8).collect(); // below the min-items floor
        let pool = WorkerPool::with_config(4, SchedConfig::with_calibration(fixed_cal()));
        let boom = |&x: &usize| if x == 3 { panic!("serial boom") } else { x };
        let err = map_plain(&pool, "anon", &items, boom).unwrap_err();
        assert!(err.0.contains("serial boom"));
        // ...while a 1-thread pool deliberately propagates.
        let serial = WorkerPool::with_config(1, SchedConfig::with_calibration(fixed_cal()));
        let run =
            std::panic::catch_unwind(AssertUnwindSafe(|| map_plain(&serial, "anon", &items, boom)));
        assert!(run.is_err());
    }

    #[test]
    fn lowest_chunk_panic_wins_even_with_stealing() {
        let items: Vec<usize> = (0..400).collect();
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        // every chunk panics; the payload of the lowest chunk wins
        let err = map_plain(&pool, "anon", &items, |&x| -> usize { panic!("chunk item {x}") })
            .unwrap_err();
        assert_eq!(err.0, "chunk item 0");
    }

    #[test]
    fn map_surfaces_first_error_in_item_order() {
        #[derive(Debug, PartialEq)]
        enum Failure {
            Item(usize),
            Panic,
        }
        impl From<WorkerPanic> for Failure {
            fn from(_: WorkerPanic) -> Failure {
                Failure::Panic
            }
        }
        let items: Vec<usize> = (0..300).collect();
        let f = |(): &mut (), &x: &usize| if x % 100 == 50 { Err(Failure::Item(x)) } else { Ok(x) };
        for threads in [1, 3] {
            let pool = WorkerPool::with_config(threads, SchedConfig::forced());
            let err = pool.map(&pool.region("anon", 1), &items, || (), f).unwrap_err();
            assert_eq!(err, Failure::Item(50), "threads = {threads}");
        }
    }

    #[test]
    fn stealing_rebalances_stragglers_and_preserves_order() {
        // One pathological item (index 0) is ~1000x the cost of the rest:
        // the worker that owns chunk 0 stalls there while the others
        // finish their ranges and steal its remaining chunks.
        let items: Vec<u64> = (0..4096).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        let obs = obs();
        let pool = WorkerPool::with_config(4, SchedConfig::forced()).with_obs(&obs);
        let got = map_plain(&pool, "anon", &items, |&x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            x + 1
        })
        .unwrap();
        assert_eq!(got, expect);
        let steals = obs.counter("als_sched_steals_total", "").get();
        assert!(steals > 0, "expected the stalled owner's chunks to be stolen");
    }

    #[test]
    fn instrumented_pool_records_regions_and_matches_plain_output() {
        let obs = obs();
        let items: Vec<u64> = (0..1000).collect();
        let plain = WorkerPool::with_config(4, SchedConfig::forced());
        let pool = WorkerPool::with_config(4, SchedConfig::forced()).with_obs(&obs);
        assert_eq!(
            map_plain(&pool, "anon", &items, |x| x * 7).unwrap(),
            map_plain(&plain, "anon", &items, |x| x * 7).unwrap()
        );
        let _small = map_plain(&pool, "anon", &[1u64], |x| *x).unwrap();
        assert_eq!(obs.counter("als_pool_regions_total", "").get(), 1);
        assert_eq!(obs.counter("als_pool_serial_regions_total", "").get(), 1);
        assert_eq!(obs.counter("als_pool_items_total", "").get(), 1001);
        assert_eq!(obs.counter("als_sched_cutover_parallel_total", "").get(), 1);
        assert_eq!(obs.counter("als_sched_cutover_floor_total", "").get(), 1);
        assert_eq!(obs.histogram("als_pool_worker_busy_us", "").count(), 4);
        assert_eq!(obs.histogram("als_pool_utilization_pct", "").count(), 1);
    }

    #[test]
    fn every_fan_out_call_records_one_cutover_and_inline_records_none() {
        let obs = obs();
        let pool =
            WorkerPool::with_config(8, SchedConfig::with_calibration(fixed_cal())).with_obs(&obs);
        let items: Vec<u64> = (0..10_000).collect();
        // Heavy region fans out and records a prediction error sample.
        pool.map(&pool.region("cpm_wave", 64), &items, || (), |(), x| Ok::<_, WorkerPanic>(*x))
            .unwrap();
        // Tiny region floors.
        map_plain(&pool, "anon", &[1u64, 2], |x| *x).unwrap();
        // A bare inline call is not a decision.
        pool.inline(&pool.region("anon", 1), 3, || ());
        let count = |name| obs.counter(name, "").get();
        assert_eq!(count("als_sched_cutover_parallel_total"), 1);
        assert_eq!(count("als_sched_cutover_floor_total"), 1);
        assert_eq!(count("als_sched_cutover_serial_total"), 0);
        assert_eq!(obs.histogram("als_sched_pred_err_pct", "").count(), 1);
    }

    #[test]
    fn disabled_obs_pool_records_nothing() {
        let pool =
            WorkerPool::with_config(2, SchedConfig::forced()).with_obs(&als_obs::Obs::disabled());
        let items: Vec<u64> = (0..100).collect();
        map_plain(&pool, "anon", &items, |x| x + 1).unwrap();
        assert!(!pool.metrics.enabled);
        assert_eq!(pool.metrics.regions.get(), 0);
        assert_eq!(pool.metrics.items.get(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_serial());
        assert!(pool.fan_out(&pool.region("anon", 1), 1_000_000).is_none());
    }
}
