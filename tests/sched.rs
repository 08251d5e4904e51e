//! Adaptive scheduler invariants, end to end.
//!
//! Four properties are pinned here: cutover decisions are a pure function
//! of the configuration and the observation history (no host dependence
//! once the calibration is fixed); every flow produces byte-identical
//! results whether regions run serial, forced-parallel or adaptive, at
//! every thread count; cheap simulation regions stay on the caller's
//! thread under the adaptive floors — the guard against paying 30×
//! fan-out overhead on sub-millisecond work; and every region call of the
//! analysis records exactly one cutover decision.

use std::time::Duration;

use dualphase_als::cuts::CutState;
use dualphase_als::engine::{flows, journal, FlowConfig, FLOW_NAMES};
use dualphase_als::error::MetricKind;
use dualphase_als::obs::{Obs, ObsConfig};
use dualphase_als::par::{Calibration, SchedConfig, WorkerPool};
use dualphase_als::sim::{PatternSet, Simulator};

fn fixed_cal() -> Calibration {
    Calibration { spawn_ns: 20_000, hw_threads: 8 }
}

/// Two pools built from the same configuration (fixed calibration) and
/// fed the same observation sequence answer every cutover query
/// identically — the determinism half of the cost model's contract.
#[test]
fn cutover_decisions_are_deterministic_given_identical_observations() {
    let observations: &[(usize, u64, u64)] =
        &[(10_000, 64, 320), (5_000, 16, 900), (100_000, 1, 4_000), (256, 128, 70)];
    let queries: &[(usize, u64, usize)] = &[
        (15, 1, 8),
        (100, 1, 8),
        (1_000, 16, 2),
        (6_500, 64, 8),
        (10_000, 64, 8),
        (100_000, 1, 4),
        (1_000_000, 8, 7),
    ];
    for name in ["sim_wave", "cpm_wave", "eval", "cuts"] {
        for &(len, weight, threads) in queries {
            let replay = || {
                let pool =
                    WorkerPool::with_config(threads, SchedConfig::with_calibration(fixed_cal()));
                for &(olen, oweight, us) in observations {
                    pool.region(name, oweight).observe(olen, Duration::from_micros(us));
                }
                pool
            };
            let (a, b) = (replay(), replay());
            let (ra, rb) = (a.region(name, weight), b.region(name, weight));
            assert_eq!(ra.unit_ns(), rb.unit_ns(), "model state diverged in {name}");
            let plan = |pool: &WorkerPool, region| {
                pool.fan_out(region, len).map(|f| (f.workers(), f.chunks()))
            };
            assert_eq!(
                plan(&a, &ra),
                plan(&b, &rb),
                "decision diverged: {name} len={len} weight={weight} threads={threads}"
            );
        }
    }
}

/// Every registered flow, at thread counts {2, 4, 7}, forced-parallel and
/// adaptive with a fixed calibration, produces the same serialized circuit
/// and final error as the 1-thread serial run.
#[test]
fn all_flows_byte_identical_to_serial_at_every_thread_count() {
    let aig = dualphase_als::circuits::benchmark(
        "adder",
        dualphase_als::circuits::BenchmarkScale::Reduced,
    );
    let cfg = |sched: SchedConfig, threads: usize| {
        FlowConfig::new(MetricKind::Med, 4.0)
            .with_patterns(512)
            .with_threads(threads)
            .with_sched(sched)
    };
    for &name in FLOW_NAMES {
        let baseline =
            flows::by_name(name, cfg(SchedConfig::default(), 1)).unwrap().run(&aig).unwrap();
        let baseline_bytes = dualphase_als::aig::io::to_ascii_string(&baseline.circuit);
        for threads in [2, 4, 7] {
            for sched in [SchedConfig::forced(), SchedConfig::with_calibration(fixed_cal())] {
                let label = format!("{name} at {threads} threads ({:?})", sched.mode);
                let res =
                    flows::by_name(name, cfg(sched.clone(), threads)).unwrap().run(&aig).unwrap();
                assert_eq!(res.final_error, baseline.final_error, "{label}");
                assert_eq!(res.lacs_applied(), baseline.lacs_applied(), "{label}");
                assert_eq!(
                    dualphase_als::aig::io::to_ascii_string(&res.circuit),
                    baseline_bytes,
                    "serialized circuit diverged: {label}"
                );
            }
        }
    }
}

/// Satellite 1: a sub-millisecond simulation never fans out under the
/// adaptive scheduler — the whole-cone decision keeps it on the caller's
/// thread (no spawn, no wave derivation), while the values stay identical
/// to the serial simulator's.
#[test]
fn adaptive_keeps_cheap_simulation_regions_serial() {
    let aig = dualphase_als::circuits::benchmark(
        "adder",
        dualphase_als::circuits::BenchmarkScale::Reduced,
    );
    let patterns = PatternSet::random(aig.num_inputs(), 4, 99);
    let serial = Simulator::new(&aig, &patterns);
    let obs = Obs::new(ObsConfig::default()).unwrap();
    let pool =
        WorkerPool::with_config(4, SchedConfig::with_calibration(fixed_cal())).with_obs(&obs);
    let par = Simulator::new_with(&aig, &patterns, &pool);
    for n in aig.iter_live() {
        assert_eq!(serial.value(n), par.value(n));
    }
    assert_eq!(
        obs.counter("als_pool_regions_total", "").get(),
        0,
        "a tiny simulation paid a parallel fan-out"
    );
}

/// Scheduling is a pure performance knob: journals written under one
/// scheduler (or thread count) resume under any other.
#[test]
fn journal_fingerprint_ignores_scheduler_and_threads() {
    let base = FlowConfig::new(MetricKind::Med, 4.0).with_patterns(512);
    let fp = journal::config_fingerprint(&base, "dpsa");
    for sched in [SchedConfig::forced(), SchedConfig::with_calibration(fixed_cal())] {
        let cfg = base.clone().with_sched(sched).with_threads(7);
        assert_eq!(journal::config_fingerprint(&cfg, "dpsa"), fp);
    }
    // ...while result-affecting fields still change it.
    let other = base.clone().with_seed(1);
    assert_ne!(journal::config_fingerprint(&other, "dpsa"), fp);
}

/// The cutover counters of one instrumented pool.
struct Cutovers(Obs);

impl Cutovers {
    fn get(&self, name: &str) -> u64 {
        self.0.counter(name, "").get()
    }

    /// Cutover decisions recorded, of any outcome.
    fn decisions(&self) -> u64 {
        ["parallel", "serial", "floor"]
            .iter()
            .map(|kind| self.get(&format!("als_sched_cutover_{kind}_total")))
            .sum()
    }

    /// Regions that ran, inline or fanned out.
    fn regions_run(&self) -> u64 {
        self.get("als_pool_regions_total") + self.get("als_pool_serial_regions_total")
    }
}

/// Every region call — the whole-cone and per-wave simulation decisions,
/// each CPM wave, the cut map and the eval map — records exactly one
/// `als_sched_cutover_*` increment, whether it ends up inline or fanned
/// out.
#[test]
fn every_region_call_records_exactly_one_cutover() {
    let aig = dualphase_als::circuits::benchmark(
        "sm9x8",
        dualphase_als::circuits::BenchmarkScale::Reduced,
    );
    let patterns = PatternSet::random(aig.num_inputs(), 4, 7);
    let levels = dualphase_als::aig::topo::levels(&aig);
    let sim_waves = u64::from(*levels.iter().max().unwrap());
    let cuts = CutState::compute(&aig);
    let cpm_waves = cuts.full_plan(&aig).unwrap().waves().len() as u64;
    let live = aig.iter_live().count() as u64;
    for sched in [SchedConfig::forced(), SchedConfig::with_calibration(fixed_cal())] {
        let forced = sched == SchedConfig::forced();
        let new_pool = || {
            let obs = Obs::new(ObsConfig::default()).unwrap();
            (WorkerPool::with_config(4, sched.clone()).with_obs(&obs), Cutovers(obs))
        };

        // Simulation: one whole-cone decision; when the cone fans out
        // (always when forced, never for this small circuit under the
        // adaptive floors), one more per level-synchronous wave, each of
        // which then runs inline or fanned out.
        let (pool, c) = new_pool();
        Simulator::new_with(&aig, &patterns, &pool);
        if forced {
            assert_eq!(c.decisions(), 1 + sim_waves, "{sched:?}");
            assert_eq!(c.regions_run(), sim_waves, "{sched:?}");
            // both branches ran: single-gate waves floor to inline
            assert!(c.get("als_pool_regions_total") > 0);
            assert!(c.get("als_pool_serial_regions_total") > 0);
        } else {
            assert_eq!(c.decisions(), 1, "{sched:?}");
            assert_eq!(c.regions_run(), 1, "{sched:?}");
        }

        // CPM: one decision per wave of the cached plan.
        let (pool, c) = new_pool();
        let sim = Simulator::new(&aig, &patterns);
        dualphase_als::cpm::compute_full_with(&aig, &sim, &cuts, &pool).unwrap();
        assert_eq!(c.decisions(), cpm_waves, "{sched:?}");
        assert_eq!(c.regions_run(), cpm_waves, "{sched:?}");
        if forced {
            assert!(c.get("als_pool_regions_total") > 0);
        }

        // Cuts: one map, one decision.
        let (pool, c) = new_pool();
        CutState::compute_with(&aig, &pool).unwrap();
        assert_eq!((c.decisions(), c.regions_run()), (1, 1), "{sched:?}");
        assert_eq!(c.get("als_pool_items_total"), live, "{sched:?}");
    }
    // A whole adaptive flow obeys the same rule: each decision is
    // followed by exactly one region run (the whole-cone simulation
    // decisions of this small circuit never fan out into waves).
    let cfg = FlowConfig::new(MetricKind::Med, 4.0)
        .with_patterns(512)
        .with_threads(4)
        .with_sched(SchedConfig::with_calibration(fixed_cal()));
    let obs = Obs::new(ObsConfig::default()).unwrap();
    flows::by_name("dp", cfg.with_obs(obs.clone())).unwrap().run(&aig).unwrap();
    let c = Cutovers(obs);
    assert!(c.decisions() > 0);
    assert_eq!(c.decisions(), c.regions_run());
}
