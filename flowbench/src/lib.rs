//! The repository's benchmark: named workloads that drive the ALS flows
//! and the job daemon end to end, check every result with an independent
//! evaluator, and report end-to-end metrics (untraced runs) or per-layer
//! metrics (traced runs). See `README.md` for the workloads and metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;

use als_obs::json::Json;

mod check;
mod daemon;
pub mod host;
mod replay;
mod spans;
mod stats;
mod synth;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0xA15;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["small_sasimi", "large_const", "threads2", "daemon_open"];

/// End-to-end metrics `(name, unit)`: printed by every untraced run.
pub(crate) const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("adp_saving_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. Layers
/// a workload does not exercise read 0.
pub(crate) const PER_LAYER: [(&str, &str); 57] = [
    ("engine.wall_s", "s"),
    ("engine.setup_self_s", "s"),
    ("engine.phase1_s", "s"),
    ("engine.phase2_s", "s"),
    ("engine.lacs_applied", "count"),
    ("engine.analyses", "count"),
    ("engine.phase2_rounds", "count"),
    ("eval.self_s", "s"),
    ("eval.share_pct", "%"),
    ("eval.lacs", "count"),
    ("eval.dedup_hit_ratio", "ratio"),
    ("eval.ns_per_lac", "ns"),
    ("cuts.self_s", "s"),
    ("cuts.share_pct", "%"),
    ("cuts.phase2_self_s", "s"),
    ("cuts.recomputes", "count"),
    ("cuts.s_v_nodes", "count"),
    ("cuts.full_ms", "ms"),
    ("cuts.update_us_per_sv_node", "us"),
    ("cpm.self_s", "s"),
    ("cpm.share_pct", "%"),
    ("cpm.rows_built", "count"),
    ("cpm.rows_reused", "count"),
    ("cpm.full_rows_per_ms", "rows/ms"),
    ("cpm.partial_rows_per_ms", "rows/ms"),
    ("lac.generate_ms", "ms"),
    ("sim.init_ms", "ms"),
    ("sim.apply_resim_ms", "ms"),
    ("apply.self_s", "s"),
    ("guard.validations", "count"),
    ("guard.rollbacks", "count"),
    ("par.cutover_parallel", "count"),
    ("par.cutover_serial", "count"),
    ("par.cutover_floor", "count"),
    ("par.steals", "count"),
    ("par.utilization_pct", "%"),
    ("journal.bytes_per_job", "B"),
    ("journal.append_us_mean", "us"),
    ("obs.trace_bytes_per_job", "B"),
    ("obs.overhead_pct", "%"),
    ("serve.submit_rtt_ms_p50", "ms"),
    ("serve.status_rtt_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("serve.backlog_end", "count"),
    ("serve.capacity_jobs_per_s", "jobs/s"),
    ("gen.lag_p90_ms", "ms"),
    ("gen.lag_max_ms", "ms"),
    ("flows.speedup_dp_vs_conv", "ratio"),
    ("circuits.build_s", "s"),
    ("map.adp_s", "s"),
    ("check.naive_s", "s"),
    ("host.spin_drift_pct", "%"),
];

/// How big a workload runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined.
    Full,
    /// One circuit, 256 patterns: the same code paths in seconds, for the
    /// harness's own tests.
    Mini,
}

/// One invocation of a workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every input the run generates derives from it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// Where runs keep their scratch state (daemon job directories, span
/// dumps): inside the benchmark's own directory.
pub(crate) fn work_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"))
}

/// The outcome of one run: informational lines, metric values, and the
/// count of operations attempted and failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines (host facts, digests, sample counts).
    pub lines: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Synthesis runs or jobs attempted.
    pub attempted: u64,
    /// Runs or jobs that failed, were refused, or failed the output check.
    pub failed: u64,
    /// Span event lines of a traced run, kept in memory until it ends.
    spans: Vec<String>,
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    /// Panics on a name that neither metric table declares (a harness bug).
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(key, value);
    }

    /// A recorded value (0 when unset).
    pub(crate) fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds an informational line.
    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The metrics a run prints, in table order: the end-to-end table for
    /// an untraced run, the per-layer table for a traced one.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        table.iter().map(|&(n, u)| (n, self.get(n), u)).collect()
    }

    /// End-to-end metrics that are not a positive finite number — a run
    /// that measured nothing.
    pub fn unmeasured(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !(self.get(n) > 0.0 && self.get(n).is_finite()))
            .collect()
    }

    /// Whether every attempted operation succeeded and passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = Json::obj();
        for (name, value, unit) in self.metrics(trace) {
            metrics.set(name, Json::obj().with("value", value).with("unit", unit));
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }
}

/// A benchmark circuit built during set-up, with its error bound and the
/// ADP of the original (the denominator of the quality metric).
pub(crate) struct Prepared {
    pub name: &'static str,
    pub aig: als_aig::Aig,
    pub bound: f64,
    pub adp: f64,
}

/// Builds `names` at reduced scale with the paper's bound at threshold
/// index 1 for `metric`, and maps each original. Returns the circuits and
/// the seconds spent building and mapping.
pub(crate) fn prepare(
    names: &[&'static str],
    metric: als_error::MetricKind,
) -> (Vec<Prepared>, f64, f64) {
    let lib = als_map::CellLibrary::new();
    let (mut build_s, mut map_s) = (0.0, 0.0);
    let prepared = names
        .iter()
        .map(|&name| {
            let t = std::time::Instant::now();
            let aig = als_circuits::benchmark(name, als_circuits::BenchmarkScale::Reduced);
            let bound = als_error::paper_thresholds(metric, aig.num_outputs())[1];
            build_s += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let adp = als_map::adp(&aig, &lib);
            map_s += t.elapsed().as_secs_f64();
            Prepared { name, aig, bound, adp }
        })
        .collect();
    (prepared, build_s, map_s)
}

/// Runs one workload: host facts, a spin probe before and after, the
/// workload itself, and peak memory.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "host nproc={} simd={} profile={} seed={} seconds={} trace={}",
        host::nproc(),
        host::simd_path(),
        host::profile(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    ));
    let spin_start = host::spin();
    match workload {
        "daemon_open" => daemon::run(opts, &mut report)?,
        name => {
            let w = synth::workload(name, opts.scale).ok_or_else(|| {
                format!("unknown workload {name:?} (expected one of {WORKLOADS:?})")
            })?;
            synth::run(&w, opts, &mut report)?
        }
    }
    let spin_end = host::spin();
    let drift = 100.0 * (spin_end.as_secs_f64() / spin_start.as_secs_f64() - 1.0);
    report.set("host.spin_drift_pct", drift);
    if drift.abs() > host::DRIFT_FLAG_PCT {
        report.note(format!(
            "host drift {drift:.1}% exceeds {}%: the host changed speed during this run",
            host::DRIFT_FLAG_PCT
        ));
    }
    report.set("peak_rss_mb", host::peak_rss_mb());
    if opts.trace {
        let path = work_dir().join(format!("{workload}.spans.jsonl"));
        let mut text = std::mem::take(&mut report.spans).join("\n");
        text.push('\n');
        std::fs::create_dir_all(work_dir())
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans {}", path.display()));
    }
    Ok(report)
}

/// Engine per-layer metrics from span and registry totals. `times` holds
/// totals over `units` runs of the workload's unit (a pass or a job);
/// `counts` holds totals over `count_units` of them; `wall` is the traced
/// wall time of one unit.
pub(crate) fn report_engine(
    r: &mut Report,
    times: &spans::Layers,
    units: f64,
    counts: &spans::Layers,
    count_units: f64,
    wall: f64,
) {
    use stats::ratio;
    let per = |v: f64| ratio(v, units);
    let count = |name: &str| ratio(counts.prom(name), count_units);
    r.set("engine.wall_s", wall);
    r.set("engine.setup_self_s", per(times.self_of("flow")));
    r.set("engine.phase1_s", per(times.phase1_s));
    r.set("engine.phase2_s", per(times.phase2_s));
    for layer in ["eval", "cuts", "cpm"] {
        let s = per(times.self_of(layer));
        r.set(&format!("{layer}.self_s"), s);
        r.set(&format!("{layer}.share_pct"), 100.0 * ratio(s, wall));
    }
    r.set("cuts.phase2_self_s", per(times.cuts_phase2_s));
    r.set("apply.self_s", per(times.self_of("apply")));
    r.set("engine.lacs_applied", count("als_iterations_total"));
    r.set("engine.phase2_rounds", count("als_phase2_rounds_total"));
    r.set("eval.lacs", ratio(counts.lacs, count_units));
    let (hits, reps) =
        (counts.prom("als_lac_dedup_hits_total"), counts.prom("als_lac_dedup_reps_total"));
    r.set("eval.dedup_hit_ratio", ratio(hits, hits + reps));
    r.set("cuts.recomputes", count("als_cut_recomputations_total"));
    r.set("cuts.s_v_nodes", count("als_cpc_violations_total"));
    r.set("cpm.rows_built", count("als_cpm_rows_built_total"));
    r.set("cpm.rows_reused", count("als_cpm_rows_reused_total"));
    r.set("guard.validations", count("als_guard_validations_total"));
    r.set("guard.rollbacks", count("als_guard_rollbacks_total"));
    r.set("par.cutover_parallel", count("als_sched_cutover_parallel_total"));
    r.set("par.cutover_serial", count("als_sched_cutover_serial_total"));
    r.set("par.cutover_floor", count("als_sched_cutover_floor_total"));
    r.set("par.steals", count("als_sched_steals_total"));
    r.set(
        "par.utilization_pct",
        ratio(
            times.prom("als_pool_utilization_pct_sum"),
            times.prom("als_pool_utilization_pct_count"),
        ),
    );
    r.set(
        "journal.append_us_mean",
        ratio(times.prom("als_journal_append_us_sum"), times.prom("als_journal_append_us_count")),
    );
}
