//! Synthesis workloads: one client running flows back to back (a closed
//! loop), in passes over a fixed list of (circuit, flow) cells until the
//! measurement window closes. Each pass draws a fresh pattern seed per
//! circuit from the workload seed, so a run averages over several pattern
//! sets while every pass does the same kind of work.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use als_engine::{flows, FlowConfig, FlowName, FlowResult};
use als_error::MetricKind;
use als_map::CellLibrary;
use als_obs::{Obs, ObsConfig};

use crate::check::{self, Claim};
use crate::replay::Replay;
use crate::spans::Layers;
use crate::stats::{self, derive_seed};
use crate::{prepare, report_engine, Report, RunOpts, Scale};

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Passes an untraced run always completes. The quality metric is taken
/// over exactly these, so it does not depend on how fast the host is.
const QUALITY_PASSES: usize = 3;

/// One (circuit, flow) pair and its pattern count.
#[derive(Copy, Clone, Debug)]
pub struct Cell {
    /// Benchmark name.
    pub circuit: &'static str,
    /// Flow to run.
    pub flow: FlowName,
    /// Monte-Carlo pattern count.
    pub patterns: usize,
}

/// A closed-loop synthesis workload.
#[derive(Clone, Debug)]
pub struct SynthWorkload {
    /// Error metric of every bound.
    pub metric: MetricKind,
    /// Worker threads of every run.
    pub threads: usize,
    /// The cells of one pass, in run order.
    pub cells: Vec<Cell>,
}

fn cells(circuits: &[&'static str], flows: &[FlowName], patterns: usize) -> Vec<Cell> {
    circuits
        .iter()
        .flat_map(|&circuit| flows.iter().map(move |&flow| Cell { circuit, flow, patterns }))
        .collect()
}

/// The synthesis workload called `name` at `scale`.
pub fn workload(name: &str, scale: Scale) -> Option<SynthWorkload> {
    use FlowName::{Conventional, Dp, DpSa};
    let mut w = match name {
        // Table II small group: SASIMI LACs, eval-bound.
        "small_sasimi" => SynthWorkload {
            metric: MetricKind::Mse,
            threads: 1,
            cells: cells(&["c880", "c3540", "adder", "c1908"], &[Dp, DpSa, Conventional], 1024),
        },
        // Table II large group: constant LACs, M = 150, cuts-bound.
        "large_const" => SynthWorkload {
            metric: MetricKind::Mse,
            threads: 1,
            cells: cells(&["sin"], &[Dp, DpSa], 256),
        },
        // The only workload that fans out over the worker pool.
        "threads2" => SynthWorkload {
            metric: MetricKind::Mse,
            threads: 2,
            cells: cells(&["sm9x8", "mult16"], &[Dp], 1024),
        },
        _ => return None,
    };
    if scale == Scale::Mini {
        let first = w.cells[0].circuit;
        w.cells.retain(|c| c.circuit == first);
        w.cells.iter_mut().for_each(|c| c.patterns = 256);
    }
    Some(w)
}

/// The paper's setup for one cell (what the experiment binaries use):
/// threshold index 1, SASIMI LACs with `M = 60` for small circuits,
/// constant LACs with `M = 150` for large ones. Threads and scheduler are
/// set here, never taken from the environment.
fn config(w: &SynthWorkload, cell: &Cell, bound: f64, seed: u64) -> FlowConfig {
    let cfg = FlowConfig::new(w.metric, bound)
        .with_patterns(cell.patterns)
        .with_seed(seed)
        .with_threads(w.threads)
        .with_sched(als_par::SchedConfig::default());
    if als_circuits::suite::large_circuit_names().contains(&cell.circuit) {
        cfg.for_large_circuit()
    } else {
        cfg
    }
}

/// What one flow run left behind.
struct Sample {
    pass: usize,
    wall_s: f64,
    adp_saving_pct: f64,
    analyses: usize,
    digest: u64,
}

/// One pass's span lines and registry, when traced.
struct Trace {
    lines: Arc<Mutex<Vec<String>>>,
    obs: Obs,
}

impl Trace {
    fn new() -> Result<Trace, String> {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let obs = Obs::with_listener(
            ObsConfig::default(),
            Some(Arc::new(move |l: &str| {
                sink.lock().expect("span sink poisoned").push(l.to_string())
            })),
        )
        .map_err(|e| format!("creating the span listener: {e}"))?;
        Ok(Trace { lines, obs })
    }

    /// The pass's layer totals and its span lines.
    fn finish(self) -> (Layers, Vec<String>) {
        let lines = std::mem::take(&mut *self.lines.lock().expect("span sink poisoned"));
        let mut layers = Layers::default();
        layers.absorb(&lines, &self.obs.prometheus_text());
        (layers, lines)
    }
}

/// Runs a synthesis workload into `report`.
pub fn run(w: &SynthWorkload, opts: &RunOpts, report: &mut Report) -> Result<(), String> {
    let lib = CellLibrary::new();
    let names: Vec<&'static str> = {
        let mut v: Vec<_> = w.cells.iter().map(|c| c.circuit).collect();
        v.dedup();
        v
    };

    // Set-up: build every circuit, derive its bound, map the original for
    // the ADP denominator. Repeated; the median is reported.
    let (mut setup, mut build, mut map) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (p, build_s, map_s) = prepare(&names, w.metric);
        setup.push(t0.elapsed().as_secs_f64());
        build.push(build_s);
        map.push(map_s);
        prepared = p;
    }
    report.set("setup_s", stats::median(&setup));
    report.set("circuits.build_s", stats::median(&build));
    report.set("map.adp_s", stats::median(&map));

    // Measurement: passes until the window closes, after a minimum that
    // always completes. A traced run alternates untraced and traced passes
    // over the same seeds, so the pairs measure the tracing overhead.
    let passes_per_seed = if opts.trace { 2 } else { 1 };
    let min_passes = match (opts.trace, opts.scale) {
        (true, _) => 2,
        (false, Scale::Full) => QUALITY_PASSES,
        (false, Scale::Mini) => 1,
    };
    let circuit_index: Vec<usize> =
        w.cells.iter().map(|c| names.iter().position(|n| *n == c.circuit).unwrap_or(0)).collect();
    let start = Instant::now();
    let mut samples: Vec<Vec<Sample>> = w.cells.iter().map(|_| Vec::new()).collect();
    let mut traced_layers: BTreeMap<usize, Layers> = BTreeMap::new();
    let mut check_s = 0.0;
    let mut pass = 0;
    'passes: loop {
        let traced = opts.trace && pass % 2 == 1;
        let seed_index = (pass / passes_per_seed) as u64;
        let trace = if traced { Some(Trace::new()?) } else { None };
        for (ci, cell) in w.cells.iter().enumerate() {
            if pass >= min_passes && start.elapsed().as_secs_f64() >= opts.seconds {
                break 'passes;
            }
            let prep = &prepared[circuit_index[ci]];
            let seed = derive_seed(opts.seed, seed_index, circuit_index[ci] as u64);
            let mut cfg = config(w, cell, prep.bound, seed);
            if let Some(t) = &trace {
                cfg = cfg.with_obs(t.obs.clone());
            }
            let num_patterns = cfg.num_patterns;
            report.attempted += 1;
            let t0 = Instant::now();
            let outcome = flows::by_name(cell.flow, cfg).and_then(|f| f.run(&prep.aig));
            let wall_s = t0.elapsed().as_secs_f64();
            let result: FlowResult = match outcome {
                Ok(r) => r,
                Err(e) => {
                    report.failed += 1;
                    report.note(format!("error {}/{}: {e}", cell.circuit, cell.flow));
                    continue;
                }
            };
            let tc = Instant::now();
            let claim = Claim {
                metric: w.metric,
                bound: prep.bound,
                reported: result.final_error,
                num_patterns,
                seed,
            };
            if let Err(e) = check::verify(&prep.aig, &result.circuit, &claim) {
                report.failed += 1;
                report
                    .note(format!("check failed {}/{} seed={seed}: {e}", cell.circuit, cell.flow));
            }
            check_s += tc.elapsed().as_secs_f64();
            let text = als_aig::io::to_ascii_string(&result.circuit);
            samples[ci].push(Sample {
                pass,
                wall_s,
                adp_saving_pct: 100.0 * (1.0 - als_map::adp(&result.circuit, &lib) / prep.adp),
                analyses: result.comprehensive_analyses,
                digest: stats::fnv1a(text.as_bytes()),
            });
        }
        if let Some(t) = trace {
            let (layers, lines) = t.finish();
            traced_layers.insert(pass, layers);
            report.spans.extend(lines);
        }
        pass += 1;
    }
    let complete_passes = pass;
    report.set("check.naive_s", check_s);

    // DP is deterministic: print its output digests, and in a traced run
    // require the traced pass to reproduce the untraced one bit for bit.
    for (cell, s) in w.cells.iter().zip(&samples) {
        if cell.flow != FlowName::Dp {
            continue;
        }
        if let Some(first) = s.iter().find(|x| x.pass == 0) {
            report.note(format!("digest {}/{} {:016x}", cell.circuit, cell.flow, first.digest));
            if let Some(traced) = s.iter().find(|x| x.pass == 1).filter(|_| opts.trace) {
                if traced.digest != first.digest {
                    report.failed += 1;
                    report.note(format!(
                        "traced {}/{} output differs from untraced",
                        cell.circuit, cell.flow
                    ));
                }
            }
        }
    }

    let pass_wall = |p: usize| -> f64 {
        samples.iter().flatten().filter(|s| s.pass == p).map(|s| s.wall_s).sum()
    };
    let per_cell_median: Vec<f64> = samples
        .iter()
        .map(|s| stats::median(&s.iter().map(|x| x.wall_s).collect::<Vec<_>>()))
        .collect();

    // Closed loop: a request's latency is its flow's wall time. Each cell
    // counts once, with its median over the passes, so the percentiles do
    // not depend on how many passes the window held.
    let latencies: Vec<f64> = per_cell_median.iter().map(|s| 1e3 * s).collect();
    let savings: Vec<f64> = samples
        .iter()
        .flatten()
        .filter(|s| s.pass < min_passes)
        .map(|s| s.adp_saving_pct)
        .collect();
    report.set("wall_s", per_cell_median.iter().sum());
    report.set("latency_p50_ms", stats::percentile(&latencies, 50.0));
    report.set("latency_p90_ms", stats::percentile(&latencies, 90.0));
    report.set("adp_saving_pct", stats::mean(&savings));
    report.note(format!(
        "samples cells={} runs={} complete_passes={complete_passes}",
        w.cells.len(),
        samples.iter().map(Vec::len).sum::<usize>(),
    ));

    // DP versus conventional on the circuits that have both (not gated: a
    // kernel shared by both flows moves it either way).
    let median_of = |circuit: &str, flow: FlowName| {
        w.cells
            .iter()
            .position(|c| c.circuit == circuit && c.flow == flow)
            .map(|i| per_cell_median[i])
    };
    let speedups: Vec<f64> = w
        .cells
        .iter()
        .filter(|c| c.flow == FlowName::Conventional)
        .filter_map(|c| {
            Some(
                median_of(c.circuit, FlowName::Conventional)? / median_of(c.circuit, FlowName::Dp)?,
            )
        })
        .collect();
    let speedup = stats::geomean(&speedups);
    report.set("flows.speedup_dp_vs_conv", speedup);
    if !opts.trace && speedup > 0.0 {
        report.note(format!("ungated speedup_dp_vs_conv {speedup} ratio"));
    }

    if opts.trace {
        // Traced passes are the odd ones; each follows an untraced pass over
        // the same seeds. Counts come from the first traced pass alone.
        let mut total = Layers::default();
        for layers in traced_layers.values() {
            total.merge(layers);
        }
        let units = traced_layers.len() as f64;
        let wall = stats::mean(&traced_layers.keys().map(|&p| pass_wall(p)).collect::<Vec<_>>());
        report_engine(report, &total, units, &traced_layers[&1], 1.0, wall);
        report.set(
            "engine.analyses",
            samples.iter().flatten().filter(|s| s.pass == 1).map(|s| s.analyses as f64).sum(),
        );
        report.set(
            "obs.trace_bytes_per_job",
            stats::ratio(total.trace_bytes, units * w.cells.len() as f64),
        );
        let overheads: Vec<f64> = traced_layers
            .keys()
            .map(|&p| 100.0 * (pass_wall(p) / pass_wall(p - 1) - 1.0))
            .collect();
        report.set("obs.overhead_pct", stats::median(&overheads));

        let mut replay = Replay::default();
        for (i, prep) in prepared.iter().enumerate() {
            let cell = &w.cells
                [circuit_index.iter().position(|&c| c == i).expect("every circuit has a cell")];
            replay.add(
                &prep.aig,
                &config(w, cell, prep.bound, derive_seed(opts.seed, 0, i as u64)),
            )?;
        }
        replay.report(report);
    }
    Ok(())
}
