//! `als` — command-line front end for the dual-phase ALS library.
//!
//! ```text
//! als list                                  # available generated benchmarks
//! als stats  <circuit>                      # PI/PO/gates/depth/area/delay
//! als synth  <circuit> [options] -o out.aag # run a flow, write the result
//! als convert <in.aag> -o out.(aag|aig|v)   # format conversion
//! als serve  --state <dir> [--addr A]       # run the job daemon
//! als job    <submit|status|watch|cancel|list> [--addr A] ...
//! ```
//!
//! `<circuit>` is either a benchmark name (see `als list`) or a path to an
//! AIGER file. Synthesis options:
//!
//! ```text
//! --flow conventional|l1|accals|dp|dpsa   (default dpsa)
//! --metric er|med|mse                     (default med)
//! --bound X                               (default: paper reference R)
//! --patterns N   --seed S   --threads T   --full
//!                    (with T > 1 an adaptive cost model decides per region
//!                    whether to fan out; `ALS_SCHED=force` is a test aid
//!                    that fans out every region — output never changes)
//! --strict           re-validate every commit on an independent pattern set
//! --max-retries N    rollbacks allowed per selection before giving up
//! --timeout SECS     stop gracefully after a wall-clock deadline
//! --max-iters N      stop gracefully after N applied LACs
//! --journal <path>   journal every committed iteration (dp/dpsa only)
//! --resume <path>    resume a crashed run from its journal (dp/dpsa only)
//! --trace <path>     write a JSONL span trace of the run
//! --metrics <path>   write Prometheus text metrics at exit
//! --tree             print the aggregated span tree to stderr at exit
//! ```
//!
//! `--json` makes `synth` print the machine-readable result document
//! (the same schema the job service returns) on stdout instead of the
//! human summary.
//!
//! A run stopped early — by `--timeout`, `--max-iters`, SIGINT or SIGTERM —
//! still writes its best-so-far result and exits with code 3 (a second
//! signal aborts immediately). Exit codes: 0 completed, 3 stopped early
//! with a valid result, 1 error.
//!
//! `als serve` runs the ALS-as-a-service daemon (see `dualphase_als::serve`):
//! jobs are submitted, watched and cancelled over a line-JSON TCP protocol
//! (the `als job` subcommands), with Prometheus metrics and a liveness
//! probe served as plain HTTP on the same port. SIGTERM/SIGINT drain the
//! daemon gracefully: running jobs seal their journals and resume on the
//! next start.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use dualphase_als::circuits::{benchmark, benchmark_names, BenchmarkScale};
use dualphase_als::error::reference_error;
use dualphase_als::map::{map_circuit, CellLibrary};
use dualphase_als::prelude::*;

fn load(name_or_path: &str, full: bool) -> Result<Aig, String> {
    if benchmark_names().contains(&name_or_path) {
        let scale = if full { BenchmarkScale::Paper } else { BenchmarkScale::Reduced };
        return Ok(benchmark(name_or_path, scale));
    }
    let file = File::open(name_or_path).map_err(|e| format!("{name_or_path}: {e}"))?;
    let stem = std::path::Path::new(name_or_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    if name_or_path.ends_with(".blif") {
        dualphase_als::aig::blif::read_blif(BufReader::new(file), stem).map_err(|e| e.to_string())
    } else {
        dualphase_als::aig::io::read(BufReader::new(file), stem).map_err(|e| e.to_string())
    }
}

fn save(aig: &Aig, path: &str) -> Result<(), String> {
    let file = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
    let result = if path.ends_with(".v") {
        dualphase_als::aig::verilog::write_verilog(aig, file)
    } else if path.ends_with(".blif") {
        dualphase_als::aig::blif::write_blif(aig, file)
    } else if path.ends_with(".aig") {
        dualphase_als::aig::io::write_binary(aig, file)
    } else {
        dualphase_als::aig::io::write_ascii(aig, file)
    };
    result.map_err(|e| e.to_string())
}

fn stats(aig: &Aig) {
    let m = map_circuit(aig, &CellLibrary::new());
    println!("name:    {}", aig.name());
    println!("inputs:  {}", aig.num_inputs());
    println!("outputs: {}", aig.num_outputs());
    println!("gates:   {}", aig.num_ands());
    println!("depth:   {}", dualphase_als::aig::topo::depth(aig));
    println!("area:    {:.2} um2 ({} cells, {} inverters)", m.area, m.num_cells, m.num_inverters);
    println!("delay:   {:.3} ns", m.delay);
    println!("adp:     {:.2}", m.adp());
}

struct SynthOpts {
    flow: FlowName,
    metric: MetricKind,
    bound: Option<f64>,
    patterns: usize,
    seed: u64,
    threads: Option<usize>,
    full: bool,
    strict: bool,
    max_retries: Option<usize>,
    timeout: Option<std::time::Duration>,
    max_iters: Option<usize>,
    journal: Option<String>,
    resume: Option<String>,
    output: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    tree: bool,
    json: bool,
}

/// How a `synth` run ended: normally, or preempted with a best-so-far
/// result that is still valid and already written out.
enum Outcome {
    Completed,
    Stopped(StopReason),
}

fn run() -> Result<Outcome, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".to_string());
    match cmd.as_str() {
        "list" => {
            for name in benchmark_names() {
                println!("{name}");
            }
            Ok(Outcome::Completed)
        }
        "stats" => {
            let target = args.next().ok_or("usage: als stats <circuit> [--full]")?;
            if target.starts_with("--") {
                return Err(format!("unknown option {target} (expected a circuit first)"));
            }
            let mut full = false;
            for a in args {
                match a.as_str() {
                    "--full" => full = true,
                    other => return Err(format!("unknown option {other}")),
                }
            }
            stats(&load(&target, full)?);
            Ok(Outcome::Completed)
        }
        "convert" => {
            let input = args.next().ok_or("usage: als convert <in> -o <out>")?;
            if input.starts_with("--") {
                return Err(format!("unknown option {input} (expected an input file first)"));
            }
            let mut output = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "-o" => output = Some(args.next().ok_or("missing value for -o")?),
                    other => return Err(format!("unknown option {other}")),
                }
            }
            let output = output.ok_or("missing -o <out>")?;
            let aig = load(&input, false)?;
            save(&aig, &output)?;
            println!("wrote {output}");
            Ok(Outcome::Completed)
        }
        "synth" => {
            let target = args.next().ok_or("usage: als synth <circuit> [options]")?;
            if target.starts_with("--") {
                return Err(format!("unknown option {target} (expected a circuit first)"));
            }
            let mut o = SynthOpts {
                flow: FlowName::DpSa,
                metric: MetricKind::Med,
                bound: None,
                patterns: 8192,
                seed: 0xA15,
                threads: None,
                full: false,
                strict: false,
                max_retries: None,
                timeout: None,
                max_iters: None,
                journal: None,
                resume: None,
                output: None,
                trace: None,
                metrics: None,
                tree: false,
                json: false,
            };
            while let Some(a) = args.next() {
                let mut value =
                    |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
                match a.as_str() {
                    "--flow" => o.flow = value("--flow")?.parse().map_err(|e| format!("{e}"))?,
                    "--metric" => {
                        o.metric = value("--metric")?.parse().map_err(|e| format!("{e}"))?
                    }
                    "--bound" => {
                        o.bound = Some(value("--bound")?.parse().map_err(|_| "bad --bound")?)
                    }
                    "--patterns" => {
                        o.patterns = value("--patterns")?.parse().map_err(|_| "bad --patterns")?
                    }
                    "--seed" => o.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
                    "--threads" => {
                        o.threads = Some(value("--threads")?.parse().map_err(|_| "bad --threads")?)
                    }
                    "--full" => o.full = true,
                    "--strict" => o.strict = true,
                    "--max-retries" => {
                        o.max_retries =
                            Some(value("--max-retries")?.parse().map_err(|_| "bad --max-retries")?)
                    }
                    "--timeout" => {
                        let secs: f64 = value("--timeout")?.parse().map_err(|_| "bad --timeout")?;
                        let limit = std::time::Duration::try_from_secs_f64(secs)
                            .map_err(|_| "bad --timeout (must be a non-negative duration)")?;
                        o.timeout = Some(limit);
                    }
                    "--max-iters" => {
                        o.max_iters =
                            Some(value("--max-iters")?.parse().map_err(|_| "bad --max-iters")?)
                    }
                    "--journal" => o.journal = Some(value("--journal")?.to_string()),
                    "--resume" => o.resume = Some(value("--resume")?.to_string()),
                    "--trace" => o.trace = Some(value("--trace")?.to_string()),
                    "--metrics" => o.metrics = Some(value("--metrics")?.to_string()),
                    "--tree" => o.tree = true,
                    "--json" => o.json = true,
                    "-o" => o.output = Some(value("-o")?.to_string()),
                    other => return Err(format!("unknown option {other}")),
                }
            }
            let original = load(&target, o.full)?;
            let bound = o.bound.unwrap_or_else(|| match o.metric {
                MetricKind::Er => 0.01,
                MetricKind::Med => reference_error(original.num_outputs()),
                MetricKind::Mse => {
                    let r = reference_error(original.num_outputs());
                    r * r
                }
            });
            if o.journal.is_some() && o.resume.is_some() {
                return Err("--journal and --resume are mutually exclusive (resume keeps \
                            journaling to the same file)"
                    .into());
            }
            // One observability handle for the whole run: the flow, guard,
            // journal and worker pool all report through clones of it.
            let obs = if o.trace.is_some() || o.metrics.is_some() || o.tree {
                Obs::new(ObsConfig {
                    trace: o.trace.as_ref().map(Into::into),
                    metrics: o.metrics.as_ref().map(Into::into),
                    tree: o.tree,
                })
                .map_err(|e| format!("observability setup: {e}"))?
            } else {
                Obs::disabled()
            };
            // --threads beats the ALS_THREADS environment default baked
            // into FlowConfig::new; unset, the default stands.
            let mut builder = FlowConfig::builder(o.metric, bound)
                .patterns(o.patterns)
                .seed(o.seed)
                .cancel_token(dualphase_als::engine::install_signal_handlers())
                .obs(obs.clone());
            if let Some(threads) = o.threads {
                builder = builder.threads(threads);
            }
            if o.strict {
                builder = builder.strict();
            }
            if let Some(retries) = o.max_retries {
                builder = builder.max_retries(retries);
            }
            if let Some(limit) = o.timeout {
                builder = builder.timeout(limit);
            }
            if let Some(limit) = o.max_iters {
                builder = builder.max_iters(limit);
            }
            if let Some(path) = &o.journal {
                builder = builder.journal(path);
            }
            if let Some(path) = &o.resume {
                builder = builder.resume(path);
            }
            let cfg = builder.build().map_err(|e| e.to_string())?;
            let flow = flows::by_name(o.flow, cfg).map_err(|e| e.to_string())?;
            eprintln!(
                "running {} on {} ({} gates), {} bound {bound:.4}",
                flow.name(),
                original.name(),
                original.num_ands(),
                o.metric
            );
            let res = flow.run(&original).map_err(|e| e.to_string())?;
            obs.finish().map_err(|e| format!("observability export: {e}"))?;
            if let Some(path) = &o.metrics {
                eprintln!("wrote metrics to {path}");
            }
            let lib = CellLibrary::new();
            if o.json {
                // The shared result schema: the same document a job
                // service status response embeds for a completed job.
                println!("{}", res.to_json().render());
            } else {
                println!(
                    "gates {} -> {} | {} = {:.4} (bound {bound:.4}) | ADP ratio {:.1}% | {} LACs in {:.2?}",
                    original.num_ands(),
                    res.final_nodes(),
                    o.metric,
                    res.final_error,
                    100.0 * dualphase_als::map::adp_ratio(&res.circuit, &original, &lib),
                    res.lacs_applied(),
                    res.runtime
                );
            }
            if res.guard.rollbacks > 0 || res.guard.fallbacks > 0 {
                eprintln!(
                    "guard: {} validations, {} rollbacks, {} evictions, {} resamples, {} fallbacks",
                    res.guard.validations,
                    res.guard.rollbacks,
                    res.guard.evictions,
                    res.guard.resamples,
                    res.guard.fallbacks
                );
            }
            if let Some(path) = o.output {
                save(&res.circuit, &path)?;
                if o.json {
                    eprintln!("wrote {path}");
                } else {
                    println!("wrote {path}");
                }
            }
            if res.stop.is_preemption() {
                Ok(Outcome::Stopped(res.stop))
            } else {
                Ok(Outcome::Completed)
            }
        }
        "serve" => serve(args),
        "job" => job(args),
        _ => {
            eprintln!(
                "usage: als <list|stats|synth|convert|serve|job> …\n  \
                 als list\n  \
                 als stats <circuit> [--full]\n  \
                 als synth <circuit> [--flow dpsa] [--metric med] [--bound X] \
                 [--patterns N] [--seed S] [--threads T] [--full] [--strict] \
                 [--max-retries N] [--timeout SECS] [--max-iters N] \
                 [--journal p|--resume p] \
                 [--trace p.jsonl] [--metrics p.prom] [--tree] [-o out.aag]\n\
                 \n  synth stops gracefully on --timeout/--max-iters/SIGINT/SIGTERM and\n  \
                 exits 3 with a valid best-so-far result (0 completed, 1 error).\n  \
                 als convert <in.aag> -o <out.aag|out.aig|out.v>\n  \
                 als serve --state <dir> [--addr 127.0.0.1:7433] [--runners N]\n           \
                 [--queue-capacity N] [--tenant-running N] [--tenant-queued N]\n  \
                 als job submit <circuit> [--addr A] [--tenant T] [--flow dpsa] \
                 [--metric med]\n           \
                 [--bound X] [--priority high|normal|low] [--patterns N] [--seed S]\n           \
                 [--threads T] [--max-iters N] [--deadline SECS] [--full] [--watch]\n  \
                 als job <status|watch|cancel> <job-id> [--addr A] [--json]\n  \
                 als job list [--addr A] [--json]"
            );
            Ok(Outcome::Completed)
        }
    }
}

/// `als serve`: run the job daemon until SIGINT/SIGTERM, then drain
/// gracefully (running jobs seal their journals and resume on the next
/// start) and exit 0.
fn serve(mut args: impl Iterator<Item = String>) -> Result<Outcome, String> {
    use dualphase_als::serve::{Daemon, DaemonConfig, TenantPolicy};
    let mut state: Option<String> = None;
    let mut addr = "127.0.0.1:7433".to_string();
    let mut runners = 8usize;
    let mut capacity: Option<usize> = None;
    let mut tenant_running: Option<usize> = None;
    let mut tenant_queued: Option<usize> = None;
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--state" => state = Some(value("--state")?),
            "--addr" => addr = value("--addr")?,
            "--runners" => runners = value("--runners")?.parse().map_err(|_| "bad --runners")?,
            "--queue-capacity" => {
                capacity =
                    Some(value("--queue-capacity")?.parse().map_err(|_| "bad --queue-capacity")?)
            }
            "--tenant-running" => {
                tenant_running =
                    Some(value("--tenant-running")?.parse().map_err(|_| "bad --tenant-running")?)
            }
            "--tenant-queued" => {
                tenant_queued =
                    Some(value("--tenant-queued")?.parse().map_err(|_| "bad --tenant-queued")?)
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let state = state.ok_or("usage: als serve --state <dir> [--addr host:port]")?;
    let mut cfg = DaemonConfig::new(state);
    cfg.addr = addr;
    cfg.runners = runners;
    if let Some(c) = capacity {
        cfg.queue.capacity = c;
    }
    let defaults = TenantPolicy::default();
    cfg.queue.default_policy = TenantPolicy {
        max_running: tenant_running.unwrap_or(defaults.max_running),
        max_queued: tenant_queued.unwrap_or(defaults.max_queued),
    };
    let stop = dualphase_als::engine::install_signal_handlers();
    let daemon = Daemon::start(cfg).map_err(|e| format!("starting daemon: {e}"))?;
    println!("serving on {} (state {})", daemon.addr(), daemon.state_dir().display());
    while !stop.is_cancelled() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining: sealing running jobs for resume on the next start");
    daemon.shutdown().map_err(|e| format!("draining daemon: {e}"))?;
    Ok(Outcome::Completed)
}

/// `als job`: the client side of the job service.
fn job(mut args: impl Iterator<Item = String>) -> Result<Outcome, String> {
    use dualphase_als::serve::{CircuitSource, Client, JobSpec, JobState, Priority};
    let verb = args.next().ok_or("usage: als job <submit|status|watch|cancel|list> ...")?;
    let mut positional: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:7433".to_string();
    let mut tenant = "default".to_string();
    let mut flow = FlowName::DpSa;
    let mut metric = MetricKind::Med;
    let mut bound: Option<f64> = None;
    let mut priority = Priority::Normal;
    let mut patterns: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut max_iters: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut full = false;
    let mut json = false;
    let mut follow = false;
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--addr" => addr = value("--addr")?,
            "--tenant" => tenant = value("--tenant")?,
            "--flow" => flow = value("--flow")?.parse().map_err(|e| format!("{e}"))?,
            "--metric" => metric = value("--metric")?.parse().map_err(|e| format!("{e}"))?,
            "--bound" => bound = Some(value("--bound")?.parse().map_err(|_| "bad --bound")?),
            "--priority" => {
                let p = value("--priority")?;
                priority = Priority::from_token(&p)
                    .ok_or_else(|| format!("unknown priority {p} (high|normal|low)"))?;
            }
            "--patterns" => {
                patterns = Some(value("--patterns")?.parse().map_err(|_| "bad --patterns")?)
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--threads" => {
                threads = Some(value("--threads")?.parse().map_err(|_| "bad --threads")?)
            }
            "--max-iters" => {
                max_iters = Some(value("--max-iters")?.parse().map_err(|_| "bad --max-iters")?)
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?.parse().map_err(|_| "bad --deadline")?;
                deadline_ms = Some((secs * 1000.0) as u64);
            }
            "--full" => full = true,
            "--json" => json = true,
            "--watch" => follow = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let client = Client::new(addr);
    let one_id = |what: &str| -> Result<String, String> {
        positional.first().cloned().ok_or_else(|| format!("usage: als job {what} <job-id>"))
    };
    match verb.as_str() {
        "submit" => {
            let target =
                positional.first().ok_or("usage: als job submit <circuit> [options]")?.clone();
            let circuit = if benchmark_names().contains(&target.as_str()) {
                let scale = if full { BenchmarkScale::Paper } else { BenchmarkScale::Reduced };
                CircuitSource::Benchmark { name: target.clone(), scale }
            } else {
                // Anything loadable locally ships as inline ASCII AIGER.
                let aig = load(&target, full)?;
                CircuitSource::Aiger { text: dualphase_als::aig::io::to_ascii_string(&aig) }
            };
            let original = load(&target, full)?;
            let bound = bound.unwrap_or_else(|| match metric {
                MetricKind::Er => 0.01,
                MetricKind::Med => reference_error(original.num_outputs()),
                MetricKind::Mse => {
                    let r = reference_error(original.num_outputs());
                    r * r
                }
            });
            let mut spec = JobSpec::new(&tenant, flow, metric, bound, circuit);
            spec.priority = priority;
            spec.patterns = patterns;
            spec.seed = seed;
            spec.threads = threads;
            spec.max_iters = max_iters;
            spec.deadline_ms = deadline_ms;
            let id = client.submit(&spec).map_err(|e| e.to_string())?;
            println!("{id}");
            if follow {
                let state =
                    client.watch(&id, |line| println!("{line}")).map_err(|e| e.to_string())?;
                eprintln!("job {id}: {}", state.token());
            }
            Ok(Outcome::Completed)
        }
        "status" => {
            let id = one_id("status")?;
            let status = client.status(&id).map_err(|e| e.to_string())?;
            if json {
                println!("{}", status.to_json().render());
            } else {
                print_status(&status);
            }
            Ok(Outcome::Completed)
        }
        "watch" => {
            let id = one_id("watch")?;
            let state = client.watch(&id, |line| println!("{line}")).map_err(|e| e.to_string())?;
            eprintln!("job {id}: {}", state.token());
            if state == JobState::Completed {
                Ok(Outcome::Completed)
            } else {
                // The stream ended without a completed result (cancelled,
                // failed, preempted by a drain): mirror synth's
                // stopped-early exit code.
                Ok(Outcome::Stopped(StopReason::Cancelled))
            }
        }
        "cancel" => {
            let id = one_id("cancel")?;
            let state = client.cancel(&id).map_err(|e| e.to_string())?;
            println!("{}", state.token());
            Ok(Outcome::Completed)
        }
        "list" => {
            let jobs = client.list().map_err(|e| e.to_string())?;
            if json {
                let arr: Vec<_> = jobs.iter().map(|s| s.to_json()).collect();
                println!("{}", dualphase_als::obs::json::Json::Arr(arr).render());
            } else {
                for status in &jobs {
                    print_status(status);
                }
            }
            Ok(Outcome::Completed)
        }
        other => Err(format!("unknown job subcommand {other}")),
    }
}

fn print_status(status: &dualphase_als::serve::JobStatus) {
    let mut line = format!(
        "{}  {:<9}  {}  tenant={}",
        status.id,
        status.state.token(),
        status.flow.token(),
        status.tenant
    );
    if let Some(result) = &status.result {
        let get = |k: &str| result.get(k).and_then(dualphase_als::obs::json::Json::as_f64);
        if let (Some(err), Some(nodes)) = (get("final_error"), get("final_nodes")) {
            line.push_str(&format!("  error={err:.4}  gates={nodes}"));
        }
    }
    if let Some(e) = &status.error {
        line.push_str(&format!("  error: {e}"));
    }
    println!("{line}");
}

fn main() -> ExitCode {
    match run() {
        Ok(Outcome::Completed) => ExitCode::SUCCESS,
        // Distinct from both success and failure: the run was preempted but
        // still produced (and wrote) a valid best-so-far circuit.
        Ok(Outcome::Stopped(reason)) => {
            eprintln!("stopped early: {reason} (result is best-so-far, still within the bound)");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
