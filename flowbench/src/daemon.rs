//! The daemon workload: an in-process `Daemon` fed by an open loop.
//!
//! Jobs arrive as a Poisson process from one generator and are followed by
//! polling their status, all on one thread, so at most one client
//! connection is open at a time. Each job's latency runs from the moment
//! it was *due* to be sent until its result is seen, which charges a
//! generator stall to every job it delays. After the open loop drains,
//! five bursts, each submitted at once, measure how fast the daemon
//! empties its queue.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use als_aig::Aig;
use als_engine::{flows, FlowConfig, FlowName};
use als_error::MetricKind;
use als_map::CellLibrary;
use als_obs::json::Json;
use als_obs::{Obs, ObsConfig};
use als_serve::{CircuitSource, Client, Daemon, DaemonConfig, JobSpec, JobState, JobStatus};

use crate::check::{self, Claim};
use crate::replay::Replay;
use crate::spans::Layers;
use crate::stats::{self, derive_seed, SplitMix};
use crate::{prepare, report_engine, Prepared, Report, RunOpts, Scale};

/// Times the daemon is started for the `setup_s` median.
const SETUP_REPS: usize = 9;
/// Bursts after the open loop; `wall_s` is their median drain time.
const BURSTS: usize = 5;
/// How often outstanding jobs are polled.
const POLL: Duration = Duration::from_millis(5);
/// Latency limit on the tail percentile; a job over it misses the limit.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// How long after the window a run may take before outstanding jobs count
/// as failed.
const GRACE_S: f64 = 60.0;

/// The open-loop workload's parameters.
#[derive(Clone, Debug)]
pub struct DaemonWorkload {
    /// Circuits jobs are drawn from.
    pub circuits: Vec<&'static str>,
    /// Error metric of every job.
    pub metric: MetricKind,
    /// Flow of every job (DP: bit-reproducible under load).
    pub flow: FlowName,
    /// Monte-Carlo patterns per job.
    pub patterns: usize,
    /// Offered load, jobs per second.
    pub rate: f64,
    /// Runner threads of the daemon.
    pub runners: usize,
    /// Jobs in each closing burst.
    pub burst: usize,
}

impl DaemonWorkload {
    /// The workload at `scale`.
    pub fn new(scale: Scale) -> DaemonWorkload {
        let full = scale == Scale::Full;
        DaemonWorkload {
            circuits: if full { vec!["adder", "c1908", "c880"] } else { vec!["c1908"] },
            metric: MetricKind::Med,
            flow: FlowName::Dp,
            patterns: if full { 512 } else { 256 },
            rate: 8.0,
            runners: 2,
            burst: if full { 24 } else { 4 },
        }
    }
}

/// One job the generator sends.
#[derive(Clone, Debug, PartialEq)]
pub struct Draw {
    /// When it is due, seconds after the loop starts.
    pub due_s: f64,
    /// Index into the workload's circuits.
    pub circuit: usize,
    /// Pattern seed of the job.
    pub seed: u64,
    /// Submitting tenant.
    pub tenant: &'static str,
}

/// Circuit indices for `n` jobs: as even a mix as `n` allows, in an order
/// shuffled by `rng`, so every seed offers the same work.
fn balanced_mix(rng: &mut SplitMix, n: usize, num_circuits: usize) -> Vec<usize> {
    let mut mix: Vec<usize> = (0..n).map(|i| i % num_circuits).collect();
    for i in (1..n).rev() {
        mix.swap(i, rng.below(i + 1));
    }
    mix
}

/// The open-loop schedule: `rate * window_s` jobs with exponential gaps
/// (Poisson arrivals), a balanced circuit mix and per-job pattern seeds,
/// all drawn from `seed`; tenants alternate.
pub fn schedule(seed: u64, rate: f64, window_s: f64, num_circuits: usize) -> Vec<Draw> {
    let mut rng = SplitMix::new(derive_seed(seed, 0xDAE, 0));
    let n = (rate * window_s).round().max(1.0) as usize;
    let mix = balanced_mix(&mut rng, n, num_circuits);
    let mut t = 0.0;
    mix.into_iter()
        .enumerate()
        .map(|(i, circuit)| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            Draw { due_s: t, circuit, seed: rng.next_u64(), tenant: ["t0", "t1"][i % 2] }
        })
        .collect()
}

/// Closing burst number `index`: `n` jobs all due at once.
pub fn burst(seed: u64, index: usize, n: usize, num_circuits: usize) -> Vec<Draw> {
    let mut rng = SplitMix::new(derive_seed(seed, 0xB0057, index as u64));
    let mix = balanced_mix(&mut rng, n, num_circuits);
    mix.into_iter()
        .enumerate()
        .map(|(i, circuit)| Draw {
            due_s: 0.0,
            circuit,
            seed: rng.next_u64(),
            tenant: ["t0", "t1"][i % 2],
        })
        .collect()
}

/// One submitted job, as the harness saw it.
struct Track {
    draw: Draw,
    id: String,
    sent: f64,
    acked: f64,
    running_seen: Option<f64>,
    done: Option<(f64, JobStatus)>,
}

/// Removes the daemon's state directory when the run ends, however it ends.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a daemon and waits until `/healthz` answers. Returns the time
/// `Daemon::start` took: the wait is left out because it is decided by a
/// race with the accept loop's 20 ms idle sleep, which would make the
/// set-up time bimodal (the same sleep is in `serve.submit_rtt_ms_p50`).
fn start(state: &Path, runners: usize) -> Result<(Daemon, Client, f64), String> {
    let mut cfg = DaemonConfig::new(state);
    cfg.runners = runners;
    let t0 = Instant::now();
    let daemon = Daemon::start(cfg).map_err(|e| format!("starting the daemon: {e}"))?;
    let start_s = t0.elapsed().as_secs_f64();
    let client = Client::new(daemon.addr().to_string());
    while client.http_get("/healthz").map(|b| b.trim() == "ok") != Ok(true) {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("the daemon never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((daemon, client, start_s))
}

/// The harness's view of the daemon: the client, the clock, the jobs
/// still outstanding and finished, and every status round-trip it timed.
struct Load<'a> {
    client: Client,
    w: &'a DaemonWorkload,
    prepared: &'a [Prepared],
    t0: Instant,
    open: Vec<Track>,
    done: Vec<Track>,
    cursor: usize,
    last_poll: f64,
    status_rtt_ms: Vec<f64>,
}

impl Load<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Whether an outstanding job is due for a status poll.
    fn poll_due(&self) -> bool {
        !self.open.is_empty() && self.now() - self.last_poll >= POLL.as_secs_f64()
    }

    /// When the next poll is due (never, with nothing outstanding).
    fn next_poll(&self) -> f64 {
        if self.open.is_empty() {
            f64::INFINITY
        } else {
            self.last_poll + POLL.as_secs_f64()
        }
    }

    fn submit(&self, draw: &Draw) -> Result<Track, String> {
        let prep = &self.prepared[draw.circuit];
        let mut spec = JobSpec::new(
            draw.tenant,
            self.w.flow,
            self.w.metric,
            prep.bound,
            CircuitSource::Benchmark {
                name: prep.name.into(),
                scale: als_circuits::BenchmarkScale::Reduced,
            },
        );
        spec.patterns = Some(self.w.patterns);
        spec.seed = Some(draw.seed);
        spec.threads = Some(1);
        let sent = self.now();
        let id = self.client.submit(&spec).map_err(|e| e.to_string())?;
        Ok(Track {
            draw: draw.clone(),
            id,
            sent,
            acked: self.now(),
            running_seen: None,
            done: None,
        })
    }

    /// Polls one outstanding job: one request per call, so a job falling
    /// due never waits behind more than one round trip. The queue is FIFO,
    /// so only the oldest `runners` jobs can be running; they are polled
    /// in turn.
    fn poll_one(&mut self) {
        self.last_poll = self.now();
        let i = self.cursor % self.open.len().min(self.w.runners);
        let q = self.now();
        let status = self.client.status(&self.open[i].id);
        let seen = self.now();
        self.status_rtt_ms.push(1e3 * (seen - q));
        match status {
            Ok(s) if s.state.is_terminal() => {
                let mut t = self.open.remove(i);
                t.done = Some((seen, s));
                self.done.push(t);
            }
            Ok(s) => {
                let t = &mut self.open[i];
                if s.state == JobState::Running && t.running_seen.is_none() {
                    t.running_seen = Some(seen);
                }
                self.cursor = i + 1;
            }
            Err(_) => self.cursor = i + 1,
        }
    }
}

/// Runs the daemon workload into `report`.
pub fn run(opts: &RunOpts, report: &mut Report) -> Result<(), String> {
    let w = DaemonWorkload::new(opts.scale);
    let lib = CellLibrary::new();
    let root = crate::work_dir().join(format!("daemon-{}-{}", std::process::id(), opts.seed));
    let _cleanup = StateDir(root.clone());

    // Set-up: the circuits, then `Daemon::start`, repeated on fresh state
    // directories; the last daemon serves the run.
    let (prepared, build_s, map_s) = prepare(&w.circuits, w.metric);
    report.set("circuits.build_s", build_s);
    report.set("map.adp_s", map_s);
    let mut setup = Vec::new();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        let state = root.join(format!("state{rep}"));
        let (daemon, client, start_s) = start(&state, w.runners)?;
        setup.push(start_s);
        if rep + 1 < SETUP_REPS {
            daemon.shutdown().map_err(|e| format!("stopping the daemon: {e}"))?;
            let _ = std::fs::remove_dir_all(&state);
        } else {
            served = Some((daemon, client, state));
        }
    }
    report.set("setup_s", stats::median(&setup));
    let (daemon, client, state) = served.expect("at least one set-up repetition");

    let mut load = Load {
        client,
        w: &w,
        prepared: &prepared,
        t0: Instant::now(),
        open: Vec::new(),
        done: Vec::new(),
        cursor: 0,
        last_poll: f64::NEG_INFINITY,
        status_rtt_ms: Vec::new(),
    };
    let plan = schedule(opts.seed, w.rate, opts.seconds, w.circuits.len());
    let hard_stop = opts.seconds + GRACE_S;
    let (mut rejected, mut backlog_end) = (0u64, 0usize);
    let mut lags_ms = Vec::new();
    let mut next = 0;
    loop {
        let now = load.now();
        if next < plan.len() && plan[next].due_s <= now {
            report.attempted += 1;
            match load.submit(&plan[next]) {
                Ok(t) => {
                    lags_ms.push(1e3 * (t.sent - t.draw.due_s));
                    load.open.push(t);
                }
                Err(e) => {
                    rejected += 1;
                    report.note(format!("rejected job {next}: {e}"));
                }
            }
            next += 1;
            if next == plan.len() {
                backlog_end = load.open.len().saturating_sub(1);
            }
        } else if next == plan.len() && load.open.is_empty() || now > hard_stop {
            break;
        } else if load.poll_due() {
            load.poll_one();
        } else {
            let wake = load.next_poll().min(plan.get(next).map_or(f64::INFINITY, |d| d.due_s));
            std::thread::sleep(Duration::from_secs_f64((wake - now).clamp(0.0, 1.0)));
        }
    }
    let open_loop = load.done.len();

    // Bursts: every job of a burst at once, the next burst once it has
    // drained. Completion is read from the daemon's own job counters, one
    // `GET /metrics` per poll, so the drain time does not depend on how
    // many jobs a client would have to poll one by one.
    let ended = |client: &Client| -> Result<f64, String> {
        let prom =
            crate::spans::parse_prom(&client.http_get("/metrics").map_err(|e| e.to_string())?);
        Ok(["completed", "failed", "cancelled"]
            .iter()
            .map(|k| prom.get(&format!("als_serve_jobs_{k}_total")).copied().unwrap_or(0.0))
            .sum())
    };
    let mut lost = std::mem::take(&mut load.open);
    let mut done = std::mem::take(&mut load.done);
    let mut drains = Vec::new();
    for b in 0..BURSTS {
        let target = ended(&load.client)?;
        let b0 = load.now();
        let mut jobs = Vec::new();
        for d in burst(opts.seed, b, w.burst, w.circuits.len()) {
            report.attempted += 1;
            match load.submit(&d) {
                Ok(t) => jobs.push(t),
                Err(e) => {
                    rejected += 1;
                    report.note(format!("rejected burst job: {e}"));
                }
            }
        }
        let target = target + jobs.len() as f64;
        let mut drained = None;
        while drained.is_none() && load.now() <= hard_stop {
            if ended(&load.client)? >= target {
                drained = Some(load.now());
            } else {
                std::thread::sleep(POLL);
            }
        }
        let end = drained.unwrap_or(f64::NAN);
        drains.push(end - b0);
        for mut t in jobs {
            match load.client.status(&t.id) {
                Ok(s) if s.state.is_terminal() => {
                    t.done = Some((end, s));
                    done.push(t);
                }
                _ => lost.push(t),
            }
        }
    }
    let burst_s = stats::median(&drains);
    let status_rtt_ms = std::mem::take(&mut load.status_rtt_ms);
    let t_end = load.now();
    drop(load);
    daemon.shutdown().map_err(|e| format!("stopping the daemon: {e}"))?;
    report.failed += rejected + lost.len() as u64;

    // Checks, quality and the engine's own records, job by job, in
    // submission order (ids are sequential) so the digest repeats.
    done[..open_loop].sort_by(|a, b| a.id.cmp(&b.id));
    done[open_loop..].sort_by(|a, b| a.id.cmp(&b.id));
    let tc = Instant::now();
    let jobs_dir = state.join("jobs");
    let mut layers = Layers::default();
    let (mut savings, mut engine_ms, mut journal_bytes) = (Vec::new(), Vec::new(), 0.0);
    let mut digest = 0u64;
    let mut completed = 0usize;
    for t in &done {
        let (_, status) = t.done.as_ref().expect("done jobs carry a status");
        let dir = jobs_dir.join(&t.id);
        match check_job(&w, &prepared[t.draw.circuit], t, status, &dir) {
            Ok(aig) => {
                completed += 1;
                savings
                    .push(100.0 * (1.0 - als_map::adp(&aig, &lib) / prepared[t.draw.circuit].adp));
                let text = als_aig::io::to_ascii_string(&aig);
                digest = stats::fnv1a(format!("{digest:016x}{text}").as_bytes());
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!(
                    "check failed {} ({}): {e}",
                    t.id, prepared[t.draw.circuit].name
                ));
            }
        }
        if let Some(us) =
            status.result.as_ref().and_then(|r| r.get("runtime_us")).and_then(Json::as_f64)
        {
            engine_ms.push(us / 1e3);
        }
        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap_or_default();
        let lines: Vec<String> = trace.lines().map(str::to_string).collect();
        layers
            .absorb(&lines, &std::fs::read_to_string(dir.join("metrics.prom")).unwrap_or_default());
        if opts.trace {
            report.spans.extend(lines);
        }
        journal_bytes += std::fs::metadata(dir.join("run.alsj")).map_or(0.0, |m| m.len() as f64);
    }
    report.set("check.naive_s", tc.elapsed().as_secs_f64());
    report.note(format!("digest dp-jobs {digest:016x} jobs={completed}"));

    // End to end.
    let latency_ms: Vec<f64> = done[..open_loop]
        .iter()
        .filter_map(|t| t.done.as_ref().map(|d| 1e3 * (d.0 - t.draw.due_s)))
        .collect();
    report.set("wall_s", burst_s);
    report.set("latency_p50_ms", stats::percentile(&latency_ms, 50.0));
    report.set("latency_p90_ms", stats::percentile(&latency_ms, 90.0));
    report.set("adp_saving_pct", stats::mean(&savings));
    let over = latency_ms.iter().filter(|&&l| l > LATENCY_LIMIT_MS).count()
        + rejected as usize
        + lost.len();
    report.note(format!(
        "samples latency n={} tail=p{} over_{}ms={} open_loop_s={:.3} end_s={t_end:.3}",
        latency_ms.len(),
        stats::highest_supported_percentile(latency_ms.len(), 10).unwrap_or(0.0),
        LATENCY_LIMIT_MS,
        over,
        plan.last().map_or(0.0, |d| d.due_s),
    ));

    // Per layer.
    // Client-side timings come from the open loop, whose jobs were polled.
    let open_jobs = &done[..open_loop];
    let jobs = done.len() as f64;
    let exec_ms: Vec<f64> = open_jobs
        .iter()
        .filter_map(|t| Some(1e3 * (t.done.as_ref()?.0 - t.running_seen?)))
        .collect();
    let overhead_ms: Vec<f64> = open_jobs
        .iter()
        .filter_map(|t| {
            let (seen, status) = t.done.as_ref()?;
            let us = status.result.as_ref()?.get("runtime_us")?.as_f64()?;
            Some(1e3 * (seen - t.acked) - us / 1e3)
        })
        .collect();
    let queue_ms: Vec<f64> =
        open_jobs.iter().filter_map(|t| Some(1e3 * (t.running_seen? - t.acked))).collect();
    let submit_ms: Vec<f64> = open_jobs.iter().map(|t| 1e3 * (t.acked - t.sent)).collect();
    report_engine(report, &layers, jobs, &layers, jobs, stats::mean(&engine_ms) / 1e3);
    report.set(
        "engine.analyses",
        stats::ratio(
            done.iter()
                .filter_map(|t| {
                    t.done.as_ref()?.1.result.as_ref()?.get("comprehensive_analyses")?.as_f64()
                })
                .sum(),
            jobs,
        ),
    );
    report.set("journal.bytes_per_job", stats::ratio(journal_bytes, jobs));
    report.set("obs.trace_bytes_per_job", stats::ratio(layers.trace_bytes, jobs));
    report.set("serve.submit_rtt_ms_p50", stats::percentile(&submit_ms, 50.0));
    report.set("serve.status_rtt_ms_p50", stats::percentile(&status_rtt_ms, 50.0));
    report.set("serve.queue_wait_ms_p50", stats::percentile(&queue_ms, 50.0));
    report.set("serve.queue_wait_ms_p90", stats::percentile(&queue_ms, 90.0));
    report.set("serve.exec_ms_p50", stats::percentile(&exec_ms, 50.0));
    report.set("serve.engine_ms_p50", stats::percentile(&engine_ms, 50.0));
    report.set("serve.overhead_ms_p50", stats::percentile(&overhead_ms, 50.0));
    report.set("serve.rejected", rejected as f64);
    report.set("serve.backlog_end", backlog_end as f64);
    report.set("serve.capacity_jobs_per_s", stats::ratio(w.burst as f64, burst_s));
    report.set("gen.lag_p90_ms", stats::percentile(&lags_ms, 90.0));
    report.set("gen.lag_max_ms", lags_ms.iter().copied().fold(0.0, f64::max));

    if opts.trace {
        report.set("obs.overhead_pct", tracing_overhead(&w, &prepared, &plan)?);
        let mut replay = Replay::default();
        for (i, p) in prepared.iter().enumerate() {
            let cfg = job_config(&w, p.bound, derive_seed(opts.seed, 0, i as u64));
            replay.add(&p.aig, &cfg)?;
        }
        replay.report(report);
    }
    Ok(())
}

/// The engine configuration the daemon derives from one of our specs.
fn job_config(w: &DaemonWorkload, bound: f64, seed: u64) -> FlowConfig {
    FlowConfig::new(w.metric, bound)
        .with_patterns(w.patterns)
        .with_seed(seed)
        .with_threads(1)
        .with_sched(als_par::SchedConfig::default())
}

/// Checks one finished job; returns its result circuit.
fn check_job(
    w: &DaemonWorkload,
    prep: &Prepared,
    t: &Track,
    status: &JobStatus,
    dir: &Path,
) -> Result<Aig, String> {
    if status.state != JobState::Completed {
        return Err(format!("ended {}: {:?}", status.state.token(), status.error));
    }
    let result = status.result.as_ref().ok_or("a completed job without a result")?;
    let num = |k: &str| result.get(k).and_then(Json::as_f64).ok_or(format!("result without {k}"));
    let text = std::fs::read_to_string(dir.join("result.aag"))
        .map_err(|e| format!("reading result.aag: {e}"))?;
    let aig = als_aig::io::from_ascii_str(&text, prep.name)
        .map_err(|e| format!("parsing result.aag: {e}"))?;
    let claim = Claim {
        metric: w.metric,
        bound: prep.bound,
        reported: num("final_error")?,
        num_patterns: w.patterns,
        seed: t.draw.seed,
    };
    if num("error_bound")? != prep.bound {
        return Err("the job ran under another bound".into());
    }
    check::verify(&prep.aig, &aig, &claim)?;
    Ok(aig)
}

/// Tracing overhead of a job, in percent: the first jobs of the schedule
/// run in-process untraced and traced, alternately, three times each.
fn tracing_overhead(
    w: &DaemonWorkload,
    prepared: &[Prepared],
    plan: &[Draw],
) -> Result<f64, String> {
    let mut walls = [Vec::new(), Vec::new()]; // untraced, traced
    for _ in 0..3 {
        for (traced, wall) in walls.iter_mut().enumerate() {
            let mut total = 0.0;
            for d in plan.iter().take(3) {
                let p = &prepared[d.circuit];
                let obs = if traced == 1 {
                    Obs::with_listener(ObsConfig::default(), Some(Arc::new(|_: &str| {})))
                        .map_err(|e| e.to_string())?
                } else {
                    Obs::disabled()
                };
                let cfg = job_config(w, p.bound, d.seed).with_obs(obs);
                let t0 = Instant::now();
                flows::by_name(w.flow, cfg)
                    .and_then(|f| f.run(&p.aig))
                    .map_err(|e| e.to_string())?;
                total += t0.elapsed().as_secs_f64();
            }
            wall.push(total);
        }
    }
    Ok(100.0 * (stats::median(&walls[1]) / stats::median(&walls[0]) - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_depends_on_the_seed_alone() {
        let a = schedule(7, 8.0, 20.0, 3);
        assert_eq!(a, schedule(7, 8.0, 20.0, 3));
        assert_ne!(a, schedule(8, 8.0, 20.0, 3));
        assert_eq!(a.len(), 160);
        assert!(a.windows(2).all(|p| p[0].due_s < p[1].due_s));
        let mean_gap = a.last().map_or(0.0, |d| d.due_s) / a.len() as f64;
        assert!((mean_gap - 0.125).abs() < 0.04, "mean gap {mean_gap}");
        assert!(a.iter().all(|d| d.circuit < 3));
        assert!((0..3).all(|c| a.iter().any(|d| d.circuit == c)), "every circuit drawn");
        assert_eq!(burst(7, 0, 24, 3), burst(7, 0, 24, 3));
        assert_ne!(burst(7, 0, 24, 3), burst(8, 0, 24, 3));
        assert_ne!(burst(7, 0, 24, 3), burst(7, 1, 24, 3));
        let per_circuit = |c| burst(7, 0, 24, 3).iter().filter(|d| d.circuit == c).count();
        assert_eq!([per_circuit(0), per_circuit(1), per_circuit(2)], [8, 8, 8], "an even mix");
    }
}
