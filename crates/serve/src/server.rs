//! The `als serve` daemon: a TCP job service wrapping the synthesis
//! engine.
//!
//! # Architecture
//!
//! One accept thread blocks in `accept` and hands each connection to a
//! short-lived handler thread speaking the line protocol of
//! [`crate::api`]; a fixed fleet of runner threads drains the
//! [`JobQueue`]. Handlers are scoped to the accept loop: a finished
//! handler releases its stack as it exits, and the scope joins the live
//! ones when the loop ends, so the daemon's memory is bounded by its live
//! connections plus its running jobs. [`Daemon::shutdown`] wakes the
//! accept with one loopback connection. Every job gets its own state
//! directory under `<state>/jobs/<id>/`:
//!
//! ```text
//! spec.json     the submitted JobSpec (plus the assigned id)
//! state.json    current lifecycle state (atomically replaced)
//! input.aag     the circuit, as submitted
//! run.alsj      the engine's crash-safe journal (journaling flows only)
//! trace.jsonl   the run's span event stream
//! metrics.prom  the run's Prometheus dump (written at run end)
//! result.json   the shared FlowResult document (completed jobs)
//! result.aag    the approximate circuit (completed jobs)
//! ```
//!
//! # Crash recovery and graceful drain
//!
//! The daemon never trusts its memory: every state transition is
//! persisted before it is announced. On startup the jobs directory is
//! scanned and every non-terminal job is re-enqueued — jobs that were
//! *running* when the previous daemon died resume from their sealed
//! journal (`run.alsj`), which the engine replays to a byte-identical
//! continuation. A graceful shutdown (SIGTERM in the CLI) closes the
//! queue, cancels every running job's token — the engine seals each
//! journal with a preempt record — and persists those jobs as
//! `preempted`, so the next start picks them up exactly where they
//! stopped.
//!
//! # Observability
//!
//! Each run writes its own trace/metrics files through a per-job
//! [`Obs`]; a [`SpanListener`] on that handle fans every rendered event
//! line out to `watch` subscribers, so a watching client receives *the
//! same bytes* the trace file records. The lines are buffered for late
//! watchers only while the job runs; a finished job's watch replays its
//! `trace.jsonl`, the same before and after a restart. The daemon
//! additionally keeps a service-level metrics registry (jobs
//! submitted/completed/failed, queue depth, ...) exposed in Prometheus
//! text form at `GET /metrics` (plain HTTP on the same port — the handler
//! sniffs the first bytes of each connection), with a liveness probe at
//! `GET /healthz`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use als_aig::Aig;
use als_engine::{by_name, CancelToken, FlowConfig, StopReason};
use als_obs::json::Json;
use als_obs::{Obs, ObsConfig, SpanListener};

use crate::api::{
    err_response, ok_response, watch_end, CircuitSource, ErrorBody, JobSpec, JobState, JobStatus,
    Request,
};
use crate::queue::{JobQueue, QueueConfig, QueuedJob};

/// How the daemon is wired up.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Root of the persistent state (job directories live under
    /// `<state_dir>/jobs/`). Created if missing.
    pub state_dir: PathBuf,
    /// Bind address; use port 0 to let the OS pick (the bound address is
    /// available from [`Daemon::addr`]).
    pub addr: String,
    /// Runner threads — the number of jobs that execute concurrently.
    pub runners: usize,
    /// Queue capacity and per-tenant admission limits.
    pub queue: QueueConfig,
}

impl DaemonConfig {
    /// A daemon rooted at `state_dir` on an OS-assigned loopback port
    /// with the default queue limits and 8 runners.
    pub fn new(state_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            state_dir: state_dir.into(),
            addr: "127.0.0.1:0".to_string(),
            runners: 8,
            queue: QueueConfig::default(),
        }
    }
}

/// Service-level metrics, all registered on the daemon's own [`Obs`].
struct ServiceMetrics {
    obs: Obs,
    submitted: als_obs::Counter,
    rejected: als_obs::Counter,
    completed: als_obs::Counter,
    failed: als_obs::Counter,
    cancelled: als_obs::Counter,
    preempted: als_obs::Counter,
    resumed: als_obs::Counter,
    queue_depth: als_obs::Gauge,
    running: als_obs::Gauge,
}

impl ServiceMetrics {
    fn new() -> std::io::Result<ServiceMetrics> {
        // No file sinks: this handle exists for its registry, rendered
        // live on every GET /metrics.
        let obs = Obs::new(ObsConfig::default())?;
        Ok(ServiceMetrics {
            submitted: obs.counter("als_serve_jobs_submitted_total", "Jobs admitted to the queue"),
            rejected: obs.counter(
                "als_serve_jobs_rejected_total",
                "Submissions refused by admission control",
            ),
            completed: obs.counter("als_serve_jobs_completed_total", "Jobs finished within bound"),
            failed: obs
                .counter("als_serve_jobs_failed_total", "Jobs that ended in an engine error"),
            cancelled: obs.counter("als_serve_jobs_cancelled_total", "Jobs cancelled by a client"),
            preempted: obs
                .counter("als_serve_jobs_preempted_total", "Jobs preempted by a daemon drain"),
            resumed: obs
                .counter("als_serve_jobs_resumed_total", "Recovered jobs resumed from a journal"),
            queue_depth: obs.gauge("als_serve_queue_depth", "Jobs waiting in the queue"),
            running: obs.gauge("als_serve_jobs_running", "Jobs currently executing"),
            obs,
        })
    }
}

/// Message fanned out to `watch` subscribers.
enum WatchMsg {
    /// One rendered span-event line (the JSONL trace bytes).
    Line(String),
    /// The job reached `state`; the stream ends.
    End(JobState),
}

/// Everything the daemon knows about one job.
struct JobEntry {
    id: String,
    spec: JobSpec,
    dir: PathBuf,
    state: Mutex<JobState>,
    /// Cancelling stops the run at its next supervision check.
    cancel: CancelToken,
    /// Set when the *client* asked for the cancellation (as opposed to a
    /// daemon drain, which preempts for later resumption).
    cancel_requested: AtomicBool,
    /// Every span line of the current run, for replay to late watchers;
    /// emptied by [`JobEntry::finish`].
    events: Mutex<Vec<String>>,
    watchers: Mutex<Vec<mpsc::Sender<WatchMsg>>>,
    result: Mutex<Option<Json>>,
    error: Mutex<Option<ErrorBody>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl JobEntry {
    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id.clone(),
            tenant: self.spec.tenant.clone(),
            state: *lock(&self.state),
            flow: self.spec.flow,
            result: lock(&self.result).clone(),
            error: lock(&self.error).clone(),
        }
    }

    /// Persists `state.json`; atomically, so a crash between write and
    /// rename leaves the previous state intact.
    fn persist_state(&self) -> std::io::Result<()> {
        let j = Json::obj()
            .with("state", lock(&self.state).token())
            .with("error", lock(&self.error).as_ref().map(ErrorBody::to_json));
        write_atomic(&self.dir.join("state.json"), j.render().as_bytes())
    }

    fn set_state(&self, state: JobState) {
        *lock(&self.state) = state;
        let _ = self.persist_state();
    }

    /// Appends a span line and fans it out to live watchers.
    fn publish(&self, line: &str) {
        lock(&self.events).push(line.to_string());
        lock(&self.watchers).retain(|w| w.send(WatchMsg::Line(line.to_string())).is_ok());
    }

    /// The job's last transition in this daemon: persists `state`
    /// (terminal, or `preempted` by a drain) and releases the replay
    /// buffer under the events lock, then ends every watch stream. Later
    /// watchers replay `trace.jsonl` instead, which the run flushed before
    /// this call.
    fn finish(&self, state: JobState) {
        let mut events = lock(&self.events);
        self.set_state(state);
        *events = Vec::new();
        drop(events);
        for w in lock(&self.watchers).drain(..) {
            let _ = w.send(WatchMsg::End(state));
        }
    }

    /// Registers a watcher and returns the receiver plus a replay of
    /// everything that already happened. Registration happens under the
    /// events lock, so no line can fall between the replay and the live
    /// stream. A job whose run is over replays its trace file and ends.
    fn subscribe(&self) -> (Vec<String>, mpsc::Receiver<WatchMsg>) {
        let (tx, rx) = mpsc::channel();
        let events = lock(&self.events);
        let state = *lock(&self.state);
        if !state.is_terminal() && state != JobState::Preempted {
            lock(&self.watchers).push(tx);
            return (events.clone(), rx);
        }
        drop(events);
        let _ = tx.send(WatchMsg::End(state));
        let trace = std::fs::read_to_string(self.dir.join("trace.jsonl")).unwrap_or_default();
        (trace.lines().map(str::to_string).collect(), rx)
    }
}

type Registry = Arc<Mutex<BTreeMap<String, Arc<JobEntry>>>>;

/// The running daemon. Dropping it without [`Daemon::shutdown`] aborts
/// ungracefully (threads are detached); call `shutdown` to drain.
pub struct Daemon {
    addr: SocketAddr,
    cfg: DaemonConfig,
    queue: Arc<JobQueue>,
    registry: Registry,
    stop: CancelToken,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Creates the state directory, recovers persisted jobs, binds the
    /// listener and starts the runner fleet.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let jobs_dir = cfg.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let queue = Arc::new(JobQueue::new(cfg.queue.clone()));
        let registry: Registry = Arc::new(Mutex::new(BTreeMap::new()));
        let metrics = Arc::new(ServiceMetrics::new()?);
        let stop = CancelToken::new();

        let max_recovered = recover(&jobs_dir, &registry, &queue, &metrics)?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let mut threads = Vec::new();

        // Runner fleet.
        for i in 0..cfg.runners.max(1) {
            let queue = queue.clone();
            let registry = registry.clone();
            let metrics = metrics.clone();
            let stop = stop.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("als-runner-{i}"))
                    .spawn(move || runner_loop(&queue, &registry, &metrics, &stop))?,
            );
        }

        let ctx = ConnCtx {
            queue: queue.clone(),
            registry: registry.clone(),
            metrics,
            stop: stop.clone(),
            next_id: Mutex::new(max_recovered + 1),
            jobs_dir,
        };
        threads.push(
            std::thread::Builder::new()
                .name("als-accept".into())
                .spawn(move || accept_loop(&listener, &ctx))?,
        );

        Ok(Daemon { addr, cfg, queue, registry, stop, threads })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's root state directory.
    pub fn state_dir(&self) -> &Path {
        &self.cfg.state_dir
    }

    /// Current status of every known job, submission order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        lock(&self.registry).values().map(|e| e.status()).collect()
    }

    /// Drains gracefully: stops admitting, cancels running jobs (their
    /// journals seal with a preempt record and the jobs persist as
    /// `preempted`), waits for every thread, and returns. A subsequent
    /// [`Daemon::start`] on the same state directory resumes the
    /// preempted jobs.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.queue.close();
        self.stop.cancel();
        // Wake the blocking accept: the loop ends on the first connection
        // it takes after the stop token is set.
        let _ = TcpStream::connect(wake_addr(self.addr));
        // Cancel every non-terminal job; runners observe the token at the
        // next supervision check and seal their journals.
        for entry in lock(&self.registry).values() {
            if !lock(&entry.state).is_terminal() {
                entry.cancel.cancel();
            }
        }
        // The accept thread returns once its scope has joined every live
        // connection handler.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Runners are quiesced: anything still queued (never popped)
        // stays `queued` on disk and is re-admitted on the next start.
        Ok(())
    }
}

/// Where [`Daemon::shutdown`] connects to wake the accept: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback
/// of the same family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr =
            if addr.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        addr.set_ip(loopback);
    }
    addr
}

/// Scans the jobs directory, loads every persisted job into the registry
/// and re-enqueues the non-terminal ones. Returns the highest recovered
/// numeric job id.
fn recover(
    jobs_dir: &Path,
    registry: &Registry,
    queue: &Arc<JobQueue>,
    metrics: &Arc<ServiceMetrics>,
) -> std::io::Result<u64> {
    let mut max_id = 0u64;
    let mut recovered: Vec<Arc<JobEntry>> = Vec::new();
    if jobs_dir.is_dir() {
        for dent in std::fs::read_dir(jobs_dir)? {
            let dir = dent?.path();
            if !dir.is_dir() {
                continue;
            }
            let Some(entry) = load_job(&dir) else { continue };
            if let Some(n) = entry.id.strip_prefix("j-").and_then(|s| s.parse::<u64>().ok()) {
                max_id = max_id.max(n);
            }
            recovered.push(entry);
        }
    }
    // Submission order == id order; re-enqueue in that order so recovery
    // preserves FIFO fairness within each priority class.
    recovered.sort_by(|a, b| a.id.cmp(&b.id));
    for entry in recovered {
        let state = *lock(&entry.state);
        if !state.is_terminal() {
            let resume = entry.spec.flow.supports_journal() && entry.dir.join("run.alsj").is_file();
            if resume {
                metrics.resumed.inc();
            }
            entry.set_state(JobState::Queued);
            let job = QueuedJob { id: entry.id.clone(), spec: entry.spec.clone(), resume };
            // Recovery happens before the queue has any clients; the only
            // way this fails is a recovered backlog beyond capacity, in
            // which case the job stays `queued` on disk for a later
            // daemon with more room.
            let _ = queue.push(job);
        }
        lock(registry).insert(entry.id.clone(), entry);
    }
    Ok(max_id)
}

/// Loads one persisted job directory; `None` when it is unreadable or
/// incomplete (a submit that crashed before `spec.json` landed).
fn load_job(dir: &Path) -> Option<Arc<JobEntry>> {
    let spec_doc =
        als_obs::json::parse(&std::fs::read_to_string(dir.join("spec.json")).ok()?).ok()?;
    let id = spec_doc.get("id")?.as_str()?.to_string();
    let spec = JobSpec::from_json(spec_doc.get("spec")?).ok()?;
    let (state, error) = match std::fs::read_to_string(dir.join("state.json")) {
        Ok(text) => {
            let v = als_obs::json::parse(&text).ok()?;
            let state = v
                .get("state")
                .and_then(Json::as_str)
                .and_then(JobState::from_token)
                .unwrap_or(JobState::Queued);
            let error = v.get("error").filter(|e| !e.is_null()).and_then(ErrorBody::from_json);
            (state, error)
        }
        Err(_) => (JobState::Queued, None),
    };
    let result = std::fs::read_to_string(dir.join("result.json"))
        .ok()
        .and_then(|t| als_obs::json::parse(&t).ok());
    Some(Arc::new(JobEntry {
        id,
        spec,
        dir: dir.to_path_buf(),
        state: Mutex::new(state),
        cancel: CancelToken::new(),
        cancel_requested: AtomicBool::new(false),
        events: Mutex::new(Vec::new()),
        watchers: Mutex::new(Vec::new()),
        result: Mutex::new(result),
        error: Mutex::new(error),
    }))
}

/// Atomically replaces `path` (write to a sibling temp file, rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------

fn runner_loop(
    queue: &Arc<JobQueue>,
    registry: &Registry,
    metrics: &Arc<ServiceMetrics>,
    stop: &CancelToken,
) {
    loop {
        match queue.pop(Duration::from_millis(200)) {
            Some(job) => {
                let entry = lock(registry).get(&job.id).cloned();
                if let Some(entry) = entry {
                    run_job(&entry, job.resume, metrics);
                }
                queue.finished(&job.spec.tenant);
            }
            None => {
                if stop.is_cancelled() {
                    return;
                }
            }
        }
    }
}

/// Builds the circuit a spec names. The benchmark name was validated at
/// submit time, but the registry may still reject (e.g. state recovered
/// from a newer daemon), so this guards rather than panics.
fn build_circuit(spec: &JobSpec, dir: &Path) -> Result<Aig, ErrorBody> {
    match &spec.circuit {
        CircuitSource::Benchmark { name, scale } => {
            if !als_circuits::benchmark_names().contains(&name.as_str()) {
                return Err(ErrorBody::new(
                    "unknown_benchmark",
                    format!("unknown benchmark {name:?}"),
                ));
            }
            Ok(als_circuits::benchmark(name, *scale))
        }
        CircuitSource::Aiger { .. } => {
            let text = std::fs::read_to_string(dir.join("input.aag"))
                .map_err(|e| ErrorBody::new("io", format!("reading input.aag: {e}")))?;
            als_aig::io::from_ascii_str(&text, "input")
                .map_err(|e| ErrorBody::new("bad_aiger", format!("{e}")))
        }
    }
}

/// Derives the engine configuration from a spec. `attach_run_state`
/// additionally wires in the per-job observability and journal — submit
/// validation calls this with it off to keep validation side-effect-free.
fn flow_config(
    spec: &JobSpec,
    dir: &Path,
    resume: bool,
    cancel: CancelToken,
    listener: Option<SpanListener>,
) -> Result<FlowConfig, ErrorBody> {
    let mut cfg = FlowConfig::new(spec.metric, spec.error_bound);
    if let Some(p) = spec.patterns {
        cfg = cfg.with_patterns(p);
    }
    if let Some(s) = spec.seed {
        cfg = cfg.with_seed(s);
    }
    cfg = cfg.with_threads(spec.threads.unwrap_or(1));
    if let Some(m) = spec.max_iters {
        cfg = cfg.with_max_iters(m);
    }
    if let Some(ms) = spec.deadline_ms {
        cfg = cfg.with_timeout(Duration::from_millis(ms));
    }
    cfg = cfg.with_cancel_token(cancel);
    if let Some(listener) = listener {
        let obs = Obs::with_listener(
            ObsConfig {
                trace: Some(dir.join("trace.jsonl")),
                metrics: Some(dir.join("metrics.prom")),
                tree: false,
            },
            Some(listener),
        )
        .map_err(|e| ErrorBody::new("io", format!("creating trace sink: {e}")))?;
        cfg = cfg.with_obs(obs);
    }
    if spec.flow.supports_journal() {
        let journal = dir.join("run.alsj");
        cfg = if resume { cfg.with_resume(&journal) } else { cfg.with_journal(&journal) };
    }
    cfg.validate().map_err(|e| ErrorBody::new(e.code(), e.to_string()))?;
    Ok(cfg)
}

/// Executes one job end to end: state transitions, run, persistence,
/// watcher notification.
fn run_job(entry: &Arc<JobEntry>, resume: bool, metrics: &Arc<ServiceMetrics>) {
    entry.set_state(JobState::Running);
    let publisher = entry.clone();
    let listener: SpanListener = Arc::new(move |line: &str| publisher.publish(line));
    let outcome = build_circuit(&entry.spec, &entry.dir).and_then(|aig| {
        let cfg =
            flow_config(&entry.spec, &entry.dir, resume, entry.cancel.clone(), Some(listener))?;
        let obs = cfg.obs.clone();
        let run = by_name(entry.spec.flow, cfg)
            .and_then(|flow| flow.run(&aig))
            .map_err(|e| ErrorBody::new("engine", e.to_string()));
        let _ = obs.finish();
        run
    });
    let final_state = match outcome {
        Ok(result) => {
            if result.stop == StopReason::Cancelled {
                if entry.cancel_requested.load(Ordering::SeqCst) {
                    metrics.cancelled.inc();
                    JobState::Cancelled
                } else {
                    // A drain preemption: the journal is sealed; the next
                    // daemon start resumes it.
                    metrics.preempted.inc();
                    JobState::Preempted
                }
            } else {
                let doc = result.to_json();
                let _ = write_atomic(&entry.dir.join("result.json"), doc.render().as_bytes());
                let _ = write_atomic(
                    &entry.dir.join("result.aag"),
                    als_aig::io::to_ascii_string(&result.circuit).as_bytes(),
                );
                *lock(&entry.result) = Some(doc);
                metrics.completed.inc();
                JobState::Completed
            }
        }
        Err(err) => {
            // A cancellation can surface as an engine error if it lands
            // outside a supervised section; classify it like a trip.
            if entry.cancel.is_cancelled() && !entry.cancel_requested.load(Ordering::SeqCst) {
                metrics.preempted.inc();
                JobState::Preempted
            } else if entry.cancel_requested.load(Ordering::SeqCst) {
                metrics.cancelled.inc();
                JobState::Cancelled
            } else {
                *lock(&entry.error) = Some(err);
                metrics.failed.inc();
                JobState::Failed
            }
        }
    };
    entry.finish(final_state);
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/// What every connection handler borrows from the accept loop.
struct ConnCtx {
    queue: Arc<JobQueue>,
    registry: Registry,
    metrics: Arc<ServiceMetrics>,
    stop: CancelToken,
    next_id: Mutex<u64>,
    jobs_dir: PathBuf,
}

/// Blocks in `accept` and serves each connection on a handler thread
/// scoped to this loop, so a finished handler releases its stack as it
/// exits. The loop ends on the first connection taken after the stop
/// token is set (the wake from [`Daemon::shutdown`]); the scope then
/// joins the live handlers.
fn accept_loop(listener: &TcpListener, ctx: &ConnCtx) {
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if ctx.stop.is_cancelled() {
                break;
            }
            match conn {
                // A failed spawn drops this one connection, not the daemon.
                Ok(stream) => {
                    let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                        let _ = handle_connection(stream, ctx);
                    });
                }
                // A real accept error (e.g. out of file descriptors):
                // back off instead of spinning on it.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    });
}

fn handle_connection(stream: TcpStream, ctx: &ConnCtx) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    // Sniff the transport: a plain-HTTP probe starts with a method verb,
    // the native protocol with `{`.
    let first = loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.stop.is_cancelled() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(()); // closed without a byte
        }
        break buf[0];
    };
    if first != b'{' {
        return handle_http(reader, stream, ctx);
    }
    line_protocol(reader, stream, ctx)
}

/// Minimal HTTP/1.1 for the two operational endpoints.
fn handle_http(
    mut reader: BufReader<TcpStream>,
    mut stream: TcpStream,
    ctx: &ConnCtx,
) -> std::io::Result<()> {
    let request_line = read_line_blocking(&mut reader, &ctx.stop)?.unwrap_or_default();
    // Drain headers until the blank line; their content is irrelevant.
    while let Some(line) = read_line_blocking(&mut reader, &ctx.stop)? {
        if line.is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", "/metrics") => {
            ctx.metrics.queue_depth.set(ctx.queue.depth() as u64);
            ctx.metrics.running.set(ctx.queue.running() as u64);
            ("200 OK", "text/plain; version=0.0.4", ctx.metrics.obs.prometheus_text())
        }
        ("GET", _) => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        _ => ("405 Method Not Allowed", "text/plain; charset=utf-8", "line-JSON or GET\n".into()),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one `\n`-terminated line, tolerating the read timeout so the
/// daemon's stop token stays responsive. `None` on a clean EOF.
fn read_line_blocking(
    reader: &mut BufReader<TcpStream>,
    stop: &CancelToken,
) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => {
                return Ok(if line.is_empty() { None } else { Some(trim_newline(line)) });
            }
            Ok(_) => {
                if line.ends_with('\n') {
                    return Ok(Some(trim_newline(line)));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.is_cancelled() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn trim_newline(mut line: String) -> String {
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    line
}

fn line_protocol(
    mut reader: BufReader<TcpStream>,
    mut stream: TcpStream,
    ctx: &ConnCtx,
) -> std::io::Result<()> {
    while let Some(line) = read_line_blocking(&mut reader, &ctx.stop)? {
        if line.is_empty() {
            continue;
        }
        let reply = match Request::parse(&line) {
            Err(e) => err_response(&e),
            Ok(Request::Submit(spec)) => match submit(spec, ctx) {
                Ok(id) => ok_response(Json::obj().with("id", id.as_str())),
                Err(e) => {
                    ctx.metrics.rejected.inc();
                    err_response(&e)
                }
            },
            Ok(Request::Status(id)) => match lock(&ctx.registry).get(&id) {
                Some(entry) => ok_response(Json::obj().with("status", entry.status().to_json())),
                None => err_response(&ErrorBody::new("not_found", format!("no job {id:?}"))),
            },
            Ok(Request::List) => {
                let jobs: Vec<Json> =
                    lock(&ctx.registry).values().map(|e| e.status().to_json()).collect();
                ok_response(Json::obj().with("jobs", jobs))
            }
            Ok(Request::Cancel(id)) => match cancel(&id, ctx) {
                Ok(state) => ok_response(Json::obj().with("state", state.token())),
                Err(e) => err_response(&e),
            },
            Ok(Request::Watch(id)) => {
                let entry = lock(&ctx.registry).get(&id).cloned();
                match entry {
                    None => err_response(&ErrorBody::new("not_found", format!("no job {id:?}"))),
                    Some(entry) => {
                        writeln!(
                            stream,
                            "{}",
                            ok_response(Json::obj().with("watching", id.as_str()))
                        )?;
                        stream_watch(&mut stream, &entry, &ctx.stop)?;
                        continue;
                    }
                }
            }
        };
        writeln!(stream, "{reply}")?;
    }
    Ok(())
}

/// Replays and then follows a job's span events until it ends (or the
/// daemon drains, which ends the stream with the job's current state).
fn stream_watch(
    stream: &mut TcpStream,
    entry: &Arc<JobEntry>,
    stop: &CancelToken,
) -> std::io::Result<()> {
    let (replay, rx) = entry.subscribe();
    for line in replay {
        writeln!(stream, "{line}")?;
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(WatchMsg::Line(line)) => writeln!(stream, "{line}")?,
            Ok(WatchMsg::End(state)) => {
                writeln!(stream, "{}", watch_end(state))?;
                return Ok(());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.is_cancelled() {
                    writeln!(stream, "{}", watch_end(*lock(&entry.state)))?;
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                writeln!(stream, "{}", watch_end(*lock(&entry.state)))?;
                return Ok(());
            }
        }
    }
}

/// Validates a submission end to end (spec, circuit, derived engine
/// config), persists the job directory and admits it to the queue.
fn submit(spec: JobSpec, ctx: &ConnCtx) -> Result<String, ErrorBody> {
    // Validate the circuit source before anything lands on disk.
    match &spec.circuit {
        CircuitSource::Benchmark { name, .. } => {
            if !als_circuits::benchmark_names().contains(&name.as_str()) {
                return Err(ErrorBody::new(
                    "unknown_benchmark",
                    format!(
                        "unknown benchmark {name:?} (expected one of: {})",
                        als_circuits::benchmark_names().join(", ")
                    ),
                ));
            }
        }
        CircuitSource::Aiger { text } => {
            als_aig::io::from_ascii_str(text, "input")
                .map_err(|e| ErrorBody::new("bad_aiger", format!("{e}")))?;
        }
    }
    // Validate the derived engine config without run-state side effects,
    // so contradictions come back on submit, not as a failed job.
    let probe_dir = ctx.jobs_dir.join(".probe");
    flow_config(&spec, &probe_dir, false, CancelToken::new(), None)?;

    let id = {
        let mut next = lock(&ctx.next_id);
        let id = format!("j-{:06}", *next);
        *next += 1;
        id
    };
    let dir = ctx.jobs_dir.join(&id);
    let io_err = |e: std::io::Error| ErrorBody::new("io", format!("persisting job: {e}"));
    std::fs::create_dir_all(&dir).map_err(io_err)?;
    if let CircuitSource::Aiger { text } = &spec.circuit {
        std::fs::write(dir.join("input.aag"), text).map_err(io_err)?;
    }
    let entry = Arc::new(JobEntry {
        id: id.clone(),
        spec: spec.clone(),
        dir: dir.clone(),
        state: Mutex::new(JobState::Queued),
        cancel: CancelToken::new(),
        cancel_requested: AtomicBool::new(false),
        events: Mutex::new(Vec::new()),
        watchers: Mutex::new(Vec::new()),
        result: Mutex::new(None),
        error: Mutex::new(None),
    });
    let spec_doc = Json::obj().with("id", id.as_str()).with("spec", spec.to_json());
    write_atomic(&dir.join("spec.json"), spec_doc.render().as_bytes()).map_err(io_err)?;
    entry.persist_state().map_err(io_err)?;
    // Registry before queue: a runner popping the job must find it.
    lock(&ctx.registry).insert(id.clone(), entry.clone());
    if let Err(e) = ctx.queue.push(QueuedJob { id: id.clone(), spec, resume: false }) {
        lock(&ctx.registry).remove(&id);
        let _ = std::fs::remove_dir_all(&dir);
        return Err(e);
    }
    ctx.metrics.submitted.inc();
    Ok(id)
}

/// Cancels a queued or running job; terminal jobs come back as a typed
/// conflict.
fn cancel(id: &str, ctx: &ConnCtx) -> Result<JobState, ErrorBody> {
    let entry = lock(&ctx.registry)
        .get(id)
        .cloned()
        .ok_or_else(|| ErrorBody::new("not_found", format!("no job {id:?}")))?;
    let state = *lock(&entry.state);
    if state.is_terminal() {
        return Err(ErrorBody::new("conflict", format!("job is already {}", state.token())));
    }
    entry.cancel_requested.store(true, Ordering::SeqCst);
    if ctx.queue.remove(id) {
        // Never ran: no runner will finalize it, so do it here.
        ctx.metrics.cancelled.inc();
        entry.finish(JobState::Cancelled);
        return Ok(JobState::Cancelled);
    }
    // Running: the token trips the engine's next supervision check and
    // the runner finalizes to `cancelled`.
    entry.cancel.cancel();
    let state = *lock(&entry.state);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// A daemon bound to `0.0.0.0` answers on loopback, and its shutdown
    /// wakes the blocking accept through loopback.
    #[test]
    fn unspecified_bind_address_serves_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("als-serve-unspec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::new(&dir);
        cfg.addr = "0.0.0.0:0".into();
        cfg.runners = 1;
        let daemon = Daemon::start(cfg).unwrap();
        assert!(daemon.addr().ip().is_unspecified());
        let client = Client::new(format!("127.0.0.1:{}", daemon.addr().port()));
        assert_eq!(client.http_get("/healthz").unwrap(), "ok\n");

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(daemon.shutdown().is_ok()));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Ok(true),
            "shutdown must wake the accept and return"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
