//! End-to-end tests of the job service: an in-process daemon exercised
//! through the public [`Client`], covering concurrent execution with
//! per-tenant limits, cancellation, watch streaming (byte-identical to
//! the JSONL trace), graceful preemption with journal resume across a
//! daemon restart, and the operational HTTP endpoints.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dualphase_als::circuits::BenchmarkScale;
use dualphase_als::prelude::*;
use dualphase_als::serve::{
    CircuitSource, Client, Daemon, DaemonConfig, JobSpec, JobState, TenantPolicy,
};

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("als-service-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn flow_spec(tenant: &str, flow: FlowName, name: &str, patterns: usize, bound: f64) -> JobSpec {
    let mut spec = JobSpec::new(
        tenant,
        flow,
        MetricKind::Med,
        bound,
        CircuitSource::Benchmark { name: name.into(), scale: BenchmarkScale::Reduced },
    );
    spec.patterns = Some(patterns);
    spec.threads = Some(1);
    spec
}

fn bench_spec(tenant: &str, name: &str, patterns: usize, bound: f64) -> JobSpec {
    flow_spec(tenant, FlowName::DpSa, name, patterns, bound)
}

/// The direct (in-process, no service) run of the same spec — the
/// reference the service result must match byte for byte.
///
/// Byte-for-byte comparisons across *different process conditions* use
/// [`FlowName::Dp`]: DP-SA's self-adaption tunes its candidate-set size
/// from the measured dominating analysis step (that is the paper's
/// algorithm), so its trajectory legitimately depends on machine load,
/// while DP's fixed parameters make it bit-reproducible anywhere.
fn direct_run(flow: FlowName, name: &str, patterns: usize, bound: f64) -> FlowResult {
    let aig = dualphase_als::circuits::benchmark(name, BenchmarkScale::Reduced);
    let cfg = FlowConfig::new(MetricKind::Med, bound).with_patterns(patterns).with_threads(1);
    by_name(flow, cfg).unwrap().run(&aig).unwrap()
}

fn wait_until(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let start = Instant::now();
    while !f() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The full service lifecycle: three concurrent jobs — one watched to
/// completion (stream byte-identical to its trace file and result
/// byte-identical to a direct run), one cancelled mid-run, one preempted
/// by a graceful drain and resumed by a fresh daemon on the same state
/// directory to a byte-identical result.
#[test]
fn service_end_to_end() {
    let dir = state_dir("e2e");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = Client::new(daemon.addr().to_string());

    // Job C first: the long-running preemption target. DP, not DP-SA: the
    // byte-identity assertion below compares runs under different machine
    // load (see `direct_run`).
    let preempt_id = client.submit(&flow_spec("acme", FlowName::Dp, "sm9x8", 2048, 40.0)).unwrap();
    // Job B: cancelled once it is observably running.
    let cancel_id = client.submit(&bench_spec("acme", "sm9x8", 1024, 40.0)).unwrap();
    // Job A: watched from submission to completion.
    let done_id = client.submit(&bench_spec("acme", "adder", 1024, 4.0)).unwrap();

    // --- watch A to completion; the stream is the JSONL trace, live ----
    let mut streamed: Vec<String> = Vec::new();
    let end = client.watch(&done_id, |line| streamed.push(line.to_string())).unwrap();
    assert_eq!(end, JobState::Completed);
    let job_dir = dir.join("jobs").join(&done_id);
    let trace = std::fs::read_to_string(job_dir.join("trace.jsonl")).unwrap();
    let trace_lines: Vec<&str> = trace.lines().collect();
    assert_eq!(streamed, trace_lines, "watch must stream exactly the lines the JSONL sink records");
    assert!(
        streamed.iter().any(|l| l.contains("\"iteration\"")),
        "the stream carries per-iteration progress"
    );

    // --- A's result is byte-identical to a direct Flow::run ------------
    let direct = direct_run(FlowName::DpSa, "adder", 1024, 4.0);
    let service_aag = std::fs::read_to_string(job_dir.join("result.aag")).unwrap();
    assert_eq!(
        service_aag,
        dualphase_als::aig::io::to_ascii_string(&direct.circuit),
        "service and direct runs must produce identical circuits"
    );
    let status = client.status(&done_id).unwrap();
    let result = status.result.clone().expect("completed job carries the result document");
    assert_eq!(
        result.get("final_error").and_then(|v| v.as_f64()),
        Some(direct.final_error),
        "the status document reports the run's exact final error"
    );
    assert_eq!(status.stop(), Some(StopReason::Converged));

    // --- cancel B mid-run ----------------------------------------------
    wait_until("the cancel target to start", Duration::from_secs(60), || {
        client.status(&cancel_id).unwrap().state == JobState::Running
    });
    client.cancel(&cancel_id).unwrap();
    wait_until("the cancellation to land", Duration::from_secs(60), || {
        client.status(&cancel_id).unwrap().state == JobState::Cancelled
    });

    // --- drain the daemon while C runs ----------------------------------
    let preempt_dir = dir.join("jobs").join(&preempt_id);
    wait_until("the preempt target to journal an iteration", Duration::from_secs(60), || {
        client.status(&preempt_id).unwrap().state == JobState::Running
            && preempt_dir.join("trace.jsonl").is_file()
            && std::fs::read_to_string(preempt_dir.join("trace.jsonl"))
                .unwrap_or_default()
                .contains("\"iteration\"")
    });
    daemon.shutdown().unwrap();
    let persisted = std::fs::read_to_string(preempt_dir.join("state.json")).unwrap();
    assert!(
        persisted.contains("\"preempted\""),
        "a drained running job persists as preempted, got: {persisted}"
    );
    assert!(preempt_dir.join("run.alsj").is_file(), "the sealed journal survives the drain");

    // --- a fresh daemon resumes C from its journal ----------------------
    let daemon2 = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client2 = Client::new(daemon2.addr().to_string());
    // A finished job's watch replays its trace file, also after a restart.
    let mut replayed: Vec<String> = Vec::new();
    let end = client2.watch(&done_id, |line| replayed.push(line.to_string())).unwrap();
    assert_eq!(end, JobState::Completed);
    assert_eq!(replayed, trace_lines, "a restarted daemon replays a finished job's trace");
    wait_until("the resumed job to complete", Duration::from_secs(300), || {
        client2.status(&preempt_id).unwrap().state == JobState::Completed
    });
    let resumed_aag = std::fs::read_to_string(preempt_dir.join("result.aag")).unwrap();
    let uninterrupted = direct_run(FlowName::Dp, "sm9x8", 2048, 40.0);
    assert_eq!(
        resumed_aag,
        dualphase_als::aig::io::to_ascii_string(&uninterrupted.circuit),
        "a preempted-and-resumed job must reproduce the uninterrupted run byte for byte"
    );

    // --- operational endpoints are consistent with reality --------------
    assert_eq!(client2.http_get("/healthz").unwrap(), "ok\n");
    let metrics = client2.http_get("/metrics").unwrap();
    dualphase_als::obs::prom::lint(&metrics).expect("/metrics passes the exposition lint");
    assert!(
        metrics.contains("als_serve_jobs_resumed_total 1"),
        "the restart resumed exactly one journaled job:\n{metrics}"
    );
    assert!(
        metrics.contains("als_serve_jobs_completed_total 1"),
        "this daemon instance completed exactly the resumed job:\n{metrics}"
    );
    assert!(client2.http_get("/nonsense").is_err(), "unknown paths are 404s");

    // All three jobs are visible with their final states.
    let jobs = client2.list().unwrap();
    let state_of = |id: &str| jobs.iter().find(|j| j.id == *id).unwrap().state;
    assert_eq!(state_of(&done_id), JobState::Completed);
    assert_eq!(state_of(&cancel_id), JobState::Cancelled);
    assert_eq!(state_of(&preempt_id), JobState::Completed);

    daemon2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight tenants, one running slot each: all eight jobs execute
/// concurrently, while a tenant's second job waits until its first
/// finishes — the per-tenant ceiling, not the runner fleet, is the
/// binding constraint.
#[test]
fn concurrency_with_per_tenant_limits() {
    let dir = state_dir("tenants");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.runners = 8;
    cfg.queue.default_policy = TenantPolicy { max_running: 1, max_queued: 8 };
    let daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr().to_string());

    let mut first_wave = Vec::new();
    for t in 0..8 {
        first_wave
            .push(client.submit(&bench_spec(&format!("tenant-{t}"), "adder", 4096, 4.0)).unwrap());
    }
    // A second job for tenant-0 must queue behind its first.
    let second = client.submit(&bench_spec("tenant-0", "adder", 1024, 4.0)).unwrap();

    wait_until("all eight tenants to run concurrently", Duration::from_secs(120), || {
        let jobs = client.list().unwrap();
        let running = jobs.iter().filter(|j| j.state == JobState::Running).count();
        let second_state = jobs.iter().find(|j| j.id == second).unwrap().state;
        assert_ne!(
            second_state,
            JobState::Running,
            "tenant-0's second job must wait for its first (max_running = 1)"
        );
        running >= 8
    });

    wait_until("every job to complete", Duration::from_secs(300), || {
        client.list().unwrap().iter().all(|j| j.state == JobState::Completed)
    });
    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control and protocol rejections are typed and immediate.
#[test]
fn typed_rejections() {
    let dir = state_dir("reject");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.runners = 1;
    cfg.queue.default_policy = TenantPolicy { max_running: 1, max_queued: 1 };
    let daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr().to_string());

    // Unknown benchmark: rejected before anything lands on disk.
    let mut spec = bench_spec("t", "warp-core", 1024, 4.0);
    assert_eq!(client.submit(&spec).unwrap_err().code, "unknown_benchmark");

    // Malformed inline AIGER: same.
    spec.circuit = CircuitSource::Aiger { text: "not an aiger file".into() };
    assert_eq!(client.submit(&spec).unwrap_err().code, "bad_aiger");

    // A contradictory engine config is a submit-time rejection, not a
    // failed job: zero iteration budget can never apply a LAC.
    let mut spec = bench_spec("t", "adder", 1024, 4.0);
    spec.max_iters = Some(0);
    assert_eq!(client.submit(&spec).unwrap_err().code, "zero_iter_limit");

    // Per-tenant queue ceiling: 1 running + 1 queued, the next is turned
    // away. A slow first job holds the runner.
    let _running = client.submit(&bench_spec("t", "sm9x8", 2048, 40.0)).unwrap();
    wait_until("the first job to occupy the runner", Duration::from_secs(60), || {
        client.list().unwrap().iter().any(|j| j.state == JobState::Running)
    });
    let _queued = client.submit(&bench_spec("t", "adder", 1024, 4.0)).unwrap();
    let over = client.submit(&bench_spec("t", "adder", 1024, 4.0)).unwrap_err();
    assert_eq!(over.code, "tenant_queue_full");

    // Unknown job ids are typed, not hangs.
    assert_eq!(client.status("j-999999").unwrap_err().code, "not_found");
    assert_eq!(client.cancel("j-999999").unwrap_err().code, "not_found");
    assert_eq!(client.watch("j-999999", |_| {}).unwrap_err().code, "not_found");

    // Cancelling a queued job is immediate; cancelling it again conflicts.
    assert_eq!(client.cancel(&_queued).unwrap(), JobState::Cancelled);
    assert_eq!(client.cancel(&_queued).unwrap_err().code, "conflict");

    daemon.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `als synth --json` and a completed job's status embed the same result
/// schema: identical documents for identical runs.
#[test]
fn cli_json_and_service_share_one_result_schema() {
    let dir = state_dir("schema");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = Client::new(daemon.addr().to_string());
    let id = client.submit(&bench_spec("t", "adder", 1024, 4.0)).unwrap();
    wait_until("the job to complete", Duration::from_secs(120), || {
        client.status(&id).unwrap().state == JobState::Completed
    });
    let service_doc = client.status(&id).unwrap().result.unwrap();
    daemon.shutdown().unwrap();

    let direct_doc = direct_run(FlowName::DpSa, "adder", 1024, 4.0).to_json();
    // Runtimes differ run to run; everything else must match exactly,
    // including field order (it is one schema, not two).
    let strip = |j: &dualphase_als::obs::json::Json| {
        let mut j = j.clone();
        for k in ["runtime_us", "comprehensive_us", "incremental_us", "step_times"] {
            j.set(k, dualphase_als::obs::json::Json::Null);
        }
        j.render()
    };
    assert_eq!(strip(&service_doc), strip(&direct_doc));
    let _ = std::fs::remove_dir_all(&dir);
}
