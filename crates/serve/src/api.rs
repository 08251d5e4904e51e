//! The versioned wire protocol shared by the daemon, the `als job` client
//! and any third-party caller.
//!
//! Everything on the wire is line-delimited JSON: one request object per
//! line from the client, one response object per line from the server
//! (`watch` additionally streams raw span-event lines between its
//! acknowledgement and its end marker). Every request carries the
//! protocol version in `"v"`; the daemon rejects versions it does not
//! speak with a typed [`ErrorBody`] instead of guessing.
//!
//! The types here are deliberately plain data: no handles, no sockets.
//! [`Daemon`](crate::server::Daemon) and [`Client`](crate::client::Client)
//! both convert through this module, so the two ends agree by
//! construction — there is no second schema to drift.

use als_circuits::BenchmarkScale;
use als_engine::{FlowName, StopReason};
use als_error::MetricKind;
use als_obs::json::Json;

/// Version of the request/response envelope. Bumped on any incompatible
/// change to the shapes in this module.
pub const PROTOCOL_VERSION: u64 = 1;

/// A typed wire error: a stable machine-readable `code` plus a
/// human-readable `message`. Mirrors the shape of
/// [`ConfigError::to_json`](als_engine::ConfigError::to_json) so clients
/// handle configuration rejections and service rejections identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable tag (`"bad_request"`, `"queue_full"`, ...).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ErrorBody {
    /// Builds an error body.
    pub fn new(code: &str, message: impl Into<String>) -> ErrorBody {
        ErrorBody { code: code.to_string(), message: message.into() }
    }

    /// A malformed or unparseable request.
    pub fn bad_request(message: impl Into<String>) -> ErrorBody {
        ErrorBody::new("bad_request", message)
    }

    /// The wire form: `{"code": ..., "message": ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj().with("code", self.code.as_str()).with("message", self.message.as_str())
    }

    /// Parses the wire form back.
    pub fn from_json(v: &Json) -> Option<ErrorBody> {
        Some(ErrorBody {
            code: v.get("code")?.as_str()?.to_string(),
            message: v.get("message")?.as_str()?.to_string(),
        })
    }
}

impl std::fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ErrorBody {}

/// Scheduling priority of a job. Within one priority class jobs run in
/// submission order; a higher class always runs before a lower one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Priority {
    /// Ahead of everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Behind everything else (batch/backfill work).
    Low,
}

impl Priority {
    /// All priorities, highest first — also the queue scan order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable wire token.
    pub fn token(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire token.
    pub fn from_token(s: &str) -> Option<Priority> {
        Priority::ALL.into_iter().find(|p| p.token() == s)
    }
}

/// Where the circuit to synthesize comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// A named circuit of the built-in benchmark suite.
    Benchmark {
        /// Name from [`als_circuits::benchmark_names`].
        name: String,
        /// Generation scale.
        scale: BenchmarkScale,
    },
    /// An ASCII AIGER (`.aag`) document supplied inline.
    Aiger {
        /// The full `.aag` text.
        text: String,
    },
}

impl CircuitSource {
    fn to_json(&self) -> Json {
        match self {
            CircuitSource::Benchmark { name, scale } => Json::obj()
                .with("benchmark", name.as_str())
                .with("scale", if *scale == BenchmarkScale::Paper { "paper" } else { "reduced" }),
            CircuitSource::Aiger { text } => Json::obj().with("aiger", text.as_str()),
        }
    }

    fn from_json(v: &Json) -> Result<CircuitSource, ErrorBody> {
        if let Some(name) = v.get("benchmark").and_then(Json::as_str) {
            let scale = match v.get("scale").and_then(Json::as_str) {
                None | Some("reduced") => BenchmarkScale::Reduced,
                Some("paper") => BenchmarkScale::Paper,
                Some(other) => {
                    return Err(ErrorBody::bad_request(format!(
                        "unknown benchmark scale {other:?} (expected \"paper\" or \"reduced\")"
                    )))
                }
            };
            return Ok(CircuitSource::Benchmark { name: name.to_string(), scale });
        }
        if let Some(text) = v.get("aiger").and_then(Json::as_str) {
            return Ok(CircuitSource::Aiger { text: text.to_string() });
        }
        Err(ErrorBody::bad_request("circuit needs a \"benchmark\" name or inline \"aiger\" text"))
    }
}

/// Everything the daemon needs to run one synthesis job. The submitting
/// client builds this; the daemon validates it, persists it to the job's
/// state directory and derives the engine's `FlowConfig` from it.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Accounting identity the queue's per-tenant limits apply to.
    pub tenant: String,
    /// Which flow to run.
    pub flow: FlowName,
    /// Error metric of the bound.
    pub metric: MetricKind,
    /// Error bound the run must honour.
    pub error_bound: f64,
    /// The circuit to synthesize.
    pub circuit: CircuitSource,
    /// Scheduling priority.
    pub priority: Priority,
    /// Monte-Carlo pattern count (engine default when absent).
    pub patterns: Option<usize>,
    /// Simulation seed (engine default when absent).
    pub seed: Option<u64>,
    /// Worker threads for this job (1 when absent).
    pub threads: Option<usize>,
    /// Supervision: iteration (applied-LAC) budget.
    pub max_iters: Option<usize>,
    /// Supervision: wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with every optional knob left at its default.
    pub fn new(
        tenant: &str,
        flow: FlowName,
        metric: MetricKind,
        error_bound: f64,
        circuit: CircuitSource,
    ) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            flow,
            metric,
            error_bound,
            circuit,
            priority: Priority::default(),
            patterns: None,
            seed: None,
            threads: None,
            max_iters: None,
            deadline_ms: None,
        }
    }

    /// The wire form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("tenant", self.tenant.as_str())
            .with("flow", self.flow.token())
            .with("metric", self.metric.token())
            .with("error_bound", self.error_bound)
            .with("circuit", self.circuit.to_json())
            .with("priority", self.priority.token())
            .with("patterns", self.patterns.map(|v| v as u64))
            .with("seed", self.seed)
            .with("threads", self.threads.map(|v| v as u64))
            .with("max_iters", self.max_iters.map(|v| v as u64))
            .with("deadline_ms", self.deadline_ms)
    }

    /// Parses and validates the wire form. Every rejection is a typed
    /// [`ErrorBody`] naming the offending field.
    pub fn from_json(v: &Json) -> Result<JobSpec, ErrorBody> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| ErrorBody::bad_request(format!("missing field {key:?}")))
        };
        let tenant = field("tenant")?
            .as_str()
            .filter(|t| !t.is_empty())
            .ok_or_else(|| ErrorBody::bad_request("\"tenant\" must be a non-empty string"))?
            .to_string();
        let flow: FlowName = field("flow")?
            .as_str()
            .ok_or_else(|| ErrorBody::bad_request("\"flow\" must be a string"))?
            .parse()
            .map_err(|e| ErrorBody::new("unknown_flow", format!("{e}")))?;
        let metric: MetricKind = field("metric")?
            .as_str()
            .ok_or_else(|| ErrorBody::bad_request("\"metric\" must be a string"))?
            .parse()
            .map_err(|e| ErrorBody::new("unknown_metric", format!("{e}")))?;
        let error_bound = field("error_bound")?
            .as_f64()
            .ok_or_else(|| ErrorBody::bad_request("\"error_bound\" must be a number"))?;
        let circuit = CircuitSource::from_json(field("circuit")?)?;
        let priority = match v.get("priority") {
            None => Priority::default(),
            Some(p) => p.as_str().and_then(Priority::from_token).ok_or_else(|| {
                ErrorBody::bad_request("\"priority\" must be \"high\", \"normal\" or \"low\"")
            })?,
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, ErrorBody> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => j.as_u64().map(Some).ok_or_else(|| {
                    ErrorBody::bad_request(format!("{key:?} must be a non-negative integer"))
                }),
            }
        };
        Ok(JobSpec {
            tenant,
            flow,
            metric,
            error_bound,
            circuit,
            priority,
            patterns: opt_u64("patterns")?.map(|v| v as usize),
            seed: opt_u64("seed")?,
            threads: opt_u64("threads")?.map(|v| v as usize),
            max_iters: opt_u64("max_iters")?.map(|v| v as usize),
            deadline_ms: opt_u64("deadline_ms")?,
        })
    }
}

/// Lifecycle of a job inside the daemon.
///
/// ```text
/// Queued -> Running -> Completed | Failed | Cancelled
///              |
///              v (daemon drained while the job ran)
///          Preempted  -> Queued (on the next daemon start, resuming
///                        from the sealed journal when the flow has one)
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a runner slot.
    Queued,
    /// Executing on a runner.
    Running,
    /// The daemon drained while the job ran; its journal is sealed and the
    /// next daemon start re-enqueues it with `--resume` semantics.
    Preempted,
    /// Finished within its bound; the result document is available.
    Completed,
    /// The engine rejected or aborted the run; the error body says why.
    Failed,
    /// Cancelled on a client's request.
    Cancelled,
}

impl JobState {
    /// Stable wire token.
    pub fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire token.
    pub fn from_token(s: &str) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
        ]
        .into_iter()
        .find(|j| j.token() == s)
    }

    /// Whether the job can still change state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }
}

/// A job's externally visible status: state plus, when terminal, the
/// result document (the exact
/// [`FlowResult::to_json`](als_engine::FlowResult::to_json) shape
/// `als synth --json` prints) or the error body.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Daemon-assigned job id.
    pub id: String,
    /// Submitting tenant.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Flow name (handy for `job list` output).
    pub flow: FlowName,
    /// The shared result document, present once [`JobState::Completed`].
    pub result: Option<Json>,
    /// Why the job failed, present once [`JobState::Failed`].
    pub error: Option<ErrorBody>,
}

impl JobStatus {
    /// The wire form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("id", self.id.as_str())
            .with("tenant", self.tenant.as_str())
            .with("state", self.state.token())
            .with("flow", self.flow.token())
            .with("result", self.result.clone())
            .with("error", self.error.as_ref().map(ErrorBody::to_json))
    }

    /// Parses the wire form back.
    pub fn from_json(v: &Json) -> Result<JobStatus, ErrorBody> {
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| ErrorBody::bad_request(format!("status is missing {key:?}")))
        };
        Ok(JobStatus {
            id: s("id")?.to_string(),
            tenant: s("tenant")?.to_string(),
            state: JobState::from_token(s("state")?)
                .ok_or_else(|| ErrorBody::bad_request("unknown job state"))?,
            flow: s("flow")?
                .parse()
                .map_err(|e| ErrorBody::bad_request(format!("bad flow in status: {e}")))?,
            result: v.get("result").filter(|r| !r.is_null()).cloned(),
            error: v.get("error").filter(|e| !e.is_null()).and_then(ErrorBody::from_json),
        })
    }

    /// The stop reason of a completed job, parsed from the result document.
    pub fn stop(&self) -> Option<StopReason> {
        self.result.as_ref().and_then(|r| r.get("stop")).and_then(StopReason::from_json)
    }
}

/// A client request. One JSON object per line on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job; the response carries the assigned id.
    Submit(JobSpec),
    /// One job's status.
    Status(String),
    /// Every job's status, submission order.
    List,
    /// Stream the job's span events: replay what already happened, then
    /// follow live until the job reaches a terminal (or preempted) state.
    Watch(String),
    /// Cancel a queued or running job.
    Cancel(String),
}

impl Request {
    /// Operation token (the `"op"` field).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::Status(_) => "status",
            Request::List => "list",
            Request::Watch(_) => "watch",
            Request::Cancel(_) => "cancel",
        }
    }

    /// The wire form, including the protocol version.
    pub fn to_json(&self) -> Json {
        let j = Json::obj().with("v", PROTOCOL_VERSION).with("op", self.op());
        match self {
            Request::Submit(spec) => j.with("spec", spec.to_json()),
            Request::Status(id) | Request::Watch(id) | Request::Cancel(id) => {
                j.with("job", id.as_str())
            }
            Request::List => j,
        }
    }

    /// Parses one request line. Version and shape violations come back as
    /// typed [`ErrorBody`] values ready to send to the client.
    pub fn parse(line: &str) -> Result<Request, ErrorBody> {
        let v = als_obs::json::parse(line)
            .map_err(|e| ErrorBody::bad_request(format!("request is not JSON: {e}")))?;
        match v.get("v").and_then(Json::as_u64) {
            Some(PROTOCOL_VERSION) => {}
            Some(got) => {
                return Err(ErrorBody::new(
                    "unsupported_version",
                    format!("protocol version {got} (this daemon speaks {PROTOCOL_VERSION})"),
                ))
            }
            None => return Err(ErrorBody::bad_request("missing protocol version \"v\"")),
        }
        let job = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ErrorBody::bad_request("missing job id"))
        };
        match v.get("op").and_then(Json::as_str) {
            Some("submit") => {
                let spec = v
                    .get("spec")
                    .ok_or_else(|| ErrorBody::bad_request("submit needs a \"spec\""))?;
                Ok(Request::Submit(JobSpec::from_json(spec)?))
            }
            Some("status") => Ok(Request::Status(job("job")?)),
            Some("list") => Ok(Request::List),
            Some("watch") => Ok(Request::Watch(job("job")?)),
            Some("cancel") => Ok(Request::Cancel(job("job")?)),
            Some(other) => {
                Err(ErrorBody::new("unknown_op", format!("unknown operation {other:?}")))
            }
            None => Err(ErrorBody::bad_request("missing \"op\"")),
        }
    }
}

/// Renders a success response line: `{"ok": true, ...body}`.
pub fn ok_response(body: Json) -> String {
    match body {
        Json::Obj(fields) => {
            let mut j = Json::obj().with("ok", true);
            for (k, v) in fields {
                j.set(&k, v);
            }
            j.render()
        }
        other => Json::obj().with("ok", true).with("value", other).render(),
    }
}

/// Renders an error response line: `{"ok": false, "error": {...}}`.
pub fn err_response(err: &ErrorBody) -> String {
    Json::obj().with("ok", false).with("error", err.to_json()).render()
}

/// Splits a response line into `Ok(body)` / `Err(error body)`.
pub fn parse_response(line: &str) -> Result<Json, ErrorBody> {
    let v = als_obs::json::parse(line)
        .map_err(|e| ErrorBody::new("bad_response", format!("response is not JSON: {e}")))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        Some(false) => Err(v
            .get("error")
            .and_then(ErrorBody::from_json)
            .unwrap_or_else(|| ErrorBody::new("bad_response", "error response without a body"))),
        None => Err(ErrorBody::new("bad_response", "response without an \"ok\" field")),
    }
}

/// The end-of-stream marker a `watch` emits after its last span event:
/// `{"watch_end": true, "state": <token>}`. Span-event lines never carry a
/// `watch_end` key, so clients can split the stream without heuristics.
pub fn watch_end(state: JobState) -> String {
    Json::obj().with("watch_end", true).with("state", state.token()).render()
}

/// Parses a watch stream line: `Some(state)` for the end marker, `None`
/// for a span-event line to hand to the caller.
pub fn parse_watch_line(line: &str) -> Option<JobState> {
    let v = als_obs::json::parse(line).ok()?;
    if v.get("watch_end").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    v.get("state").and_then(Json::as_str).and_then(JobState::from_token)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(
            "acme",
            FlowName::DpSa,
            MetricKind::Med,
            4.0,
            CircuitSource::Benchmark { name: "adder".into(), scale: BenchmarkScale::Reduced },
        );
        s.priority = Priority::High;
        s.patterns = Some(1024);
        s.seed = Some(u64::MAX);
        s.threads = Some(2);
        s
    }

    #[test]
    fn spec_round_trips_with_full_seed_precision() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.seed, Some(u64::MAX), "64-bit seeds must not pass through f64");
    }

    #[test]
    fn spec_rejections_are_typed() {
        let missing = Json::obj().with("tenant", "t");
        assert_eq!(JobSpec::from_json(&missing).unwrap_err().code, "bad_request");
        let bad_flow = spec().to_json().with("flow", "warp");
        assert_eq!(JobSpec::from_json(&bad_flow).unwrap_err().code, "unknown_flow");
        let bad_metric = spec().to_json().with("metric", "parsecs");
        assert_eq!(JobSpec::from_json(&bad_metric).unwrap_err().code, "unknown_metric");
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit(spec()),
            Request::Status("j-7".into()),
            Request::List,
            Request::Watch("j-7".into()),
            Request::Cancel("j-7".into()),
        ] {
            let line = req.to_json().render();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = Request::List.to_json().with("v", 99u64).render();
        assert_eq!(Request::parse(&line).unwrap_err().code, "unsupported_version");
        let line = r#"{"op":"list"}"#;
        assert_eq!(Request::parse(line).unwrap_err().code, "bad_request");
    }

    #[test]
    fn responses_split_ok_from_error() {
        let ok = ok_response(Json::obj().with("id", "j-1"));
        assert_eq!(parse_response(&ok).unwrap().get("id").and_then(Json::as_str), Some("j-1"));
        let err = err_response(&ErrorBody::new("queue_full", "try later"));
        assert_eq!(parse_response(&err).unwrap_err().code, "queue_full");
    }

    #[test]
    fn watch_end_marker_is_unambiguous() {
        assert_eq!(parse_watch_line(&watch_end(JobState::Completed)), Some(JobState::Completed));
        // A span event line parses as "not the end".
        let span = r#"{"span":"iteration","dur_ns":5}"#;
        assert_eq!(parse_watch_line(span), None);
    }

    #[test]
    fn job_states_round_trip_and_classify() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_token(s.token()), Some(s));
        }
        assert!(!JobState::Preempted.is_terminal(), "preempted jobs resume on restart");
        assert!(JobState::Cancelled.is_terminal());
    }
}
