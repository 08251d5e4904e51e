//! Flow results and per-step timing.

use std::time::Duration;

use als_aig::{Aig, NodeId};
use als_lac::Lac;

/// Which phase of a dual-phase iteration applied a LAC (single-phase flows
/// always report [`Phase::Comprehensive`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Applied after a comprehensive (full) analysis.
    Comprehensive,
    /// Applied by an incremental phase-two round.
    Incremental,
}

/// Accumulated runtime of the three analysis steps (plus application and
/// bookkeeping).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct StepTimes {
    /// Step 1: obtaining/updating disjoint cuts.
    pub cuts: Duration,
    /// Step 2: computing the CPM.
    pub cpm: Duration,
    /// Step 3: candidate generation and error evaluation (the sum of the
    /// `generate` and `eval` spans).
    pub eval: Duration,
    /// LAC application, resimulation and cache refresh.
    pub apply: Duration,
}

impl StepTimes {
    /// The time accumulated since an earlier snapshot of the same
    /// accumulator.
    pub fn delta_since(&self, snapshot: &StepTimes) -> StepTimes {
        StepTimes {
            cuts: self.cuts.saturating_sub(snapshot.cuts),
            cpm: self.cpm.saturating_sub(snapshot.cpm),
            eval: self.eval.saturating_sub(snapshot.eval),
            apply: self.apply.saturating_sub(snapshot.apply),
        }
    }

    /// Index (1..=3) of the analysis step that took more than half of the
    /// analysis time, if any — the paper's "dominating step".
    pub fn dominating_step(&self) -> Option<usize> {
        let analysis = self.cuts + self.cpm + self.eval;
        if analysis.is_zero() {
            return None;
        }
        let half = analysis / 2;
        if self.cuts > half {
            Some(1)
        } else if self.cpm > half {
            Some(2)
        } else if self.eval > half {
            Some(3)
        } else {
            None
        }
    }
}

/// One applied LAC.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// The applied change.
    pub lac: Lac,
    /// Estimated error after applying (equals the measured error for exact
    /// analyses).
    pub error_after: f64,
    /// Gates removed by the LAC.
    pub saving: usize,
    /// Live AND gates remaining after the application.
    pub nodes_after: usize,
    /// Phase that selected the LAC.
    pub phase: Phase,
    /// Candidates the budget guard applied, measured over budget and
    /// rolled back before this one committed.
    pub rollbacks: usize,
}

/// Guarded-execution activity accumulated over a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Exact pre-commit measurements performed.
    pub validations: usize,
    /// Tentatively applied LACs rolled back on budget overshoot.
    pub rollbacks: usize,
    /// Candidates evicted from the pool after a rollback.
    pub evictions: usize,
    /// Validation-set doublings triggered by overshoots (strict mode).
    pub resamples: usize,
    /// Phase-two rounds aborted to a fresh comprehensive analysis after a
    /// failed incremental-state spot-check.
    pub fallbacks: usize,
}

/// Everything a flow run produces.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Flow name (for reports).
    pub flow: String,
    /// The final approximate circuit.
    pub circuit: Aig,
    /// Final error under the configured metric (measured, not estimated).
    pub final_error: f64,
    /// Error bound the run was given.
    pub error_bound: f64,
    /// One record per applied LAC, in order.
    pub iterations: Vec<IterationRecord>,
    /// Wall-clock runtime of the whole run.
    pub runtime: Duration,
    /// Per-step timing accumulated over the run.
    pub step_times: StepTimes,
    /// Number of comprehensive analyses performed.
    pub comprehensive_analyses: usize,
    /// Node ranking (by smallest error increase) after the first
    /// comprehensive analysis — the Fig. 4 experiment consumes this.
    pub first_ranking: Vec<NodeId>,
    /// Full statistical error report of the final circuit (ER, MED, MSE,
    /// max ED, NMED, MRED and an error-distance histogram).
    pub error_report: als_error::ErrorReport,
    /// Wall-clock time spent in comprehensive (phase-one) work.
    pub comprehensive_time: Duration,
    /// Wall-clock time spent in incremental (phase-two) work.
    pub incremental_time: Duration,
    /// Guarded-execution activity (rollbacks, evictions, resamples,
    /// incremental-state fallbacks).
    pub guard: GuardStats,
    /// Why the run ended. Anything but
    /// [`Converged`](crate::StopReason::Converged) means the run stopped
    /// early and `circuit` is the best-so-far result — still valid and
    /// still within `error_bound`.
    pub stop: crate::StopReason,
}

/// Version tag of the [`FlowResult::to_json`] document schema. Bumped on
/// any incompatible change; the service wire protocol embeds the same
/// documents, so client and server agree by construction.
pub const RESULT_SCHEMA_VERSION: u64 = 1;

impl GuardStats {
    /// The wire form of the guard activity counters.
    pub fn to_json(&self) -> als_obs::json::Json {
        als_obs::json::Json::obj()
            .with("validations", self.validations)
            .with("rollbacks", self.rollbacks)
            .with("evictions", self.evictions)
            .with("resamples", self.resamples)
            .with("fallbacks", self.fallbacks)
    }
}

impl StepTimes {
    /// The wire form of the per-step timing breakdown, in microseconds.
    pub fn to_json(&self) -> als_obs::json::Json {
        als_obs::json::Json::obj()
            .with("cuts_us", self.cuts.as_micros() as u64)
            .with("cpm_us", self.cpm.as_micros() as u64)
            .with("eval_us", self.eval.as_micros() as u64)
            .with("apply_us", self.apply.as_micros() as u64)
    }
}

impl FlowResult {
    /// Number of applied LACs.
    pub fn lacs_applied(&self) -> usize {
        self.iterations.len()
    }

    /// Renders the run summary as one JSON document — the **shared result
    /// schema**: `als synth --json` prints exactly this object, and the
    /// job service embeds it verbatim as the `result` field of a completed
    /// job's status response, so every consumer parses one shape.
    ///
    /// The circuit itself is not embedded (it is written to `-o` by the
    /// CLI and stored per job by the service); everything else a caller
    /// needs to judge the run — error, bound, stop reason, sizes, timing,
    /// guard activity and the full statistical error report — is.
    pub fn to_json(&self) -> als_obs::json::Json {
        use als_obs::json::Json;
        let report = Json::obj()
            .with("er", self.error_report.er)
            .with("med", self.error_report.med)
            .with("mse", self.error_report.mse)
            .with("max_ed", self.error_report.max_ed)
            .with("nmed", self.error_report.nmed)
            .with("mred", self.error_report.mred)
            .with(
                "ed_histogram",
                Json::Arr(
                    self.error_report.histogram.iter().map(|&c| Json::UInt(c as u64)).collect(),
                ),
            );
        Json::obj()
            .with("schema", RESULT_SCHEMA_VERSION)
            .with("flow", self.flow.as_str())
            .with("final_error", self.final_error)
            .with("error_bound", self.error_bound)
            .with("stop", self.stop.to_json())
            .with("lacs_applied", self.lacs_applied())
            .with("final_nodes", self.final_nodes())
            .with("comprehensive_analyses", self.comprehensive_analyses)
            .with("runtime_us", self.runtime.as_micros() as u64)
            .with("comprehensive_us", self.comprehensive_time.as_micros() as u64)
            .with("incremental_us", self.incremental_time.as_micros() as u64)
            .with("step_times", self.step_times.to_json())
            .with("guard", self.guard.to_json())
            .with("error_report", report)
    }

    /// AND-gate count of the final circuit.
    pub fn final_nodes(&self) -> usize {
        self.circuit.num_ands()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominating_step_detection() {
        let mut t = StepTimes::default();
        assert_eq!(t.dominating_step(), None);
        t.cuts = Duration::from_millis(90);
        t.cpm = Duration::from_millis(5);
        t.eval = Duration::from_millis(5);
        assert_eq!(t.dominating_step(), Some(1));
        t.cpm = Duration::from_millis(200);
        assert_eq!(t.dominating_step(), Some(2));
        t.eval = Duration::from_millis(400);
        assert_eq!(t.dominating_step(), Some(3));
        // balanced: none dominates
        let b = StepTimes {
            cuts: Duration::from_millis(10),
            cpm: Duration::from_millis(10),
            eval: Duration::from_millis(10),
            apply: Duration::ZERO,
        };
        assert_eq!(b.dominating_step(), None);
    }
}
