//! The flow trait and the run state every flow shares.

use std::time::{Duration, Instant};

use als_aig::{Aig, EditRecord, NodeId};
use als_obs::Span;

use crate::config::FlowConfig;
use crate::context::{Ctx, Evaluated};
use crate::error::EngineError;
use crate::guard::BudgetGuard;
use crate::journal::{self, JournalWriter};
use crate::report::{FlowResult, IterationRecord, Phase};
use crate::supervisor::{self, RunGovernor, StopReason};

/// A complete ALS flow: takes the original circuit, returns the final
/// approximate circuit plus run statistics.
///
/// Implementations are stateless configuration holders; [`Flow::run`]
/// borrows them immutably so one configured flow can synthesise many
/// circuits.
pub trait Flow {
    /// Human-readable flow name used in reports (e.g. `"DP-SA"`).
    fn name(&self) -> &str;

    /// Runs the flow on `original` and returns the result, or a
    /// structured [`EngineError`] explaining why the run aborted.
    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError>;

    /// Whether the flow can journal its run for crash recovery. Flows
    /// whose loop structure has no checkpoint boundaries keep the default
    /// `false`; a journaling configuration is then rejected up front by
    /// [`crate::journal::reject_unsupported`] instead of silently ignored.
    fn supports_journal(&self) -> bool {
        false
    }
}

/// The state of one flow run that every flow keeps the same way: the
/// working context, the budget guard, the supervision governor, the
/// journal and what the result reports. A flow holds only its own
/// algorithm and drives the run through these methods.
pub(crate) struct Run<'a> {
    /// Working circuit, simulation and step timers.
    pub ctx: Ctx,
    /// Transactional application of selected candidates.
    pub guard: BudgetGuard,
    /// Deadline, iteration budget and cancellation.
    pub gov: RunGovernor,
    /// The crash-safe journal, when the flow opened one.
    pub journal: Option<JournalWriter>,
    /// One record per applied LAC.
    pub iterations: Vec<IterationRecord>,
    /// Node ranking of the first comprehensive analysis (Fig. 4).
    pub first_ranking: Vec<NodeId>,
    /// Comprehensive analyses run.
    pub analyses: usize,
    /// The governor limit that stopped the run, once one tripped.
    pub tripped: Option<StopReason>,
    cfg: &'a FlowConfig,
    flow: &'a str,
    /// The run's root span, closed once the result is built.
    _span: Span,
}

impl<'a> Run<'a> {
    /// Checks the input and the configuration, then sets up the context,
    /// the guard and the governor under the run's `flow` span.
    pub fn start(
        flow: &'a dyn Flow,
        original: &Aig,
        cfg: &'a FlowConfig,
    ) -> Result<Run<'a>, EngineError> {
        als_aig::check::check(original).map_err(EngineError::InvalidInput)?;
        journal::reject_unsupported(cfg, flow)?;
        let ctx = Ctx::new(original, cfg);
        let span = ctx.obs().span("flow");
        Ok(Run {
            guard: BudgetGuard::new(original, cfg),
            gov: RunGovernor::new(&cfg.supervise),
            ctx,
            journal: None,
            iterations: Vec::new(),
            first_ranking: Vec::new(),
            analyses: 0,
            tripped: None,
            cfg,
            flow: flow.name(),
            _span: span,
        })
    }

    /// Polls the governor at a check point. A tripped limit becomes the
    /// run's stop reason, and every later call returns `true`.
    pub fn stopped(&mut self) -> bool {
        if self.tripped.is_none() {
            self.tripped = self.gov.check(self.iterations.len());
        }
        self.tripped.is_some()
    }

    /// Whether the `max_lacs` cap leaves room for another LAC.
    pub fn has_room(&self) -> bool {
        self.iterations.len() < self.cfg.max_lacs
    }

    /// Counts one comprehensive analysis; the first one's target ranking
    /// is kept for Fig. 4.
    pub fn analysed(&mut self, evals: &[Evaluated]) {
        self.analyses += 1;
        if self.first_ranking.is_empty() {
            self.first_ranking = Ctx::rank_targets(evals);
        }
    }

    /// Records a committed LAC. When the run journals, its `Commit` record
    /// is buffered and made durable by the next checkpoint or the final
    /// flush (group commit).
    pub fn commit(
        &mut self,
        eval: &Evaluated,
        error_after: f64,
        phase: Phase,
        rollbacks: usize,
        records: &[EditRecord],
    ) {
        self.ctx.metrics.iterations.inc();
        let rec = IterationRecord {
            lac: eval.lac,
            error_after,
            saving: eval.saving,
            nodes_after: self.ctx.aig.num_ands(),
            phase,
            rollbacks,
        };
        if let Some(w) = self.journal.as_mut() {
            let index = self.iterations.len();
            w.append_commit_buffered(&journal::Commit::new(
                index,
                &rec,
                records,
                self.ctx.error(),
                &self.ctx.times,
            ));
        }
        self.iterations.push(rec);
    }

    /// Appends a journal record through `append` when the run journals,
    /// recording the call's latency into `als_journal_append_us`.
    pub fn timed_append(
        &mut self,
        append: impl FnOnce(&mut JournalWriter) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let Some(w) = self.journal.as_mut() else {
            return Ok(());
        };
        let latency = &self.ctx.metrics.journal_append_us;
        if !latency.is_enabled() {
            return append(w);
        }
        let t0 = Instant::now();
        let out = append(w);
        latency.observe_duration(t0.elapsed());
        out
    }

    /// Ends the run and builds its result. `phases` is the (comprehensive,
    /// incremental) time split of a dual-phase run; `None` counts the whole
    /// runtime as comprehensive.
    pub fn finish(
        mut self,
        phases: Option<(Duration, Duration)>,
    ) -> Result<FlowResult, EngineError> {
        let stop = match self.tripped.take() {
            Some(reason) => reason,
            None => supervisor::natural_stop(self.iterations.len(), self.cfg.max_lacs),
        };
        // Final group commit: commits of the last iteration have no
        // following checkpoint to ride on, so flush them explicitly. A
        // preempted run then seals the journal with a `Preempt` record —
        // proof for `--resume` (and the operator) that the file ends at a
        // graceful stop, not a crash.
        self.timed_append(|w| w.flush())?;
        if stop.is_preemption() {
            let p = journal::Preempt {
                reason: stop.clone(),
                commit_count: self.iterations.len() as u64,
            };
            self.timed_append(|w| w.append_preempt(&p))?;
        }
        self.ctx.metrics.note_stop(&stop, self.gov.elapsed());
        let runtime = self.ctx.elapsed();
        let (comprehensive_time, incremental_time) = phases.unwrap_or((runtime, Duration::ZERO));
        Ok(FlowResult {
            flow: self.flow.to_string(),
            final_error: self.guard.final_error(&self.ctx),
            error_bound: self.cfg.error_bound,
            iterations: self.iterations,
            runtime,
            step_times: self.ctx.times,
            comprehensive_analyses: self.analyses,
            first_ranking: self.first_ranking,
            error_report: self.ctx.report(),
            comprehensive_time,
            incremental_time,
            guard: self.guard.stats(),
            stop,
            circuit: self.ctx.aig,
        })
    }
}
