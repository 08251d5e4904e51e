//! Shared per-run state, one method per analysis step, and the
//! evaluation/selection/application kernel used by every flow.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use als_aig::{Aig, EditRecord, NodeId};
use als_cpm::{Cpm, FlipSim, RowView};
use als_cuts::CutState;
use als_error::{unsigned_weights, ErrorState, FlipVec, RowDeltas, SparseFlip};
use als_lac::{CandidateConfig, Lac};
use als_obs::{Counter, Histogram, Obs};
use als_par::{SchedConfig, WorkerPool};
use als_sim::{PackedBits, PatternSet, Simulator};

use crate::config::FlowConfig;
use crate::error::EngineError;
use crate::report::StepTimes;

/// A candidate LAC with its evaluated error and area gain.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The candidate change.
    pub lac: Lac,
    /// Estimated total error after applying it.
    pub error_after: f64,
    /// Gates its application removes.
    pub saving: usize,
}

impl Evaluated {
    /// The rank order of the batch flows: smaller error first, then the
    /// larger saving, then the lower target id.
    pub(crate) fn rank_cmp(&self, other: &Evaluated) -> Ordering {
        self.error_after
            .total_cmp(&other.error_after)
            .then(other.saving.cmp(&self.saving))
            .then(self.lac.target.cmp(&other.lac.target))
    }
}

/// Pre-registered metric handles of one flow run. All handles are no-ops
/// when the run's [`Obs`] is disabled; flows update them inline on the hot
/// path without re-consulting the registry.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Full (comprehensive) disjoint-cut recomputations.
    pub cut_recomputes: Counter,
    /// CPC-violating nodes (`|S_v|`) repaired by incremental cut updates.
    pub cpc_violations: Counter,
    /// Per-LAC `|S_v|` distribution (the union over the LAC's records).
    pub s_v_size: Histogram,
    /// Per-round `|S_cand|` distribution.
    pub s_cand_size: Histogram,
    /// Candidate LACs evaluated per analysis (`|S_c|`).
    pub lacs_evaluated: Histogram,
    /// CPM rows built (full and partial computations).
    pub cpm_rows_built: Counter,
    /// Rows a partial CPM avoided rebuilding (live nodes minus closure).
    pub cpm_rows_reused: Counter,
    /// Journal append latency (checkpoints and commits), microseconds.
    pub journal_append_us: Histogram,
    /// Applied LACs (committed iterations).
    pub iterations: Counter,
    /// Incremental phase-two rounds completed.
    pub phase2_rounds: Counter,
    /// Runs that ended by natural convergence.
    pub stop_converged: Counter,
    /// Runs stopped by the `max_lacs` safety cap.
    pub stop_lac_limit: Counter,
    /// Runs preempted by the supervision iteration budget.
    pub stop_iter_limit: Counter,
    /// Runs preempted by the wall-clock deadline.
    pub stop_deadline: Counter,
    /// Runs preempted by external cancellation (API or signal).
    pub stop_cancelled: Counter,
    /// Transient journal-persist failures retried through.
    pub journal_retries: Counter,
    /// Degradation-ladder steps taken (serial mode, frozen resampling).
    pub degradations: Counter,
    /// Wall-clock time from run start to preemption, microseconds
    /// (observed only for preempted runs).
    pub time_to_preempt_us: Histogram,
}

impl EngineMetrics {
    /// Registers every engine metric on `obs` (no-op handles when
    /// disabled).
    pub fn register(obs: &Obs) -> EngineMetrics {
        EngineMetrics {
            cut_recomputes: obs
                .counter("als_cut_recomputations_total", "full disjoint-cut recomputations"),
            cpc_violations: obs.counter(
                "als_cpc_violations_total",
                "CPC-violating nodes repaired by incremental cut updates, |S_v| per applied LAC",
            ),
            s_v_size: obs.histogram("als_s_v_size", "CPC-violating set size |S_v| per applied LAC"),
            s_cand_size: obs
                .histogram("als_s_cand_size", "candidate node set size |S_cand| per round"),
            lacs_evaluated: obs
                .histogram("als_lacs_evaluated", "candidate LACs evaluated per analysis"),
            cpm_rows_built: obs
                .counter("als_cpm_rows_built_total", "CPM rows built (full + partial)"),
            cpm_rows_reused: obs.counter(
                "als_cpm_rows_reused_total",
                "rows a partial CPM avoided rebuilding (live nodes minus closure)",
            ),
            journal_append_us: obs
                .histogram("als_journal_append_us", "journal append latency (us)"),
            iterations: obs.counter("als_iterations_total", "applied LACs (committed iterations)"),
            phase2_rounds: obs
                .counter("als_phase2_rounds_total", "incremental phase-two rounds completed"),
            stop_converged: obs
                .counter("als_stop_converged_total", "runs ended by natural convergence"),
            stop_lac_limit: obs
                .counter("als_stop_lac_limit_total", "runs stopped by the max_lacs safety cap"),
            stop_iter_limit: obs.counter(
                "als_stop_iter_limit_total",
                "runs preempted by the supervision iteration budget",
            ),
            stop_deadline: obs
                .counter("als_stop_deadline_total", "runs preempted by the wall-clock deadline"),
            stop_cancelled: obs.counter(
                "als_stop_cancelled_total",
                "runs preempted by external cancellation (API or signal)",
            ),
            journal_retries: obs.counter(
                "als_journal_retries_total",
                "transient journal-persist failures retried through",
            ),
            degradations: obs.counter(
                "als_degradations_total",
                "degradation-ladder steps taken (serial mode, frozen resampling)",
            ),
            time_to_preempt_us: obs.histogram(
                "als_time_to_preempt_us",
                "wall-clock time from run start to preemption (us)",
            ),
        }
    }

    /// Records how a run ended: one stop-reason counter, plus the
    /// time-to-preempt histogram when the run was preempted.
    pub fn note_stop(&self, stop: &crate::StopReason, elapsed: Duration) {
        use crate::StopReason;
        match stop {
            StopReason::Converged => self.stop_converged.inc(),
            StopReason::LacLimit { .. } => self.stop_lac_limit.inc(),
            StopReason::IterLimit { .. } => self.stop_iter_limit.inc(),
            StopReason::Deadline { .. } => self.stop_deadline.inc(),
            StopReason::Cancelled => self.stop_cancelled.inc(),
        }
        if stop.is_preemption() {
            self.time_to_preempt_us.observe(elapsed.as_micros() as u64);
        }
    }
}

/// Mutable state of one flow run: the working circuit, its simulation,
/// the cached error state and timing accumulators.
pub struct Ctx {
    /// Working approximate circuit.
    pub aig: Aig,
    /// Monte-Carlo stimuli (fixed for the whole run).
    pub patterns: PatternSet,
    /// Node values of the working circuit.
    pub sim: Simulator,
    /// Cached error state against the golden outputs.
    pub state: ErrorState,
    /// Current topological ranks of the working circuit.
    pub ranks: Vec<u32>,
    /// Reusable flip-simulation scratch.
    pub flipsim: FlipSim,
    /// Per-step timing accumulators.
    pub times: StepTimes,
    /// Pre-registered metric handles (no-ops when observability is off).
    pub metrics: EngineMetrics,
    /// Observability handle of this run.
    obs: Obs,
    /// Shared worker pool for every parallel analysis region.
    pool: WorkerPool,
    /// Reusable output-value buffers for error-state refreshes.
    outs: Vec<PackedBits>,
    /// Fold constants after each applied LAC.
    fold_constants: bool,
    #[cfg(feature = "fault-inject")]
    faults: crate::faultplan::FaultPlan,
    started: Instant,
}

impl Ctx {
    /// Initialises a run on a copy of `original`.
    pub fn new(original: &Aig, cfg: &FlowConfig) -> Ctx {
        let aig = original.clone();
        // The pattern count need not be a multiple of 64: the tail lanes of
        // the last word are masked at the `PatternSet` boundary and the
        // error state accumulates only the logical `cfg.num_patterns` bits.
        let patterns = match cfg.patterns_from {
            crate::config::PatternSource::Uniform => {
                PatternSet::random(aig.num_inputs(), cfg.pattern_words(), cfg.seed)
            }
            crate::config::PatternSource::Biased(density) => {
                PatternSet::biased(aig.num_inputs(), cfg.pattern_words(), cfg.seed, density)
            }
        }
        .with_pattern_count(cfg.num_patterns);
        let pool = WorkerPool::with_config(cfg.threads, cfg.sched.clone()).with_obs(&cfg.obs);
        let sim = Simulator::new_with(&aig, &patterns, &pool);
        let golden: Vec<PackedBits> =
            (0..aig.num_outputs()).map(|o| sim.output_value(&aig, o)).collect();
        let weights = cfg.weights.clone().unwrap_or_else(|| unsigned_weights(aig.num_outputs()));
        let state = ErrorState::with_pattern_count(
            cfg.metric,
            weights,
            golden.clone(),
            &golden,
            cfg.num_patterns,
        );
        let ranks = als_aig::topo::topo_ranks(&aig);
        let flipsim = FlipSim::new(aig.num_nodes(), patterns.num_words());
        Ctx {
            aig,
            patterns,
            sim,
            state,
            ranks,
            flipsim,
            times: StepTimes::default(),
            metrics: EngineMetrics::register(&cfg.obs),
            obs: cfg.obs.clone(),
            pool,
            outs: Vec::new(),
            fold_constants: cfg.fold_constants,
            #[cfg(feature = "fault-inject")]
            faults: cfg.faults.clone(),
            started: Instant::now(),
        }
    }

    /// The worker pool every parallel analysis region of this run shares
    /// (disjoint cuts, CPM waves, simulation waves, LAC evaluation).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Degradation ladder: replaces the shared pool with a serial one.
    /// Returns whether anything changed (already-serial runs have no rung
    /// left here). Safe at any point of a run — results are byte-identical
    /// at every thread count — so repeated guard fallbacks can trade speed
    /// for the simplest possible execution instead of aborting.
    pub fn degrade_to_serial(&mut self) -> bool {
        if self.pool.threads() <= 1 {
            return false;
        }
        // A 1-thread pool never consults its scheduling mode.
        self.pool = WorkerPool::with_config(1, SchedConfig::default()).with_obs(&self.obs);
        true
    }

    /// The observability handle of this run (disabled unless the
    /// configuration attached one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current measured error of the working circuit.
    pub fn error(&self) -> f64 {
        self.state.error()
    }

    /// Full statistical error report of the working circuit.
    pub fn report(&self) -> als_error::ErrorReport {
        als_error::ErrorReport::from_state(&self.state)
    }

    /// Elapsed wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Current output values of the working circuit.
    pub fn output_values(&self) -> Vec<PackedBits> {
        (0..self.aig.num_outputs()).map(|o| self.sim.output_value(&self.aig, o)).collect()
    }

    /// Refreshes the error state from the current output values, reusing
    /// the context's output buffers instead of allocating per call.
    fn refresh_error_state(&mut self) {
        let num_outputs = self.aig.num_outputs();
        let num_words = self.sim.num_words();
        self.outs.resize_with(num_outputs, || PackedBits::zeros(num_words));
        for (o, out) in self.outs.iter_mut().enumerate() {
            self.sim.output_value_into(&self.aig, o, out);
        }
        self.state.refresh(&self.outs);
    }

    /// Step 1, comprehensive: the closest disjoint cuts of every node,
    /// computed from scratch.
    pub(crate) fn full_cuts(&mut self) -> Result<CutState, EngineError> {
        let mut span = self.obs.span("cuts");
        span.count("nodes", self.aig.num_ands() as u64);
        let cuts = CutState::compute_with(&self.aig, &self.pool)?;
        self.times.cuts += span.finish();
        self.metrics.cut_recomputes.inc();
        Ok(cuts)
    }

    /// Step 1, incremental: refreshes `cuts` after one applied LAC, only
    /// for the CPC-violating set `S_v` of its edit `records`.
    pub(crate) fn update_cuts(&mut self, cuts: &mut CutState, records: &[EditRecord]) {
        let mut span = self.obs.span("cuts");
        cuts.update_after_edits(&self.aig, records);
        let s_v = cuts.last_update_size() as u64;
        span.count("s_v", s_v);
        self.times.cuts += span.finish();
        self.metrics.s_v_size.observe(s_v);
        self.metrics.cpc_violations.add(s_v);
    }

    /// Cross-checks `sample` nodes of the incrementally maintained `cuts`
    /// against ground truth; the check counts as step 1.
    pub(crate) fn spot_check_cuts(
        &mut self,
        cuts: &CutState,
        sample: usize,
        salt: u64,
    ) -> Result<(), String> {
        let mut span = self.obs.span("cuts");
        span.count("spot_check", 1);
        let verdict = cuts.spot_check(&self.aig, sample, salt);
        self.times.cuts += span.finish();
        verdict
    }

    /// Step 2, comprehensive: the full CPM over `cuts`.
    pub(crate) fn full_cpm(&mut self, cuts: &CutState) -> Result<Cpm, EngineError> {
        let mut span = self.obs.span("cpm");
        let cpm = als_cpm::compute_full_with(&self.aig, &self.sim, cuts, &self.pool)?;
        span.count("rows", cpm.num_rows() as u64);
        self.times.cpm += span.finish();
        self.metrics.cpm_rows_built.add(cpm.num_rows() as u64);
        Ok(cpm)
    }

    /// Step 2, incremental: the CPM rows of the closure `N(S_cand)` only.
    pub(crate) fn partial_cpm(
        &mut self,
        cuts: &CutState,
        s_cand: &[NodeId],
    ) -> Result<Cpm, EngineError> {
        let mut span = self.obs.span("cpm");
        let (cpm, closure) =
            als_cpm::compute_partial_with(&self.aig, &self.sim, cuts, s_cand, &self.pool)?;
        span.count("rows", cpm.num_rows() as u64);
        span.count("closure", closure as u64);
        self.times.cpm += span.finish();
        self.metrics.cpm_rows_built.add(cpm.num_rows() as u64);
        self.metrics
            .cpm_rows_reused
            .add((self.aig.num_ands() as u64).saturating_sub(closure as u64));
        Ok(cpm)
    }

    /// Step 2 without step 1 (VECBEE `l = 1`): the approximate CPM built
    /// from direct fanouts only.
    pub(crate) fn depth_one_cpm(&mut self) -> Cpm {
        let mut span = self.obs.span("cpm");
        let cpm = als_cpm::compute_depth_one(&self.aig, &self.sim);
        span.count("rows", cpm.num_rows() as u64);
        self.times.cpm += span.finish();
        self.metrics.cpm_rows_built.add(cpm.num_rows() as u64);
        cpm
    }

    /// The candidate LACs of step 3 at `targets` (every gate when `None`).
    /// Generation has its own `generate` span, but its time still counts
    /// as step 3 in [`StepTimes::eval`].
    pub(crate) fn generate(
        &mut self,
        lac: &CandidateConfig,
        targets: Option<&[NodeId]>,
    ) -> Vec<Lac> {
        let span = self.obs.span("generate");
        let lacs = als_lac::generate(&self.aig, &self.sim, lac, targets);
        self.times.eval += span.finish();
        lacs
    }

    /// Evaluates candidate LACs against the CPM, in parallel when the
    /// configuration asked for worker threads (the paper's multi-threaded
    /// error estimation). Candidates without a CPM row (unreachable
    /// targets) are skipped. Result order is the input order, regardless
    /// of the thread count.
    ///
    /// Work is per target: candidates are grouped by target in
    /// first-appearance order and the pool maps over the targets. Each
    /// target builds its [`RowDeltas`] table once from its CPM row, and
    /// each LAC at it costs one masked sum over `D ∧ U`
    /// ([`ErrorState::error_with`]) — bit-identical to materialising the
    /// flip vectors and calling [`ErrorState::eval_flips`]. The area
    /// saving is also computed once per target.
    ///
    /// `ALS_SIMD=0` (see [`als_sim::kernel::simd_enabled`]) prices every
    /// candidate with that materialising reference instead, inside the
    /// same per-target loop. It shares no code with the table and
    /// allocates per candidate, so it serves as the end-to-end oracle.
    pub fn evaluate_lacs(
        &mut self,
        cpm: &Cpm,
        lacs: &[Lac],
    ) -> Result<Vec<Evaluated>, EngineError> {
        let mut span = self.obs.span("eval");
        span.count("lacs", lacs.len() as u64);
        self.metrics.lacs_evaluated.observe(lacs.len() as u64);
        let (aig, sim, state) = (&self.aig, &self.sim, &self.state);
        let num_words = sim.num_words();

        // Candidate indices per target with a CPM row, targets in order of
        // first appearance.
        let mut group_of: HashMap<NodeId, Option<usize>> = HashMap::new();
        let mut groups: Vec<(NodeId, RowView<'_>, Vec<usize>)> = Vec::new();
        for (i, lac) in lacs.iter().enumerate() {
            let group = *group_of.entry(lac.target).or_insert_with(|| {
                let row = cpm.row(lac.target)?;
                groups.push((lac.target, row, Vec::new()));
                Some(groups.len() - 1)
            });
            if let Some(g) = group {
                groups[g].2.push(i);
            }
        }
        span.count("targets", groups.len() as u64);

        // One table, change-vector buffer and entry list per worker per
        // call (the entry views borrow `cpm`).
        let reference = !als_sim::kernel::simd_enabled();
        #[cfg(feature = "fault-inject")]
        let faults = &self.faults;
        let out = self
            .pool
            .map(
                &self.pool.region("eval", num_words as u64),
                &groups,
                || (RowDeltas::default(), PackedBits::zeros(num_words), Vec::new()),
                |(table, d, flips), (target, row, members)| {
                    if !reference {
                        flips.clear();
                        flips.extend(
                            row.iter().map(|(o, bits)| SparseFlip { output: o as usize, bits }),
                        );
                        state.row_deltas_into(flips, table);
                    }
                    let saving = als_lac::area_saving(aig, *target);
                    let evals: Vec<Evaluated> = members
                        .iter()
                        .map(|&i| {
                            #[cfg(feature = "fault-inject")]
                            faults.tick_eval_item();
                            lacs[i].change_vector_into(sim, d);
                            let error_after = if reference {
                                let dense: Vec<FlipVec> = row
                                    .iter()
                                    .filter_map(|(o, p)| {
                                        let bits = p.and(d);
                                        (!bits.is_zero())
                                            .then_some(FlipVec { output: o as usize, bits })
                                    })
                                    .collect();
                                state.eval_flips(&dense)
                            } else {
                                state.error_with(d, table)
                            };
                            Evaluated { lac: lacs[i], error_after, saving }
                        })
                        .collect();
                    Ok(evals)
                },
            )
            .map(|per_target: Vec<Vec<Evaluated>>| {
                // Scatter back into input order.
                let mut slots: Vec<Option<Evaluated>> = vec![None; lacs.len()];
                for ((_, _, members), evals) in groups.iter().zip(per_target) {
                    for (&i, e) in members.iter().zip(evals) {
                        slots[i] = Some(e);
                    }
                }
                slots.into_iter().flatten().collect()
            });
        self.times.eval += span.finish();
        out
    }

    /// Exact error a LAC would cause, via full fanout-cone resimulation —
    /// used to validate candidates chosen from approximate estimates. The
    /// validation counts as step 3.
    pub fn exact_error_of(&mut self, lac: &Lac) -> f64 {
        let span = self.obs.span("eval");
        let row =
            als_cpm::exact_row(&self.aig, &self.sim, &self.ranks, &mut self.flipsim, lac.target);
        let d = lac.change_vector(&self.sim);
        let error = if d.is_zero() {
            self.state.error()
        } else {
            let flips: Vec<FlipVec> = row
                .into_iter()
                .filter_map(|(o, p)| {
                    let bits = d.and(&p);
                    (!bits.is_zero()).then_some(FlipVec { output: o as usize, bits })
                })
                .collect();
            self.state.eval_flips(&flips)
        };
        self.times.eval += span.finish();
        error
    }

    /// Picks the best applicable candidate: smallest error, ties broken by
    /// larger area saving, then deterministic LAC identity.
    pub fn select_best(evals: &[Evaluated], bound: f64) -> Option<Evaluated> {
        evals
            .iter()
            .filter(|e| e.error_after <= bound)
            .min_by(|a, b| {
                a.error_after
                    .total_cmp(&b.error_after)
                    .then(b.saving.cmp(&a.saving))
                    .then(a.lac.target.cmp(&b.lac.target))
                    .then(a.lac.replacement().raw().cmp(&b.lac.replacement().raw()))
            })
            .cloned()
    }

    /// Picks the best applicable candidate under the configured
    /// [`SelectionStrategy`](crate::config::SelectionStrategy).
    /// `current_error` is the circuit error before
    /// the candidate would be applied (used by the gain/cost criterion).
    pub fn select(
        evals: &[Evaluated],
        bound: f64,
        strategy: crate::config::SelectionStrategy,
        current_error: f64,
    ) -> Option<Evaluated> {
        use crate::config::SelectionStrategy;
        match strategy {
            SelectionStrategy::MinError => Ctx::select_best(evals, bound),
            SelectionStrategy::MaxGainPerError => evals
                .iter()
                .filter(|e| e.error_after <= bound)
                .max_by(|a, b| {
                    let score = |e: &Evaluated| {
                        let inc = (e.error_after - current_error).max(1e-12);
                        e.saving as f64 / inc
                    };
                    score(a)
                        .total_cmp(&score(b))
                        .then(b.error_after.total_cmp(&a.error_after))
                        .then(b.lac.target.cmp(&a.lac.target))
                        .then(b.lac.replacement().raw().cmp(&a.lac.replacement().raw()))
                })
                .cloned(),
        }
    }

    /// Applies a LAC and refreshes simulation values, the error state and
    /// topological ranks. When constant folding is enabled, trivially
    /// foldable gates left behind by the change are removed as well (an
    /// exact transformation — simulated values are untouched). Returns all
    /// edit records, LAC first, for incremental consumers.
    pub fn apply(&mut self, lac: &Lac) -> Vec<EditRecord> {
        let mut span = self.obs.span("apply");
        let rec = lac.apply(&mut self.aig);
        self.sim.resimulate_fanout_cone_with(&self.aig, &[rec.replacement.node()], &self.pool);
        let seed = rec.replacement.node();
        let mut records = vec![rec];
        if self.fold_constants {
            records.extend(als_aig::simplify::propagate_constants_from(&mut self.aig, &[seed]));
        }
        self.refresh_error_state();
        self.ranks = als_aig::topo::topo_ranks(&self.aig);
        span.count("edits", records.len() as u64);
        span.count("nodes", self.aig.num_ands() as u64);
        self.times.apply += span.finish();
        records
    }

    /// Applies a LAC *inside a transaction* on the working circuit:
    /// identical to [`Ctx::apply`], but the graph mutations are journaled
    /// so the application can be undone. Pair with [`Ctx::commit_txn`]
    /// once the result is accepted or [`Ctx::rollback`] to discard it.
    pub fn apply_txn(&mut self, lac: &Lac) -> Vec<EditRecord> {
        self.aig.begin_txn();
        self.apply(lac)
    }

    /// Commits the transaction opened by [`Ctx::apply_txn`].
    pub fn commit_txn(&mut self) {
        self.aig.commit_txn();
    }

    /// Rolls back the transaction opened by [`Ctx::apply_txn`] and
    /// restores the simulation values, error state and topological ranks
    /// to their pre-application values. `records` must be the edit records
    /// that [`Ctx::apply_txn`] returned.
    ///
    /// Cost is proportional to the edit's fanout cones, not the graph: the
    /// journal undoes the structural changes, then the cones of each
    /// record's target and replacement are resimulated (those two seeds
    /// cover every node either application path touched, because the
    /// replacement inherits the target's fanouts during `replace` and
    /// returns them on rollback).
    pub fn rollback(&mut self, records: &[EditRecord]) {
        let mut span = self.obs.span("apply");
        span.count("rollback", 1);
        self.aig.rollback_txn();
        let mut seeds: Vec<NodeId> = Vec::new();
        for rec in records {
            seeds.push(rec.target);
            seeds.push(rec.replacement.node());
        }
        seeds.retain(|&n| self.aig.is_live(n));
        seeds.sort_unstable();
        seeds.dedup();
        self.sim.resimulate_fanout_cone_with(&self.aig, &seeds, &self.pool);
        self.refresh_error_state();
        self.ranks = als_aig::topo::topo_ranks(&self.aig);
        self.times.apply += span.finish();
    }

    /// Ranks target nodes by their best (smallest) evaluated error — the
    /// paper's `E(n)` ordering used to build `S_cand` and Fig. 4.
    pub fn rank_targets(evals: &[Evaluated]) -> Vec<NodeId> {
        let mut best: HashMap<NodeId, f64> = HashMap::new();
        for e in evals {
            best.entry(e.lac.target)
                .and_modify(|v| *v = v.min(e.error_after))
                .or_insert(e.error_after);
        }
        let mut nodes: Vec<(NodeId, f64)> = best.into_iter().collect();
        nodes.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        nodes.into_iter().map(|(n, _)| n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn small() -> Aig {
        als_circuits_test_stub()
    }

    // a tiny local circuit builder to avoid a dev-dependency cycle
    fn als_circuits_test_stub() -> Aig {
        let mut aig = Aig::new("t");
        let x = aig.add_inputs("x", 6);
        let g1 = aig.and(x[0], x[1]);
        let g2 = aig.and(g1, x[2]);
        let g3 = aig.and(g2, !x[3]);
        let g4 = aig.and(x[4], x[5]);
        let g5 = aig.and(g3, g4);
        aig.add_output(g5, "o0");
        aig.add_output(g2, "o1");
        aig
    }

    fn cfg() -> FlowConfig {
        FlowConfig::new(MetricKind::Med, 1.0).with_patterns(512)
    }

    #[test]
    fn fresh_context_has_zero_error() {
        let aig = small();
        let ctx = Ctx::new(&aig, &cfg());
        assert_eq!(ctx.error(), 0.0);
    }

    #[test]
    fn exact_cpm_estimate_matches_measured_error() {
        let aig = small();
        let mut ctx = Ctx::new(&aig, &cfg());
        let cuts = CutState::compute(&ctx.aig);
        let cpm = als_cpm::compute_full(&ctx.aig, &ctx.sim, &cuts).unwrap();
        let lacs = als_lac::constant_lacs(&ctx.aig, None);
        let evals = ctx.evaluate_lacs(&cpm, &lacs).unwrap();
        assert_eq!(evals.len(), lacs.len());
        for e in &evals {
            // exact-row evaluation must agree with the cut-based CPM
            let exact = ctx.exact_error_of(&e.lac);
            assert!(
                (e.error_after - exact).abs() < 1e-9,
                "{:?}: cpm {} vs exact {}",
                e.lac,
                e.error_after,
                exact
            );
        }
        // and applying the best must reproduce its estimate
        let best = Ctx::select_best(&evals, f64::INFINITY).unwrap();
        ctx.apply(&best.lac);
        assert!(
            (ctx.error() - best.error_after).abs() < 1e-9,
            "measured {} vs estimated {}",
            ctx.error(),
            best.error_after
        );
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let aig = small();
        let mut serial_ctx = Ctx::new(&aig, &cfg());
        let mut par_cfg = cfg();
        par_cfg.threads = 4;
        let mut par_ctx = Ctx::new(&aig, &par_cfg);
        let cuts = CutState::compute(&serial_ctx.aig);
        let cpm = als_cpm::compute_full(&serial_ctx.aig, &serial_ctx.sim, &cuts).unwrap();
        let lacs = als_lac::constant_lacs(&serial_ctx.aig, None);
        let a = serial_ctx.evaluate_lacs(&cpm, &lacs).unwrap();
        let b = par_ctx.evaluate_lacs(&cpm, &lacs).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.lac, y.lac);
            assert_eq!(x.error_after, y.error_after);
            assert_eq!(x.saving, y.saving);
        }
    }

    #[test]
    fn select_best_prefers_small_error_then_saving() {
        let l1 = Lac::const0(NodeId(7));
        let l2 = Lac::const0(NodeId(8));
        let l3 = Lac::const1(NodeId(9));
        let evals = vec![
            Evaluated { lac: l1, error_after: 0.5, saving: 1 },
            Evaluated { lac: l2, error_after: 0.25, saving: 1 },
            Evaluated { lac: l3, error_after: 0.25, saving: 5 },
        ];
        let best = Ctx::select_best(&evals, 1.0).unwrap();
        assert_eq!(best.lac, l3);
        assert!(Ctx::select_best(&evals, 0.1).is_none());
    }

    #[test]
    fn gain_per_error_strategy_prefers_big_savings() {
        use crate::config::SelectionStrategy;
        let cheap = Evaluated { lac: Lac::const0(NodeId(1)), error_after: 0.1, saving: 1 };
        let bulky = Evaluated { lac: Lac::const0(NodeId(2)), error_after: 0.2, saving: 10 };
        let evals = vec![cheap.clone(), bulky.clone()];
        // MinError picks the cheap one…
        let a = Ctx::select(&evals, 1.0, SelectionStrategy::MinError, 0.0).unwrap();
        assert_eq!(a.lac, cheap.lac);
        // …gain/cost picks the bulky one (10/0.2 = 50 > 1/0.1 = 10)
        let b = Ctx::select(&evals, 1.0, SelectionStrategy::MaxGainPerError, 0.0).unwrap();
        assert_eq!(b.lac, bulky.lac);
        // both respect the bound
        assert!(Ctx::select(&evals, 0.05, SelectionStrategy::MaxGainPerError, 0.0).is_none());
    }

    #[test]
    fn rank_targets_orders_by_best_error() {
        let evals = vec![
            Evaluated { lac: Lac::const0(NodeId(1)), error_after: 0.9, saving: 1 },
            Evaluated { lac: Lac::const1(NodeId(1)), error_after: 0.2, saving: 1 },
            Evaluated { lac: Lac::const0(NodeId(2)), error_after: 0.5, saving: 1 },
        ];
        assert_eq!(Ctx::rank_targets(&evals), vec![NodeId(1), NodeId(2)]);
    }
}
