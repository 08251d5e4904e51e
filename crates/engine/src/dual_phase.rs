//! The dual-phase iterative framework (DP) and its self-adapting variant
//! (DP-SA) — the paper's contribution.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use als_aig::{Aig, NodeId};
use als_cuts::CutState;

use crate::config::FlowConfig;
use crate::context::Ctx;
use crate::error::EngineError;
use crate::flow::Flow;
use crate::guard::BudgetGuard;
use crate::journal::{self, JournalWriter};
use crate::report::{FlowResult, IterationRecord, Phase};
use crate::supervisor::{self, RunGovernor, StopReason};

/// Degradation ladder, upper rungs. Repeated incremental-state fallbacks
/// mean this run keeps catching its own analysis state out of sync —
/// rather than aborting, trade speed for the simplest execution: after
/// the 2nd fallback drop to a serial pool (byte-identical results, no
/// concurrent mutation anywhere near the failure), after the 3rd freeze
/// strict-mode validation resampling. Driven by the *cumulative* fallback
/// count, which rides in the journaled guard snapshot, so a resumed run
/// re-derives exactly the degradations the original run had applied.
fn apply_degradation(ctx: &mut Ctx, guard: &mut BudgetGuard, fallbacks: usize) {
    if fallbacks >= 2 && ctx.degrade_to_serial() {
        ctx.metrics.degradations.inc();
    }
    if fallbacks >= 3 && guard.reduce_resampling() {
        ctx.metrics.degradations.inc();
    }
}

/// The dual-phase flow.
///
/// Each *dual-phase iteration* runs:
///
/// 1. **Phase one — comprehensive analysis.** Full disjoint cuts, full CPM
///    and evaluation of every candidate LAC. The best LAC is applied and
///    the `M` target nodes with the smallest error increase become the
///    candidate set `S_cand`.
/// 2. **Phase two — up to `N` incremental rounds.** After each applied LAC
///    the disjoint cuts are refreshed only for the CPC-violating set
///    `S_v`, the CPM only for the closure `N(S_cand)`, and only LACs
///    targeting `S_cand` are evaluated. Replaced nodes and their MFFCs
///    leave `S_cand`.
///
/// With [`DualPhaseFlow::with_self_adaption`] the flow additionally tunes
/// `M` (and the per-target LAC budget) from the dominating analysis step
/// of the previous dual phase, and stops phase two early when relative
/// error increases pass the `e_t` threshold in the `b_r`/`b_s` bound
/// regions — the paper's DP-SA.
#[derive(Clone, Debug)]
pub struct DualPhaseFlow {
    cfg: FlowConfig,
    self_adapt: bool,
}

impl DualPhaseFlow {
    /// DP: fixed parameters, no self-adaption.
    pub fn new(cfg: FlowConfig) -> DualPhaseFlow {
        DualPhaseFlow { cfg, self_adapt: false }
    }

    /// DP-SA: with parameter tuning and adaptive phase-two stopping.
    pub fn with_self_adaption(cfg: FlowConfig) -> DualPhaseFlow {
        DualPhaseFlow { cfg, self_adapt: true }
    }

    /// Whether self-adaption is enabled.
    pub fn is_self_adapting(&self) -> bool {
        self.self_adapt
    }
}

/// Relative error increase with a guard for a zero starting error.
fn relative_increase(e_inc: f64, e0: f64) -> f64 {
    if e0 > 0.0 {
        e_inc / e0
    } else if e_inc > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Appends a journal record through `append`, recording the call's latency
/// into the run's `als_journal_append_us` histogram when enabled.
fn timed_append<E>(
    latency: &als_obs::Histogram,
    append: impl FnOnce() -> Result<(), E>,
) -> Result<(), E> {
    if !latency.is_enabled() {
        return append();
    }
    let t0 = Instant::now();
    let out = append();
    latency.observe_duration(t0.elapsed());
    out
}

impl Flow for DualPhaseFlow {
    fn name(&self) -> &str {
        if self.self_adapt {
            "DP-SA"
        } else {
            "DP"
        }
    }

    fn supports_journal(&self) -> bool {
        true
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        als_aig::check::check(original).map_err(EngineError::InvalidInput)?;
        let cfg = &self.cfg;
        let bound = cfg.error_bound;
        let mut ctx = Ctx::new(original, cfg);
        let _flow_span = ctx.obs().span("flow");
        let mut guard = BudgetGuard::new(original, cfg);
        let mut iterations = Vec::new();
        let mut first_ranking = Vec::new();
        let mut analyses = 0usize;

        // Tunable parameters (self-adaption mutates them between dual
        // phases).
        let mut m = cfg.m;
        let mut n_limit = cfg.n;
        let mut lac_cfg = cfg.lac.clone();
        let mut comp_time = Duration::ZERO;
        let mut inc_time = Duration::ZERO;
        // Degradation-ladder bookkeeping: total phase-two rounds across the
        // run (drives the spot-check salt and the corruption test hook),
        // and the spot-check failure that forced the current comprehensive
        // fallback, if any.
        let mut total_rounds = 0usize;
        let mut fallback_pending: Option<String> = None;

        // ---------------- run supervision --------------------------------
        // The governor is polled at every iteration, round and eval-batch
        // boundary; a trip records the reason and unwinds to the graceful
        // end of the run (flush + Preempt record + best-so-far result).
        let gov = RunGovernor::new(&cfg.supervise);
        let mut tripped: Option<StopReason> = None;
        #[cfg(feature = "fault-inject")]
        let mut gov = gov;
        // Test-only hold window (see `HOLD_AT_CHECKPOINT_ENV`).
        let hold_at = supervisor::hold_at_checkpoint();
        let mut checkpoints_written = 0usize;

        // ---------------- crash-safe run journal -------------------------
        // Fresh runs start a new journal; resumes replay the journaled
        // edit log onto the original circuit (cross-checking every edit
        // record and error value bit-exactly), restore the loop state of
        // the last checkpoint and re-execute the iteration that was in
        // flight when the run died — determinism makes the re-execution
        // reproduce it exactly.
        let mut journal: Option<JournalWriter> = None;
        if let Some(jc) = &cfg.journal {
            let head = journal::JournalHeader {
                flow: self.name().to_string(),
                config_hash: journal::config_fingerprint(cfg, self.name()),
                circuit_hash: journal::circuit_fingerprint(original),
            };
            let writer = if jc.resume {
                let loaded = journal::load(&jc.path)?;
                loaded.check_header(&head)?;
                // Contradictory supervision limits only become visible
                // once the journal is in hand: an iteration budget at or
                // below the journaled commit count could never admit a
                // single new LAC — the resumed run would stop (or
                // re-preempt) immediately while claiming to have honoured
                // a limit the original run never had. Reject it as a
                // typed configuration error instead.
                if let Some(limit) = cfg.supervise.max_iters {
                    let journaled = loaded
                        .records
                        .iter()
                        .filter(|r| matches!(r, journal::Record::Commit(_)))
                        .count();
                    if journaled > 0 && limit <= journaled {
                        return Err(crate::config::ConfigError::ResumeIterBudget {
                            journaled,
                            limit,
                        }
                        .into());
                    }
                }
                if let Some((idx, cp)) = loaded.last_checkpoint() {
                    for c in loaded.commits_before(idx) {
                        if c.index != iterations.len() as u64 {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "commit records out of order: found index {} where {} was \
                                     expected",
                                    c.index,
                                    iterations.len()
                                ),
                            });
                        }
                        let edits = ctx.apply(&c.lac);
                        if edits != c.edits {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "replay of commit {} diverged from the journaled edit records",
                                    c.index
                                ),
                            });
                        }
                        if ctx.error().to_bits() != c.cum_error.to_bits() {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "replayed error {} of commit {} does not match journaled {}",
                                    ctx.error(),
                                    c.index,
                                    c.cum_error
                                ),
                            });
                        }
                        iterations.push(c.iteration_record());
                    }
                    if iterations.len() as u64 != cp.commit_count {
                        return Err(EngineError::Journal {
                            detail: format!(
                                "checkpoint expects {} commits but the journal holds {}",
                                cp.commit_count,
                                iterations.len()
                            ),
                        });
                    }
                    if ctx.error().to_bits() != cp.cum_error.to_bits() {
                        return Err(EngineError::Journal {
                            detail: format!(
                                "replayed error {} does not match checkpointed {}",
                                ctx.error(),
                                cp.cum_error
                            ),
                        });
                    }
                    m = cp.m as usize;
                    n_limit = cp.n_limit as usize;
                    lac_cfg.max_subs_per_target = cp.max_subs_per_target as usize;
                    total_rounds = cp.total_rounds as usize;
                    analyses = cp.analyses as usize;
                    fallback_pending = cp.fallback_pending.clone();
                    first_ranking = cp.first_ranking.iter().map(|&n| NodeId(n)).collect();
                    guard.restore(&cp.guard);
                    // Re-derive the degradation ladder from the journaled
                    // fallback count so the resumed run executes under the
                    // same regime the original had degraded into.
                    apply_degradation(&mut ctx, &mut guard, cp.guard.stats.fallbacks);
                    // Seed the writer with the bytes *before* the last
                    // checkpoint: the loop below immediately re-journals an
                    // identical checkpoint (the restored state is
                    // bit-exact), so the resumed journal stays
                    // byte-identical to an uninterrupted one.
                    JournalWriter::resume(&jc.path, loaded.image_before(idx))?
                } else {
                    // Crash before the first checkpoint: nothing to replay.
                    JournalWriter::create(&jc.path, &head)?
                }
            } else {
                JournalWriter::create(&jc.path, &head)?
            };
            let mut writer = writer;
            writer.set_retry_counter(ctx.metrics.journal_retries.clone());
            #[cfg(feature = "fault-inject")]
            writer.set_faults(cfg.faults.clone());
            journal = Some(writer);
        }

        'dual_phase: while iterations.len() < cfg.max_lacs {
            // Iteration boundary: the cheapest place to stop — nothing of
            // this iteration has started yet.
            if let Some(r) = gov.check(iterations.len()) {
                tripped = Some(r);
                break 'dual_phase;
            }
            let _iter_span = ctx.obs().span("iteration");
            if let Some(w) = journal.as_mut() {
                let cp = journal::Checkpoint {
                    commit_count: iterations.len() as u64,
                    cum_error: ctx.error(),
                    m: m as u64,
                    n_limit: n_limit as u64,
                    max_subs_per_target: lac_cfg.max_subs_per_target as u64,
                    total_rounds: total_rounds as u64,
                    analyses: analyses as u64,
                    fallback_pending: fallback_pending.clone(),
                    first_ranking: first_ranking.iter().map(|n| n.0).collect(),
                    guard: guard.snapshot(),
                };
                timed_append(&ctx.metrics.journal_append_us, || w.append_checkpoint(&cp))?;
                checkpoints_written += 1;
                // Test hook: park right after the n-th checkpoint until a
                // cancellation (normally a delivered signal) arrives, so
                // the SIGTERM integration test has a wide deterministic
                // window to land in. Bounded so a lost signal cannot hang
                // a test run forever.
                if hold_at == Some(checkpoints_written) {
                    let parked = Instant::now();
                    while !gov.cancel_requested() && parked.elapsed() < Duration::from_secs(60) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            let times_snapshot = ctx.times;
            let e0 = ctx.error();
            let mut sum_er = 0.0f64;

            // ---------------- Phase one: comprehensive analysis ----------
            let phase1_span = ctx.obs().span("phase1");
            let mut span = ctx.obs().span("cuts");
            span.count("nodes", ctx.aig.num_ands() as u64);
            let mut cuts = CutState::compute_with(&ctx.aig, ctx.pool())?;
            ctx.times.cuts += span.finish();
            ctx.metrics.cut_recomputes.inc();
            // Last rung of the degradation ladder: if this comprehensive
            // analysis is itself a fallback from a failed incremental
            // spot-check, cross-validate the *fresh* state too. A fresh
            // compute that still fails cannot be repaired by recomputing —
            // abort with context.
            if let Some(prev) = fallback_pending.take() {
                #[cfg(feature = "fault-inject")]
                if cfg.faults.take_corrupt_fresh() {
                    cuts.debug_corrupt_cuts();
                }
                if let Err(detail) =
                    cuts.spot_check(&ctx.aig, cfg.guard.spot_check.max(16), total_rounds as u64)
                {
                    return Err(EngineError::CorruptAnalysis {
                        flow: self.name().to_string(),
                        detail: format!("{detail} (falling back from: {prev})"),
                    });
                }
            }
            let mut span = ctx.obs().span("cpm");
            let cpm = als_cpm::compute_full_with(&ctx.aig, &ctx.sim, &cuts, ctx.pool())?;
            span.count("rows", cpm.num_rows() as u64);
            ctx.times.cpm += span.finish();
            ctx.metrics.cpm_rows_built.add(cpm.num_rows() as u64);
            let span = ctx.obs().span("eval");
            let lacs = als_lac::generate(&ctx.aig, &ctx.sim, &lac_cfg, None);
            ctx.times.eval += span.finish();
            // Eval-batch boundary: the comprehensive evaluation is the
            // single most expensive step — don't start it doomed.
            if let Some(r) = gov.check(iterations.len()) {
                comp_time += phase1_span.finish();
                tripped = Some(r);
                break 'dual_phase;
            }
            let evals = ctx.evaluate_lacs(&cpm, &lacs)?;
            analyses += 1;
            if first_ranking.is_empty() {
                first_ranking = Ctx::rank_targets(&evals);
            }

            let e_pre = ctx.error();
            let Some(applied) = guard.select_apply(&mut ctx, &evals, cfg.selection)? else {
                comp_time += phase1_span.finish();
                break;
            };
            ctx.metrics.iterations.inc();
            let mut s_cand: Vec<NodeId> = Ctx::rank_targets(&evals).into_iter().take(m).collect();
            ctx.metrics.s_cand_size.observe(s_cand.len() as u64);
            sum_er += relative_increase(applied.eval.error_after - e_pre, e0);
            let recs = applied.records;
            iterations.push(IterationRecord {
                lac: applied.eval.lac,
                error_after: applied.eval.error_after,
                saving: applied.eval.saving,
                nodes_after: ctx.aig.num_ands(),
                phase: Phase::Comprehensive,
                rollbacks: applied.rollbacks,
            });
            if let (Some(w), Some(rec)) = (journal.as_mut(), iterations.last()) {
                let c =
                    journal::Commit::new(iterations.len() - 1, rec, &recs, ctx.error(), &ctx.times);
                // Group commit: buffered in memory, made durable by the next
                // checkpoint append (or the end-of-run flush).
                w.append_commit_buffered(&c);
            }
            let removed: HashSet<NodeId> =
                recs.iter().flat_map(|r| r.removed.iter().copied()).collect();
            s_cand.retain(|n| !removed.contains(n));
            let mut span = ctx.obs().span("cuts");
            cuts.update_after_edits(&ctx.aig, &recs);
            let s_v = cuts.last_update_size() as u64;
            ctx.metrics.s_v_size.observe(s_v);
            span.count("s_v", s_v);
            ctx.times.cuts += span.finish();
            ctx.metrics.cpc_violations.add(s_v);
            comp_time += phase1_span.finish();

            // ---------------- Phase two: incremental rounds --------------
            let phase2_span = ctx.obs().span("phase2");
            let mut rounds = 0usize;
            while rounds < n_limit && !s_cand.is_empty() && iterations.len() < cfg.max_lacs {
                // Round boundary.
                if let Some(r) = gov.check(iterations.len()) {
                    tripped = Some(r);
                    break;
                }
                let _round_span = ctx.obs().span("round");
                s_cand.retain(|&n| ctx.aig.is_live(n) && ctx.aig.node(n).is_and());
                if s_cand.is_empty() {
                    break;
                }
                ctx.metrics.s_cand_size.observe(s_cand.len() as u64);
                // Step 2: partial CPM over N(S_cand).
                let mut span = ctx.obs().span("cpm");
                let (pcpm, closure) =
                    als_cpm::compute_partial_with(&ctx.aig, &ctx.sim, &cuts, &s_cand, ctx.pool())?;
                span.count("rows", pcpm.num_rows() as u64);
                span.count("closure", closure as u64);
                ctx.times.cpm += span.finish();
                ctx.metrics.cpm_rows_built.add(pcpm.num_rows() as u64);
                ctx.metrics
                    .cpm_rows_reused
                    .add((ctx.aig.num_ands() as u64).saturating_sub(closure as u64));
                // Step 3: LACs targeting S_cand only.
                let span = ctx.obs().span("eval");
                let lacs = als_lac::generate(&ctx.aig, &ctx.sim, &lac_cfg, Some(&s_cand));
                ctx.times.eval += span.finish();
                // Eval-batch boundary.
                if let Some(r) = gov.check(iterations.len()) {
                    tripped = Some(r);
                    break;
                }
                let evals = ctx.evaluate_lacs(&pcpm, &lacs)?;

                // Guarded selection with the DP-SA adaptive stop woven in:
                // the stop criterion looks at the candidate's *estimate*
                // before it is applied, so it runs inside the retry loop.
                let mut rollbacks = 0usize;
                let outcome = loop {
                    if rollbacks > cfg.guard.max_retries {
                        break None;
                    }
                    let pool = guard.admissible(&evals);
                    let Some(best) = Ctx::select(&pool, bound, cfg.selection, ctx.error()) else {
                        break None;
                    };
                    let e = ctx.error();
                    let e_r = relative_increase(best.error_after - e, e0);
                    if self.self_adapt {
                        let in_relaxed = e > cfg.b_r * bound && e <= cfg.b_s * bound;
                        let in_strict = e > cfg.b_s * bound;
                        if (in_relaxed && e_r > cfg.e_t) || (in_strict && sum_er + e_r > cfg.e_t) {
                            break None;
                        }
                    }
                    match guard.try_apply(&mut ctx, &best)? {
                        Some(recs) => break Some((best, recs, e_r)),
                        None => rollbacks += 1,
                    }
                };
                let Some((best, recs, e_r)) = outcome else {
                    break;
                };
                if self.self_adapt {
                    sum_er += e_r;
                }
                ctx.metrics.iterations.inc();
                iterations.push(IterationRecord {
                    lac: best.lac,
                    error_after: best.error_after,
                    saving: best.saving,
                    nodes_after: ctx.aig.num_ands(),
                    phase: Phase::Incremental,
                    rollbacks,
                });
                if let (Some(w), Some(rec)) = (journal.as_mut(), iterations.last()) {
                    let c = journal::Commit::new(
                        iterations.len() - 1,
                        rec,
                        &recs,
                        ctx.error(),
                        &ctx.times,
                    );
                    w.append_commit_buffered(&c);
                }
                let removed: HashSet<NodeId> =
                    recs.iter().flat_map(|r| r.removed.iter().copied()).collect();
                s_cand.retain(|n| !removed.contains(n));
                // Step 1 (incremental): refresh cuts for S_v only.
                let mut span = ctx.obs().span("cuts");
                cuts.update_after_edits(&ctx.aig, &recs);
                let s_v = cuts.last_update_size() as u64;
                ctx.metrics.s_v_size.observe(s_v);
                span.count("s_v", s_v);
                ctx.times.cuts += span.finish();
                ctx.metrics.cpc_violations.add(s_v);
                rounds += 1;
                total_rounds += 1;
                ctx.metrics.phase2_rounds.inc();

                // Degradation ladder: cross-validate the incrementally
                // maintained state against ground truth on a small node
                // sample. A failure aborts phase two and falls back to a
                // fresh comprehensive analysis instead of continuing on
                // corrupt bookkeeping.
                #[cfg(feature = "fault-inject")]
                if cfg.faults.take_corrupt_at_round(total_rounds) {
                    cuts.debug_corrupt_cuts();
                }
                #[cfg(feature = "fault-inject")]
                if cfg.faults.take_trip_deadline(total_rounds) {
                    gov.force_deadline();
                }
                if cfg.guard.enabled && cfg.guard.spot_check > 0 {
                    als_aig::check::check(&ctx.aig).map_err(|e| EngineError::CorruptCircuit {
                        flow: self.name().to_string(),
                        source: e,
                    })?;
                    let mut span = ctx.obs().span("cuts");
                    span.count("spot_check", 1);
                    let verdict =
                        cuts.spot_check(&ctx.aig, cfg.guard.spot_check, total_rounds as u64);
                    ctx.times.cuts += span.finish();
                    if let Err(detail) = verdict {
                        guard.note_fallback();
                        let fallbacks = guard.stats().fallbacks;
                        apply_degradation(&mut ctx, &mut guard, fallbacks);
                        fallback_pending = Some(detail);
                        break;
                    }
                }
            }
            inc_time += phase2_span.finish();
            if tripped.is_some() {
                // A governor trip inside phase two: the timing accumulators
                // are settled above, now unwind to the graceful end.
                break 'dual_phase;
            }
            if fallback_pending.is_some() {
                // Skip self-adaption this round: its timing signal is
                // polluted by the aborted phase two.
                continue 'dual_phase;
            }

            // ---------------- Self-adaption: parameter tuning ------------
            if self.self_adapt {
                let dp_times = ctx.times.delta_since(&times_snapshot);
                match dp_times.dominating_step() {
                    Some(1) => {
                        // Step 1 dominated: growing M adds phase-two rounds
                        // without adding cut-update work.
                        m = ((m as f64) * (1.0 + cfg.r_inc)).round() as usize;
                    }
                    Some(2) => {
                        // Step 2 dominated: shrink the candidate set to cut
                        // partial-CPM cost.
                        m = (((m as f64) * (1.0 - cfg.r_inc)).round() as usize).max(6);
                    }
                    Some(3) if lac_cfg.substitutions && lac_cfg.max_subs_per_target > 1 => {
                        // Step 3 dominated: fewer LACs per target node.
                        let reduced = ((lac_cfg.max_subs_per_target as f64) * (1.0 - cfg.r_inc))
                            .round() as usize;
                        lac_cfg.max_subs_per_target = reduced.max(1);
                    }
                    _ => {}
                }
                n_limit = (m / 3).max(1);
            }

            if iterations.is_empty() {
                // phase one applied nothing (cannot happen: `best` existed),
                // but guard against pathological configs
                break 'dual_phase;
            }
        }

        let stop = match tripped {
            Some(r) => r,
            None => supervisor::natural_stop(iterations.len(), cfg.max_lacs),
        };

        // Final group commit: commits of the last iteration have no
        // following checkpoint to ride on, so flush them explicitly. A
        // preempted run then seals the journal with a `Preempt` record —
        // proof for `--resume` (and the operator) that the file ends at a
        // graceful stop, not a crash.
        if let Some(w) = journal.as_mut() {
            timed_append(&ctx.metrics.journal_append_us, || w.flush())?;
            if stop.is_preemption() {
                let p = journal::Preempt {
                    reason: stop.clone(),
                    commit_count: iterations.len() as u64,
                };
                timed_append(&ctx.metrics.journal_append_us, || w.append_preempt(&p))?;
            }
        }
        ctx.metrics.note_stop(&stop, gov.elapsed());

        Ok(FlowResult {
            flow: self.name().to_string(),
            final_error: guard.final_error(&ctx),
            error_bound: bound,
            iterations,
            runtime: ctx.elapsed(),
            step_times: ctx.times,
            comprehensive_analyses: analyses,
            first_ranking,
            error_report: ctx.report(),
            comprehensive_time: comp_time,
            incremental_time: inc_time,
            guard: guard.stats(),
            stop,
            circuit: ctx.aig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn adder(width: usize) -> Aig {
        let mut aig = Aig::new("adder");
        let a = aig.add_inputs("a", width);
        let b = aig.add_inputs("b", width);
        let mut carry = als_aig::Lit::FALSE;
        for i in 0..width {
            let (s, c) = aig.full_adder(a[i], b[i], carry);
            aig.add_output(s, format!("s{i}"));
            carry = c;
        }
        aig.add_output(carry, format!("s{width}"));
        aig
    }

    #[test]
    fn dp_respects_bound() {
        let aig = adder(4);
        let cfg = FlowConfig::new(MetricKind::Med, 3.0).with_patterns(1024);
        let res = DualPhaseFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 3.0 + 1e-9, "error {}", res.final_error);
        assert!(res.final_nodes() < aig.num_ands());
        assert_eq!(res.stop, StopReason::Converged, "unlimited run ends naturally");
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn iteration_budget_stops_early_with_best_so_far() {
        let aig = adder(6);
        let cfg = FlowConfig::new(MetricKind::Med, 8.0).with_patterns(1024).with_max_iters(1);
        let res = DualPhaseFlow::new(cfg).run(&aig).unwrap();
        assert_eq!(res.stop, StopReason::IterLimit { limit: 1 });
        assert_eq!(res.lacs_applied(), 1, "stops right after the budgeted LAC");
        assert!(res.final_error <= 8.0 + 1e-9);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn cancelled_token_stops_before_any_work() {
        let aig = adder(4);
        let token = crate::CancelToken::new();
        token.cancel();
        let cfg = FlowConfig::new(MetricKind::Med, 3.0).with_patterns(256).with_cancel_token(token);
        let res = DualPhaseFlow::new(cfg).run(&aig).unwrap();
        assert_eq!(res.stop, StopReason::Cancelled);
        assert_eq!(res.lacs_applied(), 0);
        assert_eq!(res.final_nodes(), aig.num_ands(), "circuit untouched");
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn elapsed_deadline_stops_gracefully() {
        let aig = adder(5);
        let cfg = FlowConfig::new(MetricKind::Med, 4.0)
            .with_patterns(1024)
            .with_timeout(Duration::from_nanos(1));
        let res = DualPhaseFlow::with_self_adaption(cfg).run(&aig).unwrap();
        assert!(matches!(res.stop, StopReason::Deadline { .. }), "stop {:?}", res.stop);
        assert!(res.final_error <= 4.0 + 1e-9);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn dp_uses_fewer_comprehensive_analyses_than_lacs() {
        let aig = adder(6);
        let cfg = FlowConfig::new(MetricKind::Med, 8.0).with_patterns(1024);
        let res = DualPhaseFlow::new(cfg).run(&aig).unwrap();
        assert!(res.lacs_applied() > 1);
        assert!(
            res.comprehensive_analyses < res.lacs_applied(),
            "{} analyses for {} LACs",
            res.comprehensive_analyses,
            res.lacs_applied()
        );
        // phase-two records exist
        assert!(res.iterations.iter().any(|r| r.phase == Phase::Incremental));
    }

    #[test]
    fn dp_sa_respects_bound_and_adapts() {
        let aig = adder(5);
        let cfg = FlowConfig::new(MetricKind::Med, 4.0).with_patterns(1024);
        let flow = DualPhaseFlow::with_self_adaption(cfg);
        assert!(flow.is_self_adapting());
        assert_eq!(flow.name(), "DP-SA");
        let res = flow.run(&aig).unwrap();
        assert!(res.final_error <= 4.0 + 1e-9);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn dp_matches_conventional_quality_roughly() {
        use crate::conventional::ConventionalFlow;
        use crate::flow::Flow as _;
        let aig = adder(4);
        let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(1024);
        let conv = ConventionalFlow::new(cfg.clone()).run(&aig).unwrap();
        let dp = DualPhaseFlow::new(cfg).run(&aig).unwrap();
        // the dual-phase result must stay within a couple of gates of the
        // conventional one (the paper reports no quality loss)
        let diff = dp.final_nodes() as i64 - conv.final_nodes() as i64;
        assert!(diff.abs() <= 3, "conv {} vs dp {}", conv.final_nodes(), dp.final_nodes());
    }

    #[test]
    fn relative_increase_guards_zero_start() {
        assert_eq!(relative_increase(0.0, 0.0), 0.0);
        assert_eq!(relative_increase(1.0, 0.0), f64::INFINITY);
        assert_eq!(relative_increase(1.0, 2.0), 0.5);
    }
}
