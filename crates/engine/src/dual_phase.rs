//! The dual-phase iterative framework (DP) and its self-adapting variant
//! (DP-SA) — the paper's contribution.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use als_aig::{Aig, EditRecord, NodeId};

use crate::config::FlowConfig;
use crate::context::{Ctx, Evaluated};
use crate::error::EngineError;
use crate::flow::{Flow, Run};
use crate::guard::BudgetGuard;
use crate::journal::{self, JournalWriter};
use crate::report::{FlowResult, Phase};
use crate::supervisor;

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

/// Drops the nodes an applied LAC removed from `s_cand`.
fn drop_removed(s_cand: &mut Vec<NodeId>, records: &[EditRecord]) {
    let removed: HashSet<NodeId> = records.iter().flat_map(|r| r.removed.iter().copied()).collect();
    s_cand.retain(|n| !removed.contains(n));
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
        let cfg = &self.cfg;
        let bound = cfg.error_bound;
        let mut run = Run::start(self, original, cfg)?;

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
                        if c.index != run.iterations.len() as u64 {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "commit records out of order: found index {} where {} was \
                                     expected",
                                    c.index,
                                    run.iterations.len()
                                ),
                            });
                        }
                        let edits = run.ctx.apply(&c.lac);
                        if edits != c.edits {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "replay of commit {} diverged from the journaled edit records",
                                    c.index
                                ),
                            });
                        }
                        if run.ctx.error().to_bits() != c.cum_error.to_bits() {
                            return Err(EngineError::Journal {
                                detail: format!(
                                    "replayed error {} of commit {} does not match journaled {}",
                                    run.ctx.error(),
                                    c.index,
                                    c.cum_error
                                ),
                            });
                        }
                        run.iterations.push(c.iteration_record());
                    }
                    if run.iterations.len() as u64 != cp.commit_count {
                        return Err(EngineError::Journal {
                            detail: format!(
                                "checkpoint expects {} commits but the journal holds {}",
                                cp.commit_count,
                                run.iterations.len()
                            ),
                        });
                    }
                    if run.ctx.error().to_bits() != cp.cum_error.to_bits() {
                        return Err(EngineError::Journal {
                            detail: format!(
                                "replayed error {} does not match checkpointed {}",
                                run.ctx.error(),
                                cp.cum_error
                            ),
                        });
                    }
                    m = cp.m as usize;
                    n_limit = cp.n_limit as usize;
                    lac_cfg.max_subs_per_target = cp.max_subs_per_target as usize;
                    total_rounds = cp.total_rounds as usize;
                    run.analyses = cp.analyses as usize;
                    fallback_pending = cp.fallback_pending.clone();
                    run.first_ranking = cp.first_ranking.iter().map(|&n| NodeId(n)).collect();
                    run.guard.restore(&cp.guard);
                    // Re-derive the degradation ladder from the journaled
                    // fallback count so the resumed run executes under the
                    // same regime the original had degraded into.
                    apply_degradation(&mut run.ctx, &mut run.guard, cp.guard.stats.fallbacks);
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
            writer.set_retry_counter(run.ctx.metrics.journal_retries.clone());
            #[cfg(feature = "fault-inject")]
            writer.set_faults(cfg.faults.clone());
            run.journal = Some(writer);
        }

        // The governor is polled at every iteration, round and eval-batch
        // boundary; a trip unwinds to the graceful end of the run (flush +
        // Preempt record + best-so-far result). The iteration boundary is
        // the cheapest place to stop — nothing of it has started yet.
        'dual_phase: while run.has_room() && !run.stopped() {
            let _iter_span = run.ctx.obs().span("iteration");
            if run.journal.is_some() {
                let cp = journal::Checkpoint {
                    commit_count: run.iterations.len() as u64,
                    cum_error: run.ctx.error(),
                    m: m as u64,
                    n_limit: n_limit as u64,
                    max_subs_per_target: lac_cfg.max_subs_per_target as u64,
                    total_rounds: total_rounds as u64,
                    analyses: run.analyses as u64,
                    fallback_pending: fallback_pending.clone(),
                    first_ranking: run.first_ranking.iter().map(|n| n.0).collect(),
                    guard: run.guard.snapshot(),
                };
                run.timed_append(|w| w.append_checkpoint(&cp))?;
                checkpoints_written += 1;
                // Test hook: park right after the n-th checkpoint until a
                // cancellation (normally a delivered signal) arrives, so
                // the SIGTERM integration test has a wide deterministic
                // window to land in. Bounded so a lost signal cannot hang
                // a test run forever.
                if hold_at == Some(checkpoints_written) {
                    let parked = Instant::now();
                    while !run.gov.cancel_requested() && parked.elapsed() < Duration::from_secs(60)
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            let times_snapshot = run.ctx.times;
            let e0 = run.ctx.error();
            let mut sum_er = 0.0f64;

            // ---------------- Phase one: comprehensive analysis ----------
            let phase1_span = run.ctx.obs().span("phase1");
            let mut cuts = run.ctx.full_cuts()?;
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
                    cuts.spot_check(&run.ctx.aig, cfg.guard.spot_check.max(16), total_rounds as u64)
                {
                    return Err(EngineError::CorruptAnalysis {
                        flow: self.name().to_string(),
                        detail: format!("{detail} (falling back from: {prev})"),
                    });
                }
            }
            let cpm = run.ctx.full_cpm(&cuts)?;
            let lacs = run.ctx.generate(&lac_cfg, None);
            // Eval-batch boundary: the comprehensive evaluation is the
            // single most expensive step — don't start it doomed.
            if run.stopped() {
                comp_time += phase1_span.finish();
                break;
            }
            let evals = run.ctx.evaluate_lacs(&cpm, &lacs)?;
            run.analysed(&evals);

            let e_pre = run.ctx.error();
            let Some(applied) =
                run.guard.select_apply(&mut run.ctx, &evals, cfg.selection, |_, _| false)?
            else {
                comp_time += phase1_span.finish();
                break;
            };
            let mut s_cand: Vec<NodeId> = Ctx::rank_targets(&evals).into_iter().take(m).collect();
            run.ctx.metrics.s_cand_size.observe(s_cand.len() as u64);
            sum_er += relative_increase(applied.eval.error_after - e_pre, e0);
            let (eval, recs) = (&applied.eval, &applied.records);
            run.commit(eval, eval.error_after, Phase::Comprehensive, applied.rollbacks, recs);
            drop_removed(&mut s_cand, recs);
            run.ctx.update_cuts(&mut cuts, recs);
            comp_time += phase1_span.finish();

            // ---------------- Phase two: incremental rounds --------------
            let phase2_span = run.ctx.obs().span("phase2");
            let mut rounds = 0usize;
            while rounds < n_limit && !s_cand.is_empty() && run.has_room() && !run.stopped() {
                let _round_span = run.ctx.obs().span("round");
                s_cand.retain(|&n| run.ctx.aig.is_live(n) && run.ctx.aig.node(n).is_and());
                if s_cand.is_empty() {
                    break;
                }
                run.ctx.metrics.s_cand_size.observe(s_cand.len() as u64);
                // Step 2: partial CPM over N(S_cand); step 3: LACs
                // targeting S_cand only.
                let pcpm = run.ctx.partial_cpm(&cuts, &s_cand)?;
                let lacs = run.ctx.generate(&lac_cfg, Some(&s_cand));
                // Eval-batch boundary.
                if run.stopped() {
                    break;
                }
                let evals = run.ctx.evaluate_lacs(&pcpm, &lacs)?;

                // Guarded selection. DP-SA's adaptive stop looks at each
                // selected candidate's *estimate* before it is applied.
                let mut e_r = 0.0;
                let adaptive_stop = |best: &Evaluated, e: f64| {
                    e_r = relative_increase(best.error_after - e, e0);
                    let in_relaxed = e > cfg.b_r * bound && e <= cfg.b_s * bound;
                    let in_strict = e > cfg.b_s * bound;
                    self.self_adapt
                        && ((in_relaxed && e_r > cfg.e_t) || (in_strict && sum_er + e_r > cfg.e_t))
                };
                let Some(applied) =
                    run.guard.select_apply(&mut run.ctx, &evals, cfg.selection, adaptive_stop)?
                else {
                    break;
                };
                sum_er += e_r;
                let (eval, recs) = (&applied.eval, &applied.records);
                run.commit(eval, eval.error_after, Phase::Incremental, applied.rollbacks, recs);
                drop_removed(&mut s_cand, recs);
                // Step 1 (incremental): refresh cuts for S_v only.
                run.ctx.update_cuts(&mut cuts, recs);
                rounds += 1;
                total_rounds += 1;
                run.ctx.metrics.phase2_rounds.inc();

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
                    run.gov.force_deadline();
                }
                if cfg.guard.enabled && cfg.guard.spot_check > 0 {
                    als_aig::check::check(&run.ctx.aig).map_err(|e| {
                        EngineError::CorruptCircuit { flow: self.name().to_string(), source: e }
                    })?;
                    let salt = total_rounds as u64;
                    if let Err(detail) = run.ctx.spot_check_cuts(&cuts, cfg.guard.spot_check, salt)
                    {
                        run.guard.note_fallback();
                        let fallbacks = run.guard.stats().fallbacks;
                        apply_degradation(&mut run.ctx, &mut run.guard, fallbacks);
                        fallback_pending = Some(detail);
                        break;
                    }
                }
            }
            inc_time += phase2_span.finish();
            if run.tripped.is_some() {
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
                let dp_times = run.ctx.times.delta_since(&times_snapshot);
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
        }

        run.finish(Some((comp_time, inc_time)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::StopReason;
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
