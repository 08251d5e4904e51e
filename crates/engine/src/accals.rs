//! AccALS-style multi-LAC selection baseline.

use std::collections::HashSet;

use als_aig::{Aig, NodeId};
use als_cuts::CutState;

use crate::config::FlowConfig;
use crate::context::Evaluated;
use crate::error::EngineError;
use crate::flow::{Flow, Run};
use crate::report::{FlowResult, Phase};

/// Relative deviation between a candidate's stale batch estimate and its
/// exact error above which the rest of the batch is abandoned.
const DEVIATION_TOLERANCE: f64 = 0.25;

/// AccALS accelerates the iterative flow by applying *multiple* LACs per
/// comprehensive analysis. After one full analysis, up to `multi_k`
/// candidates are taken in rank order, subject to non-interference (their
/// targets' reachable-output sets must not overlap an already-chosen
/// target's); each is validated exactly against the bound just before
/// application, because the batch estimates go stale as LACs land.
///
/// When validation shows a large deviation between the stale estimate and
/// the exact error, the batch stops early — in the worst case one LAC per
/// analysis is applied, which is the SEALS-like degeneration the paper
/// observes under the MED metric. A guard rollback also ends the batch. It
/// restores the analysed circuit, so the next batch comes from the same
/// evaluations without the evicted candidate; only a commit starts a new
/// analysis.
#[derive(Clone, Debug)]
pub struct AccAlsFlow {
    cfg: FlowConfig,
}

impl AccAlsFlow {
    /// Creates the flow.
    pub fn new(cfg: FlowConfig) -> AccAlsFlow {
        AccAlsFlow { cfg }
    }
}

impl Flow for AccAlsFlow {
    fn name(&self) -> &str {
        "AccALS"
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        let cfg = &self.cfg;
        let bound = cfg.error_bound;
        let mut run = Run::start(self, original, cfg)?;
        // Guard rollbacks since the last commit. The run gives up after as
        // many as one guarded selection may take.
        let mut rollbacks = 0usize;

        'analysis: while run.has_room() && !run.stopped() {
            let _iter_span = run.ctx.obs().span("iteration");
            let _phase_span = run.ctx.obs().span("phase1");
            // Comprehensive analysis.
            let cuts = run.ctx.full_cuts()?;
            let cpm = run.ctx.full_cpm(&cuts)?;
            let lacs = run.ctx.generate(&cfg.lac, None);
            if run.stopped() {
                break;
            }
            let mut evals = run.ctx.evaluate_lacs(&cpm, &lacs)?;
            run.analysed(&evals);
            evals.retain(|e| e.error_after <= bound);
            evals.sort_by(Evaluated::rank_cmp);

            // Batches from these evaluations until one commits. A rollback
            // restores the analysed circuit, so the next batch is chosen
            // from the same evaluations without the evicted candidate.
            loop {
                let admissible = run.guard.admissible(&evals);
                if admissible.is_empty() {
                    break 'analysis;
                }
                let chosen = choose_batch(&admissible, &cuts, cfg.multi_k);
                let (mut committed, mut progressed) = (false, false);
                for (i, e) in chosen.iter().enumerate() {
                    if run.stopped() {
                        break 'analysis;
                    }
                    if !run.ctx.aig.is_live(e.lac.target)
                        || !run.ctx.aig.node(e.lac.target).is_and()
                    {
                        continue;
                    }
                    if let als_lac::LacKind::Substitute { sub } = e.lac.kind {
                        if !run.ctx.aig.is_live(sub.node()) {
                            continue;
                        }
                    }
                    let exact = run.ctx.exact_error_of(&e.lac);
                    if exact > bound {
                        break; // stale estimate no longer sound — stop the batch
                    }
                    // Large estimate deviation: degrade to single-LAC behaviour.
                    let scale = bound.max(f64::MIN_POSITIVE);
                    let deviation = (exact - e.error_after).abs() / scale;
                    if i > 0 && deviation > DEVIATION_TOLERANCE {
                        break;
                    }
                    let Some(records) = run.guard.try_apply(&mut run.ctx, e)? else {
                        // The guard measured an overshoot and evicted the
                        // candidate: stop the batch, not the run.
                        rollbacks += 1;
                        progressed = true;
                        break;
                    };
                    let phase = if i == 0 { Phase::Comprehensive } else { Phase::Incremental };
                    run.commit(e, exact, phase, rollbacks, &records);
                    rollbacks = 0;
                    (committed, progressed) = (true, true);
                }
                if !progressed || rollbacks > cfg.guard.max_retries {
                    break 'analysis;
                }
                if committed {
                    continue 'analysis;
                }
            }
        }
        run.finish(None)
    }
}

/// Greedy multi-selection: up to `k` candidates in rank order whose
/// targets' reachable-output sets do not overlap an already-chosen one's.
fn choose_batch(evals: &[Evaluated], cuts: &CutState, k: usize) -> Vec<Evaluated> {
    let mut chosen: Vec<Evaluated> = Vec::new();
    let mut blocked_outputs = als_sim::PackedBits::zeros(cuts.reach().mask_words());
    let mut used_targets: HashSet<NodeId> = HashSet::new();
    for e in evals {
        if chosen.len() >= k {
            break;
        }
        if used_targets.contains(&e.lac.target) {
            continue;
        }
        let mask = cuts.reach().mask(e.lac.target);
        let interferes = mask.words().iter().zip(blocked_outputs.words()).any(|(a, b)| a & b != 0);
        if chosen.is_empty() || !interferes {
            blocked_outputs.or_assign(mask);
            used_targets.insert(e.lac.target);
            chosen.push(e.clone());
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn two_independent_adders() -> Aig {
        let mut aig = Aig::new("dual");
        let a = aig.add_inputs("a", 3);
        let b = aig.add_inputs("b", 3);
        let c = aig.add_inputs("c", 3);
        let d = aig.add_inputs("d", 3);
        let mut carry = als_aig::Lit::FALSE;
        for i in 0..3 {
            let (s, ca) = aig.full_adder(a[i], b[i], carry);
            aig.add_output(s, format!("x{i}"));
            carry = ca;
        }
        let mut carry2 = als_aig::Lit::FALSE;
        for i in 0..3 {
            let (s, ca) = aig.full_adder(c[i], d[i], carry2);
            aig.add_output(s, format!("y{i}"));
            carry2 = ca;
        }
        als_aig::edit::sweep_dangling(&mut aig);
        aig
    }

    #[test]
    fn bound_respected() {
        let aig = two_independent_adders();
        let cfg = FlowConfig::new(MetricKind::Med, 3.0).with_patterns(1024);
        let res = AccAlsFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 3.0 + 1e-9, "error {}", res.final_error);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn multi_selection_reduces_analyses() {
        let aig = two_independent_adders();
        let cfg = FlowConfig::new(MetricKind::Er, 0.6).with_patterns(1024);
        let res = AccAlsFlow::new(cfg).run(&aig).unwrap();
        if res.lacs_applied() >= 2 {
            assert!(res.comprehensive_analyses <= res.lacs_applied());
        }
    }
}
