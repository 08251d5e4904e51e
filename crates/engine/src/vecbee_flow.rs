//! VECBEE with depth limit `l = 1`.

use als_aig::Aig;

use crate::config::FlowConfig;
use crate::context::Evaluated;
use crate::error::EngineError;
use crate::flow::{Flow, Run};
use crate::report::{FlowResult, Phase};

/// How many top-ranked candidates are validated exactly per iteration
/// before the flow declares itself stuck.
const VALIDATE_LIMIT: usize = 32;

/// The fastest, least accurate VECBEE configuration: the CPM is built from
/// direct fanouts only (no cut computation at all), so step 1 vanishes and
/// step 2 is cheap — but estimates are wrong under reconvergence.
///
/// Candidates are *ranked* by the approximate estimate; before committing,
/// each candidate is validated exactly (one fanout-cone resimulation), in
/// rank order, and the first one that truly fits the bound is applied.
/// This keeps the bound sound while reproducing the quality loss the paper
/// reports for `l = 1` (mis-ranked candidates).
#[derive(Clone, Debug)]
pub struct VecbeeDepthOneFlow {
    cfg: FlowConfig,
}

impl VecbeeDepthOneFlow {
    /// Creates the flow.
    pub fn new(cfg: FlowConfig) -> VecbeeDepthOneFlow {
        VecbeeDepthOneFlow { cfg }
    }
}

impl Flow for VecbeeDepthOneFlow {
    fn name(&self) -> &str {
        "VECBEE(l=1)"
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        let cfg = &self.cfg;
        let mut run = Run::start(self, original, cfg)?;
        'outer: while run.has_room() && !run.stopped() {
            let _iter_span = run.ctx.obs().span("iteration");
            let _phase_span = run.ctx.obs().span("phase1");
            // No step 1; step 3 evaluates everything approximately against
            // the depth-one CPM.
            let cpm = run.ctx.depth_one_cpm();
            let lacs = run.ctx.generate(&cfg.lac, None);
            if run.stopped() {
                break;
            }
            let mut evals = run.ctx.evaluate_lacs(&cpm, &lacs)?;
            run.analysed(&evals);
            evals.sort_by(Evaluated::rank_cmp);
            let evals = run.guard.admissible(&evals);

            // Validate candidates in rank order with exact cone
            // resimulation; the first sound one goes through the guard,
            // which re-measures after the (transactional) application and
            // rolls back if the estimate-validated candidate still lands
            // over budget.
            let mut rollbacks = 0;
            for cand in evals.iter().take(VALIDATE_LIMIT) {
                if run.stopped() {
                    break 'outer;
                }
                let exact = run.ctx.exact_error_of(&cand.lac);
                if exact > cfg.error_bound {
                    continue;
                }
                match run.guard.try_apply(&mut run.ctx, cand)? {
                    Some(records) => {
                        run.commit(cand, exact, Phase::Comprehensive, rollbacks, &records);
                        continue 'outer;
                    }
                    None => rollbacks += 1,
                }
            }
            break;
        }
        run.finish(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn parity_tree() -> Aig {
        let mut aig = Aig::new("par");
        let xs = aig.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.xor(acc, x);
        }
        aig.add_output(acc, "p");
        let g = aig.and(xs[0], xs[1]);
        aig.add_output(g, "q");
        aig
    }

    #[test]
    fn bound_is_respected_despite_approximation() {
        let aig = parity_tree();
        let cfg = FlowConfig::new(MetricKind::Er, 0.3).with_patterns(512);
        let res = VecbeeDepthOneFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 0.3 + 1e-9, "error {}", res.final_error);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn no_cut_time_is_spent() {
        let aig = parity_tree();
        let cfg = FlowConfig::new(MetricKind::Er, 0.2).with_patterns(512);
        let res = VecbeeDepthOneFlow::new(cfg).run(&aig).unwrap();
        assert!(res.step_times.cuts.is_zero());
    }
}
