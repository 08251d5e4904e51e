//! The conventional single-LAC-per-iteration flow (enhanced VECBEE,
//! `l = ∞`).

use als_aig::Aig;

use crate::config::FlowConfig;
use crate::error::EngineError;
use crate::flow::{Flow, Run};
use crate::report::{FlowResult, Phase};

/// One comprehensive analysis per applied LAC: full disjoint cuts, full
/// CPM, all candidate LACs evaluated, the best applied. Exact error
/// estimation throughout — the quality reference every acceleration is
/// measured against.
#[derive(Clone, Debug)]
pub struct ConventionalFlow {
    cfg: FlowConfig,
}

impl ConventionalFlow {
    /// Creates the flow.
    pub fn new(cfg: FlowConfig) -> ConventionalFlow {
        ConventionalFlow { cfg }
    }
}

impl Flow for ConventionalFlow {
    fn name(&self) -> &str {
        "Conventional(l=inf)"
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        let cfg = &self.cfg;
        let mut run = Run::start(self, original, cfg)?;
        while run.has_room() && !run.stopped() {
            let _iter_span = run.ctx.obs().span("iteration");
            let _phase_span = run.ctx.obs().span("phase1");
            // Full recomputation of the cuts is the "conventional" cost
            // the dual-phase flow removes.
            let cuts = run.ctx.full_cuts()?;
            let cpm = run.ctx.full_cpm(&cuts)?;
            let lacs = run.ctx.generate(&cfg.lac, None);
            if run.stopped() {
                break;
            }
            let evals = run.ctx.evaluate_lacs(&cpm, &lacs)?;
            run.analysed(&evals);
            let Some(applied) =
                run.guard.select_apply(&mut run.ctx, &evals, cfg.selection, |_, _| false)?
            else {
                break;
            };
            let (eval, recs) = (&applied.eval, &applied.records);
            run.commit(eval, eval.error_after, Phase::Comprehensive, applied.rollbacks, recs);
        }
        run.finish(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn adder() -> Aig {
        // small hand-rolled 3-bit adder to avoid a circular dev-dependency
        let mut aig = Aig::new("add3");
        let a = aig.add_inputs("a", 3);
        let b = aig.add_inputs("b", 3);
        let mut carry = als_aig::Lit::FALSE;
        let mut outs = Vec::new();
        for i in 0..3 {
            let (s, c) = aig.full_adder(a[i], b[i], carry);
            outs.push(s);
            carry = c;
        }
        outs.push(carry);
        for (i, &o) in outs.iter().enumerate() {
            aig.add_output(o, format!("s{i}"));
        }
        aig
    }

    #[test]
    fn zero_bound_applies_only_free_lacs() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Er, 0.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert_eq!(res.final_error, 0.0);
        // any applied LAC must have been error-free
        for it in &res.iterations {
            assert_eq!(it.error_after, 0.0);
        }
    }

    #[test]
    fn bounded_run_respects_bound_and_saves_area() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 2.0 + 1e-9, "error {}", res.final_error);
        assert!(res.final_nodes() < aig.num_ands(), "no area saved");
        assert!(!res.iterations.is_empty());
        assert!(res.comprehensive_analyses >= res.lacs_applied());
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn monotone_bounds_monotone_quality() {
        let aig = adder();
        let loose = ConventionalFlow::new(FlowConfig::new(MetricKind::Med, 4.0).with_patterns(512))
            .run(&aig)
            .unwrap();
        let tight = ConventionalFlow::new(FlowConfig::new(MetricKind::Med, 0.5).with_patterns(512))
            .run(&aig)
            .unwrap();
        assert!(loose.final_nodes() <= tight.final_nodes());
    }

    #[test]
    fn first_ranking_is_populated() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Med, 1.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert!(!res.first_ranking.is_empty());
    }
}
