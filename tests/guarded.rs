//! Integration tests of the guarded execution layer.
//!
//! Covers the two failure modes the guard exists for:
//!
//! 1. **Budget overshoot from an unrepresentative estimation sample.** With
//!    a deliberately tiny Monte-Carlo sample the estimator is exact *on its
//!    own patterns* but badly wrong on the input distribution; the strict
//!    guard must re-validate every commit on an independent larger set,
//!    roll back the overshooting candidates and keep the final circuit
//!    within budget.
//! 2. **Corrupted incremental analysis state.** When phase two's cut state
//!    is wrecked mid-run, the spot-check must catch it and fall back to a
//!    fresh comprehensive analysis instead of synthesising on garbage.

use dualphase_als::aig::Aig;
use dualphase_als::circuits::mult::mult;
use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{
    journal, AccAlsFlow, ConventionalFlow, DualPhaseFlow, Flow, FlowConfig, Phase,
};
use dualphase_als::error::MetricKind;

/// Exact MED of `approx` against `original` over the full input space.
fn true_error(original: &Aig, approx: &Aig) -> f64 {
    let patterns = dualphase_als::sim::PatternSet::exhaustive(original.num_inputs());
    let sim_o = dualphase_als::sim::Simulator::new(original, &patterns);
    let golden: Vec<_> =
        (0..original.num_outputs()).map(|o| sim_o.output_value(original, o)).collect();
    let sim_a = dualphase_als::sim::Simulator::new(approx, &patterns);
    let outs: Vec<_> = (0..approx.num_outputs()).map(|o| sim_a.output_value(approx, o)).collect();
    dualphase_als::error::ErrorState::new(
        MetricKind::Med,
        dualphase_als::error::unsigned_weights(original.num_outputs()),
        golden,
        &outs,
    )
    .error()
}

/// An adversarially small estimation sample: 64 patterns over a 256-point
/// input space of a 4x4 multiplier.
fn adversarial_cfg(bound: f64) -> FlowConfig {
    FlowConfig::new(MetricKind::Med, bound).with_patterns(64).with_seed(1)
}

#[test]
fn strict_guard_holds_the_budget_under_adversarial_sampling() {
    let original = mult(4, 4);
    let bound = 1.0;

    // Without strict validation the tiny sample lets the flow sail far
    // past the budget — this is the failure the guard exists to stop.
    let unguarded = ConventionalFlow::new(adversarial_cfg(bound)).run(&original).unwrap();
    assert!(
        true_error(&original, &unguarded.circuit) > bound,
        "the sample is not adversarial enough to demonstrate an overshoot"
    );

    let res = ConventionalFlow::new(adversarial_cfg(bound).with_strict()).run(&original).unwrap();
    assert!(res.guard.rollbacks >= 1, "no overshoot was ever caught");
    assert!(
        res.final_error <= bound + 1e-9,
        "reported error {} exceeds the bound",
        res.final_error
    );
    assert!(
        true_error(&original, &res.circuit) <= bound + 1e-9,
        "true error escaped the budget despite strict validation"
    );
    dualphase_als::aig::check::check(&res.circuit).unwrap();

    // Stats are internally consistent: every rollback evicted its
    // candidate, every commit and rollback was preceded by a validation.
    assert_eq!(res.guard.rollbacks, res.guard.evictions);
    assert!(res.guard.validations >= res.lacs_applied() + res.guard.rollbacks);
    // Overshoots adaptively grew the validation sample.
    assert!(res.guard.resamples >= 1);
    // Rollback counts surface in the per-iteration records.
    let recorded: usize = res.iterations.iter().map(|it| it.rollbacks).sum();
    assert!(recorded <= res.guard.rollbacks);
}

#[test]
fn strict_accals_keeps_going_after_a_rollback() {
    // Under the adversarial sample the strict guard rolls back AccALS
    // candidates too. A rollback ends one batch; the next analysis runs
    // without the evicted candidate, so later commits still land.
    let original = mult(4, 4);
    let bound = 1.0;
    let res = AccAlsFlow::new(adversarial_cfg(bound).with_strict()).run(&original).unwrap();
    assert!(res.guard.rollbacks >= 1, "no overshoot was ever caught");
    assert!(
        res.iterations.iter().any(|it| it.rollbacks > 0),
        "no LAC committed after a rollback: {} LACs, {} rollbacks",
        res.lacs_applied(),
        res.guard.rollbacks
    );
    let recorded: usize = res.iterations.iter().map(|it| it.rollbacks).sum();
    assert!(recorded <= res.guard.rollbacks);
    assert!(res.final_error <= bound + 1e-9, "reported error {}", res.final_error);
    assert!(
        true_error(&original, &res.circuit) <= bound + 1e-9,
        "true error escaped the budget despite strict validation"
    );
    dualphase_als::aig::check::check(&res.circuit).unwrap();
}

#[test]
fn strict_accals_reanalyses_only_after_a_commit() {
    // A rollback restores the analysed circuit exactly, so a new analysis
    // would only repeat the evaluations without the evicted candidate.
    // AccALS retries selection on them instead: every analysis after the
    // first follows a commit, and the result is the one that re-analysing
    // gave (pinned: circuit fingerprint, LAC count, final error bits).
    let original = benchmark("sm9x8", BenchmarkScale::Reduced);
    let cfg = FlowConfig::new(MetricKind::Med, 4.0).with_patterns(64).with_seed(1).with_strict();
    let res = AccAlsFlow::new(cfg).run(&original).unwrap();
    assert_eq!(
        (journal::circuit_fingerprint(&res.circuit), res.lacs_applied(), res.final_error.to_bits()),
        (0x39bd_2558_ec74_e275, 4, 3.625f64.to_bits()),
        "output moved"
    );
    assert!(res.guard.rollbacks >= 1, "no overshoot was ever caught");
    // A committing analysis starts its batch with a comprehensive record.
    let batches = res.iterations.iter().filter(|it| it.phase == Phase::Comprehensive).count();
    assert!(
        res.comprehensive_analyses <= batches + 1,
        "{} analyses for {batches} committing batches ({} rollbacks)",
        res.comprehensive_analyses,
        res.guard.rollbacks
    );
}

// Corruption is injected through the fault plan, which is compiled in only
// with the `fault-inject` feature (the chaos build used by CI).
#[cfg(feature = "fault-inject")]
#[test]
fn corrupted_incremental_state_falls_back_to_comprehensive_analysis() {
    use dualphase_als::engine::faultplan::FaultPlan;

    let original = mult(3, 3);
    let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(256).with_seed(7);
    let res =
        DualPhaseFlow::new(cfg.clone().with_faults(FaultPlan::new().corrupt_cuts_after_round(1)))
            .run(&original)
            .unwrap();
    assert!(res.guard.fallbacks >= 1, "the corruption was never detected");
    assert!(res.final_error <= 2.0 + 1e-9);
    dualphase_als::aig::check::check(&res.circuit).unwrap();

    // Despite the mid-run corruption, quality stays within tolerance of
    // the conventional (always-comprehensive) flow.
    let conv = ConventionalFlow::new(cfg).run(&original).unwrap();
    let diff = res.final_nodes() as i64 - conv.final_nodes() as i64;
    assert!(
        diff.abs() <= 2,
        "fallback run ended at {} gates vs conventional {}",
        res.final_nodes(),
        conv.final_nodes()
    );
}

#[test]
fn default_guard_does_not_change_results() {
    // The flows' estimators are exact on the estimation patterns, so the
    // non-strict guard validates but never rolls back — enabling it must
    // not change any result.
    let original = mult(3, 3);
    let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(512).with_seed(3);
    let mut off = cfg.clone();
    off.guard.enabled = false;
    let guarded = DualPhaseFlow::new(cfg).run(&original).unwrap();
    let plain = DualPhaseFlow::new(off).run(&original).unwrap();
    assert_eq!(guarded.guard.rollbacks, 0);
    assert_eq!(guarded.final_nodes(), plain.final_nodes());
    assert_eq!(guarded.final_error, plain.final_error);
    assert_eq!(guarded.lacs_applied(), plain.lacs_applied());
}

#[test]
fn panic_inside_a_transaction_still_rolls_back_exactly() {
    // A worker panicking mid-edit must not poison the transaction: after
    // the panic is caught, `rollback_txn` restores the pre-transaction
    // graph exactly, so the engine's catch-and-rollback recovery is sound.
    let mut aig = mult(3, 3);
    let before = dualphase_als::aig::io::to_ascii_string(&aig);

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        aig.begin_txn();
        let target = aig.iter_ands().next().unwrap();
        dualphase_als::aig::edit::replace(&mut aig, target, dualphase_als::aig::Lit::FALSE);
        panic!("worker died mid-edit");
    }));
    assert!(panicked.is_err());

    assert!(aig.in_txn(), "the open transaction must survive the unwind");
    aig.rollback_txn();
    assert!(!aig.in_txn());
    assert_eq!(dualphase_als::aig::io::to_ascii_string(&aig), before);
    dualphase_als::aig::check::check(&aig).unwrap();
}
