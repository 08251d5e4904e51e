//! Fault-injection ("chaos") suite, compiled only with the
//! `fault-inject` feature:
//!
//! ```text
//! cargo test --features fault-inject --test chaos
//! ```
//!
//! Each injection point of [`FaultPlan`] is driven into a live flow and
//! the test asserts the *specific* designed recovery — a typed error, a
//! rollback, a fallback re-analysis, or a resumable journal. No injected
//! fault may escape as a panic or, worse, a silently wrong result.
#![cfg(feature = "fault-inject")]

use std::path::PathBuf;

use dualphase_als::circuits::mult::mult;
use dualphase_als::engine::faultplan::FaultPlan;
use dualphase_als::engine::journal;
use dualphase_als::engine::{AccAlsFlow, DualPhaseFlow, EngineError, Flow, FlowConfig, StopReason};
use dualphase_als::error::MetricKind;

fn cfg() -> FlowConfig {
    FlowConfig::new(MetricKind::Med, 2.0).with_patterns(256).with_seed(7)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("als-chaos-{}-{name}.alsj", std::process::id()));
    p
}

#[test]
fn worker_panic_in_evaluation_becomes_a_typed_error() {
    let plan = FaultPlan::new().panic_in_eval_at_item(5);
    // The parallel pool contains worker panics; the serial pool (1
    // thread) deliberately does not, so this is a 2-thread test.
    let c = cfg().with_threads(2).with_faults(plan.clone());
    let err = DualPhaseFlow::new(c).run(&mult(3, 3)).unwrap_err();
    assert!(matches!(err, EngineError::WorkerPanic(_)), "wanted WorkerPanic, got: {err}");
    assert_eq!(plan.eval_panics_fired(), 1);
}

#[test]
fn forced_overshoot_streak_is_rolled_back_and_the_bound_holds() {
    let plan = FaultPlan::new().force_overshoots(3);
    let c = cfg().with_faults(plan.clone());
    let res = DualPhaseFlow::new(c).run(&mult(3, 3)).unwrap();
    assert_eq!(plan.overshoots_fired(), 3, "the full streak never fired");
    assert!(res.guard.rollbacks >= 3, "forced overshoots were not rolled back");
    assert!(res.final_error <= 2.0 + 1e-9, "bound violated: {}", res.final_error);
    dualphase_als::aig::check::check(&res.circuit).unwrap();

    // the sabotaged run must converge to the clean run's circuit
    let clean = DualPhaseFlow::new(cfg()).run(&mult(3, 3)).unwrap();
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&res.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit),
        "rollbacks changed the result"
    );
}

#[test]
fn forced_overshoot_ends_an_accals_batch_not_the_run() {
    // The very first guarded application overshoots. AccALS must evict
    // that candidate and carry on with the next analysis instead of
    // reporting convergence with the circuit untouched.
    let original = mult(3, 3);
    let plan = FaultPlan::new().force_overshoots(1);
    let res = AccAlsFlow::new(cfg().with_faults(plan.clone())).run(&original).unwrap();
    assert_eq!(plan.overshoots_fired(), 1, "the forced overshoot never fired");
    assert_eq!(res.guard.rollbacks, 1);
    assert!(res.lacs_applied() > 0, "one rollback ended the run");
    assert!(res.final_nodes() < original.num_ands(), "no area saved");
    assert_eq!(res.iterations[0].rollbacks, 1, "the first commit follows the rollback");
    assert!(res.final_error <= 2.0 + 1e-9, "bound violated: {}", res.final_error);
    assert_eq!(res.stop, StopReason::Converged);
    dualphase_als::aig::check::check(&res.circuit).unwrap();
}

#[test]
fn corrupted_incremental_analysis_triggers_the_fallback_ladder() {
    let plan = FaultPlan::new().corrupt_cuts_after_round(1);
    let res = DualPhaseFlow::new(cfg().with_faults(plan.clone())).run(&mult(3, 3)).unwrap();
    assert!(plan.corruptions_fired() >= 1, "the corruption never fired");
    assert!(res.guard.fallbacks >= 1, "the corruption was never detected");
    assert!(res.final_error <= 2.0 + 1e-9);
    dualphase_als::aig::check::check(&res.circuit).unwrap();
}

#[test]
fn corruption_surviving_fresh_analysis_is_a_typed_error() {
    // First corrupt the incremental state, then corrupt the fallback's
    // fresh analysis too: the ladder is exhausted and the flow must
    // refuse to report results rather than trust a failed spot-check.
    let plan = FaultPlan::new().corrupt_cuts_after_round(1).corrupt_fresh_analysis();
    let err = DualPhaseFlow::new(cfg().with_faults(plan.clone())).run(&mult(3, 3)).unwrap_err();
    assert!(
        matches!(err, EngineError::CorruptAnalysis { .. }),
        "wanted CorruptAnalysis, got: {err}"
    );
    assert_eq!(plan.corruptions_fired(), 2);
}

#[test]
fn journal_write_failure_is_a_typed_error_and_the_journal_stays_resumable() {
    let aig = mult(3, 3);
    let path = tmp("appendfail");
    let clean_path = tmp("appendfail-clean");

    // Reference: the same run journaled without faults.
    let clean = DualPhaseFlow::new(cfg().with_journal(&clean_path)).run(&aig).unwrap();
    let clean_journal = journal::load(&clean_path).unwrap();

    // Fail the 3rd persist (0-based index 2). Under group commit the
    // persists are the per-iteration checkpoint appends plus the final
    // flush, so the on-disk journal keeps the image of the 2nd persist —
    // a clean record-boundary prefix of the uninterrupted journal.
    let plan = FaultPlan::new().fail_journal_append(2);
    let err = DualPhaseFlow::new(cfg().with_journal(&path).with_faults(plan.clone()))
        .run(&aig)
        .unwrap_err();
    assert!(matches!(err, EngineError::Io { .. }), "wanted Io, got: {err}");
    assert_eq!(plan.journal_failures_fired(), 1);

    let loaded = journal::load(&path).unwrap();
    assert!(!loaded.torn_tail, "injected failure must never tear the journal");
    assert!(
        !loaded.records.is_empty() && loaded.records.len() < clean_journal.records.len(),
        "expected a proper nonempty prefix, got {} of {} records",
        loaded.records.len(),
        clean_journal.records.len()
    );
    // Commit records carry wall-clock step times; mask them before
    // comparing the two runs' records.
    let untimed = |r: &journal::Record| match r {
        journal::Record::Commit(c) => {
            let mut c = c.clone();
            c.step_nanos = [0; 4];
            journal::Record::Commit(c)
        }
        cp => cp.clone(),
    };
    for (i, (got, want)) in loaded.records.iter().zip(&clean_journal.records).enumerate() {
        assert_eq!(
            untimed(got),
            untimed(want),
            "record {i}: the surviving journal must be a prefix of the uninterrupted one"
        );
    }

    // Resuming from the aborted journal finishes the run exactly.
    let resumed = DualPhaseFlow::new(cfg().with_resume(&path)).run(&aig).unwrap();
    assert_eq!(resumed.final_error.to_bits(), clean.final_error.to_bits());
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&resumed.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit),
        "resume after an I/O fault diverged"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&clean_path).ok();
}

#[test]
fn journal_dir_sync_failure_is_a_typed_error_and_the_journal_stays_resumable() {
    let aig = mult(3, 3);
    let path = tmp("dirsyncfail");

    // Fail the parent-directory fsync of the 2nd persist (0-based index
    // 1): the rename already landed, so unlike an append failure the new
    // image IS on disk — the writer must still surface the error (the
    // directory entry is not durable) and leave a loadable journal.
    let plan = FaultPlan::new().fail_journal_dir_sync(1);
    let err = DualPhaseFlow::new(cfg().with_journal(&path).with_faults(plan.clone()))
        .run(&aig)
        .unwrap_err();
    assert!(matches!(err, EngineError::Io { .. }), "wanted Io, got: {err}");
    assert_eq!(plan.dir_sync_failures_fired(), 1);

    let loaded = journal::load(&path).unwrap();
    assert!(!loaded.torn_tail, "a dir-sync failure must never tear the journal");
    assert!(!loaded.records.is_empty());

    // Resuming from the journal finishes the run exactly.
    let resumed = DualPhaseFlow::new(cfg().with_resume(&path)).run(&aig).unwrap();
    let clean = DualPhaseFlow::new(cfg()).run(&aig).unwrap();
    assert_eq!(resumed.final_error.to_bits(), clean.final_error.to_bits());
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&resumed.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit),
        "resume after a dir-sync fault diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_journal_failures_are_retried_through() {
    let aig = mult(3, 3);
    let path = tmp("transient");
    let clean_path = tmp("transient-clean");

    let clean = DualPhaseFlow::new(cfg().with_journal(&clean_path)).run(&aig).unwrap();

    // Two consecutive EINTR-class write failures: both inside the retry
    // budget, so the run must succeed as if nothing happened.
    let plan = FaultPlan::new().fail_journal_append_transient(2);
    let res =
        DualPhaseFlow::new(cfg().with_journal(&path).with_faults(plan.clone())).run(&aig).unwrap();
    assert_eq!(plan.transient_failures_fired(), 2, "both transient faults must fire");
    assert_eq!(res.stop, dualphase_als::engine::StopReason::Converged);
    assert_eq!(res.final_error.to_bits(), clean.final_error.to_bits());
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&res.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit),
        "retried writes changed the result"
    );

    // The journal is complete: it replays to the same final circuit.
    let loaded = journal::load(&path).unwrap();
    assert!(!loaded.torn_tail);
    let clean_journal = journal::load(&clean_path).unwrap();
    assert_eq!(loaded.records.len(), clean_journal.records.len());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&clean_path).ok();
}

#[test]
fn tripped_deadline_stops_gracefully_mid_iteration() {
    let aig = mult(3, 3);
    let path = tmp("deadline");

    // Force the governor's deadline to expire at round 1 of phase two:
    // the run must stop gracefully with a best-so-far circuit and a
    // sealed, resumable journal — not an error.
    let plan = FaultPlan::new().trip_deadline_at_round(1);
    let res =
        DualPhaseFlow::new(cfg().with_journal(&path).with_faults(plan.clone())).run(&aig).unwrap();
    assert_eq!(plan.deadline_trips_fired(), 1, "the deadline trip never fired");
    assert!(
        matches!(res.stop, dualphase_als::engine::StopReason::Deadline { .. }),
        "wanted Deadline, got: {:?}",
        res.stop
    );
    assert!(res.final_error <= 2.0 + 1e-9, "bound violated: {}", res.final_error);
    dualphase_als::aig::check::check(&res.circuit).unwrap();

    // The journal is sealed with a Preempt record on a clean boundary.
    let loaded = journal::load(&path).unwrap();
    assert!(!loaded.torn_tail, "a graceful stop must never tear the journal");
    assert!(
        matches!(loaded.records.last(), Some(journal::Record::Preempt(_))),
        "a preempted journal must end in a Preempt record"
    );

    // Resuming without the fault finishes the run and converges to the
    // clean result.
    let resumed = DualPhaseFlow::new(cfg().with_resume(&path)).run(&aig).unwrap();
    let clean = DualPhaseFlow::new(cfg()).run(&aig).unwrap();
    assert_eq!(resumed.stop, dualphase_als::engine::StopReason::Converged);
    assert_eq!(resumed.final_error.to_bits(), clean.final_error.to_bits());
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&resumed.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit),
        "resume after a graceful preemption diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn unarmed_plan_is_inert() {
    let plan = FaultPlan::new();
    let sab = DualPhaseFlow::new(cfg().with_faults(plan.clone())).run(&mult(3, 3)).unwrap();
    let clean = DualPhaseFlow::new(cfg()).run(&mult(3, 3)).unwrap();
    assert_eq!(plan.eval_panics_fired(), 0);
    assert_eq!(plan.overshoots_fired(), 0);
    assert_eq!(plan.corruptions_fired(), 0);
    assert_eq!(plan.journal_failures_fired(), 0);
    assert_eq!(plan.transient_failures_fired(), 0);
    assert_eq!(plan.deadline_trips_fired(), 0);
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&sab.circuit),
        dualphase_als::aig::io::to_ascii_string(&clean.circuit)
    );
}
