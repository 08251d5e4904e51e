//! The arena-backed CPM and the fused word-skipping error kernel must be
//! byte-identical to the brute-force/materialising reference
//! implementations.
//!
//! Random circuits via proptest, checked at thread counts {1, 4}:
//!
//! * full and partial arena CPM rows vs. the brute-force flip-and-resim
//!   oracle (absent entries must be zero vectors — the arena drops
//!   annihilated entries at write time),
//! * `eval_flips_sparse` over borrowed arena slices vs. materialising the
//!   flip vectors and calling `eval_flips` — exact `f64` bit equality,
//! * batch LAC evaluation through the engine vs. a dense re-evaluation of
//!   every candidate, serial and parallel,
//! * structural dedup inside `evaluate_lacs` is invisible: duplicated
//!   candidate lists return per-candidate results bit-identical to the
//!   brute-force evaluation.
//!
//! End to end, the `als` binary must write the same AIGER bytes whether
//! the engine evaluates candidates with the fused kernel or, under
//! `ALS_SIMD=0`, with the materialising reference.

use std::process::Command;

use proptest::prelude::*;

use dualphase_als::aig::{Aig, Lit, NodeId};
use dualphase_als::cpm::reference::{brute_force_row, rows_equivalent};
use dualphase_als::cuts::CutState;
use dualphase_als::error::{unsigned_weights, ErrorState, FlipVec, MetricKind, SparseFlip};
use dualphase_als::lac::{constant_lacs, Lac};
use dualphase_als::par::WorkerPool;
use dualphase_als::sim::{PatternSet, Simulator};

/// Operation encoding for random circuit construction (mirrors props.rs).
#[derive(Clone, Debug)]
struct Op {
    kind: u8,
    a: u16,
    b: u16,
    c: u16,
}

fn arb_ops() -> impl Strategy<Value = (usize, Vec<Op>, u8)> {
    (
        4usize..8,
        proptest::collection::vec(
            (0u8..5, any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(kind, a, b, c)| Op {
                kind,
                a,
                b,
                c,
            }),
            5..50,
        ),
        1u8..4,
    )
}

fn build_circuit(num_inputs: usize, ops: &[Op], num_outputs: u8) -> Aig {
    let mut aig = Aig::new("random");
    let mut sigs: Vec<Lit> = aig.add_inputs("x", num_inputs);
    for op in ops {
        let pick = |sel: u16, sigs: &[Lit]| {
            let lit = sigs[sel as usize % sigs.len()];
            lit.xor_complement(sel & 0x100 != 0)
        };
        let la = pick(op.a, &sigs);
        let lb = pick(op.b, &sigs);
        let lc = pick(op.c, &sigs);
        let out = match op.kind {
            0 => aig.and(la, lb),
            1 => aig.or(la, lb),
            2 => aig.xor(la, lb),
            3 => aig.mux(la, lb, lc),
            _ => aig.maj(la, lb, lc),
        };
        sigs.push(out);
    }
    let n = sigs.len();
    for (k, &lit) in sigs[n.saturating_sub(num_outputs as usize)..].iter().enumerate() {
        aig.add_output(lit.xor_complement(k % 2 == 1), format!("o{k}"));
    }
    dualphase_als::aig::edit::sweep_dangling(&mut aig);
    aig
}

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// An error state with non-trivial diffs: the golden outputs against the
/// outputs of the same circuit after one constant LAC.
fn perturbed_state(
    aig: &Aig,
    sim: &Simulator,
    patterns: &PatternSet,
    kind: MetricKind,
    pick: u16,
) -> Option<ErrorState> {
    let ands: Vec<NodeId> = aig.iter_ands().collect();
    if ands.is_empty() {
        return None;
    }
    let golden: Vec<_> = (0..aig.num_outputs()).map(|o| sim.output_value(aig, o)).collect();
    let mut copy = aig.clone();
    Lac::const0(ands[pick as usize % ands.len()]).apply(&mut copy);
    let approx_sim = Simulator::new(&copy, patterns);
    let approx: Vec<_> =
        (0..copy.num_outputs()).map(|o| approx_sim.output_value(&copy, o)).collect();
    Some(ErrorState::new(kind, unsigned_weights(aig.num_outputs()), golden, &approx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arena_full_cpm_equals_brute_force((ni, ops, no) in arb_ops()) {
        let aig = build_circuit(ni, &ops, no);
        let patterns = PatternSet::random(aig.num_inputs(), 2, 31);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        for threads in THREAD_COUNTS {
            let cpm = dualphase_als::cpm::compute_full_with(
                &aig, &sim, &cuts, &WorkerPool::new(threads),
            ).unwrap();
            for n in aig.iter_live() {
                let reference = brute_force_row(&aig, &patterns, n);
                prop_assert!(
                    rows_equivalent(cpm.row(n).unwrap(), &reference, aig.num_outputs()),
                    "row of {} at {} threads", n, threads
                );
            }
        }
    }

    #[test]
    fn arena_partial_cpm_equals_brute_force(
        (ni, ops, no) in arb_ops(),
        cand_picks in proptest::collection::vec(any::<u16>(), 1..5),
    ) {
        let aig = build_circuit(ni, &ops, no);
        let ands: Vec<NodeId> = aig.iter_ands().collect();
        if ands.is_empty() {
            return Ok(());
        }
        let s_cand: Vec<_> = cand_picks.iter().map(|&p| ands[p as usize % ands.len()]).collect();
        let patterns = PatternSet::random(aig.num_inputs(), 2, 32);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        for threads in THREAD_COUNTS {
            let (cpm, _) = dualphase_als::cpm::compute_partial_with(
                &aig, &sim, &cuts, &s_cand, &WorkerPool::new(threads),
            ).unwrap();
            for &n in &s_cand {
                let reference = brute_force_row(&aig, &patterns, n);
                prop_assert!(
                    rows_equivalent(cpm.row(n).unwrap(), &reference, aig.num_outputs()),
                    "row of {} at {} threads", n, threads
                );
            }
        }
    }

    #[test]
    fn fused_eval_is_bit_identical_to_materialised_eval(
        (ni, ops, no) in arb_ops(),
        perturb in any::<u16>(),
    ) {
        let aig = build_circuit(ni, &ops, no);
        let patterns = PatternSet::random(aig.num_inputs(), 4, 33);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let cpm = dualphase_als::cpm::compute_full(&aig, &sim, &cuts).unwrap();
        for kind in [MetricKind::Er, MetricKind::Med, MetricKind::Mse] {
            let Some(state) = perturbed_state(&aig, &sim, &patterns, kind, perturb) else {
                return Ok(());
            };
            for lac in constant_lacs(&aig, None) {
                let Some(row) = cpm.row(lac.target) else { continue };
                let d = lac.change_vector(&sim);
                // reference: materialise d ∧ P, drop zero vectors, eval_flips
                let dense: Vec<FlipVec> = row
                    .iter()
                    .filter_map(|(o, p)| {
                        let bits = p.and(&d);
                        (!bits.is_zero()).then_some(FlipVec { output: o as usize, bits })
                    })
                    .collect();
                let sparse: Vec<SparseFlip<'_>> = row
                    .iter()
                    .map(|(o, bits)| SparseFlip { output: o as usize, bits })
                    .collect();
                let reference = state.eval_flips(&dense);
                let fused = state.eval_flips_sparse(&d, &sparse);
                prop_assert_eq!(
                    reference.to_bits(), fused.to_bits(),
                    "{} {:?}: {} vs {}", kind, lac, reference, fused
                );
            }
        }
    }

    #[test]
    fn batch_lac_evaluation_matches_dense_reference((ni, ops, no) in arb_ops()) {
        use dualphase_als::engine::{Ctx, FlowConfig};
        let aig = build_circuit(ni, &ops, no);
        if aig.iter_ands().next().is_none() {
            return Ok(());
        }
        let lacs = constant_lacs(&aig, None);
        let mut per_thread = Vec::new();
        for threads in THREAD_COUNTS {
            let cfg = FlowConfig::new(MetricKind::Med, 1.0)
                .with_patterns(256)
                .with_threads(threads);
            let mut ctx = Ctx::new(&aig, &cfg);
            let cuts = CutState::compute(&ctx.aig);
            let cpm = dualphase_als::cpm::compute_full(&ctx.aig, &ctx.sim, &cuts).unwrap();
            let evals = ctx.evaluate_lacs(&cpm, &lacs).unwrap();
            // dense reference: materialised flip vectors through eval_flips
            for e in &evals {
                let row = cpm.row(e.lac.target).unwrap();
                let d = e.lac.change_vector(&ctx.sim);
                let dense: Vec<FlipVec> = row
                    .iter()
                    .filter_map(|(o, p)| {
                        let bits = p.and(&d);
                        (!bits.is_zero()).then_some(FlipVec { output: o as usize, bits })
                    })
                    .collect();
                let reference = ctx.state.eval_flips(&dense);
                prop_assert_eq!(
                    reference.to_bits(), e.error_after.to_bits(),
                    "{:?} at {} threads", e.lac, threads
                );
            }
            per_thread.push(evals);
        }
        // and serial vs parallel batches are byte-identical
        let (a, b) = (&per_thread[0], &per_thread[1]);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.lac, y.lac);
            prop_assert_eq!(x.error_after.to_bits(), y.error_after.to_bits());
            prop_assert_eq!(x.saving, y.saving);
        }
    }

    /// Structural dedup inside `evaluate_lacs` must be invisible: a
    /// candidate list with literal duplicates (every LAC listed twice)
    /// yields one result per *input* candidate, each bit-identical to the
    /// brute-force per-candidate dense evaluation, with duplicate entries
    /// agreeing exactly.
    #[test]
    fn deduplicated_batch_matches_per_candidate_reference((ni, ops, no) in arb_ops()) {
        use dualphase_als::engine::{Ctx, FlowConfig};
        let aig = build_circuit(ni, &ops, no);
        if aig.iter_ands().next().is_none() {
            return Ok(());
        }
        let base = constant_lacs(&aig, None);
        // Interleave duplicates so representatives and their copies are
        // not adjacent in class order.
        let mut lacs: Vec<Lac> = base.clone();
        lacs.extend(base.iter().copied());
        for threads in THREAD_COUNTS {
            let cfg = FlowConfig::new(MetricKind::Med, 1.0)
                .with_patterns(256)
                .with_threads(threads);
            let mut ctx = Ctx::new(&aig, &cfg);
            let cuts = CutState::compute(&ctx.aig);
            let cpm = dualphase_als::cpm::compute_full(&ctx.aig, &ctx.sim, &cuts).unwrap();
            let evals = ctx.evaluate_lacs(&cpm, &lacs).unwrap();
            // one result per input candidate, in input order
            prop_assert_eq!(evals.len(), lacs.len());
            for (e, lac) in evals.iter().zip(&lacs) {
                prop_assert_eq!(&e.lac, lac);
            }
            // each result bit-identical to the brute-force dense eval
            for e in &evals {
                let row = cpm.row(e.lac.target).unwrap();
                let d = e.lac.change_vector(&ctx.sim);
                let dense: Vec<FlipVec> = row
                    .iter()
                    .filter_map(|(o, p)| {
                        let bits = p.and(&d);
                        (!bits.is_zero()).then_some(FlipVec { output: o as usize, bits })
                    })
                    .collect();
                let reference = ctx.state.eval_flips(&dense);
                prop_assert_eq!(
                    reference.to_bits(), e.error_after.to_bits(),
                    "{:?} at {} threads", e.lac, threads
                );
            }
            // duplicate entries agree exactly (error AND saving)
            let half = base.len();
            for (x, y) in evals[..half].iter().zip(&evals[half..]) {
                prop_assert_eq!(x.lac, y.lac);
                prop_assert_eq!(x.error_after.to_bits(), y.error_after.to_bits());
                prop_assert_eq!(x.saving, y.saving);
            }
        }
    }
}

/// A whole DP run through the `als` binary writes the same circuit with
/// the fused evaluator and with the `ALS_SIMD=0` reference evaluator.
/// 1000 patterns leave the last word partial, so tail masking is part of
/// the comparison. DP-SA is left out: its self-adaption reads wall-clock
/// step times, so its output may change with machine load.
#[test]
fn reference_evaluator_writes_the_same_circuit_end_to_end() {
    let als = env!("CARGO_BIN_EXE_als");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for (circuit, metric, bound) in [("c880", "er", "0.05"), ("sm9x8", "med", "4.0")] {
        let synth = [
            "synth",
            circuit,
            "--flow",
            "dp",
            "--metric",
            metric,
            "--bound",
            bound,
            "--patterns",
            "1000",
        ];
        let fused_out = dir.join(format!("als-oracle-{pid}-{circuit}-fused.aag"));
        let reference_out = dir.join(format!("als-oracle-{pid}-{circuit}-reference.aag"));
        let st = Command::new(als)
            .args(synth)
            .args(["-o", fused_out.to_str().unwrap()])
            .env_remove("ALS_SIMD")
            .status()
            .unwrap();
        assert!(st.success(), "{circuit}: fused run failed");
        let st = Command::new(als)
            .args(synth)
            .args(["-o", reference_out.to_str().unwrap()])
            .env("ALS_SIMD", "0")
            .status()
            .unwrap();
        assert!(st.success(), "{circuit}: reference run failed");
        let fused = std::fs::read(&fused_out).unwrap();
        let reference = std::fs::read(&reference_out).unwrap();
        assert_eq!(fused, reference, "{circuit}: the two evaluators wrote different circuits");
        for p in [&fused_out, &reference_out] {
            std::fs::remove_file(p).ok();
        }
    }
}
