//! Tail-lane masking: pattern counts that are not a multiple of 64.
//!
//! Word-level simulation legitimately leaves garbage in the lanes beyond
//! the logical pattern count (e.g. `NOT` sets them all). Every consumer
//! that counts bits or accumulates per-pattern error must mask the last
//! word — this suite pins that contract against a per-*bit* reference
//! that never looks past the logical count:
//!
//! * `er`/`med`/`mse` of a freshly refreshed [`ErrorState`] are
//!   bit-identical to the per-bit recomputation (the accumulation order
//!   is the same, so exact `f64` equality is required, not tolerance),
//! * the per-target table evaluation predicts the *measured* error of
//!   every applied LAC, constants and SASIMI substitutions alike —
//!   garbage tails in `D` or in the CPM rows must not leak into the
//!   estimate,
//! * the masked distance kernel behind SASIMI candidate search counts
//!   exactly the per-bit disagreements below the logical count.

use proptest::prelude::*;

use dualphase_als::aig::{Aig, Lit, NodeId};
use dualphase_als::cuts::CutState;
use dualphase_als::error::{unsigned_weights, ErrorState, MetricKind, RowDeltas, SparseFlip};
use dualphase_als::lac::{generate, CandidateConfig, Lac};
use dualphase_als::sim::kernel::masked_distance;
use dualphase_als::sim::{PackedBits, PatternSet, Simulator};

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
            5..40,
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

fn output_values(aig: &Aig, sim: &Simulator) -> Vec<PackedBits> {
    (0..aig.num_outputs()).map(|o| sim.output_value(aig, o)).collect()
}

/// Per-bit reference: `(wrong_count, signed_err)` per pattern, reading one
/// bit at a time and never touching lanes `>= n`. The accumulation order
/// (outputs ascending, then patterns) matches `ErrorState::refresh`, so
/// the resulting `f64`s are bit-identical.
fn per_bit_reference(
    golden: &[PackedBits],
    approx: &[PackedBits],
    weights: &[f64],
    n: usize,
) -> (Vec<usize>, Vec<f64>) {
    let mut wrong = vec![0usize; n];
    let mut err = vec![0f64; n];
    for (o, (g, a)) in golden.iter().zip(approx).enumerate() {
        let w = weights.get(o).copied().unwrap_or(0.0);
        for p in 0..n {
            let (gb, ab) = (g.get(p), a.get(p));
            if gb != ab {
                wrong[p] += 1;
                err[p] += if gb { -w } else { w };
            }
        }
    }
    (wrong, err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn masked_distance_matches_per_bit_reference_at_odd_pattern_counts(
        a in proptest::collection::vec(any::<u64>(), 1..5),
        b_seed in any::<u64>(),
        off in 0usize..64,
    ) {
        // `b` is `a` with a few words replaced, so both near and far pairs
        // occur; the lanes at and above `n` hold whatever the words held.
        let b: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &w)| if (b_seed >> i) & 1 == 1 { w ^ b_seed.rotate_left(i as u32) } else { w })
            .collect();
        let n = a.len() * 64 - off;
        let bit = |v: &[u64], p: usize| v[p / 64] >> (p % 64) & 1;
        let want = (0..n).filter(|&p| bit(&a, p) != bit(&b, p)).count();
        prop_assert_eq!(masked_distance(&a, &b, n), want);
        prop_assert_eq!(masked_distance(&b, &a, n), want);
    }

    #[test]
    fn metrics_match_per_bit_reference_at_odd_pattern_counts(
        (ni, ops, no) in arb_ops(),
        words in 2usize..4,
        off in 1usize..63,
        perturb in any::<u16>(),
    ) {
        let aig = build_circuit(ni, &ops, no);
        let ands: Vec<NodeId> = aig.iter_ands().collect();
        if ands.is_empty() {
            return Ok(());
        }
        // A logical count strictly inside the last word: garbage lanes
        // exist and must be invisible.
        let n = words * 64 - off;
        let patterns =
            PatternSet::random(aig.num_inputs(), words, 35).with_pattern_count(n);
        let sim = Simulator::new(&aig, &patterns);
        prop_assert_eq!(sim.num_patterns(), n);
        let golden = output_values(&aig, &sim);

        let mut copy = aig.clone();
        Lac::const0(ands[perturb as usize % ands.len()]).apply(&mut copy);
        let approx_sim = Simulator::new(&copy, &patterns);
        let approx = output_values(&copy, &approx_sim);

        let weights = unsigned_weights(aig.num_outputs());
        let (wrong, err) = per_bit_reference(&golden, &approx, &weights, n);
        let er_ref = wrong.iter().filter(|&&c| c > 0).count() as f64 / n as f64;
        let med_ref = err.iter().map(|e| e.abs()).sum::<f64>() / n as f64;
        let mse_ref = err.iter().map(|e| e * e).sum::<f64>() / n as f64;

        for kind in [MetricKind::Er, MetricKind::Med, MetricKind::Mse] {
            let state = ErrorState::with_pattern_count(
                kind, weights.clone(), golden.clone(), &approx, n,
            );
            prop_assert_eq!(state.num_patterns(), n);
            prop_assert_eq!(state.er().to_bits(), er_ref.to_bits(), "er under {}", kind);
            prop_assert_eq!(state.med().to_bits(), med_ref.to_bits(), "med under {}", kind);
            prop_assert_eq!(state.mse().to_bits(), mse_ref.to_bits(), "mse under {}", kind);
            let tracked = match kind {
                MetricKind::Er => er_ref,
                MetricKind::Med => med_ref,
                MetricKind::Mse => mse_ref,
            };
            prop_assert_eq!(state.error().to_bits(), tracked.to_bits(), "error() under {}", kind);
        }
    }

    #[test]
    fn sparse_eval_predicts_measured_error_at_odd_pattern_counts(
        (ni, ops, no) in arb_ops(),
        words in 2usize..4,
        off in 1usize..63,
    ) {
        let aig = build_circuit(ni, &ops, no);
        if aig.iter_ands().next().is_none() {
            return Ok(());
        }
        let n = words * 64 - off;
        let patterns =
            PatternSet::random(aig.num_inputs(), words, 36).with_pattern_count(n);
        let sim = Simulator::new(&aig, &patterns);
        let golden = output_values(&aig, &sim);
        let cuts = CutState::compute(&aig);
        let cpm = dualphase_als::cpm::compute_full(&aig, &sim, &cuts).unwrap();
        let weights = unsigned_weights(aig.num_outputs());

        let lacs = generate(&aig, &sim, &CandidateConfig::sasimi(8), None);
        let mut table = RowDeltas::default();
        for kind in [MetricKind::Er, MetricKind::Med, MetricKind::Mse] {
            // Approximation-free baseline: golden vs golden.
            let state = ErrorState::with_pattern_count(
                kind, weights.clone(), golden.clone(), &golden, n,
            );
            for lac in &lacs {
                let Some(row) = cpm.row(lac.target) else { continue };
                let d = lac.change_vector(&sim);
                let entries: Vec<SparseFlip<'_>> = row
                    .iter()
                    .map(|(o, bits)| SparseFlip { output: o as usize, bits })
                    .collect();
                state.row_deltas_into(&entries, &mut table);
                let predicted = state.error_with(&d, &table);

                // Measured: apply the LAC, resimulate, rebuild the state.
                let mut copy = aig.clone();
                lac.apply(&mut copy);
                let approx_sim = Simulator::new(&copy, &patterns);
                let approx = output_values(&copy, &approx_sim);
                let measured = ErrorState::with_pattern_count(
                    kind, weights.clone(), golden.clone(), &approx, n,
                )
                .error();
                prop_assert!(
                    (predicted - measured).abs() <= 1e-9,
                    "{} {:?}: predicted {} vs measured {}", kind, lac, predicted, measured
                );
            }
        }
    }
}
