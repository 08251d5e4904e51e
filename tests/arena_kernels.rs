//! The arena-backed CPM and the per-target table evaluator must be
//! byte-identical to the brute-force/materialising reference
//! implementations.
//!
//! Random circuits via proptest, checked at thread counts {1, 4}:
//!
//! * full and partial arena CPM rows vs. the brute-force flip-and-resim
//!   oracle (absent entries must be zero vectors — the arena drops
//!   annihilated entries at write time),
//! * one `RowDeltas` table per target, priced for every SASIMI candidate
//!   at that target, vs. materialising the flip vectors and calling
//!   `eval_flips` — exact `f64` bit equality,
//! * batch LAC evaluation through the engine vs. a dense re-evaluation of
//!   every candidate, serial and parallel, at a partial last word,
//! * a candidate list with duplicates returns one result per input
//!   candidate, duplicates bit-equal.
//!
//! End to end, the `als` binary must write the same AIGER bytes whether
//! the engine evaluates candidates with the table or, under `ALS_SIMD=0`,
//! with the materialising reference.

use std::process::Command;

use proptest::prelude::*;

use dualphase_als::aig::{Aig, Lit, NodeId};
use dualphase_als::cpm::reference::{brute_force_row, rows_equivalent};
use dualphase_als::cpm::RowView;
use dualphase_als::cuts::CutState;
use dualphase_als::error::{
    unsigned_weights, ErrorState, FlipVec, MetricKind, RowDeltas, SparseFlip,
};
use dualphase_als::lac::{constant_lacs, generate, CandidateConfig, Lac};
use dualphase_als::par::WorkerPool;
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
    weights: Vec<f64>,
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
    Some(ErrorState::new(kind, weights, golden, &approx))
}

/// The materialising reference: `d ∧ P` per entry, all-zero vectors
/// dropped, through `eval_flips`.
fn dense_eval(state: &ErrorState, row: RowView<'_>, d: &PackedBits) -> f64 {
    let dense: Vec<FlipVec> = row
        .iter()
        .filter_map(|(o, p)| {
            let bits = p.and(d);
            (!bits.is_zero()).then_some(FlipVec { output: o as usize, bits })
        })
        .collect();
    state.eval_flips(&dense)
}

/// Constants plus up to 8 SASIMI substitutions per target: the
/// many-candidates-per-target case a per-target table must price.
fn sasimi_candidates(aig: &Aig, sim: &Simulator) -> Vec<Lac> {
    generate(aig, sim, &CandidateConfig::sasimi(8), None)
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
        let lacs = sasimi_candidates(&aig, &sim);
        // Power-of-two weights sum exactly on these small circuits; the
        // non-dyadic 0.1·(o + 1) weights make every f64 addition
        // order-sensitive, so a reordered build or gather shows.
        let k = aig.num_outputs();
        let weight_sets = [unsigned_weights(k), (1..=k).map(|o| 0.1 * o as f64).collect()];
        for (kind, weights) in [MetricKind::Er, MetricKind::Med, MetricKind::Mse]
            .into_iter()
            .flat_map(|kind| weight_sets.iter().map(move |w| (kind, w.clone())))
        {
            let Some(state) = perturbed_state(&aig, &sim, &patterns, kind, weights, perturb)
            else {
                return Ok(());
            };
            // One table per target, reused for every candidate at it and
            // rebuilt over the previous target's contents.
            let mut table = RowDeltas::default();
            for target in aig.iter_ands() {
                let Some(row) = cpm.row(target) else { continue };
                let entries: Vec<SparseFlip<'_>> = row
                    .iter()
                    .map(|(o, bits)| SparseFlip { output: o as usize, bits })
                    .collect();
                state.row_deltas_into(&entries, &mut table);
                for lac in lacs.iter().filter(|l| l.target == target) {
                    let d = lac.change_vector(&sim);
                    let reference = dense_eval(&state, row, &d);
                    let priced = state.error_with(&d, &table);
                    prop_assert_eq!(
                        reference.to_bits(), priced.to_bits(),
                        "{} {:?}: {} vs {}", kind, lac, reference, priced
                    );
                }
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
        for kind in [MetricKind::Med, MetricKind::Mse] {
            let mut per_thread = Vec::new();
            for threads in THREAD_COUNTS {
                // 200 patterns leave the last word partial.
                let cfg = FlowConfig::new(kind, 1.0).with_patterns(200).with_threads(threads);
                let mut ctx = Ctx::new(&aig, &cfg);
                let lacs = sasimi_candidates(&ctx.aig, &ctx.sim);
                let cuts = CutState::compute(&ctx.aig);
                let cpm = dualphase_als::cpm::compute_full(&ctx.aig, &ctx.sim, &cuts).unwrap();
                let evals = ctx.evaluate_lacs(&cpm, &lacs).unwrap();
                // every candidate has a row here, so one result each, in order
                prop_assert_eq!(evals.len(), lacs.len());
                for (e, lac) in evals.iter().zip(&lacs) {
                    prop_assert_eq!(&e.lac, lac);
                    let row = cpm.row(e.lac.target).unwrap();
                    let reference = dense_eval(&ctx.state, row, &e.lac.change_vector(&ctx.sim));
                    prop_assert_eq!(
                        reference.to_bits(), e.error_after.to_bits(),
                        "{} {:?} at {} threads", kind, e.lac, threads
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
    }

    /// A candidate list with literal duplicates (every LAC listed twice)
    /// yields one result per *input* candidate, each bit-identical to the
    /// per-candidate dense evaluation, with duplicate entries agreeing
    /// exactly.
    #[test]
    fn duplicate_candidates_get_bit_equal_results((ni, ops, no) in arb_ops()) {
        use dualphase_als::engine::{Ctx, FlowConfig};
        let aig = build_circuit(ni, &ops, no);
        if aig.iter_ands().next().is_none() {
            return Ok(());
        }
        let base = constant_lacs(&aig, None);
        // The copies follow the whole first list, so a target's
        // candidates are not adjacent in the input.
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
                let row = cpm.row(e.lac.target).unwrap();
                let reference = dense_eval(&ctx.state, row, &e.lac.change_vector(&ctx.sim));
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
/// the table evaluator and with the `ALS_SIMD=0` reference evaluator,
/// under ER (c880), MED (sm9x8) and MSE (adder, at the benchmark's
/// threshold index 1). 1000 patterns leave the last word partial, so tail
/// masking is part of the comparison. Each case must apply at least 5
/// LACs, so the comparison covers more than the first selection. DP-SA
/// is left out: its self-adaption reads wall-clock step times, so its
/// output may change with machine load.
#[test]
fn reference_evaluator_writes_the_same_circuit_end_to_end() {
    use dualphase_als::circuits::{benchmark, BenchmarkScale};
    let als = env!("CARGO_BIN_EXE_als");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let adder_outputs = benchmark("adder", BenchmarkScale::Reduced).num_outputs();
    let adder_bound = dualphase_als::error::paper_thresholds(MetricKind::Mse, adder_outputs)[1];
    let cases = [
        ("c880", "er", "0.05".to_string()),
        ("sm9x8", "med", "4.0".to_string()),
        ("adder", "mse", adder_bound.to_string()),
    ];
    for (circuit, metric, bound) in &cases {
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
        let run = |label: &str, simd: Option<&str>| {
            let out = dir.join(format!("als-oracle-{pid}-{circuit}-{label}.aag"));
            let mut cmd = Command::new(als);
            cmd.args(synth).args(["-o", out.to_str().unwrap()]).env_remove("ALS_SIMD");
            if let Some(v) = simd {
                cmd.env("ALS_SIMD", v);
            }
            let res = cmd.output().unwrap();
            assert!(res.status.success(), "{circuit}: {label} run failed");
            // "... | N LACs in T"
            let stdout = String::from_utf8_lossy(&res.stdout).into_owned();
            let lacs: usize = stdout
                .split(" LACs in")
                .next()
                .and_then(|head| head.rsplit(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{circuit}: no LAC count in {stdout:?}"));
            let bytes = std::fs::read(&out).unwrap();
            std::fs::remove_file(&out).ok();
            (bytes, lacs)
        };
        let (table, lacs) = run("table", None);
        let (reference, _) = run("reference", Some("0"));
        assert!(lacs >= 5, "{circuit}: only {lacs} LACs applied");
        assert_eq!(table, reference, "{circuit}: the two evaluators wrote different circuits");
    }
}
