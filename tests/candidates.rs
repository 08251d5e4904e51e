//! The persistent similarity index against the from-scratch scan.
//!
//! [`SimilarityIndex`] keeps target–source distances across generation
//! calls and recomputes only the pairs of nodes whose value changed. These
//! tests drive DP-like loops on the reduced SASIMI circuits: apply a LAC,
//! and now and then apply another inside a transaction and roll it back.
//! After every step the index's candidate lists must equal
//! `candgen::reference::sasimi_lacs`, for all targets and for a 60-node
//! `S_cand`-like subset, at per-target budgets of 0, 1 and 8.
//!
//! The LACs are drawn from the reference, so the index settles rows only
//! where a check asks, and a transaction follows a commit directly: rows
//! settled inside it skip the transaction's dead target, and those cells
//! must not be trusted once the rollback revives it.
//!
//! Threads and scheduler come from the environment (`ALS_THREADS`,
//! `ALS_SCHED`), so running this file with `ALS_SCHED=force` checks the
//! index against values that resimulation computed in parallel.

use dualphase_als::aig::{Aig, Lit, NodeId};
use dualphase_als::circuits::mult::mult;
use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{Ctx, FlowConfig};
use dualphase_als::error::MetricKind;
use dualphase_als::lac::candgen::reference;
use dualphase_als::lac::{CandidateConfig, Lac, SimilarityIndex};
use dualphase_als::sim::{PatternSet, Simulator};

/// A small deterministic generator (no `rand` state to thread through).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
}

/// Requires the index to give the reference's lists, alternating whether
/// the subset or the whole circuit settles rows first.
fn assert_lists(
    index: &mut SimilarityIndex,
    ctx: &Ctx,
    subset: &[NodeId],
    step: usize,
    what: &str,
) {
    let scopes: [Option<&[NodeId]>; 2] =
        if step.is_multiple_of(2) { [Some(subset), None] } else { [None, Some(subset)] };
    for targets in scopes {
        for k in [8, 1, 0] {
            let cfg = CandidateConfig::sasimi(k);
            let got = index.sasimi_lacs(&ctx.aig, &ctx.sim, &cfg, targets);
            let want = reference::sasimi_lacs(&ctx.aig, &ctx.sim, &cfg, targets);
            assert!(
                got == want,
                "{what}, step {step}: k={k}, subset={}: index gives {} LACs, reference {}",
                targets.is_some(),
                got.len(),
                want.len()
            );
        }
    }
}

/// A LAC that changes values: a random substitution candidate, or now and
/// then a constant.
fn pick(ctx: &Ctx, rng: &mut Lcg) -> Option<Lac> {
    let gates: Vec<NodeId> = ctx.aig.iter_ands().collect();
    if gates.is_empty() {
        return None;
    }
    if rng.below(4) == 0 {
        return Some(Lac::const0(gates[rng.below(gates.len())]));
    }
    let subs = reference::sasimi_lacs(&ctx.aig, &ctx.sim, &CandidateConfig::sasimi(8), None);
    let moving: Vec<&Lac> = subs.iter().filter(|l| l.change_count(&ctx.sim) > 0).collect();
    (!moving.is_empty()).then(|| *moving[rng.below(moving.len())])
}

/// Drives `steps` applied LACs on `aig` at `patterns` patterns, with an
/// apply-and-rollback right after every third commit, checking the lists
/// throughout.
fn drive(aig: &Aig, patterns: usize, steps: usize, what: &str) {
    let cfg = FlowConfig::new(MetricKind::Mse, f64::INFINITY).with_patterns(patterns).with_seed(11);
    let mut ctx = Ctx::new(aig, &cfg);
    let mut index = SimilarityIndex::default();
    let mut rng = Lcg(patterns as u64);
    for step in 0..steps {
        let gates: Vec<NodeId> = ctx.aig.iter_ands().collect();
        let subset: Vec<NodeId> = (0..60).map(|_| gates[rng.below(gates.len())]).collect();
        if step % 3 == 2 {
            if let Some(lac) = pick(&ctx, &mut rng) {
                let records = ctx.apply_txn(&lac);
                assert_lists(&mut index, &ctx, &subset, step, &format!("{what} inside a txn"));
                ctx.rollback(&records);
            }
        }
        assert_lists(&mut index, &ctx, &subset, step, what);
        let Some(lac) = pick(&ctx, &mut rng) else { break };
        ctx.apply(&lac);
    }
    let subset: Vec<NodeId> = ctx.aig.iter_ands().take(60).collect();
    assert_lists(&mut index, &ctx, &subset, steps, what);
}

#[test]
fn index_matches_the_reference_on_the_sasimi_circuits() {
    for name in ["c880", "c1908", "c3540", "adder", "sm9x8"] {
        drive(&benchmark(name, BenchmarkScale::Reduced), 256, 12, name);
    }
}

#[test]
fn index_matches_the_reference_inside_the_last_word() {
    drive(&benchmark("adder", BenchmarkScale::Reduced), 1000, 12, "adder at 1000 patterns");
}

#[test]
fn wide_cells_match_the_reference() {
    // Above `u16::MAX` patterns the cells are `u32`. The XOR and XNOR of
    // the same inputs are two nodes of complementary value: their distance
    // is every pattern, which a `u16` cell could not hold.
    let mut aig = mult(4, 4);
    let (a, b) = (aig.inputs()[0].lit(), aig.inputs()[1].lit());
    let (x, y) = (aig.xor(a, b), aig.xor(a, !b));
    aig.add_output(x, "xor");
    aig.add_output(y, "xnor");
    drive(&aig, 65_600 - 17, 6, "mult4x4 at 65583 patterns");
}

#[test]
fn a_triangle_too_large_to_keep_still_matches_the_reference() {
    // More than 8,192 nodes: the `u16` triangle would exceed the index's
    // 64 MiB bound, so it keeps one row and recomputes it per target.
    let mut aig = Aig::new("wide");
    let mut sigs: Vec<Lit> = aig.add_inputs("x", 16);
    let mut rng = Lcg(5);
    while aig.num_nodes() < 8_300 {
        let a = sigs[rng.below(sigs.len())].xor_complement(rng.below(2) == 1);
        let b = sigs[rng.below(sigs.len())].xor_complement(rng.below(2) == 1);
        sigs.push(aig.and(a, b));
    }
    for (k, &lit) in sigs[sigs.len() - 16..].iter().enumerate() {
        aig.add_output(lit, format!("o{k}"));
    }
    let mut sim = Simulator::new(&aig, &PatternSet::random(16, 1, 3));
    let cfg = CandidateConfig::sasimi(8);
    let mut index = SimilarityIndex::default();
    for round in 0..2 {
        let targets: Vec<NodeId> = aig.iter_ands().step_by(40).collect();
        let got = index.sasimi_lacs(&aig, &sim, &cfg, Some(&targets));
        assert!(got == reference::sasimi_lacs(&aig, &sim, &cfg, Some(&targets)), "round {round}");
        // Nothing is kept: every row is computed in full, every call.
        let sources = aig.iter_live().filter(|&n| !aig.node(n).is_const0()).count() as u64;
        let work = index.last_work();
        assert_eq!(work.pairs, work.targets * (sources - 1), "round {round}");
        let target = aig.iter_ands().nth(100).unwrap();
        let record = Lac::const1(target).apply(&mut aig);
        sim.resimulate_fanout_cone(&aig, &[record.replacement.node()]);
    }
}
