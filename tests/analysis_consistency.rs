//! Cross-crate consistency: the exact analyses (disjoint cuts → CPM →
//! error deltas) must agree with brute-force oracles on real benchmark
//! circuits, and every incremental path must agree with its from-scratch
//! counterpart.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dualphase_als::aig::{Aig, NodeId};
use dualphase_als::circuits::{benchmark, benchmark_names, BenchmarkScale};
use dualphase_als::cpm::reference::{brute_force_row, rows_equivalent};
use dualphase_als::cpm::{compute_full, compute_partial};
use dualphase_als::cuts::disjoint::verify_cut;
use dualphase_als::cuts::{closest_disjoint_cut, CutState, ReachMap};
use dualphase_als::lac::{constant_lacs, Lac};
use dualphase_als::sim::{PatternSet, Simulator};

fn mult33() -> Aig {
    dualphase_als::circuits::mult::mult(3, 3)
}

#[test]
fn all_cuts_of_benchmarks_are_valid_disjoint_cuts() {
    for name in ["c880", "c1908", "adder"] {
        let aig = benchmark(name, BenchmarkScale::Reduced);
        let cuts = CutState::compute(&aig);
        for n in aig.iter_live() {
            verify_cut(&aig, cuts.reach(), n, cuts.cut(n))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

/// A topological order unlike `topo_ranks`'s depth-first one: Kahn's
/// algorithm, taking a random ready node at every step.
fn kahn_ranks(aig: &Aig, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending = vec![0u32; aig.num_nodes()];
    let mut ready = Vec::new();
    for n in aig.iter_live() {
        if aig.node(n).is_and() {
            pending[n.index()] = 2; // one fanout entry per fanin slot
        } else {
            ready.push(n);
        }
    }
    let mut ranks = vec![u32::MAX; aig.num_nodes()];
    let mut next = 0;
    while !ready.is_empty() {
        let u = ready.swap_remove(rng.random_below(ready.len() as u64) as usize);
        ranks[u.index()] = next;
        next += 1;
        for &f in aig.fanouts(u) {
            pending[f.index()] -= 1;
            if pending[f.index()] == 0 {
                ready.push(f);
            }
        }
    }
    ranks
}

#[test]
fn cut_loop_matches_pairwise_reference_under_any_topological_order() {
    use dualphase_als::cuts::reference;
    for name in benchmark_names() {
        let aig = benchmark(name, BenchmarkScale::Reduced);
        let reach = ReachMap::compute(&aig);
        let ranks = dualphase_als::aig::topo::topo_ranks(&aig);
        // The incremental state keeps old ranks while a fresh compute takes
        // new ones, so a node's cut must not depend on the order chosen.
        let other = kahn_ranks(&aig, name.len() as u64);
        for n in aig.iter_live() {
            let cut = closest_disjoint_cut(&aig, &reach, &ranks, n);
            let expect = reference::closest_disjoint_cut(&aig, &reach, &ranks, n);
            assert_eq!(cut, expect, "{name}: cut of {n}");
            assert_eq!(
                closest_disjoint_cut(&aig, &reach, &other, n),
                cut,
                "{name}: cut of {n} under a second topological order"
            );
        }
    }
}

#[test]
fn full_cpm_equals_brute_force_on_multiplier() {
    let aig = mult33();
    let patterns = PatternSet::exhaustive(6);
    let sim = Simulator::new(&aig, &patterns);
    let cuts = CutState::compute(&aig);
    let cpm = compute_full(&aig, &sim, &cuts).unwrap();
    for n in aig.iter_live() {
        let reference = brute_force_row(&aig, &patterns, n);
        assert!(
            rows_equivalent(cpm.row(n).unwrap(), &reference, aig.num_outputs()),
            "CPM row of {n} diverges"
        );
    }
}

#[test]
fn partial_cpm_agrees_with_full_on_any_candidate_set() {
    let aig = benchmark("c1908", BenchmarkScale::Reduced);
    let patterns = PatternSet::random(aig.num_inputs(), 8, 42);
    let sim = Simulator::new(&aig, &patterns);
    let cuts = CutState::compute(&aig);
    let full = compute_full(&aig, &sim, &cuts).unwrap();
    let ands: Vec<NodeId> = aig.iter_ands().collect();
    for chunk in ands.chunks(17).take(5) {
        let (partial, _) = compute_partial(&aig, &sim, &cuts, chunk).unwrap();
        for &n in chunk {
            assert_eq!(partial.row(n), full.row(n), "row of {n}");
        }
    }
}

#[test]
fn incremental_cut_state_survives_long_lac_sequences() {
    let mut aig = benchmark("sm9x8", BenchmarkScale::Reduced);
    let mut state = CutState::compute(&aig);
    let mut applied = 0;
    // apply 25 constant LACs on arbitrary surviving gates
    for i in 0.. {
        if applied >= 25 {
            break;
        }
        let Some(target) = aig.iter_ands().nth(i % 7) else { break };
        let lac = if i % 2 == 0 { Lac::const0(target) } else { Lac::const1(target) };
        let rec = lac.apply(&mut aig);
        state.update_after(&aig, &rec);
        applied += 1;
    }
    assert!(applied >= 10, "not enough LACs applied to be meaningful");
    let fresh = CutState::compute(&aig);
    for n in aig.iter_live() {
        assert_eq!(state.reach().mask(n), fresh.reach().mask(n), "reach of {n}");
        assert_eq!(state.cut(n), fresh.cut(n), "cut of {n}");
    }
}

#[test]
fn cpm_estimates_equal_measured_errors_for_constant_lacs() {
    use dualphase_als::error::{unsigned_weights, ErrorState, FlipVec, MetricKind};
    let aig = mult33();
    let patterns = PatternSet::exhaustive(6);
    let sim = Simulator::new(&aig, &patterns);
    let cuts = CutState::compute(&aig);
    let cpm = compute_full(&aig, &sim, &cuts).unwrap();
    let golden: Vec<_> = (0..aig.num_outputs()).map(|o| sim.output_value(&aig, o)).collect();

    for metric in [MetricKind::Er, MetricKind::Med, MetricKind::Mse] {
        let state =
            ErrorState::new(metric, unsigned_weights(aig.num_outputs()), golden.clone(), &golden);
        for lac in constant_lacs(&aig, None) {
            let d = lac.change_vector(&sim);
            let flips: Vec<FlipVec> = cpm
                .row(lac.target)
                .unwrap()
                .iter()
                .map(|(o, p)| FlipVec { output: o as usize, bits: p.and(&d) })
                .collect();
            let predicted = state.eval_flips(&flips);

            // ground truth: apply the LAC to a copy and resimulate fully
            let mut copy = aig.clone();
            lac.apply(&mut copy);
            let approx_sim = Simulator::new(&copy, &patterns);
            let approx: Vec<_> =
                (0..copy.num_outputs()).map(|o| approx_sim.output_value(&copy, o)).collect();
            let truth = ErrorState::new(
                metric,
                unsigned_weights(aig.num_outputs()),
                golden.clone(),
                &approx,
            )
            .error();
            assert!(
                (predicted - truth).abs() < 1e-9,
                "{metric} {lac:?}: predicted {predicted} vs true {truth}"
            );
        }
    }
}
