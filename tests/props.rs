//! Property-based tests over randomly generated AIGs: every incremental
//! data structure must agree with its from-scratch counterpart on
//! arbitrary circuits and arbitrary LAC sequences.

use proptest::prelude::*;

use dualphase_als::aig::{Aig, Lit, NodeId};
use dualphase_als::cuts::CutState;
use dualphase_als::lac::Lac;
use dualphase_als::sim::{PatternSet, Simulator};

/// Operation encoding for random circuit construction.
#[derive(Clone, Debug)]
struct Op {
    kind: u8,
    a: u16,
    b: u16,
    c: u16,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..5, any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(kind, a, b, c)| Op {
        kind,
        a,
        b,
        c,
    })
}

fn arb_ops() -> impl Strategy<Value = (usize, Vec<Op>, u8)> {
    (4usize..8, proptest::collection::vec(arb_op(), 5..50), 1u8..4)
}

/// Like [`arb_ops`], but one circuit in three drives more than 64 outputs,
/// so its reach masks span more than one word.
fn arb_ops_some_wide() -> impl Strategy<Value = (usize, Vec<Op>, u8)> {
    (arb_ops(), 0u8..3, proptest::collection::vec(arb_op(), 70..100), 65u8..100).prop_map(
        |((ni, ops, no), wide, more, many)| {
            if wide == 0 {
                (ni, [ops, more].concat(), many)
            } else {
                (ni, ops, no)
            }
        },
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

/// A deterministic LAC choice: the `pick`-th live AND replaced by a
/// constant or by a non-TFO signal.
fn choose_lac(aig: &Aig, pick: u16, mode: u8) -> Option<Lac> {
    let ands: Vec<NodeId> = aig.iter_ands().collect();
    if ands.is_empty() {
        return None;
    }
    let target = ands[pick as usize % ands.len()];
    match mode % 3 {
        0 => Some(Lac::const0(target)),
        1 => Some(Lac::const1(target)),
        _ => {
            let tfo = dualphase_als::aig::cone::tfo_cone(aig, target);
            let sub = aig
                .iter_live()
                .find(|&n| n != target && !tfo.contains(&n) && !aig.node(n).is_const0())?;
            Some(Lac::substitute(target, sub.lit().xor_complement(pick & 1 == 1)))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_circuits_are_structurally_sound((ni, ops, no) in arb_ops()) {
        let aig = build_circuit(ni, &ops, no);
        prop_assert!(dualphase_als::aig::check::check(&aig).is_ok());
    }

    #[test]
    fn lac_application_preserves_invariants(
        (ni, ops, no) in arb_ops(),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut aig = build_circuit(ni, &ops, no);
        for (pick, mode) in picks {
            let Some(lac) = choose_lac(&aig, pick, mode) else { break };
            lac.apply(&mut aig);
            prop_assert!(dualphase_als::aig::check::check(&aig).is_ok());
        }
    }

    #[test]
    fn incremental_resim_equals_fresh_sim(
        (ni, ops, no) in arb_ops(),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..5),
    ) {
        let mut aig = build_circuit(ni, &ops, no);
        let patterns = PatternSet::random(aig.num_inputs(), 4, 99);
        let mut sim = Simulator::new(&aig, &patterns);
        for (pick, mode) in picks {
            let Some(lac) = choose_lac(&aig, pick, mode) else { break };
            let rec = lac.apply(&mut aig);
            sim.resimulate_fanout_cone(&aig, &[rec.replacement.node()]);
        }
        let fresh = Simulator::new(&aig, &patterns);
        for n in aig.iter_live() {
            prop_assert_eq!(sim.value(n), fresh.value(n), "node {}", n);
        }
    }

    #[test]
    fn incremental_cuts_equal_fresh_cuts(
        (ni, ops, no) in arb_ops(),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..5),
    ) {
        let mut aig = build_circuit(ni, &ops, no);
        let mut state = CutState::compute(&aig);
        for (pick, mode) in picks {
            let Some(lac) = choose_lac(&aig, pick, mode) else { break };
            let rec = lac.apply(&mut aig);
            state.update_after(&aig, &rec);
        }
        let fresh = CutState::compute(&aig);
        for n in aig.iter_live() {
            prop_assert_eq!(state.reach().mask(n), fresh.reach().mask(n));
            prop_assert_eq!(state.cut(n), fresh.cut(n));
        }
    }

    #[test]
    fn batched_cut_update_equals_fresh_compute(
        (ni, ops, no) in arb_ops_some_wide(),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        use dualphase_als::aig::simplify::propagate_constants_from;
        use dualphase_als::cuts::reference;
        let mut aig = build_circuit(ni, &ops, no);
        let mut state = CutState::compute(&aig);
        for (pick, mode) in picks {
            let Some(lac) = choose_lac(&aig, pick, mode) else { break };
            // As a flow applies a LAC: the edit, then the folds it enables,
            // all handed to one update.
            let mut records = vec![lac.apply(&mut aig)];
            let seed = records[0].replacement.node();
            records.extend(propagate_constants_from(&mut aig, &[seed]));
            state.update_after_edits(&aig, &records);
            let fresh = CutState::compute(&aig);
            for n in aig.iter_live() {
                prop_assert_eq!(state.reach().mask(n), fresh.reach().mask(n), "reach of {}", n);
                prop_assert_eq!(state.cut(n), fresh.cut(n), "cut of {}", n);
                prop_assert_eq!(state.cpm_wave(n), fresh.cpm_wave(n), "wave of {}", n);
                // The wide circuits are the only multi-word masks the cut
                // loop meets in tests: hold it to the pairwise reference.
                let expect = reference::closest_disjoint_cut(&aig, fresh.reach(), fresh.ranks(), n);
                prop_assert_eq!(fresh.cut(n), &expect, "reference cut of {}", n);
            }
            // Within a wave, nodes are ordered by rank, and the incremental
            // state keeps old ranks: compare membership.
            let members = |s: &CutState| -> Vec<Vec<NodeId>> {
                let plan = s.full_plan(&aig).expect("every live node has a cut");
                plan.waves().iter().map(|w| { let mut w = w.clone(); w.sort(); w }).collect()
            };
            prop_assert_eq!(members(&state), members(&fresh));
        }
    }

    #[test]
    fn violated_set_covers_all_changed_cuts(
        (ni, ops, no) in arb_ops(),
        pick in any::<u16>(),
        mode in any::<u8>(),
    ) {
        use dualphase_als::cuts::violated_set;
        let mut aig = build_circuit(ni, &ops, no);
        let before = CutState::compute(&aig);
        let Some(lac) = choose_lac(&aig, pick, mode) else { return Ok(()) };
        let rec = lac.apply(&mut aig);
        let sv: std::collections::HashSet<NodeId> =
            violated_set(&aig, &rec).into_iter().collect();
        let fresh = CutState::compute(&aig);
        // S_v must be a superset of every live node whose reachability mask
        // or disjoint cut actually changed — otherwise the incremental
        // refresh would leave stale state behind.
        for n in aig.iter_live() {
            let changed = before.get_cut(n) != fresh.get_cut(n)
                || before.reach().mask(n) != fresh.reach().mask(n);
            if changed {
                prop_assert!(sv.contains(&n), "changed node {} missing from S_v", n);
            }
        }
    }

    #[test]
    fn cpm_prediction_matches_application(
        (ni, ops, no) in arb_ops(),
        pick in any::<u16>(),
        mode in any::<u8>(),
    ) {
        use dualphase_als::error::{unsigned_weights, ErrorState, FlipVec, MetricKind};
        let aig = build_circuit(ni, &ops, no);
        let Some(lac) = choose_lac(&aig, pick, mode) else { return Ok(()) };
        let patterns = PatternSet::random(aig.num_inputs(), 4, 5);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let cpm = dualphase_als::cpm::compute_full(&aig, &sim, &cuts).unwrap();
        let golden: Vec<_> =
            (0..aig.num_outputs()).map(|o| sim.output_value(&aig, o)).collect();
        let state = ErrorState::new(
            MetricKind::Med,
            unsigned_weights(aig.num_outputs()),
            golden.clone(),
            &golden,
        );
        let d = lac.change_vector(&sim);
        let flips: Vec<FlipVec> = cpm
            .row(lac.target)
            .unwrap()
            .iter()
            .map(|(o, p)| FlipVec { output: o as usize, bits: p.and(&d) })
            .collect();
        let predicted = state.eval_flips(&flips);

        let mut approx = aig.clone();
        lac.apply(&mut approx);
        let approx_sim = Simulator::new(&approx, &patterns);
        let outs: Vec<_> =
            (0..approx.num_outputs()).map(|o| approx_sim.output_value(&approx, o)).collect();
        let truth = ErrorState::new(
            MetricKind::Med,
            unsigned_weights(aig.num_outputs()),
            golden,
            &outs,
        )
        .error();
        prop_assert!((predicted - truth).abs() < 1e-9, "predicted {} vs {}", predicted, truth);
    }

    #[test]
    fn simplification_preserves_function_and_invariants(
        (ni, ops, no) in arb_ops(),
        picks in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut aig = build_circuit(ni, &ops, no);
        // rough it up with a few LACs to create foldable residue
        for (pick, mode) in picks {
            let Some(lac) = choose_lac(&aig, pick, mode % 2) else { break };
            lac.apply(&mut aig);
        }
        let patterns = PatternSet::random(aig.num_inputs(), 2, 17);
        let before = Simulator::new(&aig, &patterns);
        let before_outs: Vec<_> =
            (0..aig.num_outputs()).map(|o| before.output_value(&aig, o)).collect();
        dualphase_als::aig::simplify::simplify(&mut aig);
        prop_assert!(dualphase_als::aig::check::check(&aig).is_ok());
        let after = Simulator::new(&aig, &patterns);
        for (o, expect) in before_outs.iter().enumerate() {
            prop_assert_eq!(&after.output_value(&aig, o), expect, "output {}", o);
        }
    }

    #[test]
    fn mapping_of_random_circuits_verifies((ni, ops, no) in arb_ops()) {
        use dualphase_als::map::{map_netlist, verify_mapping, CellLibrary};
        let aig = build_circuit(ni, &ops, no);
        let (compacted, mapping) = map_netlist(&aig, &CellLibrary::new());
        prop_assert!(verify_mapping(&compacted, &mapping, 8).is_ok());
    }

    #[test]
    fn aiger_round_trip_preserves_function((ni, ops, no) in arb_ops()) {
        let aig = build_circuit(ni, &ops, no);
        let text = dualphase_als::aig::io::to_ascii_string(&aig);
        let back = dualphase_als::aig::io::from_ascii_str(&text, "rt").unwrap();
        let patterns = PatternSet::random(aig.num_inputs(), 2, 1);
        let sa = Simulator::new(&aig, &patterns);
        let sb = Simulator::new(&back, &patterns);
        for o in 0..aig.num_outputs() {
            prop_assert_eq!(sa.output_value(&aig, o), sb.output_value(&back, o));
        }
    }
}
