//! The from-scratch SASIMI scan, kept as an oracle for tests.
//!
//! [`sasimi_lacs`] is the original formulation of
//! [`crate::SimilarityIndex::sasimi_lacs`]: on every call it marks each
//! target's TFO in a fresh vector, computes the distance to every live
//! source over every pattern word with its own masked loop, and fully
//! sorts the sources within `max_distance_frac`. It shares no distance
//! code with the index; tests require the index to return the same list.

use als_aig::{Aig, NodeId};
use als_sim::Simulator;

use crate::candgen::CandidateConfig;
use crate::lac::Lac;

/// SASIMI substitution LACs: for each target, the `max_subs_per_target`
/// most similar other signals (inputs or gates, either polarity), skipping
/// sources in the target's TFO cone.
pub fn sasimi_lacs(
    aig: &Aig,
    sim: &Simulator,
    cfg: &CandidateConfig,
    targets: Option<&[NodeId]>,
) -> Vec<Lac> {
    let target_list: Vec<NodeId> = match targets {
        Some(ts) => {
            ts.iter().copied().filter(|&n| aig.is_live(n) && aig.node(n).is_and()).collect()
        }
        None => aig.iter_ands().collect(),
    };
    // Substitution sources: all live inputs and gates.
    let sources: Vec<NodeId> = aig.iter_live().filter(|&n| !aig.node(n).is_const0()).collect();
    let num_bits = sim.num_patterns();
    // Garbage tail lanes (pattern counts not a multiple of 64) must not
    // count as disagreements — unmasked, `num_bits - d` could underflow.
    let tail = als_sim::tail_mask(num_bits);
    let max_dist = (cfg.max_distance_frac * num_bits as f64) as usize;
    let masked_distance = |a: &als_sim::PackedBits, b: &als_sim::PackedBits| -> usize {
        let (aw, bw) = (a.words(), b.words());
        aw.iter()
            .zip(bw)
            .enumerate()
            .map(|(i, (&x, &y))| {
                let mut w = x ^ y;
                if i + 1 == aw.len() {
                    w &= tail;
                }
                w.count_ones() as usize
            })
            .sum()
    };

    let mut out = Vec::new();
    for &t in &target_list {
        // TFO marks for cycle avoidance.
        let mut in_tfo = vec![false; aig.num_nodes()];
        for id in als_aig::cone::tfo_cone(aig, t) {
            in_tfo[id.index()] = true;
        }
        let tv = sim.value(t);
        // (distance, lac) best-k selection
        let mut best: Vec<(usize, Lac)> = Vec::new();
        for &s in &sources {
            if s == t || in_tfo[s.index()] {
                continue;
            }
            let d = masked_distance(tv, sim.value(s));
            let (dist, lit) =
                if d <= num_bits - d { (d, s.lit()) } else { (num_bits - d, !s.lit()) };
            if dist > max_dist {
                continue;
            }
            best.push((dist, Lac::substitute(t, lit)));
        }
        best.sort_by_key(|(d, lac)| (*d, lac.replacement().raw()));
        best.truncate(cfg.max_subs_per_target);
        out.extend(best.into_iter().map(|(_, lac)| lac));
    }
    out
}
