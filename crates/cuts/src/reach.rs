//! Reachable-primary-output bitsets.

use als_aig::{Aig, NodeId};
use als_sim::PackedBits;

/// For every node, the set of primary outputs reachable from it, as a
/// packed bitset over output indices.
///
/// Under the no-dangling invariant (every live gate reaches some output),
/// the transitive-fanout cones of two nodes intersect **iff** their
/// reachable-output sets intersect — the key fact that makes disjoint-cut
/// construction cheap. See the crate docs for the argument.
#[derive(Clone, Debug)]
pub struct ReachMap {
    num_outputs: usize,
    words: usize,
    masks: Vec<PackedBits>,
}

impl ReachMap {
    /// Computes reachability for every live node of `aig`.
    pub fn compute(aig: &Aig) -> ReachMap {
        let num_outputs = aig.num_outputs();
        let words = num_outputs.div_ceil(64);
        let mut map =
            ReachMap { num_outputs, words, masks: vec![PackedBits::zeros(words); aig.num_nodes()] };
        let order = als_aig::topo::topo_order(aig);
        for &id in order.iter().rev() {
            map.recompute_node(aig, id);
        }
        map
    }

    /// Recomputes the mask of a single node from its own output references
    /// and its fanouts' masks (which must already be up to date).
    pub fn recompute_node(&mut self, aig: &Aig, id: NodeId) {
        self.masks[id.index()] = self.fresh_mask(aig, id);
    }

    /// Computes what `id`'s mask should be — its own output references
    /// ORed with its fanouts' stored masks — without storing it. This is
    /// the local consistency relation a from-scratch [`ReachMap::compute`]
    /// establishes at every node, which makes it the ground truth for
    /// spot-checking incrementally maintained state.
    pub fn fresh_mask(&self, aig: &Aig, id: NodeId) -> PackedBits {
        let mut mask = PackedBits::zeros(self.words);
        for &o in aig.output_refs(id) {
            mask.set(o as usize, true);
        }
        for &f in aig.fanouts(id) {
            mask.or_assign(&self.masks[f.index()]);
        }
        mask
    }

    /// Recomputes the masks of `nodes` only.
    ///
    /// `nodes` must be closed under the property "my mask can change only
    /// if a fanout's mask changed or my own edges changed" — the `S_v` set
    /// of the incremental update satisfies this. Nodes are processed in
    /// reverse topological order internally.
    pub fn recompute_for(&mut self, aig: &Aig, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        let rank = als_aig::topo::topo_ranks(aig);
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_by_key(|n| std::cmp::Reverse(rank[n.index()]));
        for id in sorted {
            debug_assert!(aig.is_live(id));
            self.recompute_node(aig, id);
        }
    }

    /// Number of primary outputs covered by each mask.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Words per mask.
    pub fn mask_words(&self) -> usize {
        self.words
    }

    /// The reachable-output mask of `id`.
    pub fn mask(&self, id: NodeId) -> &PackedBits {
        &self.masks[id.index()]
    }

    /// Whether output `o` is reachable from `id`.
    pub fn reaches(&self, id: NodeId, o: usize) -> bool {
        self.masks[id.index()].get(o)
    }

    /// Whether the reachable sets of `a` and `b` intersect (equivalently,
    /// whether their TFO cones intersect, under no-dangling).
    pub fn intersects(&self, a: NodeId, b: NodeId) -> bool {
        masks_intersect(&self.masks[a.index()], &self.masks[b.index()])
    }

    /// Outputs reachable from `id`, as indices.
    pub fn reachable_outputs(&self, id: NodeId) -> Vec<usize> {
        self.masks[id.index()].iter_ones().collect()
    }
}

/// Whether two masks share a set bit.
pub fn masks_intersect(a: &PackedBits, b: &PackedBits) -> bool {
    a.words().iter().zip(b.words()).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_aig::Aig;

    /// o0 = a & b; o1 = (a & b) & c.
    fn sample() -> (Aig, NodeId, NodeId) {
        let mut aig = Aig::new("s");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g1 = aig.and(a, b);
        let g2 = aig.and(g1, c);
        aig.add_output(g1, "o0");
        aig.add_output(g2, "o1");
        (aig, g1.node(), g2.node())
    }

    #[test]
    fn masks_follow_structure() {
        let (aig, g1, g2) = sample();
        let r = ReachMap::compute(&aig);
        assert_eq!(r.reachable_outputs(g1), vec![0, 1]);
        assert_eq!(r.reachable_outputs(g2), vec![1]);
        let a = aig.inputs()[0];
        let c = aig.inputs()[2];
        assert_eq!(r.reachable_outputs(a), vec![0, 1]);
        assert_eq!(r.reachable_outputs(c), vec![1]);
        assert!(r.reaches(g1, 0) && !r.reaches(g2, 0));
    }

    #[test]
    fn intersection_matches_cone_overlap() {
        let (aig, g1, g2) = sample();
        let r = ReachMap::compute(&aig);
        assert!(r.intersects(g1, g2));
        let b = aig.inputs()[1];
        let c = aig.inputs()[2];
        assert!(r.intersects(b, c)); // both reach o1
    }

    #[test]
    fn recompute_after_edit_matches_fresh() {
        use als_aig::edit::replace;
        let (mut aig, g1, _g2) = sample();
        let mut r = ReachMap::compute(&aig);
        let sub = aig.inputs()[0].lit();
        let rec = replace(&mut aig, g1, sub);
        // S_v superset: just recompute everything live through recompute_for
        let all: Vec<NodeId> = aig.iter_live().collect();
        r.recompute_for(&aig, &all);
        let fresh = ReachMap::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(r.mask(id), fresh.mask(id), "node {id}");
        }
        let _ = rec;
    }

    #[test]
    fn many_outputs_cross_word_boundary() {
        let mut aig = Aig::new("wide");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.and(a, b);
        for i in 0..70 {
            aig.add_output(g.xor_complement(i % 2 == 1), format!("o{i}"));
        }
        let r = ReachMap::compute(&aig);
        assert_eq!(r.mask_words(), 2);
        assert_eq!(r.reachable_outputs(g.node()).len(), 70);
    }
}
