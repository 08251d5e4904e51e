//! Closest disjoint cuts (SEALS-style).

use als_aig::{Aig, NodeId};
use als_sim::PackedBits;

use crate::reach::{masks_intersect, ReachMap};

/// One member of a disjoint cut: an internal node, or a primary output
/// treated as a virtual sink node.
///
/// Output members arise when the node under analysis drives an output
/// directly, or when reconvergence forces the frontier all the way to a
/// sink.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CutMember {
    /// An internal gate (or input) node.
    Node(NodeId),
    /// The virtual sink of primary output `o`.
    Output(u32),
}

/// A disjoint cut of some node `n`: a set of one-cuts, exactly one per
/// output reachable from `n`, whose transitive-fanout cones are pairwise
/// disjoint.
///
/// Each member *covers* the outputs reachable from it; the members' covered
/// sets partition the outputs reachable from `n`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DisjointCut {
    members: Vec<CutMember>,
}

impl DisjointCut {
    /// Builds a cut from explicit members (sorted and deduplicated).
    ///
    /// The caller is responsible for the disjoint-cut property; use
    /// [`verify_cut`] in tests. The always-valid trivial cut is the set of
    /// reachable output sinks.
    pub fn from_members(mut members: Vec<CutMember>) -> DisjointCut {
        members.sort();
        members.dedup();
        DisjointCut { members }
    }

    /// The cut members, sorted.
    pub fn members(&self) -> &[CutMember] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cut is empty (node reaches no output).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Internal-node members only.
    pub fn node_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().filter_map(|m| match m {
            CutMember::Node(n) => Some(*n),
            CutMember::Output(_) => None,
        })
    }

    /// The outputs covered by `member`: for a node member, its reachable
    /// set; for an output member, that single output.
    pub fn covered_outputs(member: CutMember, reach: &ReachMap) -> Vec<usize> {
        match member {
            CutMember::Node(t) => reach.reachable_outputs(t),
            CutMember::Output(o) => vec![o as usize],
        }
    }
}

/// Mask of a member over output indices.
pub(crate) fn member_mask(member: CutMember, reach: &ReachMap) -> PackedBits {
    match member {
        CutMember::Node(t) => reach.mask(t).clone(),
        CutMember::Output(o) => {
            let mut m = PackedBits::zeros(reach.mask_words());
            m.set(o as usize, true);
            m
        }
    }
}

/// Expansion priority: topological rank for nodes, maximal for sinks.
pub(crate) fn member_rank(member: CutMember, rank: &[u32]) -> u64 {
    match member {
        CutMember::Node(t) => rank[t.index()] as u64,
        CutMember::Output(o) => u64::from(u32::MAX) + 1 + o as u64,
    }
}

/// Calls `f(word, bits)` for each nonzero word of `member`'s mask, borrowing
/// a node's mask from `reach` instead of materialising it.
fn for_each_mask_word(member: CutMember, reach: &ReachMap, mut f: impl FnMut(usize, u64)) {
    match member {
        CutMember::Node(t) => {
            for (w, &bits) in reach.mask(t).words().iter().enumerate() {
                if bits != 0 {
                    f(w, bits);
                }
            }
        }
        CutMember::Output(o) => f(o as usize / 64, 1 << (o % 64)),
    }
}

/// Calls `f(output)` for each set bit of `bits`, the `w`-th mask word.
fn for_each_bit(w: usize, mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(w * 64 + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Computes the closest disjoint cut of `n` by frontier expansion.
///
/// The frontier starts at `n`'s direct fanouts (plus sinks for directly
/// driven outputs). While two frontier members' covered-output masks
/// intersect — i.e. their TFO cones reconverge — the topologically earliest
/// conflicting member is expanded into *its* fanouts. Expansion always moves
/// toward the sinks, where distinct outputs are trivially disjoint, so the
/// loop terminates; expanding the earliest conflict keeps the cut as close
/// to `n` as the reconvergence structure allows.
///
/// Precisely: with the frontier ordered by rank, the first position `j`
/// whose mask meets the union of the masks before it is the conflict, and
/// the lowest-rank member before `j` that meets it is expanded. The
/// frontier is kept sorted (ranks are unique, so an equal rank is a
/// duplicate), the accepted prefix's union and a per-output owner array
/// find that member without comparing pairs, and the scan resumes at the
/// expanded position: the members before it are untouched and already
/// pairwise disjoint.
///
/// `rank` must be a topological order of the current graph, such as
/// [`als_aig::topo::topo_ranks`]; the cut does not depend on which one.
/// An unused node (empty reachable set) gets an empty cut.
pub fn closest_disjoint_cut(aig: &Aig, reach: &ReachMap, rank: &[u32], n: NodeId) -> DisjointCut {
    let mut frontier: Vec<(u64, CutMember)> = Vec::new();
    let push_successors = |frontier: &mut Vec<(u64, CutMember)>, u: NodeId| {
        let nodes = aig.fanouts(u).iter().map(|&f| CutMember::Node(f));
        let sinks = aig.output_refs(u).iter().map(|&o| CutMember::Output(o));
        for member in nodes.chain(sinks) {
            let key = member_rank(member, rank);
            if let Err(at) = frontier.binary_search_by_key(&key, |e| e.0) {
                frontier.insert(at, (key, member));
            }
        }
    };
    push_successors(&mut frontier, n);

    // Union of the masks of `frontier[..j]`, and for each output in it the
    // position of the (single) member covering it.
    let mut prefix = vec![0u64; reach.mask_words()];
    let mut owner = vec![0u32; reach.num_outputs()];
    let mut j = 0;
    while j < frontier.len() {
        let member = frontier[j].1;
        let mut conflict = u32::MAX;
        for_each_mask_word(member, reach, |w, bits| {
            for_each_bit(w, bits & prefix[w], |o| conflict = conflict.min(owner[o]));
        });
        if conflict == u32::MAX {
            for_each_mask_word(member, reach, |w, bits| {
                prefix[w] |= bits;
                for_each_bit(w, bits, |o| owner[o] = j as u32);
            });
            j += 1;
            continue;
        }
        let i = conflict as usize;
        for &(_, m) in &frontier[i..j] {
            for_each_mask_word(m, reach, |w, bits| prefix[w] &= !bits);
        }
        let (expanded_rank, CutMember::Node(t)) = frontier.remove(i) else {
            unreachable!("two output sinks never conflict, so the earlier member is a node");
        };
        // Successors rank after `t`, so they land at positions `i..`.
        debug_assert!(
            aig.fanouts(t).iter().all(|&f| u64::from(rank[f.index()]) > expanded_rank),
            "rank is not a topological order"
        );
        push_successors(&mut frontier, t);
        j = i;
    }

    let mut members: Vec<CutMember> = frontier.into_iter().map(|e| e.1).collect();
    members.sort();
    DisjointCut { members }
}

/// Validates that `cut` is a disjoint cut of `n`: covered sets are pairwise
/// disjoint, partition `reach(n)`, and every member is a one-cut for the
/// outputs it covers. Intended for tests and debug assertions.
pub fn verify_cut(aig: &Aig, reach: &ReachMap, n: NodeId, cut: &DisjointCut) -> Result<(), String> {
    let mut union = PackedBits::zeros(reach.mask_words());
    for &m in cut.members() {
        let mask = member_mask(m, reach);
        if masks_intersect(&union, &mask) {
            return Err(format!("members of cut of {n} overlap at {m:?}"));
        }
        union.or_assign(&mask);
    }
    if &union != reach.mask(n) {
        return Err(format!("cut of {n} does not cover exactly its reachable outputs"));
    }
    // One-cut property: no path from n to a covered output avoids the member.
    for &m in cut.members() {
        let blocked = match m {
            CutMember::Node(t) => Some(t),
            CutMember::Output(_) => None, // sink trivially on all its paths
        };
        let Some(t) = blocked else { continue };
        // DFS from n through fanouts, never entering t.
        let mut seen = vec![false; aig.num_nodes()];
        let mut stack = vec![n];
        seen[n.index()] = true;
        let covered = member_mask(m, reach);
        while let Some(u) = stack.pop() {
            // Any covered output driven without passing through t is a
            // violating path.
            for &o in aig.output_refs(u) {
                if covered.get(o as usize) {
                    return Err(format!("path from {n} to output {o} avoids cut member {t}"));
                }
            }
            for &f in aig.fanouts(u) {
                if f != t && !seen[f.index()] {
                    seen[f.index()] = true;
                    stack.push(f);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_aig::Aig;

    fn ranks(aig: &Aig) -> Vec<u32> {
        als_aig::topo::topo_ranks(aig)
    }

    /// The paper's Fig. 2-style circuit: a feeds b and c, which reconverge
    /// at e; d covers O1, e covers O2 and O3 via f/g.
    fn fig2() -> (Aig, NodeId) {
        let mut aig = Aig::new("fig2");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let z = aig.add_input("z");
        let a = aig.and(x, y); // node a
        let b = aig.and(a, z);
        let c = aig.and(a, !z);
        let d = aig.and(b, x);
        let e = aig.and(b, c);
        aig.add_output(d, "O1");
        aig.add_output(e, "O2");
        aig.add_output(!e, "O3");
        (aig, a.node())
    }

    #[test]
    fn reconvergence_is_resolved() {
        let (aig, a) = fig2();
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), a);
        verify_cut(&aig, &reach, a, &cut).unwrap();
        // b covers O1 via d... but b also reaches e; reconvergence of b and c
        // at e forces expansion. The exact members depend on structure, but
        // validity is what matters, plus: must cover all three outputs.
        let mut covered: Vec<usize> =
            cut.members().iter().flat_map(|&m| DisjointCut::covered_outputs(m, &reach)).collect();
        covered.sort();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn single_fanout_gives_singleton_cut() {
        let mut aig = Aig::new("chain");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g1 = aig.and(x, y);
        let g2 = aig.and(g1, x);
        aig.add_output(g2, "o");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g1.node());
        assert_eq!(cut.members(), &[CutMember::Node(g2.node())]);
        verify_cut(&aig, &reach, g1.node(), &cut).unwrap();
    }

    #[test]
    fn direct_output_gives_sink_member() {
        let mut aig = Aig::new("po");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g = aig.and(x, y);
        aig.add_output(g, "o0");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        assert_eq!(cut.members(), &[CutMember::Output(0)]);
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
    }

    #[test]
    fn fanout_to_independent_outputs_stays_close() {
        // g feeds h0 -> o0 and h1 -> o1 with no reconvergence: cut = {h0, h1}.
        let mut aig = Aig::new("split");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let z = aig.add_input("z");
        let g = aig.and(x, y);
        let h0 = aig.and(g, z);
        let h1 = aig.and(g, !z);
        aig.add_output(h0, "o0");
        aig.add_output(h1, "o1");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        let mut expect = vec![CutMember::Node(h0.node()), CutMember::Node(h1.node())];
        expect.sort();
        assert_eq!(cut.members(), expect.as_slice());
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
    }

    #[test]
    fn node_driving_output_and_gate_reconverging() {
        // g drives o0 directly and feeds h which also drives o0? Impossible —
        // one output has one driver. Instead: g -> o0 and g -> h -> o1.
        let mut aig = Aig::new("mix");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g = aig.and(x, y);
        let h = aig.and(g, x);
        aig.add_output(g, "o0");
        aig.add_output(h, "o1");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
        let mut expect = vec![CutMember::Node(h.node()), CutMember::Output(0)];
        expect.sort();
        assert_eq!(cut.members(), expect.as_slice());
    }

    #[test]
    fn every_node_of_fig2_gets_valid_cut() {
        let (aig, _) = fig2();
        let reach = ReachMap::compute(&aig);
        let rk = ranks(&aig);
        for id in aig.iter_live() {
            let cut = closest_disjoint_cut(&aig, &reach, &rk, id);
            verify_cut(&aig, &reach, id, &cut).unwrap();
        }
    }

    #[test]
    fn unused_input_gets_empty_cut() {
        let mut aig = Aig::new("u");
        let x = aig.add_input("x");
        let _unused = aig.add_input("dead");
        aig.add_output(x, "o");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), aig.inputs()[1]);
        assert!(cut.is_empty());
    }
}
