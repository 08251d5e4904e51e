//! Incremental disjoint-cut maintenance across LAC edits.
//!
//! The *cut preservation condition* (CPC) of a node `n` holds when the
//! applied LAC neither adds/removes nodes in `n`'s TFO cone nor edits edges
//! between nodes of that cone — then `n`'s previous disjoint cut is still a
//! disjoint cut and is reused. The set of nodes whose CPC may be violated is
//!
//! ```text
//! S_c = removed nodes ∪ nodes with changed fanout lists
//! S_v = (∪_{c ∈ S_c} TFI-cone(c)) \ removed
//! ```
//!
//! which [`violated_set`] computes from the [`EditRecord`] produced by
//! [`als_aig::edit::replace`]. [`CutState::update_after_edits`] then
//! refreshes reachability masks and disjoint cuts for `S_v` only — the
//! paper's phase-two step 1. One applied LAC yields several records when
//! constant folding follows it; they all describe the same final graph, so
//! the update runs once over the union of their `S_v` sets.

use std::sync::{Arc, Mutex};

use als_aig::{Aig, EditRecord, NodeId};
use als_par::{WorkerPanic, WorkerPool};

use crate::disjoint::{closest_disjoint_cut, verify_cut, DisjointCut};
use crate::reach::ReachMap;

/// Wave value of a node with no CPM wave (dead, or no stored cut).
const NO_WAVE: u32 = u32::MAX;

/// A persistent full-sweep CPM schedule: the live nodes partitioned into
/// level-synchronous waves (`wave(n) = 1 + max(wave(t))` over the node
/// members `t` of `n`'s disjoint cut; 0 with none), each wave ordered by
/// rank descending (reverse topological). All rows of a wave depend only
/// on rows from strictly earlier waves, so a CPM sweep can fill the plan
/// wave by wave — serially or fanned out — without re-deriving the
/// partition from the cut DAG on every iteration.
#[derive(Clone, Debug, Default)]
pub struct CpmPlan {
    waves: Vec<Vec<NodeId>>,
    nodes: usize,
}

impl CpmPlan {
    /// The waves in dependency order (earlier waves feed later ones).
    pub fn waves(&self) -> &[Vec<NodeId>] {
        &self.waves
    }

    /// Total nodes across all waves.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }
}

/// Interior-mutable cache slot for the full-sweep [`CpmPlan`], so a
/// `&CutState` borrow (the CPM sweep's view) can build and reuse the plan.
/// The cached plan itself is immutable behind an `Arc`; invalidation just
/// drops the reference.
#[derive(Debug, Default)]
struct PlanCell {
    inner: Mutex<PlanInner>,
}

#[derive(Debug, Default)]
struct PlanInner {
    plan: Option<Arc<CpmPlan>>,
    hits: u64,
    rebuilds: u64,
}

impl Clone for PlanCell {
    fn clone(&self) -> PlanCell {
        // The clone may share the (immutable) plan; hit accounting
        // restarts so stats stay per-state.
        let plan = self.inner.lock().unwrap_or_else(|e| e.into_inner()).plan.clone();
        PlanCell { inner: Mutex::new(PlanInner { plan, hits: 0, rebuilds: 0 }) }
    }
}

impl PlanCell {
    fn invalidate(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).plan = None;
    }
}

/// Computes `S_v`: the live nodes whose cut preservation condition may be
/// violated by `edit`.
pub fn violated_set(aig: &Aig, edit: &EditRecord) -> Vec<NodeId> {
    violated_union(aig, std::slice::from_ref(edit))
}

/// The union of [`violated_set`] over `edits`, all taken on the current
/// graph.
fn violated_union(aig: &Aig, edits: &[EditRecord]) -> Vec<NodeId> {
    let seeds: Vec<NodeId> = edits.iter().flat_map(EditRecord::changed_nodes).collect();
    let mut sv = als_aig::cone::tfi_cone_union(aig, &seeds);
    sv.retain(|&n| aig.is_live(n));
    sv
}

/// Reachability masks, topological ranks and disjoint cuts for every live
/// node — the complete "step 1" state of an analysis iteration, refreshable
/// either from scratch ([`CutState::compute`], phase one) or incrementally
/// ([`CutState::update_after_edits`], phase two).
#[derive(Clone, Debug)]
pub struct CutState {
    reach: ReachMap,
    ranks: Vec<u32>,
    cuts: Vec<Option<DisjointCut>>,
    /// Per-node CPM wave (`NO_WAVE` when none), maintained alongside the
    /// cuts: fully derived by [`CutState::compute_with`], incrementally
    /// refreshed for `S_v` by [`CutState::update_after_edits`].
    cpm_wave: Vec<u32>,
    /// Cached full-sweep schedule, dropped whenever an update changes any
    /// wave or invalidates the stored ranks.
    plan: PlanCell,
    /// Number of cut recomputations performed by the last update.
    last_update_size: usize,
    /// Rank entries refreshed by the last update (see
    /// [`CutState::last_rank_work`]).
    last_rank_work: usize,
}

/// Wave of one node from its stored cut: `1 + max(wave(t))` over node
/// members (0 with none). Members without a wave are skipped — the CPM
/// sweep surfaces that inconsistency as its missing-member-row error.
fn wave_of(cut: &DisjointCut, waves: &[u32]) -> u32 {
    let mut w = 0u32;
    for t in cut.node_members() {
        let tw = waves[t.index()];
        if tw != NO_WAVE {
            w = w.max(tw.saturating_add(1));
        }
    }
    w
}

impl CutState {
    /// Full computation for all live nodes (comprehensive analysis).
    pub fn compute(aig: &Aig) -> CutState {
        match CutState::compute_with(aig, &WorkerPool::new(1)) {
            Ok(state) => state,
            // unreachable on a serial pool: the closure runs on this thread
            Err(p) => p.resume(),
        }
    }

    /// Full computation with the disjoint cuts of independent nodes
    /// computed in parallel on `pool` — the analysis step-1
    /// parallelisation.
    ///
    /// The reach map and topological ranks are computed once up front and
    /// are read-only inputs to every [`closest_disjoint_cut`] call, so the
    /// per-node cut computations are independent; chunk-ordered joins make
    /// the result identical to [`CutState::compute`] at any thread count.
    pub fn compute_with(aig: &Aig, pool: &WorkerPool) -> Result<CutState, WorkerPanic> {
        let reach = ReachMap::compute(aig);
        let ranks = als_aig::topo::topo_ranks(aig);
        let live: Vec<NodeId> = aig.iter_live().collect();
        let computed = pool.map(
            &pool.region("cuts", 1),
            &live,
            || (),
            |(), &id| Ok::<_, WorkerPanic>(closest_disjoint_cut(aig, &reach, &ranks, id)),
        )?;
        let mut cuts = vec![None; aig.num_nodes()];
        for (&id, cut) in live.iter().zip(computed) {
            cuts[id.index()] = Some(cut);
        }
        // Derive CPM waves in reverse topological order (rank descending):
        // a cut's node members lie in the node's TFO, hence rank higher
        // and are assigned first.
        let mut cpm_wave = vec![NO_WAVE; aig.num_nodes()];
        let mut ranked: Vec<(u32, NodeId)> = live.iter().map(|&n| (ranks[n.index()], n)).collect();
        ranked.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        for &(_, n) in &ranked {
            if let Some(cut) = &cuts[n.index()] {
                cpm_wave[n.index()] = wave_of(cut, &cpm_wave);
            }
        }
        let last_update_size = live.len();
        Ok(CutState {
            reach,
            ranks,
            cuts,
            cpm_wave,
            plan: PlanCell::default(),
            last_update_size,
            last_rank_work: aig.num_nodes(),
        })
    }

    /// Incremental refresh after one edit: [`CutState::update_after_edits`]
    /// with a single record.
    pub fn update_after(&mut self, aig: &Aig, edit: &EditRecord) {
        self.update_after_edits(aig, std::slice::from_ref(edit));
    }

    /// Incremental refresh after an applied LAC: recomputes reachability
    /// and cuts only for the nodes in `S_v`, reusing everything else.
    ///
    /// `edits` are all records the LAC produced (the LAC's own, then any
    /// constant folds), already applied to `aig`. Every record's `S_v` is
    /// taken on this final graph, so the update runs once over their union
    /// rather than once per record.
    ///
    /// Topological ranks are *kept* rather than recomputed whenever the
    /// edits provably preserve their validity, which makes the whole update
    /// O(|S_v|)-ish instead of O(V+E) per LAC (the point of the paper's
    /// phase-two step 1). The argument: `replace(target, rep)` only adds
    /// fanin edges `rep → u` for `u` in `target`'s former fanout list (all
    /// other edges are deletions, which never invalidate a topological
    /// order). Every edge of the final graph that the stored ranks have not
    /// seen therefore leaves some record's replacement, and the ranks remain
    /// a valid order iff `rank(rep) < rank(u)` for every current fanout `u`
    /// of every replacement `rep` — an O(Σ fanout(rep)) check. Constant and
    /// input replacements always pass (rank 0-ish); a substitution by a
    /// topologically late node falls back to a full rank refresh, recorded
    /// in [`CutState::last_rank_work`].
    pub fn update_after_edits(&mut self, aig: &Aig, edits: &[EditRecord]) {
        let reps = || edits.iter().map(|e| e.replacement.node());
        let removed = || edits.iter().flat_map(|e| e.removed.iter().copied());
        let still_valid = self.ranks.len() == aig.num_nodes()
            && reps().all(|rep| {
                let rep_rank = self.ranks[rep.index()];
                aig.fanouts(rep).iter().all(|&u| rep_rank < self.ranks[u.index()])
            });
        if still_valid {
            // Removed nodes keep no rank: nothing may sort against them.
            for dead in removed() {
                self.ranks[dead.index()] = u32::MAX;
            }
            self.last_rank_work =
                removed().count() + reps().map(|rep| aig.fanouts(rep).len()).sum::<usize>();
        } else {
            self.ranks = als_aig::topo::topo_ranks(aig);
            self.last_rank_work = aig.num_nodes();
        }
        let mut wave_changed = false;
        for dead in removed() {
            self.cuts[dead.index()] = None;
            if self.cpm_wave[dead.index()] != NO_WAVE {
                self.cpm_wave[dead.index()] = NO_WAVE;
                wave_changed = true;
            }
        }
        // One pass in reverse topological order (rank descending). Each
        // node's fanouts, and so its whole TFO, come before it, so its reach
        // mask, then its cut (which reads the masks of its TFO), then its
        // wave (which reads its cut members' waves) see refreshed inputs.
        // `S_v` is a union of TFI cones, hence closed under "a fanout's mask
        // changed". Waves outside `S_v` cannot change: a node outside with a
        // cut member inside would lie in that member's TFI, so in `S_v`.
        let mut sv = violated_union(aig, edits);
        sv.sort_unstable_by_key(|n| std::cmp::Reverse(self.ranks[n.index()]));
        for &n in &sv {
            self.reach.recompute_node(aig, n);
            let cut = closest_disjoint_cut(aig, &self.reach, &self.ranks, n);
            let new_wave = wave_of(&cut, &self.cpm_wave);
            if self.cpm_wave[n.index()] != new_wave {
                self.cpm_wave[n.index()] = new_wave;
                wave_changed = true;
            }
            self.cuts[n.index()] = Some(cut);
        }
        // The cached plan survives an update only when nothing it encodes
        // moved: no wave changed (covers removals and revived nodes, whose
        // waves flip to/from NO_WAVE) and the stored ranks — its
        // within-wave order — were kept.
        if wave_changed || !still_valid {
            self.plan.invalidate();
        }
        self.last_update_size = sv.len();
    }

    /// The CPM wave of `n`, if it has one.
    pub fn cpm_wave(&self, n: NodeId) -> Option<u32> {
        match self.cpm_wave.get(n.index()) {
            Some(&w) if w != NO_WAVE => Some(w),
            _ => None,
        }
    }

    /// The cached full-sweep CPM schedule, built on first use and reused
    /// until an update changes a wave or the rank order. `Err` carries a
    /// live node with no stored cut (the CPM sweep's missing-cut case).
    pub fn full_plan(&self, aig: &Aig) -> Result<Arc<CpmPlan>, NodeId> {
        let mut inner = self.plan.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = inner.plan.clone() {
            inner.hits += 1;
            return Ok(plan);
        }
        let mut ranked: Vec<(u32, NodeId)> =
            aig.iter_live().map(|n| (self.ranks[n.index()], n)).collect();
        ranked.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        let mut waves: Vec<Vec<NodeId>> = Vec::new();
        let mut nodes = 0usize;
        for &(_, n) in &ranked {
            if self.cuts[n.index()].is_none() || self.cpm_wave[n.index()] == NO_WAVE {
                return Err(n);
            }
            let slot = self.cpm_wave[n.index()] as usize;
            if waves.len() <= slot {
                waves.resize_with(slot + 1, Vec::new);
            }
            waves[slot].push(n);
            nodes += 1;
        }
        let plan = Arc::new(CpmPlan { waves, nodes });
        inner.rebuilds += 1;
        inner.plan = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// `(hits, rebuilds)` of the full-sweep plan cache since this state
    /// was computed (or cloned).
    pub fn plan_stats(&self) -> (u64, u64) {
        let inner = self.plan.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.hits, inner.rebuilds)
    }

    /// The reachability map.
    pub fn reach(&self) -> &ReachMap {
        &self.reach
    }

    /// Topological ranks of the current graph.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// The disjoint cut of a live node.
    ///
    /// # Panics
    /// Panics if `n` has no stored cut (dead or never computed).
    pub fn cut(&self, n: NodeId) -> &DisjointCut {
        self.cuts[n.index()].as_ref().expect("cut of a live node")
    }

    /// The disjoint cut of `n`, if stored.
    pub fn get_cut(&self, n: NodeId) -> Option<&DisjointCut> {
        self.cuts[n.index()].as_ref()
    }

    /// Number of nodes the last (full or incremental) update touched —
    /// `|S_v|` (the union over the update's records) for incremental
    /// updates, the live-node count after a full compute.
    pub fn last_update_size(&self) -> usize {
        self.last_update_size
    }

    /// Number of rank entries the last update wrote: `|removed| +
    /// |fanout(replacement)|`, summed over the update's records, when the
    /// stored topological ranks could be kept, the full node count when a
    /// fallback recompute (or a full [`CutState::compute`]) ran. The regression tests use this to pin the
    /// incremental update's cost to `|S_v|` rather than `|V|`.
    pub fn last_rank_work(&self) -> usize {
        self.last_rank_work
    }

    /// Cheap cross-validation of the incrementally maintained state
    /// against ground truth, on up to `sample` live nodes drawn
    /// deterministically from `salt`.
    ///
    /// For each sampled node the check requires that
    ///
    /// 1. its reachability mask satisfies the local relation a from-scratch
    ///    [`ReachMap::compute`] establishes (own output references ∪
    ///    fanouts' masks),
    /// 2. a disjoint cut is stored for it,
    /// 3. the stored cut verifies against the reachability map
    ///    ([`verify_cut`]: member disjointness, exact cover, one-cut paths),
    /// 4. the stored cut equals a from-scratch recompute
    ///    ([`closest_disjoint_cut`] on the current graph).
    ///
    /// Any violation means the incremental bookkeeping (CPC reuse plus
    /// `S_v`-restricted refresh) has drifted from the circuit; the caller
    /// should discard this state and fall back to a full
    /// [`CutState::compute`]. A `sample` of zero checks nothing.
    pub fn spot_check(&self, aig: &Aig, sample: usize, salt: u64) -> Result<(), String> {
        if sample == 0 {
            return Ok(());
        }
        if self.cuts.len() != aig.num_nodes() || self.ranks.len() != aig.num_nodes() {
            return Err(format!(
                "cut state sized for {} nodes but the circuit has {}",
                self.cuts.len(),
                aig.num_nodes()
            ));
        }
        let mut live: Vec<NodeId> = aig.iter_live().collect();
        if live.is_empty() {
            return Ok(());
        }
        // SplitMix64 keeps the sample deterministic without a rand
        // dependency; distinct salts probe distinct node subsets. A partial
        // Fisher-Yates shuffle draws `sample` *distinct* nodes, so a sample
        // at least the size of the live set checks every live node.
        let mut s = salt;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let picks = sample.min(live.len());
        for i in 0..picks {
            let j = i + (next() % (live.len() - i) as u64) as usize;
            live.swap(i, j);
            let id = live[i];
            if &self.reach.fresh_mask(aig, id) != self.reach.mask(id) {
                return Err(format!("stale reachability mask of {id}"));
            }
            let Some(cut) = self.get_cut(id) else {
                return Err(format!("missing disjoint cut of live node {id}"));
            };
            verify_cut(aig, &self.reach, id, cut)
                .map_err(|e| format!("invalid cut of {id}: {e}"))?;
            if &closest_disjoint_cut(aig, &self.reach, &self.ranks, id) != cut {
                return Err(format!("cut of {id} diverged from a fresh recompute"));
            }
        }
        Ok(())
    }

    /// Wrecks every stored cut. Test hook for exercising corruption
    /// fallback paths; never called by the flows themselves.
    #[doc(hidden)]
    pub fn debug_corrupt_cuts(&mut self) {
        for slot in self.cuts.iter_mut().flatten() {
            *slot = DisjointCut::from_members(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::verify_cut;
    use als_aig::edit::replace;
    use als_aig::{Aig, Lit};

    /// Builds the paper's Fig. 5-style situation: replacing c with d must
    /// invalidate cuts of exactly the TFIs of the changed nodes.
    fn sample() -> (Aig, Vec<Lit>) {
        let mut aig = Aig::new("fig5");
        let x = aig.add_inputs("x", 4);
        let a = aig.and(x[0], x[1]);
        let b = aig.and(a, x[2]);
        let c = aig.and(a, !x[2]);
        let d = aig.and(x[2], x[3]);
        let f = aig.and(c, x[3]);
        let g = aig.and(b, d);
        let h = aig.and(f, !d);
        aig.add_output(g, "o0");
        aig.add_output(h, "o1");
        (aig, vec![a, b, c, d, f, g, h])
    }

    #[test]
    fn sv_contains_tfi_of_changed() {
        let (mut aig, n) = sample();
        let (a, c, d) = (n[0], n[2], n[3]);
        let rec = replace(&mut aig, c.node(), d);
        let sv = violated_set(&aig, &rec);
        // c removed; d gained fanout f; a lost fanout c; x2 lost a fanout.
        assert!(!sv.contains(&c.node()), "removed node excluded");
        assert!(sv.contains(&d.node()), "replacement in S_v");
        assert!(sv.contains(&a.node()), "TFI of removed node in S_v");
        // Inputs feeding a and d are in S_v as well.
        assert!(sv.contains(&aig.inputs()[0]));
        assert!(sv.contains(&aig.inputs()[3]));
    }

    #[test]
    fn incremental_update_matches_fresh_compute() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        let rec = replace(&mut aig, n[2].node(), n[3]);
        state.update_after(&aig, &rec);
        let fresh = CutState::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(state.reach().mask(id), fresh.reach().mask(id), "reach of {id}");
            assert_eq!(state.cut(id), fresh.cut(id), "cut of {id}");
            verify_cut(&aig, state.reach(), id, state.cut(id)).unwrap();
        }
        assert!(state.last_update_size() < aig.iter_live().count());
    }

    #[test]
    fn repeated_edits_stay_consistent() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        // First replace c by d, then replace g by constant 1.
        let rec1 = replace(&mut aig, n[2].node(), n[3]);
        state.update_after(&aig, &rec1);
        let rec2 = replace(&mut aig, n[5].node(), Lit::TRUE);
        state.update_after(&aig, &rec2);
        let fresh = CutState::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(state.cut(id), fresh.cut(id), "cut of {id}");
        }
    }

    #[test]
    fn spot_check_accepts_fresh_and_incremental_state() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        state.spot_check(&aig, 64, 1).unwrap();
        let rec = replace(&mut aig, n[2].node(), n[3]);
        state.update_after(&aig, &rec);
        for salt in 0..8 {
            state.spot_check(&aig, 64, salt).unwrap();
        }
    }

    #[test]
    fn spot_check_detects_stale_state() {
        let (mut aig, n) = sample();
        let state = CutState::compute(&aig);
        // Edit the circuit without telling the state: masks and cuts of the
        // changed region are now stale.
        let _ = replace(&mut aig, n[2].node(), n[3]);
        assert!(state.spot_check(&aig, 64, 7).is_err());
    }

    #[test]
    fn spot_check_detects_corrupted_cuts() {
        let (aig, _) = sample();
        let mut state = CutState::compute(&aig);
        state.debug_corrupt_cuts();
        assert!(state.spot_check(&aig, 64, 3).is_err());
    }

    #[test]
    fn spot_check_zero_sample_is_a_noop() {
        let (aig, _) = sample();
        let mut state = CutState::compute(&aig);
        state.debug_corrupt_cuts();
        state.spot_check(&aig, 0, 0).unwrap();
    }

    #[test]
    fn update_work_scales_with_sv_not_circuit_size() {
        // A wide circuit of K independent AND pairs: editing one pair must
        // touch O(|S_v|) state, not O(|V|). The rank-work counter is the
        // regression guard — before the fix, every update recomputed
        // topological ranks for the whole graph.
        const K: usize = 200;
        let mut aig = Aig::new("wide");
        let mut gates = Vec::new();
        for i in 0..K {
            let a = aig.add_input(format!("a{i}"));
            let b = aig.add_input(format!("b{i}"));
            let g = aig.and(a, b);
            aig.add_output(g, format!("o{i}"));
            gates.push(g);
        }
        let mut state = CutState::compute(&aig);
        let rec = replace(&mut aig, gates[0].node(), Lit::FALSE);
        state.update_after(&aig, &rec);
        let live = aig.iter_live().count();
        assert!(live > 2 * K, "circuit should be large, got {live} live nodes");
        assert!(
            state.last_update_size() <= 4,
            "|S_v| should be tiny, touched {}",
            state.last_update_size()
        );
        assert!(
            state.last_rank_work() <= 8,
            "rank refresh must scale with the edit, wrote {} entries for {} nodes",
            state.last_rank_work(),
            aig.num_nodes()
        );
        let fresh = CutState::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(state.cut(id), fresh.cut(id), "cut of {id}");
        }
    }

    #[test]
    fn late_substitution_falls_back_to_full_rank_refresh() {
        // Substituting a topologically *late* node into an early gate's
        // fanouts adds an edge the stored ranks cannot order; the update
        // must detect this and recompute ranks rather than keep an invalid
        // order (and the result must still match a fresh compute).
        let mut aig = Aig::new("back");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let t = aig.and(a, b);
        let u = aig.and(t, c);
        aig.add_output(u, "o0");
        // A chain created after u: its tail ranks above u in the DFS order.
        let mut s = aig.and(c, d);
        for _ in 0..4 {
            s = aig.and(s, d);
        }
        aig.add_output(s, "o1");
        let mut state = CutState::compute(&aig);
        let rank_before = state.ranks()[s.node().index()];
        assert!(rank_before > state.ranks()[u.node().index()], "test premise: s ranks late");
        let rec = replace(&mut aig, t.node(), s);
        state.update_after(&aig, &rec);
        assert_eq!(
            state.last_rank_work(),
            aig.num_nodes(),
            "invalidated ranks must trigger the full fallback"
        );
        // The refreshed ranks are a valid topological order of s -> u.
        assert!(state.ranks()[s.node().index()] < state.ranks()[u.node().index()]);
        let fresh = CutState::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(state.reach().mask(id), fresh.reach().mask(id), "reach of {id}");
            assert_eq!(state.cut(id), fresh.cut(id), "cut of {id}");
        }
        state.spot_check(&aig, 64, 11).unwrap();
    }

    #[test]
    fn batch_with_late_substitution_and_folds_matches_fresh_compute() {
        // One LAC's records as a flow produces them: a substitution by a
        // topologically late node, which the stored ranks cannot order,
        // then the constant folds it leaves behind. The single batched
        // update must take the full rank refresh and land on a fresh
        // compute.
        let mut aig = Aig::new("batch");
        let x = aig.add_inputs("x", 4);
        let t = aig.and(x[0], x[1]);
        let u = aig.and(t, x[2]);
        aig.add_output(u, "o0");
        let mut s = aig.and(x[2], x[3]);
        for _ in 0..4 {
            s = aig.and(s, x[3]);
        }
        aig.add_output(s, "o1");
        // v = t & !s folds to 0 once t is s, and then w = v & x0 folds too.
        let v = aig.and(t, !s);
        let w = aig.and(v, x[0]);
        aig.add_output(w, "o2");
        let mut state = CutState::compute(&aig);
        let mut records = vec![replace(&mut aig, t.node(), s)];
        records.extend(als_aig::simplify::propagate_constants_from(&mut aig, &[s.node()]));
        assert_eq!(records.len(), 3, "substitution, then folds of v and w");
        state.update_after_edits(&aig, &records);
        assert_eq!(state.last_rank_work(), aig.num_nodes(), "late substitution forces a refresh");
        let fresh = CutState::compute(&aig);
        for id in aig.iter_live() {
            assert_eq!(state.reach().mask(id), fresh.reach().mask(id), "reach of {id}");
            assert_eq!(state.cut(id), fresh.cut(id), "cut of {id}");
            assert_eq!(state.cpm_wave(id), fresh.cpm_wave(id), "wave of {id}");
        }
        for dead in [t, v, w] {
            assert!(state.get_cut(dead.node()).is_none() && state.cpm_wave(dead.node()).is_none());
        }
    }

    #[test]
    fn parallel_compute_matches_serial() {
        let (aig, _) = sample();
        let serial = CutState::compute(&aig);
        for threads in [2, 7] {
            let par = CutState::compute_with(&aig, &WorkerPool::new(threads)).unwrap();
            for id in aig.iter_live() {
                assert_eq!(serial.cut(id), par.cut(id), "cut of {id} at {threads} threads");
                assert_eq!(serial.reach().mask(id), par.reach().mask(id));
            }
            assert_eq!(serial.ranks(), par.ranks());
        }
    }

    /// Reference waves derived from scratch, for cross-checking the
    /// incrementally maintained `cpm_wave` vector.
    fn fresh_waves(aig: &Aig, state: &CutState) -> Vec<Option<u32>> {
        let fresh = CutState::compute(aig);
        let mut waves = vec![None; aig.num_nodes()];
        for n in aig.iter_live() {
            waves[n.index()] = fresh.cpm_wave(n);
            assert_eq!(state.cpm_wave(n), fresh.cpm_wave(n), "wave of {n}");
        }
        waves
    }

    #[test]
    fn incremental_waves_match_fresh_derivation() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        // Waves are defined by the cut DAG alone, so the incremental
        // refresh (S_v only) must land exactly where a fresh derivation
        // does — after every edit of a chain of edits.
        let rec1 = replace(&mut aig, n[2].node(), n[3]);
        state.update_after(&aig, &rec1);
        fresh_waves(&aig, &state);
        let rec2 = replace(&mut aig, n[5].node(), Lit::TRUE);
        state.update_after(&aig, &rec2);
        fresh_waves(&aig, &state);
        // Removed nodes carry no wave.
        assert_eq!(state.cpm_wave(n[2].node()), None);
    }

    #[test]
    fn full_plan_is_cached_until_an_update_invalidates_it() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        let p1 = state.full_plan(&aig).unwrap();
        let p2 = state.full_plan(&aig).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second call must hit the cache");
        assert_eq!(state.plan_stats(), (1, 1));
        assert_eq!(p1.num_nodes(), aig.iter_live().count());
        // Every node appears exactly once, in a wave after all its cut's
        // node members.
        let mut wave_of_node = vec![None; aig.num_nodes()];
        for (w, nodes) in p1.waves().iter().enumerate() {
            for &m in nodes {
                assert!(wave_of_node[m.index()].is_none(), "{m} scheduled twice");
                wave_of_node[m.index()] = Some(w);
            }
        }
        for id in aig.iter_live() {
            let w = wave_of_node[id.index()].expect("live node scheduled");
            for t in state.cut(id).node_members() {
                assert!(wave_of_node[t.index()].unwrap() < w, "member {t} not before {id}");
            }
        }
        // An edit that changes waves drops the cached plan...
        let rec = replace(&mut aig, n[2].node(), n[3]);
        state.update_after(&aig, &rec);
        let p3 = state.full_plan(&aig).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "edit must invalidate the plan");
        assert_eq!(state.plan_stats(), (1, 2));
        // ...and the rebuilt plan covers exactly the new live set.
        assert_eq!(p3.num_nodes(), aig.iter_live().count());
    }

    #[test]
    fn constant_replacement_updates_constant_node_cut() {
        let (mut aig, n) = sample();
        let mut state = CutState::compute(&aig);
        let rec = replace(&mut aig, n[4].node(), Lit::FALSE); // f := 0
        state.update_after(&aig, &rec);
        let fresh = CutState::compute(&aig);
        assert_eq!(state.cut(NodeId::CONST0), fresh.cut(NodeId::CONST0));
    }
}
