//! Candidate LAC enumeration.
//!
//! Constant LACs exist for every gate. SASIMI substitution candidates pair
//! each target with the existing signals (in either polarity) that agree
//! with it on the largest fraction of simulated patterns, excluding
//! substitutions that would create a cycle (source inside the target's
//! TFO cone).
//!
//! The agreement counts come from a [`SimilarityIndex`], which a run keeps
//! across generation calls and which recomputes only the distances of
//! nodes whose simulated value changed. [`mod@reference`] keeps the
//! from-scratch scan as a test oracle.

use std::collections::BinaryHeap;

use als_aig::{Aig, Lit, NodeId};
use als_sim::Simulator;

use crate::lac::Lac;

pub mod reference;

/// Controls candidate enumeration.
#[derive(Clone, Debug)]
pub struct CandidateConfig {
    /// Enumerate constant-0/1 LACs.
    pub constants: bool,
    /// Enumerate SASIMI substitution LACs.
    pub substitutions: bool,
    /// Maximum substitution candidates kept per target node.
    pub max_subs_per_target: usize,
    /// Substitutions whose disagreement fraction exceeds this are dropped
    /// (they could never be good LACs).
    pub max_distance_frac: f64,
}

impl Default for CandidateConfig {
    fn default() -> CandidateConfig {
        CandidateConfig {
            constants: true,
            substitutions: true,
            max_subs_per_target: 8,
            max_distance_frac: 0.25,
        }
    }
}

impl CandidateConfig {
    /// Constant LACs only — the paper's configuration for large circuits.
    pub fn constants_only() -> CandidateConfig {
        CandidateConfig { substitutions: false, ..CandidateConfig::default() }
    }

    /// SASIMI configuration (constants and substitutions) with a per-target
    /// candidate budget.
    pub fn sasimi(max_subs_per_target: usize) -> CandidateConfig {
        CandidateConfig { max_subs_per_target, ..CandidateConfig::default() }
    }
}

/// Constant LACs for the given targets (or all live gates).
pub fn constant_lacs(aig: &Aig, targets: Option<&[NodeId]>) -> Vec<Lac> {
    let mut out = Vec::new();
    let mut push = |n: NodeId| {
        if aig.is_live(n) && aig.node(n).is_and() {
            out.push(Lac::const0(n));
            out.push(Lac::const1(n));
        }
    };
    match targets {
        Some(ts) => ts.iter().copied().for_each(&mut push),
        None => aig.iter_ands().for_each(&mut push),
    }
    out
}

/// All candidate LACs according to `cfg`, optionally restricted to
/// `targets` (the phase-two `S_cand` restriction), through a fresh
/// [`SimilarityIndex`]. A run that generates repeatedly keeps one index
/// instead.
pub fn generate(
    aig: &Aig,
    sim: &Simulator,
    cfg: &CandidateConfig,
    targets: Option<&[NodeId]>,
) -> Vec<Lac> {
    SimilarityIndex::default().generate(aig, sim, cfg, targets)
}

/// Work of one SASIMI generation call, in host-independent units.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SasimiWork {
    /// Targets candidates were selected for.
    pub targets: u64,
    /// Target–source distances computed (the rest were cached).
    pub pairs: u64,
}

/// Triangles larger than this are not kept across calls: the cells then
/// hold one row, recomputed for every target. That happens beyond 8,192
/// nodes (5,793 above 65,535 patterns); the paper runs circuits that large
/// with constant LACs only.
const MAX_CELL_BYTES: usize = 64 << 20;

/// `changed_at` of a node that is not a source: newer than any row.
const STALE: u32 = u32::MAX;

/// Masked Hamming distances between node values, kept across generation
/// calls and recomputed only for nodes whose value changed.
///
/// Per node `i` the index keeps `snap[i]`, the value words at the last
/// refresh; `changed_at[i]`, the refresh at which `snap[i]` last changed or
/// `i` last became a source (a live node other than the constant), and
/// `STALE` while it is none; and `row_at[i]`, the refresh at which row `i`
/// was last settled. The cells form a triangle, one per unordered node
/// pair.
///
/// **Invariant.** Cell `(i, j)` of two sources holds the masked distance
/// of `snap[i]` and `snap[j]` whenever `max(row_at[i], row_at[j]) ≥
/// max(changed_at[i], changed_at[j])`.
///
/// Each call refreshes the snapshots once, in `O(N·W)`, stamping the
/// sources whose value differs and those that were not one before. Before
/// selecting candidates for a target it settles the target's row: over the
/// current sources it recomputes exactly the cells that fail the
/// invariant, then stamps the row. A pair settled from the other side in
/// the same call is not recomputed, so a call computes at most `|targets| ×
/// |sources|` distances, the scan's count, and a fresh index each pair
/// once. A cell skipped because its node was not a source is never trusted
/// later: the node is stamped when it becomes one again.
///
/// The cells depend on node values only. TFO exclusion and liveness are
/// applied at selection, against the current graph, so the index stays
/// exact across any edit, rollback or constant folding without being told
/// about them.
#[derive(Debug, Default)]
pub struct SimilarityIndex {
    num_patterns: usize,
    num_words: usize,
    /// The current refresh number (0 before the first).
    now: u32,
    snap: Vec<u64>,
    changed_at: Vec<u32>,
    row_at: Vec<u32>,
    /// Whether `cells` is the whole triangle (else one row).
    persistent: bool,
    cells: Cells,
    /// The sources of the current call, ascending.
    sources: Vec<u32>,
    /// TFO marks: `tfo[i] == stamp` for the current target's cone.
    tfo: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
    work: SasimiWork,
}

/// The distance cells: `u16` while the pattern count fits, `u32` above.
#[derive(Debug)]
enum Cells {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Default for Cells {
    fn default() -> Cells {
        Cells::Narrow(Vec::new())
    }
}

impl SimilarityIndex {
    /// All candidate LACs according to `cfg`, optionally restricted to
    /// `targets`; substitutions come from this index.
    pub fn generate(
        &mut self,
        aig: &Aig,
        sim: &Simulator,
        cfg: &CandidateConfig,
        targets: Option<&[NodeId]>,
    ) -> Vec<Lac> {
        let mut out = Vec::new();
        if cfg.constants {
            out.extend(constant_lacs(aig, targets));
        }
        if cfg.substitutions {
            out.extend(self.sasimi_lacs(aig, sim, cfg, targets));
        }
        out
    }

    /// SASIMI substitution LACs: for each target, the `max_subs_per_target`
    /// most similar other signals (inputs or gates, either polarity) in
    /// `(distance, literal)` order, skipping sources in the target's TFO
    /// cone.
    pub fn sasimi_lacs(
        &mut self,
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
        self.work = SasimiWork { targets: target_list.len() as u64, pairs: 0 };
        let mut out = Vec::new();
        if target_list.is_empty() || cfg.max_subs_per_target == 0 {
            return out;
        }
        self.refresh(aig, sim);
        let max_dist = (cfg.max_distance_frac * self.num_patterns as f64) as usize;
        let mut cells = std::mem::take(&mut self.cells);
        for &t in &target_list {
            let keys = match &mut cells {
                Cells::Narrow(c) => self.select(c, aig, t, cfg.max_subs_per_target, max_dist),
                Cells::Wide(c) => self.select(c, aig, t, cfg.max_subs_per_target, max_dist),
            };
            out.extend(keys.into_iter().map(|key| Lac::substitute(t, Lit::from_raw(key as u32))));
        }
        self.cells = cells;
        out
    }

    /// Work of the last [`SimilarityIndex::sasimi_lacs`] call.
    pub fn last_work(&self) -> SasimiWork {
        self.work
    }

    /// Lists the sources and brings their snapshots up to the simulator's
    /// values, stamping those whose value differs or that were not a source
    /// at the last refresh. A different node or pattern count starts over.
    fn refresh(&mut self, aig: &Aig, sim: &Simulator) {
        let (n, w) = (aig.num_nodes(), sim.num_words());
        if n != self.row_at.len()
            || sim.num_patterns() != self.num_patterns
            || w != self.num_words
            || self.now == STALE - 1
        {
            self.rebuild(n, w, sim.num_patterns());
        }
        self.now += 1;
        self.sources.clear();
        for i in 0..n {
            let id = NodeId(i as u32);
            if !aig.is_live(id) || aig.node(id).is_const0() {
                // Rows settled in this call skip it: none of its cells is
                // trusted until it is a source again.
                self.changed_at[i] = STALE;
                continue;
            }
            let value = sim.value(id).words();
            let snap = &mut self.snap[i * w..(i + 1) * w];
            if snap != value || self.changed_at[i] == STALE {
                snap.copy_from_slice(value);
                self.changed_at[i] = self.now;
            }
            self.sources.push(i as u32);
        }
    }

    /// Allocates the index for `n` nodes of `w` words, every cell stale.
    fn rebuild(&mut self, n: usize, w: usize, num_patterns: usize) {
        self.num_patterns = num_patterns;
        self.num_words = w;
        self.now = 0;
        self.snap = vec![0; n * w];
        self.changed_at = vec![STALE; n];
        self.row_at = vec![0; n];
        self.tfo = vec![0; n];
        self.stamp = 0;
        let pairs = n * n.saturating_sub(1) / 2;
        let wide = num_patterns > u16::MAX as usize;
        let width = if wide { 4 } else { 2 };
        self.persistent = pairs.saturating_mul(width) <= MAX_CELL_BYTES;
        let len = if self.persistent { pairs } else { n };
        self.cells = if wide { Cells::Wide(vec![0; len]) } else { Cells::Narrow(vec![0; len]) };
    }

    /// Marks the TFO cone of `t` (including `t`) with a fresh stamp.
    fn mark_tfo(&mut self, aig: &Aig, t: NodeId) {
        if self.stamp == u32::MAX {
            self.tfo.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.tfo[t.index()] = self.stamp;
        self.stack.push(t);
        while let Some(u) = self.stack.pop() {
            for &f in aig.fanouts(u) {
                if self.tfo[f.index()] != self.stamp {
                    self.tfo[f.index()] = self.stamp;
                    self.stack.push(f);
                }
            }
        }
    }

    /// The cell of pair `(t, j)`: in the triangle, or the row slot `j`.
    fn cell(&self, t: usize, j: usize) -> usize {
        match (self.persistent, j < t) {
            (false, _) => j,
            (true, true) => t * (t - 1) / 2 + j,
            (true, false) => j * (j - 1) / 2 + t,
        }
    }

    /// Settles row `t` over the sources and returns the `(distance,
    /// literal)` keys of its `k` best sources outside its TFO, ascending.
    fn select<C: Copy + Into<u32> + TryFrom<usize>>(
        &mut self,
        cells: &mut [C],
        aig: &Aig,
        t: NodeId,
        k: usize,
        max_dist: usize,
    ) -> Vec<u64> {
        self.mark_tfo(aig, t);
        let (ti, w, bits) = (t.index(), self.num_words, self.num_patterns);
        let tv = &self.snap[ti * w..(ti + 1) * w];
        let (rt, ct) = (self.row_at[ti], self.changed_at[ti]);
        // A key is `(distance, literal)`: below `cap` it is within
        // `max_dist`, below `bar` also among the best `k` so far.
        let cap = (max_dist.min(bits) as u64 + 1) << 32;
        let mut bar = cap;
        let mut best = BinaryHeap::with_capacity(k);
        for &j in &self.sources {
            let j = j as usize;
            if j == ti {
                continue;
            }
            let c = self.cell(ti, j);
            if !self.persistent || rt.max(self.row_at[j]) < ct.max(self.changed_at[j]) {
                let d = als_sim::kernel::masked_distance(tv, &self.snap[j * w..(j + 1) * w], bits);
                cells[c] = C::try_from(d).ok().expect("the cell width holds every distance");
                self.work.pairs += 1;
            }
            if self.tfo[j] == self.stamp {
                continue;
            }
            // The closer polarity; a tie keeps the plain literal.
            let d = cells[c].into() as usize;
            let flip = 2 * d > bits;
            let dist = if flip { bits - d } else { d };
            let key = (dist as u64) << 32 | (2 * j as u64 + u64::from(flip));
            if key >= bar {
                continue;
            }
            if best.len() < k {
                best.push(key);
            } else if let Some(mut worst) = best.peek_mut() {
                *worst = key;
            }
            if best.len() == k {
                bar = best.peek().copied().unwrap_or(cap);
            }
        }
        self.row_at[ti] = self.now;
        best.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lac::LacKind;
    use als_sim::PatternSet;

    fn setup() -> (Aig, Simulator) {
        let mut aig = Aig::new("c");
        let x = aig.add_inputs("x", 6);
        let g1 = aig.and(x[0], x[1]);
        let g2 = aig.and(g1, x[2]); // very similar to g1 when x2 dense
        let g3 = aig.and(g2, x[3]);
        aig.add_output(g3, "o");
        let sim = Simulator::new(&aig, &PatternSet::exhaustive(6));
        (aig, sim)
    }

    fn sasimi(aig: &Aig, sim: &Simulator, cfg: &CandidateConfig) -> Vec<Lac> {
        SimilarityIndex::default().sasimi_lacs(aig, sim, cfg, None)
    }

    #[test]
    fn constant_lacs_cover_all_gates() {
        let (aig, _) = setup();
        let lacs = constant_lacs(&aig, None);
        assert_eq!(lacs.len(), 2 * aig.num_ands());
        assert!(lacs.iter().any(|l| l.kind == LacKind::Const0));
        assert!(lacs.iter().any(|l| l.kind == LacKind::Const1));
    }

    #[test]
    fn constant_lacs_respect_target_restriction() {
        let (aig, _) = setup();
        let first = aig.iter_ands().next().unwrap();
        let lacs = constant_lacs(&aig, Some(&[first]));
        assert_eq!(lacs.len(), 2);
        assert!(lacs.iter().all(|l| l.target == first));
    }

    #[test]
    fn sasimi_candidates_avoid_tfo() {
        let (aig, sim) = setup();
        let lacs = sasimi(&aig, &sim, &CandidateConfig::sasimi(100));
        for lac in &lacs {
            let LacKind::Substitute { sub } = lac.kind else { panic!() };
            let tfo = als_aig::cone::tfo_cone(&aig, lac.target);
            assert!(!tfo.contains(&sub.node()), "{lac:?} would create a cycle");
        }
    }

    #[test]
    fn sasimi_prefers_similar_signals() {
        let (aig, sim) = setup();
        let cfg = CandidateConfig { max_subs_per_target: 1, ..CandidateConfig::default() };
        let lacs = sasimi(&aig, &sim, &cfg);
        // the best substitute for g3 = x0&x1&x2&x3 is g2 = x0&x1&x2
        // (disagrees on 1/16 of patterns)
        let g3 = aig.iter_ands().last().unwrap();
        let best_for_g3 = lacs.iter().find(|l| l.target == g3).unwrap();
        let LacKind::Substitute { sub } = best_for_g3.kind else { panic!() };
        let d = Lac::substitute(g3, sub).change_count(&sim);
        assert!(d <= 4, "best candidate disagrees on {d}/64 patterns");
    }

    #[test]
    fn per_target_budget_is_respected() {
        let (aig, sim) = setup();
        for k in [0, 1, 2, 100] {
            let lacs = sasimi(&aig, &sim, &CandidateConfig::sasimi(k));
            assert_eq!(lacs, reference::sasimi_lacs(&aig, &sim, &CandidateConfig::sasimi(k), None));
            for t in aig.iter_ands() {
                assert!(lacs.iter().filter(|l| l.target == t).count() <= k);
            }
        }
    }

    #[test]
    fn a_fresh_index_computes_each_pair_once() {
        let (aig, sim) = setup();
        let mut index = SimilarityIndex::default();
        index.sasimi_lacs(&aig, &sim, &CandidateConfig::sasimi(8), None);
        // Every pair of sources with a gate in it, once: 3 gates against
        // the other 8 sources, minus the 3 gate–gate pairs counted twice.
        let (s, g) = (aig.num_nodes() as u64 - 1, aig.num_ands() as u64);
        assert_eq!(
            index.last_work(),
            SasimiWork { targets: g, pairs: g * (s - 1) - g * (g - 1) / 2 }
        );
        // Unchanged values: nothing to recompute.
        index.sasimi_lacs(&aig, &sim, &CandidateConfig::sasimi(8), None);
        assert_eq!(index.last_work(), SasimiWork { targets: g, pairs: 0 });
    }

    #[test]
    fn generate_combines_kinds() {
        let (aig, sim) = setup();
        let all = generate(&aig, &sim, &CandidateConfig::default(), None);
        let consts = all.iter().filter(|l| !matches!(l.kind, LacKind::Substitute { .. })).count();
        assert_eq!(consts, 2 * aig.num_ands());
        assert!(all.len() > consts);
        let only_const = generate(&aig, &sim, &CandidateConfig::constants_only(), None);
        assert_eq!(only_const.len(), consts);
    }
}
