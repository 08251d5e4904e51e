//! Exact CPM via disjoint cuts (Eq. (1)), for all nodes.

use als_aig::{Aig, NodeId};
use als_cuts::{CutMember, CutState, DisjointCut};
use als_par::{Region, WorkerPool};
use als_sim::Simulator;

use crate::error::CpmError;
use crate::flipsim::FlipSim;
use crate::storage::{Cpm, RowData};

/// Computes one node's CPM row from its cut members' Boolean differences
/// and the already-computed rows of node members, into the reused `out`
/// buffer (cleared first).
///
/// The Eq. (1) products `B[n][t] ∧ P[t][o]` are streamed word-by-word from
/// the member difference and the arena entry, restricted to the
/// intersection of their nonzero windows; a product that annihilates (all
/// zero) is dropped on the spot, and an annihilated member difference skips
/// its whole sub-row without reading it.
#[allow(clippy::too_many_arguments)] // internal kernel: the row pipeline's full context
pub(crate) fn row_from_cut(
    aig: &Aig,
    sim: &Simulator,
    cuts: &CutState,
    flipsim: &mut FlipSim,
    cpm: &Cpm,
    n: NodeId,
    cut: &DisjointCut,
    out: &mut RowData,
) -> Result<(), CpmError> {
    out.clear();
    let diffs = flipsim.differences(aig, sim, cuts.ranks(), n, cut);
    for (member, b) in diffs.iter() {
        match member {
            CutMember::Output(o) => {
                if b.is_zero() {
                    continue; // annihilated: the flip never reaches o
                }
                let dst = out.push_entry(o);
                dst[b.nz_begin()..b.nz_end()].copy_from_slice(&b.words()[b.nz_begin()..b.nz_end()]);
            }
            CutMember::Node(t) => {
                let trow = cpm.row(t).ok_or(CpmError::MissingMemberRow { member: t, node: n })?;
                if b.is_zero() {
                    continue; // annihilated: nothing propagates through t
                }
                for (o, p) in trow.iter() {
                    let lo = b.nz_begin().max(p.nz_begin());
                    let hi = b.nz_end().min(p.nz_end());
                    let dst = out.push_entry(o);
                    let mut any = 0u64;
                    for (w, slot) in dst.iter_mut().enumerate().take(hi).skip(lo) {
                        let v = b.words()[w] & p.words()[w];
                        *slot = v;
                        any |= v;
                    }
                    if any == 0 {
                        out.pop_entry(); // product annihilated
                    }
                }
            }
        }
    }
    Ok(())
}

/// Computes CPM rows for the nodes selected by `include` (indexed by node
/// id); `include = None` selects every live node.
///
/// Rows are filled in reverse topological order so that every node-member
/// row needed by Eq. (1) is available. When `include` is given it must be
/// closed under disjoint-cut membership (see
/// [`crate::partial::candidate_closure`]).
pub fn compute_for_set(
    aig: &Aig,
    sim: &Simulator,
    cuts: &CutState,
    include: Option<&[bool]>,
) -> Result<Cpm, CpmError> {
    compute_for_set_with(aig, sim, cuts, include, &WorkerPool::new(1))
}

/// Like [`compute_for_set`], but fills each *wave* of the cut DAG in
/// parallel on `pool` — the analysis step-2 parallelisation.
///
/// Eq. (1) makes a node's row depend only on the rows of its cut's node
/// members, not on topological adjacency, so the reverse-topological sweep
/// regroups into level-synchronous waves: `wave(n) = 1 + max(wave(t))` over
/// node members `t` (0 with none). The partition is not re-derived here —
/// [`CutState`] maintains the per-node wave incrementally across edits and
/// caches the full-sweep schedule ([`CutState::full_plan`]), so the
/// per-iteration sweep starts filling rows immediately. Per wave the
/// pool's scheduler decides serial vs parallel; parallel waves fan out
/// across workers — each with its own [`FlipSim`]/[`RowData`] scratch —
/// and the rows are installed after the join. Chunk-ordered joins and the
/// pure row computation make the result byte-identical to the serial
/// sweep at any thread count.
pub fn compute_for_set_with(
    aig: &Aig,
    sim: &Simulator,
    cuts: &CutState,
    include: Option<&[bool]>,
    pool: &WorkerPool,
) -> Result<Cpm, CpmError> {
    match include {
        None => {
            let plan = cuts.full_plan(aig).map_err(|node| CpmError::MissingCut { node })?;
            let mut cpm = Cpm::new(aig.num_nodes(), sim.num_words());
            let mut fill = WaveFill::new(aig, sim, cuts, pool);
            for wv in plan.waves() {
                fill.fill(&mut cpm, wv)?;
            }
            Ok(cpm)
        }
        Some(inc) => {
            let nodes: Vec<NodeId> =
                aig.iter_live().filter(|n| inc.get(n.index()).copied().unwrap_or(false)).collect();
            compute_for_nodes_with(aig, sim, cuts, &nodes, pool)
        }
    }
}

/// Computes exact CPM rows for exactly `nodes` (which must be closed under
/// disjoint-cut node membership, in any order).
///
/// The nodes are bucketed by their [`CutState`]-maintained waves — a
/// member's full-graph wave is strictly below its dependent's, so the
/// full-graph waves schedule any member-closed subset correctly — and each
/// bucket is filled through the pool's scheduler like the full sweep.
pub fn compute_for_nodes_with(
    aig: &Aig,
    sim: &Simulator,
    cuts: &CutState,
    nodes: &[NodeId],
    pool: &WorkerPool,
) -> Result<Cpm, CpmError> {
    let ranks = cuts.ranks();
    let mut scheduled: Vec<(u32, u32, NodeId)> = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let wave = cuts.cpm_wave(n).ok_or(CpmError::MissingCut { node: n })?;
        scheduled.push((wave, u32::MAX - ranks[n.index()], n));
    }
    // Wave ascending, rank descending within a wave (reverse topological,
    // matching the full sweep's within-wave order).
    scheduled.sort_unstable_by_key(|e| (e.0, e.1));
    let mut cpm = Cpm::new(aig.num_nodes(), sim.num_words());
    let mut fill = WaveFill::new(aig, sim, cuts, pool);
    let mut wave: Vec<NodeId> = Vec::new();
    let mut at = 0;
    while at < scheduled.len() {
        let w = scheduled[at].0;
        wave.clear();
        while at < scheduled.len() && scheduled[at].0 == w {
            wave.push(scheduled[at].2);
            at += 1;
        }
        fill.fill(&mut cpm, &wave)?;
    }
    Ok(cpm)
}

/// Per-sweep scratch and scheduling for filling one wave at a time:
/// serial waves write rows straight from one reused scratch buffer (zero
/// steady-state allocation), parallel waves fan out with one scratch per
/// worker.
struct WaveFill<'a> {
    aig: &'a Aig,
    sim: &'a Simulator,
    cuts: &'a CutState,
    pool: &'a WorkerPool,
    region: Region,
    serial: Option<(FlipSim, RowData)>,
}

impl<'a> WaveFill<'a> {
    fn new(aig: &'a Aig, sim: &'a Simulator, cuts: &'a CutState, pool: &'a WorkerPool) -> Self {
        let region = pool.region("cpm_wave", sim.num_words() as u64);
        WaveFill { aig, sim, cuts, pool, region, serial: None }
    }

    fn fill(&mut self, cpm: &mut Cpm, wave: &[NodeId]) -> Result<(), CpmError> {
        let (aig, sim, cuts) = (self.aig, self.sim, self.cuts);
        let scratch =
            || (FlipSim::new(aig.num_nodes(), sim.num_words()), RowData::new(sim.num_words()));
        let Some(fanout) = self.pool.fan_out(&self.region, wave.len()) else {
            let (flipsim, row) = self.serial.get_or_insert_with(scratch);
            return self.pool.inline(&self.region, wave.len(), || {
                for &n in wave {
                    let cut = cuts.get_cut(n).ok_or(CpmError::MissingCut { node: n })?;
                    row_from_cut(aig, sim, cuts, flipsim, cpm, n, cut, row)?;
                    cpm.set_row(n, row);
                }
                Ok(())
            });
        };
        let shared = &*cpm;
        let mut rows = fanout.map(wave, scratch, |(flipsim, row), &n| {
            let cut = cuts.get_cut(n).ok_or(CpmError::MissingCut { node: n })?;
            row_from_cut(aig, sim, cuts, flipsim, shared, n, cut, row)?;
            // hand an owned buffer back to the join; the scratch buffer
            // restarts empty for the next item
            Ok::<_, CpmError>(std::mem::replace(row, RowData::new(sim.num_words())))
        })?;
        for (&n, row) in wave.iter().zip(rows.iter_mut()) {
            cpm.set_row(n, row);
        }
        Ok(())
    }
}

/// The comprehensive (phase-one) CPM: exact rows for every live node.
pub fn compute_full(aig: &Aig, sim: &Simulator, cuts: &CutState) -> Result<Cpm, CpmError> {
    compute_for_set(aig, sim, cuts, None)
}

/// [`compute_full`] on a worker pool (see [`compute_for_set_with`]).
pub fn compute_full_with(
    aig: &Aig,
    sim: &Simulator,
    cuts: &CutState,
    pool: &WorkerPool,
) -> Result<Cpm, CpmError> {
    compute_for_set_with(aig, sim, cuts, None, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{brute_force_row, rows_equivalent};
    use als_sim::PatternSet;

    fn reconvergent() -> Aig {
        let mut aig = Aig::new("r");
        let x = aig.add_inputs("x", 6);
        let a = aig.and(x[0], x[1]);
        let b = aig.and(a, x[2]);
        let c = aig.and(a, !x[2]);
        let d = aig.and(b, x[3]);
        let e = aig.and(b, c);
        let f = aig.and(e, x[4]);
        aig.add_output(d, "O1");
        aig.add_output(f, "O2");
        aig.add_output(!c, "O3");
        aig.add_output(x[5], "O4");
        aig
    }

    #[test]
    fn full_cpm_matches_brute_force_exhaustively() {
        let aig = reconvergent();
        let patterns = PatternSet::exhaustive(6);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let cpm = compute_full(&aig, &sim, &cuts).unwrap();
        for n in aig.iter_live() {
            let reference = brute_force_row(&aig, &patterns, n);
            let row = cpm.row(n).expect("all rows computed");
            assert!(
                rows_equivalent(row, &reference, aig.num_outputs()),
                "CPM row of {n} diverges from brute force"
            );
        }
        assert!(cpm.arena_bytes() > 0);
    }

    #[test]
    fn full_cpm_matches_brute_force_on_random_patterns() {
        let aig = reconvergent();
        let patterns = PatternSet::random(6, 8, 99);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let cpm = compute_full(&aig, &sim, &cuts).unwrap();
        for n in aig.iter_live() {
            let reference = brute_force_row(&aig, &patterns, n);
            assert!(rows_equivalent(cpm.row(n).unwrap(), &reference, aig.num_outputs()));
        }
    }

    #[test]
    fn parallel_cpm_is_bit_identical_to_serial() {
        let aig = reconvergent();
        let patterns = PatternSet::random(6, 8, 5);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let serial = compute_full(&aig, &sim, &cuts).unwrap();
        for threads in [2, 7] {
            let par = compute_full_with(&aig, &sim, &cuts, &WorkerPool::new(threads)).unwrap();
            for n in aig.iter_live() {
                assert_eq!(serial.row(n), par.row(n), "row of {n} at {threads} threads");
            }
        }
    }

    #[test]
    fn row_of_output_driver_is_all_ones_on_its_output() {
        let aig = reconvergent();
        let patterns = PatternSet::exhaustive(6);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let cpm = compute_full(&aig, &sim, &cuts).unwrap();
        // output O4 is driven directly by input x5
        let x5 = aig.inputs()[5];
        let entry = cpm.entry(x5, 3).expect("entry exists");
        assert_eq!(entry.count_ones(), entry.num_words() * 64);
    }
}
