//! Full and incremental bit-parallel simulation.

use als_aig::{Aig, Lit, NodeId};
use als_par::{WorkerPanic, WorkerPool};

use crate::bitvec::PackedBits;
use crate::patterns::PatternSet;

/// Simulated values for every node of an AIG under a fixed pattern set.
///
/// Values are indexed by [`NodeId`] and stay valid across LAC edits as long
/// as the affected cone is refreshed with
/// [`Simulator::resimulate_fanout_cone`] — exactly what the flows do after
/// applying a change. Dead nodes keep stale values that are never read.
#[derive(Clone, Debug)]
pub struct Simulator {
    num_words: usize,
    num_patterns: usize,
    values: Vec<PackedBits>,
}

impl Simulator {
    /// Simulates `aig` on `patterns` and captures all node values.
    ///
    /// # Panics
    /// Panics if the pattern set does not cover all primary inputs.
    pub fn new(aig: &Aig, patterns: &PatternSet) -> Simulator {
        Simulator::new_with(aig, patterns, &WorkerPool::new(1))
    }

    /// Like [`Simulator::new`], but evaluates each topological level's AND
    /// gates in parallel on `pool` — the analysis step-3 parallelisation.
    ///
    /// Nodes of one level have all fanins in strictly earlier levels, so a
    /// level can fan out across workers with no synchronisation beyond the
    /// level barrier; results are bit-identical to the serial evaluation at
    /// any thread count. A worker panic is re-raised on the caller's thread
    /// (the closures are pure bit operations, so this cannot trigger short
    /// of memory corruption).
    ///
    /// # Panics
    /// Panics if the pattern set does not cover all primary inputs.
    pub fn new_with(aig: &Aig, patterns: &PatternSet, pool: &WorkerPool) -> Simulator {
        assert!(
            patterns.num_inputs() >= aig.num_inputs(),
            "pattern set covers {} inputs, circuit has {}",
            patterns.num_inputs(),
            aig.num_inputs()
        );
        let num_words = patterns.num_words();
        let mut values = vec![PackedBits::zeros(num_words); aig.num_nodes()];
        for (i, &pi) in aig.inputs().iter().enumerate() {
            values[pi.index()] = patterns.input(i).clone();
        }
        let mut sim = Simulator { num_words, num_patterns: patterns.num_patterns(), values };
        let order = als_aig::topo::topo_order(aig);
        sim.eval_in_waves(aig, &order, pool);
        sim
    }

    /// Number of 64-bit words per value vector.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of simulated patterns (the pattern set's logical count,
    /// which may be less than `num_words() * 64`).
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Value vector of node `id` (positive polarity).
    pub fn value(&self, id: NodeId) -> &PackedBits {
        &self.values[id.index()]
    }

    /// Value vector of a literal, materialising the complement.
    pub fn lit_value(&self, lit: Lit) -> PackedBits {
        let v = &self.values[lit.node().index()];
        if lit.is_complement() {
            v.not()
        } else {
            v.clone()
        }
    }

    /// Writes the value of `lit` into `out` without allocating.
    pub fn lit_value_into(&self, lit: Lit, out: &mut PackedBits) {
        let v = &self.values[lit.node().index()];
        out.words_mut().copy_from_slice(v.words());
        if lit.is_complement() {
            out.not_assign();
        }
    }

    /// Value vector of primary output `idx` (complement applied).
    pub fn output_value(&self, aig: &Aig, idx: usize) -> PackedBits {
        self.lit_value(aig.output_lit(idx))
    }

    /// Writes the value of primary output `idx` into `out` without
    /// allocating.
    pub fn output_value_into(&self, aig: &Aig, idx: usize, out: &mut PackedBits) {
        self.lit_value_into(aig.output_lit(idx), out);
    }

    fn eval_and(&mut self, aig: &Aig, id: NodeId) {
        let node = aig.node(id);
        let (f0, f1) = (node.fanin0(), node.fanin1());
        let (i0, i1, ii) = (f0.node().index(), f1.node().index(), id.index());
        let (m0, m1) = (
            if f0.is_complement() { !0u64 } else { 0 },
            if f1.is_complement() { !0u64 } else { 0 },
        );
        // A node is never its own fanin (acyclicity), so the destination
        // buffer can be moved out while the fanin values stay borrowed;
        // the swap is pointer-sized, no words are copied.
        let mut dst = std::mem::replace(&mut self.values[ii], PackedBits::zeros(0));
        crate::kernel::and2_masked(
            dst.words_mut(),
            self.values[i0].words(),
            self.values[i1].words(),
            m0,
            m1,
        );
        self.values[ii] = dst;
    }

    /// The value an AND gate takes under the current `values`, computed
    /// into a fresh buffer (the read-only form of [`Simulator::eval_and`]
    /// that parallel waves use: workers share `values` immutably and the
    /// caller installs the results after the join).
    fn and_value(values: &[PackedBits], num_words: usize, aig: &Aig, id: NodeId) -> PackedBits {
        let node = aig.node(id);
        let (f0, f1) = (node.fanin0(), node.fanin1());
        let (a, b) = (&values[f0.node().index()], &values[f1.node().index()]);
        let (m0, m1) = (
            if f0.is_complement() { !0u64 } else { 0 },
            if f1.is_complement() { !0u64 } else { 0 },
        );
        let mut out = PackedBits::zeros(num_words);
        crate::kernel::and2_masked(out.words_mut(), a.words(), b.words(), m0, m1);
        out
    }

    /// Evaluates the AND gates of `order` (a topological order, possibly
    /// restricted to a cone) grouped into level-synchronous waves, fanning
    /// each sufficiently large wave out across `pool`.
    ///
    /// Two cutover decisions guard the fan-out. The whole-cone decision
    /// (`"sim"` region) keeps small resimulation cones — which gate
    /// evaluation makes sub-millisecond — on the caller's thread without
    /// even deriving levels; per-wave decisions (`"sim_wave"`) then keep
    /// narrow waves inline. Both are driven by the pool's measured cost
    /// model (weighted by the word count), so a simulation region never
    /// pays spawn overhead its work cannot amortise.
    fn eval_in_waves(&mut self, aig: &Aig, order: &[NodeId], pool: &WorkerPool) {
        let words = self.num_words as u64;
        let cone = pool.region("sim", words);
        if pool.fan_out(&cone, order.len()).is_none() {
            pool.inline(&cone, order.len(), || {
                for &id in order {
                    if aig.node(id).is_and() {
                        self.eval_and(aig, id);
                    }
                }
            });
            return;
        }
        // Logic level per node: fanins always sit in strictly lower levels,
        // so the nodes of one level are mutually independent. `order` being
        // topological guarantees fanin levels are known when needed; nodes
        // outside `order` (outside the cone) keep level 0, which is safe
        // because their values are already current by contract.
        let mut level = vec![0u32; aig.num_nodes()];
        let mut waves: Vec<Vec<NodeId>> = Vec::new();
        for &id in order {
            let node = aig.node(id);
            if !node.is_and() {
                continue;
            }
            let l0 = level[node.fanin0().node().index()];
            let l1 = level[node.fanin1().node().index()];
            let l = l0.max(l1) + 1;
            level[id.index()] = l;
            let slot = (l - 1) as usize;
            if waves.len() <= slot {
                waves.resize_with(slot + 1, Vec::new);
            }
            waves[slot].push(id);
        }
        let per_wave = pool.region("sim_wave", words);
        for wave in &waves {
            let Some(fanout) = pool.fan_out(&per_wave, wave.len()) else {
                pool.inline(&per_wave, wave.len(), || {
                    for &id in wave {
                        self.eval_and(aig, id);
                    }
                });
                continue;
            };
            let (values, num_words) = (&self.values, self.num_words);
            let results = fanout
                .map(wave, || (), |(), &id| Ok(Simulator::and_value(values, num_words, aig, id)))
                .unwrap_or_else(|p: WorkerPanic| p.resume());
            for (&id, v) in wave.iter().zip(results) {
                self.values[id.index()] = v;
            }
        }
    }

    /// Recomputes the values of every node in the transitive fanout of
    /// `seeds` (the seeds' own values are assumed current). Returns the
    /// nodes that were re-evaluated, in topological order.
    ///
    /// After `edit::replace(aig, target, sub)`, passing
    /// `seeds = [sub.node()]` refreshes exactly the affected cone.
    pub fn resimulate_fanout_cone(&mut self, aig: &Aig, seeds: &[NodeId]) -> Vec<NodeId> {
        self.resimulate_fanout_cone_with(aig, seeds, &WorkerPool::new(1))
    }

    /// Like [`Simulator::resimulate_fanout_cone`], but evaluates each
    /// level of the affected cone in parallel on `pool` (bit-identical to
    /// the serial refresh at any thread count).
    pub fn resimulate_fanout_cone_with(
        &mut self,
        aig: &Aig,
        seeds: &[NodeId],
        pool: &WorkerPool,
    ) -> Vec<NodeId> {
        // Collect the union of TFO cones excluding the seeds themselves.
        let mut in_cone = vec![false; aig.num_nodes()];
        let mut queue: Vec<NodeId> = Vec::new();
        for &s in seeds {
            for &f in aig.fanouts(s) {
                if !in_cone[f.index()] {
                    in_cone[f.index()] = true;
                    queue.push(f);
                }
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &f in aig.fanouts(u) {
                if !in_cone[f.index()] {
                    in_cone[f.index()] = true;
                    queue.push(f);
                }
            }
        }
        // Evaluate in topological order restricted to the cone.
        let mut order: Vec<NodeId> =
            als_aig::topo::topo_order(aig).into_iter().filter(|n| in_cone[n.index()]).collect();
        self.eval_in_waves(aig, &order, pool);
        order.retain(|n| aig.node(*n).is_and());
        order
    }

    /// Interprets the primary outputs as a weighted integer per pattern and
    /// returns the value of pattern `p` (LSB-first output ordering).
    pub fn output_word(&self, aig: &Aig, p: usize) -> u128 {
        let mut v = 0u128;
        for (k, o) in aig.outputs().iter().enumerate().take(128) {
            let bit = self.values[o.lit.node().index()].get(p) ^ o.lit.is_complement();
            if bit {
                v |= 1 << k;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_aig::Aig;

    /// 2-bit adder: s = a + b (3 outputs).
    fn adder2() -> Aig {
        let mut aig = Aig::new("add2");
        let a = aig.add_inputs("a", 2);
        let b = aig.add_inputs("b", 2);
        let (s0, c0) = aig.half_adder(a[0], b[0]);
        let (s1, c1) = aig.full_adder(a[1], b[1], c0);
        aig.add_output(s0, "s0");
        aig.add_output(s1, "s1");
        aig.add_output(c1, "s2");
        aig
    }

    #[test]
    fn exhaustive_adder_matches_arithmetic() {
        let aig = adder2();
        // pad inputs to 6 with unused inputs
        let mut padded = adder2();
        padded.add_inputs("pad", 2);
        let patterns = PatternSet::exhaustive(6);
        let sim = Simulator::new(&padded, &patterns);
        for p in 0..64 {
            let bits = patterns.pattern(p);
            let a = bits[0] as u32 | (bits[1] as u32) << 1;
            let b = bits[2] as u32 | (bits[3] as u32) << 1;
            assert_eq!(sim.output_word(&padded, p) as u32, a + b, "pattern {p}");
        }
        let _ = aig;
    }

    #[test]
    fn lit_value_applies_complement() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(!a, "o");
        let patterns = PatternSet::random(1, 4, 1);
        let sim = Simulator::new(&aig, &patterns);
        let v = sim.lit_value(a);
        let nv = sim.lit_value(!a);
        assert_eq!(v.not(), nv);
        assert_eq!(sim.output_value(&aig, 0), nv);
    }

    #[test]
    fn resimulate_after_replace_matches_full_resim() {
        use als_aig::edit::replace;
        let mut aig = Aig::new("r");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g1 = aig.and(a, b);
        let g2 = aig.and(g1, c);
        let g3 = aig.and(g2, !a);
        aig.add_output(g3, "o");
        aig.add_output(g2, "o1");
        let patterns = PatternSet::random(3, 8, 3);
        let mut sim = Simulator::new(&aig, &patterns);

        // replace g1 by input a
        let rec = replace(&mut aig, g1.node(), a);
        sim.resimulate_fanout_cone(&aig, &[rec.replacement.node()]);

        let fresh = Simulator::new(&aig, &patterns);
        for id in aig.iter_live() {
            assert_eq!(sim.value(id), fresh.value(id), "node {id}");
        }
    }

    #[test]
    fn constant_node_is_zero() {
        let mut aig = Aig::new("k");
        let a = aig.add_input("a");
        aig.add_output(a, "o");
        let sim = Simulator::new(&aig, &PatternSet::random(1, 2, 0));
        assert!(sim.value(NodeId::CONST0).is_zero());
    }
}
