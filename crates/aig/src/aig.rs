//! The mutable AND-inverter graph.

use std::fmt;

use crate::lit::{Lit, NodeId};
use crate::node::Node;
use crate::strash::StrashTable;
use crate::txn::{Savepoint, TxnLog, TxnOp};

/// A primary output: a literal plus a name.
///
/// Outputs are passive records; the driving literal is rewired by
/// [`crate::edit`] when a LAC removes the driver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Output {
    /// Literal driving this output.
    pub lit: Lit,
    /// Human-readable output name.
    pub name: String,
}

/// A combinational AND-inverter graph.
///
/// Node 0 is always the constant-zero node. Primary inputs and AND gates are
/// appended after it. Edges carry complement bits ([`Lit`]). The graph keeps
/// full fanout information (gate fanouts with multiplicity, plus the set of
/// primary outputs each node drives) so that local approximate changes can be
/// applied and analysed incrementally.
///
/// Identifiers are stable: deleting a node marks it dead and leaves a hole;
/// [`Aig::compact`] renumbers into a fresh topologically-ordered graph.
#[derive(Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<Node>,
    pis: Vec<NodeId>,
    pi_names: Vec<String>,
    outputs: Vec<Output>,
    /// Gate fanouts per node, with multiplicity (a node using the same fanin
    /// twice appears twice).
    fanouts: Vec<Vec<NodeId>>,
    /// Output indices driven by each node.
    po_refs: Vec<Vec<u32>>,
    num_dead: usize,
    strash: StrashTable,
    /// Undo journal for open transactions; empty otherwise.
    txn: TxnLog,
}

impl Aig {
    /// Creates an empty AIG containing only the constant-zero node.
    pub fn new(name: impl Into<String>) -> Aig {
        Aig {
            name: name.into(),
            nodes: vec![Node::const0()],
            pis: Vec::new(),
            pi_names: Vec::new(),
            outputs: Vec::new(),
            fanouts: vec![Vec::new()],
            po_refs: vec![Vec::new()],
            num_dead: 0,
            strash: StrashTable::new(),
            txn: TxnLog::default(),
        }
    }

    /// Name of the design.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Appends a primary input and returns its positive literal.
    ///
    /// # Panics
    /// Panics inside a transaction (see [`Aig::begin_txn`]).
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        self.assert_no_txn();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::input(self.pis.len() as u32));
        self.fanouts.push(Vec::new());
        self.po_refs.push(Vec::new());
        self.pis.push(id);
        self.pi_names.push(name.into());
        id.lit()
    }

    /// Appends `n` primary inputs named `prefix0..prefix{n-1}`.
    pub fn add_inputs(&mut self, prefix: &str, n: usize) -> Vec<Lit> {
        (0..n).map(|i| self.add_input(format!("{prefix}{i}"))).collect()
    }

    /// Returns the AND of two literals.
    ///
    /// Applies constant folding and trivial-case simplification, and reuses
    /// structurally identical nodes through a structural-hashing table while
    /// the graph is under construction (the table is discarded on the first
    /// destructive edit).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if let Some(existing) = self.strash.lookup(a, b) {
            return existing.lit();
        }
        let id = self.new_and_node(a, b);
        self.strash.insert(a, b, id);
        id.lit()
    }

    /// Creates a fresh AND node without structural hashing or folding.
    ///
    /// Used by the AIGER reader, which must preserve node numbering.
    pub fn and_raw(&mut self, a: Lit, b: Lit) -> Lit {
        self.new_and_node(a, b).lit()
    }

    fn new_and_node(&mut self, a: Lit, b: Lit) -> NodeId {
        self.assert_no_txn();
        debug_assert!(a.node().index() < self.nodes.len(), "fanin out of range");
        debug_assert!(b.node().index() < self.nodes.len(), "fanin out of range");
        debug_assert!(!self.nodes[a.node().index()].is_dead(), "fanin is dead");
        debug_assert!(!self.nodes[b.node().index()].is_dead(), "fanin is dead");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::and(a, b));
        self.fanouts.push(Vec::new());
        self.po_refs.push(Vec::new());
        self.fanouts[a.node().index()].push(id);
        self.fanouts[b.node().index()].push(id);
        id
    }

    /// Registers `lit` as a primary output and returns the output index.
    ///
    /// # Panics
    /// Panics inside a transaction (see [`Aig::begin_txn`]).
    pub fn add_output(&mut self, lit: Lit, name: impl Into<String>) -> usize {
        self.assert_no_txn();
        debug_assert!(lit.node().index() < self.nodes.len());
        let idx = self.outputs.len();
        self.outputs.push(Output { lit, name: name.into() });
        self.po_refs[lit.node().index()].push(idx as u32);
        idx
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Total node slots, including dead nodes and the constant.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.pis.len() - self.num_dead
    }

    /// Number of dead (removed) node slots.
    pub fn num_dead(&self) -> usize {
        self.num_dead
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input nodes, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.pis
    }

    /// Name of primary input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.pi_names[i]
    }

    /// Renames primary input `i`.
    pub fn set_input_name(&mut self, i: usize, name: impl Into<String>) {
        self.pi_names[i] = name.into();
    }

    /// Renames primary output `idx`.
    pub fn set_output_name(&mut self, idx: usize, name: impl Into<String>) {
        self.outputs[idx].name = name.into();
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Literal driving output `idx`.
    pub fn output_lit(&self, idx: usize) -> Lit {
        self.outputs[idx].lit
    }

    pub(crate) fn set_output_lit(&mut self, idx: usize, lit: Lit) {
        if self.txn.active() {
            self.txn.record(TxnOp::SetOutputLit { idx: idx as u32, old: self.outputs[idx].lit });
        }
        self.outputs[idx].lit = lit;
    }

    /// The node record for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Whether `id` refers to a live (not removed) node.
    pub fn is_live(&self, id: NodeId) -> bool {
        !self.nodes[id.index()].is_dead()
    }

    /// Gate fanouts of `id`, with multiplicity.
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Indices of primary outputs driven by `id`.
    pub fn output_refs(&self, id: NodeId) -> &[u32] {
        &self.po_refs[id.index()]
    }

    /// Total fanout count (gate fanouts plus driven outputs).
    pub fn fanout_count(&self, id: NodeId) -> usize {
        self.fanouts[id.index()].len() + self.po_refs[id.index()].len()
    }

    /// Iterates over all live node ids (constant, inputs, gates).
    pub fn iter_live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| !n.is_dead()).map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates over live AND-gate node ids.
    pub fn iter_ands(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_dead() && n.is_and())
            .map(|(i, _)| NodeId(i as u32))
    }

    // ------------------------------------------------------------------
    // Mutation internals shared with `edit`
    // ------------------------------------------------------------------

    pub(crate) fn set_fanin(&mut self, id: NodeId, slot: usize, lit: Lit) {
        if self.txn.active() {
            let node = &self.nodes[id.index()];
            let old = if slot == 0 { node.fanin0() } else { node.fanin1() };
            self.txn.record(TxnOp::SetFanin { node: id, slot: slot as u8, old });
        }
        self.nodes[id.index()].set_fanin(slot, lit);
    }

    pub(crate) fn push_fanout(&mut self, of: NodeId, fanout: NodeId) {
        if self.txn.active() {
            self.txn.record(TxnOp::PushFanout { of });
        }
        self.fanouts[of.index()].push(fanout);
    }

    pub(crate) fn take_fanouts(&mut self, of: NodeId) -> Vec<NodeId> {
        let old = std::mem::take(&mut self.fanouts[of.index()]);
        if self.txn.active() {
            self.txn.record(TxnOp::TakeFanouts { of, old: old.clone() });
        }
        old
    }

    pub(crate) fn take_po_refs(&mut self, of: NodeId) -> Vec<u32> {
        let old = std::mem::take(&mut self.po_refs[of.index()]);
        if self.txn.active() {
            self.txn.record(TxnOp::TakePoRefs { of, old: old.clone() });
        }
        old
    }

    pub(crate) fn push_po_ref(&mut self, of: NodeId, out_idx: u32) {
        if self.txn.active() {
            self.txn.record(TxnOp::PushPoRef { of });
        }
        self.po_refs[of.index()].push(out_idx);
    }

    /// Removes one occurrence of `fanout` from `of`'s fanout list.
    pub(crate) fn remove_fanout_once(&mut self, of: NodeId, fanout: NodeId) {
        let list = &mut self.fanouts[of.index()];
        if let Some(pos) = list.iter().position(|&f| f == fanout) {
            list.swap_remove(pos);
            if self.txn.active() {
                self.txn.record(TxnOp::RemoveFanout { of, value: fanout, pos });
            }
        } else {
            debug_assert!(false, "fanout {fanout} missing from {of}");
        }
    }

    pub(crate) fn mark_dead(&mut self, id: NodeId) {
        debug_assert!(!self.nodes[id.index()].is_dead());
        if self.txn.active() {
            self.txn.record(TxnOp::MarkDead { node: id });
        }
        self.nodes[id.index()].set_dead(true);
        self.num_dead += 1;
    }

    /// Discards the structural-hashing table (called on the first edit).
    pub(crate) fn invalidate_strash(&mut self) {
        self.strash.clear();
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Opens a transaction: every destructive edit from here on is
    /// journaled so [`Aig::rollback_txn`] can restore the graph exactly,
    /// without cloning it. Close with [`Aig::commit_txn`] or
    /// [`Aig::rollback_txn`].
    ///
    /// Transactions nest; an inner commit keeps its edits undoable by the
    /// enclosing transaction. Node creation is rejected while any
    /// transaction is open (LAC application only removes nodes), and the
    /// structural-hashing table is **not** restored by rollback — it is
    /// discarded on the first destructive edit regardless.
    pub fn begin_txn(&mut self) {
        let sp = Savepoint { journal_len: self.txn.ops.len(), num_nodes: self.nodes.len() };
        self.txn.savepoints.push(sp);
    }

    /// Closes the innermost transaction, keeping its edits.
    ///
    /// # Panics
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self) {
        self.txn.savepoints.pop().expect("commit_txn: no open transaction");
        if self.txn.savepoints.is_empty() {
            self.txn.ops.clear();
        }
    }

    /// Closes the innermost transaction, undoing every edit made since its
    /// [`Aig::begin_txn`] — in reverse order, restoring fanin literals,
    /// fanout lists (order included), output drivers and dead marks.
    ///
    /// # Panics
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self) {
        let sp = self.txn.savepoints.pop().expect("rollback_txn: no open transaction");
        debug_assert_eq!(sp.num_nodes, self.nodes.len(), "nodes created inside a transaction");
        while self.txn.ops.len() > sp.journal_len {
            let op = self.txn.ops.pop().expect("journal shorter than savepoint");
            self.undo(op);
        }
    }

    /// Whether a transaction is currently open.
    pub fn in_txn(&self) -> bool {
        self.txn.active()
    }

    /// Applies the exact inverse of one journaled mutation.
    fn undo(&mut self, op: TxnOp) {
        match op {
            TxnOp::SetFanin { node, slot, old } => {
                self.nodes[node.index()].set_fanin(slot as usize, old);
            }
            TxnOp::PushFanout { of } => {
                self.fanouts[of.index()].pop();
            }
            TxnOp::RemoveFanout { of, value, pos } => {
                // Exact inverse of `swap_remove(pos)`: the removed value
                // came from `pos`; whatever sits there now was the tail.
                let list = &mut self.fanouts[of.index()];
                if pos == list.len() {
                    list.push(value);
                } else {
                    let displaced = list[pos];
                    list.push(displaced);
                    list[pos] = value;
                }
            }
            TxnOp::TakeFanouts { of, old } => {
                self.fanouts[of.index()] = old;
            }
            TxnOp::TakePoRefs { of, old } => {
                self.po_refs[of.index()] = old;
            }
            TxnOp::PushPoRef { of } => {
                self.po_refs[of.index()].pop();
            }
            TxnOp::SetOutputLit { idx, old } => {
                self.outputs[idx as usize].lit = old;
            }
            TxnOp::MarkDead { node } => {
                self.nodes[node.index()].set_dead(false);
                self.num_dead -= 1;
            }
        }
    }

    fn assert_no_txn(&self) {
        assert!(
            !self.txn.active(),
            "node creation inside a transaction is not supported: \
             commit or roll back first"
        );
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Rebuilds the graph without dead nodes, numbering nodes in
    /// topological order. Returns the new graph together with the mapping
    /// from old node id to new literal (identity polarity); dead nodes map
    /// to `None`.
    pub fn compact(&self) -> (Aig, Vec<Option<NodeId>>) {
        let order = crate::topo::topo_order(self);
        let mut out = Aig::new(self.name.clone());
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        map[NodeId::CONST0.index()] = Some(NodeId::CONST0);
        for (i, &pi) in self.pis.iter().enumerate() {
            let lit = out.add_input(self.pi_names[i].clone());
            map[pi.index()] = Some(lit.node());
        }
        for &id in &order {
            let node = &self.nodes[id.index()];
            if !node.is_and() {
                continue;
            }
            let f0 = node.fanin0();
            let f1 = node.fanin1();
            let m0 = map[f0.node().index()].expect("fanin precedes in topo order");
            let m1 = map[f1.node().index()].expect("fanin precedes in topo order");
            let lit = out.and_raw(
                m0.lit().xor_complement(f0.is_complement()),
                m1.lit().xor_complement(f1.is_complement()),
            );
            map[id.index()] = Some(lit.node());
        }
        for o in &self.outputs {
            let m = map[o.lit.node().index()].expect("output driver is live");
            out.add_output(m.lit().xor_complement(o.lit.is_complement()), o.name.clone());
        }
        (out, map)
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig({}: {} PIs, {} POs, {} ANDs, {} dead)",
            self.name,
            self.pis.len(),
            self.outputs.len(),
            self.num_ands(),
            self.num_dead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let aig = Aig::new("empty");
        assert_eq!(aig.num_nodes(), 1);
        assert_eq!(aig.num_ands(), 0);
        assert!(aig.node(NodeId::CONST0).is_const0());
    }

    #[test]
    fn trivial_and_folding() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, b), b);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn strash_reuses_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        let g2 = aig.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(aig.num_ands(), 1);
        let g3 = aig.and(!a, b);
        assert_ne!(g1, g3);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn fanouts_tracked_with_multiplicity() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.and(a, b);
        let h = aig.and_raw(g, !g); // artificially uses g twice
        assert_eq!(aig.fanouts(g.node()), &[h.node(), h.node()]);
        aig.add_output(h, "o");
        assert_eq!(aig.output_refs(h.node()), &[0]);
        assert_eq!(aig.fanout_count(g.node()), 2);
        assert_eq!(aig.fanout_count(h.node()), 1);
    }

    #[test]
    fn outputs_and_names() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("x");
        aig.add_output(!a, "y");
        assert_eq!(aig.num_outputs(), 1);
        assert_eq!(aig.outputs()[0].name, "y");
        assert_eq!(aig.output_lit(0), !a);
        assert_eq!(aig.input_name(0), "x");
    }

    #[test]
    fn compact_is_identity_on_clean_graph() {
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 3);
        let g = aig.and(xs[0], xs[1]);
        let h = aig.and(g, !xs[2]);
        aig.add_output(h, "o0");
        aig.add_output(!g, "o1");
        let (c, map) = aig.compact();
        assert_eq!(c.num_ands(), aig.num_ands());
        assert_eq!(c.num_inputs(), 3);
        assert_eq!(c.num_outputs(), 2);
        assert!(map.iter().all(|m| m.is_some()));
    }
}
