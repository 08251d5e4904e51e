//! CPM storage: sparse per-node rows over reachable outputs, backed by one
//! flat word arena.
//!
//! The hot kernels (Eq. (1) row construction, batch LAC evaluation) stream
//! over rows word-by-word; boxing every `(node, output)` entry in its own
//! heap vector made them allocator-bound and pointer-chased. Instead the
//! matrix owns a single `Vec<u64>` arena: entry `k` occupies the word range
//! `[k·W, (k+1)·W)` for pattern width `W`, rows are contiguous runs of
//! entries sorted by output, and every entry carries its first/last
//! nonzero-word window so kernels can skip guaranteed-zero words without
//! reading them. All-zero entries (annihilated difference vectors) are
//! dropped at write time — they propagate nothing through Eq. (1) and
//! contribute nothing to any error estimate.

use als_aig::NodeId;
use als_sim::{BitsRef, PackedBits};

/// One node's CPM row in boxed form: for each output reachable from the
/// node, the packed Boolean-difference vector `P[·, n, o]` over all
/// patterns. Only the brute-force oracle and the single-node exact row
/// still use this owned representation; arena rows are read via
/// [`RowView`].
pub type CpmRow = Vec<(u32, PackedBits)>;

/// Sentinel for "no row stored".
const NO_ROW: u32 = u32::MAX;

/// Metadata of one arena entry. The arena offset is implicit: entry `k`
/// owns words `[k·W, (k+1)·W)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Entry {
    /// Output index this entry belongs to.
    output: u32,
    /// First word of the entry that may be nonzero.
    nz_begin: u32,
    /// One past the last word that may be nonzero (window never empty:
    /// all-zero entries are not stored).
    nz_end: u32,
}

/// Span of one row inside the entry table.
#[derive(Copy, Clone, Debug)]
struct RowSpan {
    start: u32,
    len: u32,
}

/// A reusable row-construction buffer: outputs plus one flat word buffer,
/// entry `i` at words `[i·W, (i+1)·W)`.
///
/// Builders push entries in arbitrary output order (cut members yield
/// outputs unsorted); [`Cpm::set_row`] sorts by output while copying into
/// the arena. The buffer is cleared and reused across nodes, so steady-state
/// row construction performs no heap allocation.
#[derive(Clone, Debug)]
pub struct RowData {
    num_words: usize,
    outputs: Vec<u32>,
    words: Vec<u64>,
    /// Scratch for the sort-by-output permutation in `set_row`.
    perm: Vec<u32>,
}

impl RowData {
    /// An empty buffer for `num_words`-word entries.
    pub fn new(num_words: usize) -> RowData {
        RowData { num_words, outputs: Vec::new(), words: Vec::new(), perm: Vec::new() }
    }

    /// Removes all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.outputs.clear();
        self.words.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Appends a zero-filled entry for `output` and returns its word slice
    /// for the caller to fill.
    pub fn push_entry(&mut self, output: u32) -> &mut [u64] {
        self.outputs.push(output);
        let start = self.words.len();
        self.words.resize(start + self.num_words, 0);
        &mut self.words[start..]
    }

    /// Drops the most recently pushed entry (used when a computed entry
    /// turns out to be all-zero — an annihilated difference vector).
    pub fn pop_entry(&mut self) {
        self.outputs.pop();
        self.words.truncate(self.words.len() - self.num_words);
    }

    /// Word slice of entry `i`.
    fn entry_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.num_words..(i + 1) * self.num_words]
    }

    /// Iterates `(output, words)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u64])> + '_ {
        self.outputs.iter().enumerate().map(|(i, &o)| (o, self.entry_words(i)))
    }
}

/// The change propagation matrix of a circuit, stored sparsely in one word
/// arena: only computed nodes carry a row (the partial phase-two
/// computation leaves non-candidate rows empty), each row covers only the
/// outputs reachable from its node, and annihilated (all-zero) entries are
/// dropped at write time.
#[derive(Clone, Debug, Default)]
pub struct Cpm {
    num_words: usize,
    /// Flat word arena; entry `k` owns `[k·num_words, (k+1)·num_words)`.
    words: Vec<u64>,
    /// Entry metadata, one contiguous sorted-by-output run per row.
    entries: Vec<Entry>,
    /// Per node-slot: span into `entries` (`start == NO_ROW` = absent).
    rows: Vec<RowSpan>,
}

impl Cpm {
    /// An empty CPM sized for `num_nodes` node slots and `num_words`-word
    /// difference vectors.
    pub fn new(num_nodes: usize, num_words: usize) -> Cpm {
        Cpm {
            num_words,
            words: Vec::new(),
            entries: Vec::new(),
            rows: vec![RowSpan { start: NO_ROW, len: 0 }; num_nodes],
        }
    }

    /// Pattern width in 64-bit words.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Stores the row of node `n`, sorting entries by output and dropping
    /// all-zero entries while copying into the arena. `row` is consumed
    /// logically (cleared) but keeps its capacity for reuse.
    ///
    /// # Panics
    /// Panics (in debug builds) if `n` already has a row or two entries
    /// share an output.
    pub fn set_row(&mut self, n: NodeId, row: &mut RowData) {
        debug_assert_eq!(row.num_words, self.num_words, "row width mismatch");
        debug_assert_eq!(self.rows[n.index()].start, NO_ROW, "row set twice");
        let start = self.entries.len();
        // Sort the permutation, not the word chunks.
        row.perm.clear();
        row.perm.extend(0..row.outputs.len() as u32);
        row.perm.sort_unstable_by_key(|&i| row.outputs[i as usize]);
        debug_assert!(
            row.perm.windows(2).all(|w| row.outputs[w[0] as usize] < row.outputs[w[1] as usize]),
            "cut covers each output once"
        );
        for &i in &row.perm {
            let src = row.entry_words(i as usize);
            let nz_begin = src.iter().position(|&w| w != 0);
            let Some(nz_begin) = nz_begin else { continue }; // annihilated
            let nz_end = src.iter().rposition(|&w| w != 0).map_or(0, |e| e + 1);
            self.entries.push(Entry {
                output: row.outputs[i as usize],
                nz_begin: nz_begin as u32,
                nz_end: nz_end as u32,
            });
            self.words.extend_from_slice(src);
        }
        self.rows[n.index()] =
            RowSpan { start: start as u32, len: (self.entries.len() - start) as u32 };
        row.clear();
    }

    /// Stores a row given as owned `(output, bits)` pairs — the
    /// compatibility path for the brute-force oracle and tests.
    pub fn set_row_pairs(&mut self, n: NodeId, pairs: &[(u32, PackedBits)]) {
        let mut data = RowData::new(self.num_words);
        for (o, bits) in pairs {
            data.push_entry(*o).copy_from_slice(bits.words());
        }
        self.set_row(n, &mut data);
    }

    /// The row of node `n`, if computed.
    pub fn row(&self, n: NodeId) -> Option<RowView<'_>> {
        let span = self.rows.get(n.index())?;
        if span.start == NO_ROW {
            return None;
        }
        Some(RowView { cpm: self, start: span.start as usize, len: span.len as usize })
    }

    /// The entry `P[·, n, o]`, if the row is computed and `o`'s difference
    /// vector is nonzero (annihilated entries are not stored). Found by
    /// binary search over the sorted row.
    pub fn entry(&self, n: NodeId, o: u32) -> Option<BitsRef<'_>> {
        self.row(n)?.entry(o)
    }

    /// Whether a row exists for `n`.
    pub fn has_row(&self, n: NodeId) -> bool {
        self.rows.get(n.index()).is_some_and(|s| s.start != NO_ROW)
    }

    /// Number of computed rows.
    pub fn num_rows(&self) -> usize {
        self.rows.iter().filter(|s| s.start != NO_ROW).count()
    }

    /// Total number of stored (node, output) entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Total arena footprint in bytes (words only, excluding metadata).
    pub fn arena_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    fn entry_bits(&self, k: usize) -> BitsRef<'_> {
        let e = self.entries[k];
        BitsRef::with_window(
            &self.words[k * self.num_words..(k + 1) * self.num_words],
            e.nz_begin as usize,
            e.nz_end as usize,
        )
    }
}

/// A borrowed view of one CPM row: `(output, bits)` entries sorted by
/// output, each bits view carrying its nonzero-word window.
#[derive(Copy, Clone)]
pub struct RowView<'a> {
    cpm: &'a Cpm,
    start: usize,
    len: usize,
}

impl<'a> RowView<'a> {
    /// Number of (nonzero) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(output, bits)` in ascending output order. (`RowView` is
    /// `Copy`, so iterating consumes nothing.)
    pub fn iter(self) -> impl Iterator<Item = (u32, BitsRef<'a>)> + 'a {
        let (cpm, start) = (self.cpm, self.start);
        (start..start + self.len).map(move |k| (cpm.entries[k].output, cpm.entry_bits(k)))
    }

    /// The entry of output `o`, if present, by binary search.
    pub fn entry(&self, o: u32) -> Option<BitsRef<'a>> {
        let entries = &self.cpm.entries[self.start..self.start + self.len];
        let i = entries.binary_search_by_key(&o, |e| e.output).ok()?;
        Some(self.cpm.entry_bits(self.start + i))
    }
}

impl PartialEq for RowView<'_> {
    fn eq(&self, other: &RowView<'_>) -> bool {
        self.len == other.len
            && self.iter().zip(other.iter()).all(|((oa, a), (ob, b))| oa == ob && a == b)
    }
}

impl std::fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_entries() {
        let mut cpm = Cpm::new(4, 1);
        assert!(!cpm.has_row(NodeId(2)));
        cpm.set_row_pairs(
            NodeId(2),
            &[(3, PackedBits::zeros(1)), (0, PackedBits::ones(1))], // unsorted on purpose
        );
        assert!(cpm.has_row(NodeId(2)));
        assert_eq!(cpm.num_rows(), 1);
        // the all-zero entry for output 3 is annihilated at write time
        assert_eq!(cpm.num_entries(), 1);
        assert!(cpm.entry(NodeId(2), 0).unwrap().get(5));
        assert!(cpm.entry(NodeId(2), 3).is_none());
        assert!(cpm.entry(NodeId(2), 1).is_none());
        assert!(cpm.entry(NodeId(1), 0).is_none());
    }

    #[test]
    fn rows_sorted_and_binary_searchable() {
        let mut cpm = Cpm::new(2, 2);
        let mut data = RowData::new(2);
        for o in [5u32, 1, 9, 3] {
            let w = data.push_entry(o);
            w[1] = u64::from(o); // nonzero in word 1 only
        }
        cpm.set_row(NodeId(0), &mut data);
        assert!(data.is_empty(), "set_row clears the buffer");
        let row = cpm.row(NodeId(0)).unwrap();
        let outputs: Vec<u32> = row.iter().map(|(o, _)| o).collect();
        assert_eq!(outputs, vec![1, 3, 5, 9]);
        for o in outputs {
            let e = row.entry(o).unwrap();
            assert_eq!(e.words(), &[0, u64::from(o)]);
            assert_eq!((e.nz_begin(), e.nz_end()), (1, 2));
        }
        assert!(row.entry(2).is_none());
        assert!(row.entry(100).is_none());
    }

    #[test]
    fn row_views_compare_across_matrices() {
        let mk = |zero_first: bool| {
            let mut cpm = Cpm::new(1, 1);
            let mut data = RowData::new(1);
            if zero_first {
                data.push_entry(0); // annihilated, dropped
            }
            data.push_entry(1)[0] = 0b101;
            cpm.set_row(NodeId(0), &mut data);
            cpm
        };
        let (a, b) = (mk(true), mk(false));
        assert_eq!(a.row(NodeId(0)).unwrap(), b.row(NodeId(0)).unwrap());
        assert_eq!(a.num_entries(), 1);
        assert!(a.arena_bytes() == 8);
    }
}
