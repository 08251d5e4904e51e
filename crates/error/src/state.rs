//! Cached per-pattern error state and batch flip evaluation.

use als_sim::{BitsRef, PackedBits};

use crate::metric::MetricKind;

/// The flip vector of one primary output: which patterns would see this
/// output toggle if a candidate LAC were applied. Produced by the CPM as
/// `D ∧ P[n][o]`.
#[derive(Clone, Debug)]
pub struct FlipVec {
    /// Output index.
    pub output: usize,
    /// One bit per pattern: 1 = this output toggles.
    pub bits: PackedBits,
}

/// A *deferred* flip source for the fused evaluation kernel: the CPM
/// propagation entry `P[n][o]` of one output, borrowed straight from the
/// arena. The kernel forms `D ∧ P[n][o]` word-by-word on the fly, so no
/// per-candidate flip vector is ever materialised.
#[derive(Copy, Clone, Debug)]
pub struct SparseFlip<'a> {
    /// Output index.
    pub output: usize,
    /// The propagation vector `P[n][o]` with its nonzero-word window.
    pub bits: BitsRef<'a>,
}

/// Everything needed to (a) report the current circuit error and (b)
/// evaluate the error a candidate LAC would cause, given only the LAC's
/// output flip vectors.
///
/// The state caches, per pattern, the number of wrong outputs (for ER) and
/// the signed weighted error (for MED/MSE), so a candidate evaluation only
/// touches the patterns its flips actually change. After a LAC is applied
/// and the circuit resimulated, [`ErrorState::refresh`] re-derives the
/// caches from the new output values.
#[derive(Clone, Debug)]
pub struct ErrorState {
    kind: MetricKind,
    weights: Vec<f64>,
    num_words: usize,
    /// Logical pattern count; at most `num_words * 64`.
    num_patterns: usize,
    /// Valid-lane mask of the last word (`!0` when `num_patterns` is a
    /// multiple of 64). Applied wherever word bits enter the accumulators,
    /// so garbage tail lanes (complemented edges set them) never leak into
    /// ER/MED/MSE.
    tail_mask: u64,
    /// Exact (golden) output bits, per output.
    exact: Vec<PackedBits>,
    /// approx XOR exact, per output.
    diff: Vec<PackedBits>,
    /// Per pattern: number of differing outputs.
    wrong_count: Vec<u32>,
    /// Per pattern: weighted (approx − exact).
    err: Vec<f64>,
    /// Sum over patterns of the metric contribution.
    sum: f64,
}

impl ErrorState {
    /// Builds the state from golden and current output values.
    ///
    /// `exact[o]` and `approx[o]` are the bit vectors of output `o` with
    /// output complements already applied. `weights[o]` is the numeric
    /// weight of output `o` (ignored for ER; see
    /// [`crate::metric::unsigned_weights`]).
    ///
    /// # Panics
    /// Panics if the vector counts or widths disagree, or if `weights` is
    /// shorter than the output count for a weighted metric.
    pub fn new(
        kind: MetricKind,
        weights: Vec<f64>,
        exact: Vec<PackedBits>,
        approx: &[PackedBits],
    ) -> ErrorState {
        let num_patterns = exact.first().map_or(0, PackedBits::num_bits);
        ErrorState::with_pattern_count(kind, weights, exact, approx, num_patterns)
    }

    /// Like [`ErrorState::new`], but for a logical pattern count that need
    /// not be a multiple of 64: the tail lanes of the last word beyond
    /// `num_patterns` are masked out of every accumulation and all metric
    /// denominators use the logical count. With a multiple-of-64 count this
    /// is bit-identical to [`ErrorState::new`].
    ///
    /// # Panics
    /// Panics under the same conditions as [`ErrorState::new`], or if
    /// `num_patterns` does not land in the vectors' last word.
    pub fn with_pattern_count(
        kind: MetricKind,
        weights: Vec<f64>,
        exact: Vec<PackedBits>,
        approx: &[PackedBits],
        num_patterns: usize,
    ) -> ErrorState {
        assert_eq!(exact.len(), approx.len(), "output count mismatch");
        let num_words = exact.first().map_or(0, PackedBits::num_words);
        assert!(exact.iter().chain(approx).all(|v| v.num_words() == num_words));
        if kind.is_weighted() {
            assert!(weights.len() >= exact.len(), "missing output weights");
        }
        assert!(
            num_patterns <= num_words * 64
                && (num_words == 0 || num_patterns > (num_words - 1) * 64),
            "pattern count {num_patterns} does not fit {num_words} words"
        );
        let mut state = ErrorState {
            kind,
            weights,
            num_words,
            num_patterns,
            tail_mask: als_sim::tail_mask(num_patterns),
            diff: vec![PackedBits::zeros(num_words); exact.len()],
            exact,
            wrong_count: vec![0; num_patterns],
            err: vec![0.0; num_patterns],
            sum: 0.0,
        };
        state.refresh(approx);
        state
    }

    /// Valid-lane mask of word `wi` (`!0` except possibly the last word).
    #[inline]
    fn word_mask(&self, wi: usize) -> u64 {
        if wi + 1 == self.num_words {
            self.tail_mask
        } else {
            !0
        }
    }

    /// Recomputes all caches from the current output values (after a LAC
    /// has been applied and the circuit resimulated). The diff vectors are
    /// rewritten in place — the refresh allocates nothing.
    pub fn refresh(&mut self, approx: &[PackedBits]) {
        assert_eq!(approx.len(), self.exact.len());
        self.wrong_count.iter_mut().for_each(|c| *c = 0);
        self.err.iter_mut().for_each(|e| *e = 0.0);
        for (o, a) in approx.iter().enumerate() {
            let w = self.weights.get(o).copied().unwrap_or(0.0);
            let exact = &self.exact[o];
            let diff = &mut self.diff[o];
            for wi in 0..self.num_words {
                let mask = if wi + 1 == self.num_words { self.tail_mask } else { !0 };
                let ewd = exact.words()[wi];
                let word = (a.words()[wi] ^ ewd) & mask;
                diff.words_mut()[wi] = word;
                let mut rem = word;
                while rem != 0 {
                    let b = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let p = wi * 64 + b;
                    self.wrong_count[p] += 1;
                    // approx bit differs from exact: signed error moves by
                    // +w when exact bit is 0 (approx=1), −w when exact is 1.
                    if ewd >> b & 1 == 1 {
                        self.err[p] -= w;
                    } else {
                        self.err[p] += w;
                    }
                }
            }
        }
        self.sum = match self.kind {
            MetricKind::Er => self.wrong_count.iter().filter(|&&c| c > 0).count() as f64,
            MetricKind::Med => self.err.iter().map(|e| e.abs()).sum(),
            MetricKind::Mse => self.err.iter().map(|e| e * e).sum(),
        };
    }

    /// The metric this state tracks.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Number of simulated patterns (the logical count — all metric
    /// denominators use this, not the padded word capacity).
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.exact.len()
    }

    /// Current circuit error under the tracked metric.
    pub fn error(&self) -> f64 {
        self.sum / self.num_patterns() as f64
    }

    /// Current error rate, regardless of the tracked metric.
    pub fn er(&self) -> f64 {
        self.wrong_count.iter().filter(|&&c| c > 0).count() as f64 / self.num_patterns() as f64
    }

    /// Current mean error distance, regardless of the tracked metric.
    pub fn med(&self) -> f64 {
        self.err.iter().map(|e| e.abs()).sum::<f64>() / self.num_patterns() as f64
    }

    /// Current mean squared error, regardless of the tracked metric.
    pub fn mse(&self) -> f64 {
        self.err.iter().map(|e| e * e).sum::<f64>() / self.num_patterns() as f64
    }

    /// Worst-case error distance observed over the pattern set (a report
    /// quantity; the paper's flows bound mean metrics, not this one).
    pub fn max_ed(&self) -> f64 {
        self.err.iter().fold(0.0f64, |m, e| m.max(e.abs()))
    }

    /// The per-output weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Signed weighted error `approx − exact` of pattern `p`.
    pub fn signed_error(&self, p: usize) -> f64 {
        self.err[p]
    }

    /// Standard error of the Monte-Carlo estimate of the tracked metric —
    /// the sample standard deviation of the per-pattern contribution
    /// divided by `sqrt(patterns)`.
    ///
    /// Useful to size the pattern count: the paper uses 100 000 patterns
    /// precisely so that threshold comparisons are well inside the noise
    /// floor; this makes the noise floor visible.
    pub fn standard_error(&self) -> f64 {
        let n = self.num_patterns() as f64;
        let mean = self.sum / n;
        let sum_sq: f64 = match self.kind {
            MetricKind::Er => self.wrong_count.iter().filter(|&&c| c > 0).count() as f64,
            MetricKind::Med => self.err.iter().map(|e| e * e).sum(),
            MetricKind::Mse => self.err.iter().map(|e| e.powi(4)).sum(),
        };
        let variance = (sum_sq / n - mean * mean).max(0.0);
        (variance / n).sqrt()
    }

    /// A symmetric ~95 % confidence interval around the metric estimate.
    pub fn confidence_interval(&self) -> (f64, f64) {
        let e = self.error();
        let half = 1.96 * self.standard_error();
        ((e - half).max(0.0), e + half)
    }

    /// The weighted golden output value of every pattern.
    pub fn exact_values(&self) -> Vec<f64> {
        let mut vals = vec![0.0f64; self.num_patterns()];
        for (o, bitsv) in self.exact.iter().enumerate() {
            let w = self.weights.get(o).copied().unwrap_or(0.0);
            // golden vectors may carry garbage tail lanes (complemented
            // output edges); positions past the logical count are skipped
            for p in bitsv.iter_ones().take_while(|&p| p < self.num_patterns) {
                vals[p] += w;
            }
        }
        vals
    }

    /// Evaluates the error the circuit would have if the given output flips
    /// were applied, without mutating any state.
    ///
    /// Cost is proportional to the number of flipped pattern bits, not to
    /// the pattern count: only patterns actually touched by `flips` are
    /// reconsidered.
    pub fn eval_flips(&self, flips: &[FlipVec]) -> f64 {
        let n = self.num_patterns() as f64;
        if flips.is_empty() {
            return self.sum / n;
        }
        let mut delta_sum = 0.0;
        for wi in 0..self.num_words {
            let mut changed = 0u64;
            for f in flips {
                changed |= f.bits.words()[wi];
            }
            changed &= self.word_mask(wi);
            while changed != 0 {
                let b = changed.trailing_zeros() as usize;
                changed &= changed - 1;
                let p = wi * 64 + b;
                let (mut cnt, mut e) = (self.wrong_count[p] as i64, self.err[p]);
                for f in flips {
                    if f.bits.words()[wi] >> b & 1 == 1 {
                        let o = f.output;
                        let was_diff = self.diff[o].words()[wi] >> b & 1 == 1;
                        cnt += if was_diff { -1 } else { 1 };
                        if self.kind.is_weighted() {
                            let w = self.weights[o];
                            // current approx bit = exact ^ diff; toggling it
                            // moves the signed error by ∓w.
                            let approx_bit = (self.exact[o].words()[wi] >> b & 1 == 1) ^ was_diff;
                            e += if approx_bit { -w } else { w };
                        }
                    }
                }
                delta_sum += match self.kind {
                    MetricKind::Er => {
                        (cnt > 0) as i64 as f64 - (self.wrong_count[p] > 0) as i64 as f64
                    }
                    MetricKind::Med => e.abs() - self.err[p].abs(),
                    MetricKind::Mse => e * e - self.err[p] * self.err[p],
                };
            }
        }
        (self.sum + delta_sum) / n
    }

    /// Error increase (possibly negative) the flips would cause.
    pub fn error_increase(&self, flips: &[FlipVec]) -> f64 {
        self.eval_flips(flips) - self.error()
    }

    /// The fused form of [`ErrorState::eval_flips`]: evaluates the error
    /// the circuit would have if the candidate with change vector `d` and
    /// CPM propagation entries `flips` were applied, forming the per-output
    /// flip vectors `d ∧ P[n][o]` word-by-word on the fly.
    ///
    /// No per-candidate temporaries are allocated; words outside the
    /// intersection of `d`'s support and each entry's nonzero window are
    /// skipped without being read, and an annihilated candidate (empty
    /// union window or all-zero `d`) exits immediately with the current
    /// error. Bit-identical to materialising the flip vectors, filtering
    /// the all-zero ones, and calling [`ErrorState::eval_flips`] — same
    /// floating-point operations in the same order.
    ///
    /// `flips` must be sorted consistently with the caller's reference
    /// ordering (CPM rows are sorted by output).
    ///
    /// Three restructurings over the reference, none of which reorders a
    /// floating-point operation:
    ///
    /// 1. a union-OR pre-pass accumulates every flip's nonzero window into
    ///    one scratch vector, so each word decides "anything flips here?"
    ///    with a single AND instead of a loop over all flips;
    /// 2. a per-word compaction gathers each flip whose masked word
    ///    `d ∧ P` is nonzero, with its diff word, exact word and weight, so
    ///    the per-bit loop reads one compact record per active flip. Words
    ///    outside a `BitsRef` window are zero by contract, so the mask test
    ///    needs no window comparison;
    /// 3. single-active-flip words (the common case on narrow cones) take
    ///    a branch-free specialisation of the same update.
    ///
    /// The f64 accumulation order is the reference's — ascending words,
    /// ascending bits, flips in row order — so results are
    /// `to_bits()`-identical, which the tests assert.
    pub fn eval_flips_sparse(&self, d: &PackedBits, flips: &[SparseFlip<'_>]) -> f64 {
        let n = self.num_patterns() as f64;
        if flips.is_empty() {
            return self.sum / n;
        }
        assert_eq!(d.num_words(), self.num_words, "change-vector width mismatch");
        let lo = flips.iter().map(|f| f.bits.nz_begin()).min().unwrap_or(0);
        let hi = flips.iter().map(|f| f.bits.nz_end()).max().unwrap_or(0);
        if lo >= hi {
            return self.sum / n;
        }
        // Union-OR pre-pass over the flip windows.
        const STACK_WORDS: usize = 256;
        let width = hi - lo;
        let mut union_stack = [0u64; STACK_WORDS];
        let mut union_heap: Vec<u64> = Vec::new();
        let union: &mut [u64] = if width <= STACK_WORDS {
            &mut union_stack[..width]
        } else {
            union_heap.resize(width, 0);
            &mut union_heap
        };
        for f in flips {
            let (b, e) = (f.bits.nz_begin(), f.bits.nz_end());
            if b < e {
                als_sim::kernel::or_assign(&mut union[b - lo..e - lo], &f.bits.words()[b..e]);
            }
        }
        // Per-word compaction buffer; rows wider than the stack buffer
        // spill to one heap buffer per call.
        let mut active_stack = [ActiveFlip::ZERO; STACK_FLIPS];
        let mut active_heap: Vec<ActiveFlip> = Vec::new();
        let active: &mut [ActiveFlip] = if flips.len() <= STACK_FLIPS {
            &mut active_stack[..flips.len()]
        } else {
            active_heap.resize(flips.len(), ActiveFlip::ZERO);
            &mut active_heap
        };
        let weighted = self.kind.is_weighted();
        let mut delta_sum = 0.0;
        for wi in lo..hi {
            let dw = d.words()[wi] & self.word_mask(wi);
            let changed = dw & union[wi - lo];
            if changed == 0 {
                continue;
            }
            let mut k = 0usize;
            for f in flips.iter() {
                // no window check: out-of-window words are zero by the
                // BitsRef contract, so their mask is zero anyway
                let m = dw & f.bits.words()[wi];
                if m != 0 {
                    let o = f.output;
                    active[k] = ActiveFlip {
                        m,
                        diff: self.diff[o].words()[wi],
                        exact: self.exact[o].words()[wi],
                        weight: self.weights.get(o).copied().unwrap_or(0.0),
                    };
                    k += 1;
                }
            }
            if k == 1 {
                // Single active flip: every changed bit belongs to it.
                let af = active[0];
                let mut rem = changed;
                while rem != 0 {
                    let b = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let p = wi * 64 + b;
                    let (mut cnt, mut e) = (self.wrong_count[p] as i64, self.err[p]);
                    let was_diff = af.diff >> b & 1 == 1;
                    cnt += if was_diff { -1 } else { 1 };
                    if weighted {
                        let approx_bit = (af.exact >> b & 1 == 1) ^ was_diff;
                        e += if approx_bit { -af.weight } else { af.weight };
                    }
                    delta_sum += match self.kind {
                        MetricKind::Er => {
                            (cnt > 0) as i64 as f64 - (self.wrong_count[p] > 0) as i64 as f64
                        }
                        MetricKind::Med => e.abs() - self.err[p].abs(),
                        MetricKind::Mse => e * e - self.err[p] * self.err[p],
                    };
                }
                continue;
            }
            let mut rem = changed;
            while rem != 0 {
                let b = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let p = wi * 64 + b;
                let (mut cnt, mut e) = (self.wrong_count[p] as i64, self.err[p]);
                for af in active[..k].iter() {
                    if af.m >> b & 1 == 1 {
                        let was_diff = af.diff >> b & 1 == 1;
                        cnt += if was_diff { -1 } else { 1 };
                        if weighted {
                            let approx_bit = (af.exact >> b & 1 == 1) ^ was_diff;
                            e += if approx_bit { -af.weight } else { af.weight };
                        }
                    }
                }
                delta_sum += match self.kind {
                    MetricKind::Er => {
                        (cnt > 0) as i64 as f64 - (self.wrong_count[p] > 0) as i64 as f64
                    }
                    MetricKind::Med => e.abs() - self.err[p].abs(),
                    MetricKind::Mse => e * e - self.err[p] * self.err[p],
                };
            }
        }
        (self.sum + delta_sum) / n
    }
}

/// Size of the per-word compaction stack buffer of
/// [`ErrorState::eval_flips_sparse`]; rows with more flips spill to one
/// heap buffer per call.
const STACK_FLIPS: usize = 128;

/// One compacted per-word flip record of the fused kernel: the masked
/// flip word plus the diff/exact words and weight the per-bit loop needs,
/// gathered once per word so the inner loop reads sequentially.
#[derive(Copy, Clone)]
struct ActiveFlip {
    m: u64,
    diff: u64,
    exact: u64,
    weight: f64,
}

impl ActiveFlip {
    const ZERO: ActiveFlip = ActiveFlip { m: 0, diff: 0, exact: 0, weight: 0.0 };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::unsigned_weights;

    fn bits(words: Vec<u64>) -> PackedBits {
        PackedBits::from_words(words)
    }

    /// Golden: o0 = 0b1100, o1 = 0b1010 on 64 patterns (only 4 used).
    fn two_output_state(kind: MetricKind, approx0: u64, approx1: u64) -> ErrorState {
        ErrorState::new(
            kind,
            unsigned_weights(2),
            vec![bits(vec![0b1100]), bits(vec![0b1010])],
            &[bits(vec![approx0]), bits(vec![approx1])],
        )
    }

    #[test]
    fn exact_circuit_has_zero_error() {
        for kind in MetricKind::ALL {
            let s = two_output_state(kind, 0b1100, 0b1010);
            assert_eq!(s.error(), 0.0);
            assert_eq!(s.er(), 0.0);
            assert_eq!(s.med(), 0.0);
            assert_eq!(s.mse(), 0.0);
        }
    }

    #[test]
    fn er_counts_wrong_patterns() {
        // o0 wrong on patterns 0 and 1, o1 wrong on pattern 1.
        let s = two_output_state(MetricKind::Er, 0b1100 ^ 0b0011, 0b1010 ^ 0b0010);
        assert!((s.error() - 2.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn med_weights_outputs() {
        // pattern 0: o0 flips (exact 0 -> approx 1): err +1
        // pattern 1: o1 flips (exact 1 -> approx 0): err -2
        let s = two_output_state(MetricKind::Med, 0b1101, 0b1000);
        assert!((s.error() - (1.0 + 2.0) / 64.0).abs() < 1e-12);
        let mse = two_output_state(MetricKind::Mse, 0b1101, 0b1000);
        assert!((mse.error() - (1.0 + 4.0) / 64.0).abs() < 1e-12);
    }

    #[test]
    fn eval_flips_matches_refresh() {
        for kind in MetricKind::ALL {
            let s = two_output_state(kind, 0b1101, 0b1000);
            // candidate flips: o0 on patterns {0,2}, o1 on pattern {3}
            let flips = vec![
                FlipVec { output: 0, bits: bits(vec![0b0101]) },
                FlipVec { output: 1, bits: bits(vec![0b1000]) },
            ];
            let predicted = s.eval_flips(&flips);
            // apply flips manually and rebuild
            let a0 = 0b1101u64 ^ 0b0101;
            let a1 = 0b1000u64 ^ 0b1000;
            let fresh = two_output_state(kind, a0, a1);
            assert!(
                (predicted - fresh.error()).abs() < 1e-12,
                "{kind}: predicted {predicted} vs {e}",
                e = fresh.error()
            );
        }
    }

    #[test]
    fn eval_flips_sparse_is_bit_identical_to_eval_flips() {
        // Multi-word state with a zero middle word so the window skipping
        // actually engages; the fused kernel must return the *same bits*.
        let exact = vec![bits(vec![0b1100, 0, 0b1]), bits(vec![0b1010, 0, 0b10])];
        let approx = [bits(vec![0b0110, 0, 0b11]), bits(vec![0b1010, 0, 0])];
        for kind in MetricKind::ALL {
            let s = ErrorState::new(kind, unsigned_weights(2), exact.clone(), &approx);
            let d = bits(vec![0b0111, 0, 0b10]);
            let rows = [(0u32, bits(vec![0b0101, 0, 0b11])), (1u32, bits(vec![0, 0, 0b10]))];
            // reference: materialise d ∧ P, drop all-zero vectors, eval_flips
            let dense: Vec<FlipVec> = rows
                .iter()
                .map(|(o, p)| FlipVec { output: *o as usize, bits: d.and(p) })
                .filter(|f| !f.bits.is_zero())
                .collect();
            let sparse: Vec<SparseFlip<'_>> = rows
                .iter()
                .map(|(o, p)| SparseFlip { output: *o as usize, bits: p.as_bits_ref() })
                .collect();
            let a = s.eval_flips(&dense);
            let b = s.eval_flips_sparse(&d, &sparse);
            assert_eq!(a.to_bits(), b.to_bits(), "{kind}: {a} vs {b}");
        }
    }

    #[test]
    fn more_than_stack_flips_spill_to_the_heap_and_stay_identical() {
        // 130 outputs all flipping in the same word exceeds the 128-entry
        // compaction stack buffer; the fused kernel must take the heap
        // spill path and agree with the dense reference bit for bit.
        const OUTPUTS: usize = 130;
        let exact: Vec<PackedBits> = (0..OUTPUTS).map(|o| bits(vec![0b1 << (o % 4)])).collect();
        let approx: Vec<PackedBits> = (0..OUTPUTS).map(|o| bits(vec![0b11 << (o % 3)])).collect();
        let weights: Vec<f64> = (0..OUTPUTS).map(|o| 1.0 + (o % 7) as f64).collect();
        let rows: Vec<(usize, PackedBits)> =
            (0..OUTPUTS).map(|o| (o, bits(vec![0b1111 | 1 << (o % 8)]))).collect();
        let d = bits(vec![0b1011_0111]);
        for kind in MetricKind::ALL {
            let s = ErrorState::new(kind, weights.clone(), exact.clone(), &approx);
            let sparse: Vec<SparseFlip<'_>> = rows
                .iter()
                .map(|(o, p)| SparseFlip { output: *o, bits: p.as_bits_ref() })
                .collect();
            assert!(sparse.len() > 128, "test must exercise the spill path");
            let dense: Vec<FlipVec> = rows
                .iter()
                .map(|(o, p)| FlipVec { output: *o, bits: d.and(p) })
                .filter(|f| !f.bits.is_zero())
                .collect();
            let reference = s.eval_flips(&dense);
            let fused = s.eval_flips_sparse(&d, &sparse);
            assert_eq!(reference.to_bits(), fused.to_bits(), "{kind} spill");
        }
    }

    #[test]
    fn tail_masked_state_ignores_garbage_lanes() {
        // 68 logical patterns over 2 words; lanes 4..64 of word 1 carry
        // garbage that must not reach any metric.
        let garbage = !0u64 << 4;
        for kind in MetricKind::ALL {
            let exact = vec![bits(vec![0b1100, 0b01])];
            let approx = [bits(vec![0b1100, 0b10 | garbage])];
            let s = ErrorState::with_pattern_count(kind, unsigned_weights(1), exact, &approx, 68);
            assert_eq!(s.num_patterns(), 68);
            // patterns 64 and 65 are wrong (01 vs 10), nothing else
            let expect = match kind {
                MetricKind::Er => 2.0 / 68.0,
                MetricKind::Med | MetricKind::Mse => 2.0 / 68.0,
            };
            assert!((s.error() - expect).abs() < 1e-12, "{kind}: {}", s.error());
            // a change vector full of garbage lanes is masked in eval too,
            // by the fused kernel and the dense reference alike
            let d = bits(vec![0, garbage]);
            let p = bits(vec![0, !0]);
            let sparse = vec![SparseFlip { output: 0, bits: p.as_bits_ref() }];
            let dense = vec![FlipVec { output: 0, bits: d.and(&p) }];
            assert_eq!(s.eval_flips(&dense).to_bits(), s.error().to_bits());
            assert_eq!(s.eval_flips_sparse(&d, &sparse).to_bits(), s.error().to_bits());
        }
    }

    #[test]
    fn eval_flips_sparse_annihilated_is_identity() {
        let s = two_output_state(MetricKind::Med, 0b1101, 0b1000);
        // entries present but d ∧ P = 0 everywhere
        let d = bits(vec![0b1000_0000]);
        let p = bits(vec![0b0111]);
        let sparse = vec![SparseFlip { output: 0, bits: p.as_bits_ref() }];
        assert_eq!(s.eval_flips_sparse(&d, &sparse).to_bits(), s.error().to_bits());
        assert_eq!(s.eval_flips_sparse(&d, &[]).to_bits(), s.error().to_bits());
    }

    #[test]
    fn flips_can_reduce_error() {
        let s = two_output_state(MetricKind::Med, 0b1101, 0b1010);
        // flip o0 pattern 0 back to exact
        let flips = vec![FlipVec { output: 0, bits: bits(vec![0b0001]) }];
        assert!(s.error_increase(&flips) < 0.0);
        assert_eq!(s.eval_flips(&flips), 0.0);
    }

    #[test]
    fn empty_flips_are_identity() {
        let s = two_output_state(MetricKind::Mse, 0b1101, 0b1000);
        assert_eq!(s.eval_flips(&[]), s.error());
        assert_eq!(s.error_increase(&[]), 0.0);
    }

    #[test]
    fn standard_error_behaves_like_bernoulli_for_er() {
        // 1 wrong pattern out of 64: p = 1/64, se = sqrt(p(1-p)/64)
        let s = two_output_state(MetricKind::Er, 0b1101, 0b1010);
        let p: f64 = 1.0 / 64.0;
        let expect = (p * (1.0 - p) / 64.0).sqrt();
        assert!((s.standard_error() - expect).abs() < 1e-12);
        let (lo, hi) = s.confidence_interval();
        assert!(lo <= s.error() && s.error() <= hi);
        // exact circuit: zero-width interval
        let exact = two_output_state(MetricKind::Er, 0b1100, 0b1010);
        assert_eq!(exact.standard_error(), 0.0);
        assert_eq!(exact.confidence_interval(), (0.0, 0.0));
    }

    #[test]
    fn max_ed_tracks_worst_pattern() {
        let s = two_output_state(MetricKind::Med, 0b1101, 0b1000);
        // pattern 0: +1; pattern 1: -2 -> worst |e| = 2
        assert_eq!(s.max_ed(), 2.0);
        let clean = two_output_state(MetricKind::Med, 0b1100, 0b1010);
        assert_eq!(clean.max_ed(), 0.0);
    }

    #[test]
    fn refresh_updates_after_change() {
        let mut s = two_output_state(MetricKind::Er, 0b1100, 0b1010);
        assert_eq!(s.error(), 0.0);
        s.refresh(&[bits(vec![0b0100]), bits(vec![0b1010])]);
        assert!((s.error() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn multi_word_patterns() {
        let exact = vec![bits(vec![0, 0])];
        let approx = vec![bits(vec![1, 1 << 63])];
        let s = ErrorState::new(MetricKind::Er, unsigned_weights(1), exact, &approx);
        assert!((s.error() - 2.0 / 128.0).abs() < 1e-12);
        let flips = vec![FlipVec { output: 0, bits: bits(vec![1, 1 << 63]) }];
        assert_eq!(s.eval_flips(&flips), 0.0);
    }
}
