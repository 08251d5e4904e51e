//! Fixed-width packed bit vectors.

use std::fmt;

/// A packed bit vector holding one bit per simulation pattern, 64 patterns
/// per `u64` word.
///
/// All vectors participating in an operation must have the same word count;
/// this is asserted. The vector itself always spans whole words; when the
/// logical pattern count is not a multiple of 64, the unused tail lanes of
/// the last word are masked at the [`crate::PatternSet`] boundary (inputs)
/// and in the error state (accumulation) — word-level ops here, notably
/// [`PackedBits::not_assign`], are free to fill tail lanes with garbage.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedBits {
    words: Vec<u64>,
}

impl PackedBits {
    /// An all-zero vector of `num_words` words.
    pub fn zeros(num_words: usize) -> PackedBits {
        PackedBits { words: vec![0; num_words] }
    }

    /// An all-one vector of `num_words` words.
    pub fn ones(num_words: usize) -> PackedBits {
        PackedBits { words: vec![!0; num_words] }
    }

    /// Builds a vector from raw words.
    pub fn from_words(words: Vec<u64>) -> PackedBits {
        PackedBits { words }
    }

    /// Number of 64-bit words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Number of patterns (bits).
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Raw word slice.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word slice.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bit for pattern `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets the bit for pattern `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ^= other`.
    pub fn xor_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.words.len(), other.words.len());
        crate::kernel::xor_assign(&mut self.words, &other.words);
    }

    /// `self &= other`.
    pub fn and_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.words.len(), other.words.len());
        crate::kernel::and_assign(&mut self.words, &other.words);
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.words.len(), other.words.len());
        crate::kernel::or_assign(&mut self.words, &other.words);
    }

    /// Flips every bit in place (including tail lanes beyond a logical
    /// pattern count — consumers mask at their accumulation boundary).
    pub fn not_assign(&mut self) {
        crate::kernel::not_assign(&mut self.words);
    }

    /// Returns `self & other` as a new vector.
    pub fn and(&self, other: &PackedBits) -> PackedBits {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `self ^ other` as a new vector.
    pub fn xor(&self, other: &PackedBits) -> PackedBits {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Returns the complement as a new vector.
    pub fn not(&self) -> PackedBits {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Fraction of set bits, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.words.is_empty() {
            return 0.0;
        }
        self.count_ones() as f64 / self.num_bits() as f64
    }

    /// Overwrites `self` with `other`'s bits.
    pub fn copy_from(&mut self, other: &PackedBits) {
        assert_eq!(self.words.len(), other.words.len());
        self.words.copy_from_slice(&other.words);
    }

    /// A borrowed view of this vector covering its full word range.
    pub fn as_bits_ref(&self) -> BitsRef<'_> {
        BitsRef::with_window(&self.words, 0, self.words.len())
    }

    /// Number of positions at which `self` and `other` differ.
    pub fn hamming_distance(&self, other: &PackedBits) -> usize {
        assert_eq!(self.words.len(), other.words.len());
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    None
                } else {
                    let b = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// A borrowed packed bit vector: a word slice in some arena, annotated with
/// the window `[nz_begin, nz_end)` of words that may be nonzero.
///
/// The window is the sparsity metadata the CPM arena and the error
/// kernels share: kernels skip every word outside it without reading the
/// slice. Words inside the window are *allowed* to be zero; words outside it
/// must be zero.
#[derive(Copy, Clone)]
pub struct BitsRef<'a> {
    words: &'a [u64],
    nz_begin: u32,
    nz_end: u32,
}

impl<'a> BitsRef<'a> {
    /// A view over `words` with the nonzero window computed by scanning.
    pub fn new(words: &'a [u64]) -> BitsRef<'a> {
        let nz_begin = words.iter().position(|&w| w != 0).unwrap_or(words.len());
        let nz_end = if nz_begin == words.len() {
            nz_begin
        } else {
            words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)
        };
        BitsRef::with_window(words, nz_begin, nz_end)
    }

    /// A view with a precomputed window (words outside it must be zero).
    pub fn with_window(words: &'a [u64], nz_begin: usize, nz_end: usize) -> BitsRef<'a> {
        debug_assert!(nz_begin <= nz_end && nz_end <= words.len());
        BitsRef { words, nz_begin: nz_begin as u32, nz_end: nz_end as u32 }
    }

    /// The full word slice.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of 64-bit words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// First word index that may be nonzero.
    #[inline]
    pub fn nz_begin(&self) -> usize {
        self.nz_begin as usize
    }

    /// One past the last word index that may be nonzero.
    #[inline]
    pub fn nz_end(&self) -> usize {
        self.nz_end as usize
    }

    /// Whether no bit is set (empty nonzero window or all-zero window).
    pub fn is_zero(&self) -> bool {
        self.words[self.nz_begin()..self.nz_end()].iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words[self.nz_begin()..self.nz_end()].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bit for pattern `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Materialises the view as an owned vector.
    pub fn to_packed(&self) -> PackedBits {
        PackedBits { words: self.words.to_vec() }
    }

    /// Returns `self & other` as an owned vector, touching only the
    /// nonzero window.
    pub fn and(&self, other: &PackedBits) -> PackedBits {
        assert_eq!(self.words.len(), other.words.len());
        let mut out = PackedBits::zeros(self.words.len());
        for w in self.nz_begin()..self.nz_end() {
            out.words[w] = self.words[w] & other.words[w];
        }
        out
    }
}

impl PartialEq for BitsRef<'_> {
    fn eq(&self, other: &BitsRef<'_>) -> bool {
        self.words == other.words
    }
}

impl Eq for BitsRef<'_> {}

impl PartialEq<PackedBits> for BitsRef<'_> {
    fn eq(&self, other: &PackedBits) -> bool {
        self.words == &other.words[..]
    }
}

impl PartialEq<BitsRef<'_>> for PackedBits {
    fn eq(&self, other: &BitsRef<'_>) -> bool {
        &self.words[..] == other.words
    }
}

impl fmt::Debug for BitsRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitsRef[{} bits, {} ones]", self.words.len() * 64, self.count_ones())
    }
}

impl fmt::Debug for PackedBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedBits[{} bits, {} ones]", self.num_bits(), self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let z = PackedBits::zeros(2);
        assert_eq!(z.num_bits(), 128);
        assert!(z.is_zero());
        let o = PackedBits::ones(2);
        assert_eq!(o.count_ones(), 128);
        assert!((o.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn get_set() {
        let mut b = PackedBits::zeros(2);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        assert!(b.get(0) && b.get(63) && b.get(64));
        assert!(!b.get(1) && !b.get(127));
        b.set(63, false);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn boolean_ops() {
        let mut a = PackedBits::from_words(vec![0b1100]);
        let b = PackedBits::from_words(vec![0b1010]);
        assert_eq!(a.and(&b).words()[0], 0b1000);
        assert_eq!(a.xor(&b).words()[0], 0b0110);
        a.or_assign(&b);
        assert_eq!(a.words()[0], 0b1110);
        a.not_assign();
        assert_eq!(a.words()[0], !0b1110u64);
    }

    #[test]
    fn hamming_and_iter() {
        let a = PackedBits::from_words(vec![0b101, 0b1]);
        let b = PackedBits::from_words(vec![0b011, 0b0]);
        assert_eq!(a.hamming_distance(&b), 3);
        let ones: Vec<usize> = a.iter_ones().collect();
        assert_eq!(ones, vec![0, 2, 64]);
    }

    #[test]
    #[should_panic]
    fn mismatched_widths_panic() {
        let mut a = PackedBits::zeros(1);
        let b = PackedBits::zeros(2);
        a.xor_assign(&b);
    }
}
