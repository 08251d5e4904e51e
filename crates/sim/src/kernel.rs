//! Word kernels: one plain loop per bitwise operation.
//!
//! Every bitwise operation on packed simulation words funnels through this
//! module, and each exists exactly once, as a safe loop that asserts its
//! slices have equal lengths. The compiler vectorises these loops on its
//! own: on x86-64 the release build emits SSE2 at four words per
//! iteration, the width a hand-chunked body would have. All kernels are
//! pure integer bit operations, so vectorisation cannot change a result
//! bit.
//!
//! [`simd_enabled`] selects no kernel here: it is the process-wide switch
//! the engine reads to pick its error evaluator. `ALS_SIMD=0` makes it
//! evaluate candidates through the materialising reference instead of the
//! per-target delta table.

use std::sync::OnceLock;

/// Whether the engine evaluates LAC candidates with the per-target delta
/// table. Reads `ALS_SIMD` once per process: `"0"` selects the
/// materialising reference evaluator, anything else (or unset) the
/// table. Cached, so per-test toggling is impossible by design.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("ALS_SIMD").map_or(true, |v| v != "0"))
}

/// Mask selecting the valid lanes of the *last* word of a vector holding
/// `num_bits` bits: all-ones when `num_bits` is a multiple of 64, otherwise
/// ones in the low `num_bits % 64` lanes. The tail lanes above `num_bits`
/// are where garbage leaks from complemented edges (`!x` sets them) unless
/// masked at the pattern-set and error-state boundaries.
#[inline]
pub fn tail_mask(num_bits: usize) -> u64 {
    match num_bits % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// `dst[i] ^= src[i]` over equal-length word slices.
#[inline]
pub fn xor_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// `dst[i] &= src[i]` over equal-length word slices.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a &= b;
    }
}

/// `dst[i] |= src[i]` over equal-length word slices.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a |= b;
    }
}

/// `dst[i] = !dst[i]`.
#[inline]
pub fn not_assign(dst: &mut [u64]) {
    for w in dst {
        *w = !*w;
    }
}

/// `dst[i] = (a[i] ^ m0) & (b[i] ^ m1)`: the AIG simulation kernel, one
/// AND node over two fanins whose edge complements are whole-word XOR
/// masks (0 or !0).
#[inline]
pub fn and2_masked(dst: &mut [u64], a: &[u64], b: &[u64], m0: u64, m1: u64) {
    assert!(a.len() == dst.len() && b.len() == dst.len());
    for i in 0..dst.len() {
        dst[i] = (a[i] ^ m0) & (b[i] ^ m1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mask_covers_all_residues() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(128), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(63), (1u64 << 63) - 1);
        assert_eq!(tail_mask(100), (1u64 << 36) - 1);
    }
}
