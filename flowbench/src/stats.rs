//! Summary statistics and the seeded generator every workload draws from.

/// Percentiles the harness may report, lowest first, in per mille.
const PERCENTILE_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder (50, 75, 90, 95, 99, 99.9) that
/// still has at least `min_beyond` of `n` samples above its nearest rank —
/// the tail a run may claim to have measured. `None` when even the median
/// has too few samples beyond it.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|&&pm| n - (n * pm).div_ceil(1000) >= min_beyond)
        .map(|&pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: a tiny deterministic generator, so a workload's inputs
/// depend on its seed and on nothing else.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed derived from `seed` and two indices, so each (pass, circuit)
/// pair of a run gets its own pattern set.
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix::new(
        seed ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ b.wrapping_mul(0xA076_1D64_78BD_642F),
    )
    .next_u64()
}

/// FNV-1a over bytes: the output digest printed for each DP result.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9, 10), None);
        assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(40, 10), Some(75.0));
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(199, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(200, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        let mut r = SplitMix::new(9);
        assert!((0..1000).map(|_| r.next_f64()).all(|x| (0.0..1.0).contains(&x)));
    }
}
