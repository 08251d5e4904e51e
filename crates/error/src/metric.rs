//! Metric kinds, output weights and the paper's threshold conventions.

use std::fmt;

/// The statistical error metric a flow optimises under.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MetricKind {
    /// Error rate: fraction of patterns with any differing output.
    Er,
    /// Mean error distance of the weighted output word.
    Med,
    /// Mean squared error of the weighted output word.
    Mse,
}

impl MetricKind {
    /// All supported metrics.
    pub const ALL: [MetricKind; 3] = [MetricKind::Er, MetricKind::Med, MetricKind::Mse];

    /// Whether the metric uses per-output weights (ER does not).
    pub fn is_weighted(self) -> bool {
        !matches!(self, MetricKind::Er)
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricKind::Er => "ER",
            MetricKind::Med => "MED",
            MetricKind::Mse => "MSE",
        };
        f.write_str(s)
    }
}

/// A metric token [`MetricKind`]'s [`FromStr`](std::str::FromStr) impl did not
/// recognise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownMetric {
    /// The rejected token.
    pub got: String,
}

impl fmt::Display for UnknownMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown metric {:?} (expected one of: er, med, mse)", self.got)
    }
}

impl std::error::Error for UnknownMetric {}

impl MetricKind {
    /// The canonical lowercase token (`er`/`med`/`mse`) used by the CLI
    /// and the service wire protocol; parsing it back
    /// ([`FromStr`](std::str::FromStr)) inverts it.
    pub fn token(self) -> &'static str {
        match self {
            MetricKind::Er => "er",
            MetricKind::Med => "med",
            MetricKind::Mse => "mse",
        }
    }
}

impl std::str::FromStr for MetricKind {
    type Err = UnknownMetric;

    /// Parses a metric token, case-insensitively, so both the CLI form
    /// (`med`) and the [`Display`](fmt::Display) form (`MED`) round-trip.
    fn from_str(s: &str) -> Result<MetricKind, UnknownMetric> {
        match s.to_ascii_lowercase().as_str() {
            "er" => Ok(MetricKind::Er),
            "med" => Ok(MetricKind::Med),
            "mse" => Ok(MetricKind::Mse),
            _ => Err(UnknownMetric { got: s.to_string() }),
        }
    }
}

/// Default output weights for an unsigned `k`-bit output word: `2^o` for
/// output `o` (LSB first).
///
/// Weights are `f64`; beyond 53 outputs the representation is no longer
/// exact but stays strictly monotone, which preserves comparisons — see
/// DESIGN.md's substitution table.
pub fn unsigned_weights(k: usize) -> Vec<f64> {
    (0..k).map(|o| (o as f64).exp2()).collect()
}

/// The paper's reference error for a circuit with `k` outputs:
/// `R = 2^(k/3)`. MED thresholds are `{0.5R, R, 2R}`, MSE thresholds
/// `{0.5R², R², 2R²}`.
pub fn reference_error(k: usize) -> f64 {
    (k as f64 / 3.0).exp2()
}

/// The paper's three thresholds for a metric on a circuit with `k` outputs
/// (ER thresholds are absolute: 0.1%, 1%, 2%).
pub fn paper_thresholds(kind: MetricKind, k: usize) -> [f64; 3] {
    let r = reference_error(k);
    match kind {
        MetricKind::Er => [0.001, 0.01, 0.02],
        MetricKind::Med => [0.5 * r, r, 2.0 * r],
        MetricKind::Mse => [0.5 * r * r, r * r, 2.0 * r * r],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_powers_of_two() {
        let w = unsigned_weights(5);
        assert_eq!(w, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn weights_stay_monotone_past_53_bits() {
        let w = unsigned_weights(129);
        for i in 1..w.len() {
            assert!(w[i] > w[i - 1]);
        }
    }

    #[test]
    fn metric_tokens_round_trip_and_reject_junk() {
        for kind in MetricKind::ALL {
            assert_eq!(kind.token().parse::<MetricKind>().unwrap(), kind);
            assert_eq!(kind.to_string().parse::<MetricKind>().unwrap(), kind, "Display form");
        }
        let err = "wer".parse::<MetricKind>().unwrap_err();
        assert_eq!(err, UnknownMetric { got: "wer".into() });
        assert!(err.to_string().contains("er, med, mse"));
    }

    #[test]
    fn reference_error_matches_paper() {
        assert!((reference_error(3) - 2.0).abs() < 1e-12);
        assert!((reference_error(6) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn thresholds() {
        let [a, b, c] = paper_thresholds(MetricKind::Med, 6);
        assert_eq!((a, b, c), (2.0, 4.0, 8.0));
        let [a2, b2, c2] = paper_thresholds(MetricKind::Mse, 6);
        assert_eq!((a2, b2, c2), (8.0, 16.0, 32.0));
        assert_eq!(paper_thresholds(MetricKind::Er, 100)[1], 0.01);
    }

    #[test]
    fn display_names() {
        assert_eq!(MetricKind::Er.to_string(), "ER");
        assert_eq!(MetricKind::Med.to_string(), "MED");
        assert_eq!(MetricKind::Mse.to_string(), "MSE");
        assert!(!MetricKind::Er.is_weighted());
        assert!(MetricKind::Med.is_weighted());
    }
}
