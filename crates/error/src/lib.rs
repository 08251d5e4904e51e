//! Statistical error metrics for approximate logic synthesis.
//!
//! The flows estimate circuit error on Monte-Carlo patterns under one of
//! three metrics (all supported by the paper's framework):
//!
//! * **ER** — error rate: fraction of patterns on which any output differs,
//! * **MED** — mean error distance: average `|approx − exact|` of the
//!   weighted output word,
//! * **MSE** — mean squared error of the same quantity.
//!
//! [`ErrorState`] caches everything needed to evaluate a candidate LAC's
//! error increase from its output *flip vectors* (`D ∧ P[n][o]`, produced by
//! the CPM) in time proportional to the number of actually flipped
//! patterns — with early abort once a bound is provably exceeded. This is
//! the paper's "step 3" work unit.

#![forbid(unsafe_code)]

pub mod metric;
pub mod report;
pub mod state;

pub use metric::{paper_thresholds, reference_error, unsigned_weights, MetricKind, UnknownMetric};
pub use report::ErrorReport;
pub use state::{ErrorState, FlipVec, SparseFlip};
