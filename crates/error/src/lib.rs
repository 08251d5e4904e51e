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
//! error from its output *flip vectors* (`D ∧ P[n][o]`, produced by the
//! CPM). This is the paper's "step 3" work unit. Batch evaluation works
//! per target: [`ErrorState::row_deltas_into`] builds the target's
//! per-pattern error deltas once from its CPM row into a [`RowDeltas`]
//! table, and [`ErrorState::error_with`] prices each LAC at that target as
//! a masked sum of the table over `D ∧ U`, where `U` is the union of the
//! row's entries. [`ErrorState::eval_flips`] is the materialising
//! reference: every LAC's error is computed exactly, with no early stop.

#![forbid(unsafe_code)]

pub mod metric;
pub mod report;
pub mod state;

pub use metric::{paper_thresholds, reference_error, unsigned_weights, MetricKind, UnknownMetric};
pub use report::ErrorReport;
pub use state::{ErrorState, FlipVec, RowDeltas, SparseFlip};
