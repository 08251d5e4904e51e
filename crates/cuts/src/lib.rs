//! One-cuts and closest disjoint cuts, with incremental update.
//!
//! The CPM-based batch error estimation of VECBEE-style flows propagates
//! Boolean differences through *cuts*: a **one-cut** of node `n` and output
//! `o` is a node through which every `n → o` path passes; a **disjoint cut**
//! (SEALS) selects one one-cut per reachable output such that the transitive
//! fanouts of the selected cut nodes are pairwise disjoint — then a single
//! flip simulation of the cone between `n` and its cut yields the Boolean
//! differences to *all* cut members at once.
//!
//! The dual-phase paper's phase-two acceleration rests on the *cut
//! preservation condition* (CPC): after a LAC, only nodes whose TFO cone
//! structure changed can lose their disjoint cut. [`incremental`] computes
//! that set (`S_v`) from the LAC's [`als_aig::EditRecord`]s and refreshes
//! exactly those entries of the [`CutState`].
//!
//! * [`reach`] — per-node reachable-output bitsets; under the no-dangling
//!   invariant two TFO cones intersect **iff** their reachable-output sets
//!   intersect, which makes disjointness tests cheap,
//! * [`disjoint`] — the closest-disjoint-cut construction,
//! * [`incremental`] — `S_c` / `S_v` computation and in-place cut refresh,
//!   one per applied LAC over the union of its edit records,
//! * [`mod@reference`] — the pairwise-scan cut loop, an oracle for tests.

// Hot-path analysis code must surface failures as values, not panics: a
// stray `unwrap()` here aborts a whole synthesis run.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod disjoint;
pub mod incremental;
pub mod reach;
#[doc(hidden)]
pub mod reference;

pub use disjoint::{closest_disjoint_cut, CutMember, DisjointCut};
pub use incremental::{violated_set, CpmPlan, CutState};
pub use reach::ReachMap;
