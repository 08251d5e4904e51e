//! Local approximate changes (LACs).
//!
//! A LAC replaces the function of one *target node* by something cheaper:
//!
//! * **constant LAC** — replace the node by constant 0 or 1 (the only LAC
//!   kind the paper uses on large circuits),
//! * **SASIMI LAC** — substitute the node by another existing signal, in
//!   either polarity, chosen for high agreement on the simulated patterns
//!   (Fig. 1 of the paper).
//!
//! Applying a LAC deletes the target's MFFC, which is exactly the area
//! gain; the error cost is what the CPM-based analyses estimate.
//!
//! * [`lac`] — the LAC type, its change vector and application,
//! * [`candgen`] — candidate enumeration: the similarity index and
//!   selection of SASIMI substitutions,
//! * [`gain`] — area-saving computation.

pub mod candgen;
pub mod gain;
pub mod lac;

pub use candgen::{constant_lacs, generate, CandidateConfig, SasimiWork, SimilarityIndex};
pub use gain::area_saving;
pub use lac::{Lac, LacKind};
