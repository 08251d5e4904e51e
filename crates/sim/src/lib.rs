//! Bit-parallel Monte-Carlo simulation of AND-inverter graphs.
//!
//! Error estimation for approximate logic synthesis is Monte-Carlo based:
//! the circuit is simulated on a large set of random input patterns packed
//! 64 per machine word, so one `u64` AND evaluates a gate on 64 patterns at
//! once.
//!
//! * [`PackedBits`] — a fixed-width packed bit vector with the word-level
//!   operations the analyses need,
//! * [`BitsRef`] — a borrowed word-slice view with a nonzero-word window,
//!   the zero-copy currency between the CPM arena and the error kernels,
//! * [`PatternSet`] — input stimuli (uniform random or exhaustive),
//! * [`Simulator`] — node values for a whole AIG with full and incremental
//!   (cone-restricted) resimulation,
//! * [`kernel`] — the word kernels every bitwise hot loop funnels through,
//!   one plain loop per operation that the compiler vectorises.

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod kernel;
pub mod patterns;
pub mod simulator;

pub use bitvec::{BitsRef, PackedBits};
pub use kernel::tail_mask;
pub use patterns::PatternSet;
pub use simulator::Simulator;
