//! Benchmark circuit generators.
//!
//! The paper evaluates on ISCAS-85 circuits, EPFL arithmetic benchmarks and
//! a few extra arithmetic designs. Netlists for those are not shipped here;
//! instead, every benchmark is *generated* from a parameterised functional
//! description with matching I/O widths and comparable AIG sizes (see
//! DESIGN.md's substitution table). All generators are pure functions of
//! their parameters, produce swept (no-dangling) graphs, and are verified
//! functionally against native Rust arithmetic in their tests.
//!
//! * [`words`] — word-level construction helpers (adders, shifters, muxes),
//! * [`arith`] — ripple/carry-select adders (`adder`),
//! * [`mult`] — unsigned and signed (Baugh-Wooley) array multipliers
//!   (`mult16`, `sm9x8`, `sm18x14`),
//! * [`square`] — squarer (`square`),
//! * [`sqrt`] — restoring square root (`sqrt`),
//! * [`sin`] — fixed-point sine approximation (`sin`),
//! * [`log2`] — fixed-point base-2 logarithm (`log2`),
//! * [`butterfly`] — radix-2 FFT butterfly (`butterfly`),
//! * [`vecmul`] — dot product of two vectors (`vecmul8`),
//! * [`alu`] — ISCAS-substitute ALUs (`c880`, `c3540`),
//! * [`detector`] — ISCAS-substitute Hamming detector (`c1908`),
//! * [`suite`] — the named Table-I benchmark suite at paper or reduced
//!   scale.

pub mod alu;
pub mod arith;
pub mod butterfly;
pub mod detector;
pub mod log2;
pub mod mult;
pub mod sin;
pub mod sqrt;
pub mod square;
pub mod suite;
#[cfg(test)]
pub(crate) mod testutil;
pub mod vecmul;
pub mod words;

pub use suite::{benchmark, benchmark_names, BenchmarkScale};
