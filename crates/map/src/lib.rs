//! Structural technology mapping and the area-delay product (ADP).
//!
//! The paper evaluates synthesis quality as the *ADP ratio* — the
//! area-delay product of the approximate circuit over the original's —
//! using ABC plus a proprietary standard-cell library. This crate
//! substitutes both with a small open cell library and a deterministic
//! structural mapper:
//!
//! * AND gates map to AND2 / NAND-NOR-style cells chosen by fanin
//!   polarities,
//! * the two-AND XOR/XNOR shape (single-fanout inner nodes) is detected and
//!   merged into one XOR2/XNOR2 cell,
//! * complemented signals shared by several consumers pay for a single
//!   inverter.
//!
//! Because the same mapper is applied to both the original and the
//! approximate circuit, ratios remain meaningful even though absolute
//! areas differ from the paper's library.

pub mod adp;
pub mod library;
pub mod mapper;

pub use adp::{adp, adp_ratio};
pub use library::{Cell, CellKind, CellLibrary};
pub use mapper::{map_circuit, map_netlist, verify_mapping, MappedCell, Mapping};
