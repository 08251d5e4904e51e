//! AND-inverter graph (AIG) substrate for approximate logic synthesis.
//!
//! This crate provides the combinational-network machinery that every other
//! crate in the workspace builds on:
//!
//! * [`Lit`] / [`NodeId`] — complement-edge literals over node indices,
//! * [`Aig`] — a mutable DAG of two-input AND nodes with complemented edges,
//!   primary inputs and primary outputs, with full fanout tracking,
//! * [`cone`] — transitive fanin/fanout cones and maximum fanout-free cones
//!   (MFFC),
//! * [`edit`] — the node-replacement primitive used to apply local
//!   approximate changes (LACs), returning an [`edit::EditRecord`] that the
//!   incremental analyses of the dual-phase flow consume,
//! * [`topo`] — topological orders and logic levels,
//! * [`io`] — AIGER (ASCII and binary) reading and writing,
//! * [`check`] — structural invariant checking for tests and debugging.
//!
//! # Example
//!
//! ```
//! use als_aig::{Aig, Lit};
//!
//! let mut aig = Aig::new("toy");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let g = aig.and(a, b);
//! aig.add_output(!g, "nand_ab");
//! assert_eq!(aig.num_ands(), 1);
//! ```

pub mod aig;
pub mod blif;
pub mod build;
pub mod check;
pub mod cone;
pub mod edit;
pub mod io;
pub mod lit;
pub mod node;
pub mod simplify;
pub mod strash;
pub mod topo;
pub mod txn;
pub mod verilog;

pub use aig::{Aig, Output};
pub use edit::EditRecord;
pub use lit::{Lit, NodeId};
pub use node::{Node, NodeKind};
