//! Structured failure type for CPM construction.

use std::fmt;

use als_aig::NodeId;

/// Why a CPM could not be computed.
///
/// Both variants mean the [`als_cuts::CutState`] handed in has drifted
/// from the circuit it is supposed to describe — a live node is missing
/// its disjoint cut, or the cut DAG is inconsistent with topological
/// order. The flows treat either as analysis-state corruption and fall
/// back to a comprehensive re-analysis instead of panicking mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpmError {
    /// A live node that needs a row has no stored disjoint cut.
    MissingCut {
        /// The node without a cut.
        node: NodeId,
    },
    /// Eq. (1) needed the row of a cut's node member before that row was
    /// computed.
    MissingMemberRow {
        /// The cut member whose row was absent.
        member: NodeId,
        /// The node whose row was being assembled.
        node: NodeId,
    },
    /// A worker thread panicked during a parallel CPM construction; the
    /// payload text is preserved. Unlike the other variants this does not
    /// indicate stale cut state, but the flows treat it the same way
    /// (abort the iteration with a structured error instead of crashing).
    WorkerPanic(
        /// The panic payload, rendered as text.
        String,
    ),
}

impl fmt::Display for CpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpmError::MissingCut { node } => {
                write!(f, "no disjoint cut stored for live node {node}")
            }
            CpmError::MissingMemberRow { member, node } => {
                write!(f, "row of cut member {member} not computed before {node}")
            }
            CpmError::WorkerPanic(detail) => {
                write!(f, "worker thread panicked during CPM construction: {detail}")
            }
        }
    }
}

impl std::error::Error for CpmError {}

impl From<als_par::WorkerPanic> for CpmError {
    fn from(p: als_par::WorkerPanic) -> CpmError {
        CpmError::WorkerPanic(p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_nodes() {
        let e = CpmError::MissingCut { node: NodeId(7) };
        assert!(e.to_string().contains('7'));
        let e = CpmError::MissingMemberRow { member: NodeId(3), node: NodeId(9) };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9'));
    }
}
