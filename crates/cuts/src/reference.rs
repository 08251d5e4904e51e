//! The pairwise-scan frontier loop, kept as an oracle for tests.
//!
//! [`closest_disjoint_cut`] is the original formulation of
//! [`crate::closest_disjoint_cut`]: on every step it re-sorts the frontier,
//! holds a cloned mask per member and looks for the first conflict by
//! testing every pair of members. Quadratic per step, but a literal
//! transcription of the expansion rule; tests require the production loop
//! to return the same cut.

use als_aig::{Aig, NodeId};
use als_sim::PackedBits;

use crate::disjoint::{member_mask, member_rank, CutMember, DisjointCut};
use crate::reach::{masks_intersect, ReachMap};

/// The closest disjoint cut of `n`, computed by the pairwise scan.
pub fn closest_disjoint_cut(aig: &Aig, reach: &ReachMap, rank: &[u32], n: NodeId) -> DisjointCut {
    struct Entry {
        member: CutMember,
        mask: PackedBits,
        rank: u64,
    }

    let mut entries: Vec<Entry> = Vec::new();
    let push = |entries: &mut Vec<Entry>, member: CutMember| {
        if entries.iter().all(|e| e.member != member) {
            entries.push(Entry {
                member,
                mask: member_mask(member, reach),
                rank: member_rank(member, rank),
            });
        }
    };

    for &f in aig.fanouts(n) {
        push(&mut entries, CutMember::Node(f));
    }
    for &o in aig.output_refs(n) {
        push(&mut entries, CutMember::Output(o));
    }

    loop {
        entries.sort_by_key(|e| e.rank);
        // Find the first member whose mask intersects an earlier member's.
        let mut conflict: Option<usize> = None;
        'outer: for j in 1..entries.len() {
            for i in 0..j {
                if masks_intersect(&entries[i].mask, &entries[j].mask) {
                    conflict = Some(i); // expand the earlier (lower-rank) one
                    break 'outer;
                }
            }
        }
        let Some(i) = conflict else { break };
        let Entry { member, .. } = entries.remove(i);
        let CutMember::Node(t) = member else {
            unreachable!("two output sinks never conflict, so the earlier member is a node");
        };
        for &f in aig.fanouts(t) {
            push(&mut entries, CutMember::Node(f));
        }
        for &o in aig.output_refs(t) {
            push(&mut entries, CutMember::Output(o));
        }
    }

    DisjointCut::from_members(entries.into_iter().map(|e| e.member).collect())
}
