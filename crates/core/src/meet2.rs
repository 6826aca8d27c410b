//! Pairwise meet — `meet₂(o₁, o₂)`, the lowest common ancestor of two
//! nodes (Definition 6).
//!
//! [`meet2_indexed`] answers in O(1) from the indexed LCA of
//! [`ncq_store::MeetIndex`]. The paper's σ-steered parent walk (Fig. 3)
//! and its naive baseline live in the dev-only `ncq-oracle` crate as
//! oracles; all three agree on `meet` and `distance` for every pair.

use ncq_store::{MonetDb, Oid};

/// Result of a pairwise meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meet2 {
    /// The nearest concept: the lowest common ancestor.
    pub meet: Oid,
    /// Number of edges on the shortest path between the inputs — equal to
    /// the number of parent joins executed (paper §4: "the number of joins
    /// executed while calculating meet₂ corresponds to the number of edges
    /// on the shortest path").
    pub distance: usize,
    /// Parent look-ups performed (== `distance` for the steered walk;
    /// larger for the naive baseline; 0 for the indexed probe).
    pub lookups: usize,
}

/// O(1) LCA via the indexed RMQ of [`MonetDb::meet_index`] — no
/// parent walk at all. `distance` is still the paper's join count
/// (`depth(o₁) + depth(o₂) − 2·depth(meet)`), but `lookups` is 0: the
/// relational joins are modelled, not executed.
pub fn meet2_indexed(db: &MonetDb, o1: Oid, o2: Oid) -> Meet2 {
    let (meet, distance) = db.meet_index().meet(o1, o2);
    Meet2 {
        meet,
        distance,
        lookups: 0,
    }
}
