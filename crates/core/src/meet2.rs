//! Pairwise meet — `meet₂(o₁, o₂)`, the lowest common ancestor of two
//! nodes (Definition 6).
//!
//! [`meet2_indexed`] answers in O(1) from the indexed LCA of
//! [`ncq_store::MeetIndex`]. The paper's σ-steered parent walk (Fig. 3)
//! and its naive baseline live in [`crate::reference`] as oracles; all
//! three agree on `meet` and `distance` for every pair.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::meet2;
    use ncq_xml::parse;

    #[test]
    fn indexed_agrees_with_steered_everywhere() {
        let db = MonetDb::from_document(
            &parse(
                "<bib><inst><art key='k'><au><f>Ben</f><l>Bit</l></au><y>1999</y></art>\
                 <art><au>Bob Byte</au><y>1999</y></art></inst></bib>",
            )
            .unwrap(),
        );
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let s = meet2(&db, a, b);
                let i = meet2_indexed(&db, a, b);
                assert_eq!(s.meet, i.meet, "meet mismatch for {a:?},{b:?}");
                assert_eq!(s.distance, i.distance, "distance mismatch for {a:?},{b:?}");
                assert_eq!(i.lookups, 0, "indexed meet performs no parent walk");
            }
        }
    }
}
