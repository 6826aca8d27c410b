//! Distance calculation (§4).
//!
//! > "the number of joins executed while calculating `meet₂(o₁, o₂)`
//! > corresponds to the number of edges on the shortest path from `o₁`
//! > to `o₂`. So we can define `d(o₁, o₂)` = number of joins …"

use crate::meet2::meet2_indexed;
use ncq_store::{MonetDb, Oid};

/// Number of edges on the shortest path between two nodes (through their
/// meet) — the paper's `d(o₁, o₂)`. Served by the O(1) indexed meet; the
/// value is identical to what the steered walk would count.
pub fn distance(db: &MonetDb, o1: Oid, o2: Oid) -> usize {
    meet2_indexed(db, o1, o2).distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_store::MonetDb;
    use ncq_xml::parse;

    fn db() -> MonetDb {
        MonetDb::from_document(&parse("<r><a><b><c>x</c></b></a><d>y</d></r>").unwrap())
    }

    fn by_label(db: &MonetDb, l: &str) -> Oid {
        db.iter_oids().find(|&o| db.label(o) == l).unwrap()
    }

    #[test]
    fn distance_is_shortest_path_length() {
        let db = db();
        let c = by_label(&db, "c");
        let d = by_label(&db, "d");
        // c → b → a → r → d = 4 edges.
        assert_eq!(distance(&db, c, d), 4);
        assert_eq!(distance(&db, c, c), 0);
        assert_eq!(distance(&db, c, by_label(&db, "b")), 1);
    }

    #[test]
    fn distance_is_symmetric() {
        let db = db();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                assert_eq!(distance(&db, a, b), distance(&db, b, a));
            }
        }
    }

    #[test]
    fn distance_satisfies_triangle_inequality() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                for &c in &oids {
                    assert!(distance(&db, a, c) <= distance(&db, a, b) + distance(&db, b, c));
                }
            }
        }
    }
}
