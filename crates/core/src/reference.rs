//! Reference algorithms — the paper's walks, kept as test oracles.
//!
//! Nothing a request reaches lives here: every served meet is the
//! generalized meet of Fig. 5, planned and executed by
//! [`crate::MeetPlanner::execute`] (pairwise probes go through the O(1)
//! [`crate::meet2_indexed`]). This module parks the paper-faithful
//! algorithms the pipeline is checked against:
//!
//! * [`meet2`] — Fig. 3: the lowest common ancestor of two nodes by
//!   parent walks *steered* by comparing `σ(o₁)` and `σ(o₂)`: the node
//!   with the strictly longer path is lifted first, so "superfluous
//!   look-ups are avoided". It performs exactly
//!   `d = distance(o₁, o₂)` look-ups.
//! * [`meet2_naive`] — the baseline the steering is measured against:
//!   materialize the full ancestor list of one node, then walk the
//!   other upward probing membership (`depth(o₁) + d` look-ups).
//! * [`meet_sets`] — Fig. 4: `meet_s(O₁, O₂)` over two *homogeneous*
//!   OID sets (every member of a set shares one path). Repeated
//!   *parent joins* lift whole frontiers, the σ prefix order steers
//!   which frontier is lifted, and whenever the frontiers intersect the
//!   intersection is output as the set of **minimal meets** and removed
//!   from both frontiers — which "avoids a combinatoric explosion of
//!   the result size" while keeping the operator independent of input
//!   order.
//!
//! Callers are the test suites, `repro`'s steering ablation and
//! `examples/simd_probe.rs`; the module is not re-exported at the crate
//! root.

use crate::db::MeetError;
use crate::meet2::Meet2;
use ncq_store::{MonetDb, Oid, PathId};

/// σ-steered pairwise meet (paper Fig. 3).
pub fn meet2(db: &MonetDb, o1: Oid, o2: Oid) -> Meet2 {
    let mut a = o1;
    let mut b = o2;
    let mut da = db.depth(a);
    let mut db_ = db.depth(b);
    let mut lookups = 0usize;

    // Case σ(a) < σ(b): a's path is strictly longer — lift a.
    while da > db_ {
        a = db.parent(a).expect("depth > 0 has a parent");
        da -= 1;
        lookups += 1;
    }
    // Case σ(b) < σ(a): lift b.
    while db_ > da {
        b = db.parent(b).expect("depth > 0 has a parent");
        db_ -= 1;
        lookups += 1;
    }
    // Default case: lift both until they coincide.
    while a != b {
        a = db.parent(a).expect("non-equal nodes are below the root");
        b = db.parent(b).expect("non-equal nodes are below the root");
        lookups += 2;
    }
    Meet2 {
        meet: a,
        distance: lookups,
        lookups,
    }
}

/// Naive baseline: collect all ancestors of `o1`, then probe `o2`'s
/// ancestors against them. No σ steering.
pub fn meet2_naive(db: &MonetDb, o1: Oid, o2: Oid) -> Meet2 {
    // Ancestor list of o1, index = climb count. The iterator always
    // yields o1 itself first, but guard the subtraction so an empty list
    // can never underflow in release builds.
    let anc1: Vec<Oid> = db.ancestors(o1).collect();
    let mut lookups = anc1.len().saturating_sub(1); // parent() calls to build the list

    let mut b = o2;
    let mut climb2 = 0usize;
    loop {
        if let Some(pos) = anc1.iter().position(|&a| a == b) {
            return Meet2 {
                meet: b,
                distance: pos + climb2,
                lookups,
            };
        }
        b = db
            .parent(b)
            .expect("every pair of nodes meets at the root at the latest");
        climb2 += 1;
        lookups += 1;
    }
}

/// Result of [`meet_sets`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetMeets {
    /// Minimal meets in the order they were found (deepest first), each
    /// carrying the number of parent-join rounds that had been executed
    /// when it surfaced (a distance proxy used for ranking).
    pub meets: Vec<(Oid, usize)>,
    /// Total parent-join rounds executed.
    pub join_rounds: usize,
    /// Total per-element parent look-ups across all rounds.
    pub lookups: usize,
}

impl SetMeets {
    /// Just the meet OIDs.
    pub fn oids(&self) -> Vec<Oid> {
        self.meets.iter().map(|&(o, _)| o).collect()
    }
}

fn check_homogeneous(db: &MonetDb, set: &[Oid]) -> Result<Option<PathId>, MeetError> {
    let Some(&first) = set.first() else {
        return Ok(None);
    };
    let expected = db.sigma(first);
    for &o in &set[1..] {
        let found = db.sigma(o);
        if found != expected {
            return Err(MeetError::HeterogeneousInput { expected, found });
        }
    }
    Ok(Some(expected))
}

/// Below this combined size the frontier intersection stays on the
/// scalar reference even in vector mode: frontiers shrink fast as they climb,
/// and on runs of a few dozen oids the lane setup costs more than it
/// saves. The output is identical either way (same reference kernel).
const VECTOR_MIN: usize = 64;

/// Sorted-set intersection; inputs must be sorted and deduplicated.
/// Frontiers are sorted `Oid` runs, i.e. raw `u32` lanes — the kernel
/// dispatches vector or scalar per `ncq_simd::mode()`.
fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if a.len() + b.len() < VECTOR_MIN {
        ncq_simd::scalar::intersect_u32_into(Oid::raw_slice(a), Oid::raw_slice(b), &mut out);
    } else {
        ncq_simd::intersect_u32_into(Oid::raw_slice(a), Oid::raw_slice(b), &mut out);
    }
    Oid::wrap_raw_vec(out)
}

/// Remove (sorted) `remove` from (sorted) `set`.
fn difference(set: &mut Vec<Oid>, remove: &[Oid]) {
    if remove.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(set.len());
    ncq_simd::scalar::difference_u32_into(Oid::raw_slice(set), Oid::raw_slice(remove), &mut out);
    *set = Oid::wrap_raw_vec(out);
}

/// Lift a frontier one level: map every OID to its parent, dedup.
/// Returns the number of look-ups performed.
fn lift(db: &MonetDb, set: &mut Vec<Oid>) -> usize {
    let lookups = set.len();
    for o in set.iter_mut() {
        if let Some(p) = db.parent(*o) {
            *o = p;
        }
    }
    set.sort_unstable();
    set.dedup();
    lookups
}

/// The paper's Figure 4: meets of two homogeneous OID sets.
///
/// Returns the minimal meets. Errors if either input set mixes paths.
pub fn meet_sets(db: &MonetDb, set1: &[Oid], set2: &[Oid]) -> Result<SetMeets, MeetError> {
    let p1 = check_homogeneous(db, set1)?;
    let p2 = check_homogeneous(db, set2)?;
    let mut result = SetMeets::default();
    let (Some(mut p1), Some(mut p2)) = (p1, p2) else {
        return Ok(result); // one side empty → no meets
    };

    let mut o1: Vec<Oid> = set1.to_vec();
    let mut o2: Vec<Oid> = set2.to_vec();
    o1.sort_unstable();
    o1.dedup();
    o2.sort_unstable();
    o2.dedup();

    let summary = db.summary();
    loop {
        if o1.is_empty() || o2.is_empty() {
            return Ok(result);
        }
        // D := O1 ∩ O2 — can only be non-empty when the frontiers reached
        // the same path, but the check is cheap and mirrors Fig. 4.
        let d = intersect(&o1, &o2);
        if !d.is_empty() {
            let round = result.join_rounds;
            result.meets.extend(d.iter().map(|&o| (o, round)));
            difference(&mut o1, &d);
            difference(&mut o2, &d);
            if o1.is_empty() || o2.is_empty() {
                return Ok(result);
            }
        }
        // Steering: lift the frontier with the strictly longer path; on
        // incomparable/equal paths lift both (paper's default case).
        if summary.lt(p1, p2) {
            result.lookups += lift(db, &mut o1);
            p1 = summary.parent(p1).expect("deeper path has a parent");
        } else if summary.lt(p2, p1) {
            result.lookups += lift(db, &mut o2);
            p2 = summary.parent(p2).expect("deeper path has a parent");
        } else if p1 == p2 && summary.depth(p1) == 0 {
            // Both frontiers sit at the root path and did not intersect —
            // impossible (the root is unique), but guard against looping.
            return Ok(result);
        } else {
            result.lookups += lift(db, &mut o1);
            result.lookups += lift(db, &mut o2);
            p1 = summary.parent(p1).expect("non-root path has a parent");
            p2 = summary.parent(p2).expect("non-root path has a parent");
        }
        result.join_rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    /// The paper's Figure 1 document.
    const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

    fn db() -> MonetDb {
        MonetDb::from_document(&parse(FIGURE1).unwrap())
    }

    /// Oid of the cdata node whose text equals `s` (first match).
    fn cdata(db: &MonetDb, s: &str) -> Oid {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .find(|&(_, t)| t == s)
            .map(|(o, _)| o)
            .unwrap()
    }

    fn cdata_all(db: &MonetDb, s: &str) -> Vec<Oid> {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .filter(|&(_, t)| t == s)
            .map(|(o, _)| o)
            .collect()
    }

    fn cdata_containing(db: &MonetDb, s: &str) -> Vec<Oid> {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .filter(|(_, t)| t.contains(s))
            .map(|(o, _)| o)
            .collect()
    }

    #[test]
    fn paper_example_ben_bit_meets_at_author() {
        // §3.1: full-text "Ben" & "Bit" → the author node.
        let db = db();
        let m = meet2(&db, cdata(&db, "Ben"), cdata(&db, "Bit"));
        assert_eq!(db.tag(m.meet), Some("author"));
        // firstname/cdata → author is 2 up; lastname/cdata → author 2 up.
        assert_eq!(m.distance, 4);
    }

    #[test]
    fn paper_example_bob_byte_meets_at_cdata_itself() {
        // §3.1: "Bob" and "Byte" hit the same association; the meet is the
        // cdata node itself.
        let db = db();
        let o = cdata(&db, "Bob Byte");
        let m = meet2(&db, o, o);
        assert_eq!(m.meet, o);
        assert_eq!(m.distance, 0);
        assert_eq!(db.label(m.meet), "cdata");
    }

    #[test]
    fn paper_example_bit_1999_meets_at_article() {
        // §3.1: "Bit" & the first article's "1999" meet at the article.
        let db = db();
        let bit = cdata(&db, "Bit");
        // First "1999" in document order belongs to the first article.
        let year = cdata(&db, "1999");
        let m = meet2(&db, bit, year);
        assert_eq!(db.tag(m.meet), Some("article"));
    }

    #[test]
    fn meet_is_commutative() {
        let db = db();
        let a = cdata(&db, "Ben");
        let b = cdata(&db, "How to Hack");
        let m1 = meet2(&db, a, b);
        let m2 = meet2(&db, b, a);
        assert_eq!(m1.meet, m2.meet);
        assert_eq!(m1.distance, m2.distance);
    }

    #[test]
    fn meet_with_ancestor_is_the_ancestor() {
        let db = db();
        let ben = cdata(&db, "Ben");
        let root = db.root();
        let m = meet2(&db, ben, root);
        assert_eq!(m.meet, root);
        assert_eq!(m.distance, db.depth(ben));
        // And in the other argument order.
        assert_eq!(meet2(&db, root, ben).meet, root);
    }

    #[test]
    fn meet_of_node_with_itself_is_identity() {
        let db = db();
        for o in db.iter_oids() {
            let m = meet2(&db, o, o);
            assert_eq!(m.meet, o);
            assert_eq!(m.distance, 0);
            assert_eq!(m.lookups, 0);
        }
    }

    #[test]
    fn cross_article_meet_is_institute() {
        let db = db();
        let ben = cdata(&db, "Ben"); // article 1
        let bob = cdata(&db, "Bob Byte"); // article 2
        let m = meet2(&db, ben, bob);
        assert_eq!(db.tag(m.meet), Some("institute"));
    }

    #[test]
    fn naive_agrees_with_steered_everywhere() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let s = meet2(&db, a, b);
                let n = meet2_naive(&db, a, b);
                assert_eq!(s.meet, n.meet, "meet mismatch for {a:?},{b:?}");
                assert_eq!(s.distance, n.distance, "distance mismatch for {a:?},{b:?}");
            }
        }
    }

    #[test]
    fn steered_version_needs_no_more_lookups_than_distance() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let s = meet2(&db, a, b);
                assert_eq!(s.lookups, s.distance);
                let n = meet2_naive(&db, a, b);
                assert!(n.lookups >= s.lookups);
            }
        }
    }

    #[test]
    fn meet_result_is_a_common_ancestor_and_lowest() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let m = meet2(&db, a, b).meet;
                assert!(db.is_ancestor_or_self(m, a));
                assert!(db.is_ancestor_or_self(m, b));
                // No child of m is a common ancestor (lowest-ness):
                // the child of m on the path to a differs from the one to
                // b unless a==b (then m==a==b).
                if a != b {
                    let step =
                        |x: Oid| -> Option<Oid> { db.ancestors(x).take_while(|&n| n != m).last() };
                    match (step(a), step(b)) {
                        (Some(ca), Some(cb)) => assert_ne!(ca, cb),
                        // One of them IS the meet.
                        _ => assert!(a == m || b == m),
                    }
                }
            }
        }
    }

    #[test]
    fn paper_case_bit_1999_yields_only_the_article() {
        // §3.2 / Listing-2: hits for "Bit" = {o(Bit)}, hits for "1999" =
        // two year cdatas. The minimal meet is the first article alone —
        // the second "1999" finds no partner.
        let db = db();
        let bits = cdata_containing(&db, "Bit");
        let years = cdata_all(&db, "1999");
        assert_eq!(bits.len(), 1);
        assert_eq!(years.len(), 2);
        let result = meet_sets(&db, &bits, &years).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("article"));
    }

    #[test]
    fn identical_singletons_meet_at_themselves() {
        // The "Bob" / "Byte" case: same association in both sets.
        let db = db();
        let bob = cdata_containing(&db, "Bob");
        let byte = cdata_containing(&db, "Byte");
        assert_eq!(bob, byte);
        let result = meet_sets(&db, &bob, &byte).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(result.meets[0].0, bob[0]);
        assert_eq!(result.meets[0].1, 0); // found before any join round
        assert_eq!(db.label(result.meets[0].0), "cdata");
    }

    #[test]
    fn singletons_agree_with_meet2() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let pair = meet2(&db, a, b);
                let set = meet_sets(&db, &[a], &[b]).unwrap();
                assert_eq!(set.meets.len(), 1, "{a:?} {b:?}");
                assert_eq!(set.meets[0].0, pair.meet, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_produce_no_meets() {
        let db = db();
        let some = cdata_all(&db, "1999");
        assert!(meet_sets(&db, &[], &some).unwrap().meets.is_empty());
        assert!(meet_sets(&db, &some, &[]).unwrap().meets.is_empty());
        assert!(meet_sets(&db, &[], &[]).unwrap().meets.is_empty());
    }

    #[test]
    fn heterogeneous_input_is_rejected() {
        let db = db();
        let mut mixed = cdata_all(&db, "1999");
        mixed.extend(cdata_containing(&db, "Bit"));
        let err = meet_sets(&db, &mixed, &[db.root()]).unwrap_err();
        assert!(matches!(err, MeetError::HeterogeneousInput { .. }));
        assert!(err.to_string().contains("homogeneous"));
    }

    #[test]
    fn result_is_input_order_invariant() {
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        let fwd = meet_sets(&db, &years, &titles).unwrap();
        let mut years_rev = years.clone();
        years_rev.reverse();
        let mut titles_rev = titles.clone();
        titles_rev.reverse();
        let rev = meet_sets(&db, &years_rev, &titles_rev).unwrap();
        let mut a = fwd.oids();
        let mut b = rev.oids();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn swap_of_arguments_gives_same_meets() {
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        let mut ab = meet_sets(&db, &years, &titles).unwrap().oids();
        let mut ba = meet_sets(&db, &titles, &years).unwrap().oids();
        ab.sort_unstable();
        ba.sort_unstable();
        assert_eq!(ab, ba);
    }

    #[test]
    fn two_parallel_pairs_give_two_minimal_meets() {
        // years × titles: each article pairs its own year with its own
        // title; both articles surface, nothing above them.
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        assert_eq!(years.len(), 2);
        assert_eq!(titles.len(), 2);
        let result = meet_sets(&db, &years, &titles).unwrap();
        assert_eq!(result.meets.len(), 2);
        for &(m, _) in &result.meets {
            assert_eq!(db.tag(m), Some("article"));
        }
    }

    #[test]
    fn consumed_witnesses_do_not_meet_again() {
        // "Ben" (one hit) against both years: only the first article can
        // form a minimal meet; the leftover year climbs alone to the root
        // and the institute/bibliography never enter the answer.
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let years = cdata_all(&db, "1999");
        let result = meet_sets(&db, &ben, &years).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("article"));
    }

    #[test]
    fn meets_against_root_set_is_root() {
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let result = meet_sets(&db, &ben, &[db.root()]).unwrap();
        assert_eq!(result.oids(), vec![db.root()]);
    }

    #[test]
    fn join_rounds_are_counted() {
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let bit = cdata_containing(&db, "Bit");
        let result = meet_sets(&db, &ben, &bit).unwrap();
        // firstname/cdata and lastname/cdata sit at equal depth: two
        // lockstep rounds lift both to author where they intersect.
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("author"));
        assert_eq!(result.join_rounds, 2);
        assert_eq!(result.lookups, 4);
    }
}
