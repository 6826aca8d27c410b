//! Query entry points producing [`HitSet`]s.
//!
//! The paper's introductory query uses a `contains` predicate
//! (`t1 contains 'Bit'`); its evaluation section runs word searches
//! ("ICDE", a year). Both are provided, plus phrases and an arbitrary
//! string predicate for experiments.

use crate::hits::HitSet;
use crate::index::InvertedIndex;
use crate::tokenize::{contains_fold, fold, tokens};
use ncq_store::MonetDb;

/// All associations containing `term` as a whole word (case-folded).
pub fn word_hits(index: &InvertedIndex, term: &str) -> HitSet {
    HitSet::from_pairs(index.postings(term).iter().map(|p| (p.path, p.owner)))
}

/// Associations whose string contains every word of `phrase` *adjacently*
/// (verified against the stored string after an index-driven candidate
/// intersection).
pub fn phrase_hits(db: &MonetDb, index: &InvertedIndex, phrase: &str) -> HitSet {
    let words: Vec<String> = tokens(phrase).collect();
    match words.as_slice() {
        [] => HitSet::new(),
        [single] => word_hits(index, single),
        [_, ..] => {
            let folded = words.join(" ");
            // Candidate associations contain *every* word: a galloping
            // multi-way intersection over the sorted posting lists,
            // starting from the rarest word.
            let lists: Vec<&[crate::index::Posting]> =
                words.iter().map(|w| index.postings(w)).collect();
            let candidates = crate::intersect::intersect_all(&lists);
            HitSet::from_pairs(
                candidates
                    .into_iter()
                    .filter(|p| {
                        db.string_value(p.path, p.owner).is_some_and(|s| {
                            let norm: Vec<String> = tokens(s).collect();
                            norm.join(" ").contains(&folded)
                        })
                    })
                    .map(|p| (p.path, p.owner)),
            )
        }
    }
}

/// All associations whose string contains `needle` as a substring
/// (case-insensitive). This scans every string relation — the paper's
/// `contains` predicate; selective word search should be preferred.
pub fn substring_hits(db: &MonetDb, needle: &str) -> HitSet {
    predicate_hits(db, |s| contains_fold(s, needle))
}

/// All associations whose string satisfies `pred` (full scan).
pub fn predicate_hits(db: &MonetDb, mut pred: impl FnMut(&str) -> bool) -> HitSet {
    let mut hits = HitSet::new();
    for path in db.string_paths() {
        for (owner, text) in db.strings_of(path).iter() {
            if pred(text) {
                hits.insert(path, owner);
            }
        }
    }
    hits
}

/// Hits for a term the way a search box would resolve it: single words go
/// through the index; multi-word terms become phrase queries; when the
/// index finds nothing (e.g. a sub-word like `Hackin`), fall back to a
/// substring scan.
pub fn term_hits(db: &MonetDb, index: &InvertedIndex, term: &str) -> HitSet {
    let words: Vec<String> = tokens(term).collect();
    let primary = match words.as_slice() {
        [] => HitSet::new(),
        [single] if *single == fold(term.trim()) => word_hits(index, single),
        [_] => substring_hits(db, term),
        _ => phrase_hits(db, index, term),
    };
    if primary.is_empty() && !term.trim().is_empty() {
        substring_hits(db, term)
    } else {
        primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    fn setup() -> (MonetDb, InvertedIndex) {
        let db = MonetDb::from_document(
            &parse(
                r#"<bib>
                     <article key="BB99">
                       <author>Ben Bit</author>
                       <title>How to Hack</title>
                       <year>1999</year>
                     </article>
                     <article key="BK99">
                       <author>Bob Byte</author>
                       <title>Hacking &amp; RSI</title>
                       <year>1999</year>
                     </article>
                   </bib>"#,
            )
            .unwrap(),
        );
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    #[test]
    fn word_hits_group_by_relation() {
        let (db, idx) = setup();
        let hits = word_hits(&idx, "1999");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits.group_count(), 1);
        let (&path, group) = hits.groups().iter().next().unwrap();
        assert_eq!(db.relation_name(path), "bib/article/year/cdata");
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn phrase_hits_require_adjacency() {
        let (db, idx) = setup();
        assert_eq!(phrase_hits(&db, &idx, "Ben Bit").len(), 1);
        assert_eq!(phrase_hits(&db, &idx, "Bob Byte").len(), 1);
        // Both words exist, but never adjacently in one string.
        assert_eq!(phrase_hits(&db, &idx, "Ben Byte").len(), 0);
        // Single-word phrase degenerates to word search.
        assert_eq!(phrase_hits(&db, &idx, "Hack").len(), 1);
        // Empty phrase finds nothing.
        assert!(phrase_hits(&db, &idx, " ,").is_empty());
    }

    #[test]
    fn substring_hits_find_subwords() {
        let (db, _) = setup();
        // "Hack" occurs in "How to Hack" and "Hacking & RSI".
        assert_eq!(substring_hits(&db, "Hack").len(), 2);
        // Word search only finds the exact token.
        let (_, idx) = setup();
        assert_eq!(word_hits(&idx, "Hack").len(), 1);
    }

    #[test]
    fn substring_hits_cover_attributes() {
        let (db, _) = setup();
        let hits = substring_hits(&db, "BK99");
        assert_eq!(hits.len(), 1);
        let (path, owner) = hits.iter().next().unwrap();
        assert_eq!(db.relation_name(path), "bib/article/@key");
        assert_eq!(db.tag(owner), Some("article"));
    }

    #[test]
    fn predicate_hits_run_arbitrary_predicates() {
        let (db, _) = setup();
        let hits = predicate_hits(&db, |s| s.len() > 10);
        // "How to Hack" (11) and "Hacking & RSI" (13).
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn term_hits_dispatch() {
        let (db, idx) = setup();
        // Single word → index.
        assert_eq!(term_hits(&db, &idx, "Bit").len(), 1);
        // Multi word → phrase.
        assert_eq!(term_hits(&db, &idx, "Ben Bit").len(), 1);
        // Sub-word → scan.
        assert_eq!(term_hits(&db, &idx, "Hackin").len(), 1);
    }

    #[test]
    fn a_term_ending_in_capital_sigma_takes_the_index_arm() {
        let db = MonetDb::from_document(
            &parse("<a><t>Η ΟΔΟΣ μου</t><t>ΠΑΡΟΔΟΣΗ</t><t>İstanbul straße</t></a>").unwrap(),
        );
        let idx = InvertedIndex::build(&db);
        // The scan would also find the word inside "ΠΑΡΟΔΟΣΗ"; the index
        // arm finds the whole word only.
        assert_eq!(substring_hits(&db, "ΟΔΟΣ").len(), 2);
        assert_eq!(term_hits(&db, &idx, "ΟΔΟΣ"), word_hits(&idx, "ΟΔΟΣ"));
        assert_eq!(term_hits(&db, &idx, " ΟΔΟΣ ").len(), 1);
        // Unchanged: folds that lengthen or do nothing.
        assert_eq!(
            term_hits(&db, &idx, "İSTANBUL"),
            word_hits(&idx, "i\u{307}stanbul")
        );
        assert_eq!(term_hits(&db, &idx, "STRAßE").len(), 1);
    }

    #[test]
    fn no_hits_for_absent_terms() {
        let (db, idx) = setup();
        assert!(word_hits(&idx, "absent").is_empty());
        assert!(substring_hits(&db, "absent").is_empty());
        assert!(term_hits(&db, &idx, "absent").is_empty());
    }
}
