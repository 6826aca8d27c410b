//! Query entry points producing [`HitSet`]s.
//!
//! The paper's introductory query uses a `contains` predicate
//! (`t1 contains 'Bit'`); its evaluation section runs word searches
//! ("ICDE", a year). Both are provided, plus phrases and an arbitrary
//! string predicate for experiments. Every needle with an alphanumeric
//! character is answered through the index; only a needle no token can
//! witness scans the strings.

use crate::hits::HitSet;
use crate::index::{InvertedIndex, Postings};
use crate::intersect::intersect_all;
use crate::tokenize::{contains_fold, fold, tokens};
use ncq_store::MonetDb;

/// All associations containing `term` as a whole word (case-folded).
pub fn word_hits(index: &InvertedIndex, term: &str) -> HitSet {
    HitSet::from(index.postings(term))
}

/// Associations whose string contains every word of `phrase` *adjacently*
/// (verified against the stored string's tokens after an index-driven
/// candidate intersection).
pub fn phrase_hits(db: &MonetDb, index: &InvertedIndex, phrase: &str) -> HitSet {
    let words: Vec<String> = tokens(phrase).collect();
    match words.as_slice() {
        [] => HitSet::new(),
        [single] => word_hits(index, single),
        [_, ..] => {
            // Candidate associations contain *every* word: a multi-way
            // intersection of the posting runs, rarest words first.
            let lists: Vec<Postings<'_>> = words.iter().map(|w| index.postings(w)).collect();
            let mut hits = intersect_all(&lists);
            hits.retain(|path, owner| {
                db.string_value(path, owner).is_some_and(|s| {
                    let norm: Vec<String> = tokens(s).collect();
                    norm.windows(words.len()).any(|w| w == words)
                })
            });
            hits
        }
    }
}

/// All associations whose string contains `needle` as a substring
/// (case-insensitive) — the paper's `contains` predicate.
///
/// The candidates come from the vocabulary, not from the strings: each
/// alphanumeric piece of the folded needle lies inside one token of
/// every string that contains the needle (a character that is not
/// alphanumeric folds to characters that are not either, so a piece
/// cannot straddle a separator). One pass over the sorted vocabulary
/// finds the tokens containing each piece; the piece with the fewest
/// postings wins, and its tokens' postings are the candidates. Each
/// candidate's string is then checked with [`contains_fold`], because a
/// token match says nothing about the rest of the needle. A needle
/// without an alphanumeric character has no piece, and only then are
/// the strings scanned.
pub fn substring_hits(db: &MonetDb, index: &InvertedIndex, needle: &str) -> HitSet {
    let folded = fold(needle);
    let pieces: Vec<&str> = folded
        .split(|c: char| !c.is_alphanumeric())
        .filter(|piece| !piece.is_empty())
        .collect();
    if pieces.is_empty() {
        return predicate_hits(db, |s| contains_fold(s, needle));
    }
    // Per piece: its postings total and the postings of every token
    // holding it.
    let mut witnesses: Vec<(usize, Vec<Postings<'_>>)> = vec![(0, Vec::new()); pieces.len()];
    for (token, postings) in index.entries() {
        for (piece, (total, lists)) in pieces.iter().zip(&mut witnesses) {
            if token.contains(piece) {
                *total += postings.len();
                lists.push(postings);
            }
        }
    }
    let (_, lists) = witnesses
        .into_iter()
        .min_by_key(|(total, _)| *total)
        .unwrap_or_default();
    let mut hits: HitSet = lists.into_iter().flat_map(Postings::iter).collect();
    hits.retain(|path, owner| {
        db.string_value(path, owner)
            .is_some_and(|s| contains_fold(s, needle))
    });
    hits
}

/// All associations whose string satisfies `pred` (full scan): the
/// oracle the index-backed searches are tested against, and the
/// fallback for a needle no token can witness.
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
/// through the index; multi-word terms become phrase queries; a sub-word
/// like `Hackin`, or a term the index finds nothing for, becomes a
/// substring search.
pub fn term_hits(db: &MonetDb, index: &InvertedIndex, term: &str) -> HitSet {
    let words: Vec<String> = tokens(term).collect();
    let primary = match words.as_slice() {
        [] => HitSet::new(),
        [single] if *single == fold(term.trim()) => word_hits(index, single),
        [_] => return substring_hits(db, index, term),
        _ => phrase_hits(db, index, term),
    };
    if primary.is_empty() && !term.trim().is_empty() {
        substring_hits(db, index, term)
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
        // Neither is a word of the string: adjacency is token by token,
        // not on the joined string.
        assert_eq!(phrase_hits(&db, &idx, "en Bit").len(), 0);
        // Single-word phrase degenerates to word search.
        assert_eq!(phrase_hits(&db, &idx, "Hack").len(), 1);
        // Empty phrase finds nothing.
        assert!(phrase_hits(&db, &idx, " ,").is_empty());
    }

    #[test]
    fn substring_hits_find_subwords() {
        let (db, idx) = setup();
        // "Hack" occurs in "How to Hack" and "Hacking & RSI".
        assert_eq!(substring_hits(&db, &idx, "Hack").len(), 2);
        // Word search only finds the exact token.
        assert_eq!(word_hits(&idx, "Hack").len(), 1);
    }

    #[test]
    fn substring_hits_cover_attributes() {
        let (db, idx) = setup();
        let hits = substring_hits(&db, &idx, "BK99");
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
        // Sub-word → substring search.
        assert_eq!(term_hits(&db, &idx, "Hackin").len(), 1);
        // A needle spanning two words, and one spanning a separator.
        assert_eq!(term_hits(&db, &idx, "en Bi").len(), 1);
        assert_eq!(term_hits(&db, &idx, "g & R").len(), 1);
    }

    #[test]
    fn phrase_adjacency_is_checked_on_token_positions() {
        let db = MonetDb::from_document(&parse("<a><t>Ben Bit en</t></a>").unwrap());
        let idx = InvertedIndex::build(&db);
        // Both words occur, and "ben bit en" contains "en bit" as text,
        // but `en` never directly precedes `bit`.
        assert!(phrase_hits(&db, &idx, "en Bit").is_empty());
        assert_eq!(phrase_hits(&db, &idx, "Bit en").len(), 1);
        assert_eq!(phrase_hits(&db, &idx, "ben bit en").len(), 1);
    }

    #[test]
    fn substring_candidates_come_from_the_most_selective_piece() {
        let (db, idx) = setup();
        // "99" lies in tokens `bb99`, `bk99` and `1999`; the needle's
        // other piece `b` in more. The result is the scan's either way.
        for needle in ["BB99", "b99", "9", "ow to h", "ng & r", "&", " ", ""] {
            assert_eq!(
                substring_hits(&db, &idx, needle),
                predicate_hits(&db, |s| contains_fold(s, needle)),
                "{needle:?}"
            );
        }
    }

    #[test]
    fn no_character_that_is_not_alphanumeric_folds_to_one_that_is() {
        // What lets a needle piece stand for a token: the fold of a
        // separator is all separators. Checked over every `char`.
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            if !c.is_alphanumeric() {
                let folded = fold(c.encode_utf8(&mut [0; 4]));
                assert!(!folded.chars().any(char::is_alphanumeric), "{c:?}");
            }
        }
    }

    #[test]
    fn a_term_ending_in_capital_sigma_takes_the_index_arm() {
        let db = MonetDb::from_document(
            &parse("<a><t>Η ΟΔΟΣ μου</t><t>ΠΑΡΟΔΟΣΗ</t><t>İstanbul straße</t></a>").unwrap(),
        );
        let idx = InvertedIndex::build(&db);
        // The scan would also find the word inside "ΠΑΡΟΔΟΣΗ"; the index
        // arm finds the whole word only.
        assert_eq!(substring_hits(&db, &idx, "ΟΔΟΣ").len(), 2);
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
        assert!(substring_hits(&db, &idx, "absent").is_empty());
        assert!(term_hits(&db, &idx, "absent").is_empty());
    }
}
