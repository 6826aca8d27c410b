//! Thesaurus-based query broadening (paper §4).
//!
//! > "thesauri are a promising tool to help a user find interesting
//! > results, especially to broaden a search that returned too few
//! > answers."
//!
//! A [`Thesaurus`] maps a term to its synonyms; [`expanded_hits`] unions
//! the hit sets of the whole synonym group, and the meet operator then
//! works on the broadened input unchanged.

use crate::hits::HitSet;
use crate::index::InvertedIndex;
use crate::search::term_hits;
use crate::tokenize::fold;
use ncq_store::MonetDb;
use std::collections::HashMap;

/// A symmetric synonym table (case-folded).
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    /// term → synonym-group id
    group_of: HashMap<String, usize>,
    /// group id → member terms
    groups: Vec<Vec<String>>,
}

impl Thesaurus {
    /// An empty thesaurus (expansion is the identity).
    pub fn new() -> Thesaurus {
        Thesaurus::default()
    }

    /// Declare the given terms synonymous (merges groups when terms are
    /// already known).
    pub fn add_synonyms<S: AsRef<str>>(&mut self, terms: &[S]) {
        let folded: Vec<String> = terms.iter().map(|t| fold(t.as_ref())).collect();
        // Find an existing group among the terms.
        let existing: Vec<usize> = folded
            .iter()
            .filter_map(|t| self.group_of.get(t).copied())
            .collect();
        let target = existing.first().copied().unwrap_or_else(|| {
            self.groups.push(Vec::new());
            self.groups.len() - 1
        });
        // Merge all other groups into the target.
        for &g in &existing {
            if g != target {
                let members = std::mem::take(&mut self.groups[g]);
                for m in members {
                    self.group_of.insert(m.clone(), target);
                    self.groups[target].push(m);
                }
            }
        }
        for t in folded {
            self.group_of.insert(t.clone(), target);
            if !self.groups[target].contains(&t) {
                self.groups[target].push(t);
            }
        }
    }

    /// The synonym group of `term`, always containing the (folded) term
    /// itself, the term first.
    pub fn expand(&self, term: &str) -> Vec<String> {
        let folded = fold(term);
        let mut out = vec![folded.clone()];
        if let Some(&g) = self.group_of.get(&folded) {
            for m in &self.groups[g] {
                if *m != folded {
                    out.push(m.clone());
                }
            }
        }
        out
    }

    /// Number of distinct known terms.
    pub fn term_count(&self) -> usize {
        self.group_of.len()
    }
}

/// Hits for `term` broadened by the thesaurus: the union over the synonym
/// group.
pub fn expanded_hits(
    db: &MonetDb,
    index: &InvertedIndex,
    thesaurus: &Thesaurus,
    term: &str,
) -> HitSet {
    let mut hits = HitSet::new();
    for t in thesaurus.expand(term) {
        hits.union(&term_hits(db, index, &t));
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    fn setup() -> (MonetDb, InvertedIndex) {
        let db = MonetDb::from_document(
            &parse(
                r#"<bib>
                     <article><title>Databases for Beginners</title><year>1999</year></article>
                     <article><title>DBMS Internals</title><year>1998</year></article>
                     <article><title>Storage Systems</title><year>1997</year></article>
                   </bib>"#,
            )
            .unwrap(),
        );
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    #[test]
    fn empty_thesaurus_is_identity() {
        let t = Thesaurus::new();
        assert_eq!(t.expand("Databases"), vec!["databases"]);
        let (db, idx) = setup();
        assert_eq!(expanded_hits(&db, &idx, &t, "databases").len(), 1);
    }

    #[test]
    fn synonyms_broaden_the_search() {
        let (db, idx) = setup();
        let mut t = Thesaurus::new();
        t.add_synonyms(&["databases", "DBMS"]);
        // Plain search finds one title; broadened finds both.
        assert_eq!(
            expanded_hits(&db, &idx, &Thesaurus::new(), "databases").len(),
            1
        );
        assert_eq!(expanded_hits(&db, &idx, &t, "databases").len(), 2);
        // Symmetric: searching the synonym also broadens.
        assert_eq!(expanded_hits(&db, &idx, &t, "dbms").len(), 2);
    }

    #[test]
    fn groups_merge_transitively() {
        let mut t = Thesaurus::new();
        t.add_synonyms(&["a", "b"]);
        t.add_synonyms(&["c", "d"]);
        t.add_synonyms(&["b", "c"]); // merges both groups
        let mut g = t.expand("a");
        g.sort();
        assert_eq!(g, vec!["a", "b", "c", "d"]);
        assert_eq!(t.term_count(), 4);
    }

    #[test]
    fn expansion_is_case_folded() {
        let mut t = Thesaurus::new();
        t.add_synonyms(&["Databases", "DBMS"]);
        assert!(t.expand("DATABASES").contains(&"dbms".to_string()));
    }

    #[test]
    fn expansion_folds_like_the_tokenizer() {
        let mut t = Thesaurus::new();
        t.add_synonyms(&["ΟΔΟΣ", "ΔΡΌΜΟΣ"]);
        assert_eq!(t.expand("ΟΔΟΣ"), vec!["οδοσ", "δρόμοσ"]);
        assert_eq!(t.expand("ΔΡΌΜΟΣ"), vec!["δρόμοσ", "οδοσ"]);
        let db = MonetDb::from_document(&parse("<a><t>Η ΟΔΟΣ</t><t>ο ΔΡΌΜΟΣ</t></a>").unwrap());
        let idx = InvertedIndex::build(&db);
        assert_eq!(expanded_hits(&db, &idx, &t, "ΟΔΟΣ").len(), 2);
    }

    #[test]
    fn expand_puts_the_query_term_first() {
        let mut t = Thesaurus::new();
        t.add_synonyms(&["x", "y", "z"]);
        assert_eq!(t.expand("y")[0], "y");
    }
}
