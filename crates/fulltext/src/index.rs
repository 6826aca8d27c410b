//! The inverted index over all string relations of a database.

use crate::tokenize::Scanner;
use ncq_store::{Col, MonetDb, Oid, PathId};
use std::collections::HashMap;

/// Token → postings over every string relation of a [`MonetDb`].
///
/// One physical form, built or opened: the vocabulary as a sorted blob
/// plus offsets (CSR over bytes), and each token's postings grouped by
/// path — the paper's Fig. 5 relations `R₁ … Rₙ`, restricted to the
/// token. A `(token, path)` run is one path plus the owners that
/// relation holds for the token in document order; `run_off` is the CSR
/// from token to runs, `owner_off` the CSR from run to owners, so a
/// posting costs one `u32`. Each array is a [`Col`] — owned after a
/// build, a zero-copy view after a snapshot open — and lookups
/// binary-search the sorted vocabulary. `pub(crate)` fields: the
/// snapshot codec (`crate::snapshot`) persists and reattaches them
/// directly.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Byte offsets into `blob`, length `tokens + 1`.
    pub(crate) token_off: Col<u32>,
    /// Concatenated UTF-8 token bytes, lexicographic order.
    pub(crate) blob: Col<u8>,
    /// Run offsets, length `tokens + 1`.
    pub(crate) run_off: Col<u32>,
    /// The path of each run, strictly increasing within a token.
    pub(crate) run_path: Col<PathId>,
    /// Owner offsets, length `runs + 1`.
    pub(crate) owner_off: Col<u32>,
    /// All owners, run after run, strictly increasing within a run.
    pub(crate) owners: Col<Oid>,
}

/// The postings of one token, borrowed from the index: its runs, one
/// per path, paths ascending and owners ascending within a run — the
/// grouped shape a [`crate::HitSet`] holds, with no re-sort.
#[derive(Debug, Clone, Copy, Default)]
pub struct Postings<'a> {
    pub(crate) paths: &'a [PathId],
    /// `paths.len() + 1` offsets into `owners`, or none at all for a
    /// token outside the vocabulary.
    pub(crate) owner_off: &'a [u32],
    pub(crate) owners: &'a [Oid],
}

impl<'a> Postings<'a> {
    /// The `(path, owners)` runs in path order.
    pub fn runs(self) -> impl ExactSizeIterator<Item = (PathId, &'a [Oid])> + 'a {
        let Postings {
            paths,
            owner_off,
            owners,
        } = self;
        paths
            .iter()
            .zip(owner_off.windows(2))
            .map(move |(&path, at)| (path, &owners[at[0] as usize..at[1] as usize]))
    }

    /// Every `(path, owner)` posting, in `(path, owner)` order.
    pub fn iter(self) -> impl Iterator<Item = (PathId, Oid)> + 'a {
        self.runs()
            .flat_map(|(path, owners)| owners.iter().map(move |&owner| (path, owner)))
    }

    /// Number of postings.
    pub fn len(self) -> usize {
        match (self.owner_off.first(), self.owner_off.last()) {
            (Some(&start), Some(&end)) => (end - start) as usize,
            _ => 0,
        }
    }

    /// Whether the token has no postings (it is not in the vocabulary).
    pub fn is_empty(self) -> bool {
        self.paths.is_empty()
    }
}

impl PartialEq for Postings<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.runs().eq(other.runs())
    }
}

impl Eq for Postings<'_> {}

/// One token's postings while the index is built: its owners, and the
/// end of each path's run among them.
#[derive(Default)]
struct Runs {
    ends: Vec<(PathId, u32)>,
    owners: Vec<Oid>,
}

impl Runs {
    /// Postings arrive in `(path, owner)` order, so a token met twice
    /// in one string repeats the tail, and a new path opens a run.
    fn push(&mut self, path: PathId, owner: Oid) {
        match self.ends.last_mut() {
            Some((last, _)) if *last == path && self.owners.last() == Some(&owner) => {}
            Some((last, end)) if *last == path => {
                self.owners.push(owner);
                *end += 1;
            }
            _ => {
                self.owners.push(owner);
                self.ends.push((path, self.owners.len() as u32));
            }
        }
    }
}

impl Default for InvertedIndex {
    fn default() -> InvertedIndex {
        InvertedIndex::assemble(Vec::new())
    }
}

impl InvertedIndex {
    /// Index every string association of `db`.
    pub fn build(db: &MonetDb) -> InvertedIndex {
        let mut map: HashMap<Box<str>, Runs> = HashMap::new();
        let mut token = String::new();
        for path in db.string_paths() {
            for (owner, text) in db.strings_of(path).iter() {
                let mut scanner = Scanner::new(text);
                while scanner.next_into(&mut token) {
                    match map.get_mut(token.as_str()) {
                        Some(runs) => runs.push(path, owner),
                        // A key is boxed on a token's first occurrence.
                        None => {
                            let mut runs = Runs::default();
                            runs.push(path, owner);
                            map.insert(token.as_str().into(), runs);
                        }
                    }
                }
            }
        }
        let mut lists: Vec<(Box<str>, Runs)> = map.into_iter().collect();
        lists.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let index = InvertedIndex::assemble(lists);
        // Contract: paths strictly increase within a token and owners
        // within a run — document order within a relation. It holds by
        // construction (string_paths iterates paths in interning order,
        // owners in document order); the run intersections rely on it,
        // and a snapshot open checks the same rules.
        debug_assert_eq!(
            index.check_structure(db.summary().len(), db.node_count()),
            Ok(())
        );
        index
    }

    /// Lay sorted per-token runs out as the final columns, each sized
    /// exactly up front; a token's build lists are freed as soon as
    /// they are copied.
    fn assemble(lists: Vec<(Box<str>, Runs)>) -> InvertedIndex {
        let (bytes, runs, postings) = lists.iter().fold((0, 0, 0), |(b, r, p), (t, l)| {
            (b + t.len(), r + l.ends.len(), p + l.owners.len())
        });
        let mut token_off = Vec::with_capacity(lists.len() + 1);
        let mut blob = Vec::with_capacity(bytes);
        let mut run_off = Vec::with_capacity(lists.len() + 1);
        let mut run_path = Vec::with_capacity(runs);
        let mut owner_off = Vec::with_capacity(runs + 1);
        let mut owners = Vec::with_capacity(postings);
        token_off.push(0);
        run_off.push(0);
        owner_off.push(0);
        for (token, list) in lists {
            blob.extend_from_slice(token.as_bytes());
            token_off.push(blob.len() as u32);
            let base = owners.len() as u32;
            for &(path, end) in &list.ends {
                run_path.push(path);
                owner_off.push(base + end);
            }
            owners.extend_from_slice(&list.owners);
            run_off.push(run_path.len() as u32);
        }
        InvertedIndex {
            token_off: token_off.into(),
            blob: blob.into(),
            run_off: run_off.into(),
            run_path: run_path.into(),
            owner_off: owner_off.into(),
            owners: owners.into(),
        }
    }

    /// The `i`-th token of the sorted vocabulary.
    fn token(&self, i: usize) -> &str {
        let bytes = &self.blob[self.token_off[i] as usize..self.token_off[i + 1] as usize];
        // Built from `&str`s, or validated as UTF-8 by the decoder.
        std::str::from_utf8(bytes).expect("token is valid UTF-8")
    }

    /// The postings of the `i`-th token.
    fn postings_at(&self, i: usize) -> Postings<'_> {
        let (start, end) = (self.run_off[i] as usize, self.run_off[i + 1] as usize);
        Postings {
            paths: &self.run_path[start..end],
            owner_off: &self.owner_off[start..=end],
            owners: &self.owners,
        }
    }

    /// Postings of a token, grouped by path. The query term is
    /// case-folded before lookup.
    pub fn postings(&self, term: &str) -> Postings<'_> {
        let folded = crate::tokenize::fold(term);
        let count = self.vocabulary_size();
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.token(mid) < folded.as_str() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < count && self.token(lo) == folded.as_str() {
            self.postings_at(lo)
        } else {
            Postings::default()
        }
    }

    /// Whether the token occurs anywhere.
    pub fn contains(&self, term: &str) -> bool {
        !self.postings(term).is_empty()
    }

    /// Number of distinct tokens.
    pub fn vocabulary_size(&self) -> usize {
        self.token_off.len() - 1
    }

    /// Total number of postings.
    pub fn posting_count(&self) -> usize {
        self.owners.len()
    }

    /// Total number of `(token, path)` runs.
    pub fn run_count(&self) -> usize {
        self.run_path.len()
    }

    /// Iterate over the vocabulary in lexicographic order.
    pub fn vocabulary(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.vocabulary_size()).map(|i| self.token(i))
    }

    /// Every token with its postings, in vocabulary order: one linear
    /// pass over the blob, the way substring search reads it.
    pub fn entries(&self) -> impl Iterator<Item = (&str, Postings<'_>)> + '_ {
        (0..self.vocabulary_size()).map(|i| (self.token(i), self.postings_at(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    fn db() -> MonetDb {
        MonetDb::from_document(
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
        )
    }

    #[test]
    fn word_lookup_finds_cdata_hits() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let hits: Vec<_> = idx.postings("Bit").iter().collect();
        assert_eq!(hits.len(), 1);
        let (path, owner) = hits[0];
        assert_eq!(db.relation_name(path), "bib/article/author/cdata");
        // The owner is the cdata node carrying "Ben Bit".
        assert_eq!(db.string_value(path, owner), Some("Ben Bit"));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.postings("hack").len(), 1);
        assert_eq!(idx.postings("HACK"), idx.postings("hack"));
        assert!(idx.contains("HACKING"));
    }

    #[test]
    fn attribute_values_are_indexed_with_element_owner() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let hits: Vec<_> = idx.postings("BB99").iter().collect();
        assert_eq!(hits.len(), 1);
        let (path, owner) = hits[0];
        assert_eq!(db.relation_name(path), "bib/article/@key");
        assert_eq!(db.tag(owner), Some("article"));
    }

    #[test]
    fn shared_token_has_multiple_postings() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let hits = idx.postings("1999");
        assert_eq!(hits.len(), 2);
        // One relation, so one run holding both owners.
        assert_eq!(hits.runs().len(), 1);
        let (_, owners) = hits.runs().next().unwrap();
        assert_ne!(owners[0], owners[1]);
    }

    #[test]
    fn postings_are_runs_grouped_by_path() {
        // `x` on three paths: twice in one string, in two `t` strings,
        // in an attribute and in a text under the same element.
        let db =
            MonetDb::from_document(&parse(r#"<a><t>x y x</t><u k="x">x</u><t>X</t></a>"#).unwrap());
        let idx = InvertedIndex::build(&db);
        let runs: Vec<_> = idx.postings("x").runs().collect();
        assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut named: Vec<_> = runs
            .iter()
            .map(|(path, owners)| (db.relation_name(*path), owners.len()))
            .collect();
        named.sort();
        assert_eq!(
            named,
            [
                ("a/t/cdata".to_string(), 2),
                ("a/u/@k".to_string(), 1),
                ("a/u/cdata".to_string(), 1)
            ]
        );
        assert_eq!(idx.postings("x").len(), 4);
        assert_eq!(idx.posting_count(), 5);
        assert_eq!(idx.run_count(), 4);
    }

    #[test]
    fn duplicate_token_in_one_string_posts_once() {
        let db = MonetDb::from_document(&parse("<a><t>spam spam spam</t></a>").unwrap());
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.postings("spam").len(), 1);
    }

    #[test]
    fn a_term_ending_in_capital_sigma_finds_its_token() {
        // `str::to_lowercase` lowers the last letter of "ΟΔΟΣ" to `ς`;
        // the tokenizer, folding char by char, indexed it under `σ`.
        let db = MonetDb::from_document(&parse("<a><t>Η ΟΔΟΣ μου</t><t>ΠΑΡΟΔΟΣΗ</t></a>").unwrap());
        let idx = InvertedIndex::build(&db);
        assert!(idx.vocabulary().any(|t| t == "οδοσ"));
        assert_eq!(idx.postings("ΟΔΟΣ").len(), 1);
        assert_eq!(idx.postings("ΟΔΟΣ"), idx.postings("οδοσ"));
        assert!(idx.contains("ΟΔΟΣ") && idx.contains("Οδοσ"));
    }

    #[test]
    fn missing_token_yields_empty() {
        let idx = InvertedIndex::build(&db());
        assert!(idx.postings("absent").is_empty());
        assert!(!idx.contains("absent"));
    }

    #[test]
    fn counters_are_consistent() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.vocabulary().count(), idx.vocabulary_size());
        let total: usize = idx.vocabulary().map(|t| idx.postings(t).len()).sum();
        assert_eq!(total, idx.posting_count());
        let runs: usize = idx.entries().map(|(_, p)| p.runs().len()).sum();
        assert_eq!(runs, idx.run_count());
        assert!(idx.entries().map(|(t, _)| t).eq(idx.vocabulary()));
    }
}
