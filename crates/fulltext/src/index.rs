//! The inverted index over all string relations of a database.

use crate::tokenize::Scanner;
use ncq_store::{Col, MonetDb, Oid, PathId};
use std::collections::HashMap;

/// One posting: the association `(owner, string)` that contained the token,
/// identified by its relation (path) and owner oid.
///
/// `repr(C)`: both fields are `repr(transparent)` `u32` newtypes, so a
/// posting is guaranteed to be laid out as `[path, owner]: [u32; 2]` —
/// the shape the SIMD decode kernel deinterleaves owner columns from
/// (see [`mod@crate::intersect`]) and the shape the snapshot maps
/// back as a plain slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C)]
pub struct Posting {
    /// Relation (path type) of the association.
    pub path: PathId,
    /// Owner oid: the cdata node for text, the element for attributes.
    pub owner: Oid,
}

// SAFETY: `repr(C)` over two `repr(transparent)` u32 newtypes — size 8,
// align 4, no padding, every bit pattern valid. The compile-time asserts
// below pin the layout the mapped snapshot relies on.
unsafe impl ncq_store::Pod for Posting {}
const _: () = assert!(std::mem::size_of::<Posting>() == 8);
const _: () = assert!(std::mem::align_of::<Posting>() == 4);

/// Token → postings over every string relation of a [`MonetDb`].
///
/// One physical form, built or opened: the vocabulary as a sorted blob
/// plus offsets (CSR over bytes), the postings as one concatenated
/// slice plus offsets (CSR over lists). Each array is a [`Col`] — owned
/// after a build, a zero-copy view after a snapshot
/// open — and lookups binary-search the sorted vocabulary.
/// `pub(crate)` fields: the snapshot codec (`crate::snapshot`) persists
/// and reattaches them directly.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Byte offsets into `blob`, length `tokens + 1`.
    pub(crate) token_off: Col<u32>,
    /// Concatenated UTF-8 token bytes, lexicographic order.
    pub(crate) blob: Col<u8>,
    /// Posting offsets, length `tokens + 1`.
    pub(crate) posting_off: Col<u32>,
    /// All postings, concatenated in token order.
    pub(crate) postings: Col<Posting>,
}

/// Assembles the CSR form from `(token, postings)` entries pushed in
/// lexicographic token order; an entry with no postings leaves no
/// token behind.
struct Builder {
    token_off: Vec<u32>,
    blob: Vec<u8>,
    posting_off: Vec<u32>,
    postings: Vec<Posting>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            token_off: vec![0],
            blob: Vec::new(),
            posting_off: vec![0],
            postings: Vec::new(),
        }
    }

    fn push(&mut self, token: &str, list: impl Iterator<Item = Posting>) {
        let before = self.postings.len();
        self.postings.extend(list);
        if self.postings.len() > before {
            self.blob.extend_from_slice(token.as_bytes());
            self.token_off.push(self.blob.len() as u32);
            self.posting_off.push(self.postings.len() as u32);
        }
    }

    fn finish(self) -> InvertedIndex {
        InvertedIndex {
            token_off: self.token_off.into(),
            blob: self.blob.into(),
            posting_off: self.posting_off.into(),
            postings: self.postings.into(),
        }
    }
}

impl Default for InvertedIndex {
    fn default() -> InvertedIndex {
        Builder::new().finish()
    }
}

impl InvertedIndex {
    /// Index every string association of `db`.
    pub fn build(db: &MonetDb) -> InvertedIndex {
        let mut map: HashMap<Box<str>, Vec<Posting>> = HashMap::new();
        let mut token = String::new();
        for path in db.string_paths() {
            for (owner, text) in db.strings_of(path).iter() {
                let posting = Posting { path, owner };
                let mut scanner = Scanner::new(text);
                while scanner.next_into(&mut token) {
                    match map.get_mut(token.as_str()) {
                        // The same token may occur twice in one string;
                        // store the posting once. Postings arrive in
                        // (path, owner) order, so checking the tail
                        // suffices.
                        Some(list) if list.last() == Some(&posting) => {}
                        Some(list) => list.push(posting),
                        // A key is boxed on a token's first occurrence.
                        None => {
                            map.insert(token.as_str().into(), vec![posting]);
                        }
                    }
                }
            }
        }
        // Contract: every posting list is sorted by (path, owner) —
        // document order within a relation — and deduplicated. It holds
        // by construction (string_paths iterates paths in interning
        // order, owners in document order); the galloping intersections
        // rely on it.
        debug_assert!(map.values().all(|v| v.windows(2).all(|w| w[0] < w[1])));
        let mut lists: Vec<(Box<str>, Vec<Posting>)> = map.into_iter().collect();
        lists.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut csr = Builder::new();
        for (token, list) in &lists {
            csr.push(token, list.iter().copied());
        }
        csr.finish()
    }

    /// The `i`-th token of the sorted vocabulary.
    fn token(&self, i: usize) -> &str {
        let bytes = &self.blob[self.token_off[i] as usize..self.token_off[i + 1] as usize];
        // Built from `&str`s, or validated as UTF-8 by the decoder.
        std::str::from_utf8(bytes).expect("token is valid UTF-8")
    }

    /// The posting list of the `i`-th token.
    fn list(&self, i: usize) -> &[Posting] {
        &self.postings[self.posting_off[i] as usize..self.posting_off[i + 1] as usize]
    }

    /// Postings of a token, sorted by `(path, owner)` and deduplicated.
    /// The query term is case-folded before lookup.
    pub fn postings(&self, term: &str) -> &[Posting] {
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
            self.list(lo)
        } else {
            &[]
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
        self.postings.len()
    }

    /// Iterate over the vocabulary in lexicographic order.
    pub fn vocabulary(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.vocabulary_size()).map(|i| self.token(i))
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
        let hits = idx.postings("Bit");
        assert_eq!(hits.len(), 1);
        assert_eq!(db.relation_name(hits[0].path), "bib/article/author/cdata");
        // The owner is the cdata node carrying "Ben Bit".
        assert_eq!(
            db.string_value(hits[0].path, hits[0].owner),
            Some("Ben Bit")
        );
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
        let hits = idx.postings("BB99");
        assert_eq!(hits.len(), 1);
        assert_eq!(db.relation_name(hits[0].path), "bib/article/@key");
        assert_eq!(db.tag(hits[0].owner), Some("article"));
    }

    #[test]
    fn shared_token_has_multiple_postings() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let hits = idx.postings("1999");
        assert_eq!(hits.len(), 2);
        assert_ne!(hits[0].owner, hits[1].owner);
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
    }
}
