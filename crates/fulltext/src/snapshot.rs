//! Snapshot codec for the inverted index.
//!
//! The index is the most expensive build artifact after the meet index:
//! every string association is tokenized and case-folded at build time.
//! Persisting the finished posting lists means a cold start never
//! re-tokenizes the corpus.
//!
//! The `FULLTEXT` section (inside the checksummed container of
//! [`ncq_store::mmap`]) stores the index in **final form** — the four
//! flat arrays [`InvertedIndex`] holds in memory, served as mapped
//! views:
//!
//! ```text
//! token count (u64) · total postings (u64) · blob length (u64)
//! token_off:   u32[tokens + 1]   byte offsets into blob
//! blob:        u8[blob length]   concatenated UTF-8 tokens, sorted
//! posting_off: u32[tokens + 1]   posting-list offsets
//! postings:    Posting[total]    (path u32, owner u32) pairs
//! ```
//!
//! Tokens are **sorted** — snapshot bytes must be a pure function of
//! the database (the CI determinism gate `cmp`s two saves), and the
//! sort *is* the lookup structure: postings are found by binary search
//! over the vocabulary.

use crate::index::{InvertedIndex, Posting};
use ncq_store::snapshot::{section, SnapshotError};
use ncq_store::{MappedSnapshot, MonetDb, SnapshotWriter};

impl InvertedIndex {
    /// Write the `FULLTEXT` section: three scalars, then the four
    /// arrays as they sit in memory.
    pub fn encode_snapshot(&self, writer: &mut SnapshotWriter) {
        let s = writer.section(section::FULLTEXT);
        s.put_u64(self.vocabulary_size() as u64);
        s.put_u64(self.postings.len() as u64);
        s.put_u64(self.blob.len() as u64);
        s.put_col::<u32>(&self.token_off);
        s.put_col::<u8>(&self.blob);
        s.put_col::<u32>(&self.posting_off);
        s.put_col::<Posting>(&self.postings);
    }

    /// Read the `FULLTEXT` section as zero-copy views.
    ///
    /// The vocabulary and posting structure are fully validated here
    /// (monotone offsets, UTF-8 + strictly sorted tokens, sorted and
    /// deduplicated in-range posting lists) because the lookup path
    /// assumes all of it — so the section is read through
    /// [`MappedSnapshot::section_verified`], paying its checksum once
    /// alongside the structural scan.
    pub fn decode_snapshot(
        snap: &MappedSnapshot,
        store: &MonetDb,
    ) -> Result<InvertedIndex, SnapshotError> {
        let mut s = snap.section_verified(section::FULLTEXT)?;
        let token_count = s.get_u64()? as usize;
        let posting_total = s.get_u64()? as usize;
        let blob_len = s.get_u64()? as usize;
        let corrupt = |context: &'static str| SnapshotError::Corrupt { context };
        let offsets = token_count
            .checked_add(1)
            .ok_or(corrupt("fulltext token count overflows"))?;
        let token_off = s.get_col::<u32>(offsets)?;
        let blob = s.get_col::<u8>(blob_len)?;
        let posting_off = s.get_col::<u32>(offsets)?;
        let postings = s.get_col::<Posting>(posting_total)?;
        if !s.at_end() {
            return Err(corrupt("fulltext section has trailing bytes"));
        }
        if token_off.first() != Some(&0)
            || token_off.last() != Some(&(blob_len as u32))
            || token_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(corrupt("fulltext token offsets not monotone"));
        }
        // posting_off strictly increasing: empty posting lists are
        // rejected.
        if posting_off.first() != Some(&0)
            || posting_off.last() != Some(&(posting_total as u32))
            || posting_off.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(corrupt("fulltext posting offsets not increasing"));
        }
        let mut prev_token: Option<&str> = None;
        for i in 0..token_count {
            let bytes = &blob[token_off[i] as usize..token_off[i + 1] as usize];
            let token = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("fulltext token not valid UTF-8"))?;
            if prev_token.is_some_and(|prev| prev >= token) {
                return Err(corrupt("fulltext vocabulary not strictly sorted"));
            }
            prev_token = Some(token);
        }
        let paths = store.summary().len();
        let n = store.node_count();
        for i in 0..token_count {
            let list = &postings[posting_off[i] as usize..posting_off[i + 1] as usize];
            if list
                .iter()
                .any(|p| p.path.index() >= paths || p.owner.index() >= n)
            {
                return Err(corrupt("fulltext posting out of range"));
            }
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("fulltext posting list not sorted/deduplicated"));
            }
        }
        Ok(InvertedIndex {
            token_off,
            blob,
            posting_off,
            postings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_store::{Oid, PathId, VerifyMode};
    use ncq_xml::parse;

    fn store() -> MonetDb {
        MonetDb::from_document(
            &parse(
                r#"<bib>
                     <article key="BB99"><author>Ben Bit</author>
                       <title>How to Hack</title><year>1999</year></article>
                     <article key="BK99"><author>Bob Byte</author>
                       <title>Hacking &amp; RSI</title><year>1999</year></article>
                   </bib>"#,
            )
            .unwrap(),
        )
    }

    fn round_trip(store: &MonetDb, idx: &InvertedIndex) -> InvertedIndex {
        let mut w = SnapshotWriter::new();
        store.encode_snapshot(&mut w);
        idx.encode_snapshot(&mut w);
        let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
        InvertedIndex::decode_snapshot(&snap, store).unwrap()
    }

    #[test]
    fn round_trip_serves_identical_postings_from_the_mapped_views() {
        let store = store();
        let idx = InvertedIndex::build(&store);
        let loaded = round_trip(&store, &idx);
        assert_eq!(loaded.vocabulary_size(), idx.vocabulary_size());
        assert_eq!(loaded.posting_count(), idx.posting_count());
        for token in idx.vocabulary() {
            assert_eq!(loaded.postings(token), idx.postings(token), "{token}");
        }
        assert!(!loaded.contains("no-such-token"));
        // The vocabulary is lexicographic, built or mapped.
        let vocab: Vec<&str> = loaded.vocabulary().collect();
        assert!(vocab.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(vocab, idx.vocabulary().collect::<Vec<_>>());
    }

    #[test]
    fn encoding_is_deterministic_for_built_and_mapped_indexes() {
        let store = store();
        let idx = InvertedIndex::build(&store);
        let bytes = |i: &InvertedIndex| {
            let mut w = SnapshotWriter::new();
            store.encode_snapshot(&mut w);
            i.encode_snapshot(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes(&idx), bytes(&idx));
        assert_eq!(bytes(&idx), bytes(&InvertedIndex::build(&store)));
        // Re-encoding a mapped index reproduces the same bytes.
        assert_eq!(bytes(&idx), bytes(&round_trip(&store, &idx)));
    }

    #[test]
    fn huge_declared_counts_fail_typed_without_allocating() {
        // Checksum-valid scalars that claim absurd array lengths must
        // fail typed against the section extent — no allocation, no
        // arithmetic overflow.
        let store = store();
        for (tokens, postings, blob) in [
            (u64::MAX, 0, 0),
            (u32::MAX as u64, 1, 1),
            (1, u64::MAX / 8, 1),
            (1, 1, u64::MAX),
        ] {
            let mut w = SnapshotWriter::new();
            store.encode_snapshot(&mut w);
            let s = w.section(section::FULLTEXT);
            s.put_u64(tokens);
            s.put_u64(postings);
            s.put_u64(blob);
            let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
            assert!(
                matches!(
                    InvertedIndex::decode_snapshot(&snap, &store),
                    Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
                ),
                "tokens={tokens} postings={postings} blob={blob}"
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_sections() {
        let store = store();
        // Helper: write a FULLTEXT section from raw parts.
        let encode = |token_off: &[u32], blob: &[u8], posting_off: &[u32], posts: &[Posting]| {
            let mut w = SnapshotWriter::new();
            store.encode_snapshot(&mut w);
            let s = w.section(section::FULLTEXT);
            s.put_u64((token_off.len() - 1) as u64);
            s.put_u64(posts.len() as u64);
            s.put_u64(blob.len() as u64);
            s.put_col::<u32>(token_off);
            s.put_col::<u8>(blob);
            s.put_col::<u32>(posting_off);
            s.put_col::<Posting>(posts);
            MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap()
        };
        let p = |path: usize, owner: usize| Posting {
            path: PathId::from_index(path),
            owner: Oid::from_index(owner),
        };
        // Out-of-range owner.
        let snap = encode(&[0, 1], b"a", &[0, 1], &[p(0, 100_000)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Vocabulary out of order.
        let snap = encode(&[0, 1, 2], b"ba", &[0, 1, 2], &[p(0, 1), p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Empty posting list (posting_off not strictly increasing).
        let snap = encode(&[0, 1, 2], b"ab", &[0, 0, 1], &[p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Unsorted posting list.
        let snap = encode(&[0, 1], b"a", &[0, 2], &[p(1, 2), p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Invalid UTF-8 token.
        let snap = encode(&[0, 1], &[0xFF], &[0, 1], &[p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
