//! Snapshot codec for the inverted index.
//!
//! The index is the most expensive build artifact after the meet index:
//! every string association is tokenized and case-folded at build time.
//! Persisting the finished posting lists means a cold start re-hashes
//! the (small) vocabulary but never re-tokenizes the (large) corpus.
//!
//! The `FULLTEXT` section (inside the checksummed container of
//! [`ncq_store::mmap`]) stores the index in **final form** — four flat
//! arrays a mapped open can serve without rebuilding the hash map:
//!
//! ```text
//! token count (u64) · total postings (u64) · blob length (u64)
//! token_off:   u32[tokens + 1]   byte offsets into blob
//! blob:        u8[blob length]   concatenated UTF-8 tokens, sorted
//! posting_off: u32[tokens + 1]   posting-list offsets
//! postings:    Posting[total]    (path u32, owner u32) pairs
//! ```
//!
//! Tokens are written **sorted** — the in-memory `HashMap` iterates in
//! a nondeterministic order, and snapshot bytes must be a pure function
//! of the database (the CI determinism gate `cmp`s two saves). The sort
//! also *is* the lookup structure: the mapped representation binary
//! searches the sorted vocabulary.

use crate::index::{InvertedIndex, Posting, Repr};
use ncq_store::snapshot::{section, SnapshotError};
use ncq_store::{MappedSnapshot, MonetDb, SnapshotWriterV3};

impl InvertedIndex {
    /// Write the v3 `FULLTEXT` section: the vocabulary as a sorted CSR
    /// blob and the postings as one concatenated `Pod` array, so a
    /// mapped open serves both without copying.
    pub fn encode_snapshot_v3(&self, writer: &mut SnapshotWriterV3) {
        let entries = self.sorted_entries();
        let mut token_off: Vec<u32> = Vec::with_capacity(entries.len() + 1);
        let mut blob: Vec<u8> = Vec::new();
        let mut posting_off: Vec<u32> = Vec::with_capacity(entries.len() + 1);
        let mut postings: Vec<Posting> = Vec::with_capacity(self.posting_count());
        token_off.push(0);
        posting_off.push(0);
        for (token, list) in entries {
            blob.extend_from_slice(token.as_bytes());
            token_off.push(blob.len() as u32);
            postings.extend_from_slice(list);
            posting_off.push(postings.len() as u32);
        }
        let mut s = writer.section(section::FULLTEXT);
        s.put_u64((token_off.len() - 1) as u64);
        s.put_u64(postings.len() as u64);
        s.put_u64(blob.len() as u64);
        s.put_col::<u32>(&token_off);
        s.put_col::<u8>(&blob);
        s.put_col::<u32>(&posting_off);
        s.put_col::<Posting>(&postings);
    }

    /// Read the v3 `FULLTEXT` section as zero-copy views.
    ///
    /// The vocabulary and posting structure are fully validated here
    /// (monotone offsets, UTF-8 + strictly sorted tokens, sorted and
    /// deduplicated in-range posting lists) because the mapped lookup
    /// path assumes all of it — so the section is read through
    /// [`MappedSnapshot::section_verified`], paying its checksum once
    /// alongside the structural scan.
    pub fn decode_snapshot_v3(
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
        let token_off = s.take_col::<u32>(offsets)?;
        let blob = s.take_col::<u8>(blob_len)?;
        let posting_off = s.take_col::<u32>(offsets)?;
        let postings = s.take_col::<Posting>(posting_total)?;
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
            repr: Repr::Mapped {
                token_off,
                blob,
                posting_off,
                postings,
            },
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

    fn round_trip_v3(store: &MonetDb, idx: &InvertedIndex) -> InvertedIndex {
        let mut w = SnapshotWriterV3::new();
        store.encode_snapshot_v3(&mut w);
        idx.encode_snapshot_v3(&mut w);
        let snap = MappedSnapshot::from_owned_bytes(w.to_bytes(), VerifyMode::Eager).unwrap();
        InvertedIndex::decode_snapshot_v3(&snap, store).unwrap()
    }

    #[test]
    fn v3_round_trip_serves_identical_postings_through_the_mapped_repr() {
        let store = store();
        let idx = InvertedIndex::build(&store);
        let loaded = round_trip_v3(&store, &idx);
        assert_eq!(loaded.vocabulary_size(), idx.vocabulary_size());
        assert_eq!(loaded.posting_count(), idx.posting_count());
        for token in idx.vocabulary() {
            assert_eq!(loaded.postings(token), idx.postings(token), "{token}");
        }
        assert!(!loaded.contains("no-such-token"));
        // Mapped vocabulary comes back lexicographically sorted.
        let vocab: Vec<&str> = loaded.vocabulary().collect();
        let mut sorted = vocab.clone();
        sorted.sort_unstable();
        assert_eq!(vocab, sorted);
        // And a restriction of the mapped index behaves like one of the
        // built index (shards always rebuild owned lists).
        let cut = |o: Oid| o.index().is_multiple_of(2);
        let a = loaded.restrict(cut);
        let b = idx.restrict(cut);
        assert_eq!(a.posting_count(), b.posting_count());
        for token in b.vocabulary() {
            assert_eq!(a.postings(token), b.postings(token), "{token}");
        }
    }

    #[test]
    fn v3_encoding_is_deterministic_and_repr_independent() {
        let store = store();
        let idx = InvertedIndex::build(&store);
        let bytes = |i: &InvertedIndex| {
            let mut w = SnapshotWriterV3::new();
            store.encode_snapshot_v3(&mut w);
            i.encode_snapshot_v3(&mut w);
            w.to_bytes()
        };
        assert_eq!(bytes(&idx), bytes(&idx));
        assert_eq!(bytes(&idx), bytes(&InvertedIndex::build(&store)));
        // Re-encoding a mapped index reproduces the same bytes.
        assert_eq!(bytes(&idx), bytes(&round_trip_v3(&store, &idx)));
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
            let mut w = SnapshotWriterV3::new();
            store.encode_snapshot_v3(&mut w);
            let mut s = w.section(section::FULLTEXT);
            s.put_u64(tokens);
            s.put_u64(postings);
            s.put_u64(blob);
            let snap = MappedSnapshot::from_owned_bytes(w.to_bytes(), VerifyMode::Eager).unwrap();
            assert!(
                matches!(
                    InvertedIndex::decode_snapshot_v3(&snap, &store),
                    Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
                ),
                "tokens={tokens} postings={postings} blob={blob}"
            );
        }
    }

    #[test]
    fn v3_decode_rejects_malformed_sections() {
        let store = store();
        // Helper: write a FULLTEXT section from raw parts.
        let encode = |token_off: &[u32], blob: &[u8], posting_off: &[u32], posts: &[Posting]| {
            let mut w = SnapshotWriterV3::new();
            store.encode_snapshot_v3(&mut w);
            let mut s = w.section(section::FULLTEXT);
            s.put_u64((token_off.len() - 1) as u64);
            s.put_u64(posts.len() as u64);
            s.put_u64(blob.len() as u64);
            s.put_col::<u32>(token_off);
            s.put_col::<u8>(blob);
            s.put_col::<u32>(posting_off);
            s.put_col::<Posting>(posts);
            MappedSnapshot::from_owned_bytes(w.to_bytes(), VerifyMode::Eager).unwrap()
        };
        let p = |path: usize, owner: usize| Posting {
            path: PathId::from_index(path),
            owner: Oid::from_index(owner),
        };
        // Out-of-range owner.
        let snap = encode(&[0, 1], b"a", &[0, 1], &[p(0, 100_000)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot_v3(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Vocabulary out of order.
        let snap = encode(&[0, 1, 2], b"ba", &[0, 1, 2], &[p(0, 1), p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot_v3(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Empty posting list (posting_off not strictly increasing).
        let snap = encode(&[0, 1, 2], b"ab", &[0, 0, 1], &[p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot_v3(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Unsorted posting list.
        let snap = encode(&[0, 1], b"a", &[0, 2], &[p(1, 2), p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot_v3(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Invalid UTF-8 token.
        let snap = encode(&[0, 1], &[0xFF], &[0, 1], &[p(0, 1)]);
        assert!(matches!(
            InvertedIndex::decode_snapshot_v3(&snap, &store),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
