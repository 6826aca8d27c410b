//! Snapshot codec for the inverted index.
//!
//! The index is the most expensive build artifact after the meet index:
//! every string association is tokenized and case-folded at build time.
//! Persisting the finished posting lists means a cold start never
//! re-tokenizes the corpus.
//!
//! The `FULLTEXT` section (inside the checksummed container of
//! [`ncq_store::mmap`]) stores the index in **final form** — the six
//! flat arrays [`InvertedIndex`] holds in memory, served as mapped
//! views:
//!
//! ```text
//! token count (u64) · run count (u64) · posting count (u64) · blob length (u64)
//! token_off: u32[tokens + 1]   byte offsets into blob
//! blob:      u8[blob length]   concatenated UTF-8 tokens, sorted
//! run_off:   u32[tokens + 1]   token → its (token, path) runs
//! run_path:  u32[runs]         path of each run, ascending per token
//! owner_off: u32[runs + 1]     run → its owners
//! owners:    u32[postings]     owner oids, ascending per run
//! ```
//!
//! Tokens are **sorted** — snapshot bytes must be a pure function of
//! the database (the CI determinism gate `cmp`s two saves), and the
//! sort *is* the lookup structure: postings are found by binary search
//! over the vocabulary.

use crate::index::InvertedIndex;
use ncq_store::snapshot::{section, SnapshotError};
use ncq_store::{MappedSnapshot, MonetDb, SnapshotWriter};

/// Offsets that start at 0, end at `total` and strictly increase: a
/// CSR whose every entry is non-empty.
fn strictly_increasing(off: &[u32], total: usize) -> bool {
    off.first() == Some(&0)
        && off.last() == Some(&(total as u32))
        && off.windows(2).all(|w| w[0] < w[1])
}

/// The entries of a CSR as index ranges.
fn ranges(off: &[u32]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    off.windows(2).map(|w| w[0] as usize..w[1] as usize)
}

impl InvertedIndex {
    /// Write the `FULLTEXT` section: four scalars, then the six arrays
    /// as they sit in memory.
    pub fn encode_snapshot(&self, writer: &mut SnapshotWriter) {
        let s = writer.section(section::FULLTEXT);
        s.put_u64(self.vocabulary_size() as u64);
        s.put_u64(self.run_count() as u64);
        s.put_u64(self.posting_count() as u64);
        s.put_u64(self.blob.len() as u64);
        s.put_col(&self.token_off);
        s.put_col(&self.blob);
        s.put_col(&self.run_off);
        s.put_col(&self.run_path);
        s.put_col(&self.owner_off);
        s.put_col(&self.owners);
    }

    /// Read the `FULLTEXT` section as zero-copy views.
    ///
    /// The vocabulary and posting structure are fully validated here
    /// (UTF-8 and strictly sorted tokens; non-empty, path-ordered runs of
    /// strictly increasing, in-range owners) because the lookup path
    /// assumes all of it — so the section is read through
    /// [`MappedSnapshot::section_verified`], paying its checksum once
    /// alongside the structural scan.
    pub fn decode_snapshot(
        snap: &MappedSnapshot,
        store: &MonetDb,
    ) -> Result<InvertedIndex, SnapshotError> {
        let mut s = snap.section_verified(section::FULLTEXT)?;
        let token_count = s.get_u64()? as usize;
        let run_count = s.get_u64()? as usize;
        let posting_count = s.get_u64()? as usize;
        let blob_len = s.get_u64()? as usize;
        let corrupt = |context: &'static str| SnapshotError::Corrupt { context };
        let overflow = || corrupt("fulltext count overflows");
        let token_offsets = token_count.checked_add(1).ok_or_else(overflow)?;
        let run_offsets = run_count.checked_add(1).ok_or_else(overflow)?;
        let index = InvertedIndex {
            token_off: s.get_col(token_offsets)?,
            blob: s.get_col(blob_len)?,
            run_off: s.get_col(token_offsets)?,
            run_path: s.get_col(run_count)?,
            owner_off: s.get_col(run_offsets)?,
            owners: s.get_col(posting_count)?,
        };
        if !s.at_end() {
            return Err(corrupt("fulltext section has trailing bytes"));
        }
        index
            .check_structure(store.summary().len(), store.node_count())
            .map_err(corrupt)?;
        Ok(index)
    }

    /// The rules every lookup relies on, over a store of `paths` paths
    /// and `nodes` nodes: monotone token offsets over UTF-8, strictly
    /// sorted tokens; every token with at least one run and every run
    /// with at least one owner; paths strictly increasing within a
    /// token and owners within a run, all in range.
    pub(crate) fn check_structure(&self, paths: usize, nodes: usize) -> Result<(), &'static str> {
        let tokens = self.vocabulary_size();
        let token_off = &self.token_off;
        if token_off.first() != Some(&0)
            || token_off.last() != Some(&(self.blob.len() as u32))
            || token_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err("fulltext token offsets not monotone");
        }
        if !strictly_increasing(&self.run_off, self.run_count()) {
            return Err("fulltext run offsets not increasing");
        }
        if !strictly_increasing(&self.owner_off, self.posting_count()) {
            return Err("fulltext owner offsets not increasing");
        }
        let mut prev_token: Option<&str> = None;
        for i in 0..tokens {
            let bytes = &self.blob[token_off[i] as usize..token_off[i + 1] as usize];
            let token = std::str::from_utf8(bytes).map_err(|_| "fulltext token not valid UTF-8")?;
            if prev_token.is_some_and(|prev| prev >= token) {
                return Err("fulltext vocabulary not strictly sorted");
            }
            prev_token = Some(token);
        }
        if self.run_path.iter().any(|p| p.index() >= paths)
            || self.owners.iter().any(|o| o.index() >= nodes)
        {
            return Err("fulltext posting out of range");
        }
        if ranges(&self.run_off).any(|r| self.run_path[r].windows(2).any(|w| w[0] >= w[1])) {
            return Err("fulltext run paths not strictly increasing");
        }
        if ranges(&self.owner_off).any(|r| self.owners[r].windows(2).any(|w| w[0] >= w[1])) {
            return Err("fulltext run owners not strictly increasing");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_store::VerifyMode;
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
        for (tokens, runs, postings, blob) in [
            (u64::MAX, 0, 0, 0),
            (0, u64::MAX, 0, 0),
            (u32::MAX as u64, 1, 1, 1),
            (1, u32::MAX as u64, 1, 1),
            (1, 1, u64::MAX / 4, 1),
            (1, 1, 1, u64::MAX),
        ] {
            let mut w = SnapshotWriter::new();
            store.encode_snapshot(&mut w);
            let s = w.section(section::FULLTEXT);
            for scalar in [tokens, runs, postings, blob] {
                s.put_u64(scalar);
            }
            let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
            assert!(
                matches!(
                    InvertedIndex::decode_snapshot(&snap, &store),
                    Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
                ),
                "tokens={tokens} runs={runs} postings={postings} blob={blob}"
            );
        }
    }

    /// The six arrays of a `FULLTEXT` section, written raw.
    struct Raw<'a> {
        token_off: &'a [u32],
        blob: &'a [u8],
        run_off: &'a [u32],
        run_path: &'a [u32],
        owner_off: &'a [u32],
        owners: &'a [u32],
    }

    /// Two tokens `a`, `b`; `a` on paths 1 and 2, `b` on path 2 — a
    /// well-formed section each case below breaks one rule of.
    const GOOD: Raw<'static> = Raw {
        token_off: &[0, 1, 2],
        blob: b"ab",
        run_off: &[0, 2, 3],
        run_path: &[1, 2, 2],
        owner_off: &[0, 2, 3, 4],
        owners: &[3, 5, 4, 6],
    };

    /// Decode `raw`, with `trailing` bytes after the last array.
    fn decode_raw(
        store: &MonetDb,
        raw: &Raw,
        trailing: &[u8],
    ) -> Result<InvertedIndex, SnapshotError> {
        let mut w = SnapshotWriter::new();
        store.encode_snapshot(&mut w);
        let s = w.section(section::FULLTEXT);
        s.put_u64((raw.token_off.len() - 1) as u64);
        s.put_u64(raw.run_path.len() as u64);
        s.put_u64(raw.owners.len() as u64);
        s.put_u64(raw.blob.len() as u64);
        s.put_col(raw.token_off);
        s.put_col(raw.blob);
        s.put_col(raw.run_off);
        s.put_col(raw.run_path);
        s.put_col(raw.owner_off);
        s.put_col(raw.owners);
        s.put_bytes(trailing);
        let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
        InvertedIndex::decode_snapshot(&snap, store)
    }

    #[test]
    fn decode_rejects_each_broken_rule() {
        let store = store();
        let good = decode_raw(&store, &GOOD, &[]).expect("the well-formed section opens");
        assert_eq!(good.vocabulary().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(good.postings("a").runs().len(), 2);
        assert_eq!(good.postings("b").len(), 1);
        let far = store.node_count() as u32;
        let cases: [(&str, Raw); 13] = [
            (
                "token offsets not monotone",
                Raw {
                    token_off: &[0, 2, 1],
                    ..GOOD
                },
            ),
            (
                "token offsets short of the blob",
                Raw {
                    token_off: &[0, 1, 1],
                    ..GOOD
                },
            ),
            (
                "token not UTF-8",
                Raw {
                    blob: &[b'a', 0xFF],
                    ..GOOD
                },
            ),
            (
                "vocabulary out of order",
                Raw {
                    blob: b"ba",
                    ..GOOD
                },
            ),
            (
                "run offsets not from 0",
                Raw {
                    run_off: &[1, 2, 3],
                    ..GOOD
                },
            ),
            (
                "token without runs",
                Raw {
                    run_off: &[0, 3, 3],
                    ..GOOD
                },
            ),
            (
                "run offsets past the runs",
                Raw {
                    run_off: &[0, 2, 4],
                    ..GOOD
                },
            ),
            (
                "run without owners",
                Raw {
                    owner_off: &[0, 2, 2, 4],
                    ..GOOD
                },
            ),
            (
                "owner offsets not from 0",
                Raw {
                    owner_off: &[1, 2, 3, 4],
                    ..GOOD
                },
            ),
            (
                "paths repeat within a token",
                Raw {
                    run_path: &[2, 2, 2],
                    ..GOOD
                },
            ),
            (
                "path out of range",
                Raw {
                    run_path: &[1, 2, 100_000],
                    ..GOOD
                },
            ),
            (
                "owners not increasing in a run",
                Raw {
                    owners: &[5, 3, 4, 6],
                    ..GOOD
                },
            ),
            (
                "owner out of range",
                Raw {
                    owners: &[3, 5, 4, far],
                    ..GOOD
                },
            ),
        ];
        for (rule, raw) in cases {
            assert!(
                matches!(
                    decode_raw(&store, &raw, &[]),
                    Err(SnapshotError::Corrupt { .. })
                ),
                "{rule}"
            );
        }
        // Paths may repeat across tokens and owners across runs.
        let shared = Raw {
            run_path: &[1, 2, 1],
            owners: &[3, 5, 3, 5],
            ..GOOD
        };
        assert!(decode_raw(&store, &shared, &[]).is_ok());
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        assert!(matches!(
            decode_raw(&store(), &GOOD, &[0; 4]),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
