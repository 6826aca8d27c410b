//! Persistent snapshots: the on-disk layout for the Monet relations and
//! the structural meet index.
//!
//! # Why
//!
//! The meet operator's O(1) fast paths rest on preprocessed state — the
//! preorder-RMQ [`MeetIndex`], per-path postings — that the seed
//! pipeline rebuilt on every process start
//! (parse → Monet transform → index build, O(n log n) and dominated by
//! XML parsing and tokenization). A snapshot pays that cost **once**:
//! [`MonetDb::encode_snapshot`] writes the loaded columns and the
//! finished index in their in-memory representation;
//! [`MonetDb::decode_snapshot`] reattaches them from the mapped file —
//! no parse, no DFS, no re-tokenization. Higher layers stack their own
//! sections on the same container: `ncq-fulltext` persists the
//! inverted index, and `ncq-core` ties both together behind
//! `Database::save_snapshot` / `Database::open_snapshot`.
//!
//! # Layout
//!
//! There is one container: 64-byte-aligned sections holding the arrays
//! in final form, served straight out of an `mmap` with lazy
//! per-section checksums. The container and the byte codec (one writer
//! and one reader for every section, the forest manifest and the remote
//! wire) live in [`crate::mmap`]; this module holds what every section
//! codec shares — the error type, the section ids, [`checksum64`] —
//! plus the store's own section codecs.
//!
//! Every corruption mode surfaces as a typed [`SnapshotError`] — never
//! a panic and never silently wrong data. Writers emit sections in a
//! fixed order with sorted interior maps, so **snapshot bytes are a
//! pure function of the database**: saving twice yields byte-identical
//! files (CI `cmp`s two saves of `examples/snapshot_demo`).
//!
//! # Versioning policy
//!
//! `SNAPSHOT_VERSION` names the layout, not the software: any change to
//! section payload encodings, section semantics or the header must bump
//! it. A build reads exactly the version it writes; any other version —
//! the retired v1/v2 materializing layouts and the v3–v8 payloads
//! included — is refused at open with
//! [`SnapshotError::UnsupportedVersion`]. There is no upgrade tool: an
//! older file is replaced by rebuilding from the source XML and saving
//! again. The pinned fixture `tests/golden/snapshot_v9.bin` makes a
//! forgotten bump fail loudly in CI, and the retired
//! `snapshot_v1.bin` … `snapshot_v8.bin` fixtures pin the refusal.
//! Adding a **new optional section id** is backward compatible and
//! needs no bump — readers ignore unknown ids.

use crate::index::{MeetIndex, BLOCK};
use crate::mmap::{ByteReader, ByteWriter, Col, MappedSnapshot, SnapshotWriter};
use crate::monet::MonetDb;
use crate::oid::Oid;
use crate::path::{PathId, PathStep, PathSummary};
use crate::strings::StringColumns;
use ncq_xml::{Symbol, SymbolTable};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The 8-byte file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NCQSNAP\0";

/// Current layout version (the zero-copy mmap container written by
/// [`crate::mmap::SnapshotWriter`]). Bump on any payload or header
/// change.
pub const SNAPSHOT_VERSION: u32 = 9;

/// Well-known section ids. Unknown ids are ignored by readers, so
/// higher layers can add sections without touching this crate.
pub mod section {
    /// Interned tag/attribute vocabulary (`SymbolTable`).
    pub const SYMBOLS: u32 = 1;
    /// The path summary (tree-shaped schema).
    pub const PATHS: u32 = 2;
    /// Dense per-oid columns: `σ` and parent.
    pub const COLUMNS: u32 = 3;
    /// String relations (cdata text and attribute values): entry and
    /// byte counts, then `rel_off`, owners, `text_off` and the text blob
    /// in final form.
    pub const STRINGS: u32 = 4;
    /// The structural meet index: four shape scalars, one 32-bit stack
    /// mask per oid and the sparse table over 32-entry block minima of
    /// the parent column, then per-path document-order postings. (Id 6
    /// was the depth-statistics section of layouts 1–6 and stays
    /// unassigned.)
    pub const MEET_INDEX: u32 = 5;
    /// The full-text inverted index (written by `ncq-fulltext`): the
    /// sorted vocabulary, then each token's postings as runs grouped by
    /// path — a run offset per token, a path and an owner offset per
    /// run, one owner oid per posting. (Id 8 was the shard `PARTITION`
    /// map of earlier layouts; it stays unassigned, and readers skip it
    /// like any unknown id.)
    pub const FULLTEXT: u32 = 7;
}

/// Typed snapshot failures. Loading never panics on malformed input:
/// every corruption mode maps to one of these.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The layout version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ends before the advertised structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Byte offset of the structure that ran past the end.
        offset: u64,
    },
    /// A section's payload does not match its table checksum.
    ChecksumMismatch {
        /// Human-readable section name (see [`crate::mmap::section_name`]).
        section: &'static str,
        /// Byte offset of the mismatching payload.
        offset: u64,
    },
    /// A required section is absent.
    MissingSection {
        /// Section id from [`section`].
        section: u32,
    },
    /// A checksum-valid payload decodes to inconsistent data (a writer
    /// bug or an unbumped layout change — the version pin's domain).
    Corrupt {
        /// What failed to validate.
        context: &'static str,
    },
    /// The operation is not supported by this backend/engine.
    Unsupported {
        /// What was requested.
        context: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot layout version {found} (this build reads {supported})"
                )?;
                if found < supported {
                    write!(f, "; re-save from the source XML with this build")?;
                }
                Ok(())
            }
            SnapshotError::Truncated { context, offset } => {
                write!(
                    f,
                    "snapshot truncated while reading {context} at byte {offset}"
                )
            }
            SnapshotError::ChecksumMismatch { section, offset } => {
                write!(
                    f,
                    "snapshot section {section} at byte {offset} failed its checksum"
                )
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::Corrupt { context } => {
                write!(f, "snapshot payload is corrupt: {context}")
            }
            SnapshotError::Unsupported { context } => {
                write!(f, "snapshot operation unsupported: {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Word-wise multiply–rotate mix (xxHash-flavoured): dependency-free,
/// processes 8 bytes per step (~GB/s, vs ~50 ms for a byte-serial FNV
/// over a 28 MB section — cold-start time is the whole point of the
/// snapshot), and avalanches every flipped bit through the multiplies.
/// An integrity check against truncation and bit rot, not an
/// adversarial MAC. Public because sibling codecs (the forest
/// [`crate::manifest`]) checksum their own payloads — and whole
/// snapshot *files* — with the same function.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    const SEEDS: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x9ce4_8422_2325_cbf2,
        0x2325_cbf2_9ce4_8422,
    ];
    // Four independent lanes over 32-byte strides: the mul→rot→mul
    // chain is latency-bound, so lane-level ILP roughly quadruples
    // throughput on one core.
    let mut lanes = SEEDS;
    let mut strides = bytes.chunks_exact(32);
    for s in &mut strides {
        for (lane, c) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            *lane ^= w.wrapping_mul(M);
            *lane = lane.rotate_left(27).wrapping_mul(M);
        }
    }
    let mut h = (bytes.len() as u64).wrapping_mul(M)
        ^ lanes[0]
            .wrapping_mul(M)
            .wrapping_add(lanes[1].rotate_left(17))
            .wrapping_mul(M)
            .wrapping_add(lanes[2].rotate_left(31))
            .wrapping_mul(M)
            .wrapping_add(lanes[3].rotate_left(47));
    // Tail: the remaining 0..31 bytes, zero-padded per 8-byte word.
    let rem = strides.remainder();
    let mut words = rem.chunks_exact(8);
    for c in &mut words {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h ^= w.wrapping_mul(M);
        h = h.rotate_left(27).wrapping_mul(M);
    }
    let last = words.remainder();
    if !last.is_empty() {
        let mut tail = [0u8; 8];
        tail[..last.len()].copy_from_slice(last);
        h ^= u64::from_le_bytes(tail).wrapping_mul(M);
        h = h.rotate_left(27).wrapping_mul(M);
    }
    h = h.wrapping_mul(M);
    h ^ (h >> 29)
}

/// Write `bytes` to `path` atomically: a temp file in the same
/// directory is renamed into place, so readers never observe a
/// half-written file. The temp name is unique per process and write,
/// so concurrent saves — even to the same destination — never scribble
/// over each other's staging file; the last rename wins. The temp file
/// is removed when either the write or the rename fails.
pub(crate) fn write_atomic(path: &Path, kind: &str, bytes: &[u8]) -> std::io::Result<()> {
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{kind}-{}-{seq}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

// ----- MonetDb + MeetIndex codecs -----

/// Path step encoding tags.
const STEP_ELEMENT: u8 = 0;
const STEP_ATTRIBUTE: u8 = 1;
const STEP_CDATA: u8 = 2;

// The SYMBOLS / PATHS payloads are length-prefixed replay encodings:
// they materialize at decode (interning), so they gain nothing from the
// aligned final-form treatment. They are written straight into the
// image and read straight off the mapped section.

/// SYMBOLS payload: interning order reproduces ids on replay.
fn encode_symbols(symbols: &SymbolTable, s: &mut ByteWriter) {
    s.put_u32(symbols.len() as u32);
    for (_, name) in symbols.iter() {
        s.put_str(name);
    }
}

/// PATHS payload: parents-before-children by interning order, so the
/// loader replays `intern_root`/`intern_child` and gets the same dense
/// ids back.
fn encode_paths(summary: &PathSummary, s: &mut ByteWriter) {
    s.put_u32(summary.len() as u32);
    for p in summary.iter() {
        s.put_u32(summary.parent(p).map_or(u32::MAX, |q| q.index() as u32));
        match summary.step(p) {
            PathStep::Element(sym) => {
                s.put_u8(STEP_ELEMENT);
                s.put_u32(sym.index() as u32);
            }
            PathStep::Attribute(sym) => {
                s.put_u8(STEP_ATTRIBUTE);
                s.put_u32(sym.index() as u32);
            }
            PathStep::Cdata => s.put_u8(STEP_CDATA),
        }
    }
}

fn decode_symbols(s: &mut ByteReader<'_>) -> Result<SymbolTable, SnapshotError> {
    let symbol_count = s.get_u32()? as usize;
    let mut symbols = SymbolTable::new();
    for _ in 0..symbol_count {
        symbols.intern(s.get_str()?);
    }
    if symbols.len() != symbol_count {
        return Err(SnapshotError::Corrupt {
            context: "duplicate symbols",
        });
    }
    Ok(symbols)
}

/// Replay interning; dense ids must come back unchanged.
fn decode_paths(
    s: &mut ByteReader<'_>,
    symbols: &SymbolTable,
) -> Result<PathSummary, SnapshotError> {
    let path_count = s.get_u32()? as usize;
    let mut summary = PathSummary::new();
    for i in 0..path_count {
        let parent = s.get_u32()?;
        let tag = s.get_u8()?;
        let step = match tag {
            STEP_ELEMENT | STEP_ATTRIBUTE => {
                let sym = s.get_u32()? as usize;
                if sym >= symbols.len() {
                    return Err(SnapshotError::Corrupt {
                        context: "path symbol out of range",
                    });
                }
                if tag == STEP_ELEMENT {
                    PathStep::Element(Symbol::from_index(sym))
                } else {
                    PathStep::Attribute(Symbol::from_index(sym))
                }
            }
            STEP_CDATA => PathStep::Cdata,
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "unknown path step tag",
                })
            }
        };
        let id = if parent == u32::MAX {
            summary.intern_root(step)
        } else {
            if parent as usize >= i {
                return Err(SnapshotError::Corrupt {
                    context: "path parent not before child",
                });
            }
            summary.intern_child(PathId::from_index(parent as usize), step)
        };
        if id.index() != i {
            return Err(SnapshotError::Corrupt {
                context: "non-canonical path table",
            });
        }
    }
    Ok(summary)
}

/// STRINGS payload: the entry count and the blob length, then the four
/// string columns as mapped views. What the `&str` accessors rely on is
/// checked once, in [`StringColumns::validated`].
fn decode_strings(
    v: &mut ByteReader<'_>,
    path_count: usize,
    n: usize,
) -> Result<StringColumns, SnapshotError> {
    let entries = v.get_u64()? as usize;
    let text_len = v.get_u64()? as usize;
    let rel_off: Col<u32> = v.get_col(path_count + 1)?;
    let owners: Col<Oid> = v.get_col(entries)?;
    let text_off: Col<u32> = v.get_col(entries.saturating_add(1))?;
    let text: Col<u8> = v.get_col(text_len)?;
    if !v.at_end() {
        return Err(SnapshotError::Corrupt {
            context: "strings section has trailing bytes",
        });
    }
    StringColumns::validated(rel_off, owners, text_off, text, n)
}

impl MonetDb {
    /// Serialize the store into the **zero-copy container**:
    /// replay-encoded SYMBOLS / PATHS payloads (those materialize at
    /// decode) plus final-form, 64-byte-aligned arrays for the dense
    /// columns, the string columns and the finished meet index —
    /// exactly the in-memory representation, so an open is a map +
    /// pointer fixup, not a rebuild.
    pub fn encode_snapshot(&self, writer: &mut SnapshotWriter) {
        encode_symbols(&self.symbols, writer.section(section::SYMBOLS));
        encode_paths(&self.summary, writer.section(section::PATHS));

        // COLUMNS: the node count, then `σ` and parent in final form —
        // the whole tree (oids are preorder positions, so sibling order
        // needs no column of its own).
        let n = self.sigma.len();
        let s = writer.section(section::COLUMNS);
        s.put_u64(n as u64);
        s.put_col::<PathId>(&self.sigma);
        s.put_col::<Oid>(&self.parent);

        // STRINGS: the four string columns in final form, behind the two
        // counts that size them.
        let (rel_off, owners, text_off, text) = self.strings.columns();
        let s = writer.section(section::STRINGS);
        s.put_u64(owners.len() as u64);
        s.put_u64(text.len() as u64);
        s.put_col::<u32>(rel_off);
        s.put_col::<Oid>(owners);
        s.put_col::<u32>(text_off);
        s.put_col::<u8>(text);

        // MEET_INDEX: the finished index, field for field — the stack
        // masks and the sparse table over block minima — then the CSR
        // postings. The index's `σ`/parent views are the COLUMNS arrays
        // above, not written again.
        let index = self.meet_index();
        let levels = index
            .block_table
            .len()
            .checked_div(index.num_blocks)
            .unwrap_or(0);
        let s = writer.section(section::MEET_INDEX);
        s.put_u64(n as u64);
        s.put_u64(index.num_blocks as u64);
        s.put_u64(levels as u64);
        s.put_u64(self.summary.len() as u64);
        s.put_col::<u32>(&index.stack_mask);
        s.put_col::<Oid>(&index.block_table);
        s.put_col::<u32>(&self.path_off);
        s.put_col::<Oid>(&self.path_data);
    }

    /// Reconstruct a store from the container: decode the small
    /// materialized sections (checksummed here, as are COLUMNS and
    /// STRINGS, which the validation passes read in full), reattach
    /// every large array as a zero-copy [`Col`] view, and seed the
    /// index cache. Shape invariants the accessors rely on are
    /// validated; the content checksum of MEET_INDEX follows the
    /// lazy-verify policy (see [`crate::mmap`]).
    pub fn decode_snapshot(snap: &MappedSnapshot) -> Result<MonetDb, SnapshotError> {
        // SYMBOLS / PATHS.
        let symbols = decode_symbols(&mut snap.section_verified(section::SYMBOLS)?)?;
        let summary = decode_paths(&mut snap.section_verified(section::PATHS)?, &symbols)?;
        let path_count = summary.len();

        // COLUMNS: zero-copy views, checksummed here — the two
        // vectorizable scans below, which re-validate the preorder/range
        // invariants every accessor indexes by, read every byte of it
        // anyway.
        let mut v = snap.section_verified(section::COLUMNS)?;
        let n = v.get_u64()? as usize;
        if n == 0 {
            return Err(SnapshotError::Corrupt {
                context: "empty instance (a loaded document has a root)",
            });
        }
        let sigma: Col<PathId> = v.get_col(n)?;
        let parent: Col<Oid> = v.get_col(n)?;
        if !v.at_end() {
            return Err(SnapshotError::Corrupt {
                context: "columns section has trailing bytes",
            });
        }
        if sigma.iter().any(|p| p.index() >= path_count) {
            return Err(SnapshotError::Corrupt {
                context: "sigma path out of range",
            });
        }
        if parent[0] != Oid::ROOT || (1..n).any(|i| parent[i].index() >= i) {
            return Err(SnapshotError::Corrupt {
                context: "parent column is not preorder",
            });
        }

        // STRINGS: zero-copy views too, but checksummed here — the one
        // validation pass below reads every byte of it anyway, and the
        // `&str` accessors rest on that pass.
        let mut v = snap.section_verified(section::STRINGS)?;
        let strings = decode_strings(&mut v, path_count, n)?;

        // MEET_INDEX: shape scalars, then straight pointer fixups.
        let mut v = snap.section(section::MEET_INDEX)?;
        let idx_n = v.get_u64()? as usize;
        let num_blocks = v.get_u64()? as usize;
        let levels = v.get_u64()? as usize;
        let idx_paths = v.get_u64()? as usize;
        if idx_n != n
            || num_blocks != n.div_ceil(BLOCK)
            || levels != usize::BITS as usize - num_blocks.leading_zeros() as usize
            || idx_paths != path_count
        {
            return Err(SnapshotError::Corrupt {
                context: "meet index shape mismatch",
            });
        }
        let stack_mask: Col<u32> = v.get_col(n)?;
        let block_table: Col<Oid> = v.get_col(levels * num_blocks)?;
        let path_off: Col<u32> = v.get_col(path_count + 1)?;
        if path_off.first() != Some(&0)
            || path_off.last().copied() != Some(n as u32)
            || path_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SnapshotError::Corrupt {
                context: "postings do not cover the instance",
            });
        }
        let path_data: Col<Oid> = v.get_col(n)?;
        if !v.at_end() {
            return Err(SnapshotError::Corrupt {
                context: "meet index section has trailing bytes",
            });
        }
        let index = MeetIndex {
            parent: parent.clone(),
            sigma: sigma.clone(),
            path_depth: MeetIndex::path_depths(&summary),
            stack_mask,
            block_table,
            num_blocks,
        };

        Ok(MonetDb {
            symbols,
            summary,
            sigma,
            parent,
            path_off,
            path_data,
            strings,
            meet_index: OnceLock::from(index),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap::{align64, VerifyMode};
    use ncq_xml::parse;

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

    fn writer(db: &MonetDb) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        db.encode_snapshot(&mut w);
        w
    }

    fn snapshot_bytes(db: &MonetDb) -> Vec<u8> {
        writer(db).into_bytes()
    }

    fn load(path: &Path) -> Result<MonetDb, SnapshotError> {
        MonetDb::decode_snapshot(&MappedSnapshot::open(path)?)
    }

    fn decode(bytes: Vec<u8>) -> Result<MonetDb, SnapshotError> {
        MonetDb::decode_snapshot(&MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Eager)?)
    }

    #[test]
    fn round_trip_preserves_every_relation_and_lookup() {
        let original = db();
        let loaded = decode(snapshot_bytes(&original)).unwrap();

        assert_eq!(loaded.node_count(), original.node_count());
        assert_eq!(loaded.summary().len(), original.summary().len());
        assert_eq!(loaded.dump_tree(), original.dump_tree());
        assert_eq!(loaded.dump_relations(), original.dump_relations());
        assert_eq!(loaded.stats(), original.stats());
        assert_eq!(loaded.depth_stats(), original.depth_stats());
        for o in original.iter_oids() {
            assert_eq!(loaded.sigma(o), original.sigma(o));
            assert_eq!(loaded.parent(o), original.parent(o));
        }
        // The meet index answers identically without being rebuilt.
        let (a, b) = (Oid::from_index(5), Oid::from_index(15));
        assert_eq!(
            loaded.meet_index().meet(a, b),
            original.meet_index().meet(a, b)
        );
        for p in original.summary().iter() {
            assert_eq!(loaded.oids_of_path(p), original.oids_of_path(p));
            assert!(loaded.edges_of(p).eq(original.edges_of(p)));
            assert!(loaded
                .strings_of(p)
                .iter()
                .eq(original.strings_of(p).iter()));
        }
    }

    #[test]
    fn bytes_are_deterministic_and_resave_stable() {
        let original = db();
        let bytes = snapshot_bytes(&original);
        assert_eq!(bytes, snapshot_bytes(&original));
        // A freshly loaded clone re-saves byte-identically too.
        let loaded = decode(bytes.clone()).unwrap();
        assert_eq!(snapshot_bytes(&loaded), bytes);
    }

    #[test]
    fn save_writes_the_current_version_and_load_refuses_any_other() {
        let dir = std::env::temp_dir().join("ncq-snapshot-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure1.ncq");
        let original = db();
        writer(&original).write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SNAPSHOT_VERSION
        );
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.dump_relations(), original.dump_relations());

        // The retired layouts and a future one are refused on the
        // header alone, through the file entry point.
        for found in [1u8, 2, 3, 4, 5, 6, 7, 99] {
            bytes[8] = found;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                load(&path),
                Err(SnapshotError::UnsupportedVersion { found: f, supported: SNAPSHOT_VERSION })
                    if f == found as u32
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_versions_are_told_to_re_save() {
        let older = SnapshotError::UnsupportedVersion {
            found: 1,
            supported: SNAPSHOT_VERSION,
        };
        assert!(older
            .to_string()
            .ends_with("re-save from the source XML with this build"));
        let newer = SnapshotError::UnsupportedVersion {
            found: 99,
            supported: SNAPSHOT_VERSION,
        };
        assert!(!newer.to_string().contains("re-save"));
    }

    #[test]
    fn failed_save_is_typed_io_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("ncq-snapshot-failed-save-test");
        std::fs::remove_dir_all(&dir).ok();
        // The destination is an existing directory: the rename fails.
        let dest = dir.join("figure1.ncq");
        std::fs::create_dir_all(&dest).unwrap();
        assert!(matches!(
            writer(&db()).write_to(&dest),
            Err(SnapshotError::Io(_))
        ));
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["figure1.ncq"], "temp file leaked: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_length_is_typed_not_a_panic() {
        let bytes = snapshot_bytes(&db());
        // Exhaustive prefix truncation: cheap at Figure 1 scale and
        // covers every section boundary by construction.
        for len in 0..bytes.len() {
            assert!(
                decode(bytes[..len].to_vec()).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let mut w = SnapshotWriter::new();
        w.section(section::SYMBOLS).put_u32(0);
        assert!(matches!(
            decode(w.into_bytes()),
            Err(SnapshotError::MissingSection {
                section: section::PATHS
            })
        ));
    }

    /// Rewrite section `id` in place — `edit` gets the payload bytes and
    /// the table's length field — then repair the section and table
    /// checksums so only the decoder sees the lie.
    fn forge_section(bytes: &mut [u8], id: u32, edit: impl FnOnce(&mut [u8], &mut u64)) {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 24 + 32 * count;
        let at = (0..count)
            .map(|i| 24 + 32 * i)
            .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id)
            .expect("section present");
        let start = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let mut len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        let padded = align64(len as usize);
        edit(&mut bytes[start..start + padded], &mut len);
        assert_eq!(align64(len as usize), padded, "forgery keeps the extent");
        bytes[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
        let sum = checksum64(&bytes[start..start + padded]);
        bytes[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        let table_sum = checksum64(&bytes[24..table_end]);
        bytes[16..24].copy_from_slice(&table_sum.to_le_bytes());
    }

    #[test]
    fn huge_declared_counts_fail_typed_without_allocating() {
        // A checksum-valid payload whose entry count claims billions of
        // strings (or overflows a byte length) must fail typed: the
        // columns are views sized against the section, never
        // allocations sized by the count.
        for lie in [u32::MAX as u64, u64::MAX, u64::MAX / 4] {
            let mut bytes = snapshot_bytes(&db());
            forge_section(&mut bytes, section::STRINGS, |payload, _| {
                payload[..8].copy_from_slice(&lie.to_le_bytes());
            });
            assert!(matches!(
                decode(bytes),
                Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn columns_with_trailing_bytes_are_corrupt() {
        // COLUMNS ends with the parent column; a layout-4 section under
        // a forged header reads as exactly this — `σ`, parent, then
        // more bytes.
        let mut bytes = snapshot_bytes(&db());
        forge_section(&mut bytes, section::COLUMNS, |_, len| *len += 4);
        assert!(matches!(
            decode(bytes),
            Err(SnapshotError::Corrupt {
                context: "columns section has trailing bytes"
            })
        ));
    }

    #[test]
    fn meet_index_with_trailing_bytes_is_corrupt() {
        // MEET_INDEX ends with the postings; an older section with more
        // per-node columns under a forged header can read as exactly
        // this — the same shape scalars, then more bytes than the
        // columns they size.
        let mut bytes = snapshot_bytes(&db());
        forge_section(&mut bytes, section::MEET_INDEX, |_, len| *len += 4);
        assert!(matches!(
            decode(bytes),
            Err(SnapshotError::Corrupt {
                context: "meet index section has trailing bytes"
            })
        ));
    }

    #[test]
    fn zeroed_stack_masks_answer_inside_the_instance_without_a_panic() {
        // MEET_INDEX is the deferred section: a lazy open never checks
        // its content, so wrong masks must give wrong answers at worst —
        // never an index past the range the probe was asked about. Four
        // blocks, so ranges within and across blocks are both probed.
        let original = MonetDb::from_document(
            &parse(&format!("<r>{}</r>", "<a><b>x</b><c>y</c></a>".repeat(25))).unwrap(),
        );
        let n = original.node_count();
        assert!(n > 3 * BLOCK, "{n}");
        let mut bytes = snapshot_bytes(&original);
        // Four u64 scalars, then the masks at the next 64-byte boundary.
        forge_section(&mut bytes, section::MEET_INDEX, |payload, _| {
            payload[64..64 + 4 * n].fill(0);
        });
        let loaded = MonetDb::decode_snapshot(
            &MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Lazy).unwrap(),
        )
        .unwrap();
        let idx = loaded.meet_index();
        assert!(idx.stack_mask.iter().all(|&m| m == 0), "the forgery took");
        for a in loaded.iter_oids() {
            for b in loaded.iter_oids() {
                assert!(idx.lca(a, b).index() < n, "lca({a}, {b})");
            }
            assert!(idx.subtree_range(a).end <= n, "subtree({a})");
        }
    }
}
