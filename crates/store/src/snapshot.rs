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
//! [`MonetDb::save`] writes the loaded columns and the finished index
//! in their in-memory representation; [`MonetDb::load`] maps the file
//! and reattaches them — no parse, no DFS, no re-tokenization. Higher
//! layers stack their own sections on the same container:
//! `ncq-fulltext` persists the inverted index, and `ncq-core` ties both
//! together behind `Database::save_snapshot` /
//! `Database::open_snapshot`.
//!
//! # Layout
//!
//! There is one container: 64-byte-aligned sections holding the arrays
//! in final form, served straight out of an `mmap` with lazy
//! per-section checksums. The container (header, section table, writer,
//! reader, column views) lives in [`crate::mmap`]; this module holds
//! what every section codec shares — the error type, the section ids,
//! [`checksum64`], the little-endian [`SectionBuf`]/[`SectionCursor`]
//! used by the small replay-decoded sections (and by the forest
//! manifest and the remote wire codec) — plus the store's own section
//! codecs.
//!
//! Every corruption mode surfaces as a typed [`SnapshotError`] — never
//! a panic and never silently wrong data. Writers emit sections in a
//! fixed order with sorted interior maps, so **snapshot bytes are a
//! pure function of the database**: saving twice yields byte-identical
//! files (the CI `snapshot-compat` job `cmp`s them).
//!
//! # Versioning policy
//!
//! `SNAPSHOT_VERSION` names the layout, not the software: any change to
//! section payload encodings, section semantics or the header must bump
//! it. A build reads exactly the version it writes; any other version —
//! the retired v1/v2 materializing layouts and the v3–v7 payloads
//! included — is refused at open with
//! [`SnapshotError::UnsupportedVersion`]. There is no upgrade tool: an
//! older file is replaced by rebuilding from the source XML and saving
//! again. The pinned fixture `tests/golden/snapshot_v8.bin` makes a
//! forgotten bump fail loudly in CI, and the retired
//! `snapshot_v1.bin` … `snapshot_v7.bin` fixtures pin the refusal.
//! Adding a **new optional section id** is backward compatible and
//! needs no bump — readers ignore unknown ids.

use crate::index::{MeetIndex, BLOCK};
use crate::mmap::{Col, MappedSnapshot, SectionView, SnapshotWriterV3};
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
/// [`crate::mmap::SnapshotWriterV3`]). Bump on any payload or header
/// change.
pub const SNAPSHOT_VERSION: u32 = 8;

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
    /// The full-text inverted index (written by `ncq-fulltext`). (Id 8
    /// was the shard `PARTITION` map, which layout-8 files saved through
    /// `ncq-shard` may still carry; it stays unassigned, and readers
    /// skip it like any unknown id.)
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

/// Append-only little-endian payload buffer for one section.
pub struct SectionBuf<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> SectionBuf<'a> {
    /// A writer over a caller-owned buffer — codecs outside the
    /// snapshot container (e.g. the forest manifest) reuse the
    /// little-endian appenders without framing a section table.
    pub fn over(buf: &'a mut Vec<u8>) -> SectionBuf<'a> {
        SectionBuf { buf }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `u32` column as one contiguous LE run —
    /// the zero-copy-friendly encoding the bulk readers decode with
    /// `chunks_exact`.
    pub fn put_u32_col(&mut self, col: impl ExactSizeIterator<Item = u32>) {
        self.put_u32(u32::try_from(col.len()).expect("column too long for snapshot"));
        self.buf.reserve(4 * col.len());
        for v in col {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Sequential little-endian reader over one section payload. All reads
/// are bounds-checked: payload underruns surface as
/// [`SnapshotError::Corrupt`] (the checksum already passed, so running
/// out of bytes means the encoder and decoder disagree — exactly what
/// the version pin exists to catch).
pub struct SectionCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionCursor<'a> {
    /// A cursor over a raw buffer — codecs outside the snapshot
    /// container (e.g. the forest manifest) reuse the bounds-checked
    /// little-endian readers on their own payloads.
    pub fn new(buf: &'a [u8]) -> SectionCursor<'a> {
        SectionCursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Corrupt { context })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, SnapshotError> {
        let len = self.get_u32(context)? as usize;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Read a length-prefixed `u32` column.
    pub fn get_u32_col(&mut self, context: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_u32(context)? as usize;
        let bytes = self.take(4 * len, context)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Whether the cursor consumed the whole payload.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Unconsumed payload bytes. Decoders clamp length-prefix-derived
    /// pre-allocations with this (`count.min(remaining / min_elem)`):
    /// a checksum-valid but inconsistent count must surface as a typed
    /// [`SnapshotError::Corrupt`] when the payload runs out, never as
    /// an allocator abort from a multi-gigabyte `with_capacity`.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ----- MonetDb + MeetIndex codecs -----

/// Path step encoding tags.
const STEP_ELEMENT: u8 = 0;
const STEP_ATTRIBUTE: u8 = 1;
const STEP_CDATA: u8 = 2;

// The SYMBOLS / PATHS payloads are length-prefixed replay encodings:
// they materialize at decode (interning), so they gain nothing from the
// aligned final-form treatment.

/// SYMBOLS payload: interning order reproduces ids on replay.
fn encode_symbols_into(symbols: &SymbolTable, s: &mut SectionBuf<'_>) {
    s.put_u32(symbols.len() as u32);
    for (_, name) in symbols.iter() {
        s.put_str(name);
    }
}

/// PATHS payload: parents-before-children by interning order, so the
/// loader replays `intern_root`/`intern_child` and gets the same dense
/// ids back.
fn encode_paths_into(summary: &PathSummary, s: &mut SectionBuf<'_>) {
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

fn decode_symbols(s: &mut SectionCursor<'_>) -> Result<SymbolTable, SnapshotError> {
    let symbol_count = s.get_u32("symbol count")? as usize;
    let mut symbols = SymbolTable::new();
    for _ in 0..symbol_count {
        symbols.intern(s.get_str("symbol")?);
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
    s: &mut SectionCursor<'_>,
    symbols: &SymbolTable,
) -> Result<PathSummary, SnapshotError> {
    let path_count = s.get_u32("path count")? as usize;
    let mut summary = PathSummary::new();
    for i in 0..path_count {
        let parent = s.get_u32("path parent")?;
        let tag = s.get_u8("path step tag")?;
        let step = match tag {
            STEP_ELEMENT | STEP_ATTRIBUTE => {
                let sym = s.get_u32("path symbol")? as usize;
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
    v: &mut SectionView<'_>,
    path_count: usize,
    n: usize,
) -> Result<StringColumns, SnapshotError> {
    let entries = v.get_u64()? as usize;
    let text_len = v.get_u64()? as usize;
    let rel_off: Col<u32> = v.take_col(path_count + 1)?;
    let owners: Col<Oid> = v.take_col(entries)?;
    let text_off: Col<u32> = v.take_col(entries.saturating_add(1))?;
    let text: Col<u8> = v.take_col(text_len)?;
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
    pub fn encode_snapshot(&self, writer: &mut SnapshotWriterV3) {
        let mut buf = Vec::new();
        encode_symbols_into(&self.symbols, &mut SectionBuf::over(&mut buf));
        writer.section(section::SYMBOLS).put_raw(&buf);

        buf.clear();
        encode_paths_into(&self.summary, &mut SectionBuf::over(&mut buf));
        writer.section(section::PATHS).put_raw(&buf);

        // COLUMNS: the node count, then `σ` and parent in final form —
        // the whole tree (oids are preorder positions, so sibling order
        // needs no column of its own).
        let n = self.sigma.len();
        let mut s = writer.section(section::COLUMNS);
        s.put_u64(n as u64);
        s.put_col::<PathId>(&self.sigma);
        s.put_col::<Oid>(&self.parent);

        // STRINGS: the four string columns in final form, behind the two
        // counts that size them.
        let (rel_off, owners, text_off, text) = self.strings.columns();
        let mut s = writer.section(section::STRINGS);
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
        let mut s = writer.section(section::MEET_INDEX);
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
        let view = snap.section_verified(section::SYMBOLS)?;
        let symbols = decode_symbols(&mut SectionCursor::new(view.payload()))?;
        let view = snap.section_verified(section::PATHS)?;
        let summary = decode_paths(&mut SectionCursor::new(view.payload()), &symbols)?;
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
        let sigma: Col<PathId> = v.take_col(n)?;
        let parent: Col<Oid> = v.take_col(n)?;
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
        let stack_mask: Col<u32> = v.take_col(n)?;
        let block_table: Col<Oid> = v.take_col(levels * num_blocks)?;
        let path_off: Col<u32> = v.take_col(path_count + 1)?;
        if path_off.first() != Some(&0)
            || path_off.last().copied() != Some(n as u32)
            || path_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SnapshotError::Corrupt {
                context: "postings do not cover the instance",
            });
        }
        let path_data: Col<Oid> = v.take_col(n)?;
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

    /// Save the store (plus index) as a standalone snapshot file.
    /// Higher layers that stack more sections go through
    /// [`MonetDb::encode_snapshot`] instead.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut writer = SnapshotWriterV3::new();
        self.encode_snapshot(&mut writer);
        writer.write_to(path)
    }

    /// Load a store from a snapshot file: map it and reattach the
    /// columns (no parse, no DFS, no O(n log n) preprocess — the index
    /// arrives in final form).
    pub fn load(path: &Path) -> Result<MonetDb, SnapshotError> {
        MonetDb::decode_snapshot(&MappedSnapshot::open(path)?)
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

    fn snapshot_bytes(db: &MonetDb) -> Vec<u8> {
        let mut w = SnapshotWriterV3::new();
        db.encode_snapshot(&mut w);
        w.into_bytes()
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
        original.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SNAPSHOT_VERSION
        );
        let loaded = MonetDb::load(&path).unwrap();
        assert_eq!(loaded.dump_relations(), original.dump_relations());

        // The retired layouts and a future one are refused on the
        // header alone, through the file entry point.
        for found in [1u8, 2, 3, 4, 5, 6, 7, 99] {
            bytes[8] = found;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                MonetDb::load(&path),
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
        assert!(matches!(db().save(&dest), Err(SnapshotError::Io(_))));
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
        let mut w = SnapshotWriterV3::new();
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
