//! The byte codec, the zero-copy snapshot container, and the
//! shared-or-mapped column machinery.
//!
//! One writer ([`ByteWriter`]) and one bounds-checked reader
//! ([`ByteReader`]) encode and decode every byte format: the container
//! below, the forest manifest ([`crate::manifest`]) and the engine wire
//! (`ncq-core::remote`). Hostile bytes read as a typed
//! [`SnapshotError`], never a panic.
//!
//! # Why
//!
//! A loader that materializes every section and rebuilds derived
//! state — preorder intervals, RMQ tables — in
//! linear passes (the retired v1/v2 layouts) is 5–8× faster than
//! parse+build, but a replica cold start or a `SNAPSHOT LOAD` hot swap
//! still pays O(n) before the first query. The container stores every
//! array in its **final in-memory form**, 64-byte aligned, so opening
//! a snapshot is `mmap` + header/table checksum + pointer fixup: the
//! engine serves straight out of the page cache, one physical copy
//! shared across processes, and the first byte of a multi-gigabyte
//! corpus is query-able in microseconds.
//!
//! # Layout
//!
//! ```text
//! offset  0  magic   b"NCQSNAP\0"                      8 bytes
//!         8  layout version = 9 (u32 LE)               4 bytes
//!        12  section count  (u32 LE)                   4 bytes
//!        16  table checksum64 over the table bytes     8 bytes
//!        24  section table: per section               32 bytes each
//!              id (u32) · reserved (u32, zero) ·
//!              offset (u64) · len (u64) · checksum64 (u64)
//!         …  section payloads, each starting at a 64-byte-aligned
//!            offset, zero-padded to the next 64-byte boundary; the
//!            payloads are packed back to back (offset k+1 = padded
//!            end of k) and the file ends at the last padded end.
//! ```
//!
//! Scalars are little-endian; array payloads are raw native-endian
//! element runs (the format is only defined for little-endian hosts,
//! which every supported target is). Each section checksum covers its
//! **padded** extent, so together with the table checksum every byte
//! of the file after the header is covered by exactly one checksum.
//!
//! # Verification policy
//!
//! The header, section table, and the file length against every
//! advertised section extent are always validated at open — a
//! truncated or table-corrupt file fails typed before any payload
//! pointer is formed (no SIGBUS-prone blind dereference). Payload
//! checksums are **lazy** by default: sections the decoder reads in
//! full anyway — to materialize them (symbols, paths) or to validate
//! what its accessors assume (the `σ`/parent columns, the string
//! columns, the full-text vocabulary) — are
//! verified when decoded, while the large final-form arrays served as
//! mapped views that no open-time pass reads (the meet index)
//! **defer** their checksum so first touch stays at page-fault cost.
//! Nothing verifies a deferred section later on its own: it is
//! checked only by [`VerifyMode::Eager`] (what the
//! forest catalog opens with, next to the manifest's whole-file
//! checksum) or an explicit [`MappedSnapshot::verify_all`]. Under lazy
//! verification a bit flip in a deferred array can only produce wrong
//! answers or a bounds-check panic — all views are ordinary checked
//! slices, never undefined behaviour.
//!
//! A file open maps the file on unix targets and reads it into an
//! owned, 64-byte-aligned heap copy elsewhere — the same views over the
//! same layout, minus the shared page cache. In-memory bytes
//! ([`MappedSnapshot::from_owned_bytes`]) always take the owned arena,
//! which is how a unix build exercises it.

use crate::snapshot::{checksum64, write_atomic, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Round up to the next 64-byte boundary.
#[inline]
pub const fn align64(n: usize) -> usize {
    (n + 63) & !63
}

/// Section payload alignment (one cache line; also the alignment of
/// every array start inside a section).
pub const SECTION_ALIGN: usize = 64;

/// Human-readable section name for error context, so a
/// `ChecksumMismatch` names what rotted instead of a bare id.
pub fn section_name(id: u32) -> &'static str {
    match id {
        crate::snapshot::section::SYMBOLS => "symbols",
        crate::snapshot::section::PATHS => "paths",
        crate::snapshot::section::COLUMNS => "columns",
        crate::snapshot::section::STRINGS => "strings",
        crate::snapshot::section::MEET_INDEX => "meet-index",
        crate::snapshot::section::FULLTEXT => "fulltext",
        _ => "unknown-section",
    }
}

/// When payload checksums are verified. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Header + table at open; payload sections on first decode of the
    /// materialized sections only (the default).
    Lazy,
    /// Every section checksum at open (reads every page once).
    Eager,
}

// ----- plain-old-data element types -----

/// Element types that may be viewed directly over snapshot bytes.
///
/// # Safety
///
/// Implementors guarantee: no padding bytes, every bit pattern is a
/// valid value, size is a multiple of alignment, and alignment divides
/// [`SECTION_ALIGN`]. `repr(transparent)` newtypes over such a type and
/// `repr(C)` structs of such fields qualify.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: primitive integers are padding-free and bit-pattern-complete.
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u32 {}
// SAFETY: `Oid` is `repr(transparent)` over `u32` (asserted below).
unsafe impl Pod for crate::oid::Oid {}
// SAFETY: `PathId` is `repr(transparent)` over `u32` (asserted below).
unsafe impl Pod for crate::path::PathId {}

// Compile-time layout asserts: the zero-copy views cast raw snapshot
// bytes to these element types, so any layout drift must fail the
// build, not corrupt a mapped read.
const _: () = {
    assert!(std::mem::size_of::<crate::oid::Oid>() == 4);
    assert!(std::mem::align_of::<crate::oid::Oid>() == 4);
    assert!(std::mem::size_of::<crate::path::PathId>() == 4);
    assert!(std::mem::align_of::<crate::path::PathId>() == 4);
};

/// View a byte slice as `&[T]`; `None` on misalignment or a length
/// that is not a whole number of elements.
fn cast_slice<T: Pod>(bytes: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    if size == 0 || !bytes.len().is_multiple_of(size) {
        return None;
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return None;
    }
    // SAFETY: alignment and length were just checked; `T: Pod` makes
    // every bit pattern a valid `T`, and the returned lifetime borrows
    // the input bytes.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

/// View a `Pod` slice as raw bytes (the writer's array emitter).
fn as_bytes<T: Pod>(vals: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so every byte of the slice is
    // initialized; the lifetime borrows the input.
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals)) }
}

// ----- the arena: one mapped or owned allocation per snapshot -----

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// The backing memory of one open snapshot: either a read-only file
/// mapping (zero-copy, page cache shared across processes) or an
/// owned 64-byte-aligned heap copy (non-unix targets and the
/// from-bytes entry points). Column views ([`Col`]) hold an `Arc` to the
/// arena, so the mapping lives exactly as long as any view over it.
pub struct SnapshotArena {
    ptr: NonNull<u8>,
    len: usize,
    backing: ArenaBacking,
}

enum ArenaBacking {
    Owned {
        layout: std::alloc::Layout,
    },
    #[cfg(unix)]
    Mapped,
}

// SAFETY: the arena is immutable after construction (PROT_READ mapping
// or a never-mutated heap copy); sharing &-references across threads
// is sound.
unsafe impl Send for SnapshotArena {}
// SAFETY: as above.
unsafe impl Sync for SnapshotArena {}

impl SnapshotArena {
    /// Copy `bytes` into a fresh 64-byte-aligned allocation. A `Vec`
    /// would only guarantee byte alignment — not enough to view u32
    /// arrays in place.
    pub fn from_bytes(bytes: &[u8]) -> SnapshotArena {
        if bytes.is_empty() {
            return SnapshotArena {
                ptr: NonNull::dangling(),
                len: 0,
                backing: ArenaBacking::Owned {
                    layout: std::alloc::Layout::from_size_align(0, SECTION_ALIGN)
                        .expect("static layout"),
                },
            };
        }
        let layout = std::alloc::Layout::from_size_align(bytes.len(), SECTION_ALIGN)
            .expect("snapshot length fits a layout");
        // SAFETY: layout has non-zero size (checked above).
        let raw = unsafe { std::alloc::alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        // SAFETY: the fresh allocation holds at least `bytes.len()`
        // bytes and cannot overlap the source.
        unsafe {
            ptr.as_ptr()
                .copy_from_nonoverlapping(bytes.as_ptr(), bytes.len())
        };
        SnapshotArena {
            ptr,
            len: bytes.len(),
            backing: ArenaBacking::Owned { layout },
        }
    }

    /// Map `len` bytes of an open file read-only. `len` comes from a
    /// just-taken `stat`, and every section extent is validated
    /// against it before any pointer into the map is formed — a file
    /// shorter than its section table fails typed instead of faulting.
    /// (A truncation racing *after* the map is established is outside
    /// the integrity model, as with any mmap consumer.)
    #[cfg(unix)]
    pub fn map_file(file: &std::fs::File, len: usize) -> Result<SnapshotArena, SnapshotError> {
        use std::os::fd::AsRawFd;
        if len == 0 {
            // mmap rejects zero-length maps; an empty file is not a
            // snapshot anyway — surface the same typed error the
            // header parser would.
            return Err(SnapshotError::Truncated {
                context: "magic",
                offset: 0,
            });
        }
        // SAFETY: a fresh anonymous-address read-only private mapping
        // of a file descriptor we hold open; failure is checked below.
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if raw as isize == -1 {
            return Err(SnapshotError::Io(std::io::Error::last_os_error()));
        }
        let ptr = NonNull::new(raw.cast::<u8>()).ok_or_else(|| {
            SnapshotError::Io(std::io::Error::other("mmap returned a null mapping"))
        })?;
        Ok(SnapshotArena {
            ptr,
            len,
            backing: ArenaBacking::Mapped,
        })
    }

    /// The full backing bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` covers `len` initialized, immutable bytes for
        // the arena's lifetime (dangling only when len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Whether this arena is a live file mapping (vs an owned copy).
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            ArenaBacking::Owned { .. } => false,
            #[cfg(unix)]
            ArenaBacking::Mapped => true,
        }
    }
}

impl Drop for SnapshotArena {
    fn drop(&mut self) {
        match &self.backing {
            ArenaBacking::Owned { layout } => {
                if layout.size() > 0 {
                    // SAFETY: allocated with exactly this layout in
                    // `from_bytes`.
                    unsafe { std::alloc::dealloc(self.ptr.as_ptr(), *layout) };
                }
            }
            #[cfg(unix)]
            ArenaBacking::Mapped => {
                // SAFETY: mapped with exactly this base and length in
                // `map_file`; no view outlives the arena (they hold
                // the Arc keeping us alive).
                unsafe { sys::munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }
}

impl std::fmt::Debug for SnapshotArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotArena")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// ----- Col: a column that is either owned or a view into the arena -----

/// A read-only typed column: either an owned slice (built databases)
/// or a zero-copy view into a [`SnapshotArena`] (snapshot loads, mapped
/// or heap-backed). Dereferences to `&[T]` with no per-access
/// branching — the pointer/length pair is resolved at construction,
/// and the backing enum only keeps the memory alive. Both backings are
/// reference-counted, so a clone is another view of the same memory,
/// never a copy.
pub struct Col<T: Pod> {
    ptr: *const T,
    len: usize,
    backing: ColBacking<T>,
}

enum ColBacking<T> {
    Owned(Arc<[T]>),
    Arena(Arc<SnapshotArena>),
}

// SAFETY: the data behind `ptr` is immutable and outlives the Col via
// its backing (owned box or arena Arc); `T: Pod` is Send + Sync.
unsafe impl<T: Pod> Send for Col<T> {}
// SAFETY: as above.
unsafe impl<T: Pod> Sync for Col<T> {}

impl<T: Pod> Col<T> {
    /// A zero-copy view of `len` elements at `byte_offset` into the
    /// arena. Fails typed on misalignment or out-of-bounds — never a
    /// wild pointer.
    pub(crate) fn mapped(
        arena: &Arc<SnapshotArena>,
        byte_offset: usize,
        len: usize,
        context: &'static str,
    ) -> Result<Col<T>, SnapshotError> {
        let need = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(SnapshotError::Corrupt { context })?;
        let end = byte_offset
            .checked_add(need)
            .ok_or(SnapshotError::Corrupt { context })?;
        if end > arena.bytes().len() {
            return Err(SnapshotError::Truncated {
                context,
                offset: byte_offset as u64,
            });
        }
        let bytes = &arena.bytes()[byte_offset..end];
        let slice: &[T] = cast_slice(bytes).ok_or(SnapshotError::Corrupt { context })?;
        Ok(Col {
            ptr: if slice.is_empty() {
                NonNull::dangling().as_ptr()
            } else {
                slice.as_ptr()
            },
            len: slice.len(),
            backing: ColBacking::Arena(Arc::clone(arena)),
        })
    }

    /// Whether this column borrows a mapped arena (vs owning its data).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            ColBacking::Owned(_) => false,
            ColBacking::Arena(a) => a.is_mapped(),
        }
    }
}

impl<T: Pod> std::ops::Deref for Col<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were derived from a valid slice at
        // construction and the backing keeps that memory alive.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Col<T> {
        let owned: Arc<[T]> = v.into();
        Col {
            ptr: owned.as_ptr(),
            len: owned.len(),
            backing: ColBacking::Owned(owned),
        }
    }
}

impl<T: Pod> Default for Col<T> {
    fn default() -> Col<T> {
        Vec::new().into()
    }
}

impl<T: Pod> Clone for Col<T> {
    fn clone(&self) -> Col<T> {
        Col {
            ptr: self.ptr,
            len: self.len,
            backing: match &self.backing {
                ColBacking::Owned(a) => ColBacking::Owned(Arc::clone(a)),
                ColBacking::Arena(a) => ColBacking::Arena(Arc::clone(a)),
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Pod + PartialEq> PartialEq for Col<T> {
    fn eq(&self, other: &Col<T>) -> bool {
        **self == **other
    }
}

impl<T: Pod + Eq> Eq for Col<T> {}

// ----- the byte codec -----

/// The one writer: little-endian scalars, raw bytes, length-prefixed
/// strings and `u32` runs, and typed arrays at the next 64-byte
/// boundary with no length prefix ([`ByteWriter::put_col`]), which a
/// [`ByteReader`] on a snapshot section reads back as zero-copy views.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// Whether this is a snapshot image, which grows into a mapping of
    /// its own (see `reserve`).
    image: bool,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append bytes verbatim, with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string longer than u32::MAX bytes"));
        self.put_bytes(s.as_bytes());
    }

    /// Append a length-prefixed run of `u32`s, little-endian.
    pub fn put_u32_run(&mut self, run: impl ExactSizeIterator<Item = u32>) {
        self.put_u32(u32::try_from(run.len()).expect("run longer than u32::MAX values"));
        self.reserve(4 * run.len());
        for v in run {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a typed array at the next 64-byte boundary (zero padding
    /// in between). The reader recomputes the same position from the
    /// element count, so arrays need no length prefix.
    pub fn put_col<T: Pod>(&mut self, vals: &[T]) {
        let aligned = align64(self.buf.len());
        self.reserve(aligned - self.buf.len() + std::mem::size_of_val(vals));
        self.buf.resize(aligned, 0);
        self.buf.extend_from_slice(as_bytes(vals));
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Make room for `additional` bytes. A snapshot image that is big
    /// enough to be a mapping of its own asks for more than 32 MiB
    /// ([`ncq_xml::tree::own_mapping`]). A save frees the image right
    /// after writing it, and glibc takes the size of a freed mapping of
    /// up to 32 MiB as its new mmap threshold: from then on everything
    /// smaller comes from the heap and twice that much freed heap is
    /// kept. A 31 MiB image in a 31.9 MiB buffer put 47 MB on the ingest
    /// peak of the next build in the same process, and a 16 MiB image in
    /// a 16 MiB buffer lifted `deep_sweep`'s set-up peak from 47–51 to
    /// 61–64 MB; past 32 MiB the buffer is unmapped without a trace, and
    /// untouched pages are never resident. Manifest and wire buffers
    /// grow as a `Vec` does: one that reserved 32 MiB would put a fresh
    /// mapping on every remote call.
    fn reserve(&mut self, additional: usize) {
        let len = self.buf.len();
        let wanted = if self.image {
            ncq_xml::tree::own_mapping::<u8>(len + additional)
        } else {
            len + additional
        };
        self.buf.reserve(wanted - len);
    }
}

/// The one reader, over what a [`ByteWriter`] wrote. Running out of
/// bytes is [`SnapshotError::Truncated`] naming what was being read —
/// for a [`MappedSnapshot`] section, the section — and where; no read
/// can panic or reach past its run.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
    /// The arena `bytes` lies in and the offset it starts at, for a
    /// snapshot section.
    arena: Option<(&'a Arc<SnapshotArena>, usize)>,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`; errors name `context`.
    pub fn new(bytes: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            context,
            arena: None,
        }
    }

    /// Name what is read from here on.
    pub fn reading(&mut self, context: &'static str) {
        self.context = context;
    }

    fn offset(&self, pos: usize) -> u64 {
        (self.arena.map_or(0, |(_, base)| base) + pos) as u64
    }

    /// Read `n` bytes verbatim.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                context: self.context,
                offset: self.offset(self.pos),
            })?;
        let bytes = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0; N];
        out.copy_from_slice(self.get_bytes(N)?);
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.get_array::<1>()?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.get_array()?))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.get_array()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.get_u32()? as usize;
        std::str::from_utf8(self.get_bytes(len)?).map_err(|_| SnapshotError::Corrupt {
            context: self.context,
        })
    }

    /// Read a length-prefixed run of `u32`s.
    pub fn get_u32_run(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_u32()? as usize;
        let bytes = self.get_bytes(len.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Read `len` elements of a typed array at the next 64-byte
    /// boundary as a zero-copy column. Only a snapshot section has the
    /// aligned arena this needs; any other reader refuses typed.
    pub fn get_col<T: Pod>(&mut self, len: usize) -> Result<Col<T>, SnapshotError> {
        let Some((arena, base)) = self.arena else {
            return Err(SnapshotError::Unsupported {
                context: "typed columns are read off a snapshot arena",
            });
        };
        let aligned = align64(self.pos);
        let end = len
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|n| aligned.checked_add(n))
            .ok_or(SnapshotError::Corrupt {
                context: self.context,
            })?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated {
                context: self.context,
                offset: self.offset(aligned),
            });
        }
        let col = Col::mapped(arena, base + aligned, len, self.context)?;
        self.pos = end;
        Ok(col)
    }

    /// Bytes left after the cursor. Decoders clamp count-derived
    /// pre-allocations with it, so a lying count fails typed when the
    /// bytes run out instead of aborting on a huge `with_capacity`.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor consumed every byte.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ----- the container -----

/// Accumulates sections, then emits the container. Section order is
/// the writer's call order and every codec keeps it fixed, so snapshot
/// bytes are a pure function of the database. Payloads are appended to
/// the one buffer that becomes the image, so a save holds the snapshot
/// once.
pub struct SnapshotWriter {
    /// Every payload, each starting on a 64-byte boundary.
    payloads: ByteWriter,
    /// `(id, start, len)` into `payloads`; the last `len` is set by
    /// `seal`.
    sections: Vec<(u32, usize, usize)>,
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter {
            payloads: ByteWriter {
                buf: Vec::new(),
                image: true,
            },
            sections: Vec::new(),
        }
    }
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Close the open section: record its length, zero-pad to the
    /// next 64-byte boundary.
    fn seal(&mut self) {
        let buf = &mut self.payloads.buf;
        if let Some((_, start, len)) = self.sections.last_mut() {
            *len = buf.len() - *start;
        }
        buf.resize(align64(buf.len()), 0);
    }

    /// Start (or panic on a duplicate of) section `id`; its payload is
    /// what is written to the returned writer until the next section.
    pub fn section(&mut self, id: u32) -> &mut ByteWriter {
        assert!(
            self.sections.iter().all(|&(existing, ..)| existing != id),
            "duplicate snapshot section {id}"
        );
        self.seal();
        self.sections.push((id, self.payloads.buf.len(), 0));
        &mut self.payloads
    }

    /// Render the framed snapshot: header, checksummed table,
    /// aligned zero-padded payloads.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.seal();
        let mut out = self.payloads.buf;
        let count = self.sections.len();
        let payload_start = align64(24 + 32 * count);
        let mut table = ByteWriter::new();
        for &(id, start, len) in &self.sections {
            table.put_u32(id);
            table.put_u32(0); // reserved
            table.put_u64((payload_start + start) as u64);
            table.put_u64(len as u64);
            table.put_u64(checksum64(&out[start..start + align64(len)]));
        }
        let mut head = ByteWriter::new();
        head.put_bytes(&SNAPSHOT_MAGIC);
        head.put_u32(SNAPSHOT_VERSION);
        head.put_u32(count as u32);
        head.put_u64(checksum64(&table.buf));
        head.put_bytes(&table.buf);
        head.buf.resize(payload_start, 0);
        // Make room in front: 64-byte-aligned positions stay aligned.
        let payload_len = out.len();
        out.resize(payload_start + payload_len, 0);
        out.copy_within(..payload_len, payload_start);
        out[..payload_start].copy_from_slice(&head.buf);
        out
    }

    /// Write the snapshot to `path` atomically (temp file + rename,
    /// unique per process and write), so readers never observe a
    /// half-written snapshot.
    pub fn write_to(self, path: &Path) -> Result<(), SnapshotError> {
        Ok(write_atomic(path, "snapshot", &self.into_bytes())?)
    }
}

struct SectionEntry {
    id: u32,
    start: usize,
    len: usize,
    padded: usize,
    checksum: u64,
    verified: AtomicBool,
}

/// An open snapshot: the arena plus the validated section table.
/// Section payloads are served as [`ByteReader`]s whose typed array
/// reads produce zero-copy [`Col`] views.
pub struct MappedSnapshot {
    arena: Arc<SnapshotArena>,
    table: Vec<SectionEntry>,
}

impl MappedSnapshot {
    /// Open a snapshot file with [`VerifyMode::Lazy`]: mmap (an owned
    /// copy off unix), then header + table + extent validation.
    pub fn open(path: &Path) -> Result<MappedSnapshot, SnapshotError> {
        MappedSnapshot::open_with(path, VerifyMode::Lazy)
    }

    /// [`MappedSnapshot::open`] with an explicit verification mode.
    pub fn open_with(path: &Path, mode: VerifyMode) -> Result<MappedSnapshot, SnapshotError> {
        #[cfg(unix)]
        let arena = {
            let file = std::fs::File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| SnapshotError::Io(std::io::Error::other("file too large")))?;
            SnapshotArena::map_file(&file, len)?
        };
        #[cfg(not(unix))]
        let arena = SnapshotArena::from_bytes(&std::fs::read(path)?);
        MappedSnapshot::from_arena(Arc::new(arena), mode)
    }

    /// Open from in-memory bytes (always the owned arena — the
    /// from-bytes entry points and the non-unix file open).
    pub fn from_owned_bytes(
        bytes: Vec<u8>,
        mode: VerifyMode,
    ) -> Result<MappedSnapshot, SnapshotError> {
        MappedSnapshot::from_arena(Arc::new(SnapshotArena::from_bytes(&bytes)), mode)
    }

    fn from_arena(
        arena: Arc<SnapshotArena>,
        mode: VerifyMode,
    ) -> Result<MappedSnapshot, SnapshotError> {
        let data = arena.bytes();
        let mut header = ByteReader::new(data, "magic");
        if header.get_bytes(8)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        header.reading("header");
        let version = header.get_u32()?;
        let count = header.get_u32()? as usize;
        let table_sum = header.get_u64()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        header.reading("section table");
        let table_len = count.checked_mul(32).ok_or(SnapshotError::Corrupt {
            context: "section count overflows",
        })?;
        let table_bytes = header.get_bytes(table_len)?;
        if checksum64(table_bytes) != table_sum {
            return Err(SnapshotError::ChecksumMismatch {
                section: "section table",
                offset: 24,
            });
        }
        // The table checksum passed, so the entries are what the
        // writer emitted — but length validation against the *actual*
        // file stays mandatory: the stat'd length is the only defense
        // between a truncated file and a faulting dereference.
        let mut entries = ByteReader::new(table_bytes, "section table");
        let mut table = Vec::with_capacity(count);
        let mut expected = align64(24 + table_len);
        for _ in 0..count {
            let id = entries.get_u32()?;
            let reserved = entries.get_u32()?;
            let offset = entries.get_u64()?;
            let len = entries.get_u64()?;
            let checksum = entries.get_u64()?;
            if reserved != 0 {
                return Err(SnapshotError::Corrupt {
                    context: "reserved table bytes are not zero",
                });
            }
            let start = usize::try_from(offset).map_err(|_| SnapshotError::Corrupt {
                context: "section offset overflows",
            })?;
            let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
                context: "section length overflows",
            })?;
            // Sections are packed deterministically: each starts exactly
            // at the padded end of its predecessor. A table that lies
            // about an offset or length (to alias sections or reach
            // past the file) fails here, typed.
            if start != expected {
                return Err(SnapshotError::Corrupt {
                    context: "section offsets are not packed and aligned",
                });
            }
            let padded = align64(len);
            let end = start.checked_add(padded).ok_or(SnapshotError::Corrupt {
                context: "section range overflows",
            })?;
            if end > data.len() {
                return Err(SnapshotError::Truncated {
                    context: section_name(id),
                    offset: start as u64,
                });
            }
            if table.iter().any(|e: &SectionEntry| e.id == id) {
                return Err(SnapshotError::Corrupt {
                    context: "duplicate section id",
                });
            }
            table.push(SectionEntry {
                id,
                start,
                len,
                padded,
                checksum,
                verified: AtomicBool::new(false),
            });
            expected = end;
        }
        if expected != data.len() {
            return Err(SnapshotError::Corrupt {
                context: "trailing bytes after the last section",
            });
        }
        let snapshot = MappedSnapshot { arena, table };
        if mode == VerifyMode::Eager {
            snapshot.verify_all()?;
        }
        Ok(snapshot)
    }

    /// The whole snapshot file as bytes (mapped or owned). The forest
    /// catalog hashes this against the manifest's recorded whole-file
    /// checksum so a swapped-but-internally-valid file still fails
    /// typed.
    pub fn bytes(&self) -> &[u8] {
        self.arena.bytes()
    }

    /// Whether this snapshot serves out of a live file mapping.
    pub fn is_mapped(&self) -> bool {
        self.arena.is_mapped()
    }

    fn entry(&self, id: u32) -> Result<&SectionEntry, SnapshotError> {
        self.table
            .iter()
            .find(|e| e.id == id)
            .ok_or(SnapshotError::MissingSection { section: id })
    }

    fn verify_entry(&self, e: &SectionEntry) -> Result<(), SnapshotError> {
        if e.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        let extent = &self.arena.bytes()[e.start..e.start + e.padded];
        if checksum64(extent) != e.checksum {
            return Err(SnapshotError::ChecksumMismatch {
                section: section_name(e.id),
                offset: e.start as u64,
            });
        }
        e.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// Reader over a section payload **without** checksumming it —
    /// the deferred-verification path for sections served as mapped
    /// views.
    pub fn section(&self, id: u32) -> Result<ByteReader<'_>, SnapshotError> {
        let e = self.entry(id)?;
        Ok(self.reader(e))
    }

    /// Reader over a section payload after verifying its checksum
    /// (once; subsequent calls are free) — the path for sections the
    /// decoder materializes.
    pub fn section_verified(&self, id: u32) -> Result<ByteReader<'_>, SnapshotError> {
        let e = self.entry(id)?;
        self.verify_entry(e)?;
        Ok(self.reader(e))
    }

    /// Every read is bounds-checked against the table-declared payload
    /// length, itself validated against the real file length at open,
    /// so a length-lie surfaces as a typed error naming the section.
    fn reader(&self, e: &SectionEntry) -> ByteReader<'_> {
        ByteReader {
            bytes: &self.arena.bytes()[e.start..e.start + e.len],
            pos: 0,
            context: section_name(e.id),
            arena: Some((&self.arena, e.start)),
        }
    }

    /// Verify every section checksum (the eager mode; also what the
    /// forest catalog runs in place of the manifest's whole-file
    /// checksum).
    pub fn verify_all(&self) -> Result<(), SnapshotError> {
        for e in &self.table {
            self.verify_entry(e)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field(
                "sections",
                &self.table.iter().map(|e| e.id).collect::<Vec<_>>(),
            )
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::section;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let s = w.section(section::COLUMNS);
        s.put_u64(3);
        s.put_col::<u32>(&[7, 8, 9]);
        s.put_col::<u32>(&[1 << 30, 2]);
        let s = w.section(section::STRINGS);
        s.put_u64(42);
        w.into_bytes()
    }

    #[test]
    fn round_trip_scalars_and_cols() {
        let bytes = sample();
        let snap = MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Eager).unwrap();
        assert!(!snap.is_mapped());
        let mut v = snap.section_verified(section::COLUMNS).unwrap();
        assert_eq!(v.get_u64().unwrap(), 3);
        let a: Col<u32> = v.get_col(3).unwrap();
        assert_eq!(&*a, &[7, 8, 9]);
        let b: Col<u32> = v.get_col(2).unwrap();
        assert_eq!(&*b, &[1 << 30, 2]);
        assert!(v.at_end());
        let mut s = snap.section(section::STRINGS).unwrap();
        assert_eq!(s.get_u64().unwrap(), 42);
        assert!(matches!(
            snap.section(section::FULLTEXT),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn writer_is_deterministic_and_aligned() {
        let a = sample();
        let b = sample();
        assert_eq!(a, b);
        assert_eq!(a.len() % SECTION_ALIGN, 0);
        // Every section offset in the table is 64-byte aligned.
        let count = u32::from_le_bytes(a[12..16].try_into().unwrap()) as usize;
        for i in 0..count {
            let at = 24 + 32 * i;
            let offset = u64::from_le_bytes(a[at + 8..at + 16].try_into().unwrap());
            assert_eq!(offset % SECTION_ALIGN as u64, 0);
        }
    }

    #[test]
    fn image_past_128_kib_is_a_mapping_of_its_own() {
        let mut w = SnapshotWriter::new();
        let s = w.section(section::COLUMNS);
        s.put_col::<u32>(&[1; 5]);
        s.put_bytes(&[3; 20_000]);
        // Well inside the heap: the size it needs, not a mapping.
        let small = w.into_bytes().capacity();
        assert!(small < 128 << 10, "{small}");

        let mut w = SnapshotWriter::new();
        let s = w.section(section::COLUMNS);
        s.put_col::<u32>(&[1; 5]);
        // Far more than twice what the buffer holds by then.
        s.put_col::<u8>(&vec![2; 200 << 10]);
        let capacity = w.into_bytes().capacity();
        if cfg!(all(target_env = "gnu", target_pointer_width = "64")) {
            // Past the 32 MiB a freed mapping may have and still move
            // glibc's mmap threshold.
            assert!(capacity > 32 << 20, "{capacity}");
        }

        // A manifest or wire buffer of the same size grows as a `Vec`
        // does: a mapping of its own on every remote call would cost a
        // fresh `mmap` each time.
        let mut plain = ByteWriter::new();
        plain.put_u32_run((0..50 << 10).map(|v| v as u32));
        plain.put_bytes(&vec![2; 200 << 10]);
        let capacity = plain.into_bytes().capacity();
        assert!(capacity < 1 << 20, "{capacity}");
    }

    #[test]
    fn readers_off_an_arena_refuse_columns_and_name_what_ran_out() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_str("ab");
        w.put_u32_run([1, 2].into_iter());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "sample");
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "ab");
        assert_eq!(r.get_u32_run().unwrap(), [1, 2]);
        assert!(r.at_end());
        assert!(matches!(
            r.get_u8(),
            Err(SnapshotError::Truncated {
                context: "sample",
                offset: 22
            })
        ));
        assert!(matches!(
            ByteReader::new(&bytes, "sample").get_col::<u32>(1),
            Err(SnapshotError::Unsupported { .. })
        ));
        // A length prefix past the end is a truncation, not a panic.
        let mut lying = ByteWriter::new();
        lying.put_u32(u32::MAX);
        let lying = lying.into_bytes();
        assert!(matches!(
            ByteReader::new(&lying, "sample").get_u32_run(),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn header_and_table_corruption_is_typed() {
        let bytes = sample();
        // Bad magic.
        let mut c = bytes.clone();
        c[0] ^= 0xFF;
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy),
            Err(SnapshotError::BadMagic)
        ));
        // Wrong version.
        let mut c = bytes.clone();
        c[8] = 99;
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
        // Table bit flip fails the table checksum even in lazy mode.
        let mut c = bytes.clone();
        c[24] ^= 0x01;
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy),
            Err(SnapshotError::ChecksumMismatch {
                section: "section table",
                ..
            })
        ));
        // Payload flip: lazy open succeeds, eager open fails typed,
        // and the lazily opened snapshot fails on verified access.
        let mut c = bytes.clone();
        let last = c.len() - 1;
        c[last] ^= 0x01;
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c.clone(), VerifyMode::Eager),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let lazy = MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy).unwrap();
        assert!(lazy.section_verified(section::STRINGS).is_err());
    }

    #[test]
    fn truncation_at_every_length_is_typed_not_a_fault() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let r = MappedSnapshot::from_owned_bytes(bytes[..len].to_vec(), VerifyMode::Lazy);
            assert!(r.is_err(), "prefix of {len} bytes opened");
        }
    }

    #[test]
    fn misaligned_or_lying_table_is_typed() {
        let bytes = sample();
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 24 + 32 * count;
        // Rewrite the first section's offset to a misaligned value and
        // repair the table checksum so only the layout check can catch
        // the lie.
        let mut c = bytes.clone();
        let bad = (align64(table_end) + 8) as u64;
        c[24 + 8..24 + 16].copy_from_slice(&bad.to_le_bytes());
        let sum = checksum64(&c[24..table_end]);
        c[16..24].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Inflate a section length past the file end (with a repaired
        // table checksum): the stat-vs-table validation must fail
        // typed before any payload pointer is formed.
        let mut c = bytes.clone();
        let huge = (bytes.len() as u64) * 4;
        c[24 + 16..24 + 24].copy_from_slice(&huge.to_le_bytes());
        let sum = checksum64(&c[24..table_end]);
        c[16..24].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            MappedSnapshot::from_owned_bytes(c, VerifyMode::Lazy),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[cfg(unix)]
    #[test]
    fn file_mapping_round_trips_and_reports_mapped() {
        let dir = std::env::temp_dir().join("ncq-mmap-unit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ncq");
        std::fs::write(&path, sample()).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let len = file.metadata().unwrap().len() as usize;
        let arena = SnapshotArena::map_file(&file, len).unwrap();
        assert!(arena.is_mapped());
        assert_eq!(arena.bytes(), sample().as_slice());
        drop(file); // the mapping outlives the descriptor
        let snap = MappedSnapshot::from_arena(Arc::new(arena), VerifyMode::Eager).unwrap();
        assert!(snap.is_mapped());
        let mut v = snap.section_verified(section::COLUMNS).unwrap();
        assert_eq!(v.get_u64().unwrap(), 3);
        let col: Col<u32> = v.get_col(3).unwrap();
        assert!(col.is_mapped());
        drop(snap); // the Col's arena Arc keeps the mapping alive
        assert_eq!(&*col, &[7, 8, 9]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn col_from_vec_and_clone_behave_like_slices() {
        let col: Col<u32> = vec![1, 2, 3].into();
        assert_eq!(&*col, &[1, 2, 3]);
        assert!(!col.is_mapped());
        let copy = col.clone();
        assert_eq!(copy, col);
        let empty: Col<u32> = Col::default();
        assert!(empty.is_empty());
        assert_eq!(format!("{col:?}"), "[1, 2, 3]");
    }
}
