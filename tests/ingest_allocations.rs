//! Ingest allocates per symbol, per path and per distinct token, never
//! per node, per string or per token occurrence: the syntax tree is
//! three vectors, the parser borrows names from the source and decodes
//! through reused buffers, and the index build boxes a key only on a
//! token's first occurrence.
//!
//! Its own test binary, because it counts through a
//! `#[global_allocator]`, and one test only, so no other test thread
//! allocates while it counts.

use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::xml::{write_document, WriteOptions};
use nearest_concept::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` returns, and how many allocations it made.
fn counted<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn ingest_does_not_allocate_per_node() {
    let corpus = DblpCorpus::generate(&DblpConfig::scaled(8_000));
    let xml = write_document(&corpus.document, WriteOptions::default());
    drop(corpus);

    let (doc, parse) = counted(|| nearest_concept::xml::parse(&xml).expect("parse"));
    let nodes = doc.len();
    assert!(nodes >= 100_000, "corpus too small: {nodes} nodes");
    let (db, build) = counted(|| Database::from_document(&doc));
    let before = FREES.load(Ordering::Relaxed);
    drop(doc);
    let frees = FREES.load(Ordering::Relaxed) - before;
    println!(
        "{nodes} nodes: parse {parse} allocations, from_document {build}, drop(doc) {frees} frees"
    );

    assert_eq!(db.store().node_count(), nodes);
    assert!(
        parse < nodes / 10,
        "parse made {parse} allocations for {nodes} nodes"
    );
    assert!(
        build < nodes / 10,
        "from_document made {build} allocations for {nodes} nodes"
    );
    assert!(frees < 256, "drop(doc) freed {frees} blocks");
}
