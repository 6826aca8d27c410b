//! Opening a snapshot allocates per path and per symbol, never per
//! string: the string relations are views into the mapped file.
//!
//! Its own test binary, because it counts through a
//! `#[global_allocator]`, and one test only, so no other test thread
//! allocates while it counts.

use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn open_snapshot_does_not_allocate_per_string() {
    let corpus = DblpCorpus::generate(&DblpConfig::scaled(8_000));
    let built = Database::from_document(&corpus.document);
    let strings = built.store().stats().string_associations;
    assert!(strings >= 50_000, "corpus too small: {strings} strings");
    let dir = std::env::temp_dir().join("ncq-open-allocations");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("dblp.ncq");
    built.save_snapshot(&path).expect("save");
    drop(built);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let opened = Database::open_snapshot(&path).expect("open");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    std::fs::remove_file(&path).ok();

    assert_eq!(opened.store().stats().string_associations, strings);
    assert!(
        allocations < strings / 10,
        "open_snapshot made {allocations} allocations for {strings} strings"
    );
}
