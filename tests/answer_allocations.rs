//! An answer set is flat: its heap blocks do not grow with its result
//! or witness count. Building one from meets, cloning it (a result-cache
//! hit), decoding it off the remote wire and appending it to a forest
//! fan-out each allocate as many blocks for one answer as for a
//! thousand.
//!
//! Its own test binary, because it counts through a
//! `#[global_allocator]`, and one test only, so no other test thread
//! allocates while it counts.

use nearest_concept::core::remote::{decode_response, encode_response};
use nearest_concept::core::{AnswerSet, EngineResponse, MeetOptions};
use nearest_concept::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter
// is a statistic and publishes nothing.
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

/// What `work` returns, and how many allocations it made.
fn counted<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Allocations of each step for a corpus of `records` records, each one
/// answer of `MEET Ben 1999` with two witnesses.
fn allocations(records: usize) -> [(&'static str, usize); 4] {
    let record = "<article><author>Ben Bit</author><year>1999</year></article>";
    let db = Database::from_xml_str(&format!("<bib>{}</bib>", record.repeat(records))).unwrap();
    let inputs = [db.search("Ben"), db.search("1999")];
    let meets = db.meet_hits(&inputs, &MeetOptions::default());
    let (set, from_meets) = counted(|| AnswerSet::from_meets(db.store(), meets));
    assert_eq!(set.len(), records);
    assert!(set
        .iter()
        .all(|a| a.tag == "article" && a.witnesses.len() == 2));

    let (copy, clone) = counted(|| set.clone());
    let bytes = encode_response(&EngineResponse::Answers(set));
    let (decoded, decode) = counted(|| decode_response(&bytes).unwrap());
    assert_eq!(decoded, EngineResponse::Answers(copy.clone()));

    let mut forest = AnswerSet::default();
    let ((), append) = counted(|| forest.append("dblp", copy));
    assert_eq!(forest.len(), records);
    assert!(forest.iter().all(|a| a.corpus == Some("dblp")));
    [
        ("from_meets", from_meets),
        ("clone", clone),
        ("remote-wire decode", decode),
        ("forest append", append),
    ]
}

#[test]
fn answer_sets_allocate_per_set_not_per_answer() {
    let (one, thousand) = (allocations(1), allocations(1_000));
    for ((step, one), (_, thousand)) in one.iter().zip(&thousand) {
        println!("{step}: {one} allocations for 1 answer, {thousand} for 1,000");
        assert_eq!(one, thousand, "{step} allocates per answer");
    }
    // A clone is one block per column: labels, result rows, witness
    // rows and the string arena.
    assert_eq!(one[1].1, 4);
}
