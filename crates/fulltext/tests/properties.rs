//! Randomized tests: the inverted index agrees with naive scans.
//!
//! Seeded loops over a deterministic PRNG stand in for proptest (the
//! offline build cannot fetch it); failures print the seed.

use ncq_fulltext::{search, HitSet, InvertedIndex};
use ncq_store::MonetDb;
use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORDS: [&str; 9] = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "alpha beta",
    "Beta Gamma",
    "x1",
    "x2",
    "1999",
];

/// Random flat-ish documents with text drawn from a small vocabulary so
/// that collisions (the interesting case) are frequent.
fn random_doc(rng: &mut StdRng) -> Document {
    let mut doc = Document::new("root");
    let mut sections: Vec<ncq_xml::NodeId> = vec![doc.root()];
    let items = rng.random_range(1usize..40);
    for _ in 0..items {
        let text = WORDS[rng.random_range(0..WORDS.len())];
        match rng.random_range(0u8..3) {
            0 => {
                let s = doc.add_element(doc.root(), "section");
                sections.push(s);
            }
            1 => {
                let parent = *sections.last().unwrap();
                let item = doc.add_element(parent, "item");
                doc.add_text(item, text);
            }
            _ => {
                let parent = *sections.last().unwrap();
                let item = doc.add_element(parent, "item");
                doc.set_attribute(item, "note", text);
            }
        }
    }
    doc
}

/// Naive reference: scan every string association for a predicate.
fn naive_hits(db: &MonetDb, pred: impl Fn(&str) -> bool) -> HitSet {
    let mut hits = HitSet::new();
    for p in db.string_paths() {
        for (owner, text) in db.strings_of(p).iter() {
            if pred(text) {
                hits.insert(p, owner);
            }
        }
    }
    hits
}

const CASES: u64 = 128;

/// Word hits from the index equal a naive token scan.
#[test]
fn word_hits_match_naive_scan() {
    const TERMS: [&str; 5] = ["alpha", "beta", "gamma", "1999", "absent"];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let idx = InvertedIndex::build(&db);
        let term = TERMS[rng.random_range(0..TERMS.len())];
        let from_index = search::word_hits(&idx, term);
        let reference = naive_hits(&db, |s| {
            ncq_fulltext::tokenize::tokens(s).any(|t| t == term)
        });
        assert_eq!(from_index, reference, "seed {seed} term {term}");
    }
}

/// Substring hits equal a naive case-insensitive contains scan.
#[test]
fn substring_hits_match_naive_scan() {
    const NEEDLES: [&str; 5] = ["alp", "ta", "BETA", "99", "zzz"];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1 << 32 | seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let needle = NEEDLES[rng.random_range(0..NEEDLES.len())];
        let from_scan = search::substring_hits(&db, needle);
        let reference = naive_hits(&db, |s| s.to_lowercase().contains(&needle.to_lowercase()));
        assert_eq!(from_scan, reference, "seed {seed} needle {needle}");
    }
}

/// Phrase hits are a subset of each word's hits, and each phrase hit
/// really contains the normalized phrase.
#[test]
fn phrase_hits_are_sound() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2 << 32 | seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let idx = InvertedIndex::build(&db);
        let phrase = "alpha beta";
        let hits = search::phrase_hits(&db, &idx, phrase);
        let alpha = search::word_hits(&idx, "alpha");
        let beta = search::word_hits(&idx, "beta");
        for (p, o) in hits.iter() {
            assert!(alpha.contains(p, o), "seed {seed}");
            assert!(beta.contains(p, o), "seed {seed}");
            let text = db.string_value(p, o).unwrap();
            let norm: Vec<String> = ncq_fulltext::tokenize::tokens(text).collect();
            assert!(
                norm.join(" ").contains("alpha beta"),
                "seed {seed} {text:?}"
            );
        }
    }
}

/// The index posting count equals the number of (association, token)
/// incidences with per-association dedup.
#[test]
fn posting_count_is_consistent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3 << 32 | seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let idx = InvertedIndex::build(&db);
        let mut expected = 0usize;
        for p in db.string_paths() {
            for (_, text) in db.strings_of(p).iter() {
                let mut toks: Vec<String> = ncq_fulltext::tokenize::tokens(text).collect();
                toks.sort();
                toks.dedup();
                expected += toks.len();
            }
        }
        assert_eq!(idx.posting_count(), expected, "seed {seed}");
    }
}

/// The galloping posting intersection equals a naive set intersection,
/// for every word pair of the vocabulary.
#[test]
fn galloping_intersection_matches_naive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4 << 32 | seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let idx = InvertedIndex::build(&db);
        for a in ["alpha", "beta", "gamma", "1999"] {
            for b in ["alpha", "beta", "x1", "absent"] {
                let la = idx.postings(a);
                let lb = idx.postings(b);
                let fast = ncq_fulltext::intersect(la, lb);
                let slow: Vec<_> = la.iter().filter(|p| lb.contains(p)).copied().collect();
                assert_eq!(fast, slow, "seed {seed} {a} ∩ {b}");
            }
        }
    }
}
