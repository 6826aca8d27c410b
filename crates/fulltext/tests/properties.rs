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

/// The naive definition of a token, one `char` at a time: a maximal run
/// of alphanumerics, each lowered by `char::to_lowercase`.
fn reference_tokens(text: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    for c in text.chars() {
        if c.is_alphanumeric() {
            out.last_mut().unwrap().extend(c.to_lowercase());
        } else {
            out.push(String::new());
        }
    }
    out.retain(|t| !t.is_empty());
    out
}

/// Strings over ASCII, Latin-1, Greek (with final-sigma positions),
/// Turkish dotted/dotless i, digits of three scripts and separators.
fn mixed_script_string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 40] = [
        'a', 'B', 'z', 'Q', '0', '7', ' ', '-', ',', '.', '\'', '_', 'é', 'É', 'ß', 'Ü', 'ñ', '¿',
        '×', 'Σ', 'σ', 'ς', 'Ο', 'Δ', 'ό', 'Ά', 'İ', 'I', 'ı', 'i', '٣', '७', '９', 'Ⅻ', '½', '€',
        '\u{307}', '\u{a0}', '中', '\n',
    ];
    let len = rng.random_range(0usize..24);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// `tokens()` is the naive definition, and so is every fold of a term.
#[test]
fn tokens_match_the_charwise_reference() {
    for seed in 0..CASES * 8 {
        let mut rng = StdRng::seed_from_u64(7 << 32 | seed);
        let s = mixed_script_string(&mut rng);
        let toks: Vec<String> = ncq_fulltext::tokenize::tokens(&s).collect();
        assert_eq!(toks, reference_tokens(&s), "seed {seed}: {s:?}");
        for t in &toks {
            assert_eq!(&ncq_fulltext::tokenize::fold(t), t, "seed {seed}: {s:?}");
        }
    }
}

/// `InvertedIndex::build` is the index of the reference tokens: the same
/// vocabulary, and for each token the same postings in the same order.
#[test]
fn built_index_matches_the_reference_index() {
    use std::collections::BTreeMap;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8 << 32 | seed);
        let mut doc = Document::new("root");
        for _ in 0..rng.random_range(1usize..30) {
            let item = doc.add_element(doc.root(), ["item", "note"][rng.random_range(0..2)]);
            doc.add_text(item, mixed_script_string(&mut rng));
            if rng.random_bool() {
                doc.set_attribute(item, "k", mixed_script_string(&mut rng));
            }
        }
        let db = MonetDb::from_document(&doc);
        let mut expected: BTreeMap<String, Vec<(ncq_store::PathId, ncq_store::Oid)>> =
            BTreeMap::new();
        for path in db.string_paths() {
            for (owner, text) in db.strings_of(path).iter() {
                for token in reference_tokens(text) {
                    let list = expected.entry(token).or_default();
                    if list.last() != Some(&(path, owner)) {
                        list.push((path, owner));
                    }
                }
            }
        }
        let idx = InvertedIndex::build(&db);
        let vocabulary: Vec<&str> = idx.vocabulary().collect();
        let reference: Vec<&str> = expected.keys().map(String::as_str).collect();
        assert_eq!(vocabulary, reference, "seed {seed}");
        for (token, list) in &expected {
            let built: Vec<_> = idx
                .postings(token)
                .iter()
                .map(|p| (p.path, p.owner))
                .collect();
            assert_eq!(&built, list, "seed {seed}: {token:?}");
        }
        assert_eq!(
            idx.posting_count(),
            expected.values().map(Vec::len).sum::<usize>(),
            "seed {seed}"
        );
    }
}
