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

/// A random substring of a random string of `db`: one string by
/// association order, one char range of it — so needles span words,
/// separators and fold-sensitive characters as often as the strings do.
fn random_substring(rng: &mut StdRng, db: &MonetDb) -> String {
    let strings: Vec<&str> = db
        .string_paths()
        .flat_map(|p| db.strings_of(p).iter().map(|(_, s)| s))
        .collect();
    if strings.is_empty() {
        return String::new();
    }
    let chars: Vec<char> = strings[rng.random_range(0..strings.len())]
        .chars()
        .collect();
    let start = rng.random_range(0..chars.len() + 1);
    let end = rng.random_range(start..chars.len() + 1);
    chars[start..end].iter().collect()
}

/// The scan oracle of the `contains` predicate.
fn scan(db: &MonetDb, needle: &str) -> HitSet {
    search::predicate_hits(db, |s| ncq_fulltext::tokenize::contains_fold(s, needle))
}

/// Substring hits through the vocabulary equal the scan, for random
/// substrings of random strings — in the two-word vocabulary corpus and
/// in mixed-script strings.
#[test]
fn substring_hits_match_the_scan_on_random_substrings() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1 << 32 | seed);
        let db = if seed % 2 == 0 {
            MonetDb::from_document(&random_doc(&mut rng))
        } else {
            MonetDb::from_document(&mixed_script_doc(&mut rng))
        };
        let idx = InvertedIndex::build(&db);
        for _ in 0..16 {
            let needle = random_substring(&mut rng, &db);
            assert_eq!(
                search::substring_hits(&db, &idx, &needle),
                scan(&db, &needle),
                "seed {seed} needle {needle:?}"
            );
        }
    }
}

/// Needles the random substrings rarely produce: separators only, the
/// empty needle, needles across separators, and the folds that change
/// length or split a token (`İ` → `i` + U+0307, which the tokenizer
/// treats as a separator; `Σ` → `σ` where the text has `ς`; `ß`, which
/// does not fold to `ss`; KELVIN SIGN, which folds to ASCII `k`).
#[test]
fn substring_hits_match_the_scan_on_edge_needles() {
    let texts = [
        "İstanbul straße",
        "i\u{307}stanbul STRASSE",
        "Η ΟΔΟΣ μου, η οδός",
        "ΠΑΡΟΔΟΣΗ",
        "\u{212A}elvin kelvin KELVIN",
        "a-b c,d  e__f",
        "pp. 115-132, 1999",
        "",
    ];
    let mut doc = Document::new("root");
    for (i, text) in texts.iter().enumerate() {
        let item = doc.add_element(doc.root(), "item");
        doc.add_text(item, text);
        doc.set_attribute(item, "k", texts[(i + 3) % texts.len()]);
    }
    let db = MonetDb::from_document(&doc);
    let idx = InvertedIndex::build(&db);
    let needles = [
        "",
        " ",
        "-",
        ", ",
        "  ",
        "__",
        ".",
        "\u{307}",
        "İ",
        "i\u{307}",
        "i",
        "İSTANBUL",
        "i\u{307}s",
        "\u{307}s",
        "STANBUL STR",
        "straße",
        "STRASSE",
        "ss",
        "ß",
        "ΟΔΟΣ",
        "οδος",
        "οδοσ",
        "ς",
        "Σ",
        "σ μ",
        "\u{212A}",
        "k",
        "KELVIN",
        "\u{212A}ELVIN K",
        "b c",
        "a-b",
        "c,d  e",
        "e__f",
        "5-13",
        "32, 19",
        "1999",
    ];
    for needle in needles {
        assert_eq!(
            search::substring_hits(&db, &idx, needle),
            scan(&db, needle),
            "needle {needle:?}"
        );
    }
}

/// Every Listing-2 needle of the benchmark's DBLP stream — the key
/// tail `<conf minus its first letter><yy>` (`cde99` of
/// `conf/icde99`), which no token equals — over a corpus shaped like
/// its quick scale: 48 conferences × 48 years, three papers an edition.
/// `substring_hits` and the `term_hits` a `contains` resolves through
/// both equal the scan. The oracle scans once per conference (every hit
/// of `<tail><yy>` contains `<tail>`) and filters that per year.
#[test]
fn listing2_needles_match_the_scan_on_a_dblp_corpus() {
    let mut rng = StdRng::seed_from_u64(0x15);
    let mut conferences: Vec<String> = ["ICDE", "VLDB", "SIGMOD", "EDBT"]
        .map(String::from)
        .to_vec();
    while conferences.len() < 48 {
        let name: String = (0..5)
            .map(|_| (b'A' + rng.random_range(0..26u8)) as char)
            .collect();
        if !conferences.contains(&name) {
            conferences.push(name);
        }
    }
    let corpus = ncq_datagen::DblpCorpus::generate(&ncq_datagen::DblpConfig {
        start_year: 1952,
        end_year: 1999,
        conferences: conferences.clone(),
        papers_per_edition: 3,
        journal_articles_per_year: 6,
        ..ncq_datagen::DblpConfig::default()
    });
    let db = MonetDb::from_document(&corpus.document);
    let idx = InvertedIndex::build(&db);
    let (mut needles, mut empty) = (0, 0);
    for conf in &conferences {
        let tail = &conf.to_lowercase()[1..];
        let with_tail = scan(&db, tail);
        for year in 1952..=1999u16 {
            let needle = format!("{tail}{}", year % 100);
            let mut expected = with_tail.clone();
            expected.retain(|p, o| {
                ncq_fulltext::tokenize::contains_fold(db.string_value(p, o).unwrap(), &needle)
            });
            assert!(!idx.contains(&needle), "{needle} is a whole token");
            assert_eq!(
                search::substring_hits(&db, &idx, &needle),
                expected,
                "{needle}"
            );
            assert_eq!(search::term_hits(&db, &idx, &needle), expected, "{needle}");
            needles += 1;
            empty += usize::from(expected.is_empty());
        }
    }
    assert_eq!(needles, 48 * 48);
    // Every edition's key holds its needle; only the skipped ICDE 1985
    // has none.
    assert_eq!(empty, 1);
}

/// Phrase hits are a subset of each word's hits, and each phrase hit
/// holds the phrase's tokens adjacently, in order.
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
                norm.windows(2).any(|w| w == ["alpha", "beta"]),
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

/// The run-by-run posting intersection equals a naive set
/// intersection, for every word pair of the vocabulary.
#[test]
fn galloping_intersection_matches_naive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4 << 32 | seed);
        let db = MonetDb::from_document(&random_doc(&mut rng));
        let idx = InvertedIndex::build(&db);
        for a in ["alpha", "beta", "gamma", "1999"] {
            for b in ["alpha", "beta", "x1", "absent"] {
                let (la, lb) = (idx.postings(a), idx.postings(b));
                let fast = ncq_fulltext::intersect(la, lb);
                let slow: HitSet = la.iter().filter(|p| lb.iter().any(|q| q == *p)).collect();
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

/// Items with mixed-script text and, for some, a mixed-script
/// attribute.
fn mixed_script_doc(rng: &mut StdRng) -> Document {
    let mut doc = Document::new("root");
    for _ in 0..rng.random_range(1usize..30) {
        let item = doc.add_element(doc.root(), ["item", "note"][rng.random_range(0..2)]);
        doc.add_text(item, mixed_script_string(rng));
        if rng.random_bool() {
            doc.set_attribute(item, "k", mixed_script_string(rng));
        }
    }
    doc
}

/// `InvertedIndex::build` is the index of the reference tokens: the same
/// vocabulary, and for each token the same postings in the same order.
#[test]
fn built_index_matches_the_reference_index() {
    use std::collections::BTreeMap;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8 << 32 | seed);
        let db = MonetDb::from_document(&mixed_script_doc(&mut rng));
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
            let built: Vec<_> = idx.postings(token).iter().collect();
            assert_eq!(&built, list, "seed {seed}: {token:?}");
        }
        assert_eq!(
            idx.posting_count(),
            expected.values().map(Vec::len).sum::<usize>(),
            "seed {seed}"
        );
    }
}
