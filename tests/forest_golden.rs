//! The forest acceptance suite: a 3-corpus catalog (dblp, multimedia,
//! deep) serves MEET/SQL/SEARCH byte-identically to per-corpus
//! `Database` runs, keeps a stable cross-corpus document order on
//! fan-out, and cold-starts end to end from a manifest file — with
//! corruption (dangling paths, checksum drift) failing typed.

use nearest_concept::core::{AnswerSet, Catalog, CatalogError, ForestBackend, MeetBackend};
use nearest_concept::query::{eval::evaluate, Query};
use nearest_concept::server::{Request, Response, Server, ServerConfig, ALL_CORPORA};
use nearest_concept::store::manifest::{Manifest, ManifestEntry};
use nearest_concept::{open_forest, run_query, Database, QueryOptions, QueryOutput};
use std::path::PathBuf;
use std::sync::Arc;

/// `MEET terms` on corpus `name` of `forest`: the Listing-2 query it
/// abbreviates, routed like a session's `USE name`.
fn meet_on(forest: &ForestBackend, name: &str, terms: &[&str]) -> AnswerSet {
    let opts = QueryOptions {
        default_corpus: Some(name.to_owned()),
        ..QueryOptions::default()
    };
    match evaluate(forest, &Query::meet_terms(terms, None, None), &opts) {
        Ok(QueryOutput::Answers(answers)) => answers,
        other => panic!("{name}: MEET {terms:?} answered {other:?}"),
    }
}

/// The deep fork forest of the PR 4 bench: `pairs` heads, two
/// depth-`depth` chains each, text leaves `s` / `t`.
fn deep_xml(depth: usize, pairs: usize) -> String {
    let mut xml = String::from("<root>");
    for _ in 0..pairs {
        xml.push_str("<h>");
        for _ in 0..depth {
            xml.push_str("<x>");
        }
        xml.push_str("<a>s</a>");
        for _ in 0..depth {
            xml.push_str("</x>");
        }
        for _ in 0..depth {
            xml.push_str("<y>");
        }
        xml.push_str("<b>t</b>");
        for _ in 0..depth {
            xml.push_str("</y>");
        }
        xml.push_str("</h>");
    }
    xml.push_str("</root>");
    xml
}

fn dblp() -> Database {
    let corpus =
        nearest_concept::datagen::DblpCorpus::generate(&nearest_concept::datagen::DblpConfig {
            papers_per_edition: 6,
            journal_articles_per_year: 2,
            ..nearest_concept::datagen::DblpConfig::default()
        });
    Database::from_document(&corpus.document)
}

fn multimedia() -> Database {
    let corpus = nearest_concept::datagen::MultimediaCorpus::generate(
        &nearest_concept::datagen::MultimediaConfig {
            noise_items: 40,
            ..nearest_concept::datagen::MultimediaConfig::default()
        },
    );
    Database::from_document(&corpus.document)
}

fn deep() -> Database {
    Database::from_xml_str(&deep_xml(24, 30)).unwrap()
}

/// Per-corpus probe queries: (corpus, meet terms, a SQL query, a
/// search term). Chosen so every corpus exercises meets, the dialect
/// and plain search against its own vocabulary.
fn probes() -> Vec<(&'static str, [&'static str; 2], String, &'static str)> {
    let root = |db: &Database| db.store().label(db.store().root());
    let dblp_root = root(&dblp());
    let mm_root = root(&multimedia());
    vec![
        (
            "dblp",
            ["1999", "1995"],
            format!(
                "select meet(a, b) from {dblp_root}/% as a, {dblp_root}/% as b \
                 where a contains '1999' and b contains 'ICDE'"
            ),
            "1999",
        ),
        (
            "multimedia",
            ["1999", "1995"],
            format!(
                "select meet(a, b) from {mm_root}/% as a, {mm_root}/% as b \
                 where a contains '1999' and b contains '1995'"
            ),
            "1995",
        ),
        (
            "deep",
            ["s", "t"],
            "select meet(a, b) from root/% as a, root/% as b \
             where a contains 's' and b contains 't'"
                .to_owned(),
            "s",
        ),
    ]
}

fn three_corpus_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .add("dblp", Arc::new(dblp()) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
        .add("multimedia", Arc::new(multimedia()) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
        .add("deep", Arc::new(deep()) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
}

fn direct(name: &str) -> Database {
    match name {
        "dblp" => dblp(),
        "multimedia" => multimedia(),
        "deep" => deep(),
        _ => unreachable!(),
    }
}

#[test]
fn three_corpus_catalog_answers_match_per_corpus_databases_byte_for_byte() {
    let forest = ForestBackend::new(three_corpus_catalog()).unwrap();
    for (name, terms, sql, search_term) in probes() {
        let reference = direct(name);
        let routed = forest.corpus(name).expect("corpus resolves");

        // MEET: byte-identical serialized answers.
        let expected = reference.meet_terms(&terms).unwrap().to_detailed_xml();
        let actual = meet_on(&forest, name, &terms).to_detailed_xml();
        assert_eq!(actual, expected, "{name}: MEET drifted through the catalog");

        // SQL: the corpus clause routes inside the evaluator.
        let clause_sql = sql.replacen("from ", &format!("from corpus({name}), "), 1);
        let through_forest = run_query(&forest, &clause_sql)
            .unwrap_or_else(|e| panic!("{name}: forest sql failed: {e}"));
        let direct_out = run_query(&reference, &sql)
            .unwrap_or_else(|e| panic!("{name}: direct sql failed: {e}"));
        let ser = |o: &QueryOutput| match o {
            QueryOutput::Answers(a) => a.to_detailed_xml(),
            QueryOutput::Rows(r) => r.to_answer_xml(),
        };
        assert_eq!(
            ser(&through_forest),
            ser(&direct_out),
            "{name}: SQL drifted through the catalog"
        );

        // SEARCH: same hits.
        assert_eq!(
            routed.search(search_term).unwrap(),
            reference.search(search_term),
            "{name}: SEARCH drifted through the catalog"
        );
    }
}

#[test]
fn cross_corpus_fanout_order_is_stable_and_corpus_tagged() {
    let server = Server::start_backend(
        Arc::new(ForestBackend::new(three_corpus_catalog()).unwrap()),
        ServerConfig::default(),
    );
    // "1999" + "1995" hit dblp and multimedia but not deep: the `USE *`
    // concatenation must list dblp's answers first (catalog order),
    // each tagged, and serialize identically across runs.
    let fan_out = || {
        let request = Request::meet_terms(["1999", "1995"]).with_corpus(Some(ALL_CORPORA.into()));
        match server.client().request(request).unwrap() {
            Response::Answers(answers) => answers,
            other => panic!("unexpected {other:?}"),
        }
    };
    let first = fan_out();
    assert!(!first.is_empty());
    let corpora: Vec<&str> = first
        .iter()
        .map(|r| r.corpus.expect("forest answers are tagged"))
        .collect();
    // Grouped by corpus, in catalog order.
    let mut seen: Vec<&str> = Vec::new();
    for c in &corpora {
        if seen.last() != Some(c) {
            assert!(!seen.contains(c), "corpus groups interleaved: {corpora:?}");
            seen.push(c);
        }
    }
    let catalog_order = ["dblp", "multimedia", "deep"];
    let positions: Vec<usize> = seen
        .iter()
        .map(|c| catalog_order.iter().position(|k| k == c).unwrap())
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "corpus groups out of catalog order: {seen:?}"
    );
    // Within each corpus group the answers are exactly the per-corpus
    // ranked answers.
    for (name, _, _, _) in probes() {
        let expected = direct(name).meet_terms(&["1999", "1995"]).unwrap();
        let group: Vec<_> = first.iter().filter(|r| r.corpus == Some(name)).collect();
        assert_eq!(group.len(), expected.len(), "{name}: group size");
        for (got, want) in group.iter().zip(expected.iter()) {
            assert_eq!(got.oid, want.oid, "{name}: per-corpus order drifted");
            assert_eq!(got.distance, want.distance);
        }
    }
    // Byte-stable across repeated runs.
    let again = fan_out();
    assert_eq!(first.to_detailed_xml(), again.to_detailed_xml());
}

/// A forest `Server` replays the forest probes byte-identically: the
/// routed MEET answers the same cold, from concurrent clients
/// evaluating at once, and from a warmed semantic cache — with the per-corpus
/// `limit` on the wire returning the ranked prefix.
#[test]
fn concurrent_and_cached_forest_replay_is_byte_stable() {
    // Concurrent routed MEETs, then a warmed-cache
    // replay, then the wire-level limit — all byte-identical to the
    // direct engines.
    let forest = ForestBackend::new(three_corpus_catalog()).unwrap();
    let server = Server::start_backend(Arc::new(forest), ServerConfig::default());
    let meet = |corpus: &str, terms: &[&str; 2], limit: Option<usize>| match server
        .client()
        .request(Request::MeetTerms {
            terms: terms.iter().map(|t| t.to_string()).collect(),
            within: None,
            limit,
            corpus: Some(corpus.to_owned()),
        })
        .unwrap()
    {
        Response::Answers(a) => a,
        other => panic!("{corpus}: unexpected {other:?}"),
    };

    let handles: Vec<_> = probes()
        .into_iter()
        .map(|(name, terms, _, _)| {
            let client = server.client();
            std::thread::spawn(move || {
                let got = match client
                    .request(Request::MeetTerms {
                        terms: terms.iter().map(|t| t.to_string()).collect(),
                        within: None,
                        limit: None,
                        corpus: Some(name.to_owned()),
                    })
                    .unwrap()
                {
                    Response::Answers(a) => a.to_detailed_xml(),
                    other => panic!("{name}: unexpected {other:?}"),
                };
                (name, got)
            })
        })
        .collect();
    for h in handles {
        let (name, got) = h.join().unwrap();
        let expected = direct(name)
            .meet_terms(&probes().iter().find(|p| p.0 == name).unwrap().1)
            .unwrap()
            .to_detailed_xml();
        assert_eq!(got, expected, "{name}: concurrent forest serving drifted");
    }
    for (name, terms, _, _) in probes() {
        let expected = direct(name).meet_terms(&terms).unwrap();
        // Warmed semantic cache: still the exact bytes.
        let cached = meet(name, &terms, None);
        assert_eq!(
            cached.to_detailed_xml(),
            expected.to_detailed_xml(),
            "{name}: cached forest replay drifted"
        );
        // The wire-level limit answers the ranked prefix.
        let bounded = meet(name, &terms, Some(1));
        let cut = 1usize.min(expected.len());
        assert_eq!(
            bounded.iter().collect::<Vec<_>>(),
            expected.iter().take(cut).collect::<Vec<_>>(),
            "{name}: LIMIT 1 != ranked prefix over the wire"
        );
    }
    let stats = server.shutdown();
    assert!(
        stats.sem_hits >= probes().len(),
        "the warmed pass must hit the semantic cache (hits {}, misses {})",
        stats.sem_hits,
        stats.sem_misses
    );
}

#[test]
fn manifest_cold_start_replays_the_same_answers() {
    let dir = std::env::temp_dir().join("ncq-forest-golden-manifest");
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<(&str, PathBuf)> = vec![
        ("dblp", dir.join("dblp.ncq")),
        ("multimedia", dir.join("multimedia.ncq")),
        ("deep", dir.join("deep.ncq")),
    ];
    for (name, path) in &paths {
        direct(name).save_snapshot(path).unwrap();
    }

    let mut manifest = Manifest::new();
    for (name, path) in &paths {
        manifest
            .push(ManifestEntry::describe(*name, path).unwrap())
            .unwrap();
    }
    let mpath = dir.join("forest.ncqm");
    manifest.save(&mpath).unwrap();

    let forest = open_forest(&mpath).unwrap();
    assert_eq!(forest.corpus_names(), vec!["dblp", "multimedia", "deep"]);
    for (name, terms, _, _) in probes() {
        let expected = direct(name).meet_terms(&terms).unwrap().to_detailed_xml();
        let actual = meet_on(&forest, name, &terms).to_detailed_xml();
        assert_eq!(actual, expected, "{name}: manifest cold start drifted");
    }

    // Corruption at the catalog level fails typed: a dangling snapshot
    // path (the manifest survives, the corpus file is gone)…
    std::fs::remove_file(&paths[2].1).unwrap();
    assert!(matches!(
        open_forest(&mpath),
        Err(CatalogError::Corpus { name, .. }) if name == "deep"
    ));
    // …and a swapped snapshot file behind an unchanged manifest.
    dblp().save_snapshot(&paths[2].1).unwrap(); // wrong bytes for "deep"
    assert!(matches!(
        open_forest(&mpath),
        Err(CatalogError::ChecksumMismatch { name }) if name == "deep"
    ));

    for (_, p) in &paths {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&mpath).ok();
}
