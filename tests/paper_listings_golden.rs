//! Golden snapshots of every Listing/Figure query of the paper.
//!
//! Each query runs through `run_query` over the Figure 1 document and
//! its **full** serialized output — the detailed `AnswerSet` XML with
//! result oids, paths, distances and witnesses, or the complete
//! projection row set — is compared byte-for-byte against a checked-in
//! fixture under `tests/golden/`. Any behavioural drift (ranking,
//! witness accounting, witness order, serialization) shows up as a
//! fixture diff instead of slipping past tag-only assertions.
//!
//! Regenerate after an *intended* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test paper_listings_golden
//! ```

use nearest_concept::{run_query, Database, QueryOutput};
use std::path::PathBuf;

/// The paper queries under snapshot, name → query text.
///
/// Sources: Listing 1/2 (introduction and §3.2), the §3.1 worked
/// examples (meet of two full-text hits), and the §4 extensions
/// (`within` = meet^δ, `excluding`/`only` = meet_Π) plus attribute
/// search, scoped paths and conjunctive predicates.
const QUERIES: &[(&str, &str)] = &[
    (
        "listing1_baseline",
        "select $T from %/$T as t1, %/$T as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "listing2_meet",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "sec31_ben_bit_author",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Ben' and t2 contains 'Bit'",
    ),
    (
        "sec31_bob_byte_cdata",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bob' and t2 contains 'Byte'",
    ),
    (
        "sec31_cross_article_institute",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Ben' and t2 contains 'RSI'",
    ),
    (
        "sec4_within_blocks_article",
        "select meet(t1, t2) within 4 \
         from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "sec4_within_admits_article",
        "select meet(t1, t2) within 5 \
         from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "sec4_excluding_institute",
        "select meet(t1, t2) excluding bibliography/institute \
         from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Ben' and t2 contains 'RSI'",
    ),
    (
        "sec4_only_article",
        "select meet(t1, t2) only bibliography/institute/article \
         from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "attribute_key_meets_author",
        "select meet(t1, t2) from bibliography/%/@key as t1, bibliography/% as t2 \
         where t1 contains 'BB99' and t2 contains 'Ben'",
    ),
    (
        "scoped_title_shifts_the_meet",
        "select meet(t1, t2) from bibliography/%/title as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    ),
    (
        "conjunctive_bob_byte",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bob' and t1 contains 'Byte' and t2 contains '1999'",
    ),
    (
        "four_terms_ranked",
        "select meet(t1, t2, t3, t4) \
         from bibliography/% as t1, bibliography/% as t2, \
              bibliography/% as t3, bibliography/% as t4 \
         where t1 contains 'Bob' and t2 contains 'Byte' \
           and t3 contains 'Ben' and t4 contains 'Bit'",
    ),
    (
        "unconditioned_variable_binds_years",
        "select meet(t1, t2) from bibliography/% as t1, bibliography/%/year as t2 \
         where t1 contains 'Bit'",
    ),
    (
        "projection_articles",
        "select t from bibliography/institute/article as t",
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Full serialization of a query output: detailed answer XML for meet
/// queries, the complete row set (columns + rows + nodes) for
/// projections.
fn serialize(output: &QueryOutput) -> String {
    match output {
        QueryOutput::Answers(answers) => answers.to_detailed_xml() + "\n",
        QueryOutput::Rows(rows) => {
            let mut out = format!("<rows columns=\"{}\">\n", rows.columns.join(","));
            for row in &rows.rows {
                let nodes: Vec<String> = row.nodes.iter().map(ToString::to_string).collect();
                out.push_str(&format!(
                    "  <row nodes=\"{}\"> {} </row>\n",
                    nodes.join(","),
                    row.values.join(", ")
                ));
            }
            out.push_str("</rows>\n");
            out
        }
    }
}

#[test]
fn paper_listing_queries_match_golden_fixtures() {
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }

    let mut failures = Vec::new();
    for (name, query) in QUERIES {
        let output = run_query(&db, query)
            .unwrap_or_else(|e| panic!("golden query {name} failed to run: {e}"));
        let actual = serialize(&output);
        let path = dir.join(format!("{name}.xml"));
        if update {
            std::fs::write(&path, &actual).expect("write golden fixture");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "{name}: output drifted from {path:?}\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
            )),
            Err(e) => failures.push(format!(
                "{name}: cannot read fixture {path:?} ({e}); run UPDATE_GOLDEN=1 to create it"
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Snapshot cold starts serve the paper byte-identically: the database
/// is saved to a versioned snapshot, reloaded cold, and every golden
/// query re-runs through the snapshot-loaded `Database` against the
/// same fixtures. `UPDATE_GOLDEN` does not apply here — a snapshot load
/// can never redefine the truth.
#[test]
fn snapshot_loaded_engines_match_the_golden_fixtures() {
    let dir = std::env::temp_dir().join("ncq-golden-snapshot-test");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("figure1-golden.ncq");

    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    db.save_snapshot(&path).expect("save snapshot");
    let loaded_db = Database::open_snapshot(&path).expect("open snapshot");

    let mut failures = Vec::new();
    for (name, query) in QUERIES {
        let expected = match std::fs::read_to_string(golden_dir().join(format!("{name}.xml"))) {
            Ok(x) => x,
            Err(e) => {
                failures.push(format!("{name}: cannot read fixture ({e})"));
                continue;
            }
        };
        let single = serialize(
            &run_query(&loaded_db, query)
                .unwrap_or_else(|e| panic!("snapshot golden query {name} failed: {e}")),
        );
        if single != expected {
            failures.push(format!(
                "{name}: snapshot-loaded Database drifted\n--- expected ---\n{expected}\n--- actual ---\n{single}"
            ));
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        failures.is_empty(),
        "{} snapshot golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A multi-corpus catalog serves the paper byte-identically: the whole
/// suite replays through a [`ForestBackend`] whose default corpus is
/// Figure 1 (with two unrelated corpora alongside), exercising the
/// catalog's default-corpus routing, the explicit
/// `QueryOptions::default_corpus` session routing, and proving a
/// forest never redefines the single-document truth. `UPDATE_GOLDEN`
/// does not apply here.
#[test]
fn forest_routed_execution_matches_the_golden_fixtures() {
    use nearest_concept::core::{Catalog, ForestBackend, MeetBackend};
    use nearest_concept::{run_query_opts, QueryOptions};
    use std::sync::Arc;

    let mut catalog = Catalog::new();
    catalog
        .add(
            "figure1",
            Arc::new(Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap())
                as Arc<dyn MeetBackend>,
        )
        .expect("add figure1");
    let (dblp, _) = {
        let corpus =
            nearest_concept::datagen::DblpCorpus::generate(&nearest_concept::datagen::DblpConfig {
                papers_per_edition: 4,
                journal_articles_per_year: 2,
                ..nearest_concept::datagen::DblpConfig::default()
            });
        (Database::from_document(&corpus.document), corpus)
    };
    catalog
        .add("dblp", Arc::new(dblp) as Arc<dyn MeetBackend>)
        .expect("add dblp");
    let (multimedia, _) = {
        let corpus = nearest_concept::datagen::MultimediaCorpus::generate(
            &nearest_concept::datagen::MultimediaConfig {
                noise_items: 20,
                ..nearest_concept::datagen::MultimediaConfig::default()
            },
        );
        (Database::from_document(&corpus.document), corpus)
    };
    catalog
        .add("multimedia", Arc::new(multimedia) as Arc<dyn MeetBackend>)
        .expect("add multimedia");
    let forest = ForestBackend::new(catalog).expect("non-empty catalog");

    let session = QueryOptions {
        default_corpus: Some("figure1".into()),
        ..QueryOptions::default()
    };
    let mut failures = Vec::new();
    for (name, query) in QUERIES {
        let expected = match std::fs::read_to_string(golden_dir().join(format!("{name}.xml"))) {
            Ok(x) => x,
            Err(e) => {
                failures.push(format!("{name}: cannot read fixture ({e})"));
                continue;
            }
        };
        // Default-corpus routing (no corpus named anywhere).
        let routed = serialize(
            &run_query(&forest, query)
                .unwrap_or_else(|e| panic!("forest golden query {name} failed: {e}")),
        );
        if routed != expected {
            failures.push(format!(
                "{name}: forest default routing drifted\n--- expected ---\n{expected}\n--- actual ---\n{routed}"
            ));
        }
        // Session routing (the server's USE path).
        let via_session = serialize(
            &run_query_opts(&forest, query, &session)
                .unwrap_or_else(|e| panic!("forest session query {name} failed: {e}")),
        );
        if via_session != expected {
            failures.push(format!(
                "{name}: forest session routing drifted\n--- expected ---\n{expected}\n--- actual ---\n{via_session}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} forest golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A remote corpus serves the paper byte-identically: Figure 1 runs in
/// a `RemoteEngine` on loopback, and the coordinator's
/// `RemoteBackend` holds no copy of it, so every query travels whole
/// and comes back ranked and resolved. Part one sends each fixture
/// query straight to the remote corpus, one engine request apiece,
/// plus the served MEET and `limit` (which no fixture pins) against
/// in-process evaluation. Part two puts the remote corpus in a forest
/// beside a local default corpus and names it with `from
/// corpus(figure1)`. `UPDATE_GOLDEN` does not apply here.
#[test]
fn remote_corpus_execution_matches_the_golden_fixtures() {
    use nearest_concept::core::{Catalog, ForestBackend, MeetBackend, RemoteBackend, RemoteConfig};
    use nearest_concept::query::{QueryConfig, QueryError};
    use nearest_concept::run_query_opts;
    use nearest_concept::server::{EngineConfig, RemoteEngine};
    use std::sync::Arc;

    let db = Arc::new(Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap());
    let engine = RemoteEngine::bind(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn MeetBackend>,
        EngineConfig::default(),
    )
    .expect("bind the engine");
    let remote = || {
        let corpus = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
        let endpoints = [engine.local_addr().to_string()];
        Arc::new(RemoteBackend::new(corpus, &endpoints, RemoteConfig::default()).unwrap())
    };

    // Part one: the remote corpus on its own.
    let figure1 = remote();
    assert!(figure1.store().is_none(), "the coordinator holds no corpus");
    let mut failures = Vec::new();
    for (name, query) in QUERIES {
        let expected = std::fs::read_to_string(golden_dir().join(format!("{name}.xml")))
            .unwrap_or_else(|e| panic!("{name}: cannot read fixture ({e})"));
        let before = engine.served();
        let actual = serialize(
            &run_query(&*figure1, query)
                .unwrap_or_else(|e| panic!("remote golden query {name} failed: {e}")),
        );
        assert_eq!(engine.served(), before + 1, "{name}: one engine request");
        if actual != expected {
            failures.push(format!(
                "{name}: remote corpus drifted\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
            ));
        }
    }
    let limited = "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
                   where t1 contains 'Bit' and t2 contains '1999' limit 1";
    assert_eq!(
        serialize(&run_query(&*figure1, limited).unwrap()),
        serialize(&run_query(&*db, limited).unwrap()),
        "SQL limit through the remote corpus"
    );
    // The query travels as its `Display` text: a needle holding an
    // apostrophe must survive it.
    let apostrophe = r#"select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2
                        where t1 contains "Bob Byte'" and t2 contains 'RSI'"#;
    let local = serialize(&run_query(&*db, apostrophe).unwrap());
    assert!(local.contains("<result "), "{local}");
    assert_eq!(
        serialize(&run_query(&*figure1, apostrophe).unwrap()),
        local,
        "a double-quoted needle through the remote corpus"
    );
    // An evaluation error on the engine comes back as its text, untyped.
    let capped = nearest_concept::QueryOptions {
        config: QueryConfig { max_rows: 1 },
        default_corpus: None,
    };
    let rows = "select t from bibliography/% as t";
    let local = run_query_opts(&*db, rows, &capped).unwrap_err();
    assert!(
        matches!(local, QueryError::RowLimitExceeded { limit: 1 }),
        "{local:?}"
    );
    match run_query_opts(&*figure1, rows, &capped) {
        Err(QueryError::Backend { detail }) => {
            assert_eq!(detail, format!("remote engine error: {local}"))
        }
        other => panic!("expected the engine's error text, got {other:?}"),
    }
    for (terms, within, limit) in [
        (&["Bit", "1999"][..], None, None),
        (&["Ben", "RSI"], Some(4), None),
        (&["Ben", "RSI"], Some(5), None),
        (&["1999", "Hack"], None, Some(1)),
        (&["Bob", "Byte", "Ben", "Bit"], Some(9), Some(2)),
    ] {
        let options = nearest_concept::MeetOptions {
            max_distance: within,
            limit,
            ..nearest_concept::MeetOptions::default()
        };
        let before = engine.served();
        // The MEET as the query it abbreviates, sent whole as its text.
        let over_wire = nearest_concept::query::eval::evaluate(
            &*figure1,
            &nearest_concept::query::Query::meet_terms(terms, within, limit),
            &nearest_concept::QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(engine.served(), before + 1, "{terms:?}: one engine request");
        assert_eq!(
            serialize(&over_wire),
            serialize(&QueryOutput::Answers(
                db.meet_terms_with(terms, &options).unwrap()
            )),
            "MEET {terms:?} within {within:?} limit {limit:?}"
        );
    }

    // Part two: a forest whose default corpus is local, the query
    // naming the remote one.
    let mut catalog = Catalog::new();
    catalog
        .add(
            "multimedia",
            Arc::new(Database::from_document(
                &nearest_concept::datagen::MultimediaCorpus::generate(
                    &nearest_concept::datagen::MultimediaConfig {
                        noise_items: 20,
                        ..nearest_concept::datagen::MultimediaConfig::default()
                    },
                )
                .document,
            )) as Arc<dyn MeetBackend>,
        )
        .expect("add multimedia");
    catalog
        .add("figure1", remote() as Arc<dyn MeetBackend>)
        .expect("add figure1");
    let forest = ForestBackend::new(catalog).expect("non-empty catalog");
    for (name, query) in QUERIES {
        let expected = std::fs::read_to_string(golden_dir().join(format!("{name}.xml")))
            .unwrap_or_else(|e| panic!("{name}: cannot read fixture ({e})"));
        let routed = query.replacen("from ", "from corpus(figure1), ", 1);
        let actual = serialize(
            &run_query(&forest, &routed)
                .unwrap_or_else(|e| panic!("forest remote query {name} failed: {e}")),
        );
        if actual != expected {
            failures.push(format!(
                "{name}: corpus(figure1) through the forest drifted\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} remote golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
    engine.shutdown();
}

/// The concurrent serving path replays the paper byte-identically —
/// twice. Pass 1 submits every golden query to a running `Server` from
/// parallel threads, so the requests evaluate concurrently, each on its
/// own thread; pass 2 replays the same queries against the now-warmed
/// semantic result cache, where evaluation is skipped entirely. Both
/// passes must reproduce the pinned fixtures byte-for-byte, and the
/// stats must show pass 2 was served from the cache. `UPDATE_GOLDEN`
/// does not apply here — the serving path can never redefine the truth.
#[test]
fn server_concurrent_and_cached_replay_matches_the_golden_fixtures() {
    use nearest_concept::server::{Response, Server, ServerConfig};
    use std::sync::Arc;

    fn serialize_response(r: Response) -> String {
        match r {
            Response::Answers(a) => serialize(&QueryOutput::Answers(a)),
            Response::Rows(rows) => serialize(&QueryOutput::Rows(rows)),
            other => panic!("unexpected {other:?}"),
        }
    }

    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let server = Server::start(Arc::new(db), ServerConfig::default());

    let dir = golden_dir();
    let expected: Vec<(&str, String)> = QUERIES
        .iter()
        .map(|&(name, _)| {
            let fixture =
                std::fs::read_to_string(dir.join(format!("{name}.xml"))).unwrap_or_else(|e| {
                    panic!("{name}: cannot read fixture ({e}); run UPDATE_GOLDEN=1 first")
                });
            (name, fixture)
        })
        .collect();

    // Pass 1: every query in flight at once.
    let handles: Vec<_> = QUERIES
        .iter()
        .map(|&(name, query)| {
            let client = server.client();
            std::thread::spawn(move || (name, serialize_response(client.sql(query).unwrap())))
        })
        .collect();
    let mut cold: Vec<(&str, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    cold.sort_by_key(|&(name, _)| name);
    for (name, fixture) in &expected {
        let got = &cold.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            got, fixture,
            "{name}: concurrent serving drifted from the fixture"
        );
    }

    // Pass 2: warmed semantic cache — still the exact fixture bytes.
    let client = server.client();
    for (name, query) in QUERIES {
        let got = serialize_response(client.sql(*query).unwrap());
        let fixture = &expected.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            &got, fixture,
            "{name}: cached replay drifted from the fixture"
        );
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.sem_hits + stats.sem_misses,
        2 * QUERIES.len(),
        "every golden query is exactly one semantic hit or miss per pass"
    );
    assert!(
        stats.sem_hits >= QUERIES.len(),
        "the warmed pass must be served from the semantic cache \
         (hits {}, misses {})",
        stats.sem_hits,
        stats.sem_misses
    );
}

/// The suite stays in sync with the fixture directory: no orphaned
/// fixtures, no duplicate query names.
#[test]
fn golden_fixture_directory_is_in_sync() {
    let mut names: Vec<&str> = QUERIES.iter().map(|&(n, _)| n).collect();
    names.sort_unstable();
    let dedup: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(dedup.len(), names.len(), "duplicate query names");

    let dir = golden_dir();
    if !dir.exists() {
        return; // first run before UPDATE_GOLDEN=1
    }
    for entry in std::fs::read_dir(&dir).expect("read golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("xml") {
            // Non-XML fixtures (e.g. the pinned snapshot_v*.bin of the
            // snapshot_roundtrip suite) live here too.
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_owned();
        assert!(
            dedup.contains(stem.as_str()),
            "orphaned fixture {path:?} (no matching query in the suite)"
        );
    }
}
