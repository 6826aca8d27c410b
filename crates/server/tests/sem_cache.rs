//! Semantic result cache coherence: generation-tagged entries must
//! never serve an answer from a corpus generation that is no longer
//! (and was not, at batch start) live.
//!
//! The deterministic tests pin the invalidation unit — a
//! `SNAPSHOT LOAD … INTO` swap drops exactly the swapped corpus's
//! entries; a full `SNAPSHOT LOAD` drops everything. The stress test is
//! the acceptance criterion: threads hammer one corpus through the
//! cache while that same corpus hot-swaps between two distinguishable
//! generations, and every single response must be byte-identical to one
//! of the two generations' reference answers — a torn or stale-beyond-
//! swap answer fails the run. The STATS counters must reconcile:
//! every cacheable query is exactly one semantic hit or miss.
//!
//! The shared term-decode cache is the same epoch-tagged mechanism
//! and is pinned here too: a corpus splice keeps sibling corpora's
//! decodes, a whole-backend load drops everything. And the result-cache
//! key must be injective in the request — no term can spell another
//! request's key.

use ncq_core::{Catalog, Database, ForestBackend, MeetBackend};
use ncq_server::{serve_lines, Request, Response, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BIB_V1: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
    <year>1999</year></article></bib>"#;
const BIB_V2: &str = r#"<bib><article><author>Ben Bit</author><year>1999</year></article>
    <article><author>New Bit</author><year>1999</year></article></bib>"#;
const SHOP: &str = r#"<shop><item><label>Bit driver</label>
    <price>1999</price></item></shop>"#;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A bib+shop forest server with both bib generations saved as
/// snapshot files, ready for `SNAPSHOT LOAD … INTO bib` swaps.
fn forest_server(dir: &Path) -> Server {
    forest_server_with(dir, ServerConfig::default())
}

/// [`forest_server`] with explicit tuning (`snapshot_dir` is always
/// `dir`).
fn forest_server_with(dir: &Path, config: ServerConfig) -> Server {
    let bib = Database::from_xml_str(BIB_V1).unwrap();
    let shop = Database::from_xml_str(SHOP).unwrap();
    bib.save_snapshot(dir.join("bib-v1.ncq")).unwrap();
    Database::from_xml_str(BIB_V2)
        .unwrap()
        .save_snapshot(dir.join("bib-v2.ncq"))
        .unwrap();
    shop.save_snapshot(dir.join("shop.ncq")).unwrap();
    let mut catalog = Catalog::new();
    catalog
        .add("bib", Arc::new(bib) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
        .add("shop", Arc::new(shop) as Arc<dyn MeetBackend>)
        .unwrap();
    let forest = ForestBackend::new(catalog).unwrap();
    Server::start_backend(
        Arc::new(forest),
        ServerConfig {
            snapshot_dir: Some(dir.to_path_buf()),
            ..config
        },
    )
}

fn meet_bib(client: &ncq_server::Client) -> String {
    match client
        .request(Request::meet_terms(["Bit", "1999"]).with_corpus(Some("bib".into())))
        .unwrap()
    {
        Response::Answers(a) => a.to_detailed_xml(),
        other => panic!("unexpected {other:?}"),
    }
}

fn reference(xml: &str) -> String {
    Database::from_xml_str(xml)
        .unwrap()
        .meet_terms(&["Bit", "1999"])
        .unwrap()
        .to_detailed_xml()
}

/// Swapping one corpus invalidates exactly that corpus's cache entries:
/// a swap of `shop` leaves warmed `bib` entries serving hits; a swap of
/// `bib` forces the next `bib` query to miss — and to answer from the
/// *new* generation, never the cached old one.
#[test]
fn corpus_swap_invalidates_only_that_corpus() {
    let dir = scratch_dir("ncq-sem-cache-unit");
    let server = forest_server(&dir);
    let client = server.client();

    let v1 = reference(BIB_V1);
    let v2 = reference(BIB_V2);
    assert_ne!(v1, v2, "generations must be distinguishable");

    // Warm, then hit.
    assert_eq!(meet_bib(&client), v1);
    assert_eq!(meet_bib(&client), v1);
    let s = server.stats();
    assert_eq!((s.sem_misses, s.sem_hits), (1, 1));

    // An unrelated corpus swap must not invalidate bib's entry.
    match client
        .request(Request::snapshot_load_into("shop.ncq", "shop"))
        .unwrap()
    {
        Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(meet_bib(&client), v1);
    let s = server.stats();
    assert_eq!(
        (s.sem_misses, s.sem_hits),
        (1, 2),
        "a shop swap evicted bib's entry"
    );

    // Swapping bib itself drops its entry: the next query misses and
    // serves the new generation byte-for-byte.
    match client
        .request(Request::snapshot_load_into("bib-v2.ncq", "bib"))
        .unwrap()
    {
        Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(meet_bib(&client), v2, "stale generation served after swap");
    assert_eq!(meet_bib(&client), v2);
    let s = server.stats();
    assert_eq!((s.sem_misses, s.sem_hits), (2, 3));
    assert_eq!(
        s.sem_hits + s.sem_misses,
        5,
        "every cacheable query is exactly one hit or miss"
    );
    server.shutdown();
}

/// A full-database `SNAPSHOT LOAD` (no `INTO`) starts a new full
/// generation: every cached entry — whatever its corpus — is stale.
#[test]
fn full_reload_invalidates_everything() {
    let dir = scratch_dir("ncq-sem-cache-full-reload");
    let db = Database::from_xml_str(BIB_V1).unwrap();
    db.save_snapshot(dir.join("self.ncq")).unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let v1 = reference(BIB_V1);

    let meet = |client: &ncq_server::Client| match client
        .request(Request::meet_terms(["Bit", "1999"]))
        .unwrap()
    {
        Response::Answers(a) => a.to_detailed_xml(),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(meet(&client), v1);
    assert_eq!(meet(&client), v1);
    match client.request(Request::snapshot_load("self.ncq")).unwrap() {
        Response::Info(msg) => assert!(msg.contains("loaded"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(meet(&client), v1, "reloaded engine answers identically");
    let s = server.shutdown();
    assert_eq!(
        (s.sem_misses, s.sem_hits),
        (2, 1),
        "the full reload must invalidate the warmed entry"
    );
}

/// The acceptance stress: threads hammer corpus `bib` through the
/// semantic cache while `bib` itself hot-swaps back and forth between
/// two distinguishable generations. Every response must be
/// byte-identical to the v1 or v2 reference answer — cache hits
/// included, across every interleaving of lookup, insert and epoch
/// bump — and the semantic counters must reconcile exactly with the
/// number of cacheable queries served.
#[test]
fn hot_swap_stress_serves_only_live_generations() {
    let dir = scratch_dir("ncq-sem-cache-stress");
    let server = forest_server(&dir);
    let v1 = reference(BIB_V1);
    let v2 = reference(BIB_V2);

    const QUERIES_PER_THREAD: usize = 150;
    const THREADS: usize = 4;
    const SWAPS: usize = 50;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let client = server.client();
        let (v1, v2) = (v1.clone(), v2.clone());
        handles.push(std::thread::spawn(move || {
            for i in 0..QUERIES_PER_THREAD {
                let got = meet_bib(&client);
                assert!(
                    got == v1 || got == v2,
                    "query {i}: answer matches neither generation:\n{got}"
                );
            }
        }));
    }
    let swapper = server.client();
    for round in 0..SWAPS {
        let file = if round % 2 == 0 {
            "bib-v2.ncq"
        } else {
            "bib-v1.ncq"
        };
        match swapper
            .request(Request::snapshot_load_into(file, "bib"))
            .unwrap()
        {
            Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    // The final generation is v1 (SWAPS is even, so the last loaded
    // file was bib-v1.ncq) and serves byte-identically, cold or cached.
    let client = server.client();
    assert_eq!(meet_bib(&client), v1);
    assert_eq!(meet_bib(&client), v1);

    let stats = server.shutdown();
    let cacheable = QUERIES_PER_THREAD * THREADS + 2;
    assert_eq!(
        stats.sem_hits + stats.sem_misses,
        cacheable,
        "hits + misses must equal cacheable queries served"
    );
    assert!(stats.sem_hits > 0, "the stress never hit the cache");
    assert!(stats.sem_misses >= 1, "at least the first query must miss");
    assert!(stats.served >= (cacheable + SWAPS));
}

/// U+001F is not white space, so `MEET Hack\x1f1999` is a one-term
/// request (answer: nothing meets) and must never share a result-cache
/// entry with the two-term `MEET Hack 1999` (answer: the article) —
/// whichever of the two warms the cache first. Likewise a one-term MEET
/// whose term holds both quote kinds and spells a second condition must
/// not share the entry of the SQL conjunction it would print as if its
/// `"` were not doubled.
#[test]
fn unit_separator_in_a_term_does_not_alias_another_request() {
    let db = Database::from_xml_str(
        "<bib><article><title>How to Hack</title><year>1999</year></article></bib>",
    )
    .unwrap();
    let one_term = ["Hack\u{1f}1999"];
    let two_terms = ["Hack", "1999"];
    let frame = |terms: &[&str]| {
        let payload = db.meet_terms(terms).unwrap().to_detailed_xml();
        format!("OK {}\n{payload}\n", payload.lines().count())
    };
    assert_ne!(
        frame(&one_term),
        frame(&two_terms),
        "distinguishable answers"
    );

    for order in [
        [&one_term[..], &two_terms[..]],
        [&two_terms[..], &one_term[..]],
    ] {
        let server = Server::start(Arc::new(db.clone()), ServerConfig::default());
        let input: String = order
            .iter()
            .map(|terms| format!("MEET {}\n", terms.join(" ")))
            .collect();
        let mut out = Vec::new();
        serve_lines(&server.client(), input.as_bytes(), &mut out).unwrap();
        let expected: String = order.iter().map(|terms| frame(terms)).collect();
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        let stats = server.shutdown();
        assert_eq!(
            (stats.sem_hits, stats.sem_misses),
            (0, 2),
            "two different requests, two evaluations"
        );
    }

    let db = Database::from_xml_str("<bib><note>a' b'</note><note>b' a'</note></bib>").unwrap();
    let one_term = Request::meet_terms(["a'\" and t0 contains \"b'"]);
    let conjunction =
        Request::sql(r#"select meet(t0) from % as t0 where t0 contains "a'" and t0 contains "b'""#);
    let answer = |request: &Request| {
        let server = Server::start(Arc::new(db.clone()), ServerConfig::default());
        let response = server.client().request(request.clone()).unwrap();
        server.shutdown();
        response
    };
    let (alone_one, alone_conj) = (answer(&one_term), answer(&conjunction));
    assert_ne!(alone_one, alone_conj, "distinguishable answers");
    assert!(matches!(&alone_conj, Response::Answers(a) if !a.is_empty()));
    for order in [
        [(&one_term, &alone_one), (&conjunction, &alone_conj)],
        [(&conjunction, &alone_conj), (&one_term, &alone_one)],
    ] {
        let server = Server::start(Arc::new(db.clone()), ServerConfig::default());
        for (request, expected) in order {
            assert_eq!(&server.client().request(request.clone()).unwrap(), expected);
        }
        let stats = server.shutdown();
        assert_eq!((stats.sem_hits, stats.sem_misses), (0, 2));
    }
}

/// The term-decode cache validates entries against the same
/// `(full, corpus)` epochs as the result cache: splicing a snapshot
/// into `shop` keeps `bib`'s decodes hot while `shop`'s re-decode, and
/// a whole-backend load drops every decode.
#[test]
fn term_decodes_survive_a_sibling_swap_but_not_a_full_reload() {
    let dir = scratch_dir("ncq-term-cache-epochs");
    let no_results = ServerConfig {
        sem_cache_capacity: 0, // every MEET reaches the term cache
        ..ServerConfig::default()
    };
    let server = forest_server_with(&dir, no_results.clone());
    let client = server.client();
    let meet = |corpus: &str| {
        let request = Request::meet_terms(["Bit", "1999"]).with_corpus(Some(corpus.into()));
        match client.request(request).unwrap() {
            Response::Answers(a) => assert_eq!(a.len(), 1, "{corpus}"),
            other => panic!("unexpected {other:?}"),
        }
        let s = server.stats();
        (s.term_decodes, s.term_cache_hits)
    };
    assert_eq!(meet("bib"), (2, 0));
    assert_eq!(meet("shop"), (4, 0));
    assert_eq!(meet("bib"), (4, 2));
    assert_eq!(meet("shop"), (4, 4));
    match client
        .request(Request::snapshot_load_into("shop.ncq", "shop"))
        .unwrap()
    {
        Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(meet("bib"), (4, 6), "a shop splice dropped bib's decodes");
    assert_eq!(
        meet("shop"),
        (6, 6),
        "shop served decodes of its old engine"
    );
    assert_eq!(meet("shop"), (6, 8), "the fresh decodes are cached again");
    server.shutdown();

    // Whole-backend load: every decode is of the replaced engine.
    let db = Database::from_xml_str(BIB_V1).unwrap();
    db.save_snapshot(dir.join("self.ncq")).unwrap();
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..no_results
        },
    );
    let client = server.client();
    let meet = || {
        client.meet_terms(["Bit", "1999"]).unwrap();
        let s = server.stats();
        (s.term_decodes, s.term_cache_hits)
    };
    assert_eq!(meet(), (2, 0));
    assert_eq!(meet(), (2, 2));
    match client.request(Request::snapshot_load("self.ncq")).unwrap() {
        Response::Info(msg) => assert!(msg.contains("loaded"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(meet(), (4, 2), "the full reload must drop every decode");
    assert_eq!(meet(), (4, 4));
}
