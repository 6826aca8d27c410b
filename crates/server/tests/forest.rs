//! Forest serving end-to-end: manifest cold start, `USE`/`CORPORA`
//! routing over the wire, per-corpus stats, and the single-corpus
//! hot-swap — stress-tested so a reload of one corpus provably leaves
//! the other corpora's in-flight batches untouched.

use ncq_core::{Catalog, Database, ForestBackend, MeetBackend};
use ncq_server::{serve_lines, Request, Response, Server, ServerConfig};
use ncq_store::manifest::{Manifest, ManifestEntry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BIB: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
    <year>1999</year></article></bib>"#;
const SHOP: &str = r#"<shop><item><label>Bit driver</label>
    <price>1999</price></item></shop>"#;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 2-corpus forest server (default corpus `bib`), snapshot dir
/// enabled, with the corpora also saved as snapshot files for reloads.
fn forest_server(dir: &Path) -> Server {
    let bib = Database::from_xml_str(BIB).unwrap();
    let shop = Database::from_xml_str(SHOP).unwrap();
    bib.save_snapshot(dir.join("bib.ncq")).unwrap();
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
            ..ServerConfig::default()
        },
    )
}

#[test]
fn manifest_cold_start_serves_every_corpus() {
    let dir = scratch_dir("ncq-server-manifest-test");
    let bib = Database::from_xml_str(BIB).unwrap();
    let shop = Database::from_xml_str(SHOP).unwrap();
    bib.save_snapshot(dir.join("bib.ncq")).unwrap();
    shop.save_snapshot(dir.join("shop.ncq")).unwrap();
    let mut manifest = Manifest::new();
    manifest
        .push(ManifestEntry::describe("bib", dir.join("bib.ncq")).unwrap())
        .unwrap();
    manifest
        .push(ManifestEntry::describe("shop", dir.join("shop.ncq")).unwrap())
        .unwrap();
    let mpath = dir.join("forest.ncqm");
    manifest.save(&mpath).unwrap();

    let server = Server::open_manifest(&mpath, ServerConfig::default()).unwrap();
    let client = server.client();
    let (names, default) = client.corpora().unwrap();
    assert_eq!(names, vec!["bib", "shop"]);
    assert_eq!(default.as_deref(), Some("bib"));

    // MEET/SQL/SEARCH routed per corpus answer byte-identically to the
    // direct per-corpus engines — the acceptance criterion.
    let direct_bib = bib.meet_terms(&["Bit", "1999"]).unwrap().to_detailed_xml();
    let direct_shop = shop.meet_terms(&["Bit", "1999"]).unwrap().to_detailed_xml();
    let routed = |corpus: &str| match client
        .request(Request::meet_terms(["Bit", "1999"]).with_corpus(Some(corpus.to_owned())))
        .unwrap()
    {
        Response::Answers(a) => a.to_detailed_xml(),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(routed("bib"), direct_bib);
    assert_eq!(routed("shop"), direct_shop);
    // Default routing = the manifest default, byte-identical too.
    match client
        .request(Request::meet_terms(["Bit", "1999"]))
        .unwrap()
    {
        Response::Answers(a) => assert_eq!(a.to_detailed_xml(), direct_bib),
        other => panic!("unexpected {other:?}"),
    }
    // SEARCH routed and fanned out.
    match client
        .request(Request::search("1999").with_corpus(Some("shop".into())))
        .unwrap()
    {
        Response::Count(n) => assert_eq!(n, 1),
        other => panic!("unexpected {other:?}"),
    }
    match client
        .request(Request::search("1999").with_corpus(Some("*".into())))
        .unwrap()
    {
        Response::Count(n) => assert_eq!(n, 2, "both corpora contain 1999"),
        other => panic!("unexpected {other:?}"),
    }
    // SQL with an explicit corpus clause routes inside the evaluator.
    match client
        .sql(
            "select meet(a, b) from corpus(shop), shop/% as a, shop/% as b \
             where a contains 'Bit' and b contains '1999'",
        )
        .unwrap()
    {
        Response::Answers(a) => assert_eq!(a.tags(), vec!["item"]),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown corpus routing is an in-band error.
    match client
        .request(Request::search("x").with_corpus(Some("absent".into())))
        .unwrap()
    {
        Response::Error(msg) => assert!(msg.contains("unknown corpus"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }

    // Per-corpus query counters surfaced through the stats.
    let stats = server.stats();
    let count = |name: &str| {
        stats
            .queries_by_corpus
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert!(count("bib") >= 2, "{:?}", stats.queries_by_corpus);
    assert!(count("shop") >= 3, "{:?}", stats.queries_by_corpus);
}

#[test]
fn forest_verbs_round_trip_over_the_wire() {
    let dir = scratch_dir("ncq-server-forest-wire-test");
    let server = forest_server(&dir);
    let mut out = Vec::new();
    serve_lines(
        &server.client(),
        "CORPORA\nUSE shop\nMEET Bit 1999\nSEARCH driver\nUSE *\nMEET Bit 1999\n\
         USE absent\nUSE\nSNAPSHOT LOAD shop.ncq INTO shop\n\
         SNAPSHOT LOAD shop.ncq INTO absent\nSNAPSHOT SAVE x.ncq INTO shop\nSTATS\nQUIT\n"
            .as_bytes(),
        &mut out,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("bib (default)"), "{out}");
    assert!(out.contains("using corpus shop"), "{out}");
    // The USE'd session serves shop's answers (the item meet).
    assert!(out.contains("tag=\"item\""), "{out}");
    // The fan-out answers carry corpus tags for both corpora.
    assert!(out.contains("corpus=\"bib\""), "{out}");
    assert!(out.contains("corpus=\"shop\""), "{out}");
    // Bad USE forms are in-band errors.
    assert!(out.contains("ERR unknown corpus \"absent\""), "{out}");
    assert!(out.contains("ERR USE needs a corpus name"), "{out}");
    // Per-corpus hot swap acknowledged; bad targets typed in-band.
    assert!(out.contains("corpus \"shop\" reloaded"), "{out}");
    assert!(out.contains("ERR corpus \"absent\""), "{out}");
    assert!(
        out.contains("ERR SNAPSHOT SAVE does not take INTO"),
        "{out}"
    );
    // STATS grew per-corpus lines.
    assert!(out.contains("corpus.shop="), "{out}");
}

#[test]
fn snapshot_names_with_whitespace_or_nul_are_typed_errors() {
    let dir = scratch_dir("ncq-server-snapname-test");
    let server = forest_server(&dir);
    let client = server.client();
    for bad in ["a b.ncq", "tab\there", "nul\0name", " "] {
        match client.request(Request::snapshot_load(bad)).unwrap() {
            Response::Error(msg) => assert!(
                msg.contains("whitespace or control characters") || msg.contains("bare file name"),
                "{bad:?}: {msg}"
            ),
            other => panic!("{bad:?}: unexpected {other:?}"),
        }
    }
    // An empty path has no components at all → the bare-file error.
    match client.request(Request::snapshot_save("")).unwrap() {
        Response::Error(msg) => assert!(msg.contains("bare file name"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// Concurrent `SNAPSHOT LOAD … INTO` requests for *different* corpora
/// must both take effect: each splice clones the current catalog (not
/// the requester's batch-stale one) and retries if another swap landed
/// in between, so neither reload can silently revert the other.
#[test]
fn concurrent_reloads_of_different_corpora_both_stick() {
    let dir = scratch_dir("ncq-server-forest-race");
    // Replacement corpora with *distinguishable* content: v2 of bib
    // adds a second article, v2 of shop a second item.
    let bib_v2 = Database::from_xml_str(
        r#"<bib><article><author>Ben Bit</author><year>1999</year></article>
           <article><author>New Bit</author><year>1999</year></article></bib>"#,
    )
    .unwrap();
    let shop_v2 = Database::from_xml_str(
        r#"<shop><item><label>Bit driver</label><price>1999</price></item>
           <item><label>Bit set</label><price>1999</price></item></shop>"#,
    )
    .unwrap();
    let server = forest_server(&dir);
    bib_v2.save_snapshot(dir.join("bib-v2.ncq")).unwrap();
    shop_v2.save_snapshot(dir.join("shop-v2.ncq")).unwrap();

    const ROUNDS: usize = 60;
    let mut handles = Vec::new();
    for (file, corpus) in [("bib-v2.ncq", "bib"), ("shop-v2.ncq", "shop")] {
        let client = server.client();
        handles.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                match client
                    .request(Request::snapshot_load_into(file, corpus))
                    .unwrap()
                {
                    Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Both final reloads must be live: each corpus serves its v2
    // content (two meets instead of one). With a batch-stale splice
    // base, one corpus would flakily revert to v1 here.
    let client = server.client();
    for corpus in ["bib", "shop"] {
        match client
            .request(Request::meet_terms(["Bit", "1999"]).with_corpus(Some(corpus.into())))
            .unwrap()
        {
            Response::Answers(a) => {
                assert_eq!(a.len(), 2, "{corpus}: lost a concurrent corpus reload")
            }
            other => panic!("{corpus}: unexpected {other:?}"),
        }
    }
}

/// The acceptance stress: hammer corpus `bib` from several threads
/// while corpus `shop` hot-swaps over and over. Every `bib` answer —
/// including those from batches in flight across a swap — must be
/// byte-identical to the reference, and the swap acknowledgements must
/// all succeed.
#[test]
fn single_corpus_hot_swap_leaves_other_corpora_untouched() {
    let dir = scratch_dir("ncq-server-forest-swap-stress");
    let server = forest_server(&dir);
    let reference = Database::from_xml_str(BIB)
        .unwrap()
        .meet_terms(&["Bit", "1999"])
        .unwrap()
        .to_detailed_xml();

    const QUERIES_PER_THREAD: usize = 120;
    const THREADS: usize = 4;
    const SWAPS: usize = 40;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let client = server.client();
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..QUERIES_PER_THREAD {
                let answers = match client
                    .request(Request::meet_terms(["Bit", "1999"]).with_corpus(Some("bib".into())))
                    .unwrap()
                {
                    Response::Answers(a) => a.to_detailed_xml(),
                    other => panic!("unexpected {other:?}"),
                };
                assert_eq!(answers, reference, "bib answers drifted during a shop swap");
            }
        }));
    }
    let swapper = server.client();
    for _ in 0..SWAPS {
        match swapper
            .request(Request::snapshot_load_into("shop.ncq", "shop"))
            .unwrap()
        {
            Response::Info(msg) => assert!(msg.contains("reloaded"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    // The swapped corpus still serves correctly afterwards.
    match server
        .client()
        .request(Request::meet_terms(["Bit", "1999"]).with_corpus(Some("shop".into())))
        .unwrap()
    {
        Response::Answers(a) => assert_eq!(a.tags(), vec!["item"]),
        other => panic!("unexpected {other:?}"),
    }
    let stats = server.shutdown();
    assert!(stats.served >= (QUERIES_PER_THREAD * THREADS + SWAPS));
}
