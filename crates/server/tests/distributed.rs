//! Distributed-serving stress: a coordinator must give **byte-identical
//! answers** whether it evaluates in-process or through remote replica
//! engines — including while replicas refuse connections, corrupt
//! frames, stall, disconnect mid-response, or die outright — and must
//! degrade to **typed** partial answers (never panics, never hangs past
//! its timeout budget) when every replica of a corpus is gone.
//!
//! The fault schedule is a seeded PRNG ([`chaos::ChaosSchedule`]),
//! so every run of this suite injects exactly the same faults in the
//! same order: a failure here replays deterministically.

mod chaos;

use chaos::{ChaosProxy, ChaosSchedule, Fault};
use ncq_core::remote::{
    encode_request, read_frame, write_frame, EngineRequest, EngineResponse, RemoteBackend,
    RemoteConfig, DEFAULT_FRAME_CAP,
};
use ncq_core::{AnswerSet, BackendError, Catalog, Database, ForestBackend, MeetBackend};
use ncq_datagen::{DblpConfig, DblpCorpus};
use ncq_query::eval::evaluate;
use ncq_query::{Query, QueryError, QueryOptions, QueryOutput};
use ncq_server::{
    serve_lines, EngineConfig, RemoteEngine, Request, Response, Server, ServerConfig, ALL_CORPORA,
};
use ncq_store::manifest::{Manifest, ManifestEntry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIG: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
    <year>1999</year></article><article key="BC00"><author>Bob Byte</author>
    <year>2000</year></article></bib>"#;

fn dblp_db() -> Arc<Database> {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 4,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    Arc::new(Database::from_document(&corpus.document))
}

/// Term pairs harvested from the corpus's own strings, so every query
/// has real hits to meet.
fn term_pairs(db: &Database, want: usize) -> Vec<(String, String)> {
    let store = db.store();
    let mut terms: Vec<String> = Vec::new();
    'outer: for p in store.string_paths() {
        for (_, text) in store.strings_of(p).iter() {
            if let Some(word) = text.split_whitespace().next() {
                let word: String = word.chars().filter(|c| c.is_alphanumeric()).collect();
                if word.len() >= 2 && !terms.contains(&word) {
                    terms.push(word);
                    if terms.len() > want {
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(terms.len() >= 2, "corpus must yield terms");
    (0..terms.len() - 1)
        .map(|i| (terms[i].clone(), terms[i + 1].clone()))
        .collect()
}

/// `MEET terms` as the Listing-2 query it abbreviates, evaluated on
/// `backend` (a remote corpus receives it whole, as its text).
fn meet(backend: &dyn MeetBackend, terms: &[&str]) -> Result<AnswerSet, QueryError> {
    match evaluate(
        backend,
        &Query::meet_terms(terms, None, None),
        &QueryOptions::default(),
    )? {
        QueryOutput::Answers(answers) => Ok(answers),
        QueryOutput::Rows(rows) => panic!("a meet answered rows {rows:?}"),
    }
}

fn engine(db: &Arc<Database>) -> RemoteEngine {
    RemoteEngine::bind(
        "127.0.0.1:0",
        Arc::clone(db) as Arc<dyn MeetBackend>,
        EngineConfig::default(),
    )
    .unwrap()
}

/// Stress-suite router tuning: tight timeouts, fast probes. The retry
/// budget (2 rounds) bounds the worst case asserted by the
/// all-replicas-down test.
fn fast_config() -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retry_rounds: 2,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        down_probe_after: Duration::from_millis(20),
    }
}

/// An address nothing listens on (bind an OS port, then free it).
fn dead_endpoint() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

#[test]
fn remote_replicas_answer_byte_identically() {
    let db = dblp_db();
    let a = engine(&db);
    let b = engine(&db);
    let remote = RemoteBackend::new(
        (*db).clone(),
        &[a.local_addr().to_string(), b.local_addr().to_string()],
        fast_config(),
    )
    .unwrap();
    for (t1, t2) in term_pairs(&db, 12) {
        let over_wire = meet(&remote, &[t1.as_str(), t2.as_str()]).unwrap();
        let local = db.meet_terms(&[t1.as_str(), t2.as_str()]).unwrap();
        assert_eq!(
            over_wire.to_detailed_xml(),
            local.to_detailed_xml(),
            "meet({t1}, {t2}) diverged over the wire"
        );
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn chaos_replica_with_one_healthy_peer_stays_byte_identical() {
    let db = dblp_db();
    let sick = engine(&db);
    let healthy = engine(&db);
    // Every fault mode except Stall (covered separately — each stall
    // costs a full read timeout) on a seeded schedule: the exact fault
    // sequence replays on every run.
    let proxy = ChaosProxy::bind(
        sick.local_addr(),
        ChaosSchedule::seeded(
            0x0063_6861_6f73,
            vec![
                Fault::Refuse,
                Fault::Disconnect { after_bytes: 7 },
                Fault::Disconnect { after_bytes: 40 },
                Fault::CorruptFrame,
                Fault::SlowDrip,
                Fault::None,
            ],
        ),
    )
    .unwrap();
    let remote = RemoteBackend::new(
        (*db).clone(),
        &[
            proxy.local_addr().to_string(),
            healthy.local_addr().to_string(),
        ],
        fast_config(),
    )
    .unwrap();
    for (t1, t2) in term_pairs(&db, 16) {
        let over_wire = meet(&remote, &[t1.as_str(), t2.as_str()]).unwrap();
        let local = db.meet_terms(&[t1.as_str(), t2.as_str()]).unwrap();
        assert_eq!(
            over_wire.to_detailed_xml(),
            local.to_detailed_xml(),
            "meet({t1}, {t2}) diverged under fault injection"
        );
    }
    assert!(proxy.faults_injected() > 0, "the schedule injected faults");
    let stats = remote.robustness_stats();
    assert!(
        stats.failovers > 0,
        "faults forced failovers: {stats:?} ({} faults)",
        proxy.faults_injected()
    );
    proxy.shutdown();
    sick.shutdown();
    healthy.shutdown();
}

#[test]
fn stalled_replica_times_out_and_fails_over() {
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let sick = engine(&db);
    let healthy = engine(&db);
    let proxy = ChaosProxy::bind(
        sick.local_addr(),
        ChaosSchedule::always(Fault::Stall(Duration::from_millis(1500))),
    )
    .unwrap();
    let remote = RemoteBackend::new(
        Database::from_xml_str(FIG).unwrap(),
        &[
            proxy.local_addr().to_string(),
            healthy.local_addr().to_string(),
        ],
        fast_config(),
    )
    .unwrap();
    let started = Instant::now();
    let answers = meet(&remote, &["Bit", "1999"]).unwrap();
    assert_eq!(
        answers.to_detailed_xml(),
        db.meet_terms(&["Bit", "1999"]).unwrap().to_detailed_xml()
    );
    // Each stalled exchange costs at most one read timeout before the
    // failover; three exchanges (two searches + one meet) stay well
    // under the budget.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stall handling blew the timeout budget: {:?}",
        started.elapsed()
    );
    let stats = remote.robustness_stats();
    assert!(stats.timeouts > 0, "stalls counted as timeouts: {stats:?}");
    proxy.shutdown();
    sick.shutdown();
    healthy.shutdown();
}

#[test]
fn killing_a_replica_mid_batch_keeps_answers_byte_identical() {
    let db = dblp_db();
    let doomed = engine(&db);
    let survivor = engine(&db);
    let remote = RemoteBackend::new(
        (*db).clone(),
        &[
            doomed.local_addr().to_string(),
            survivor.local_addr().to_string(),
        ],
        fast_config(),
    )
    .unwrap();
    let pairs = term_pairs(&db, 16);
    let mut doomed = Some(doomed);
    for (i, (t1, t2)) in pairs.iter().enumerate() {
        // Kill the first replica with the batch half-done: in-flight
        // pooled connections die mid-stream, later queries must route
        // around the corpse without a wrong or lost answer.
        if i == pairs.len() / 2 {
            doomed.take().unwrap().shutdown();
        }
        let over_wire = meet(&remote, &[t1.as_str(), t2.as_str()]).unwrap();
        let local = db.meet_terms(&[t1.as_str(), t2.as_str()]).unwrap();
        assert_eq!(
            over_wire.to_detailed_xml(),
            local.to_detailed_xml(),
            "meet({t1}, {t2}) diverged after the replica died"
        );
    }
    let stats = remote.robustness_stats();
    assert!(
        stats.failovers > 0,
        "the dead replica forced failovers: {stats:?}"
    );
    survivor.shutdown();
}

#[test]
fn all_replicas_down_is_typed_and_bounded() {
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let remote = RemoteBackend::new(
        Database::from_xml_str(FIG).unwrap(),
        &[dead_endpoint().to_string(), dead_endpoint().to_string()],
        fast_config(),
    )
    .unwrap();
    let started = Instant::now();
    let err = remote.search("Bit").unwrap_err();
    let elapsed = started.elapsed();
    // Typed, never a panic or an empty hit set masquerading as an
    // answer.
    assert!(
        err.to_string().contains("unavailable"),
        "typed unavailability: {err}"
    );
    // Bounded: (1 + retry_rounds) rounds × 2 replicas × connect
    // timeout, plus backoff — the budget below has ~4× slack.
    assert!(
        elapsed < Duration::from_secs(10),
        "down-replica handling must not hang: {elapsed:?}"
    );
    drop(db);
}

#[test]
fn forest_with_a_down_corpus_degrades_to_typed_partial_answers() {
    let fig = Arc::new(Database::from_xml_str(FIG).unwrap());
    let remote_only = RemoteBackend::new(
        Database::from_xml_str(FIG).unwrap(),
        &[dead_endpoint().to_string()],
        fast_config(),
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog
        .add("local", Arc::clone(&fig) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
        .add("remote", Arc::new(remote_only) as Arc<dyn MeetBackend>)
        .unwrap();
    let forest = ForestBackend::new(catalog).unwrap();

    // USE * fan-out: the healthy corpus answers, the dead one degrades
    // to a typed partial marker — for the MEET verb and for the SQL
    // meet it abbreviates alike — and the robustness counters expose
    // it.
    let server = Server::start_backend(Arc::new(forest), ServerConfig::default());
    let client = server.client();
    let everywhere = |request: Request| {
        client
            .request(request.with_corpus(Some(ALL_CORPORA.into())))
            .unwrap()
    };
    let sql = "select meet(a, b) from % as a, % as b where a contains 'Bit' and b contains '1999'";
    let mut xml = Vec::new();
    for request in [Request::meet_terms(["Bit", "1999"]), Request::sql(sql)] {
        let response = everywhere(request);
        let Response::Answers(answers) = response else {
            panic!("expected answers, got {response:?}");
        };
        assert!(answers.is_partial(), "dead corpus must mark the answer");
        assert!(
            answers
                .results
                .iter()
                .all(|r| r.corpus.as_deref() == Some("local")),
            "healthy corpus still answers, tagged: {}",
            answers.to_detailed_xml()
        );
        assert!(!answers.results.is_empty());
        let text = answers.to_detailed_xml();
        assert!(
            text.contains("<partial corpus=\"remote\""),
            "typed partial rides the answer markup: {text}"
        );
        xml.push(text);
    }
    assert_eq!(xml[0], xml[1], "MEET and its SQL meet fan out alike");
    // A projection has no meet to fan out.
    match everywhere(Request::sql("select t from % as t")) {
        Response::Error(msg) => assert!(msg.contains("one corpus"), "{msg}"),
        other => panic!("a projection over * must be refused, got {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.partial_answers >= 2, "{stats:?}");
    assert!(
        stats.replicas_down >= 1 || stats.timeouts > 0 || stats.retries > 0,
        "router counters surface the dead replica: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn forest_with_a_down_default_corpus_fails_typed_never_empty() {
    let remote_only = RemoteBackend::new(
        Database::from_xml_str(FIG).unwrap(),
        &[dead_endpoint().to_string()],
        fast_config(),
    )
    .unwrap();
    let mut catalog = Catalog::new();
    // First added = default: unqualified queries route to the dead one.
    catalog
        .add("remote", Arc::new(remote_only) as Arc<dyn MeetBackend>)
        .unwrap();
    catalog
        .add(
            "local",
            Arc::new(Database::from_xml_str(FIG).unwrap()) as Arc<dyn MeetBackend>,
        )
        .unwrap();
    let forest = ForestBackend::new(catalog).unwrap();

    // In process: an outage is an error, not an empty hit set / answer.
    assert!(matches!(
        forest.search("Bit"),
        Err(BackendError::Unavailable { .. })
    ));
    assert!(matches!(
        meet(&forest, &["Bit", "1999"]),
        Err(QueryError::Backend { detail }) if detail.starts_with("engine unavailable")
    ));

    // On the wire: `ERR engine unavailable …`, never `OK 0`.
    let server = Server::start_backend(Arc::new(forest), ServerConfig::default());
    let mut out = Vec::new();
    serve_lines(
        &server.client(),
        "MEET Bit 1999\nSEARCH Bit\n".as_bytes(),
        &mut out,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.matches("ERR engine unavailable").count(), 2, "{out}");
    assert!(!out.contains("OK"), "{out}");
    server.shutdown();
}

#[test]
fn manifest_endpoint_entries_serve_through_remote_replicas() {
    let dir = std::env::temp_dir().join("ncq-distributed-manifest-test");
    std::fs::create_dir_all(&dir).unwrap();
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let snap: PathBuf = dir.join("fig.ncq");
    db.save_snapshot(&snap).unwrap();

    let replica = engine(&db);
    let mut manifest = Manifest::new();
    manifest
        .push(
            ManifestEntry::describe("fig", &snap)
                .unwrap()
                .with_endpoints([replica.local_addr().to_string()])
                .unwrap(),
        )
        .unwrap();
    let mpath = dir.join("forest.ncqm");
    manifest.save(&mpath).unwrap();

    let catalog = Catalog::open_manifest(&mpath, fast_config()).unwrap();
    let corpus = catalog.get("fig").unwrap();
    let via_manifest = meet(&**corpus, &["Bit", "1999"]).unwrap();
    let local = db.meet_terms(&["Bit", "1999"]).unwrap();
    assert_eq!(via_manifest.to_detailed_xml(), local.to_detailed_xml());

    replica.shutdown();
    for p in [&snap, &mpath] {
        std::fs::remove_file(p).ok();
    }
}

// ----- wire-level malformed input (the engine must answer typed
// errors or close — never panic, never hang) -----

#[test]
fn engine_survives_truncation_at_every_frame_prefix() {
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let eng = engine(&db);
    let mut framed = Vec::new();
    write_frame(
        &mut framed,
        &encode_request(&EngineRequest::Ping),
        DEFAULT_FRAME_CAP,
    )
    .unwrap();
    for cut in 0..framed.len() {
        let mut stream = TcpStream::connect(eng.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&framed[..cut]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The engine must close without answering (a truncated frame
        // has no recoverable boundary) — and without hanging.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "truncation at byte {cut} must not produce a response"
        );
    }
    // The engine still serves clean sessions afterwards.
    let mut stream = TcpStream::connect(eng.local_addr()).unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_FRAME_CAP).unwrap();
    assert_eq!(
        ncq_core::remote::decode_response(&reply).unwrap(),
        EngineResponse::Pong
    );
    eng.shutdown();
}

#[test]
fn engine_refuses_oversized_lengths_and_garbage_mid_stream() {
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let eng = engine(&db);

    // A length field past the cap: refused before any allocation, the
    // connection closes with no response.
    let mut stream = TcpStream::connect(eng.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut huge = Vec::new();
    huge.extend_from_slice(&(DEFAULT_FRAME_CAP + 1).to_le_bytes());
    huge.extend_from_slice(&0u64.to_le_bytes());
    stream.write_all(&huge).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "oversized length must not be answered");

    // Garbage after a valid frame: the valid request is answered, then
    // the stream desyncs and closes — the garbage never panics the
    // engine.
    let mut stream = TcpStream::connect(eng.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut framed = Vec::new();
    write_frame(
        &mut framed,
        &encode_request(&EngineRequest::Ping),
        DEFAULT_FRAME_CAP,
    )
    .unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_FRAME_CAP).unwrap();
    assert_eq!(
        ncq_core::remote::decode_response(&reply).unwrap(),
        EngineResponse::Pong
    );
    let garbage: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
    stream.write_all(&garbage).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "garbage must close, not answer");

    // Still alive for the next clean session.
    let mut stream = TcpStream::connect(eng.local_addr()).unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_FRAME_CAP).unwrap();
    assert_eq!(
        ncq_core::remote::decode_response(&reply).unwrap(),
        EngineResponse::Pong
    );
    eng.shutdown();
}

/// End-to-end trace stitching under fault injection: the coordinator's
/// trace id rides the wire envelope, the replica's engine seals a span
/// tree under the *same* id, and a refusing replica shows up in the
/// coordinator's trace as a failed `remote_attempt` span followed by a
/// `failover` event and a successful attempt on the healthy peer.
#[test]
fn trace_ids_propagate_over_the_wire_and_record_failover() {
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    let sick = engine(&db);
    let healthy = engine(&db);
    let proxy = ChaosProxy::bind(sick.local_addr(), ChaosSchedule::always(Fault::Refuse)).unwrap();
    let remote = RemoteBackend::new(
        Database::from_xml_str(FIG).unwrap(),
        &[
            proxy.local_addr().to_string(),
            healthy.local_addr().to_string(),
        ],
        fast_config(),
    )
    .unwrap();

    let id = ncq_obs::obs().next_trace_id();
    ncq_obs::obs().begin_trace(id);
    let answers = meet(&remote, &["Bit", "1999"]).unwrap();
    let sealed = ncq_obs::obs()
        .finish_trace()
        .expect("coordinator trace was active");
    assert!(answers.to_detailed_xml().contains("tag=\"article\""));
    assert_eq!(sealed.id, id);

    // Replicas sweep in order, so the refusing proxy is attempted
    // before the healthy peer: the trace records the failed attempt,
    // the failover, and the attempt that answered.
    let attempts = sealed.spans_named("remote_attempt");
    assert!(
        attempts.len() >= 2,
        "expected failed + failover attempts: {:#?}",
        sealed.spans
    );
    let outcomes: Vec<&str> = attempts
        .iter()
        .flat_map(|s| s.attrs.iter())
        .filter(|(k, _)| *k == "outcome")
        .map(|(_, v)| v.as_str())
        .collect();
    assert!(
        outcomes.iter().any(|o| o.starts_with("error")),
        "{outcomes:?}"
    );
    assert!(outcomes.contains(&"ok"), "{outcomes:?}");
    assert!(
        !sealed.spans_named("failover").is_empty(),
        "failover event missing: {:#?}",
        sealed.spans
    );

    // The replica engines run in-process here, so their span trees land
    // in the same global ring: every engine-side evaluation sealed a
    // trace under the coordinator's id — the cross-process stitch.
    let stitched = ncq_obs::obs()
        .recent_traces(256)
        .into_iter()
        .filter(|t| t.id == id && !t.spans_named("engine_eval").is_empty())
        .count();
    assert!(stitched >= 1, "no engine-side trace under id {id}");

    proxy.shutdown();
    sick.shutdown();
    healthy.shutdown();
}

/// A remote corpus has no local copy to save or swap: `SNAPSHOT SAVE`
/// and `SNAPSHOT LOAD` on a remote deployment, and `SNAPSHOT LOAD …
/// INTO` a remote corpus of a forest, answer a typed in-band refusal,
/// write nothing, and leave the deployment remote.
#[test]
fn snapshot_verbs_on_a_remote_corpus_are_refused_typed() {
    let dir = std::env::temp_dir().join("ncq-distributed-remote-snapshot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let db = Arc::new(Database::from_xml_str(FIG).unwrap());
    db.save_snapshot(dir.join("fig.ncq")).unwrap();
    let replica = engine(&db);
    let remote = || {
        let endpoints = [replica.local_addr().to_string()];
        let corpus = Database::from_xml_str(FIG).unwrap();
        Arc::new(RemoteBackend::new(corpus, &endpoints, fast_config()).unwrap())
    };
    let config = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let refusal = "ERR snapshot operation unsupported: a remote corpus is owned by its replicas";

    // A single remote corpus: both verbs refused, MEET still remote.
    let server = Server::start_backend(remote(), config.clone());
    let mut out = Vec::new();
    serve_lines(
        &server.client(),
        "SNAPSHOT SAVE copy.ncq\nSNAPSHOT LOAD fig.ncq\nMEET Bit 1999\n".as_bytes(),
        &mut out,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.matches(refusal).count(), 2, "{out}");
    assert!(out.contains("tag=\"article\""), "{out}");
    assert!(!dir.join("copy.ncq").exists(), "nothing was saved");
    let served = replica.served();
    assert!(server.client().meet_terms(["Bob", "Byte"]).is_ok());
    assert_eq!(replica.served(), served + 1, "the MEET still went remote");
    server.shutdown();

    // A forest: the per-corpus reload of the remote corpus is refused,
    // the local one still reloads.
    let mut catalog = Catalog::new();
    catalog
        .add("local", Arc::new(Database::from_xml_str(FIG).unwrap()))
        .unwrap();
    catalog
        .add("remote", remote() as Arc<dyn MeetBackend>)
        .unwrap();
    let server = Server::start_backend(Arc::new(ForestBackend::new(catalog).unwrap()), config);
    let mut out = Vec::new();
    serve_lines(
        &server.client(),
        "SNAPSHOT LOAD fig.ncq INTO remote\nSNAPSHOT LOAD fig.ncq INTO local\n\
         USE remote\nMEET Bit 1999\n"
            .as_bytes(),
        &mut out,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(
        out.contains(
            "ERR corpus \"remote\": snapshot operation unsupported: a remote corpus is owned by its replicas"
        ),
        "{out}"
    );
    assert!(out.contains("corpus \"local\" reloaded"), "{out}");
    assert!(out.contains("tag=\"article\""), "{out}");
    server.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The coordinator holds no corpus: the snapshot handed to
/// `RemoteBackend::new`, or opened by `Catalog::open_manifest` for an
/// entry with endpoints, is unmapped by the time construction returns.
#[cfg(target_os = "linux")]
#[test]
fn remote_construction_releases_the_snapshot_mapping() {
    let maps = || std::fs::read_to_string("/proc/self/maps").unwrap();
    let dir = std::env::temp_dir().join("ncq-distributed-maps-test");
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("fig-coordinator-copy.ncq");
    Database::from_xml_str(FIG)
        .unwrap()
        .save_snapshot(&copy)
        .unwrap();
    let listed = copy.to_str().unwrap().to_owned();

    let opened = Database::open_snapshot(&copy).unwrap();
    assert!(maps().contains(&listed), "an open snapshot is mapped");
    let remote = RemoteBackend::new(opened, &[dead_endpoint().to_string()], fast_config()).unwrap();
    assert!(
        !maps().contains(&listed),
        "RemoteBackend::new kept a mapping"
    );

    let mut manifest = Manifest::new();
    manifest
        .push(
            ManifestEntry::describe("fig", &copy)
                .unwrap()
                .with_endpoints([dead_endpoint().to_string()])
                .unwrap(),
        )
        .unwrap();
    let mpath = dir.join("forest.ncqm");
    manifest.save(&mpath).unwrap();
    let catalog = Catalog::open_manifest(&mpath, fast_config()).unwrap();
    assert!(
        !maps().contains(&listed),
        "Catalog::open_manifest kept a mapping"
    );
    assert!(catalog.get("fig").unwrap().store().is_none());
    drop((remote, catalog));
    std::fs::remove_dir_all(&dir).ok();
}
