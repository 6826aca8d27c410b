//! The traced pass: per-layer metrics of one workload.
//!
//! The program is not instrumented. Every layer is timed from outside
//! by replaying the first [`REPLAY`] requests of the workload's stream
//! one layer further in each time — over the socket, through
//! `serve_lines` on in-memory buffers, through `Client::request`,
//! through the `Database` calls the worker makes — and recording a
//! span around each call. Spans of one request share its id; a span's
//! parent is the same work measured one layer further out, so a
//! layer's self time is its span minus its children ([`SpanLog::self_us`]).
//! Spans stay in memory and are written to `perf/out/trace-W.jsonl`
//! when the pass ends.
//!
//! Every replay restarts the stream at request 0 and the stream holds
//! more distinct requests than the FIFO result cache holds entries, so
//! a cold workload misses on every replay and a hot one hits on every
//! replay — each pass sees the cache state the measured window sees.
//! The socket pass runs last and may stop early (it is the slow one).
//! Passes run at different moments, so a small self time is the
//! difference of two noisy medians and can come out slightly negative.

use crate::client::{read_reply, Expected, LineClient};
use crate::run::{
    check_result_cache_band, stats_delta, warm_caches, RunConfig, Verifier, ORACLE_SAMPLE,
    WARM_SUFFIX,
};
use crate::stack::{
    cold_start_once, oracle, release_freed_memory, status_mb, us_since, BoxError, Scratch, Stack,
};
use crate::stats::{median, percentile, sorted};
use crate::workload::{Parts, Query, WorkloadId};
use ncq_core::remote::{encode_request, encode_response};
use ncq_core::{
    AnswerSet, ChosenStrategy, Database, EngineRequest, EngineResponse, MeetOptions, RemoteBackend,
    RemoteConfig,
};
use ncq_fulltext::{HitSet, InvertedIndex};
use ncq_query::{parse_query, QueryOptions, QueryOutput};
use ncq_server::{serve_lines, EngineConfig, RemoteEngine, Response};
use ncq_shard::ShardedDb;
use ncq_store::{MonetDb, Oid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of the stream every in-process pass replays. More than the
/// result cache's 1024 entries (see the module comment).
const REPLAY: usize = 2000;
const REPLAY_QUICK: usize = 1100;
/// MEET requests sent through the remote hop or the sharded engine.
const SIDE_SAMPLE: usize = 200;
const LCA_PAIRS: usize = 100_000;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stream position of the request this span belongs to.
    pub request: u32,
    pub name: &'static str,
    /// Name of the enclosing span of the same request; `None` for a
    /// root, and for work measured for reference that the request did
    /// not do (evaluation of a request the result cache answered).
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span.
    pub fn record<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            request: request as u32,
            name,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    /// Duration of `name` per request (summed when a request has
    /// several, like one search per term), indexed by request.
    pub fn durations(&self, name: &str, requests: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; requests];
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out[s.request as usize].get_or_insert(0.0) += s.us();
        }
        out
    }

    /// Self time of `name` per request: its duration minus the
    /// durations of the spans of that request that name it as parent.
    pub fn self_us(&self, name: &str, requests: usize) -> Vec<Option<f64>> {
        let mut out = self.durations(name, requests);
        for s in self.spans.iter().filter(|s| s.parent == Some(name)) {
            if let Some(total) = out[s.request as usize].as_mut() {
                *total -= s.us();
            }
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
            writeln!(
                w,
                "{{\"request\": {}, \"span\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Median of the present values; 0 when a layer saw no request.
fn median_of(values: &[Option<f64>]) -> f64 {
    let v: Vec<f64> = values.iter().flatten().copied().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn ms(t: Instant) -> f64 {
    us_since(t) / 1e3
}

/// Ingest spans from one instrumented set-up repetition; returns the
/// built `Database` with the snapshot saved at `snapshot`.
fn ingest(
    xml: &str,
    snapshot: &std::path::Path,
    m: &mut Vec<(&'static str, f64)>,
) -> Result<Database, BoxError> {
    let rss_before = status_mb("VmRSS");
    let t = Instant::now();
    let doc = ncq_xml::parse(xml)?;
    let parse_ms = ms(t);
    m.push(("xml.parse_ms", parse_ms));
    m.push(("xml.parse_mb_s", xml.len() as f64 / 1e6 / (parse_ms / 1e3)));
    m.push(("xml.tree_rss_mb", status_mb("VmRSS") - rss_before));
    let t = Instant::now();
    let store = MonetDb::from_document(&doc);
    m.push(("store.transform_ms", ms(t)));
    let t = Instant::now();
    let index = InvertedIndex::build(&store);
    m.push(("fulltext.index_build_ms", ms(t)));
    drop((index, store));
    // `Database` cannot be assembled from parts; build it whole for
    // the steps that need one.
    let db = Database::from_document(&doc);
    drop(doc);
    let t = Instant::now();
    db.store().meet_index();
    m.push(("store.meet_index_ms", ms(t)));
    let t = Instant::now();
    db.save_snapshot(snapshot)?;
    m.push(("store.snapshot_save_ms", ms(t)));
    m.push((
        "store.snapshot_mb",
        std::fs::metadata(snapshot)?.len() as f64 / 1e6,
    ));
    Ok(db)
}

/// `cold_start_ms` (median of 21 cold starts), `snapshot_open_ms`
/// (median of five opens) and `first_touch_ms`: the first query on a
/// fresh open minus the same query warm.
fn open_and_first_touch(
    snapshot: &std::path::Path,
    first: &Query,
    expected: Expected,
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), BoxError> {
    let cold_starts = (0..21)
        .map(|_| cold_start_once(snapshot, first, expected))
        .collect::<Result<Vec<f64>, _>>()?;
    m.push(("store.cold_start_ms", median(&cold_starts)));
    let mut opens = Vec::new();
    let mut db = None;
    for _ in 0..5 {
        drop(db.take());
        let t = Instant::now();
        db = Some(Database::open_snapshot(snapshot)?);
        opens.push(ms(t));
    }
    let db = db.expect("five opens");
    let t = Instant::now();
    black_box(oracle(&db, first)?);
    let cold = ms(t);
    let t = Instant::now();
    black_box(oracle(&db, first)?);
    m.push(("store.snapshot_open_ms", median(&opens)));
    m.push(("store.first_touch_ms", cold - ms(t)));
    Ok(())
}

/// `store.lca_ns` and `simd.intersect_melem_s` on the workload's own
/// hit sets.
fn micro(db: &Database, stream: &[Query], seed: u64, m: &mut Vec<(&'static str, f64)>) {
    // Owner columns of every term the first requests use, longest first.
    let mut columns: Vec<Vec<Oid>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for q in stream.iter().take(200) {
        if let Parts::Meet(terms, _) = q.parts() {
            for term in terms {
                if seen.insert(term.to_owned()) {
                    let mut oids: Vec<Oid> = db.search(term).iter().map(|(_, o)| o).collect();
                    oids.sort_unstable();
                    oids.dedup();
                    columns.push(oids);
                }
            }
        }
    }
    columns.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let pool: Vec<Oid> = columns.iter().flatten().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1CA);
    let pairs: Vec<(Oid, Oid)> = (0..LCA_PAIRS)
        .map(|_| {
            (
                pool[rng.random_range(0..pool.len())],
                pool[rng.random_range(0..pool.len())],
            )
        })
        .collect();
    let t = Instant::now();
    for &(a, b) in &pairs {
        black_box(db.meet_pair(black_box(a), black_box(b)));
    }
    m.push((
        "store.lca_ns",
        t.elapsed().as_nanos() as f64 / LCA_PAIRS as f64,
    ));

    let (a, b) = (Oid::raw_slice(&columns[0]), Oid::raw_slice(&columns[1]));
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let reps = (20_000_000 / (a.len() + b.len()).max(1)).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        out.clear();
        ncq_simd::intersect_u32_into(black_box(a), black_box(b), &mut out);
        black_box(&out);
    }
    m.push((
        "simd.intersect_melem_s",
        ((a.len() + b.len()) * reps) as f64 / 1e6 / t.elapsed().as_secs_f64(),
    ));
}

/// What pass C learned about one request.
#[derive(Default, Clone, Copy)]
struct CoreFacts {
    postings: usize,
    answers: usize,
    sweep: bool,
    is_meet: bool,
}

/// Pass C: the calls a worker makes for request `i`, on `db` directly.
/// `on_path` is whether pass Q saw the request evaluated (a result-
/// cache miss); otherwise the spans are recorded parentless.
fn core_pass(
    log: &mut SpanLog,
    db: &Database,
    i: usize,
    query: &Query,
    on_path: bool,
) -> Result<CoreFacts, BoxError> {
    let under = |name: &'static str| on_path.then_some(name);
    match query.parts() {
        Parts::Meet(terms, options) => {
            // Whole call and split, order alternating by request so
            // neither always runs on the other's warm cache lines.
            let whole = |log: &mut SpanLog| {
                log.record(i, "core.meet_terms", under("server.request"), || {
                    black_box(db.meet_terms_with(&terms, &options))
                })
            };
            if i.is_multiple_of(2) {
                whole(log)?;
            }
            let inputs: Vec<HitSet> = terms
                .iter()
                .map(|t| {
                    log.record(i, "fulltext.search", Some("core.meet_terms"), || {
                        db.search(t)
                    })
                })
                .collect();
            let plan = log.record(i, "core.plan", Some("core.meet_terms"), || {
                db.planner().plan_multi(&inputs)
            });
            let meets = log.record(i, "core.meet", Some("core.meet_terms"), || {
                db.meet_hits(&inputs, &options)
            });
            let answers = log.record(i, "core.answer", Some("core.meet_terms"), || {
                AnswerSet::from_meets(db.store(), meets)
            });
            log.record(i, "core.serialize", Some("server.lines"), || {
                black_box(answers.to_detailed_xml())
            });
            if !i.is_multiple_of(2) {
                whole(log)?;
            }
            Ok(CoreFacts {
                postings: inputs.iter().map(HitSet::len).sum(),
                answers: answers.len(),
                sweep: plan.strategy == ChosenStrategy::Sweep,
                is_meet: true,
            })
        }
        Parts::Sql(src) => {
            let parsed = log.record(i, "query.parse", under("server.request"), || {
                parse_query(src)
            })?;
            let output = log.record(i, "query.eval", under("server.request"), || {
                ncq_query::eval::evaluate(db, &parsed, &QueryOptions::default())
            })?;
            log.record(
                i,
                "core.serialize",
                Some("server.lines"),
                || match &output {
                    QueryOutput::Answers(a) => black_box(a.to_detailed_xml()),
                    QueryOutput::Rows(r) => black_box(r.to_answer_xml()),
                },
            );
            Ok(CoreFacts::default())
        }
    }
}

/// The first [`SIDE_SAMPLE`] MEET requests of the stream, in the
/// engine's terms.
fn side_sample(stream: &[Query]) -> impl Iterator<Item = (Vec<&str>, MeetOptions)> {
    stream
        .iter()
        .filter_map(|q| match q.parts() {
            Parts::Meet(terms, options) => Some((terms, options)),
            Parts::Sql(_) => None,
        })
        .take(SIDE_SAMPLE)
}

/// The remote hop taken apart (`remote_dblp`, the one workload with
/// the hop on its path): one `RemoteBackend::call` per term search and
/// one per meet, against a `RemoteEngine` on loopback.
fn remote_hop(
    snapshot: &std::path::Path,
    db: &Arc<Database>,
    stream: &[Query],
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), BoxError> {
    let engine = RemoteEngine::bind(
        "127.0.0.1:0",
        Arc::clone(db) as Arc<dyn ncq_core::MeetBackend>,
        EngineConfig::default(),
    )?;
    let backend = RemoteBackend::new(
        Database::open_snapshot(snapshot)?,
        &[engine.local_addr().to_string()],
        RemoteConfig::default(),
    )?;
    let (mut search_us, mut call_us, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    for (terms, options) in side_sample(stream) {
        let mut bytes = 0;
        let mut inputs = Vec::with_capacity(terms.len());
        for term in terms {
            let request = EngineRequest::Search {
                term: term.to_owned(),
            };
            let t = Instant::now();
            let response = backend.call(&request)?;
            search_us.push(us_since(t));
            bytes += encode_request(&request).len() + encode_response(&response).len();
            match response {
                EngineResponse::Hits(hits) => inputs.push(hits),
                other => return Err(format!("remote search answered {other:?}").into()),
            }
        }
        let request = EngineRequest::Meet { inputs, options };
        let t = Instant::now();
        let response = backend.call(&request)?;
        call_us.push(us_since(t));
        bytes += encode_request(&request).len() + encode_response(&response).len();
        wire.push(bytes as f64);
    }
    m.push(("server.remote_call_us", median(&call_us)));
    m.push(("server.remote_search_us", median(&search_us)));
    m.push((
        "server.remote_wire_bytes_per_req",
        wire.iter().sum::<f64>() / wire.len() as f64,
    ));
    Ok(())
}

/// The 2-shard engine against the single one on the same inputs, back
/// to back (`deep_sweep`: the workload whose meets are long enough for
/// the scatter to matter).
fn sharded(db: &Arc<Database>, stream: &[Query], m: &mut Vec<(&'static str, f64)>) {
    let sharded = ShardedDb::new(Arc::clone(db), 2);
    let (mut single_us, mut shard_us) = (Vec::new(), Vec::new());
    for (terms, options) in side_sample(stream) {
        let inputs: Vec<HitSet> = terms.iter().map(|t| db.search(t)).collect();
        let t = Instant::now();
        black_box(db.meet_hits(&inputs, &options));
        single_us.push(us_since(t));
        let t = Instant::now();
        black_box(sharded.meet_hits(&inputs, &options));
        shard_us.push(us_since(t));
    }
    m.push(("shard.meet_us", median(&shard_us)));
    m.push(("shard.speedup", median(&single_us) / median(&shard_us)));
}

fn vector_share(before: ncq_simd::DispatchStats, after: ncq_simd::DispatchStats) -> f64 {
    let vector = after.total_vector() - before.total_vector();
    let scalar = after.total_scalar() - before.total_scalar();
    if vector + scalar == 0 {
        0.0
    } else {
        vector as f64 / (vector + scalar) as f64
    }
}

pub fn run_and_print(cfg: &RunConfig) -> Result<bool, BoxError> {
    let scratch = Scratch::create()?;
    let snapshot = scratch.path("corpus.ncq");
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Ingest, oracle, then let go of everything built.
    let corpus = cfg.workload.corpus(cfg.seed, cfg.scale());
    let stream = cfg.workload.stream(cfg.seed, &corpus.vocab);
    let built = ingest(&corpus.xml, &snapshot, &mut m)?;
    let expected = stream[..ORACLE_SAMPLE.min(stream.len())]
        .iter()
        .map(|q| oracle(&built, q))
        .collect::<Result<Vec<_>, _>>()?;
    drop((built, corpus));
    release_freed_memory();
    open_and_first_touch(&snapshot, &stream[0], expected[0], &mut m)?;

    let n = if cfg.quick { REPLAY_QUICK } else { REPLAY };
    // A hot stream is shorter than the replay and simply cycles; a
    // cold one must keep the replayed prefix clear of the warmed tail.
    assert!(
        stream.len() < WARM_SUFFIX || n + WARM_SUFFIX <= stream.len(),
        "replayed prefix overlaps the warm-up tail"
    );
    let at = |i: usize| &stream[i % stream.len()];
    let db = Arc::new(Database::open_snapshot(&snapshot)?);
    micro(&db, &stream, cfg.seed, &mut m);
    // Layers off a workload's path read 0 there.
    if cfg.workload.remote() {
        remote_hop(&snapshot, &db, &stream, &mut m)?;
    } else {
        m.extend(
            [
                "server.remote_call_us",
                "server.remote_search_us",
                "server.remote_wire_bytes_per_req",
            ]
            .map(|name| (name, 0.0)),
        );
    }
    if cfg.workload == WorkloadId::DeepSweep {
        sharded(&db, &stream, &mut m);
    } else {
        m.extend(["shard.meet_us", "shard.speedup"].map(|name| (name, 0.0)));
    }

    let stack = Stack::start(&snapshot, cfg.workload.remote())?;
    let mut verifier = Verifier::new(&expected);
    for (pos, reply) in warm_caches(&stack, &stream)? {
        verifier.check(pos, &reply);
    }
    let mut log = SpanLog::new();
    let client = stack.client();
    let simd_before = ncq_simd::dispatch_stats();
    let stats_before = stack.stats();

    // Passes L and Q, two cycles over the prefix. L sends a request
    // through the line protocol on in-memory buffers, Q through the
    // admission queue alone. Each cycle does L for one half of the
    // requests and Q for the other, the halves swapping in between, so
    // neither layer is always measured on the earlier, cooler cycle.
    let mut response_bytes = 0usize;
    let (mut buffer, mut scratch_line) = (Vec::new(), String::new());
    let mut evaluated = vec![false; n];
    for cycle in 0..2 {
        for (i, evaluated) in evaluated.iter_mut().enumerate() {
            if (i + cycle) % 2 == 0 {
                let line = at(i).line();
                buffer.clear();
                log.record(i, "server.lines", Some("server.tcp"), || {
                    serve_lines(&client, line.as_bytes(), &mut buffer)
                })?;
                response_bytes += buffer.len();
                let reply = read_reply(&mut buffer.as_slice(), &mut scratch_line)?;
                verifier.check(i % stream.len(), &reply);
            } else {
                let misses_before = stack.stats().sem_misses;
                let request = at(i).request();
                let response = log.record(i, "server.request", Some("server.lines"), || {
                    client.request(request)
                })?;
                if let Response::Error(msg) = response {
                    return Err(format!("request {i} failed in process: {msg}").into());
                }
                *evaluated = stack.stats().sem_misses > misses_before;
            }
        }
    }

    // Pass C: the engine calls, no server in between.
    let facts = evaluated
        .iter()
        .enumerate()
        .map(|(i, &on_path)| core_pass(&mut log, &db, i, at(i), on_path))
        .collect::<Result<Vec<CoreFacts>, _>>()?;
    // Pass T: the socket, last and time-bounded. Odd requests skip the
    // span recording; their p50 against the even ones' is the overhead.
    let mut tcp = LineClient::connect(stack.addr())?;
    let mut pings = Vec::new();
    for _ in 0..if cfg.quick { 10 } else { 30 } {
        let t = Instant::now();
        tcp.request("PING")?;
        pings.push(us_since(t));
    }
    let budget = Duration::from_secs_f64(cfg.seconds * 0.6);
    let began = Instant::now();
    let (mut traced_us, mut untraced_us) = (Vec::new(), Vec::new());
    let mut sent = 0;
    while sent < n && began.elapsed() < budget {
        let line = at(sent).line();
        let pos = sent % stream.len();
        if sent % 2 == 0 {
            let before = log.spans.len();
            let reply = log.record(sent, "server.tcp", None, || tcp.request(&line))?;
            traced_us.push(log.spans[before].us());
            verifier.check(pos, &reply);
        } else {
            let t = Instant::now();
            let reply = tcp.request(&line)?;
            untraced_us.push(us_since(t));
            verifier.check(pos, &reply);
        }
        sent += 1;
    }
    drop(tcp);
    let stats_after = stack.stats();
    let simd_after = ncq_simd::dispatch_stats();
    drop(stack);

    // Per-layer metrics: medians over requests.
    let tcp_us = sorted(traced_us.iter().chain(&untraced_us).copied().collect());
    let delta = stats_delta(&stats_before, &stats_after);
    let meets: Vec<&CoreFacts> = facts.iter().filter(|f| f.is_meet).collect();
    let mean = |f: &dyn Fn(&CoreFacts) -> f64| {
        meets.iter().map(|c| f(c)).sum::<f64>() / meets.len().max(1) as f64
    };
    let whole = log.durations("core.meet_terms", n);
    let split_self = log.self_us("core.meet_terms", n);
    let coverage: Vec<Option<f64>> = whole
        .iter()
        .zip(&split_self)
        .map(|(w, s)| Some(1.0 - (*s)? / (*w)?))
        .collect();
    let coverage = median_of(&coverage);
    let sweep_share = mean(&|c| f64::from(u8::from(c.sweep)));
    let vector_share = vector_share(simd_before, simd_after);
    m.extend([
        ("server.tcp_ping_us", median(&pings)),
        ("server.tcp_us", percentile(&tcp_us, 50.0)),
        ("server.tcp_p99_us", percentile(&tcp_us, 99.0)),
        (
            "server.lines_us",
            median_of(&log.durations("server.lines", n)),
        ),
        (
            "server.request_us",
            median_of(&log.durations("server.request", n)),
        ),
        (
            "server.socket_self_us",
            median_of(&log.self_us("server.tcp", n)),
        ),
        (
            "server.protocol_self_us",
            median_of(&log.self_us("server.lines", n)),
        ),
        (
            "server.queue_self_us",
            median_of(&log.self_us("server.request", n)),
        ),
        ("server.sem_hit_rate", delta.sem_hit_rate),
        ("server.term_cache_hit_rate", delta.term_hit_rate),
        (
            "server.batch_mean",
            delta.served as f64 / delta.batches.max(1) as f64,
        ),
        (
            "server.resp_bytes_per_req",
            response_bytes as f64 / n as f64,
        ),
        ("core.meet_terms_us", median_of(&whole)),
        ("core.split_coverage", coverage),
        (
            "fulltext.search_us",
            median_of(&log.durations("fulltext.search", n)),
        ),
        ("fulltext.postings_per_req", mean(&|c| c.postings as f64)),
        ("core.plan_us", median_of(&log.durations("core.plan", n))),
        ("core.sweep_share", sweep_share),
        ("core.meet_us", median_of(&log.durations("core.meet", n))),
        (
            "core.answer_us",
            median_of(&log.durations("core.answer", n)),
        ),
        ("core.answers_per_req", mean(&|c| c.answers as f64)),
        (
            "core.serialize_us",
            median_of(&log.durations("core.serialize", n)),
        ),
        (
            "query.parse_us",
            median_of(&log.durations("query.parse", n)),
        ),
        ("query.eval_us", median_of(&log.durations("query.eval", n))),
        ("simd.vector_call_share", vector_share),
        (
            "bench.trace_overhead",
            median(&traced_us) / median(&untraced_us),
        ),
    ]);

    let out = crate::stack::out_dir().join(format!("trace-{}.jsonl", cfg.workload.name()));
    log.write_jsonl(&out)?;

    // Print in the declared order; every declared metric must be there.
    println!(
        "workload {} seed {} traced pass: {n} requests replayed per layer, {sent} over the socket{}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.quick { " (quick: numbers compare with nothing)" } else { "" }
    );
    println!("{:<34} {:>16} unit", "metric", "value");
    let mut ordered = Vec::with_capacity(crate::spec::PER_LAYER.len());
    for spec in &crate::spec::PER_LAYER {
        let value = m
            .iter()
            .find_map(|(name, v)| (*name == spec.name).then_some(*v))
            .ok_or_else(|| format!("traced pass did not measure {}", spec.name))?;
        println!("{:<34} {value:>16.4} {}", spec.name, spec.unit);
        ordered.push((spec.name, value));
    }
    println!("spans: {} in {}", log.spans.len(), out.display());
    println!(
        "verified {} replies ({} against the oracle), failed {}",
        verifier.attempted, verifier.verified, verifier.failed
    );
    let correct = verifier.failed == 0;
    println!(
        "{}",
        crate::spec::result_line(correct, verifier.attempted, verifier.failed, &ordered)
    );

    // The workload is what it claims.
    check_result_cache_band(cfg.workload, &delta)?;
    if (coverage - 1.0).abs() > 0.10 {
        return Err(format!(
            "search + plan + meet + answer covers {coverage:.3} of meet_terms_with"
        )
        .into());
    }
    if cfg.workload == WorkloadId::DeepSweep && (sweep_share < 0.90 || vector_share <= 0.0) {
        return Err(format!(
            "deep_sweep: sweep share {sweep_share:.3} (need >= 0.90), \
             vector call share {vector_share:.4} (need > 0)"
        )
        .into());
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request: u32,
        name: &'static str,
        parent: Option<&'static str>,
        a: u64,
        b: u64,
    ) -> Span {
        Span {
            request,
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut log = SpanLog::new();
        log.spans = vec![
            span(0, "server.tcp", None, 0, 100_000),
            span(0, "server.lines", Some("server.tcp"), 200_000, 260_000),
            span(0, "server.request", Some("server.lines"), 300_000, 340_000),
            span(0, "core.serialize", Some("server.lines"), 400_000, 405_000),
            // Two searches of one request add up.
            span(0, "fulltext.search", Some("core.meet_terms"), 0, 1_000),
            span(0, "fulltext.search", Some("core.meet_terms"), 0, 2_000),
            // Request 1 was answered by the cache: its evaluation is
            // recorded parentless and must not be charged to anyone.
            span(1, "server.request", Some("server.lines"), 0, 10_000),
            span(1, "core.meet_terms", None, 0, 500_000),
        ];
        assert_eq!(log.self_us("server.tcp", 2), vec![Some(40.0), None]);
        assert_eq!(log.self_us("server.lines", 2), vec![Some(15.0), None]);
        assert_eq!(
            log.self_us("server.request", 2),
            vec![Some(40.0), Some(10.0)]
        );
        assert_eq!(log.durations("fulltext.search", 2), vec![Some(3.0), None]);
        // A child without its parent span (request 1 never went over
        // the socket) changes nothing.
        assert_eq!(log.durations("server.tcp", 2)[1], None);
    }

    #[test]
    fn quick_traced_pass_measures_every_declared_layer() {
        let cfg = RunConfig {
            workload: WorkloadId::DeepSweep,
            seed: 12,
            seconds: 1.0,
            quick: true,
        };
        assert!(run_and_print(&cfg).unwrap());
        let trace = crate::stack::out_dir().join("trace-deep_sweep.jsonl");
        let text = std::fs::read_to_string(trace).unwrap();
        assert!(text.lines().count() > REPLAY_QUICK);
        assert!(text.contains("\"span\": \"core.meet\", \"parent\": \"core.meet_terms\""));
    }

    #[test]
    fn record_times_the_closure_and_keeps_its_value() {
        let mut log = SpanLog::new();
        let v = log.record(3, "core.plan", Some("core.meet_terms"), || 7);
        assert_eq!(v, 7);
        let s = &log.spans[0];
        assert_eq!(
            (s.request, s.name, s.parent),
            (3, "core.plan", Some("core.meet_terms"))
        );
        assert!(s.end_ns >= s.start_ns);
    }
}
