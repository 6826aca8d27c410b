//! The untraced run: every end-to-end metric of one workload.
//!
//! Phases, in order, in one process and on one thread:
//! generate inputs → set up four times → oracle answers from the last
//! built `Database` → drop everything built and give its memory back →
//! start the serving stack from the snapshot → warm both caches →
//! measured closed-loop window over one TCP connection → read memory →
//! verify every reply → set up five more times (the fastest of the
//! nine is `setup_s`).

use crate::client::{read_reply, Expected, LineClient, Reply};
use crate::corpus::Scale;
use crate::stack::{
    oracle, release_freed_memory, setup_once, status_mb, us_since, BoxError, Scratch, SetupTimes,
    Stack,
};
use crate::stats::{fnv, low_n, percentile, sorted};
use crate::workload::{heavy_share, stream_hash, Query, WorkloadId};
use ncq_core::Database;
use ncq_server::{serve_lines, ServerStats};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Stream positions whose answers the oracle computes before the run.
pub const ORACLE_SAMPLE: usize = 512;
/// The in-process warm-up replays this many requests from the *end*
/// of the stream: more than the result cache holds (1024), so the
/// cache is full of entries the window will not ask for again before
/// they are evicted.
pub const WARM_SUFFIX: usize = 1536;
/// Set-up repetitions of a full run: four before the serving phase and
/// five after it, about 22 s apart. `setup_s` is the fastest of the
/// nine. The sandbox VM's host slows all compute by about 1.45x in
/// episodes of a hundredth of a second to a minute (70 back-to-back
/// repetitions read 0.67 s or 1.05 s, little in between). That only
/// ever adds time, so the minimum is the order statistic that repeats —
/// the median of five moved by 30 % between runs of identical code —
/// and two groups far apart in time seldom both sit in a slow episode.
const SETUP_REPS: (usize, usize) = (4, 5);

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl RunConfig {
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// TCP warm-up before the window: 3 s for a full run, shorter when
    /// the window is.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.2).clamp(0.2, 3.0))
    }
}

/// Facts about the generated inputs, printed next to the metrics.
#[derive(Debug, Clone, Default)]
pub struct InputFacts {
    pub xml_bytes: usize,
    pub xml_hash: u64,
    pub nodes: usize,
    pub max_depth: usize,
    pub distinct_terms: usize,
    pub distinct_queries: usize,
    pub stream_hash: u64,
    pub mean_answers: f64,
    pub snapshot_bytes: u64,
}

/// Everything the set-up phase leaves behind for the serving phase.
pub struct Prepared {
    pub stream: Vec<Query>,
    /// Oracle answers of `stream[..ORACLE_SAMPLE]`.
    pub expected: Vec<Expected>,
    pub setups: Vec<SetupTimes>,
    pub facts: InputFacts,
}

/// `n` back-to-back set-up repetitions, each starting with nothing
/// built; returns the last `Database` built.
fn setup_reps(
    cfg: &RunConfig,
    xml: &str,
    snapshot: &std::path::Path,
    first: &Query,
    n: usize,
    setups: &mut Vec<SetupTimes>,
) -> Result<Option<Database>, BoxError> {
    let mut built = None;
    for _ in 0..n {
        drop(built.take());
        let (times, db) = setup_once(xml, snapshot, cfg.workload.remote(), first)?;
        setups.push(times);
        built = Some(db);
    }
    Ok(built)
}

/// Generate the inputs, run the first group of set-up repetitions,
/// compute the oracle, then drop the XML and every built `Database`
/// and give their memory back. The snapshot stays at `snapshot`.
fn prepare(cfg: &RunConfig, snapshot: &std::path::Path, reps: usize) -> Result<Prepared, BoxError> {
    let corpus = cfg.workload.corpus(cfg.seed, cfg.scale());
    let stream = cfg.workload.stream(cfg.seed, &corpus.vocab);
    let mut setups = Vec::new();
    let db = setup_reps(cfg, &corpus.xml, snapshot, &stream[0], reps, &mut setups)?
        .expect("at least one set-up repetition");
    let sample = ORACLE_SAMPLE.min(stream.len());
    let expected = stream[..sample]
        .iter()
        .map(|q| oracle(&db, q))
        .collect::<Result<Vec<_>, _>>()?;
    let mean_answers =
        expected.iter().map(|e| e.answers).sum::<usize>() as f64 / expected.len().max(1) as f64;
    let depth = db.store().depth_stats();
    let facts = InputFacts {
        xml_bytes: corpus.xml.len(),
        xml_hash: fnv(corpus.xml.as_bytes()),
        nodes: db.store().node_count(),
        max_depth: depth.max_depth,
        distinct_terms: db.index().vocabulary_size(),
        distinct_queries: stream.len(),
        stream_hash: stream_hash(&stream),
        mean_answers,
        snapshot_bytes: std::fs::metadata(snapshot)?.len(),
    };
    drop(db);
    drop(corpus);
    release_freed_memory();
    Ok(Prepared {
        stream,
        expected,
        setups,
        facts,
    })
}

/// Replay `lines` through the line protocol in process and return the
/// framed replies — the warm-up path: same parser, same cache keys as
/// a socket session, without the socket.
fn replay_in_process(stack: &Stack, queries: &[Query]) -> Result<Vec<Reply>, BoxError> {
    let mut input = String::new();
    for q in queries {
        input.push_str(&q.line());
        input.push('\n');
    }
    let mut output = Vec::new();
    serve_lines(&stack.client(), input.as_bytes(), &mut output)?;
    let mut reader = output.as_slice();
    let mut line = String::new();
    let mut replies = Vec::with_capacity(queries.len());
    for _ in queries {
        replies.push(read_reply(&mut reader, &mut line)?);
    }
    Ok(replies)
}

/// Fill both caches: the tail of the stream through the line protocol
/// in process (twice for a stream shorter than the tail, so a hot
/// workload's second pass is all hits).
pub fn warm_caches(stack: &Stack, stream: &[Query]) -> Result<Vec<(usize, Reply)>, BoxError> {
    let from = stream.len().saturating_sub(WARM_SUFFIX);
    let mut seen = Vec::new();
    for _ in 0..if from == 0 { 2 } else { 1 } {
        let replies = replay_in_process(stack, &stream[from..])?;
        seen.extend(replies.into_iter().enumerate().map(|(i, r)| (from + i, r)));
    }
    Ok(seen)
}

/// Counter deltas of the server over a span of requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsDelta {
    pub served: usize,
    pub batches: usize,
    pub sem_hit_rate: f64,
    pub term_lookups: usize,
    pub term_hit_rate: f64,
}

pub fn stats_delta(before: &ServerStats, after: &ServerStats) -> StatsDelta {
    let rate = |hits: usize, misses: usize| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let sem_hits = after.sem_hits - before.sem_hits;
    let sem_misses = after.sem_misses - before.sem_misses;
    let term_hits = after.term_cache_hits - before.term_cache_hits;
    let term_decodes = after.term_decodes - before.term_decodes;
    StatsDelta {
        served: after.served - before.served,
        batches: after.batches - before.batches,
        sem_hit_rate: rate(sem_hits, sem_misses),
        term_lookups: term_hits + term_decodes,
        term_hit_rate: rate(term_hits, term_decodes),
    }
}

/// Check the result-cache behaviour a workload claims against what
/// the server counted.
pub fn check_result_cache_band(workload: WorkloadId, delta: &StatsDelta) -> Result<(), BoxError> {
    let (lo, hi) = workload.sem_hit_band();
    if !(lo..=hi).contains(&delta.sem_hit_rate) {
        return Err(format!(
            "{}: result-cache hit rate {:.4} outside [{lo}, {hi}]",
            workload.name(),
            delta.sem_hit_rate
        )
        .into());
    }
    Ok(())
}

/// The same for the worker term caches. Only the measured window is
/// held to it: the traced pass replays one prefix several times, so it
/// finds terms cached that a window would not.
fn check_term_cache_band(workload: WorkloadId, delta: &StatsDelta) -> Result<(), BoxError> {
    let Some((lo, hi)) = workload.term_hit_band() else {
        return Ok(());
    };
    if delta.term_lookups > 0 && !(lo..=hi).contains(&delta.term_hit_rate) {
        return Err(format!(
            "{}: term-cache hit rate {:.4} outside [{lo}, {hi}]",
            workload.name(),
            delta.term_hit_rate
        )
        .into());
    }
    Ok(())
}

/// Verification state across warm-up and window: sampled stream
/// positions compare against the oracle, every other position must
/// hash the same on every repeat.
pub struct Verifier<'a> {
    expected: &'a [Expected],
    first_seen: HashMap<usize, (Option<usize>, u64)>,
    pub attempted: usize,
    pub verified: usize,
    pub failed: usize,
}

impl<'a> Verifier<'a> {
    pub fn new(expected: &'a [Expected]) -> Verifier<'a> {
        Verifier {
            expected,
            first_seen: HashMap::new(),
            attempted: 0,
            verified: 0,
            failed: 0,
        }
    }

    /// Account for the reply to stream position `pos`.
    pub fn check(&mut self, pos: usize, reply: &Reply) {
        self.attempted += 1;
        let ok = match self.expected.get(pos) {
            Some(expected) => {
                self.verified += 1;
                expected.matches(reply)
            }
            None => {
                let seen = (reply.ok_lines, reply.payload_hash);
                reply.ok_lines.is_some() && *self.first_seen.entry(pos).or_insert(seen) == seen
            }
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// A request that got no reply at all.
    pub fn transport_failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// One request of a closed-loop pass.
struct Sample {
    pos: usize,
    latency_us: f64,
    reply: Option<Reply>,
}

/// One closed-loop pass over the TCP connection: send `lines[pos]`,
/// cycling from `start`, until `duration` has elapsed. Returns the
/// per-request records and the seconds the pass took.
fn closed_loop(
    client: &mut LineClient,
    lines: &[String],
    start: usize,
    duration: Duration,
) -> (Vec<Sample>, f64) {
    let mut samples = Vec::new();
    let began = Instant::now();
    let mut i = start;
    while began.elapsed() < duration {
        let pos = i % lines.len();
        let t0 = Instant::now();
        let reply = client.request(&lines[pos]).ok();
        let latency_us = us_since(t0);
        let lost = reply.is_none();
        samples.push(Sample {
            pos,
            latency_us,
            reply,
        });
        if lost {
            break; // the connection is gone; nothing more can be sent
        }
        i += 1;
    }
    (samples, began.elapsed().as_secs_f64())
}

/// The result of an untraced run.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub verified: usize,
    pub failed: usize,
    pub facts: InputFacts,
    pub window: StatsDelta,
    /// Latency samples of the window.
    pub samples: usize,
    /// Printed, not gated: see README.md, "End-to-end metrics".
    pub p99_us: f64,
    pub heavy_share: f64,
    pub setups: Vec<SetupTimes>,
    /// `serve_rss_mb` split into (heap and stacks, mapped snapshot).
    pub serve_rss_split: (f64, f64),
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, BoxError> {
    let scratch = Scratch::create()?;
    let snapshot = scratch.path("corpus.ncq");
    let (reps_before, reps_after) = if cfg.quick { (1, 0) } else { SETUP_REPS };
    let mut prepared = prepare(cfg, &snapshot, reps_before)?;
    let stream = &prepared.stream;
    let lines: Vec<String> = stream.iter().map(Query::line).collect();

    let stack = Stack::start(&snapshot, cfg.workload.remote())?;
    let mut verifier = Verifier::new(&prepared.expected);
    for (pos, reply) in warm_caches(&stack, stream)? {
        verifier.check(pos, &reply);
    }
    let mut client = LineClient::connect(stack.addr())?;
    let (warm, _) = closed_loop(&mut client, &lines, 0, cfg.warmup());
    let window_start = warm.len();

    let before = stack.stats();
    let (window, elapsed) = closed_loop(
        &mut client,
        &lines,
        window_start,
        Duration::from_secs_f64(cfg.seconds),
    );
    let after = stack.stats();
    // Live data, not what worker arenas keep of freed responses.
    release_freed_memory();
    let serve_rss_mb = status_mb("VmRSS");
    // The high-water mark is read here too, before the second group of
    // set-up repetitions: they build on the heap the serving phase
    // left behind and peak 0-15 MB higher from one run to the next.
    let peak_rss_mb = status_mb("VmHWM");
    let serve_rss_split = (status_mb("RssAnon"), status_mb("RssFile"));

    // Untimed from here: verification and bookkeeping.
    for sample in warm.iter().chain(&window) {
        match &sample.reply {
            Some(reply) => verifier.check(sample.pos, reply),
            None => verifier.transport_failure(),
        }
    }
    let completed = window.iter().filter(|s| s.reply.is_some()).count();
    let latencies = sorted(window.iter().map(|s| s.latency_us).collect());
    if latencies.is_empty() {
        return Err("the measured window completed no request".into());
    }
    let delta = stats_delta(&before, &after);
    let share = heavy_share(stream, window_start, window.len());
    drop(client);
    drop(stack);

    // The second group of set-up repetitions, on the same XML (the
    // first copy was dropped so that `serve_rss_mb` would not hold it).
    let xml = cfg.workload.corpus(cfg.seed, cfg.scale()).xml;
    setup_reps(
        cfg,
        &xml,
        &snapshot,
        &stream[0],
        reps_after,
        &mut prepared.setups,
    )?;

    let fastest_setup = prepared
        .setups
        .iter()
        .map(|s| s.total)
        .fold(f64::INFINITY, f64::min);
    let metrics = vec![
        ("qps", completed as f64 / elapsed),
        ("p50_us", percentile(&latencies, 50.0)),
        ("setup_s", fastest_setup),
        ("peak_rss_mb", peak_rss_mb),
        ("serve_rss_mb", serve_rss_mb),
        (
            "snapshot_bytes_per_xml_byte",
            prepared.facts.snapshot_bytes as f64 / prepared.facts.xml_bytes as f64,
        ),
    ];
    let outcome = Outcome {
        metrics,
        attempted: verifier.attempted,
        verified: verifier.verified,
        failed: verifier.failed,
        facts: prepared.facts,
        window: delta,
        samples: latencies.len(),
        p99_us: percentile(&latencies, 99.0),
        heavy_share: share,
        setups: prepared.setups,
        serve_rss_split,
    };
    check_result_cache_band(cfg.workload, &delta)?;
    check_term_cache_band(cfg.workload, &delta)?;
    // A window of a few dozen requests cannot hold the 1-in-20 mix.
    if window.len() >= 200 && !(0.04..=0.08).contains(&share) {
        return Err(format!("heavy-class share {share:.4} outside [0.04, 0.08]").into());
    }
    Ok(outcome)
}

/// Run, print the table and the result line. `Ok(false)`: the run
/// completed but some reply was wrong.
pub fn run_and_print(cfg: &RunConfig) -> Result<bool, BoxError> {
    let out = run(cfg)?;
    let f = &out.facts;
    println!(
        "workload {} seed {} window {} s{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.quick {
            " (quick: numbers compare with nothing)"
        } else {
            ""
        }
    );
    println!(
        "inputs: xml {} bytes (hash {:016x}), {} nodes, depth {}, {} distinct terms, \
         {} distinct queries (stream hash {:016x}), {:.1} answers/query, snapshot {} bytes",
        f.xml_bytes,
        f.xml_hash,
        f.nodes,
        f.max_depth,
        f.distinct_terms,
        f.distinct_queries,
        f.stream_hash,
        f.mean_answers,
        f.snapshot_bytes
    );
    println!("{:<30} {:>16} {:<6} n", "metric", "value", "unit");
    for (name, value) in &out.metrics {
        let n = match *name {
            "qps" | "p50_us" => out.samples,
            "setup_s" => out.setups.len(),
            _ => 1,
        };
        println!(
            "{name:<30} {value:>16.4} {:<6} {n}",
            crate::spec::unit_of(name)
        );
    }
    println!(
        "{:<30} {:>16.4} {:<6} {}{} (not gated)",
        "p99_us",
        out.p99_us,
        "us",
        out.samples,
        if low_n(out.samples, 99.0) {
            " low_n"
        } else {
            ""
        }
    );
    println!(
        "{:<30} {:>16.6} {:<6} {} (verified against the oracle: {}, failed: {})",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted,
        out.verified,
        out.failed
    );
    for (i, s) in out.setups.iter().enumerate() {
        println!(
            "set-up {i}: parse {:.3} build {:.3} meet_index {:.3} encode {:.3} serve_first {:.3} \
             total {:.3} s (+ file write {:.3}, not counted)",
            s.parse, s.build, s.meet_index, s.encode, s.serve_first, s.total, s.file_write
        );
    }
    println!(
        "serve_rss_mb = {:.1} anonymous + {:.1} mapped file",
        out.serve_rss_split.0, out.serve_rss_split.1
    );
    println!(
        "window: served {} in {} batches, result-cache hit rate {:.4}, term-cache hit rate {:.4} \
         over {} look-ups, heavy share {:.4}",
        out.window.served,
        out.window.batches,
        out.window.sem_hit_rate,
        out.window.term_hit_rate,
        out.window.term_lookups,
        out.heavy_share
    );
    let correct = out.failed == 0;
    println!(
        "{}",
        crate::spec::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_every_end_to_end_metric_and_no_failure() {
        let out = run(&RunConfig {
            workload: WorkloadId::DblpHot,
            seed: 11,
            seconds: 0.5,
            quick: true,
        })
        .unwrap();
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = crate::spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert!(out.metrics.iter().all(|(_, v)| *v > 0.0));
        assert_eq!(out.failed, 0);
        assert!(out.verified > 0 && out.attempted >= out.verified);
    }

    #[test]
    fn verifier_counts_oracle_mismatches_and_unstable_repeats() {
        let expected = [Expected::of("<answer>\n</answer>")];
        let mut v = Verifier::new(&expected);
        let good = Reply {
            ok_lines: Some(2),
            payload_hash: expected[0].hash,
        };
        let other = Reply {
            payload_hash: 1,
            ..good.clone()
        };
        v.check(0, &good);
        v.check(0, &other); // differs from the oracle
        v.check(9, &other); // unsampled: first sight is the reference
        v.check(9, &other);
        v.check(9, &good); // unsampled but changed between repeats
        v.check(
            9,
            &Reply {
                ok_lines: None,
                ..other.clone()
            },
        ); // ERR frame
        v.transport_failure();
        assert_eq!((v.attempted, v.verified, v.failed), (7, 2, 4));
    }
}
