//! The four workloads: which corpus, which request stream, and what
//! the run must observe for the workload to be what it claims.
//!
//! A stream is a seeded list of distinct requests, sent in order and
//! cycled. It is built in blocks of [`BLOCK`] requests that each hold
//! the workload's exact mix (one heavy request per block), shuffled
//! inside the block: any window of the stream then has the same class
//! shares whatever the seed, so p99 — which falls inside the heavy
//! class — does not depend on how many heavy requests a seed happened
//! to deal into the window.

use crate::corpus::{self, Corpus, Scale, Vocab};
use crate::stats::Fnv;
use ncq_core::MeetOptions;
use ncq_server::Request;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Requests per mix block; 1 in 20 is heavy (5 %).
pub const BLOCK: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    DblpHot,
    DblpCold,
    DeepSweep,
    RemoteDblp,
}

pub const ALL: [WorkloadId; 4] = [
    WorkloadId::DblpHot,
    WorkloadId::DblpCold,
    WorkloadId::DeepSweep,
    WorkloadId::RemoteDblp,
];

impl WorkloadId {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::DblpHot => "dblp_hot",
            WorkloadId::DblpCold => "dblp_cold",
            WorkloadId::DeepSweep => "deep_sweep",
            WorkloadId::RemoteDblp => "remote_dblp",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The front server routes to a `RemoteEngine` on loopback.
    pub fn remote(self) -> bool {
        self == WorkloadId::RemoteDblp
    }

    /// Allowed band for the result-cache hit rate over the window.
    pub fn sem_hit_band(self) -> (f64, f64) {
        match self {
            WorkloadId::DblpHot => (0.98, 1.0),
            _ => (0.0, 0.02),
        }
    }

    /// Allowed band for the worker term-cache hit rate over the window
    /// (`None`: no term look-ups are expected at all).
    pub fn term_hit_band(self) -> Option<(f64, f64)> {
        match self {
            WorkloadId::DblpHot => None,
            WorkloadId::DblpCold | WorkloadId::RemoteDblp => Some((0.95, 1.0)),
            WorkloadId::DeepSweep => Some((0.0, 0.8)),
        }
    }

    pub fn corpus(self, seed: u64, scale: Scale) -> Corpus {
        match self {
            WorkloadId::DeepSweep => corpus::deep(seed, scale),
            _ => corpus::dblp(seed, scale),
        }
    }

    /// The request stream over `vocab`, in send order.
    pub fn stream(self, seed: u64, vocab: &Vocab) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57EA);
        match (self, vocab) {
            (WorkloadId::DblpHot, Vocab::Dblp { .. }) => dblp_hot(&mut rng, vocab),
            (WorkloadId::DblpCold | WorkloadId::RemoteDblp, Vocab::Dblp { .. }) => {
                dblp_cold(&mut rng, vocab)
            }
            (WorkloadId::DeepSweep, Vocab::Deep { tokens }) => deep_sweep(&mut rng, tokens),
            _ => unreachable!("workload {self:?} built over the wrong corpus"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Kind {
    Meet {
        terms: Vec<String>,
        within: Option<usize>,
        limit: Option<usize>,
    },
    Sql(String),
}

/// A request in the engine's own terms (see [`Query::parts`]).
pub enum Parts<'a> {
    Meet(Vec<&'a str>, MeetOptions),
    Sql(&'a str),
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    /// Member of the workload's heavy class.
    pub heavy: bool,
}

impl Query {
    fn meet(terms: Vec<String>, within: Option<usize>, limit: Option<usize>) -> Query {
        Query {
            kind: Kind::Meet {
                terms,
                within,
                limit,
            },
            heavy: false,
        }
    }

    fn heavy(mut self) -> Query {
        self.heavy = true;
        self
    }

    /// The request as one protocol line (no newline).
    pub fn line(&self) -> String {
        match &self.kind {
            Kind::Meet {
                terms,
                within,
                limit,
            } => {
                let mut line = format!("MEET {}", terms.join(" "));
                if let Some(d) = within {
                    line.push_str(&format!(" WITHIN {d}"));
                }
                if let Some(k) = limit {
                    line.push_str(&format!(" LIMIT {k}"));
                }
                line
            }
            Kind::Sql(src) => format!("SQL {src}"),
        }
    }

    /// The request as the engine takes it.
    pub fn parts(&self) -> Parts<'_> {
        match &self.kind {
            Kind::Meet {
                terms,
                within,
                limit,
            } => Parts::Meet(
                terms.iter().map(String::as_str).collect(),
                MeetOptions {
                    max_distance: *within,
                    limit: *limit,
                    ..MeetOptions::default()
                },
            ),
            Kind::Sql(src) => Parts::Sql(src),
        }
    }

    /// The request as the line protocol would admit it.
    pub fn request(&self) -> Request {
        match &self.kind {
            Kind::Meet {
                terms,
                within,
                limit,
            } => Request::MeetTerms {
                terms: terms.clone(),
                within: *within,
                limit: *limit,
                corpus: None,
            },
            Kind::Sql(src) => Request::sql(src.clone()),
        }
    }
}

/// Hash of a stream's request lines, in order.
pub fn stream_hash(stream: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for q in stream {
        h.write(q.line().as_bytes());
        h.write(b"\n");
    }
    h.0
}

/// Share of heavy requests among `stream[from..from + n]` (cycled).
pub fn heavy_share(stream: &[Query], from: usize, n: usize) -> f64 {
    let heavy = (from..from + n)
        .filter(|i| stream[i % stream.len()].heavy)
        .count();
    heavy as f64 / n.max(1) as f64
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// Draw from `make` until `seen` accepts a new query.
fn distinct(seen: &mut HashSet<Kind>, mut make: impl FnMut() -> Query) -> Query {
    loop {
        let q = make();
        if seen.insert(q.kind.clone()) {
            return q;
        }
    }
}

/// Assemble `blocks` mix blocks: each takes `counts[i]` queries from
/// generator `i`, then shuffles them.
fn blocks(
    rng: &mut StdRng,
    blocks: usize,
    counts: &[usize],
    mut make: impl FnMut(&mut StdRng, usize) -> Query,
) -> Vec<Query> {
    assert_eq!(counts.iter().sum::<usize>(), BLOCK);
    let mut seen = HashSet::new();
    let mut stream = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let start = stream.len();
        for (class, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                stream.push(distinct(&mut seen, || make(rng, class)));
            }
        }
        shuffle(rng, &mut stream[start..]);
    }
    stream
}

/// Listing 2 of the paper. The first needle is the tail of the
/// edition's key (`cde99` of `conf/icde99`): the index holds no such
/// word, so `contains` falls back to the substring scan over every
/// string of the corpus, and the hits — key attributes and crossrefs of
/// one edition — keep the answer the size of a `<conf> <year>` MEET.
fn listing2(conf: &str, year: u16) -> Query {
    Query {
        kind: Kind::Sql(format!(
            "select meet(t1, t2) from dblp/% as t1, dblp/% as t2 \
             where t1 contains '{}{}' and t2 contains '{}'",
            &conf.to_lowercase()[1..],
            year % 100,
            year
        )),
        heavy: false,
    }
}

fn dblp_parts(vocab: &Vocab) -> (&[String], &[u16], &[&'static str]) {
    match vocab {
        Vocab::Dblp {
            conferences,
            years,
            last_names,
        } => (conferences, years, last_names),
        Vocab::Deep { .. } => unreachable!("dblp workload over the deep corpus"),
    }
}

/// Either term order: the result cache keys on it, so `<a> <b>` and
/// `<b> <a>` are distinct requests over the same hit sets.
fn pair(rng: &mut StdRng, a: String, b: String) -> Vec<String> {
    if rng.random_bool() {
        vec![a, b]
    } else {
        vec![b, a]
    }
}

/// 64 requests in four chunks of 16, one heavy (three terms, about
/// 100 answers) per chunk: 6.25 % heavy, and the whole cycle fits the
/// result cache sixteen times over.
fn dblp_hot(rng: &mut StdRng, vocab: &Vocab) -> Vec<Query> {
    let (confs, years, names) = dblp_parts(vocab);
    let mut seen = HashSet::new();
    let mut stream: Vec<Query> = (0..64)
        .map(|i| {
            distinct(&mut seen, || {
                let conf = pick(rng, confs).clone();
                let year = pick(rng, years).to_string();
                if i % 16 == 0 {
                    let name = pick(rng, names).to_string();
                    Query::meet(vec![conf, year, name], None, None).heavy()
                } else {
                    Query::meet(vec![conf, year], None, None)
                }
            })
        })
        .collect();
    // One heavy request per 16, at a seeded place inside its 16.
    for chunk in stream.chunks_mut(16) {
        shuffle(rng, chunk);
    }
    stream
}

/// The paper's mix, 410 blocks (8200 distinct requests).
fn dblp_cold(rng: &mut StdRng, vocab: &Vocab) -> Vec<Query> {
    let (confs, years, names) = dblp_parts(vocab);
    blocks(rng, 410, &[11, 5, 3, 1], |rng, class| {
        let conf = pick(rng, confs).clone();
        let year = *pick(rng, years);
        let name = pick(rng, names).to_string();
        match class {
            0 => Query::meet(pair(rng, conf, year.to_string()), None, None),
            1 => Query::meet(pair(rng, name, year.to_string()), None, None),
            2 => Query::meet(vec![conf, year.to_string(), name], None, Some(10)),
            _ => listing2(&conf, year).heavy(),
        }
    })
}

/// 205 blocks (4100 distinct requests) over the Zipf vocabulary.
/// `tokens` is sorted by descending hit count.
fn deep_sweep(rng: &mut StdRng, tokens: &[(String, usize)]) -> Vec<Query> {
    let term = |rng: &mut StdRng, lo: usize, hi: usize| -> String {
        tokens[rng.random_range(lo..hi.min(tokens.len()))].0.clone()
    };
    let rare_from = 400.min(tokens.len() / 2);
    blocks(rng, 205, &[10, 4, 3, 2, 1], |rng, class| match class {
        // Unbounded: a mid-frequency term against one or two rare ones.
        // Answers grow with the hit count (hits of one term meet each
        // other across relations), so unbounded requests stay off the
        // frequent terms to keep payloads in the tens of kilobytes.
        0 => {
            let mut terms = vec![term(rng, 100, rare_from), term(rng, rare_from, usize::MAX)];
            if rng.random_bool() {
                terms.push(term(rng, rare_from, usize::MAX));
            }
            shuffle(rng, &mut terms);
            Query::meet(terms, None, None)
        }
        1 => Query::meet(
            vec![term(rng, 8, 100), term(rng, 100, usize::MAX)],
            None,
            Some(10),
        ),
        // A hyphenated term is a phrase: its two posting lists are
        // intersected, and both are long enough for the vector kernel.
        2 => {
            let first = rng.random_range(0..16usize);
            let second = (first + rng.random_range(1..16usize)) % 16;
            let phrase = format!("{}-{}", tokens[first].0, tokens[second].0);
            Query::meet(vec![phrase, term(rng, 8, 400)], None, Some(100))
        }
        // Unbounded in count, so off the frequent terms like class 0.
        3 => Query::meet(
            vec![term(rng, 100, rare_from), term(rng, rare_from, usize::MAX)],
            Some(2 + rng.random_range(0..8usize)),
            None,
        ),
        // Heavy: top-10 of a sweep over two of the largest hit sets
        // (ranks 3 and 4, about 16 k postings, 10 ms). The two very
        // largest cost 28 ms, and every slow minute of the sandbox VM
        // then moved p99 by a fifth.
        _ => Query::meet(
            vec![
                tokens[2].0.clone(),
                tokens[3].0.clone(),
                term(rng, 100, usize::MAX),
            ],
            None,
            Some(10),
        )
        .heavy(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fnv;

    fn lines(w: WorkloadId, seed: u64) -> (u64, u64) {
        let corpus = w.corpus(seed, Scale::Quick);
        let stream = w.stream(seed, &corpus.vocab);
        (fnv(corpus.xml.as_bytes()), stream_hash(&stream))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in ALL {
            assert_eq!(lines(w, 7), lines(w, 7), "{w:?}");
            let (xml_a, stream_a) = lines(w, 7);
            let (xml_b, stream_b) = lines(w, 8);
            assert_ne!(xml_a, xml_b, "{w:?}");
            assert_ne!(stream_a, stream_b, "{w:?}");
        }
    }

    #[test]
    fn remote_replays_the_cold_stream_byte_for_byte() {
        assert_eq!(
            lines(WorkloadId::DblpCold, 3),
            lines(WorkloadId::RemoteDblp, 3)
        );
    }

    #[test]
    fn streams_are_distinct_and_every_window_has_the_mix() {
        for w in ALL {
            let corpus = w.corpus(5, Scale::Quick);
            let stream = w.stream(5, &corpus.vocab);
            let distinct: HashSet<String> = stream.iter().map(Query::line).collect();
            assert_eq!(distinct.len(), stream.len(), "{w:?}");
            for from in [0, 7, 33] {
                for n in [200, 345, 5000] {
                    let share = heavy_share(&stream, from, n);
                    assert!((0.04..=0.08).contains(&share), "{w:?} {from} {n}: {share}");
                }
            }
        }
    }

    #[test]
    fn lines_round_trip_through_the_structured_request() {
        let q = Query::meet(vec!["a".into(), "b".into()], Some(3), Some(10));
        assert_eq!(q.line(), "MEET a b WITHIN 3 LIMIT 10");
        assert!(matches!(
            q.request(),
            Request::MeetTerms {
                limit: Some(10),
                ..
            }
        ));
    }
}
