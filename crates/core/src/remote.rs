//! Remote meet engines: a framed wire protocol and a failover-routing
//! [`RemoteBackend`].
//!
//! The forest catalog (PR 5) still assumed every engine lives
//! in-process. This module is the distribution step: a corpus engine
//! can run in another process behind `ncq-server`'s framed engine
//! listener, and the coordinator holds a [`RemoteBackend`] that sends
//! each query whole, as its text ([`EngineRequest::Answer`]; a MEET
//! as the Listing-2 query it abbreviates), and gets
//! back the finished, ranked and resolved answer — byte-identical to
//! in-process execution, because the replica runs the same engine over
//! the same snapshot and the wire codec is lossless. The coordinator
//! keeps no copy of the corpus; a term's hits (`Search`, for the
//! `SEARCH` verb's count) are the only sub-step it still asks for.
//!
//! # Frame layout
//!
//! ```text
//! offset 0   payload length (u32 LE)       4 bytes
//!        4   checksum64(payload) (u64 LE)  8 bytes
//!       12   payload                       length bytes
//! ```
//!
//! The checksum makes a corrupted-in-flight frame a *typed* failure
//! ([`WireError::Corrupt`]) instead of a silently wrong answer — the
//! fault-injection suite flips response bytes and expects the router to
//! fail over, not to return garbage. Request payloads are
//! `[opcode u8][body]`; response payloads are `[status u8][body]` with
//! status 0 = OK and 1 = an in-band error message. Headers and bodies
//! are written by the store's [`ByteWriter`] and read by its
//! bounds-checked [`ByteReader`], the codec of the snapshot and the
//! manifest too, so truncation and garbage decode to typed errors,
//! never panics.
//!
//! # Failover routing
//!
//! A [`RemoteBackend`] names one or more replica endpoints. Each
//! replica carries a health state machine — healthy → suspect → down,
//! driven by call failures. Calls sweep replicas in endpoint order,
//! skipping ones believed down (until their half-open probe timer
//! elapses), re-issuing the request on the next replica mid-query on
//! any transport or framing failure, with bounded retry rounds under
//! exponential backoff + seeded jitter. A sweep that skipped every
//! replica force-probes the skipped ones, so a down replica heals
//! through ordinary calls. When every sweep fails, the call returns a
//! typed [`BackendError::Unavailable`] — never a panic, never a hang
//! past the configured timeout budget (every socket carries connect,
//! read and write timeouts).

use crate::answer::{Answer, AnswerSet, PartialAnswer, QueryOutput, Row, RowSet, Witness};
use crate::backend::{BackendError, MeetBackend, RobustnessStats};
use crate::db::Database;
use crate::filter::PathFilter;
use crate::meet_multi::{Meet, MeetOptions, MeetWitness};
use ncq_fulltext::HitSet;
use ncq_store::snapshot::{checksum64, SnapshotError};
use ncq_store::{ByteReader, ByteWriter, MonetDb, Oid, PathId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Frame header length: u32 payload length + u64 payload checksum.
pub const FRAME_HEADER_LEN: usize = 12;

/// Cap on a single frame's payload (64 MiB): a length field past this
/// is refused before any allocation.
pub const DEFAULT_FRAME_CAP: u32 = 64 << 20;

/// Consecutive failures that demote a suspect replica to down.
const SUSPECT_THRESHOLD: u32 = 2;

/// Seed of the router's deterministic backoff jitter ("ncq_jitt").
const JITTER_SEED: u64 = 0x6e63_715f_6a69_7474;

/// Typed wire failures. Decoding never panics on malformed input.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes connect/read/write
    /// timeouts — see [`WireError::is_timeout`]).
    Io(std::io::Error),
    /// A frame's length field exceeds the configured cap.
    FrameTooLarge {
        /// Advertised payload length.
        len: u64,
        /// The cap in effect.
        cap: u64,
    },
    /// The stream ended before the advertised structure did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A complete frame decodes to inconsistent data (failed payload
    /// checksum, unknown opcode/status, malformed body).
    Corrupt {
        /// What failed to validate.
        context: String,
    },
    /// The remote engine answered with an in-band error message.
    Remote(String),
}

impl WireError {
    /// Whether this failure is a socket timeout (connect, read or
    /// write deadline exceeded) — counted separately by the router.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            )
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::FrameTooLarge { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            WireError::Truncated { context } => {
                write!(f, "wire stream truncated while reading {context}")
            }
            WireError::Corrupt { context } => write!(f, "wire frame is corrupt: {context}"),
            WireError::Remote(msg) => write!(f, "remote engine error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Reader failures become wire failures, keeping their context.
impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> WireError {
        match e {
            SnapshotError::Truncated { context, .. } => WireError::Corrupt {
                context: format!("body truncated at {context}"),
            },
            other => WireError::Corrupt {
                context: other.to_string(),
            },
        }
    }
}

/// Write one checksummed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8], cap: u32) -> Result<(), WireError> {
    if payload.len() as u64 > cap as u64 {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
            cap: cap as u64,
        });
    }
    w.write_all(&frame_header(payload))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// The header of a frame carrying `payload`.
pub fn frame_header(payload: &[u8]) -> Vec<u8> {
    let mut header = ByteWriter::new();
    header.put_u32(payload.len() as u32);
    header.put_u64(checksum64(payload));
    header.into_bytes()
}

/// Read one frame, verifying length cap and payload checksum. A clean
/// EOF before the first header byte is reported as `Truncated { "frame
/// header" }` — callers that treat end-of-session as normal check for
/// that context with zero bytes read via [`read_frame_or_eof`].
pub fn read_frame(r: &mut impl Read, cap: u32) -> Result<Vec<u8>, WireError> {
    match read_frame_or_eof(r, cap)? {
        Some(payload) => Ok(payload),
        None => Err(WireError::Truncated {
            context: "frame header",
        }),
    }
}

/// [`read_frame`], but a clean EOF at a frame boundary returns
/// `Ok(None)` (a session ending between requests is not an error).
pub fn read_frame_or_eof(r: &mut impl Read, cap: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    context: "frame header",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut fields = ByteReader::new(&header, "frame header");
    let len = fields.get_u32()?;
    let checksum = fields.get_u64()?;
    if len > cap {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            cap: cap as u64,
        });
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Err(WireError::Truncated {
                context: "frame payload",
            })
        } else {
            Err(e.into())
        };
    }
    if checksum64(&payload) != checksum {
        return Err(WireError::Corrupt {
            context: "frame payload failed its checksum".to_owned(),
        });
    }
    Ok(Some(payload))
}

// ----- request / response codec -----

const OP_PING: u8 = 1;
const OP_SEARCH: u8 = 2;
const OP_MEET: u8 = 3;
/// A tracing envelope: `[OP_TRACED][trace id u64 LE][inner request]`.
/// The coordinator wraps requests in it only when a trace is active,
/// so the replica's engine-side spans stitch to the coordinator's
/// trace by shared id. Engines decode through
/// [`decode_request_traced`], which accepts both shapes; an engine
/// that predates the envelope rejects opcode 4 as a typed in-band
/// error (requests without an active trace are unaffected).
const OP_TRACED: u8 = 4;
/// A whole request: `[OP_ANSWER][kind u8][body]`. The one kind is 1, a
/// query of the SQL dialect (text, row cap) — a MEET travels as the
/// Listing-2 query it abbreviates. Kind 0, the retired MEET body
/// (terms, options), is refused.
const OP_ANSWER: u8 = 5;

const QUERY_SQL: u8 = 1;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

const RESP_PONG: u8 = 0;
const RESP_HITS: u8 = 1;
const RESP_MEETS: u8 = 2;
const RESP_ANSWERS: u8 = 3;
const RESP_ROWS: u8 = 4;

/// One engine-protocol request. [`EngineRequest::Answer`] carries a
/// whole query; `Search` and `Meet` are its sub-steps (one term's
/// hits, one meet over hit groups).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineRequest {
    /// Liveness probe.
    Ping,
    /// Resolve one term to hits.
    Search {
        /// The term (word, phrase or substring syntax).
        term: String,
    },
    /// The generalized meet over hit groups.
    Meet {
        /// The hit groups.
        inputs: Vec<HitSet>,
        /// Meet options (filter, distance bound, witness cap, limit).
        options: MeetOptions,
    },
    /// A whole request, answered finished: ranked and resolved.
    Answer(EngineQuery),
}

/// A query of the SQL dialect the engine evaluates end to end, the way
/// an in-process engine serves it (a MEET arrives as the Listing-2
/// query it abbreviates): the reply is the finished [`AnswerSet`] or
/// [`RowSet`], so no hit set crosses the wire and the coordinator
/// needs no copy of the corpus to resolve answers.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineQuery {
    /// The query text, without a `corpus(…)` clause: the coordinator
    /// has already routed it to this engine.
    pub text: String,
    /// The projection row cap (`QueryConfig::max_rows`).
    pub max_rows: usize,
}

/// One engine-protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineResponse {
    /// Answer to [`EngineRequest::Ping`].
    Pong,
    /// Answer to [`EngineRequest::Search`].
    Hits(HitSet),
    /// Answer to [`EngineRequest::Meet`].
    Meets(Vec<Meet>),
    /// Answer to a meet query (a MEET arrives as one).
    Answers(AnswerSet),
    /// Answer to a SQL projection.
    Rows(RowSet),
}

fn put_hit_set(b: &mut ByteWriter, hits: &HitSet) {
    b.put_u32(hits.group_count() as u32);
    for (path, oids) in hits.groups() {
        b.put_u32(path.index() as u32);
        b.put_u32_run(oids.iter().map(|o| o.index() as u32));
    }
}

fn get_hit_set(c: &mut ByteReader<'_>) -> Result<HitSet, WireError> {
    let groups = c.get_u32()? as usize;
    let mut pairs: Vec<(PathId, Oid)> = Vec::new();
    for _ in 0..groups {
        let path = PathId::from_index(c.get_u32()? as usize);
        let oids = c.get_u32_run()?;
        pairs.extend(
            oids.into_iter()
                .map(|o| (path, Oid::from_index(o as usize))),
        );
    }
    Ok(HitSet::from_pairs(pairs))
}

fn put_paths(b: &mut ByteWriter, variant: u8, set: &HashSet<PathId>) {
    b.put_u8(variant);
    let mut ids: Vec<u32> = set.iter().map(|p| p.index() as u32).collect();
    ids.sort_unstable();
    b.put_u32_run(ids.into_iter());
}

fn get_paths(c: &mut ByteReader<'_>) -> Result<HashSet<PathId>, WireError> {
    Ok(c.get_u32_run()?
        .into_iter()
        .map(|p| PathId::from_index(p as usize))
        .collect())
}

/// A flag byte, then the value (written by `put`) if there is one.
fn put_optional<T>(b: &mut ByteWriter, value: Option<T>, put: impl FnOnce(&mut ByteWriter, T)) {
    match value {
        None => b.put_u8(0),
        Some(v) => {
            b.put_u8(1);
            put(b, v);
        }
    }
}

fn get_optional<'a, T>(
    c: &mut ByteReader<'a>,
    what: &str,
    get: impl FnOnce(&mut ByteReader<'a>) -> Result<T, SnapshotError>,
) -> Result<Option<T>, WireError> {
    match c.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get(c)?)),
        other => Err(WireError::Corrupt {
            context: format!("bad {what} flag {other}"),
        }),
    }
}

fn put_opt_usize(b: &mut ByteWriter, value: Option<usize>) {
    put_optional(b, value, |b, v| b.put_u64(v as u64));
}

fn get_opt_usize(c: &mut ByteReader<'_>, what: &str) -> Result<Option<usize>, WireError> {
    get_optional(c, what, |c| Ok(c.get_u64()? as usize))
}

fn put_options(b: &mut ByteWriter, options: &MeetOptions) {
    match &options.filter {
        PathFilter::All => b.put_u8(0),
        PathFilter::Exclude(set) => put_paths(b, 1, set),
        PathFilter::Allow(set) => put_paths(b, 2, set),
    }
    put_opt_usize(b, options.max_distance);
    b.put_u64(options.witness_cap as u64);
    put_opt_usize(b, options.limit);
}

fn get_options(c: &mut ByteReader<'_>) -> Result<MeetOptions, WireError> {
    let filter = match c.get_u8()? {
        0 => PathFilter::All,
        1 => PathFilter::Exclude(get_paths(c)?),
        2 => PathFilter::Allow(get_paths(c)?),
        other => {
            return Err(WireError::Corrupt {
                context: format!("unknown filter variant {other}"),
            })
        }
    };
    let max_distance = get_opt_usize(c, "max-distance")?;
    let witness_cap = c.get_u64()? as usize;
    let limit = get_opt_usize(c, "limit")?;
    Ok(MeetOptions {
        filter,
        max_distance,
        witness_cap,
        limit,
    })
}

fn put_meets(b: &mut ByteWriter, meets: &[Meet]) {
    b.put_u32(meets.len() as u32);
    for m in meets {
        b.put_u32(m.node.index() as u32);
        b.put_u32(m.path.index() as u32);
        b.put_u64(m.distance as u64);
        b.put_u64(m.witness_count as u64);
        b.put_u32(m.witnesses.len() as u32);
        for w in &m.witnesses {
            b.put_u32(w.origin.index() as u32);
            b.put_u64(w.input as u64);
            b.put_u64(w.climb as u64);
        }
    }
}

fn get_meets(c: &mut ByteReader<'_>) -> Result<Vec<Meet>, WireError> {
    let count = c.get_u32()? as usize;
    // Clamped: a meet spans ≥ 24 payload bytes, so a lying count fails
    // typed instead of aborting on a huge pre-allocation.
    let mut meets = Vec::with_capacity(count.min(c.remaining() / 24 + 1));
    for _ in 0..count {
        let node = Oid::from_index(c.get_u32()? as usize);
        let path = PathId::from_index(c.get_u32()? as usize);
        let distance = c.get_u64()? as usize;
        let witness_count = c.get_u64()? as usize;
        let wlen = c.get_u32()? as usize;
        let mut witnesses = Vec::with_capacity(wlen.min(c.remaining() / 20 + 1));
        for _ in 0..wlen {
            witnesses.push(MeetWitness {
                origin: Oid::from_index(c.get_u32()? as usize),
                input: c.get_u64()? as usize,
                climb: c.get_u64()? as usize,
            });
        }
        meets.push(Meet {
            node,
            path,
            distance,
            witness_count,
            witnesses,
        });
    }
    Ok(meets)
}

fn put_opt_str(b: &mut ByteWriter, value: Option<&str>) {
    put_optional(b, value, ByteWriter::put_str);
}

fn get_opt_str(c: &mut ByteReader<'_>, what: &str) -> Result<Option<String>, WireError> {
    get_optional(c, what, |c| Ok(c.get_str()?.to_owned()))
}

fn put_strs<'s>(b: &mut ByteWriter, strs: impl ExactSizeIterator<Item = &'s str>) {
    b.put_u32(strs.len() as u32);
    for s in strs {
        b.put_str(s);
    }
}

fn get_strs(c: &mut ByteReader<'_>) -> Result<Vec<String>, WireError> {
    let n = c.get_u32()? as usize;
    // Clamped: a string spans ≥ 4 payload bytes.
    let mut strs = Vec::with_capacity(n.min(c.remaining() / 4 + 1));
    for _ in 0..n {
        strs.push(c.get_str()?.to_owned());
    }
    Ok(strs)
}

fn put_query(b: &mut ByteWriter, query: &EngineQuery) {
    b.put_u8(QUERY_SQL);
    b.put_str(&query.text);
    b.put_u64(query.max_rows as u64);
}

fn get_query(c: &mut ByteReader<'_>) -> Result<EngineQuery, WireError> {
    match c.get_u8()? {
        QUERY_SQL => Ok(EngineQuery {
            text: c.get_str()?.to_owned(),
            max_rows: c.get_u64()? as usize,
        }),
        other => Err(WireError::Corrupt {
            context: format!("unknown query kind {other}"),
        }),
    }
}

fn put_answers(b: &mut ByteWriter, answers: &AnswerSet) {
    b.put_u32(answers.results.len() as u32);
    for r in &answers.results {
        put_opt_str(b, r.corpus.as_deref());
        b.put_u32(r.oid.index() as u32);
        b.put_str(&r.tag);
        b.put_str(&r.path);
        b.put_u64(r.distance as u64);
        b.put_u64(r.witness_count as u64);
        b.put_u32(r.witnesses.len() as u32);
        for w in &r.witnesses {
            b.put_u32(w.origin.index() as u32);
            b.put_u64(w.term as u64);
            b.put_u64(w.climb as u64);
            put_opt_str(b, w.text.as_deref());
        }
    }
    b.put_u32(answers.partials.len() as u32);
    for p in &answers.partials {
        b.put_str(&p.corpus);
        b.put_str(&p.detail);
    }
}

fn get_answers(c: &mut ByteReader<'_>) -> Result<AnswerSet, WireError> {
    let count = c.get_u32()? as usize;
    // Clamped like `get_meets`: an answer spans ≥ 33 payload bytes, a
    // witness ≥ 21, a partial ≥ 8.
    let mut results = Vec::with_capacity(count.min(c.remaining() / 33 + 1));
    for _ in 0..count {
        let corpus = get_opt_str(c, "corpus")?;
        let oid = Oid::from_index(c.get_u32()? as usize);
        let tag = c.get_str()?.to_owned();
        let path = c.get_str()?.to_owned();
        let distance = c.get_u64()? as usize;
        let witness_count = c.get_u64()? as usize;
        let wlen = c.get_u32()? as usize;
        let mut witnesses = Vec::with_capacity(wlen.min(c.remaining() / 21 + 1));
        for _ in 0..wlen {
            witnesses.push(Witness {
                origin: Oid::from_index(c.get_u32()? as usize),
                term: c.get_u64()? as usize,
                climb: c.get_u64()? as usize,
                text: get_opt_str(c, "witness text")?,
            });
        }
        results.push(Answer {
            corpus,
            oid,
            tag,
            path,
            distance,
            witness_count,
            witnesses,
        });
    }
    let count = c.get_u32()? as usize;
    let mut partials = Vec::with_capacity(count.min(c.remaining() / 8 + 1));
    for _ in 0..count {
        partials.push(PartialAnswer {
            corpus: c.get_str()?.to_owned(),
            detail: c.get_str()?.to_owned(),
        });
    }
    Ok(AnswerSet { results, partials })
}

fn put_rows(b: &mut ByteWriter, rows: &RowSet) {
    put_strs(b, rows.columns.iter().map(String::as_str));
    b.put_u32(rows.rows.len() as u32);
    for row in &rows.rows {
        put_strs(b, row.values.iter().map(String::as_str));
        b.put_u32_run(row.nodes.iter().map(|o| o.index() as u32));
    }
}

fn get_rows(c: &mut ByteReader<'_>) -> Result<RowSet, WireError> {
    let columns = get_strs(c)?;
    let count = c.get_u32()? as usize;
    // Clamped: a row spans ≥ 8 payload bytes.
    let mut rows = Vec::with_capacity(count.min(c.remaining() / 8 + 1));
    for _ in 0..count {
        rows.push(Row {
            values: get_strs(c)?,
            nodes: c
                .get_u32_run()?
                .into_iter()
                .map(|o| Oid::from_index(o as usize))
                .collect(),
        });
    }
    Ok(RowSet { columns, rows })
}

fn put_request(b: &mut ByteWriter, req: &EngineRequest) {
    match req {
        EngineRequest::Ping => b.put_u8(OP_PING),
        EngineRequest::Search { term } => {
            b.put_u8(OP_SEARCH);
            b.put_str(term);
        }
        EngineRequest::Meet { inputs, options } => {
            b.put_u8(OP_MEET);
            b.put_u32(inputs.len() as u32);
            for h in inputs {
                put_hit_set(b, h);
            }
            put_options(b, options);
        }
        EngineRequest::Answer(query) => {
            b.put_u8(OP_ANSWER);
            put_query(b, query);
        }
    }
}

/// Serialize a request payload (deterministic).
pub fn encode_request(req: &EngineRequest) -> Vec<u8> {
    let mut b = ByteWriter::new();
    put_request(&mut b, req);
    b.into_bytes()
}

/// Serialize a request payload wrapped in the tracing envelope: the
/// trace id rides in the frame body so the replica can stitch its
/// engine-side spans to the coordinator's trace.
pub fn encode_request_traced(req: &EngineRequest, trace_id: u64) -> Vec<u8> {
    let mut b = ByteWriter::new();
    b.put_u8(OP_TRACED);
    b.put_u64(trace_id);
    put_request(&mut b, req);
    b.into_bytes()
}

/// Parse a request payload, unwrapping the tracing envelope when
/// present: returns the inner request plus the propagated trace id
/// (`None` for plain requests). Envelopes never nest — the inner body
/// must be a plain request.
pub fn decode_request_traced(payload: &[u8]) -> Result<(EngineRequest, Option<u64>), WireError> {
    let mut c = ByteReader::new(payload, "engine request");
    if payload.first() != Some(&OP_TRACED) {
        return Ok((get_request(&mut c)?, None));
    }
    c.get_u8()?; // OP_TRACED
    let id = c.get_u64().map_err(|_| WireError::Corrupt {
        context: "traced request envelope shorter than its header".to_owned(),
    })?;
    Ok((get_request(&mut c)?, Some(id)))
}

/// Parse and validate a request payload.
pub fn decode_request(payload: &[u8]) -> Result<EngineRequest, WireError> {
    get_request(&mut ByteReader::new(payload, "engine request"))
}

/// One plain request, which must end the payload.
fn get_request(c: &mut ByteReader<'_>) -> Result<EngineRequest, WireError> {
    let req = match c.get_u8()? {
        OP_PING => EngineRequest::Ping,
        OP_SEARCH => EngineRequest::Search {
            term: c.get_str()?.to_owned(),
        },
        OP_MEET => {
            let n = c.get_u32()? as usize;
            let mut inputs = Vec::with_capacity(n.min(c.remaining() / 4 + 1));
            for _ in 0..n {
                inputs.push(get_hit_set(c)?);
            }
            let options = get_options(c)?;
            EngineRequest::Meet { inputs, options }
        }
        OP_ANSWER => EngineRequest::Answer(get_query(c)?),
        other => {
            return Err(WireError::Corrupt {
                context: format!("unknown request opcode {other}"),
            })
        }
    };
    if !c.at_end() {
        return Err(WireError::Corrupt {
            context: "trailing bytes after request body".to_owned(),
        });
    }
    Ok(req)
}

/// Serialize a success response payload (deterministic).
pub fn encode_response(resp: &EngineResponse) -> Vec<u8> {
    let mut b = ByteWriter::new();
    b.put_u8(STATUS_OK);
    match resp {
        EngineResponse::Pong => b.put_u8(RESP_PONG),
        EngineResponse::Hits(hits) => {
            b.put_u8(RESP_HITS);
            put_hit_set(&mut b, hits);
        }
        EngineResponse::Meets(meets) => {
            b.put_u8(RESP_MEETS);
            put_meets(&mut b, meets);
        }
        EngineResponse::Answers(answers) => {
            b.put_u8(RESP_ANSWERS);
            put_answers(&mut b, answers);
        }
        EngineResponse::Rows(rows) => {
            b.put_u8(RESP_ROWS);
            put_rows(&mut b, rows);
        }
    }
    b.into_bytes()
}

/// Serialize an in-band error response payload.
pub fn encode_error_response(message: &str) -> Vec<u8> {
    let mut b = ByteWriter::new();
    b.put_u8(STATUS_ERR);
    b.put_str(message);
    b.into_bytes()
}

/// Parse and validate a response payload. An in-band error status
/// becomes [`WireError::Remote`].
pub fn decode_response(payload: &[u8]) -> Result<EngineResponse, WireError> {
    let mut c = ByteReader::new(payload, "engine response");
    match c.get_u8()? {
        STATUS_OK => {}
        STATUS_ERR => {
            return Err(WireError::Remote(c.get_str()?.to_owned()));
        }
        other => {
            return Err(WireError::Corrupt {
                context: format!("unknown response status {other}"),
            })
        }
    }
    let resp = match c.get_u8()? {
        RESP_PONG => EngineResponse::Pong,
        RESP_HITS => EngineResponse::Hits(get_hit_set(&mut c)?),
        RESP_MEETS => EngineResponse::Meets(get_meets(&mut c)?),
        RESP_ANSWERS => EngineResponse::Answers(get_answers(&mut c)?),
        RESP_ROWS => EngineResponse::Rows(get_rows(&mut c)?),
        other => {
            return Err(WireError::Corrupt {
                context: format!("unknown response kind {other}"),
            })
        }
    };
    if !c.at_end() {
        return Err(WireError::Corrupt {
            context: "trailing bytes after response body".to_owned(),
        });
    }
    Ok(resp)
}

// ----- failover router -----

/// Per-replica health. Transitions: any failure moves `Healthy` to
/// `Suspect`; two consecutive failures move `Suspect` to `Down`; any
/// success resets to `Healthy`. A down replica is skipped by the router
/// until its half-open probe timer ([`RemoteConfig::down_probe_after`])
/// elapses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Answering normally.
    Healthy,
    /// Failed recently; still tried, but no longer trusted.
    Suspect,
    /// Considered dead; probed at most once per probe interval.
    Down,
}

/// Router tuning knobs. Every socket the router opens carries the
/// connect/read/write timeouts, so the worst-case latency of a call is
/// bounded by `(retry_rounds + 1) × replicas × (connect + read +
/// write)` plus the backoff sleeps — the "timeout budget" the stress
/// suite asserts against.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Socket read deadline per response.
    pub read_timeout: Duration,
    /// Socket write deadline per request.
    pub write_timeout: Duration,
    /// Extra full-sweep rounds after the first (0 = single sweep).
    pub retry_rounds: usize,
    /// Backoff before retry round r: `backoff_base × 2^(r-1)` plus
    /// jitter in `[0, backoff_base)`, capped at `backoff_max`.
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_max: Duration,
    /// How long a down replica stays skipped before a half-open probe.
    pub down_probe_after: Duration,
}

impl Default for RemoteConfig {
    fn default() -> RemoteConfig {
        RemoteConfig {
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Duration::from_millis(5000),
            write_timeout: Duration::from_millis(5000),
            retry_rounds: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            down_probe_after: Duration::from_millis(500),
        }
    }
}

struct ReplicaState {
    health: ReplicaHealth,
    conn: Option<TcpStream>,
    consecutive_failures: u32,
    probe_after: Option<Instant>,
}

struct Replica {
    addr: String,
    state: Mutex<ReplicaState>,
}

impl Replica {
    fn new(addr: String) -> Replica {
        Replica {
            addr,
            state: Mutex::new(ReplicaState {
                health: ReplicaHealth::Healthy,
                conn: None,
                consecutive_failures: 0,
                probe_after: None,
            }),
        }
    }

    /// The state, even if a thread panicked holding it: it is plain
    /// flags and an optional socket, and a socket left mid-frame fails
    /// its next exchange typed and is dropped.
    fn state(&self) -> MutexGuard<'_, ReplicaState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn health(&self) -> ReplicaHealth {
        self.state().health
    }

    /// Whether the router should try this replica in the current
    /// sweep: healthy and suspect replicas always, down replicas only
    /// once their half-open probe timer has elapsed.
    fn eligible(&self) -> bool {
        let st = self.state();
        match st.health {
            ReplicaHealth::Healthy | ReplicaHealth::Suspect => true,
            ReplicaHealth::Down => st.probe_after.is_none_or(|t| Instant::now() >= t),
        }
    }

    /// One request/response exchange over the pooled connection
    /// (established lazily, dropped on any failure so the next attempt
    /// starts from a clean socket). The state lock is held across the
    /// exchange: calls to *one replica* serialize, calls across
    /// replicas proceed in parallel.
    fn exchange(&self, request: &[u8], config: &RemoteConfig) -> Result<Vec<u8>, WireError> {
        let mut st = self.state();
        let stream = match st.conn.take() {
            Some(stream) => stream,
            None => self.connect(config)?,
        };
        let stream = st.conn.insert(stream);
        let result = write_frame(stream, request, DEFAULT_FRAME_CAP)
            .and_then(|()| read_frame(stream, DEFAULT_FRAME_CAP));
        if result.is_err() {
            st.conn = None;
        }
        result
    }

    fn connect(&self, config: &RemoteConfig) -> Result<TcpStream, WireError> {
        let addr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| WireError::Corrupt {
                context: format!("endpoint {:?} resolves to no address", self.addr),
            })?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn mark_ok(&self) {
        let mut st = self.state();
        st.health = ReplicaHealth::Healthy;
        st.consecutive_failures = 0;
        st.probe_after = None;
    }

    fn mark_failed(&self, config: &RemoteConfig) {
        let mut st = self.state();
        st.conn = None;
        st.consecutive_failures = st.consecutive_failures.saturating_add(1);
        if st.consecutive_failures >= SUSPECT_THRESHOLD {
            st.health = ReplicaHealth::Down;
            st.probe_after = Some(Instant::now() + config.down_probe_after);
        } else {
            st.health = ReplicaHealth::Suspect;
        }
    }
}

#[derive(Default)]
struct RouterCounters {
    retries: AtomicU64,
    failovers: AtomicU64,
    timeouts: AtomicU64,
}

/// Registry handles for the router's metrics, looked up once.
struct RemoteMetrics {
    attempts: Arc<ncq_obs::Counter>,
    failures: Arc<ncq_obs::Counter>,
    attempt_ns: Arc<ncq_obs::Histogram>,
}

fn remote_metrics() -> &'static RemoteMetrics {
    static METRICS: std::sync::OnceLock<RemoteMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = &ncq_obs::obs().registry;
        RemoteMetrics {
            attempts: registry.counter("ncq_remote_attempts_total"),
            failures: registry.counter("ncq_remote_attempt_failures_total"),
            attempt_ns: registry.histogram("ncq_remote_attempt_ns"),
        }
    })
}

/// [`MeetBackend`] served by replica engines over the framed engine
/// protocol, with failover.
///
/// The coordinator holds no copy of the corpus, so
/// [`MeetBackend::store`] is `None`: every query, a MEET as its
/// Listing-2 text, travels whole ([`EngineRequest::Answer`], one round
/// trip) and comes back
/// ranked and resolved. Because replicas run the identical engine over
/// the identical snapshot, a remote answer is byte-identical to
/// in-process execution; the golden replay suite asserts exactly that.
pub struct RemoteBackend {
    replicas: Vec<Replica>,
    config: RemoteConfig,
    jitter: Mutex<StdRng>,
    counters: RouterCounters,
}

impl RemoteBackend {
    /// Route to `endpoints` (tried in order — list the preferred
    /// replica first). Refuses an empty endpoint list.
    ///
    /// `corpus` is dropped (its mapping released) before this returns:
    /// the replicas own the corpus. The argument stays only because the
    /// benchmark still passes one (ROADMAP 1(f)).
    pub fn new(
        corpus: Database,
        endpoints: &[String],
        config: RemoteConfig,
    ) -> Result<RemoteBackend, BackendError> {
        drop(corpus);
        if endpoints.is_empty() {
            return Err(BackendError::Unavailable {
                detail: "a remote backend needs at least one replica endpoint".to_owned(),
                attempts: 0,
            });
        }
        let jitter = Mutex::new(StdRng::seed_from_u64(JITTER_SEED));
        Ok(RemoteBackend {
            replicas: endpoints.iter().cloned().map(Replica::new).collect(),
            config,
            jitter,
            counters: RouterCounters::default(),
        })
    }

    /// The configured endpoints, in routing order.
    pub fn endpoints(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.addr.clone()).collect()
    }

    /// Current per-replica health, in routing order.
    pub fn replica_health(&self) -> Vec<(String, ReplicaHealth)> {
        self.replicas
            .iter()
            .map(|r| (r.addr.clone(), r.health()))
            .collect()
    }

    fn backoff_delay(&self, round: usize) -> Duration {
        let base = self.config.backoff_base.max(Duration::from_micros(1));
        let shift = round.saturating_sub(1).min(16) as u32;
        let exp = base
            .saturating_mul(1u32 << shift)
            .min(self.config.backoff_max);
        // A poisoned RNG is still an RNG.
        let jitter_us = self
            .jitter
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .random_range(0..base.as_micros().max(1) as u64);
        exp + Duration::from_micros(jitter_us)
    }

    fn note_failure(&self, replica: &Replica, err: &WireError) {
        if err.is_timeout() {
            self.counters.timeouts.fetch_add(1, Relaxed);
        }
        replica.mark_failed(&self.config);
    }

    /// One failover-routed call. Sweeps replicas in order (skipping
    /// ones believed down), then force-probes the skipped ones if the
    /// sweep made no progress, then backs off and repeats up to
    /// [`RemoteConfig::retry_rounds`] more times. An in-band
    /// [`WireError::Remote`] returns immediately — the request itself
    /// was refused, so another replica would refuse it the same way.
    pub fn call(&self, req: &EngineRequest) -> Result<EngineResponse, BackendError> {
        // When a trace is active on this thread, ship its id in the
        // frame body so the replica's engine-side spans stitch to it.
        let obs_on = ncq_obs::obs().enabled();
        let request = match ncq_obs::trace::current_id() {
            Some(id) if obs_on => encode_request_traced(req, id),
            _ => encode_request(req),
        };
        let mut attempts = 0usize;
        let mut last_failure = String::from("no replica attempted");
        for round in 0..=self.config.retry_rounds {
            if round > 0 {
                self.counters.retries.fetch_add(1, Relaxed);
                ncq_obs::trace::event("retry_round", format!("round {round} backing off"));
                std::thread::sleep(self.backoff_delay(round));
            }
            let mut tried = vec![false; self.replicas.len()];
            // Pass 1: replicas currently believed reachable. Pass 2
            // (only over the ones pass 1 skipped): force-probe, so a
            // sweep always attempts at least one replica even when
            // every health record says down — recovery is observable
            // within one call, and the round stays bounded because
            // every replica is attempted at most once per round.
            for force in [false, true] {
                for (i, replica) in self.replicas.iter().enumerate() {
                    if tried[i] || (!force && !replica.eligible()) {
                        continue;
                    }
                    tried[i] = true;
                    attempts += 1;
                    if attempts > 1 {
                        self.counters.failovers.fetch_add(1, Relaxed);
                        ncq_obs::trace::event("failover", format!("to {}", replica.addr));
                    }
                    let span = ncq_obs::trace::span("remote_attempt");
                    ncq_obs::trace::annotate("replica", replica.addr.clone());
                    let health_before = replica.health();
                    let started = Instant::now();
                    let outcome = replica
                        .exchange(&request, &self.config)
                        .and_then(|payload| decode_response(&payload));
                    if obs_on {
                        let m = remote_metrics();
                        m.attempts.inc();
                        m.attempt_ns.record(started.elapsed().as_nanos() as u64);
                    }
                    match outcome {
                        Ok(resp) => {
                            replica.mark_ok();
                            ncq_obs::trace::annotate("outcome", "ok".to_owned());
                            drop(span);
                            return Ok(resp);
                        }
                        Err(WireError::Remote(msg)) => {
                            // The replica is alive and refused the
                            // request in-band: not a health event,
                            // and not retryable elsewhere.
                            replica.mark_ok();
                            ncq_obs::trace::annotate("outcome", "refused".to_owned());
                            drop(span);
                            return Err(BackendError::Remote { detail: msg });
                        }
                        Err(e) => {
                            if obs_on {
                                remote_metrics().failures.inc();
                            }
                            last_failure = format!("{} at {}", e, replica.addr);
                            self.note_failure(replica, &e);
                            ncq_obs::trace::annotate("outcome", format!("error: {e}"));
                            ncq_obs::trace::annotate(
                                "health",
                                format!("{health_before:?}->{:?}", replica.health()),
                            );
                        }
                    }
                }
            }
        }
        Err(BackendError::Unavailable {
            detail: last_failure,
            attempts,
        })
    }
}

impl fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("endpoints", &self.endpoints())
            .finish()
    }
}

impl MeetBackend for RemoteBackend {
    fn store(&self) -> Option<&MonetDb> {
        None
    }

    fn search(&self, term: &str) -> Result<HitSet, BackendError> {
        match self.call(&EngineRequest::Search {
            term: term.to_owned(),
        })? {
            EngineResponse::Hits(hits) => Ok(hits),
            other => Err(unexpected("hits", &other)),
        }
    }

    fn answer_sql(&self, query: &str, max_rows: usize) -> Result<QueryOutput, BackendError> {
        let query = EngineQuery {
            text: query.to_owned(),
            max_rows,
        };
        match self.call(&EngineRequest::Answer(query))? {
            EngineResponse::Answers(answers) => Ok(QueryOutput::Answers(answers)),
            EngineResponse::Rows(rows) => Ok(QueryOutput::Rows(rows)),
            other => Err(unexpected("answers or rows", &other)),
        }
    }

    fn robustness_stats(&self) -> RobustnessStats {
        RobustnessStats {
            retries: self.counters.retries.load(Relaxed),
            failovers: self.counters.failovers.load(Relaxed),
            replicas_down: self
                .replicas
                .iter()
                .filter(|r| r.health() == ReplicaHealth::Down)
                .count() as u64,
            timeouts: self.counters.timeouts.load(Relaxed),
        }
    }

    fn save_snapshot(&self, _path: &Path) -> Result<(), SnapshotError> {
        Err(REPLICAS_OWN_THE_CORPUS)
    }

    /// Refused rather than left to the default, which would load a
    /// local [`Database`] and quietly turn a remote deployment local.
    fn open_snapshot_like(&self, _path: &Path) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        Err(REPLICAS_OWN_THE_CORPUS)
    }
}

/// The refusal of the snapshot verbs on a remote corpus: the
/// coordinator holds no copy to save or swap.
const REPLICAS_OWN_THE_CORPUS: SnapshotError = SnapshotError::Unsupported {
    context: "a remote corpus is owned by its replicas; snapshot or reload it on the engines",
};

/// A well-framed reply of the wrong kind.
fn unexpected(wanted: &str, got: &EngineResponse) -> BackendError {
    BackendError::Remote {
        detail: format!("expected {wanted}, got {got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    const FIG: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
        <year>1999</year></article><article key="MM01"><author>Mary Meet</author>
        <year>1999</year></article></bib>"#;

    fn sample_meet_request(db: &Database) -> EngineRequest {
        EngineRequest::Meet {
            inputs: vec![db.search("Bit"), db.search("1999")],
            options: MeetOptions {
                max_distance: Some(9),
                witness_cap: 4,
                filter: PathFilter::Exclude([PathId::from_index(0)].into_iter().collect()),
                limit: Some(3),
            },
        }
    }

    /// A minimal in-process engine server: decode requests, execute on
    /// a local database, answer framed responses. The real listener
    /// lives in `ncq-server`; this one exists so the codec and router
    /// are provable inside `ncq-core`.
    fn toy_engine(db: Arc<Database>) -> (std::net::SocketAddr, TcpListener) {
        toy_engine_on(db, TcpListener::bind("127.0.0.1:0").unwrap())
    }

    fn toy_engine_on(
        db: Arc<Database>,
        listener: TcpListener,
    ) -> (std::net::SocketAddr, TcpListener) {
        let addr = listener.local_addr().unwrap();
        let accept = listener.try_clone().unwrap();
        std::thread::spawn(move || {
            for stream in accept.incoming() {
                let Ok(stream) = stream else { break };
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    while let Ok(Some(payload)) = read_frame_or_eof(&mut reader, DEFAULT_FRAME_CAP)
                    {
                        let response = match decode_request(&payload) {
                            Ok(EngineRequest::Ping) => encode_response(&EngineResponse::Pong),
                            Ok(EngineRequest::Search { term }) => {
                                encode_response(&EngineResponse::Hits(db.search(&term)))
                            }
                            Ok(EngineRequest::Meet { inputs, options }) => {
                                let refs: Vec<&HitSet> = inputs.iter().collect();
                                encode_response(&EngineResponse::Meets(
                                    db.meet_hits(&refs, &options),
                                ))
                            }
                            Ok(EngineRequest::Answer(EngineQuery { text, .. })) => {
                                // No SQL parser in this crate: the toy
                                // engine reads a query as a term list.
                                let terms: Vec<&str> = text.split_whitespace().collect();
                                let answers = db.meet_terms(&terms).unwrap();
                                encode_response(&EngineResponse::Answers(answers))
                            }
                            Err(e) => encode_error_response(&e.to_string()),
                        };
                        if write_frame(&mut writer, &response, DEFAULT_FRAME_CAP).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, listener)
    }

    /// A whole query answered by the replicas of `remote`.
    fn answers(remote: &RemoteBackend, text: &str) -> Result<AnswerSet, BackendError> {
        match remote.answer_sql(text, usize::MAX)? {
            QueryOutput::Answers(answers) => Ok(answers),
            QueryOutput::Rows(rows) => panic!("{text}: rows {rows:?}"),
        }
    }

    fn fast_config() -> RemoteConfig {
        RemoteConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            retry_rounds: 1,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            down_probe_after: Duration::from_millis(10),
        }
    }

    #[test]
    fn request_and_response_round_trip_bit_for_bit() {
        let db = Database::from_xml_str(FIG).unwrap();
        for req in [
            EngineRequest::Ping,
            EngineRequest::Search {
                term: "\"Ben Bit\"".to_owned(),
            },
            sample_meet_request(&db),
            EngineRequest::Answer(EngineQuery {
                text: "select meet(a, b) from % as a, % as b".to_owned(),
                max_rows: usize::MAX,
            }),
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
            // Deterministic encoding (the chaos schedule and golden
            // replays rely on it).
            assert_eq!(bytes, encode_request(&req));
        }
        let inputs = [db.search("Bit"), db.search("1999")];
        let refs: Vec<&HitSet> = inputs.iter().collect();
        let meets = db.meet_hits(&refs, &MeetOptions::default());
        let mut answers = db.meet_terms(&["Bit", "1999"]).unwrap();
        answers.tag_corpus("bib");
        answers.push_partial("shop", "every replica is down");
        let rows = RowSet {
            columns: vec!["t".to_owned(), "$T".to_owned()],
            rows: vec![Row {
                values: vec!["article".to_owned(), "author".to_owned()],
                nodes: vec![Oid::from_index(1), Oid::from_index(3)],
            }],
        };
        for resp in [
            EngineResponse::Pong,
            EngineResponse::Hits(db.search("Bit")),
            EngineResponse::Meets(meets),
            EngineResponse::Answers(answers),
            EngineResponse::Rows(rows),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
        assert!(matches!(
            decode_response(&encode_error_response("nope")),
            Err(WireError::Remote(msg)) if msg == "nope"
        ));
    }

    #[test]
    fn absurd_limits_survive_the_codec_and_evaluate_like_no_limit() {
        let db = Database::from_xml_str(FIG).unwrap();
        let inputs = vec![db.search("Bit"), db.search("1999")];
        let unbounded = db.meet_hits(&inputs, &MeetOptions::default());
        assert!(!unbounded.is_empty());
        for k in [usize::MAX, usize::MAX / 2, 1 << 40] {
            let req = EngineRequest::Meet {
                inputs: inputs.clone(),
                options: MeetOptions {
                    limit: Some(k),
                    ..MeetOptions::default()
                },
            };
            let Ok(EngineRequest::Meet { inputs, options }) = decode_request(&encode_request(&req))
            else {
                panic!("limit {k} did not round-trip");
            };
            assert_eq!(options.limit, Some(k));
            assert_eq!(db.meet_hits(&inputs, &options), unbounded, "{k}");
        }
    }

    /// The MEET body once carried a strategy byte between the witness
    /// cap and the limit flag. The protocol has no version field, so a
    /// peer still sending that shape must be refused, never misread:
    /// the extra byte leaves trailing bytes, a truncated `k` or a bad
    /// limit flag.
    #[test]
    fn the_old_meet_body_with_a_strategy_byte_is_refused_typed() {
        let db = Database::from_xml_str(FIG).unwrap();
        for strategy in 0u8..3 {
            for limit in [None, Some(3u64)] {
                let mut b = ByteWriter::new();
                b.put_u8(OP_MEET);
                b.put_u32(1);
                put_hit_set(&mut b, &db.search("Bit"));
                b.put_u8(0); // filter: all
                b.put_u8(0); // no distance bound
                b.put_u64(4); // witness cap
                b.put_u8(strategy);
                match limit {
                    None => b.put_u8(0),
                    Some(k) => {
                        b.put_u8(1);
                        b.put_u64(k);
                    }
                }
                let payload = b.into_bytes();
                assert!(
                    matches!(decode_request(&payload), Err(WireError::Corrupt { .. })),
                    "strategy {strategy} limit {limit:?}: {:?}",
                    decode_request(&payload)
                );
            }
        }
    }

    /// The `Answer` body once had a MEET kind (0: terms, then meet
    /// options). A MEET now travels as its Listing-2 text, so a peer
    /// still sending the old kind is refused typed, never misread.
    #[test]
    fn the_old_meet_answer_kind_is_refused_typed() {
        let mut b = ByteWriter::new();
        b.put_u8(OP_ANSWER);
        b.put_u8(0); // the retired MEET kind
        put_strs(&mut b, ["Bit", "1999"].into_iter());
        put_options(&mut b, &MeetOptions::default());
        assert!(matches!(
            decode_request(&b.into_bytes()),
            Err(WireError::Corrupt { context }) if context == "unknown query kind 0"
        ));
    }

    /// The wire bytes, pinned: one request per opcode, the tracing
    /// envelope, one response per kind, an in-band error and a framed
    /// ping. Any change to the frame header or a body encoding fails
    /// here.
    #[test]
    fn encoding_is_pinned() {
        let (p, o) = (PathId::from_index, Oid::from_index);
        let hits = HitSet::from_pairs([(p(3), o(7)), (p(3), o(9)), (p(5), o(11))]);
        let meet = EngineRequest::Meet {
            inputs: vec![hits.clone(), HitSet::new()],
            options: MeetOptions {
                filter: PathFilter::allowing([p(2), p(1)]),
                max_distance: Some(4),
                witness_cap: 2,
                limit: Some(10),
            },
        };
        let meets = vec![Meet {
            node: o(2),
            path: p(1),
            distance: 3,
            witness_count: 5,
            witnesses: vec![MeetWitness {
                origin: o(7),
                input: 1,
                climb: 2,
            }],
        }];
        let answer_sql = EngineRequest::Answer(EngineQuery {
            text: "select t from a as t".to_owned(),
            max_rows: 100,
        });
        let answers = AnswerSet {
            results: vec![Answer {
                corpus: Some("db".to_owned()),
                oid: o(2),
                tag: "a".to_owned(),
                path: "r/a".to_owned(),
                distance: 3,
                witness_count: 5,
                witnesses: vec![
                    Witness {
                        origin: o(7),
                        term: 1,
                        climb: 2,
                        text: Some("Bit".to_owned()),
                    },
                    Witness {
                        origin: o(8),
                        term: 0,
                        climb: 1,
                        text: None,
                    },
                ],
            }],
            partials: vec![PartialAnswer {
                corpus: "x".to_owned(),
                detail: "down".to_owned(),
            }],
        };
        let rows = RowSet {
            columns: vec!["t".to_owned()],
            rows: vec![Row {
                values: vec!["a".to_owned()],
                nodes: vec![o(2)],
            }],
        };
        let ping = encode_request(&EngineRequest::Ping);
        let mut framed = Vec::new();
        write_frame(&mut framed, &ping, DEFAULT_FRAME_CAP).unwrap();
        let search = EngineRequest::Search {
            term: "Bit".to_owned(),
        };
        let hit_set = concat!(
            "02000000", // two groups
            "03000000020000000700000009000000",
            "05000000010000000b000000",
        );
        for (what, bytes, pinned) in [
            ("ping", ping, "01".to_owned()),
            ("search", encode_request(&search), "0203000000426974".to_owned()),
            (
                "meet",
                encode_request(&meet),
                [
                    "0302000000",
                    hit_set,
                    "00000000", // the empty hit set
                    "020200000001000000020000000104000000000000000200000000000000010a00000000000000",
                ]
                .concat(),
            ),
            (
                "traced",
                encode_request_traced(&search, 0x0102_0304_0506_0708),
                "0408070605040302010203000000426974".to_owned(),
            ),
            ("pong", encode_response(&EngineResponse::Pong), "0000".to_owned()),
            (
                "hits",
                encode_response(&EngineResponse::Hits(hits)),
                ["0001", hit_set].concat(),
            ),
            (
                "meets",
                encode_response(&EngineResponse::Meets(meets)),
                concat!(
                    "000201000000020000000100000003000000000000000500000000000000",
                    "010000000700000001000000000000000200000000000000",
                )
                .to_owned(),
            ),
            (
                "answer sql",
                encode_request(&answer_sql),
                concat!(
                    "0501", // OP_ANSWER, SQL
                    "1400000073656c65637420742066726f6d20612061732074", // text
                    "6400000000000000", // max rows 100
                )
                .to_owned(),
            ),
            (
                "answers",
                encode_response(&EngineResponse::Answers(answers)),
                concat!(
                    "0003", "01000000", // one result
                    "01020000006462", "02000000", // corpus "db", o2
                    "0100000061", "03000000722f61", // tag, path
                    "0300000000000000", "0500000000000000", // distance, count
                    "02000000", // two witnesses
                    "07000000", "0100000000000000", "0200000000000000",
                    "0103000000426974", // text "Bit"
                    "08000000", "0000000000000000", "0100000000000000", "00",
                    "01000000", "0100000078", "04000000646f776e", // one partial
                )
                .to_owned(),
            ),
            (
                "rows",
                encode_response(&EngineResponse::Rows(rows)),
                concat!(
                    "0004", "010000000100000074", // columns ["t"]
                    "01000000", // one row
                    "010000000100000061", "0100000002000000", // ["a"], [o2]
                )
                .to_owned(),
            ),
            ("error", encode_error_response("nope"), "01040000006e6f7065".to_owned()),
            ("framed ping", framed, "010000006fe97b3f43e8859601".to_owned()),
        ] {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "{what}");
        }
    }

    #[test]
    fn framed_stream_round_trips() {
        let payload = encode_request(&EngineRequest::Search {
            term: "x".to_owned(),
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, DEFAULT_FRAME_CAP).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r, DEFAULT_FRAME_CAP).unwrap(), payload);
        // Clean EOF at a frame boundary is Ok(None), not an error.
        assert!(read_frame_or_eof(&mut r, DEFAULT_FRAME_CAP)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncation_at_every_prefix_is_typed_never_a_panic() {
        let db = Database::from_xml_str(FIG).unwrap();
        let payload = encode_request(&sample_meet_request(&db));
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, DEFAULT_FRAME_CAP).unwrap();
        for len in 1..wire.len() {
            let mut r = &wire[..len];
            assert!(
                read_frame(&mut r, DEFAULT_FRAME_CAP).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        // Body-level truncation behind a valid frame: every prefix of
        // the *payload* must also fail typed.
        for len in 0..payload.len() {
            assert!(
                decode_request(&payload[..len]).is_err(),
                "payload prefix of {len} bytes decoded"
            );
        }
        let answers = db.meet_terms(&["Bit", "1999"]).unwrap();
        for resp in [
            encode_response(&EngineResponse::Hits(db.search("Bit"))),
            encode_response(&EngineResponse::Answers(answers)),
        ] {
            for len in 0..resp.len() {
                assert!(
                    decode_response(&resp[..len]).is_err(),
                    "response prefix of {len} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn oversized_length_and_corrupt_frames_are_typed() {
        // Length field past the cap is refused before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), DEFAULT_FRAME_CAP),
            Err(WireError::FrameTooLarge { .. })
        ));
        // A flipped payload byte fails the frame checksum.
        let payload = encode_request(&EngineRequest::Ping);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload, DEFAULT_FRAME_CAP).unwrap();
        for at in 0..framed.len() {
            let mut corrupt = framed.clone();
            corrupt[at] ^= 0x20;
            assert!(
                read_frame(&mut corrupt.as_slice(), DEFAULT_FRAME_CAP).is_err(),
                "flip at {at} went undetected"
            );
        }
        // Garbage bodies behind valid frames are typed too.
        assert!(decode_request(&[0xFF, 0x00, 0x01]).is_err());
        assert!(decode_response(&[0xFF]).is_err());
        assert!(decode_request(&[]).is_err());
    }

    #[test]
    fn remote_backend_answers_byte_identically_to_in_process() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let (addr, _listener) = toy_engine(Arc::clone(&db));
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[addr.to_string()],
            fast_config(),
        )
        .unwrap();
        let local = db.meet_terms(&["Bit", "1999"]).unwrap();
        let over_wire = answers(&remote, "Bit 1999").unwrap();
        assert_eq!(over_wire.to_detailed_xml(), local.to_detailed_xml());
        assert_eq!(remote.search("Bit").unwrap(), db.search("Bit"));
        assert_eq!(remote.robustness_stats(), RobustnessStats::default());
        // The coordinator holds no corpus, so it has nothing to save.
        assert!(remote.store().is_none());
        assert!(matches!(
            remote.save_snapshot(Path::new("unused.ncq")),
            Err(SnapshotError::Unsupported { .. })
        ));
    }

    #[test]
    fn failover_reissues_on_the_next_replica_and_counts_it() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        // Replica 1: a port with nothing listening (bind, note the
        // address, drop — connections are refused).
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let (live_addr, _listener) = toy_engine(Arc::clone(&db));
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[dead_addr.to_string(), live_addr.to_string()],
            fast_config(),
        )
        .unwrap();
        assert_eq!(
            answers(&remote, "Bit 1999").unwrap().to_detailed_xml(),
            db.meet_terms(&["Bit", "1999"]).unwrap().to_detailed_xml()
        );
        let stats = remote.robustness_stats();
        assert!(stats.failovers > 0, "{stats:?}");
        // After enough failures the dead replica is marked down and
        // the gauge reports it.
        for _ in 0..3 {
            let _ = remote.search("Bit");
        }
        let health = remote.replica_health();
        assert_eq!(health[0].1, ReplicaHealth::Down, "{health:?}");
        assert_eq!(health[1].1, ReplicaHealth::Healthy, "{health:?}");
        assert_eq!(remote.robustness_stats().replicas_down, 1);
    }

    #[test]
    fn all_replicas_down_is_a_typed_error_within_the_timeout_budget() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let config = fast_config();
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[dead_addr.to_string()],
            config.clone(),
        )
        .unwrap();
        let started = Instant::now();
        let err = remote.search("Bit").unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, BackendError::Unavailable { attempts, .. } if attempts >= 2));
        // Budget: 2 rounds × 1 replica × connect timeout + backoff,
        // with generous slack for CI scheduling.
        let budget = Duration::from_secs(5);
        assert!(elapsed < budget, "took {elapsed:?}");
        // Retries were counted, and a whole query fails typed the same
        // way instead of panicking or answering empty.
        assert!(remote.robustness_stats().retries >= 1);
        assert!(matches!(
            answers(&remote, "Bit"),
            Err(BackendError::Unavailable { .. })
        ));
    }

    #[test]
    fn down_replicas_recover_through_ordinary_calls() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        // Start dead: grab a port, refuse connections.
        let parked = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = parked.local_addr().unwrap();
        drop(parked);
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[addr.to_string()],
            fast_config(),
        )
        .unwrap();
        assert!(remote.search("Bit").is_err());
        assert_eq!(remote.replica_health()[0].1, ReplicaHealth::Down);

        // Bring the replica up on the same port. No prober runs: the
        // next call tries the down replica (its probe timer has elapsed,
        // or the forced second pass takes it), so the call heals it.
        let (_, _listener) = toy_engine_on(Arc::clone(&db), TcpListener::bind(addr).unwrap());
        assert_eq!(remote.search("Bit").unwrap(), db.search("Bit"));
        assert_eq!(remote.replica_health()[0].1, ReplicaHealth::Healthy);
    }

    #[test]
    fn in_band_remote_errors_do_not_mark_the_replica_unhealthy() {
        // An engine that refuses every request in-band.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = listener.try_clone().unwrap();
        std::thread::spawn(move || {
            for stream in accept.incoming() {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    while let Ok(Some(_)) = read_frame_or_eof(&mut reader, DEFAULT_FRAME_CAP) {
                        let resp = encode_error_response("term cache poisoned");
                        if write_frame(&mut writer, &resp, DEFAULT_FRAME_CAP).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[addr.to_string()],
            fast_config(),
        )
        .unwrap();
        let err = remote.search("Bit").unwrap_err();
        assert!(matches!(err, BackendError::Remote { detail } if detail.contains("poisoned")));
        assert_eq!(remote.replica_health()[0].1, ReplicaHealth::Healthy);
        assert_eq!(remote.robustness_stats().failovers, 0);
    }
}
