//! The query service: bounded admission, and each request evaluated on
//! the thread that asks.
//!
//! One `Shared` state is owned jointly by the [`Server`] and every
//! [`Client`] handle. Admission is an in-flight counter under a mutex
//! with one condvar, signalled whenever a slot frees or shutdown
//! begins. A caller holds its slot only while it evaluates its own
//! request, so a waiting caller always eventually admits or observes
//! shutdown.

use ncq_core::{AnswerSet, BackendError, CatalogError, Database, MeetBackend};
use ncq_fulltext::HitSet;
use ncq_query::eval::evaluate_on;
use ncq_query::{parse_query, Query, QueryConfig, QueryError, QueryOutput, RowSet, SelectClause};
use ncq_store::snapshot::SnapshotError;
use ncq_store::MonetDb;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError, RwLock};

/// The corpus argument that fans a request out across every corpus of
/// a forest deployment (`USE *` on the wire).
pub const ALL_CORPORA: &str = "*";

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests evaluating at once; [`Client::request`] waits and
    /// [`Client::try_request`] refuses beyond it. Minimum 1.
    pub max_in_flight: usize,
    /// Projection row limit for SQL queries.
    pub max_rows: usize,
    /// Distinct terms the service keeps decoded (FIFO eviction, shared
    /// by every caller); `0` disables the cache. Entries are
    /// epoch-tagged like the semantic cache's.
    pub term_cache_capacity: usize,
    /// Distinct *query results* the service keeps (FIFO eviction,
    /// shared by every caller); `0` disables the semantic cache. A hit
    /// skips evaluation entirely. Entries are epoch-tagged per corpus:
    /// `SNAPSHOT LOAD … INTO c` invalidates only corpus `c`'s entries,
    /// a whole-backend load invalidates everything. An entry is one
    /// flat [`ncq_core::AnswerSet`]: four heap blocks whatever its size,
    /// 20 B per result and per witness, plus its distinct labels and
    /// witness texts. At the default 1,024 entries, `dblp_cold` fills it
    /// with about 3.1 MB.
    pub sem_cache_capacity: usize,
    /// Directory the `SNAPSHOT SAVE`/`SNAPSHOT LOAD` control verbs may
    /// touch. `None` (the default) disables them entirely — the verbs
    /// ride the same socket as queries, so an exposed server must not
    /// hand arbitrary-path file writes to every TCP client. When set,
    /// requests name a bare file inside this directory (no separators,
    /// no `..`).
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_in_flight: 1024,
            max_rows: 10_000,
            term_cache_capacity: 4096,
            sem_cache_capacity: 1024,
            snapshot_dir: None,
        }
    }
}

/// One query, as the service admits it.
///
/// The `corpus` fields route against a forest deployment: `None` hits
/// the backend's default corpus, `Some(name)` a named corpus,
/// `Some("*")` ([`ALL_CORPORA`]) fans out across the whole catalog
/// (any meet, MEET or SQL, and SEARCH; a SQL projection is refused).
/// On single-document backends any `Some(...)` routing is an in-band
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The paper's signature query: full-text search each term, meet the
    /// hit groups (optionally bounded by `within` = `meet^δ`). This is
    /// only the verb's parsed form: it is served as the Listing-2 query
    /// it abbreviates ([`ncq_query::Query::meet_terms`]), one `%`
    /// variable per term.
    MeetTerms {
        /// Search terms, one hit group each.
        terms: Vec<String>,
        /// Maximum witness distance (`meet^δ`).
        within: Option<usize>,
        /// At most this many ranked answers (`LIMIT k` on the wire): the
        /// first `k` of the unbounded ranking, selected while the stack
        /// pass runs; nothing stops early for it. On a fan-out request
        /// the bound applies per corpus.
        limit: Option<usize>,
        /// Corpus routing (see the enum docs).
        corpus: Option<String>,
    },
    /// A query in the SQL-with-paths dialect.
    Sql {
        /// Query text.
        src: String,
        /// Session default corpus; an explicit `from corpus(name)` in
        /// the text wins. `"*"` fans a meet out like MEET's.
        corpus: Option<String>,
    },
    /// A bare full-text search, answered with the hit count.
    Search {
        /// The term.
        term: String,
        /// Corpus routing (see the enum docs).
        corpus: Option<String>,
    },
    /// List the corpora this deployment serves (empty for a
    /// single-document backend) and the default corpus.
    Corpora,
    /// Persist the serving backend's state as a versioned snapshot
    /// file (the line protocol's `SNAPSHOT SAVE <name>`). Gated by
    /// [`ServerConfig::snapshot_dir`]: refused in-band unless the
    /// directory is configured, and `path` must be a bare file name
    /// resolved inside it.
    SnapshotSave {
        /// Destination file name inside the configured snapshot dir.
        path: PathBuf,
    },
    /// Cold-load a snapshot and hot-swap it in (the line protocol's
    /// `SNAPSHOT LOAD <name> [INTO <corpus>]`). Without a corpus the
    /// whole backend swaps for one of the same kind
    /// ([`MeetBackend::open_snapshot_like`]); a remote corpus refuses,
    /// since its replicas own it. With a corpus, only that corpus of a
    /// forest deployment swaps ([`MeetBackend::reload_corpus`]) and
    /// every *other*
    /// corpus's engine is shared by refcount, so sibling corpora — and
    /// every request in flight — are untouched. Either way the swap
    /// takes effect for requests that start after this one completes,
    /// and the swapped scope's cached
    /// term decodes and results go stale. Gated by
    /// [`ServerConfig::snapshot_dir`] like the save verb.
    SnapshotLoad {
        /// Source file name inside the configured snapshot dir.
        path: PathBuf,
        /// Forest corpus to splice the snapshot into; `None` swaps the
        /// whole backend.
        corpus: Option<String>,
    },
}

impl Request {
    /// A [`Request::MeetTerms`] without a distance bound, against the
    /// default corpus.
    pub fn meet_terms<I, S>(terms: I) -> Request
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Request::MeetTerms {
            terms: terms.into_iter().map(Into::into).collect(),
            within: None,
            limit: None,
            corpus: None,
        }
    }

    /// A [`Request::Sql`] from query text (default corpus).
    pub fn sql(src: impl Into<String>) -> Request {
        Request::Sql {
            src: src.into(),
            corpus: None,
        }
    }

    /// A [`Request::Search`] for one term (default corpus).
    pub fn search(term: impl Into<String>) -> Request {
        Request::Search {
            term: term.into(),
            corpus: None,
        }
    }

    /// A [`Request::SnapshotSave`] to the given file.
    pub fn snapshot_save(path: impl Into<PathBuf>) -> Request {
        Request::SnapshotSave { path: path.into() }
    }

    /// A [`Request::SnapshotLoad`] from the given file (whole-backend
    /// swap).
    pub fn snapshot_load(path: impl Into<PathBuf>) -> Request {
        Request::SnapshotLoad {
            path: path.into(),
            corpus: None,
        }
    }

    /// A [`Request::SnapshotLoad`] spliced into one forest corpus.
    pub fn snapshot_load_into(path: impl Into<PathBuf>, corpus: impl Into<String>) -> Request {
        Request::SnapshotLoad {
            path: path.into(),
            corpus: Some(corpus.into()),
        }
    }

    /// This request routed at the given corpus (`None` clears the
    /// routing; snapshot saves and `CORPORA` are unaffected).
    pub fn with_corpus(mut self, corpus: Option<String>) -> Request {
        match &mut self {
            Request::MeetTerms { corpus: c, .. }
            | Request::Sql { corpus: c, .. }
            | Request::Search { corpus: c, .. } => *c = corpus,
            Request::SnapshotSave { .. } | Request::SnapshotLoad { .. } | Request::Corpora => {}
        }
        self
    }
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked meet answers.
    Answers(AnswerSet),
    /// Projection rows.
    Rows(RowSet),
    /// Full-text hit count.
    Count(usize),
    /// A control-plane acknowledgement (snapshot save/load), one line
    /// of human-readable detail.
    Info(String),
    /// The corpora of a forest deployment ([`Request::Corpora`]) —
    /// names in catalog order plus the default corpus. Both empty for
    /// single-document backends.
    Corpora {
        /// Corpus names, catalog order.
        names: Vec<String>,
        /// The default corpus, if the backend routes by corpus.
        default: Option<String>,
    },
    /// The query failed (parse error, row-limit explosion, …). The
    /// service stays up; errors are per-request.
    Error(String),
}

/// Client-visible service errors (admission, not the query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The server is shutting down; no new requests are admitted.
    Closed,
    /// Every in-flight slot is taken ([`Client::try_request`] only).
    Saturated,
    /// The request was served but answered [`Response::Error`]
    /// (convenience accessors like [`Client::meet_terms`] surface it
    /// here).
    Query(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Closed => write!(f, "server is shut down"),
            ServerError::Saturated => write!(f, "every in-flight slot is taken"),
            ServerError::Query(msg) => write!(f, "query failed: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Counters accumulated since start, readable while serving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered.
    pub served: usize,
    /// Requests answered in the current window (since start or the
    /// last `STATS RESET`).
    // Only because perf/src/run.rs reads it; ROADMAP 17 drops the row.
    pub batches: usize,
    /// Term look-ups that ran a full-text search.
    pub term_decodes: usize,
    /// Term look-ups answered from the term cache (shared decodes).
    pub term_cache_hits: usize,
    /// Cacheable queries (MEET/SQL against one corpus; a `USE *`
    /// fan-out is not cached) answered from the semantic result cache —
    /// evaluation skipped entirely.
    pub sem_hits: usize,
    /// Cacheable queries that had to evaluate. For any run without
    /// config changes, `sem_hits + sem_misses` equals the cacheable
    /// queries served (the coherence suite pins the reconciliation).
    pub sem_misses: usize,
    /// Semantic-cache entries dropped: FIFO capacity evictions plus
    /// generation-stale entries removed on lookup after a snapshot
    /// swap.
    pub sem_evictions: usize,
    /// Requests refused at admission ([`Client::try_request`] with
    /// every slot taken) plus connections refused by the TCP acceptor's
    /// connection cap — every form of shedding the service performs.
    pub shed: usize,
    /// Queries served per corpus, sorted by name — populated only when
    /// requests route by corpus (forest deployments; a fan-out request
    /// counts once per corpus it reached). Read per-corpus load and
    /// shed pressure from here.
    pub queries_by_corpus: Vec<(String, usize)>,
    /// Remote-replica calls that needed a backoff-retry round (merged
    /// from the serving backend's failover routers; zero for purely
    /// local deployments).
    pub retries: u64,
    /// Remote calls answered by a replica other than the first one
    /// tried.
    pub failovers: u64,
    /// Replicas currently marked down across every failover router.
    pub replicas_down: u64,
    /// Remote calls that hit a connect/read/write timeout.
    pub timeouts: u64,
    /// Fan-out answers degraded to partial because every replica of
    /// some corpus was unavailable (the answer carries a typed
    /// `<partial>` marker instead of silently missing results).
    pub partial_answers: usize,
}

impl ServerStats {
    /// Share of admission attempts in the window that were shed:
    /// `shed / (batches + shed)`. Both counts restart at `STATS RESET`,
    /// so the rate never divides a window count by a lifetime total.
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.batches + self.shed;
        if attempts == 0 {
            0.0
        } else {
            self.shed as f64 / attempts as f64
        }
    }

    /// Share of cacheable queries answered from the semantic result
    /// cache: `sem_hits / (sem_hits + sem_misses)`, `0.0` before any
    /// cacheable query.
    pub fn sem_hit_rate(&self) -> f64 {
        let lookups = self.sem_hits + self.sem_misses;
        if lookups == 0 {
            0.0
        } else {
            self.sem_hits as f64 / lookups as f64
        }
    }

    /// Share of term look-ups served from the decode cache:
    /// `term_cache_hits / (term_cache_hits + term_decodes)`, `0.0`
    /// before any look-up.
    pub fn term_cache_hit_rate(&self) -> f64 {
        let lookups = self.term_cache_hits + self.term_decodes;
        if lookups == 0 {
            0.0
        } else {
            self.term_cache_hits as f64 / lookups as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicUsize,
    batches: AtomicUsize,
    term_decodes: AtomicUsize,
    term_cache_hits: AtomicUsize,
    sem_hits: AtomicUsize,
    sem_misses: AtomicUsize,
    sem_evictions: AtomicUsize,
    shed: AtomicUsize,
    partial_answers: AtomicUsize,
    /// Per-corpus query counts. A mutex (not a sharded atomic map)
    /// because the set of corpora is tiny and the increment sits next
    /// to a full query evaluation.
    by_corpus: Mutex<BTreeMap<String, usize>>,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Relaxed),
            batches: self.batches.load(Relaxed),
            term_decodes: self.term_decodes.load(Relaxed),
            term_cache_hits: self.term_cache_hits.load(Relaxed),
            sem_hits: self.sem_hits.load(Relaxed),
            sem_misses: self.sem_misses.load(Relaxed),
            sem_evictions: self.sem_evictions.load(Relaxed),
            shed: self.shed.load(Relaxed),
            queries_by_corpus: self
                .by_corpus
                .lock()
                .expect("corpus counter lock")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            partial_answers: self.partial_answers.load(Relaxed),
            ..ServerStats::default()
        }
    }

    fn note_corpus(&self, name: &str) {
        *self
            .by_corpus
            .lock()
            .expect("corpus counter lock")
            .entry(name.to_owned())
            .or_insert(0) += 1;
    }

    /// Zero the *window* counters — the ones an operator reads as
    /// rates over a measurement window (answered requests, cache
    /// hits/misses, shedding) — while leaving the monotonic lifetime
    /// totals (`served`, per-corpus counts) untouched. The `STATS RESET`
    /// verb; remote robustness counters live in the backend's routers
    /// and are not reset here.
    fn reset_window(&self) {
        for counter in [
            &self.batches,
            &self.term_decodes,
            &self.term_cache_hits,
            &self.sem_hits,
            &self.sem_misses,
            &self.sem_evictions,
            &self.shed,
            &self.partial_answers,
        ] {
            counter.store(0, Relaxed);
        }
    }
}

struct Shared {
    /// The serving backend. Behind an `RwLock` so `SNAPSHOT LOAD` can
    /// hot-swap a cold-started engine in; each request takes one
    /// read-clone (an uncontended read lock + refcount bump), so the
    /// steady-state cost is nil and a swap never stalls in-flight
    /// evaluation — requests in flight finish on the old `Arc`.
    db: RwLock<Arc<dyn MeetBackend>>,
    /// Invalidation epochs for both caches, split by scope: a
    /// whole-backend swap bumps `full`, a per-corpus splice bumps only
    /// that corpus's entry. Swappers mutate this while still holding
    /// the `db` *write* lock and readers snapshot it under the *read*
    /// lock, so a request can never pair a fresh engine with stale
    /// epochs (or vice versa). Lock order: `db`, then `epochs`.
    epochs: Mutex<Epochs>,
    /// The semantic result cache.
    sem: Mutex<EpochCache<SemKey, Response>>,
    /// Decoded terms, keyed `corpus \0 term`: the same term decodes
    /// differently per corpus of a forest, and corpus names can never
    /// contain NUL (the manifest/catalog name validation), so the split
    /// at the first NUL is unambiguous. Values are `Arc`s, so a hit is
    /// a refcount bump, not a copy of the posting lists.
    terms: Mutex<EpochCache<String, Arc<HitSet>>>,
    config: ServerConfig,
    /// Requests evaluating now (≤ [`ServerConfig::max_in_flight`]).
    /// Nothing panics while holding it, so a poisoned lock still
    /// guards a true count and is recovered, not unwrapped — least of
    /// all in [`Slot`]'s drop, which may run while a panic unwinds.
    in_flight: Mutex<usize>,
    /// Set when shutdown begins. Written and read only under the
    /// `in_flight` lock, which orders it, so `Relaxed` suffices.
    closed: AtomicBool,
    /// Signalled when a slot frees or shutdown begins.
    freed: Condvar,
    stats: Counters,
}

/// Snapshot-swap epochs cache entries validate against.
#[derive(Debug, Clone, Default)]
struct Epochs {
    /// Whole-backend swaps (`SNAPSHOT LOAD` without `INTO`).
    full: usize,
    /// Per-corpus splices (`SNAPSHOT LOAD … INTO c`), keyed by corpus.
    per_corpus: HashMap<String, usize>,
}

/// `(whole-backend swaps, splices of one corpus)` — what an entry of
/// that corpus is tagged with and checked against.
type Epoch = (usize, usize);

impl Epochs {
    fn of(&self, corpus: &str) -> Epoch {
        (self.full, self.per_corpus.get(corpus).copied().unwrap_or(0))
    }
}

/// The one cache mechanism of the service: a FIFO-evicting map whose
/// entries carry the [`Epoch`] observed when their computation
/// *started* — a value computed on an engine that was swapped out
/// mid-flight tags as already stale and is never served. Instantiated
/// twice: the result cache ([`Shared::sem`]) and the term-decode cache
/// ([`Shared::terms`]). Callers hold the lock for one lookup or one
/// insert, never across an evaluation or a decode.
struct EpochCache<K, V> {
    map: HashMap<K, (V, Epoch)>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> EpochCache<K, V> {
    fn new(capacity: usize) -> EpochCache<K, V> {
        EpochCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// A still-valid entry for `key`, or `None`. A stale entry is
    /// removed on sight (counted into `evicted`) — it can never become
    /// valid again.
    fn lookup(&mut self, key: &K, epoch: Epoch, evicted: &mut usize) -> Option<V> {
        let (value, tagged) = self.map.get(key)?;
        if *tagged == epoch {
            return Some(value.clone());
        }
        self.map.remove(key);
        self.order.retain(|k| k != key);
        *evicted += 1;
        None
    }

    /// Insert (or refresh) an entry, evicting FIFO-oldest past
    /// capacity; returns how many entries were evicted. A zero
    /// capacity keeps nothing.
    fn insert(&mut self, key: K, value: V, epoch: Epoch) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                self.map.remove(&oldest);
                evicted += 1;
            }
            self.order.push_back(key.clone());
        }
        self.map.insert(key, (value, epoch));
        evicted
    }
}

/// Result-cache key: every field that selects the answer, typed — so
/// no corpus name can spell another request's query text. The text is
/// the canonical print of the parse: whitespace and case variants of a
/// SQL query share an entry, and so do a MEET and its Listing-2 query
/// (term order is kept — witness `term` indices depend on it). The
/// corpus is the *resolved* one (text wins over session wins over
/// default).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SemKey {
    query: String,
    corpus: String,
    session: Option<String>,
}

impl Shared {
    /// The current backend (a refcount bump, not a copy).
    fn backend(&self) -> Arc<dyn MeetBackend> {
        Arc::clone(&self.db.read().expect("backend lock"))
    }

    /// The current backend with the cache epochs read under the same
    /// read-lock hold — and a swap bumps its epoch while still holding
    /// the write lock — so the pair is consistent for the whole
    /// request: it can never pair a new engine with old epochs (which
    /// would let it serve term decodes or results of the previous
    /// corpus).
    fn backend_and_epochs(&self) -> (Arc<dyn MeetBackend>, Epochs) {
        let guard = self.db.read().expect("backend lock");
        let epochs = self.epochs.lock().expect("epoch lock").clone();
        (Arc::clone(&guard), epochs)
    }

    /// Counters plus the serving backend's failover-router counters
    /// (retries, failovers, down replicas, timeouts) — merged at
    /// snapshot time because they live in the backend's routers, not
    /// in the service layer.
    fn stats_snapshot(&self) -> ServerStats {
        let mut stats = self.stats.snapshot();
        let remote = self.backend().robustness_stats();
        stats.retries = remote.retries;
        stats.failovers = remote.failovers;
        stats.replicas_down = remote.replicas_down;
        stats.timeouts = remote.timeouts;
        stats
    }
}

/// The running service. Dropping it (or [`Server::shutdown`]) refuses
/// new requests and waits for the ones in flight.
pub struct Server {
    shared: Arc<Shared>,
}

/// A cheaply clonable blocking handle to a [`Server`]. Each request
/// evaluates on the thread that makes it.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Server {
    /// Serve a loaded database. The structural meet index is built
    /// eagerly so the first queries don't race to build it.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> Server {
        Server::start_backend(db, config)
    }

    /// Serve any [`MeetBackend`] — the single-process [`Database`], a
    /// remote engine or a forest. A MEET becomes the SQL meet it
    /// abbreviates, and every query evaluates through `ncq-query` with
    /// the shared term cache resolving its needles.
    pub fn start_backend(db: Arc<dyn MeetBackend>, config: ServerConfig) -> Server {
        if let Some(store) = db.store() {
            store.meet_index();
        }
        let shared = Arc::new(Shared {
            db: RwLock::new(db),
            epochs: Mutex::new(Epochs::default()),
            sem: Mutex::new(EpochCache::new(config.sem_cache_capacity)),
            terms: Mutex::new(EpochCache::new(config.term_cache_capacity)),
            config,
            in_flight: Mutex::new(0),
            closed: AtomicBool::new(false),
            freed: Condvar::new(),
            stats: Counters::default(),
        });
        Server { shared }
    }

    /// Cold-start the service from a snapshot file: the single-process
    /// [`Database`] is loaded (meet index, stats and postings arrive
    /// pre-computed — no parse, no O(n log n) preprocess) and served.
    pub fn open_snapshot(
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> Result<Server, SnapshotError> {
        let db = Arc::new(Database::open_snapshot(path)?);
        Ok(Server::start(db, config))
    }

    /// Cold-start a *forest* service from a manifest file: every
    /// corpus entry opens from its snapshot, verified against the
    /// manifest's recorded checksums ([`ncq_core::Catalog::open_manifest`]),
    /// and the resulting [`ncq_core::ForestBackend`] is served.
    /// Unqualified queries hit the manifest's default corpus;
    /// `USE <corpus>` / `from corpus(name)` route the rest.
    pub fn open_manifest(
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> Result<Server, CatalogError> {
        let forest = ncq_core::open_forest(path)?;
        Ok(Server::start_backend(Arc::new(forest), config))
    }

    /// A new client handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Refuse new requests, wait for the ones in flight; returns the
    /// final counters.
    pub fn shutdown(self) -> ServerStats {
        self.shared.close();
        self.shared.stats_snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.close();
    }
}

/// A guard of [`Shared::in_flight`], recovered if poisoned.
fn unpoison<T>(locked: LockResult<T>) -> T {
    locked.unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight slot; dropping it — on return or while a panic
/// unwinds — frees the slot.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        *unpoison(self.0.in_flight.lock()) -= 1;
        self.0.freed.notify_all();
    }
}

impl Shared {
    /// Take an in-flight slot, waiting for one when `block`, else
    /// refusing with [`ServerError::Saturated`].
    fn admit(&self, block: bool) -> Result<Slot<'_>, ServerError> {
        let capacity = self.config.max_in_flight.max(1);
        let mut in_flight = unpoison(self.in_flight.lock());
        loop {
            if self.closed.load(Relaxed) {
                return Err(ServerError::Closed);
            }
            if *in_flight < capacity {
                *in_flight += 1;
                return Ok(Slot(self));
            }
            if !block {
                self.stats.shed.fetch_add(1, Relaxed);
                return Err(ServerError::Saturated);
            }
            in_flight = unpoison(self.freed.wait(in_flight));
        }
    }

    /// Refuse new requests, then wait until none is in flight.
    fn close(&self) {
        let mut in_flight = unpoison(self.in_flight.lock());
        self.closed.store(true, Relaxed);
        self.freed.notify_all();
        while *in_flight > 0 {
            in_flight = unpoison(self.freed.wait(in_flight));
        }
    }

    /// Evaluate one admitted request on the calling thread, traced under
    /// `trace_id`. A panic in evaluation answers an in-band error.
    fn answer(&self, request: &Request, trace_id: u64) -> Response {
        // One backend per request: a concurrent SNAPSHOT LOAD swaps the
        // engine for *subsequent* requests. Backend and cache epochs
        // are read as one consistent pair (see
        // [`Shared::backend_and_epochs`]), so decodes and results of a
        // swapped-out engine fail their epoch check.
        let (db, epochs) = self.backend_and_epochs();
        ncq_obs::obs().begin_trace(trace_id);
        ncq_obs::trace::annotate("op", request_kind(request).to_owned());
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(self, &db, &epochs, request)
        }))
        .unwrap_or_else(|_| {
            Response::Error("internal error: query evaluation panicked".to_owned())
        });
        // Seal before answering: a client holding its answer can
        // already read its trace (`TRACE`).
        finish_request_trace();
        self.stats.served.fetch_add(1, Relaxed);
        self.stats.batches.fetch_add(1, Relaxed);
        response
    }
}

impl Client {
    fn serve(&self, request: Request, block: bool, trace_id: u64) -> Result<Response, ServerError> {
        let _slot = self.shared.admit(block)?;
        Ok(self.shared.answer(&request, trace_id))
    }

    /// Admit (waiting for a free slot) and answer.
    pub fn request(&self, request: Request) -> Result<Response, ServerError> {
        self.request_with_id(request, ncq_obs::obs().next_trace_id())
    }

    /// [`Client::request`] under a caller-allocated trace/request id —
    /// front ends that already stamped the request (the line protocol's
    /// per-line id, which also rides `ERR` responses) pass it through
    /// so the evaluation's trace carries the same id.
    pub fn request_with_id(
        &self,
        request: Request,
        trace_id: u64,
    ) -> Result<Response, ServerError> {
        self.serve(request, true, trace_id)
    }

    /// Admit without waiting — [`ServerError::Saturated`] when every
    /// slot is taken — then answer.
    pub fn try_request(&self, request: Request) -> Result<Response, ServerError> {
        self.serve(request, false, ncq_obs::obs().next_trace_id())
    }

    /// Zero the window state (`STATS RESET`): answered-request, cache
    /// hit/miss and shedding counters restart, and every registered
    /// histogram's buckets clear with them — a latency histogram is
    /// window state exactly like the hit/miss counters it sits next
    /// to. Monotonic lifetime totals (`served`, per-corpus counts) and
    /// registry counters keep counting.
    pub fn reset_window_stats(&self) {
        self.shared.stats.reset_window();
        ncq_obs::obs().registry.reset_histograms();
    }

    /// Convenience: meet of full-text terms, unwrapped to an answer set.
    pub fn meet_terms<I, S>(&self, terms: I) -> Result<AnswerSet, ServerError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        match self.request(Request::meet_terms(terms))? {
            Response::Answers(a) => Ok(a),
            Response::Error(msg) => Err(ServerError::Query(msg)),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Convenience: run a SQL-dialect query.
    pub fn sql(&self, src: impl Into<String>) -> Result<Response, ServerError> {
        self.request(Request::sql(src))
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Convenience: the corpora this deployment serves and its default
    /// (both empty/`None` for single-document backends).
    pub fn corpora(&self) -> Result<(Vec<String>, Option<String>), ServerError> {
        match self.request(Request::Corpora)? {
            Response::Corpora { names, default } => Ok((names, default)),
            Response::Error(msg) => Err(ServerError::Query(msg)),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Record one shed request on behalf of a front end that refuses
    /// work before admission (the TCP acceptor's connection cap) —
    /// keeps [`ServerStats::shed_rate`] covering every form of shedding
    /// the service performs.
    pub(crate) fn note_shed(&self) {
        self.shared.stats.shed.fetch_add(1, Relaxed);
    }
}

/// `term`'s hits on `db` (the engine of `corpus`, whose request-start
/// `epoch` tags and validates the entry), from the term cache when it
/// holds a still-valid decode. The cache lock is held for the lookup
/// and the insert only: concurrent misses on one term each decode.
/// Fallible since the backend may be a remote replica set: a decode
/// that fails (every replica down) is a typed error, never a silently
/// empty hit set — and is *not* cached, so the next request retries
/// against recovered replicas.
fn get_or_decode(
    shared: &Shared,
    epoch: Epoch,
    db: &dyn MeetBackend,
    corpus: &str,
    term: &str,
) -> Result<Arc<HitSet>, BackendError> {
    let key = format!("{corpus}\0{term}");
    let cached = shared
        .terms
        .lock()
        .expect("term cache lock")
        .lookup(&key, epoch, &mut 0);
    if let Some(hits) = cached {
        shared.stats.term_cache_hits.fetch_add(1, Relaxed);
        ncq_obs::trace::event("term_cache", format!("hit {term}"));
        return Ok(hits);
    }
    shared.stats.term_decodes.fetch_add(1, Relaxed);
    let _decode = ncq_obs::trace::span("term_decode");
    ncq_obs::trace::annotate("term", term.to_owned());
    let hits = Arc::new(db.search(term)?);
    shared
        .terms
        .lock()
        .expect("term cache lock")
        .insert(key, Arc::clone(&hits), epoch);
    Ok(hits)
}

/// Registry handle for the end-to-end request latency histogram.
fn request_ns_histogram() -> &'static Arc<ncq_obs::Histogram> {
    static H: std::sync::OnceLock<Arc<ncq_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| ncq_obs::obs().registry.histogram("ncq_request_ns"))
}

/// Seal the current request's trace into the trace ring (and the
/// slow-query log when over threshold) and record its end-to-end
/// latency. A no-op when tracing is off.
fn finish_request_trace() {
    if let Some(done) = ncq_obs::obs().finish_trace() {
        request_ns_histogram().record(done.total_ns);
    }
}

/// The `op` label a request kind contributes to its trace root.
fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::MeetTerms { .. } => "meet",
        Request::Sql { .. } => "sql",
        Request::Search { .. } => "search",
        Request::Corpora => "corpora",
        Request::SnapshotSave { .. } => "snapshot_save",
        Request::SnapshotLoad { .. } => "snapshot_load",
    }
}

/// Answer a cacheable query: from the semantic result cache when `key`
/// holds a still-valid entry (evaluation skipped entirely), else by
/// `evaluate`, remembering every answer but an error. `None` (cache
/// off, or SQL that does not parse) just evaluates.
fn cached(
    shared: &Shared,
    key: Option<(SemKey, Epoch)>,
    evaluate: impl FnOnce() -> Response,
) -> Response {
    if let Some((key, epoch)) = &key {
        if let Some(hit) = sem_lookup(shared, key, *epoch) {
            return hit;
        }
    }
    let response = evaluate();
    if let (Some((key, epoch)), false) = (key, matches!(response, Response::Error(_))) {
        sem_insert(shared, key, response.clone(), epoch);
    }
    response
}

/// Semantic-cache lookup with counter upkeep. `None` counts a miss.
fn sem_lookup(shared: &Shared, key: &SemKey, epoch: Epoch) -> Option<Response> {
    let mut evicted = 0;
    let hit = shared
        .sem
        .lock()
        .expect("sem cache lock")
        .lookup(key, epoch, &mut evicted);
    shared.stats.sem_evictions.fetch_add(evicted, Relaxed);
    match &hit {
        Some(_) => {
            ncq_obs::trace::event("sem_cache", "hit".to_owned());
            shared.stats.sem_hits.fetch_add(1, Relaxed)
        }
        None => {
            ncq_obs::trace::event("sem_cache", "miss".to_owned());
            shared.stats.sem_misses.fetch_add(1, Relaxed)
        }
    };
    hit
}

/// Semantic-cache insert with eviction accounting.
fn sem_insert(shared: &Shared, key: SemKey, response: Response, epoch: Epoch) {
    let evicted = shared
        .sem
        .lock()
        .expect("sem cache lock")
        .insert(key, response, epoch);
    shared.stats.sem_evictions.fetch_add(evicted, Relaxed);
}

/// Resolve a request's corpus routing: `(engine to evaluate on, stat
/// key to count under)`. `None` routing on a forest resolves to the
/// default corpus *name* for accounting while evaluating through the
/// forest backend itself (whose trait surface already routes to the
/// default corpus); on a single-document backend there is no corpus to
/// count. An explicit name resolves through [`MeetBackend::corpus`].
fn resolve_corpus(
    db: &Arc<dyn MeetBackend>,
    corpus: &Option<String>,
) -> Result<(Arc<dyn MeetBackend>, Option<String>), String> {
    match corpus.as_deref() {
        None => Ok((Arc::clone(db), db.default_corpus())),
        Some(name) => match db.corpus(name) {
            Some(target) => Ok((target, Some(name.to_owned()))),
            None => Err(format!("unknown corpus {name:?}")),
        },
    }
}

/// Evaluate one request to completion on the backend it started on.
fn execute(
    shared: &Shared,
    db: &Arc<dyn MeetBackend>,
    epochs: &Epochs,
    request: &Request,
) -> Response {
    match request {
        // The MEET verb is Listing 2's shorthand: from here on it is
        // that query, on the one evaluation every meet takes.
        Request::MeetTerms {
            terms,
            within,
            limit,
            corpus,
        } => {
            if terms.is_empty() {
                return Response::Error("MEET needs at least one term".to_owned());
            }
            if *limit == Some(0) {
                return Response::Error(QueryError::InvalidLimit.to_string());
            }
            let query = Query::meet_terms(terms, *within, *limit);
            answer_query(shared, db, epochs, &query, corpus)
        }
        Request::Sql { src, corpus } => {
            let parsed = {
                let _parse = ncq_obs::trace::span("parse");
                parse_query(src)
            };
            match parsed {
                Ok(query) => answer_query(shared, db, epochs, &query, corpus),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Search { term, corpus } => {
            if corpus.as_deref() == Some(ALL_CORPORA) {
                let names = db.corpus_names();
                if names.is_empty() {
                    return Response::Error(
                        "this deployment serves no corpora (single-document backend)".to_owned(),
                    );
                }
                let mut total = 0usize;
                for name in &names {
                    let Some(target) = db.corpus(name) else {
                        return Response::Error(format!("unknown corpus {name:?}"));
                    };
                    shared.stats.note_corpus(name);
                    // A count cannot carry a partial marker, and a
                    // silently short total is a wrong answer — so an
                    // unavailable corpus fails the whole fan-out count,
                    // typed with the corpus it died on.
                    match get_or_decode(shared, epochs.of(name), &*target, name, term) {
                        Ok(hits) => total += hits.len(),
                        Err(e) => {
                            return Response::Error(format!("corpus {name:?}: {e}"));
                        }
                    }
                }
                return Response::Count(total);
            }
            let (target, stat_name) = match resolve_corpus(db, corpus) {
                Ok(pair) => pair,
                Err(msg) => return Response::Error(msg),
            };
            if let Some(name) = &stat_name {
                shared.stats.note_corpus(name);
            }
            let cache_corpus = stat_name.as_deref().unwrap_or("");
            let epoch = epochs.of(cache_corpus);
            match get_or_decode(shared, epoch, &*target, cache_corpus, term) {
                Ok(hits) => Response::Count(hits.len()),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Corpora => Response::Corpora {
            names: db.corpus_names(),
            default: db.default_corpus(),
        },
        Request::SnapshotSave { path } => match resolve_snapshot_path(&shared.config, path) {
            // Every backend that saves holds a store: a remote corpus
            // and a forest refuse the verb, so the 0 below is never
            // printed by an in-tree backend.
            Ok(full) => match db.save_snapshot(&full) {
                Ok(()) => Response::Info(format!(
                    "snapshot saved: {} objects -> {}",
                    db.store().map_or(0, MonetDb::node_count),
                    full.display()
                )),
                Err(e) => Response::Error(e.to_string()),
            },
            Err(e) => Response::Error(e.to_string()),
        },
        Request::SnapshotLoad { path, corpus } => {
            let full = match resolve_snapshot_path(&shared.config, path) {
                Ok(full) => full,
                Err(e) => return Response::Error(e.to_string()),
            };
            match corpus {
                None => {
                    // Whole-backend reload: the fresh engine is built
                    // entirely from the file (only its *shape* comes
                    // from the current backend), so building outside
                    // the write lock is safe — concurrent whole-backend
                    // loads are last-write-wins by design, which
                    // matches the verb's "replace everything" meaning.
                    let fresh = match db.open_snapshot_like(&full) {
                        Ok(fresh) => fresh,
                        Err(e) => return Response::Error(e.to_string()),
                    };
                    // A remote corpus and a forest refuse above, so
                    // the fresh engine is a `Database` with a store.
                    let objects = fresh.store().map_or(0, MonetDb::node_count);
                    {
                        // Full swap: every cached decode and result is
                        // for the old backend now. Bump the epoch while
                        // still holding the write lock: readers take
                        // (backend, epochs) under the read lock, so
                        // they can never pair the new engine with the
                        // old epochs or vice versa.
                        let mut guard = shared.db.write().expect("backend lock");
                        *guard = fresh;
                        shared.epochs.lock().expect("epoch lock").full += 1;
                    }
                    Response::Info(format!(
                        "snapshot loaded: {objects} objects <- {} (takes effect for subsequent requests)",
                        full.display()
                    ))
                }
                Some(name) => {
                    // Per-corpus splice. The replacement forest clones
                    // the *current* catalog (not this request's possibly
                    // stale backend — a sibling corpus may have been
                    // swapped since the request began), and the
                    // expensive snapshot load runs outside the write
                    // lock: if another swap lands in between (the
                    // serving backend is no longer the one cloned),
                    // rebuild against the new current forest instead of
                    // silently discarding that swap. Retries are rare —
                    // swaps are operator actions — and each one
                    // observes a strictly newer backend.
                    loop {
                        let current = shared.backend();
                        let fresh = match current.reload_corpus(name, &full) {
                            Ok(fresh) => fresh,
                            Err(e) => return Response::Error(format!("corpus {name:?}: {e}")),
                        };
                        let mut guard = shared.db.write().expect("backend lock");
                        // `current` keeps its allocation alive, so
                        // pointer identity cannot be a recycled address.
                        if !Arc::ptr_eq(&guard, &current) {
                            continue; // lost a race: splice into the newer forest
                        }
                        *guard = fresh;
                        // Per-corpus splice invalidates only this
                        // corpus's cached decodes and results; siblings
                        // keep serving theirs.
                        *shared
                            .epochs
                            .lock()
                            .expect("epoch lock")
                            .per_corpus
                            .entry(name.clone())
                            .or_insert(0) += 1;
                        drop(guard);
                        return Response::Info(format!(
                            "corpus {name:?} reloaded <- {} (takes effect for subsequent requests)",
                            full.display()
                        ));
                    }
                }
            }
        }
    }
}

/// Answer a query — SQL text or a desugared MEET — on the corpus it
/// resolves to: the text's `from corpus(name)`, else the session
/// corpus, else the backend's default. Needles resolve through the
/// shared term cache; under `USE *` a meet fans out instead.
fn answer_query(
    shared: &Shared,
    db: &Arc<dyn MeetBackend>,
    epochs: &Epochs,
    query: &Query,
    session: &Option<String>,
) -> Response {
    let named = query.corpus.clone().or_else(|| session.clone());
    if named.as_deref() == Some(ALL_CORPORA) {
        return fan_out(shared, db, epochs, query);
    }
    let (target, resolved) = match resolve_corpus(db, &named) {
        Ok(pair) => pair,
        Err(msg) => return Response::Error(msg),
    };
    // Accounting follows the session (or default) corpus, independent
    // of any `from corpus(name)` inside the text.
    if let Some(name) = session.clone().or_else(|| db.default_corpus()) {
        shared.stats.note_corpus(&name);
    }
    let corpus = resolved.unwrap_or_default();
    let epoch = epochs.of(&corpus);
    let key = (shared.config.sem_cache_capacity > 0).then(|| {
        let key = SemKey {
            query: query.to_string(),
            corpus: corpus.clone(),
            session: session.clone(),
        };
        (key, epoch)
    });
    cached(shared, key, || {
        let _eval = ncq_obs::trace::span("eval");
        respond(evaluate_on(
            &*target,
            query,
            &query_config(shared),
            &mut |term| get_or_decode(shared, epoch, &*target, &corpus, term),
        ))
    })
}

/// A meet on every corpus of the forest (`USE *`), answers tagged by
/// corpus and concatenated in catalog order: meets never span corpora,
/// so that is the whole answer. A corpus whose engine is unavailable
/// contributes a typed `<partial>` marker instead of failing the
/// fan-out. Not result-cached: one entry would span every corpus's
/// invalidation epoch.
fn fan_out(shared: &Shared, db: &Arc<dyn MeetBackend>, epochs: &Epochs, query: &Query) -> Response {
    if !matches!(query.select, SelectClause::Meet { .. }) {
        return Response::Error(
            "a projection evaluates against one corpus; USE a concrete corpus name".to_owned(),
        );
    }
    let names = db.corpus_names();
    if names.is_empty() {
        return Response::Error(
            "this deployment serves no corpora (single-document backend)".to_owned(),
        );
    }
    let mut all = AnswerSet::default();
    for name in &names {
        let Some(target) = db.corpus(name) else {
            continue;
        };
        shared.stats.note_corpus(name);
        let epoch = epochs.of(name);
        let output = evaluate_on(&*target, query, &query_config(shared), &mut |term| {
            get_or_decode(shared, epoch, &*target, name, term)
        });
        match output {
            Ok(QueryOutput::Answers(answers)) => all.append(name, answers),
            Err(QueryError::Backend { detail }) => all.push_partial(name, detail),
            other => return respond(other),
        }
    }
    shared
        .stats
        .partial_answers
        .fetch_add(all.partials.len(), Relaxed);
    Response::Answers(all)
}

fn query_config(shared: &Shared) -> QueryConfig {
    QueryConfig {
        max_rows: shared.config.max_rows,
    }
}

/// An evaluation as a response. An unavailable engine reads the same
/// whichever verb met it: its own message, as `SEARCH` reports it.
fn respond(output: Result<QueryOutput, QueryError>) -> Response {
    match output {
        Ok(QueryOutput::Answers(answers)) => Response::Answers(answers),
        Ok(QueryOutput::Rows(rows)) => Response::Rows(rows),
        Err(e) => {
            let msg = match e {
                QueryError::Backend { detail } => detail,
                e => e.to_string(),
            };
            ncq_obs::trace::event("error", msg.clone());
            Response::Error(msg)
        }
    }
}

/// Typed failures of the snapshot verbs' path gate — returned in-band
/// so a network client sees a protocol error, never backend io text
/// for a name that should have been refused up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotPathError {
    /// [`ServerConfig::snapshot_dir`] is not set.
    Disabled,
    /// The argument is not a single bare file name (separators, `..`,
    /// absolute paths, or nothing at all).
    NotBare {
        /// The offending argument.
        requested: String,
    },
    /// The file name is empty or carries whitespace, NUL or other
    /// control characters.
    BadName {
        /// The offending argument.
        requested: String,
    },
}

impl fmt::Display for SnapshotPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotPathError::Disabled => write!(
                f,
                "snapshot verbs are disabled (ServerConfig::snapshot_dir is not set)"
            ),
            SnapshotPathError::NotBare { requested } => write!(
                f,
                "snapshot name {requested:?} must be a bare file name inside the snapshot dir"
            ),
            SnapshotPathError::BadName { requested } => write!(
                f,
                "snapshot name {requested:?} must be non-empty without whitespace or control characters"
            ),
        }
    }
}

impl std::error::Error for SnapshotPathError {}

/// Resolve a snapshot verb's file argument against the configured
/// snapshot directory. The verbs are network-reachable, so this is the
/// security gate: disabled unless [`ServerConfig::snapshot_dir`] is
/// set, and the argument must be a single bare file name (no path
/// separators, no `..`, nothing absolute, no embedded whitespace, NUL
/// or control characters) so a client can never direct writes or reads
/// outside the operator-chosen directory — and a malformed name is a
/// typed [`SnapshotPathError`] instead of whatever the filesystem
/// would have said.
fn resolve_snapshot_path(
    config: &ServerConfig,
    requested: &Path,
) -> Result<PathBuf, SnapshotPathError> {
    let Some(dir) = &config.snapshot_dir else {
        return Err(SnapshotPathError::Disabled);
    };
    let mut components = requested.components();
    let name = match (components.next(), components.next()) {
        (Some(std::path::Component::Normal(name)), None) => name,
        _ => {
            return Err(SnapshotPathError::NotBare {
                requested: requested.display().to_string(),
            })
        }
    };
    match name.to_str() {
        Some(utf8)
            if !utf8.is_empty() && !utf8.chars().any(|c| c.is_whitespace() || c.is_control()) =>
        {
            Ok(dir.join(name))
        }
        _ => Err(SnapshotPathError::BadName {
            requested: requested.display().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

    fn server(config: ServerConfig) -> Server {
        let db = Arc::new(Database::from_xml_str(FIGURE1).unwrap());
        Server::start(db, config)
    }

    #[test]
    fn meet_terms_round_trip() {
        let s = server(ServerConfig::default());
        let answers = s.client().meet_terms(["Bit", "1999"]).unwrap();
        assert_eq!(answers.tags(), vec!["article"]);
        let stats = s.shutdown();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.term_decodes, 2);
    }

    #[test]
    fn sql_and_search_round_trip() {
        let s = server(ServerConfig::default());
        let client = s.client();
        match client
            .sql(
                "select meet(a, b) from bibliography/% as a, bibliography/% as b \
                  where a contains 'Ben' and b contains 'Bit'",
            )
            .unwrap()
        {
            Response::Answers(a) => assert_eq!(a.tags(), vec!["author"]),
            other => panic!("unexpected {other:?}"),
        }
        match client
            .sql("select t from bibliography/institute as t")
            .unwrap()
        {
            Response::Rows(r) => assert_eq!(r.rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match client.request(Request::search("1999")).unwrap() {
            Response::Count(n) => assert_eq!(n, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_save_load_hot_swaps_the_backend() {
        let dir = std::env::temp_dir().join("ncq-server-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure1.ncq");

        let s = server(ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let client = s.client();
        match client
            .request(Request::snapshot_save("figure1.ncq"))
            .unwrap()
        {
            Response::Info(msg) => assert!(msg.contains("snapshot saved"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }

        // Cold-start an independent server straight from the file.
        let cold = Server::open_snapshot(&path, ServerConfig::default()).unwrap();
        assert_eq!(
            cold.client().meet_terms(["Bit", "1999"]).unwrap().tags(),
            vec!["article"]
        );

        // Hot-swap the running server onto the snapshot; the service
        // keeps answering (same corpus, so same answers) and term
        // caches refresh rather than serving stale decodes.
        assert_eq!(client.meet_terms(["Bit", "1999"]).unwrap().len(), 1);
        match client
            .request(Request::snapshot_load("figure1.ncq"))
            .unwrap()
        {
            Response::Info(msg) => assert!(msg.contains("snapshot loaded"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            client.meet_terms(["Bit", "1999"]).unwrap().tags(),
            vec!["article"]
        );

        // A load failure is an in-band error; service stays up.
        match client
            .request(Request::snapshot_load("absent.ncq"))
            .unwrap()
        {
            Response::Error(msg) => assert!(msg.contains("io error"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.meet_terms(["Bob", "Byte"]).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_verbs_are_gated_by_the_configured_directory() {
        // Default config: verbs disabled outright.
        let s = server(ServerConfig::default());
        match s.client().request(Request::snapshot_save("x.ncq")).unwrap() {
            Response::Error(msg) => assert!(msg.contains("disabled"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }

        // Configured dir: traversal and absolute paths are refused.
        let dir = std::env::temp_dir().join("ncq-server-snapshot-gate");
        std::fs::create_dir_all(&dir).unwrap();
        let s = server(ServerConfig {
            snapshot_dir: Some(dir),
            ..ServerConfig::default()
        });
        let client = s.client();
        for bad in ["../escape.ncq", "/etc/passwd", "nested/dir.ncq", ".."] {
            match client.request(Request::snapshot_save(bad)).unwrap() {
                Response::Error(msg) => assert!(msg.contains("bare file name"), "{bad}: {msg}"),
                other => panic!("{bad}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn query_errors_are_responses_not_crashes() {
        let s = server(ServerConfig::default());
        let client = s.client();
        match client.sql("select nonsense garbage !!").unwrap() {
            Response::Error(msg) => assert!(!msg.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // A MEET with no Listing-2 text, and a fan-out with no corpora.
        let no_terms = Request::meet_terms(Vec::<String>::new());
        let limit_zero = Request::MeetTerms {
            terms: vec!["Bit".into()],
            within: None,
            limit: Some(0),
            corpus: None,
        };
        let everywhere = Request::meet_terms(["Bit", "1999"]).with_corpus(Some(ALL_CORPORA.into()));
        for (request, needle) in [
            (no_terms, "at least one term"),
            (limit_zero, "limit must be at least 1"),
            (everywhere, "serves no corpora"),
        ] {
            match client.request(request).unwrap() {
                Response::Error(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The service survives and serves the next query.
        assert_eq!(
            client.meet_terms(["Bob", "Byte"]).unwrap().tags(),
            vec!["cdata"]
        );
    }

    #[test]
    fn repeated_terms_share_decodes() {
        // Semantic cache off: every repeat re-evaluates, sharing only
        // the term decodes.
        let s = server(ServerConfig {
            sem_cache_capacity: 0,
            ..ServerConfig::default()
        });
        let client = s.client();
        for _ in 0..5 {
            client.meet_terms(["Bit", "1999"]).unwrap();
        }
        let stats = s.shutdown();
        assert_eq!(stats.served, 5);
        assert_eq!(stats.term_decodes, 2, "one decode per distinct term");
        assert_eq!(stats.term_cache_hits, 8);
        assert_eq!((stats.sem_hits, stats.sem_misses), (0, 0), "cache off");
    }

    #[test]
    fn a_meet_and_its_sql_form_share_decodes_and_a_result_entry() {
        // Result cache off: Listing 2 after `MEET Bit 1999` finds both
        // of its needles decoded.
        let s = server(ServerConfig {
            sem_cache_capacity: 0,
            ..ServerConfig::default()
        });
        let client = s.client();
        client.meet_terms(["Bit", "1999"]).unwrap();
        let before = s.stats();
        client
            .sql(
                "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'",
            )
            .unwrap();
        let after = s.shutdown();
        assert_eq!(after.term_decodes, before.term_decodes, "no decode");
        assert_eq!(after.term_cache_hits, before.term_cache_hits + 2);

        // Result cache on: a MEET and its printed SQL text are one
        // entry.
        let s = server(ServerConfig::default());
        let client = s.client();
        let meet = client.meet_terms(["Bit", "1999"]).unwrap();
        let text = Query::meet_terms(&["Bit", "1999"], None, None).to_string();
        assert_eq!(client.sql(text).unwrap(), Response::Answers(meet));
        let stats = s.shutdown();
        assert_eq!((stats.sem_hits, stats.sem_misses), (1, 1));
    }

    #[test]
    fn repeated_queries_hit_the_semantic_cache() {
        // Semantic cache on (the default): repeats skip evaluation —
        // and the term cache — entirely.
        let s = server(ServerConfig::default());
        let client = s.client();
        let first = client.meet_terms(["Bit", "1999"]).unwrap();
        for _ in 0..4 {
            assert_eq!(client.meet_terms(["Bit", "1999"]).unwrap(), first);
        }
        // SQL rides the same cache, keyed on the canonical parse: the
        // odd spacing below normalizes to the same entry.
        let sql = "select meet(a, b) from bibliography/% as a, bibliography/% as b \
                   where a contains 'Bit' and b contains '1999'";
        let spaced = sql.replace("select", "SELECT  ");
        let a = client.sql(sql).unwrap();
        assert_eq!(client.sql(&spaced).unwrap(), a);
        let stats = s.shutdown();
        assert_eq!(stats.served, 7);
        assert_eq!(stats.term_decodes, 2, "decoded once, then sem hits");
        assert_eq!(stats.sem_misses, 2, "one per distinct query");
        assert_eq!(stats.sem_hits, 5);
        assert_eq!(
            stats.sem_hits + stats.sem_misses,
            7,
            "counters reconcile with cacheable queries served"
        );
    }

    #[test]
    fn limit_bounds_meet_terms_to_the_ranked_prefix() {
        // Hits spread over disjoint subtrees so the meet produces one
        // ranked answer per institute.
        let xml: String = (0..4)
            .map(|i| {
                format!(
                    "<institute><article><author>Bit {i}</author>\
                     <year>1999</year></article></institute>"
                )
            })
            .collect();
        let db = Arc::new(
            Database::from_xml_str(&format!("<bibliography>{xml}</bibliography>")).unwrap(),
        );
        let s = Server::start(db, ServerConfig::default());
        let client = s.client();
        let full = client.meet_terms(["Bit", "1999"]).unwrap();
        assert!(full.len() >= 2, "need a multi-answer query");
        for k in 1..=full.len() {
            let got = match client
                .request(Request::MeetTerms {
                    terms: vec!["Bit".into(), "1999".into()],
                    within: None,
                    limit: Some(k),
                    corpus: None,
                })
                .unwrap()
            {
                Response::Answers(a) => a,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                full.iter().take(k).collect::<Vec<_>>(),
                "k = {k}"
            );
        }
    }

    /// A backend whose `search` parks on terms starting with `gate`
    /// until the test releases it, reporting each park first, and
    /// panics on terms starting with `panic`.
    struct Gated {
        db: Database,
        parked: Mutex<mpsc::Sender<String>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl MeetBackend for Gated {
        fn store(&self) -> Option<&MonetDb> {
            Some(self.db.store())
        }

        fn search(&self, term: &str) -> Result<HitSet, BackendError> {
            if term.starts_with("panic") {
                panic!("search of {term:?} panicked");
            }
            if term.starts_with("gate") {
                self.parked.lock().unwrap().send(term.to_owned()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            Ok(self.db.search(term))
        }
    }

    /// A server over a [`Gated`] backend, the receiver of its park
    /// reports and the sender that releases a parked search.
    fn gated_server(config: ServerConfig) -> (Server, mpsc::Receiver<String>, mpsc::Sender<()>) {
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let s = Server::start_backend(
            Arc::new(Gated {
                db: Database::from_xml_str(FIGURE1).unwrap(),
                parked: Mutex::new(parked_tx),
                release: Mutex::new(release_rx),
            }),
            config,
        );
        (s, parked, release)
    }

    /// `SEARCH gate-0` on its own thread, returned once it is parked
    /// inside the backend — holding its in-flight slot.
    fn park(
        client: &Client,
        parked: &mpsc::Receiver<String>,
    ) -> std::thread::JoinHandle<Result<Response, ServerError>> {
        let client = client.clone();
        let handle = std::thread::spawn(move || client.request(Request::search("gate-0")));
        assert_eq!(parked.recv().unwrap(), "gate-0");
        handle
    }

    #[test]
    fn a_panicking_evaluation_answers_an_error_and_frees_its_slot() {
        let (s, _parked, _release) = gated_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let client = s.client();
        assert_eq!(
            client.request(Request::search("panic")),
            Ok(Response::Error(
                "internal error: query evaluation panicked".to_owned()
            ))
        );
        // The one slot is free again: the next request is admitted.
        assert_eq!(
            client.try_request(Request::search("1999")),
            Ok(Response::Count(2))
        );
        let stats = s.shutdown();
        assert_eq!((stats.served, stats.shed), (2, 0), "{stats:?}");
    }

    #[test]
    fn shutdown_waits_for_the_request_in_flight() {
        let (s, parked, release) = gated_server(ServerConfig::default());
        let client = s.client();
        let in_flight = park(&client, &parked);
        let (done_tx, done) = mpsc::channel();
        let closer = std::thread::spawn(move || done_tx.send(s.shutdown()).unwrap());
        // Once a new request is refused, shutdown has begun; it cannot
        // return while the parked request holds its slot.
        let mut before = 0;
        while client.request(Request::search("1999")) != Err(ServerError::Closed) {
            before += 1;
            std::thread::yield_now();
        }
        assert!(done.try_recv().is_err(), "shutdown returned early");
        release.send(()).unwrap();
        assert_eq!(in_flight.join().unwrap(), Ok(Response::Count(0)));
        let stats = done.recv().unwrap();
        closer.join().unwrap();
        assert_eq!(stats.served, before + 1, "{stats:?}");
        assert_eq!(
            client.request(Request::search("1999")),
            Err(ServerError::Closed)
        );
    }

    #[test]
    fn identical_meets_evaluate_once() {
        let s = server(ServerConfig::default());
        let client = s.client();
        let first = client.meet_terms(["Bit", "1999"]).unwrap();
        let second = client.meet_terms(["Bit", "1999"]).unwrap();
        assert_eq!(first.to_detailed_xml(), second.to_detailed_xml());
        assert_eq!(first.tags(), vec!["article"]);
        let stats = s.shutdown();
        assert_eq!((stats.sem_hits, stats.sem_misses), (1, 1), "{stats:?}");
        assert_eq!(stats.term_decodes, 2, "Bit, 1999: {stats:?}");
    }

    #[test]
    fn shutdown_refuses_new_requests() {
        let s = server(ServerConfig::default());
        let client = s.client();
        s.shutdown();
        assert_eq!(
            client.request(Request::search("x")),
            Err(ServerError::Closed)
        );
    }

    #[test]
    fn try_request_reports_saturation() {
        let (s, parked, release) = gated_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let client = s.client();
        let in_flight = park(&client, &parked);
        assert_eq!(
            client.try_request(Request::search("y")),
            Err(ServerError::Saturated)
        );
        // Shedding is counted, and the rate reflects refused admissions.
        assert_eq!(client.stats().shed, 1);
        assert_eq!(client.stats().shed_rate(), 1.0);
        release.send(()).unwrap();
        assert!(in_flight.join().unwrap().is_ok());
        assert_eq!(s.shutdown().shed_rate(), 0.5);
    }

    #[test]
    fn shed_rate_after_a_reset_counts_only_the_window() {
        let (s, parked, release) = gated_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let client = s.client();
        for _ in 0..4 {
            client.request(Request::search("1999")).unwrap();
        }
        client.reset_window_stats();
        let in_flight = park(&client, &parked);
        assert_eq!(
            client.try_request(Request::search("1999")),
            Err(ServerError::Saturated)
        );
        let stats = client.stats();
        assert_eq!((stats.served, stats.batches, stats.shed), (4, 0, 1));
        assert_eq!(stats.shed_rate(), 1.0, "{stats:?}");
        release.send(()).unwrap();
        in_flight.join().unwrap().unwrap();
    }

    #[test]
    fn shed_rate_is_zero_without_pressure() {
        let s = server(ServerConfig::default());
        let client = s.client();
        client.meet_terms(["Bit", "1999"]).unwrap();
        let stats = s.shutdown();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.shed_rate(), 0.0);
        assert_eq!(ServerStats::default().shed_rate(), 0.0);
    }

    #[test]
    fn error_displays_are_informative() {
        for (e, needle) in [
            (ServerError::Closed, "shut down"),
            (ServerError::Saturated, "slot"),
            (ServerError::Query("boom".into()), "boom"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
