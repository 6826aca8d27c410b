//! The [`ShardedDb`] facade: scatter/gather meet execution over a
//! [`PartitionMap`].
//!
//! # Execution model
//!
//! Every query runs in (up to) three steps:
//!
//! 1. **Scatter** — inputs are routed by ownership: hits inside a
//!    shard's chunk subtrees go to that shard, hits owned by spine
//!    nodes go straight to the gather pool. Per-shard work (posting
//!    lookups, substring scans, plane sweeps) runs in parallel on a
//!    persistent worker pool.
//! 2. **Per-shard meets** — each shard sweeps the meet *below its
//!    spine floor*. A candidate meet on the spine is **deferred** (the
//!    sweep's `Reject` verdict: leave the run alive, never re-propose
//!    locally) because its witness run may span shards.
//! 3. **Gather** — surviving items from every shard (plus the
//!    spine-owned inputs) merge in document order and roll up the
//!    spine, deepest node first: every remaining candidate is a spine
//!    node, so each one's witness run is a single interval probe over
//!    the sorted survivor list. The spine is replicated, so the gather
//!    never touches shard-private state.
//!
//! # Why the answers are identical
//!
//! Sharding exploits three facts. (a) A subtree is a contiguous OID
//! interval wholly inside one chunk, so the witness run of any
//! below-spine meet is entirely shard-local — the shard computes
//! exactly the run the global sweep would. (b) The global sweep accepts
//! candidates deepest-first, and consumptions in disjoint subtrees
//! commute, so "all shard-local candidates first, then the spine" is a
//! legal reordering of the global schedule. (c) Cross-shard LCAs are
//! always spine nodes, so the gather sees every candidate the shards
//! deferred. The sharding equivalence property suite and the golden
//! suite pin the result: byte-identical answers, document order
//! included.
//!
//! The structural [`ncq_store::MeetIndex`] is interval-addressed, so
//! its *restriction to a shard* is the index itself probed only inside
//! the shard's interval — shards share one `Arc` of it instead of
//! copying. Full-text postings, by contrast, are genuinely restricted
//! per shard ([`ncq_fulltext::InvertedIndex::restrict`]): each shard
//! owns the postings of its chunks, the spine keeps its own slice, and
//! term lookups scatter only to the shards that own hits.

use crate::partition::PartitionMap;
use crate::pool::Pool;
use ncq_core::meet_multi::MeetWitness;
use ncq_core::sweep::{plane_sweep, Verdict};
use ncq_core::{BackendError, Database, Meet, MeetBackend, MeetOptions};
use ncq_fulltext::search::{phrase_hits, word_hits};
use ncq_fulltext::tokenize::{contains_fold, fold, tokens};
use ncq_fulltext::{HitSet, InvertedIndex};
use ncq_query::{QueryError, QueryOptions, QueryOutput};
use ncq_store::{MonetDb, Oid, PathId};
use ncq_xml::{Document, ParseError};
use std::borrow::Borrow;
use std::sync::Arc;

/// Interval probe over a gather pool's sorted survivor keys: the
/// vector kernel for pools large enough to pay for lane setup, the
/// scalar partition search otherwise (identical result either way).
fn key_range(keys: &[u32], lo: u32, hi: u32) -> (usize, usize) {
    if keys.len() < 64 {
        let start = ncq_simd::scalar::lower_bound_u32(keys, lo);
        let end = start + ncq_simd::scalar::lower_bound_u32(&keys[start..], hi);
        (start, end)
    } else {
        ncq_simd::range_u32(keys, lo, hi)
    }
}

/// Registry handle for the per-shard scatter-task duration histogram.
fn shard_task_histogram() -> &'static Arc<ncq_obs::Histogram> {
    static H: std::sync::OnceLock<Arc<ncq_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| ncq_obs::obs().registry.histogram("ncq_shard_task_ns"))
}

/// Per-shard private state: the restricted full-text postings.
struct Shard {
    postings: InvertedIndex,
}

/// Shared immutable state behind the facade; scatter tasks clone the
/// `Arc` and own their input slices, so jobs are `'static`.
struct Inner {
    /// The full database doubles as the replicated spine: its store and
    /// meet index are interval-addressed and shared by every shard.
    /// Held by `Arc` so a deployment serving both engines (and the
    /// K = 1 delegation) shares one copy of the store and index.
    db: Arc<Database>,
    partition: PartitionMap,
    shards: Vec<Shard>,
    /// Postings owned by spine nodes (attribute owners high in the
    /// tree, or text directly under replicated elements).
    spine_postings: InvertedIndex,
    /// Spine-owned string associations, for substring scans.
    spine_strings: Vec<(PathId, Oid)>,
    /// Spine nodes ordered deepest-first (document order within a
    /// depth) — the gather roll-up's candidate schedule.
    spine_by_depth: Vec<Oid>,
}

/// A sharded execution layer with the query surface of [`Database`]
/// that requests use: `search` / `meet_hits` / `run_query`, plus
/// [`MeetBackend`] so `ncq-server` workers and `ncq-query` evaluation
/// dispatch through it unchanged.
pub struct ShardedDb {
    inner: Arc<Inner>,
    /// `None` for a single-shard layout, where every entry point
    /// delegates to the plain `Database` and a pool would only park
    /// idle threads.
    pool: Option<Pool>,
}

impl ShardedDb {
    /// Partition a loaded database into (at most) `k` shards with a
    /// pool of `min(k, cores)` scatter workers. Accepts `Database` or
    /// `Arc<Database>`; sharing the `Arc` with other consumers (e.g. a
    /// server also fronting the single engine) costs nothing — the
    /// store and index are never copied.
    pub fn new(db: impl Into<Arc<Database>>, k: usize) -> ShardedDb {
        ShardedDb::with_workers(db, k, default_workers(k))
    }

    /// [`ShardedDb::new`] with an explicit worker count.
    pub fn with_workers(db: impl Into<Arc<Database>>, k: usize, workers: usize) -> ShardedDb {
        let db: Arc<Database> = db.into();
        // `with_partition` forces the meet index before any scatter
        // task can race the build; `PartitionMap::build` reads it too.
        let partition = PartitionMap::build(db.store(), k);
        ShardedDb::with_partition(db, partition, workers)
    }

    /// Assemble the sharded layer around an existing partition map —
    /// the path a snapshot load takes (the stored cut is reused instead
    /// of re-running the chunk decomposition). Per-shard restricted
    /// postings and the spine slices are derived from the map here
    /// either way, so a loaded layout is indistinguishable from a
    /// freshly built one.
    pub fn with_partition(
        db: impl Into<Arc<Database>>,
        partition: PartitionMap,
        workers: usize,
    ) -> ShardedDb {
        let db: Arc<Database> = db.into();
        let store = db.store();
        store.meet_index(); // eager: scatter tasks must never race the build
        let shards = partition
            .shards()
            .iter()
            .map(|info| {
                let range = info.range.clone();
                Shard {
                    postings: db
                        .index()
                        .restrict(|o| range.contains(&o.index()) && !partition.is_spine(o)),
                }
            })
            .collect();
        let spine_postings = db.index().restrict(|o| partition.is_spine(o));
        let spine_strings = store
            .string_paths()
            .flat_map(|p| {
                store
                    .strings_of(p)
                    .iter()
                    .filter(|&(o, _)| partition.is_spine(o))
                    .map(move |(o, _)| (p, o))
            })
            .collect();
        let mut spine_by_depth: Vec<Oid> = store
            .iter_oids()
            .filter(|&o| partition.is_spine(o))
            .collect();
        spine_by_depth.sort_by_key(|&o| (std::cmp::Reverse(store.depth(o)), o));
        // Size the pool from the shards actually built (a tiny document
        // may collapse below the requested K); a single-shard layout
        // never scatters, so it gets no pool at all.
        let pool =
            (partition.shard_count() > 1).then(|| Pool::new(workers.min(partition.shard_count())));
        ShardedDb {
            inner: Arc::new(Inner {
                db,
                partition,
                shards,
                spine_postings,
                spine_strings,
                spine_by_depth,
            }),
            pool,
        }
    }

    /// Parse, load and partition in one step.
    pub fn from_xml_str(xml: &str, k: usize) -> Result<ShardedDb, ParseError> {
        Ok(ShardedDb::new(Database::from_xml_str(xml)?, k))
    }

    /// Load and partition an already-parsed document.
    pub fn from_document(doc: &Document, k: usize) -> ShardedDb {
        ShardedDb::new(Database::from_document(doc), k)
    }

    /// The underlying full database (store, global index — the spine
    /// replica).
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// The partition map in effect.
    pub fn partition(&self) -> &PartitionMap {
        &self.inner.partition
    }

    /// Number of shards (≤ the requested K).
    pub fn shard_count(&self) -> usize {
        self.inner.partition.shard_count()
    }

    /// Number of scatter worker threads (0 for a single-shard layout,
    /// which never scatters).
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(0, Pool::workers)
    }

    /// The scatter pool — only reached from the scatter paths, which
    /// the single-shard shortcuts never enter.
    fn scatter_pool(&self) -> &Pool {
        self.pool
            .as_ref()
            .expect("scatter requires a multi-shard partition")
    }

    /// [`Pool::scatter`] with per-task wall-clock accounting: each
    /// task's duration lands in the `ncq_shard_task_ns` histogram and —
    /// when the calling thread carries a trace — as a closed
    /// `shard_task` span under the current span. Worker threads have no
    /// thread-local trace, so the coordinator attaches the timings
    /// after the fan-in.
    fn timed_scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if !ncq_obs::obs().enabled() {
            return self.scatter_pool().scatter(tasks);
        }
        let wrapped: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                move || {
                    let t0 = std::time::Instant::now();
                    let out = task();
                    (out, t0.elapsed().as_nanos() as u64)
                }
            })
            .collect();
        self.scatter_pool()
            .scatter(wrapped)
            .into_iter()
            .enumerate()
            .map(|(i, (value, dur_ns))| {
                shard_task_histogram().record(dur_ns);
                ncq_obs::trace::record_closed("shard_task", dur_ns, vec![("task", i.to_string())]);
                value
            })
            .collect()
    }

    // ----- full-text entry points -----

    /// Sharded [`Database::search`]: same dispatch (word / phrase /
    /// substring with the empty-primary fallback), with each mode
    /// scattered over the per-shard postings and the spine slice.
    pub fn search(&self, term: &str) -> HitSet {
        let inner = &self.inner;
        if inner.partition.shard_count() == 1 {
            return inner.db.search(term);
        }
        let words: Vec<String> = tokens(term).collect();
        let primary = match words.as_slice() {
            [] => HitSet::new(),
            [single] if *single == fold(term.trim()) => self.scatter_word(single),
            [_] => self.scatter_substring(term),
            _ => self.scatter_phrase(term),
        };
        if primary.is_empty() && !term.trim().is_empty() {
            self.scatter_substring(term)
        } else {
            primary
        }
    }

    /// Word lookup: one hash probe per shard owning hits plus the spine
    /// slice. Hash probes are too cheap to parallelize — the scatter
    /// here is in the *data*: each restricted index only decodes its
    /// own postings.
    fn scatter_word(&self, word: &str) -> HitSet {
        let inner = &self.inner;
        let mut out = word_hits(&inner.spine_postings, word);
        for shard in &inner.shards {
            out.union(&word_hits(&shard.postings, word));
        }
        out
    }

    /// Phrase query: the candidate intersection distributes over the
    /// owner partition (a candidate's owner lives in exactly one
    /// shard), so per-shard [`phrase_hits`] runs in parallel and the
    /// union is exactly the global answer.
    fn scatter_phrase(&self, phrase: &str) -> HitSet {
        let inner = &self.inner;
        let tasks: Vec<_> = (0..inner.shards.len())
            .map(|s| {
                let inner = Arc::clone(&self.inner);
                let phrase = phrase.to_owned();
                move || phrase_hits(inner.db.store(), &inner.shards[s].postings, &phrase)
            })
            .collect();
        let mut out = phrase_hits(inner.db.store(), &inner.spine_postings, phrase);
        for hits in self.timed_scatter(tasks) {
            out.union(&hits);
        }
        out
    }

    /// Substring scan: the expensive full scan, scattered — each shard
    /// scans only its restricted string relations
    /// ([`MonetDb::strings_in_range`]), the spine scans its own few
    /// associations.
    fn scatter_substring(&self, needle: &str) -> HitSet {
        let inner = &self.inner;
        let tasks: Vec<_> = (0..inner.shards.len())
            .map(|s| {
                let inner = Arc::clone(&self.inner);
                let needle = needle.to_owned();
                move || {
                    let store = inner.db.store();
                    let range = inner.partition.shards()[s].range.clone();
                    let mut hits = HitSet::new();
                    for path in store.string_paths() {
                        for (owner, text) in store.strings_in_range(path, range.clone()).iter() {
                            if !inner.partition.is_spine(owner) && contains_fold(text, &needle) {
                                hits.insert(path, owner);
                            }
                        }
                    }
                    hits
                }
            })
            .collect();
        let store = inner.db.store();
        let mut out = HitSet::new();
        for &(path, owner) in &inner.spine_strings {
            let text = store
                .string_value(path, owner)
                .expect("spine string exists");
            if contains_fold(text, needle) {
                out.insert(path, owner);
            }
        }
        for hits in self.timed_scatter(tasks) {
            out.union(&hits);
        }
        out
    }

    // ----- meet entry points -----

    /// Sharded [`Database::meet_hits`]: the generalized meet, ranked,
    /// through the same pipeline ([`ncq_core::MeetPlanner::execute`]:
    /// same plan, same roll-up on the spine replica, same rank and
    /// cut) with the scatter/gather plugged in as the sweep arm. Shard
    /// sweeps run to completion whatever the `limit` (consumption, and
    /// so the survivors fed to the gather, must stay exact); the
    /// pipeline's cut over shard + spine meets is the global top k.
    pub fn meet_hits<H: Borrow<HitSet>>(&self, inputs: &[H], options: &MeetOptions) -> Vec<Meet> {
        let db = &self.inner.db;
        if self.shard_count() == 1 {
            return db.meet_hits(inputs, options);
        }
        db.planner()
            .execute(inputs, options, || self.scatter_meet_multi(inputs, options))
    }

    // ----- query dialect -----

    /// Run a SQL-with-paths query through the sharded engine
    /// (dispatches via [`MeetBackend`]).
    pub fn run_query(&self, src: &str) -> Result<QueryOutput, QueryError> {
        ncq_query::run_query(self, src)
    }

    /// [`ShardedDb::run_query`] with explicit [`QueryOptions`].
    pub fn run_query_opts(
        &self,
        src: &str,
        options: &QueryOptions,
    ) -> Result<QueryOutput, QueryError> {
        ncq_query::run_query_opts(self, src, options)
    }

    // ----- scatter/gather executors -----

    /// Sweep-tier generalized meet: route merged hits by shard, run the
    /// gated sweep per shard in parallel, gather the survivors.
    fn scatter_meet_multi<H: Borrow<HitSet>>(
        &self,
        inputs: &[H],
        options: &MeetOptions,
    ) -> Vec<Meet> {
        let inner = &self.inner;

        // Merge all hits in document order with input provenance —
        // identical to the single-db indexed sweep.
        let mut items: Vec<(Oid, u32)> = inputs
            .iter()
            .enumerate()
            .flat_map(|(i, hits)| hits.borrow().iter().map(move |(_, o)| (o, i as u32)))
            .collect();
        items.sort_unstable();

        let k = inner.shards.len();
        let mut per_shard: Vec<Vec<(Oid, u32)>> = (0..k).map(|_| Vec::new()).collect();
        let mut pool_items: Vec<(Oid, u32)> = Vec::new();
        for &(o, input) in &items {
            match inner.partition.shard_of(o) {
                Some(s) => per_shard[s].push((o, input)),
                None => pool_items.push((o, input)),
            }
        }

        let tasks: Vec<_> = per_shard
            .into_iter()
            .filter(|items| !items.is_empty())
            .map(|items| {
                let inner = Arc::clone(&self.inner);
                let options = options.clone();
                move || sweep_multi(&inner, items, &options)
            })
            .collect();

        let mut meets: Vec<Meet> = Vec::new();
        {
            let _scatter = ncq_obs::trace::span("scatter");
            ncq_obs::trace::annotate("tasks", tasks.len().to_string());
            for (local_meets, survivors) in self.timed_scatter(tasks) {
                meets.extend(local_meets);
                pool_items.extend(survivors);
            }
        }

        let _gather = ncq_obs::trace::span("gather");
        pool_items.sort_unstable();
        self.gather_multi(&pool_items, options, &mut meets);

        // No canonical pre-sort: the pipeline ranks by the *total* key
        // (distance, witness count, node) — each node is accepted at
        // most once, so the rank fully determines the final order.
        meets
    }

    /// The gather roll-up for the generalized meet: survivors resolve
    /// on the spine, deepest node first. Verdicts (the `meet^δ` bound,
    /// filter-suppressed consumption, capped document-order witness
    /// samples) replicate the single-db sweep's candidate logic; a
    /// spine node whose run fails `meet^δ` leaves the run alive for its
    /// shallower ancestors — exactly the sweep's `Reject` memoization,
    /// since every spine node is visited at most once.
    fn gather_multi(&self, items: &[(Oid, u32)], options: &MeetOptions, meets: &mut Vec<Meet>) {
        if items.len() < 2 {
            return;
        }
        let index = self.inner.db.store().meet_index();
        let keys: Vec<u32> = items.iter().map(|&(o, _)| o.raw()).collect();
        let mut alive = Alive::new(items.len());
        let mut run: Vec<usize> = Vec::new();
        for &s in &self.inner.spine_by_depth {
            let range = index.subtree_range(s);
            run.clear();
            let (start, end) = key_range(&keys, range.start as u32, range.end as u32);
            let mut i = alive.find(start);
            while i < end {
                run.push(i);
                i = alive.find(i + 1);
            }
            if run.len() < 2 {
                continue;
            }
            match multi_candidate(&self.inner, items, &run, s, options) {
                // A `meet^δ` failure: the run stays alive for
                // shallower spine nodes.
                MultiVerdict::Keep => {}
                MultiVerdict::Consume(meet) => {
                    meets.extend(meet);
                    for &i in &run {
                        alive.consume(i);
                    }
                }
            }
        }
    }
}

/// "Next alive index ≥ i" with path compression — the gather roll-up's
/// consumption structure (consumed runs are spliced out in amortized
/// near-constant time).
struct Alive {
    jump: Vec<u32>,
}

impl Alive {
    fn new(n: usize) -> Alive {
        Alive {
            jump: (0..=n as u32).collect(),
        }
    }

    fn find(&mut self, start: usize) -> usize {
        let mut root = start;
        while self.jump[root] as usize != root {
            root = self.jump[root] as usize;
        }
        let mut i = start;
        while self.jump[i] as usize != i {
            let next = self.jump[i] as usize;
            self.jump[i] = root as u32;
            i = next;
        }
        root
    }

    fn consume(&mut self, i: usize) {
        self.jump[i] = i as u32 + 1;
    }
}

impl MeetBackend for ShardedDb {
    fn store(&self) -> &MonetDb {
        self.inner.db.store()
    }

    fn search(&self, term: &str) -> Result<HitSet, BackendError> {
        Ok(ShardedDb::search(self, term))
    }

    fn meet_hit_groups(
        &self,
        inputs: &[&HitSet],
        options: &MeetOptions,
    ) -> Result<Vec<Meet>, BackendError> {
        Ok(self.meet_hits(inputs, options))
    }

    fn save_snapshot(&self, path: &std::path::Path) -> Result<(), ncq_store::SnapshotError> {
        ShardedDb::save_snapshot(self, path)
    }

    fn open_snapshot_like(
        &self,
        path: &std::path::Path,
    ) -> Result<Arc<dyn MeetBackend>, ncq_store::SnapshotError> {
        // Same shape: re-shard the loaded corpus at this engine's
        // requested K (the stored cut is reused when it matches).
        Ok(Arc::new(ShardedDb::open_snapshot(
            path,
            self.partition().requested_k(),
        )?))
    }
}

/// Default scatter-pool size for a K-way layout: one worker per shard,
/// capped by the machine's cores. One policy, shared by
/// [`ShardedDb::new`] and the snapshot cold-start path.
pub(crate) fn default_workers(k: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(k.max(1))
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shard_count())
            .field("spine", &self.inner.partition.spine_len())
            .field("workers", &self.worker_count())
            .finish()
    }
}

// ----- shard-local executors -----

/// What [`multi_candidate`] decided about one candidate node.
enum MultiVerdict {
    /// A `meet^δ` failure: the run stays alive for shallower
    /// candidates.
    Keep,
    /// Consume the run; `None` when the path filter suppressed the
    /// result ("they are output and not considered anymore").
    Consume(Option<Meet>),
}

/// Evaluate one generalized-meet candidate — the single place encoding
/// the indexed sweep's candidate logic for the sharded executors:
/// distance from the two closest climbs, `meet^δ` rejection,
/// filter-suppressed consumption, capped witness samples in document
/// order. Shared by the gated per-shard sweep and the gather roll-up so
/// the semantics cannot drift between scatter and gather.
fn multi_candidate(
    inner: &Inner,
    items: &[(Oid, u32)],
    run: &[usize],
    node: Oid,
    options: &MeetOptions,
) -> MultiVerdict {
    let store = inner.db.store();
    let index = store.meet_index();
    let m_depth = index.depth(node);
    let (mut min_climb, mut second_climb) = (usize::MAX, usize::MAX);
    for &i in run {
        let climb = index.depth(items[i].0) - m_depth;
        if climb < min_climb {
            second_climb = min_climb;
            min_climb = climb;
        } else if climb < second_climb {
            second_climb = climb;
        }
    }
    let distance = min_climb.saturating_add(second_climb);
    if options.max_distance.is_some_and(|d| distance > d) {
        return MultiVerdict::Keep;
    }
    let meet = options.filter.accepts(store.sigma(node)).then(|| {
        let witnesses = run
            .iter()
            .take(options.cap())
            .map(|&i| MeetWitness {
                origin: items[i].0,
                input: items[i].1 as usize,
                climb: index.depth(items[i].0) - m_depth,
            })
            .collect();
        Meet {
            node,
            path: store.sigma(node),
            distance,
            witness_count: run.len(),
            witnesses,
        }
    });
    MultiVerdict::Consume(meet)
}

/// The per-shard generalized sweep: the plane sweep with the spine gate
/// (cross-shard candidates defer to the gather), candidate verdicts via
/// [`multi_candidate`]. Also reports which items survived.
fn sweep_multi(
    inner: &Inner,
    items: Vec<(Oid, u32)>,
    options: &MeetOptions,
) -> (Vec<Meet>, Vec<(Oid, u32)>) {
    let index = inner.db.store().meet_index();
    let oids: Vec<Oid> = items.iter().map(|&(o, _)| o).collect();
    let mut meets: Vec<Meet> = Vec::new();
    let mut consumed = vec![false; items.len()];

    plane_sweep(index, &oids, |m, run| {
        if inner.partition.is_spine(m) {
            return Verdict::Reject; // defer to the gather roll-up
        }
        match multi_candidate(inner, &items, run, m, options) {
            MultiVerdict::Keep => Verdict::Reject,
            MultiVerdict::Consume(meet) => {
                meets.extend(meet);
                for &i in run {
                    consumed[i] = true;
                }
                Verdict::Accept
            }
        }
    });

    let survivors = items
        .iter()
        .enumerate()
        .filter(|&(i, _)| !consumed[i])
        .map(|(_, &item)| item)
        .collect();
    (meets, survivors)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn pair(k: usize) -> (Database, ShardedDb) {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        (db.clone(), ShardedDb::new(db, k))
    }

    #[test]
    fn figure1_answers_match_at_every_k() {
        let single = Database::from_xml_str(FIGURE1).unwrap();
        for k in [1, 2, 3, 4, 8] {
            let sharded = ShardedDb::new(single.clone(), k);
            for terms in [
                vec!["Bit", "1999"],
                vec!["Ben", "Bit"],
                vec!["Bob", "Byte"],
                vec!["Bob", "Byte", "Ben", "Bit"],
                vec!["Ben", "RSI"],
                vec!["absent", "1999"],
            ] {
                let options = MeetOptions::default();
                let a = single.meet_terms(&terms).unwrap();
                let b = sharded.meet_terms_answers(&terms, &options).unwrap();
                assert_eq!(
                    a.to_detailed_xml(),
                    b.to_detailed_xml(),
                    "k={k} terms={terms:?}"
                );
            }
        }
    }

    #[test]
    fn search_modes_match_the_single_database() {
        let (single, sharded) = pair(4);
        for term in [
            "Bit", "1999", "hack", "Hackin", "Ben Bit", "BB99", "absent", "", "Bob Byte",
        ] {
            assert_eq!(single.search(term), sharded.search(term), "{term:?}");
        }
    }

    #[test]
    fn options_flow_through_the_scatter() {
        let (single, sharded) = pair(4);
        let inputs = vec![single.search("Bit"), single.search("1999")];
        for options in [
            MeetOptions::default(),
            MeetOptions {
                max_distance: Some(4),
                ..MeetOptions::default()
            },
            MeetOptions {
                strategy: ncq_core::MeetStrategy::Sweep,
                witness_cap: 1,
                ..MeetOptions::default()
            },
            MeetOptions {
                filter: ncq_core::PathFilter::exclude_root(single.store()),
                strategy: ncq_core::MeetStrategy::Sweep,
                ..MeetOptions::default()
            },
        ] {
            assert_eq!(
                single.meet_hits(&inputs, &options),
                sharded.meet_hits(&inputs, &options),
                "{options:?}"
            );
        }
    }

    #[test]
    fn queries_run_through_the_backend() {
        let (single, sharded) = pair(4);
        let q = "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'";
        let a = ncq_query::run_query(&single, q).unwrap();
        let b = sharded.run_query(q).unwrap();
        assert_eq!(a, b);
        let rows = sharded
            .run_query("select t from bibliography/institute/article as t")
            .unwrap();
        let QueryOutput::Rows(rows) = rows else {
            panic!("expected rows");
        };
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn debug_reports_the_layout() {
        let (_, sharded) = pair(2);
        let text = format!("{sharded:?}");
        assert!(text.contains("shards"));
        assert!(sharded.worker_count() >= 1);
        assert!(sharded.shard_count() >= 1);
        assert!(sharded.database().store().node_count() > 0);
        assert!(sharded.partition().total_mass() > 0);
    }
}
