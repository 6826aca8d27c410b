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
//! 2. **Per-shard meets** — each shard evaluates the meet *below its
//!    spine floor*. A candidate meet on the spine is **deferred** (the
//!    sweep's `Reject` verdict: leave the run alive, never re-propose
//!    locally) because its witness run may span shards. The
//!    [`ncq_core::MeetPlanner`] chooses each shard's executor
//!    independently: a frontier lift that *freezes* elements when they
//!    climb onto the spine, or the indexed plane sweep with the spine
//!    gate.
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
use ncq_core::meet2::{meet2_indexed, Meet2};
use ncq_core::meet_multi::MeetWitness;
use ncq_core::rank::rank_meets;
use ncq_core::sweep::{plane_sweep, Verdict};
use ncq_core::{
    meet_multi, meet_multi_indexed, meet_sets_lift_ordered, AnswerSet, BackendError,
    ChosenStrategy, Database, Meet, MeetBackend, MeetError, MeetOptions, MeetStrategy, SetMeets,
};
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

/// A sharded execution layer with the same query surface as
/// [`Database`]: `meet_pair` / `meet_oid_sets` / `meet_hits` /
/// `meet_terms` / `run_query`, plus [`MeetBackend`] so `ncq-server`
/// workers and `ncq-query` evaluation dispatch through it unchanged.
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
                    .filter(|(o, _)| partition.is_spine(*o))
                    .map(move |&(o, _)| (p, o))
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
                        for (owner, text) in store.strings_in_range(path, range.clone()) {
                            if !inner.partition.is_spine(*owner) && contains_fold(text, &needle) {
                                hits.insert(path, *owner);
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

    /// Pairwise meet: O(1) on the shared interval-addressed index —
    /// scattering a single probe would only add latency.
    pub fn meet_pair(&self, o1: Oid, o2: Oid) -> Meet2 {
        meet2_indexed(self.inner.db.store(), o1, o2)
    }

    /// Sharded [`Database::meet_oid_sets`]. Same plan, same answers:
    /// the global planner picks lift or sweep exactly as the single
    /// database would; the lift tier (chosen for shallow inputs, where
    /// rounds are few) runs on the spine replica, the sweep tier
    /// scatters with a per-shard lift/sweep decision.
    pub fn meet_oid_sets(&self, s1: &[Oid], s2: &[Oid]) -> Result<SetMeets, MeetError> {
        self.meet_oid_sets_with(s1, s2, MeetStrategy::Auto)
    }

    /// [`ShardedDb::meet_oid_sets`] with an explicit strategy override.
    pub fn meet_oid_sets_with(
        &self,
        s1: &[Oid],
        s2: &[Oid],
        strategy: MeetStrategy,
    ) -> Result<SetMeets, MeetError> {
        let db = &self.inner.db;
        let planner = db.planner();
        if self.shard_count() == 1 {
            return planner.meet_sets(s1, s2, strategy);
        }
        let chosen = match strategy {
            MeetStrategy::Auto => planner.plan_sets(s1, s2)?.strategy,
            MeetStrategy::Lift => ChosenStrategy::Lift,
            MeetStrategy::Sweep => ChosenStrategy::Sweep,
        };
        if s1.is_empty() || s2.is_empty() {
            return Err(MeetError::EmptyInput);
        }
        match chosen {
            ChosenStrategy::Lift => meet_sets_lift_ordered(db.store(), s1, s2),
            ChosenStrategy::Sweep => self.scatter_meet_sets(s1, s2),
        }
    }

    /// Sharded [`Database::meet_hits`]: the generalized meet, ranked.
    /// The roll-up tier (planned only for tiny inputs) runs on the
    /// spine replica; the sweep tier scatters.
    pub fn meet_hits<H: Borrow<HitSet>>(&self, inputs: &[H], options: &MeetOptions) -> Vec<Meet> {
        let db = &self.inner.db;
        let chosen = match options.strategy {
            MeetStrategy::Auto => db.planner().plan_multi(inputs).strategy,
            MeetStrategy::Lift => ChosenStrategy::Lift,
            MeetStrategy::Sweep => ChosenStrategy::Sweep,
        };
        let mut meets = match chosen {
            ChosenStrategy::Lift => meet_multi(db.store(), inputs, options),
            ChosenStrategy::Sweep if self.shard_count() > 1 => {
                self.scatter_meet_multi(inputs, options)
            }
            ChosenStrategy::Sweep => meet_multi_indexed(db.store(), inputs, options),
        };
        rank_meets(&mut meets);
        // Top-k re-cut. The scatter tasks already bounded each shard's
        // *emitted* list to its local top k (consumption stays exact);
        // the final cut over shard winners + spine meets is the global
        // top k, byte-identical to the unbounded prefix.
        if let Some(k) = options.limit {
            meets.truncate(k);
        }
        meets
    }

    /// The paper's signature query through the sharded engine.
    pub fn meet_terms(&self, terms: &[&str]) -> Result<AnswerSet, MeetError> {
        self.meet_terms_with(terms, &MeetOptions::default())
    }

    /// [`ShardedDb::meet_terms`] with explicit [`MeetOptions`].
    pub fn meet_terms_with(
        &self,
        terms: &[&str],
        options: &MeetOptions,
    ) -> Result<AnswerSet, MeetError> {
        let inputs: Vec<HitSet> = terms.iter().map(|t| self.search(t)).collect();
        let meets = self.meet_hits(&inputs, options);
        Ok(AnswerSet::from_meets(self.inner.db.store(), meets))
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

    /// Sweep-tier two-set meet: route by shard, evaluate below the
    /// spine in parallel (per-shard lift-with-freeze or gated sweep,
    /// planner's choice), then one gather sweep over the survivors.
    fn scatter_meet_sets(&self, set1: &[Oid], set2: &[Oid]) -> Result<SetMeets, MeetError> {
        let inner = &self.inner;
        let store = inner.db.store();
        let summary = store.summary();
        let p1 = homogeneous_path(store, set1)?.expect("checked non-empty");
        let p2 = homogeneous_path(store, set2)?.expect("checked non-empty");
        let (d1, d2) = (summary.depth(p1), summary.depth(p2));

        // Route sorted, deduplicated sides; spine-owned inputs go
        // straight to the gather pool.
        let k = inner.shards.len();
        let mut per_shard: Vec<(Vec<Oid>, Vec<Oid>)> = (0..k).map(|_| Default::default()).collect();
        let mut pool_items: Vec<(Oid, u8)> = Vec::new();
        for (side, set) in [(0u8, set1), (1u8, set2)] {
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            for o in sorted {
                match inner.partition.shard_of(o) {
                    Some(s) if side == 0 => per_shard[s].0.push(o),
                    Some(s) => per_shard[s].1.push(o),
                    None => pool_items.push((o, side)),
                }
            }
        }

        // Scatter: one task per shard holding any items. The planner
        // decides lift vs sweep per shard from the rounds left below
        // that shard's spine floor.
        let planner = inner.db.planner();
        let tasks: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, (a, b))| !a.is_empty() || !b.is_empty())
            .map(|(s, (a, b))| {
                let floor = inner.partition.shards()[s].min_root_depth;
                let lift = !a.is_empty()
                    && !b.is_empty()
                    && planner
                        .plan_shard_sets(&a, &b, floor)
                        .expect("both sides non-empty")
                        .strategy
                        == ChosenStrategy::Lift;
                let inner = Arc::clone(&self.inner);
                move || {
                    if lift {
                        shard_lift_sets(&inner, a, b, p1, p2, d1, d2)
                    } else {
                        shard_sweep_sets(&inner, a, b, d1, d2)
                    }
                }
            })
            .collect();

        let mut result = SetMeets::default();
        let mut meets: Vec<(Oid, usize)> = Vec::new();
        {
            let _scatter = ncq_obs::trace::span("scatter");
            ncq_obs::trace::annotate("tasks", tasks.len().to_string());
            for (local_meets, survivors, lookups) in self.timed_scatter(tasks) {
                meets.extend(local_meets);
                pool_items.extend(survivors);
                result.lookups += lookups;
            }
        }
        let _gather = ncq_obs::trace::span("gather");

        // Gather: every remaining candidate is a spine node, so instead
        // of an adjacency sweep the survivors roll up the spine
        // deepest-first — each spine node's run is one interval probe
        // over the sorted survivor list.
        pool_items.sort_unstable_by_key(|&(o, side)| (o, side));
        pool_items.dedup();
        let index = store.meet_index();
        let round_at = |depth: usize| d1.abs_diff(d2) + (d1.min(d2) - depth);
        // Fewer than two survivors cannot form a cross-shard meet —
        // skip the spine walk entirely (the common case when every hit
        // was consumed inside its shard).
        if pool_items.len() >= 2 {
            // The survivor keys as raw lanes: each spine node's run is
            // one bulk interval-containment probe over them.
            let keys: Vec<u32> = pool_items.iter().map(|&(o, _)| o.raw()).collect();
            let mut alive = Alive::new(pool_items.len());
            let mut run: Vec<usize> = Vec::new();
            for &s in &self.inner.spine_by_depth {
                let range = index.subtree_range(s);
                result.lookups += 1;
                run.clear();
                let (mut side0, mut side1) = (false, false);
                let (start, end) = key_range(&keys, range.start as u32, range.end as u32);
                let mut i = alive.find(start);
                while i < end {
                    run.push(i);
                    if pool_items[i].1 == 0 {
                        side0 = true;
                    } else {
                        side1 = true;
                    }
                    i = alive.find(i + 1);
                }
                // A meet needs a witness from each side; otherwise the
                // run stays alive for shallower spine nodes.
                if side0 && side1 {
                    meets.push((s, round_at(index.depth(s))));
                    for &i in &run {
                        alive.consume(i);
                    }
                }
            }
        }

        // The global sweep accepts in (depth desc, node asc) order =
        // (round asc, node asc); one sort restores it exactly.
        meets.sort_unstable_by_key(|&(o, round)| (round, o));
        result.join_rounds = meets.iter().map(|&(_, r)| r).max().unwrap_or(0);
        result.meets = meets;
        Ok(result)
    }

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
                move || {
                    let (mut local_meets, survivors) = sweep_multi(&inner, items, &options);
                    // Per-shard top-k bound: a meet outside its own
                    // shard's k best is beaten by k meets that all
                    // reach the global re-cut, so it can never rank in
                    // the global top k. The sweep itself still runs to
                    // completion — consumption (and therefore the
                    // survivors fed to the gather) is untouched.
                    if let Some(k) = options.limit {
                        if local_meets.len() > k {
                            rank_meets(&mut local_meets);
                            local_meets.truncate(k);
                        }
                    }
                    (local_meets, survivors)
                }
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

        // No canonical pre-sort: the only caller is the facade's
        // `meet_hits`, whose `rank_meets` orders by the *total* key
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

/// Homogeneity check, mirroring the planner-tier executors' error.
fn homogeneous_path(db: &MonetDb, set: &[Oid]) -> Result<Option<PathId>, MeetError> {
    let Some(&first) = set.first() else {
        return Ok(None);
    };
    let expected = db.sigma(first);
    for &o in &set[1..] {
        let found = db.sigma(o);
        if found != expected {
            return Err(MeetError::HeterogeneousInput { expected, found });
        }
    }
    Ok(Some(expected))
}

/// Sorted-set intersection (inputs sorted and deduplicated).
fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Remove (sorted) `remove` from (sorted) `set`.
fn difference(set: &mut Vec<Oid>, remove: &[Oid]) {
    if !remove.is_empty() {
        set.retain(|o| remove.binary_search(o).is_err());
    }
}

/// What a per-shard two-set executor hands back: local `(meet, round)`
/// pairs, surviving `(oid, side)` items for the gather, and the
/// look-ups it performed.
type ShardSetsOutput = (Vec<(Oid, usize)>, Vec<(Oid, u8)>, usize);

/// Per-shard two-set executor, sweep flavour: the indexed plane sweep
/// with the spine gate. Returns `(local meets, surviving items,
/// LCA probes)`.
fn shard_sweep_sets(
    inner: &Inner,
    side1: Vec<Oid>,
    side2: Vec<Oid>,
    d1: usize,
    d2: usize,
) -> ShardSetsOutput {
    // Linear merge of the two sorted sides, side 0 first on ties —
    // the same item list the single-db merged sweep builds.
    let mut items: Vec<(Oid, u8)> = Vec::with_capacity(side1.len() + side2.len());
    let (mut i, mut j) = (0, 0);
    while i < side1.len() || j < side2.len() {
        let take_left = match (side1.get(i), side2.get(j)) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            items.push((side1[i], 0));
            i += 1;
        } else {
            items.push((side2[j], 1));
            j += 1;
        }
    }

    let index = inner.db.store().meet_index();
    let round_at = |depth: usize| d1.abs_diff(d2) + (d1.min(d2) - depth);
    let oids: Vec<Oid> = items.iter().map(|&(o, _)| o).collect();
    let mut meets: Vec<(Oid, usize)> = Vec::new();
    let mut consumed = vec![false; items.len()];
    let probes = plane_sweep(
        index,
        &oids,
        |li, ri| items[li].1 != items[ri].1,
        |m, run| {
            if inner.partition.is_spine(m) {
                return Verdict::Reject; // defer to the gather sweep
            }
            meets.push((m, round_at(index.depth(m))));
            for &i in run {
                consumed[i] = true;
            }
            Verdict::Accept
        },
    );
    let survivors = items
        .iter()
        .enumerate()
        .filter(|&(i, _)| !consumed[i])
        .map(|(_, &item)| item)
        .collect();
    (meets, survivors, probes)
}

/// Per-shard two-set executor, lift flavour: the paper's Figure 4
/// frontier lift restricted to the shard, with a twist — an element
/// whose lift lands on the spine is **frozen** at that position and
/// handed to the gather phase instead of climbing on. Everything below
/// the spine behaves exactly like the global lift restricted to this
/// shard's chunks (lifting and dedup are element-wise, so restriction
/// commutes with them).
fn shard_lift_sets(
    inner: &Inner,
    side1: Vec<Oid>,
    side2: Vec<Oid>,
    p1: PathId,
    p2: PathId,
    d1: usize,
    d2: usize,
) -> ShardSetsOutput {
    let store = inner.db.store();
    let summary = store.summary();
    let round_at = |depth: usize| d1.abs_diff(d2) + (d1.min(d2) - depth);
    let (mut f1, mut f2) = (side1, side2);
    let (mut p1, mut p2) = (p1, p2);
    let mut meets: Vec<(Oid, usize)> = Vec::new();
    let mut frozen: Vec<(Oid, u8)> = Vec::new();
    let mut lookups = 0usize;

    // Lift a sorted homogeneous frontier one level; parents stay sorted
    // (same argument as the planner's ordered lift). Elements landing
    // on the spine freeze out of the frontier.
    let mut lift_freeze = |f: &mut Vec<Oid>, side: u8, lookups: &mut usize| {
        *lookups += f.len();
        let mut out = Vec::with_capacity(f.len());
        for &o in f.iter() {
            let parent = store.parent(o).expect("below-spine nodes are non-root");
            if inner.partition.is_spine(parent) {
                frozen.push((parent, side));
            } else {
                out.push(parent);
            }
        }
        out.dedup();
        *f = out;
    };

    loop {
        if f1.is_empty() && f2.is_empty() {
            break;
        }
        if p1 == p2 && !f1.is_empty() && !f2.is_empty() {
            let d = intersect(&f1, &f2);
            if !d.is_empty() {
                let round = round_at(summary.depth(p1));
                meets.extend(d.iter().map(|&o| (o, round)));
                difference(&mut f1, &d);
                difference(&mut f2, &d);
            }
        }
        if summary.lt(p1, p2) {
            lift_freeze(&mut f1, 0, &mut lookups);
            p1 = summary.parent(p1).expect("deeper path has a parent");
        } else if summary.lt(p2, p1) {
            lift_freeze(&mut f2, 1, &mut lookups);
            p2 = summary.parent(p2).expect("deeper path has a parent");
        } else if p1 == p2 && summary.depth(p1) == 0 {
            // All surviving elements froze on their way up (the root is
            // spine whenever there is more than one shard); nothing can
            // still be active here — guard against looping regardless.
            break;
        } else {
            lift_freeze(&mut f1, 0, &mut lookups);
            lift_freeze(&mut f2, 1, &mut lookups);
            p1 = summary.parent(p1).expect("non-root path has a parent");
            p2 = summary.parent(p2).expect("non-root path has a parent");
        }
    }
    (meets, frozen, lookups)
}

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

    plane_sweep(
        index,
        &oids,
        |_, _| true,
        |m, run| {
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
        },
    );

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
                let a = single.meet_terms(&terms).unwrap();
                let b = sharded.meet_terms(&terms).unwrap();
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
    fn meet_pair_matches() {
        let (single, sharded) = pair(3);
        for a in single.store().iter_oids() {
            for b in single.store().iter_oids() {
                assert_eq!(single.meet_pair(a, b), sharded.meet_pair(a, b));
            }
        }
    }

    #[test]
    fn oid_set_meets_match_across_strategies() {
        let (single, sharded) = pair(4);
        let years: Vec<Oid> = single.search("1999").iter().map(|(_, o)| o).collect();
        let titles: Vec<Oid> = single.search_word("Hack").iter().map(|(_, o)| o).collect();
        for strategy in [MeetStrategy::Auto, MeetStrategy::Lift, MeetStrategy::Sweep] {
            let a = single
                .meet_oid_sets_with(&years, &titles, strategy)
                .unwrap();
            let b = sharded
                .meet_oid_sets_with(&years, &titles, strategy)
                .unwrap();
            assert_eq!(a.meets, b.meets, "{strategy:?}");
            assert_eq!(a.join_rounds, b.join_rounds, "{strategy:?}");
        }
        // Error behaviour matches too.
        assert_eq!(
            sharded.meet_oid_sets(&[], &years),
            Err(MeetError::EmptyInput)
        );
        let mut mixed = years.clone();
        mixed.extend(titles.iter().copied());
        assert!(matches!(
            sharded.meet_oid_sets_with(&mixed, &years, MeetStrategy::Sweep),
            Err(MeetError::HeterogeneousInput { .. })
        ));
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
                strategy: MeetStrategy::Sweep,
                witness_cap: 1,
                ..MeetOptions::default()
            },
            MeetOptions {
                filter: ncq_core::PathFilter::exclude_root(single.store()),
                strategy: MeetStrategy::Sweep,
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
