//! The [`ShardedDb`] facade: scatter/gather meet execution over a
//! [`PartitionMap`].
//!
//! # Execution model
//!
//! Every query runs in (up to) three steps:
//!
//! 1. **Scatter** — inputs are routed by ownership: hits inside a
//!    shard's chunk subtrees go to that shard, hits owned by spine
//!    nodes go straight to the gather. Per-shard work (posting
//!    lookups, substring scans, meets) runs in parallel on a
//!    persistent worker pool.
//! 2. **Per-shard meets** — each shard runs the stack pass of
//!    [`ncq_core::sweep`] over its own hits with one gate: a spine node
//!    is **deferred**, never a meet here, because its hits may span
//!    shards. The task returns its meets and its survivors — the hits
//!    no shard-local meet consumed.
//! 3. **Gather** — the survivors of every shard plus the spine-owned
//!    hits, merged in document order, go through the same pass once
//!    more with nothing deferred. The spine is replicated, so the
//!    gather never touches shard-private state.
//!
//! # Why the answers are identical
//!
//! (a) A subtree is a contiguous OID interval, and that of a node below
//! the spine lies wholly inside one chunk, so such a node closes in its
//! shard over exactly the hits it would close over in the single
//! engine's pass. (b) The pass closes children before parents, and
//! disjoint subtrees commute, so "every shard-local node first, then
//! the spine" is one of its legal orders. (c) Every cross-shard LCA is
//! a spine node, so the gather sees every node the shards deferred. A
//! shard-local node that shows up again in the gather failed in its
//! shard (fewer than two hits, or `meet^δ`), is closed there over the
//! identical hits, and fails again. The sharding equivalence property
//! suite and the golden suite pin the result: byte-identical answers,
//! witness order included.
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
use ncq_core::rank::rank_and_cut;
use ncq_core::sweep::{merged_hits, sweep};
use ncq_core::{BackendError, Database, Meet, MeetBackend, MeetOptions};
use ncq_fulltext::search::{phrase_hits, word_hits};
use ncq_fulltext::tokenize::{contains_fold, fold, tokens};
use ncq_fulltext::{HitSet, InvertedIndex};
use ncq_query::{QueryError, QueryOptions, QueryOutput};
use ncq_store::{MonetDb, Oid, PathId};
use ncq_xml::{Document, ParseError};
use std::borrow::Borrow;
use std::sync::Arc;

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

    /// Sharded [`Database::meet_hits`]: the generalized meet as the
    /// scatter/gather below, then the single engine's rank and cut
    /// ([`rank_and_cut`]). Under a `limit` each pass keeps its own `k`
    /// best — which contain every meet of its that is among the global
    /// `k` best — and consumes exactly what it would without one, so the
    /// survivors fed to the gather stay exact; the cut over shard +
    /// gather meets is the global top k.
    pub fn meet_hits<H: Borrow<HitSet>>(&self, inputs: &[H], options: &MeetOptions) -> Vec<Meet> {
        if self.shard_count() == 1 {
            return self.inner.db.meet_hits(inputs, options);
        }
        rank_and_cut(self.scatter_meet(inputs, options), options.limit)
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

    /// The stack pass, scattered: route the merged hits by shard, run
    /// the pass with the spine gate per shard in parallel, then run it
    /// once more, ungated, over the survivors and the spine's own hits.
    fn scatter_meet<H: Borrow<HitSet>>(&self, inputs: &[H], options: &MeetOptions) -> Vec<Meet> {
        let inner = &self.inner;
        let k = inner.shards.len();
        let mut per_shard: Vec<Vec<(Oid, u32)>> = (0..k).map(|_| Vec::new()).collect();
        let mut pool_items: Vec<(Oid, u32)> = Vec::new();
        for item in merged_hits(inputs) {
            match inner.partition.shard_of(item.0) {
                Some(s) => per_shard[s].push(item),
                None => pool_items.push(item),
            }
        }

        let tasks: Vec<_> = per_shard
            .into_iter()
            .filter(|items| !items.is_empty())
            .map(|items| {
                let inner = Arc::clone(&self.inner);
                let options = options.clone();
                move || {
                    sweep(inner.db.store(), &items, &options, |node| {
                        inner.partition.is_spine(node)
                    })
                }
            })
            .collect();

        let mut meets: Vec<Meet> = Vec::new();
        {
            let _scatter = ncq_obs::trace::span("scatter");
            ncq_obs::trace::annotate("tasks", tasks.len().to_string());
            for local in self.timed_scatter(tasks) {
                meets.extend(local.meets);
                pool_items.extend(local.survivors);
            }
        }

        let _gather = ncq_obs::trace::span("gather");
        pool_items.sort_unstable();
        meets.extend(sweep(inner.db.store(), &pool_items, options, |_| false).meets);

        // No canonical pre-sort: `rank_and_cut` ranks by the *total* key
        // (distance, witness count, node) — each node is accepted at
        // most once, so the rank fully determines the final order.
        meets
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
                witness_cap: 1,
                ..MeetOptions::default()
            },
            MeetOptions {
                filter: ncq_core::PathFilter::exclude_root(single.store()),
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
