//! The [`ShardedDb`] meet: scatter/gather over a [`PartitionMap`].
//!
//! # Execution model
//!
//! 1. **Scatter** — the merged hits are routed by ownership: hits
//!    inside a shard's chunk subtrees go to that shard, hits owned by
//!    spine nodes go straight to the gather.
//! 2. **Per-shard meets** — each shard runs the stack pass of
//!    [`ncq_core::sweep`] over its own hits, in parallel on a
//!    persistent worker pool, with one gate: a spine node is
//!    **deferred**, never a meet here, because its hits may span
//!    shards. The task returns its meets and its survivors — the hits
//!    no shard-local meet consumed.
//! 3. **Gather** — the survivors of every shard plus the spine-owned
//!    hits, merged in document order, go through the same pass once
//!    more with nothing deferred.
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
//! identical hits, and fails again. The equivalence property suite
//! pins the result: byte-identical answers, witness order included.
//!
//! The structural [`ncq_store::MeetIndex`] is interval-addressed, so
//! every shard probes the one shared index inside its own interval.

use crate::partition::PartitionMap;
use crate::pool::Pool;
use ncq_core::rank::rank_and_cut;
use ncq_core::sweep::{merged_hits, sweep};
use ncq_core::{Database, Meet, MeetOptions};
use ncq_fulltext::HitSet;
use ncq_store::Oid;
use std::borrow::Borrow;
use std::sync::Arc;

/// What scatter tasks share: they clone the `Arc` and own their input
/// slices, so jobs are `'static`.
struct Inner {
    db: Arc<Database>,
    partition: PartitionMap,
}

/// The generalized meet of a [`Database`], split into K shards.
pub struct ShardedDb {
    inner: Arc<Inner>,
    /// `None` for a single-shard layout, which delegates to the plain
    /// `Database` and would only park idle threads.
    pool: Option<Pool>,
}

impl ShardedDb {
    /// Partition a loaded database into (at most) `k` shards with a
    /// pool of `min(k, cores)` scatter workers. Accepts `Database` or
    /// `Arc<Database>`; the store and index are never copied.
    pub fn new(db: impl Into<Arc<Database>>, k: usize) -> ShardedDb {
        let db: Arc<Database> = db.into();
        // Builds the meet index before any scatter task can race it.
        let partition = PartitionMap::build(db.store(), k);
        // Sized from the shards actually built: a tiny document may
        // collapse below the requested K.
        let shards = partition.shard_count();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = (shards > 1).then(|| Pool::new(cores.min(shards)));
        ShardedDb {
            inner: Arc::new(Inner { db, partition }),
            pool,
        }
    }

    /// The partition map in effect.
    pub fn partition(&self) -> &PartitionMap {
        &self.inner.partition
    }

    /// Number of shards (≤ the requested K).
    pub fn shard_count(&self) -> usize {
        self.inner.partition.shard_count()
    }

    /// Sharded [`Database::meet_hits`]: the generalized meet as the
    /// scatter/gather below, then the single engine's rank and cut
    /// ([`rank_and_cut`]) — a `limit` is a k-best selection over every
    /// meet, so the cut over shard + gather meets is the global top k.
    pub fn meet_hits<H: Borrow<HitSet>>(&self, inputs: &[H], options: &MeetOptions) -> Vec<Meet> {
        match &self.pool {
            None => self.inner.db.meet_hits(inputs, options),
            Some(pool) => rank_and_cut(self.scatter_meet(pool, inputs, options), options.limit),
        }
    }

    /// The stack pass, scattered: route the merged hits by shard, run
    /// the pass with the spine gate per shard in parallel, then run it
    /// once more, ungated, over the survivors and the spine's own hits.
    fn scatter_meet<H: Borrow<HitSet>>(
        &self,
        pool: &Pool,
        inputs: &[H],
        options: &MeetOptions,
    ) -> Vec<Meet> {
        let inner = &self.inner;
        let mut per_shard: Vec<Vec<(Oid, u32)>> = vec![Vec::new(); inner.partition.shard_count()];
        let mut gather: Vec<(Oid, u32)> = Vec::new();
        for item in merged_hits(inputs) {
            match inner.partition.shard_of(item.0) {
                Some(s) => per_shard[s].push(item),
                None => gather.push(item),
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
        for local in pool.scatter(tasks) {
            meets.extend(local.meets);
            gather.extend(local.survivors);
        }
        gather.sort_unstable();
        meets.extend(sweep(inner.db.store(), &gather, options, |_| false).meets);
        // No canonical pre-sort: `rank_and_cut` ranks by the *total* key
        // (distance, witness count, node) — each node is accepted at
        // most once, so the rank fully determines the final order.
        meets
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

    #[test]
    fn figure1_answers_match_at_every_k() {
        let single = Database::from_xml_str(FIGURE1).unwrap();
        for k in [1, 2, 3, 4, 8] {
            let sharded = ShardedDb::new(single.clone(), k);
            assert!(sharded.shard_count() <= k);
            for terms in [
                vec!["Bit", "1999"],
                vec!["Ben", "Bit"],
                vec!["Bob", "Byte"],
                vec!["Bob", "Byte", "Ben", "Bit"],
                vec!["Ben", "RSI"],
                vec!["absent", "1999"],
            ] {
                let inputs: Vec<HitSet> = terms.iter().map(|t| single.search(t)).collect();
                let options = MeetOptions::default();
                assert_eq!(
                    single.meet_hits(&inputs, &options),
                    sharded.meet_hits(&inputs, &options),
                    "k={k} terms={terms:?}"
                );
            }
        }
    }

    #[test]
    fn options_flow_through_the_scatter() {
        let single = Database::from_xml_str(FIGURE1).unwrap();
        let sharded = ShardedDb::new(single.clone(), 4);
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
}
