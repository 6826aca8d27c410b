//! The partition map: cutting a document into K preorder-interval
//! shards plus a replicated spine.
//!
//! Because OIDs are assigned in depth-first document order, every
//! subtree is a contiguous OID interval
//! ([`ncq_store::MeetIndex::subtree_range`]). A document therefore
//! shards *naturally*: pick a set of **chunk roots** whose subtrees
//! cover the document, pack consecutive chunks into K balanced shards,
//! and replicate only the **spine** — the proper ancestors of the chunk
//! roots — so that every cross-shard meet resolves on replicated state.
//! The spine is tiny by construction: it contains exactly the nodes too
//! heavy to fit a single chunk, i.e. O(chunks × depth) nodes.
//!
//! Balancing weighs subtrees by [`ncq_store::PartitionStats`] — node
//! count plus posting mass — so a shard owning few huge text nodes and
//! a shard owning many tiny elements cost about the same to scan.
//!
//! Invariants the executors build on:
//!
//! * every object is either on the spine or owned by exactly one shard;
//! * a shard's owned objects lie inside its covering preorder interval
//!   `[first chunk root, end of last chunk subtree)`, and the covering
//!   intervals of distinct shards are disjoint and ascending;
//! * the LCA of two objects owned by *different* shards — or of any
//!   object with a spine object — is a spine node (subtree intervals
//!   nest, so a common ancestor of nodes in two chunks properly
//!   contains a chunk root).

use ncq_store::{Col, MonetDb, Oid};
use std::ops::Range;

/// One shard of the partition: a run of consecutive chunk subtrees.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// Chunk roots in preorder. The shard owns exactly the union of
    /// their subtrees.
    pub roots: Vec<Oid>,
    /// Covering preorder interval: from the first chunk root to the end
    /// of the last chunk's subtree. Spine nodes *inside* the interval
    /// (ancestors of later chunks) are not owned by the shard.
    pub range: Range<usize>,
    /// Owned objects (sum of chunk subtree sizes; excludes spine).
    pub nodes: usize,
    /// Owned mass (node count + posting mass, from `PartitionStats`).
    pub mass: u64,
}

/// The K-way partition of one document.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// The K the partition was *requested* with (shard_count may be
    /// smaller for tiny documents). Persisted with the map so a
    /// snapshot load can tell whether a stored cut matches the K it
    /// was asked for.
    pub(crate) requested_k: usize,
    pub(crate) shards: Vec<ShardInfo>,
    /// Bitset over OIDs: true = spine (replicated) node. A [`Col`] so
    /// a snapshot open serves it straight out of the mapped file.
    pub(crate) spine: Col<u64>,
    pub(crate) spine_nodes: usize,
    pub(crate) total_mass: u64,
}

impl PartitionMap {
    /// Cut `db` into (at most) `k` shards balanced by mass, splitting
    /// only on subtree boundaries. `k = 1` (or a single-object
    /// document) yields one shard owning everything and an empty spine.
    pub fn build(db: &MonetDb, k: usize) -> PartitionMap {
        let n = db.node_count();
        let stats = db.partition_stats();
        let index = db.meet_index();
        let total_mass = stats.total_mass();
        let k = k.max(1);

        let mut spine = vec![0u64; n.div_ceil(64)];
        let mut spine_nodes = 0usize;
        if k == 1 || n == 1 {
            return PartitionMap {
                requested_k: k,
                shards: vec![ShardInfo {
                    roots: vec![db.root()],
                    range: 0..n,
                    nodes: n,
                    mass: total_mass,
                }],
                spine: spine.into(),
                spine_nodes,
                total_mass,
            };
        }

        // Chunk decomposition: descend from the root, emitting every
        // subtree that fits the chunk target and recursing through (and
        // replicating) the nodes that don't. Over-decomposing by 8×
        // relative to the shard target gives the greedy packer slack to
        // balance without splitting below subtree granularity.
        let chunk_target = (total_mass / (8 * k as u64)).max(1);
        let mut chunks: Vec<Oid> = Vec::new();
        let mut stack: Vec<Oid> = vec![db.root()];
        while let Some(o) = stack.pop() {
            let range = index.subtree_range(o);
            let mass = stats.interval_mass(range.clone());
            // A node with no children cannot be split further.
            let leaf = range.len() == 1;
            if mass <= chunk_target || leaf {
                chunks.push(o);
                continue;
            }
            spine[o.index() / 64] |= 1 << (o.index() % 64);
            spine_nodes += 1;
            // Children in reverse document order so the stack pops them
            // in document order — chunks come out in preorder.
            let mut children = Vec::new();
            let mut c = o.index() + 1;
            while c < range.end {
                children.push(Oid::from_index(c));
                c = index.subtree_range(Oid::from_index(c)).end;
            }
            stack.extend(children.into_iter().rev());
        }
        debug_assert!(chunks.windows(2).all(|w| w[0] < w[1]), "chunks in preorder");

        // Greedy packing of consecutive chunks into k shards: close a
        // shard once it holds its fair share of the remaining mass.
        let owned_mass: u64 = total_mass - spine_mass(db, &spine);
        let mut shards: Vec<ShardInfo> = Vec::new();
        let mut acc: Vec<Oid> = Vec::new();
        let mut acc_mass = 0u64;
        let mut remaining = owned_mass;
        for (i, &root) in chunks.iter().enumerate() {
            let mass = stats.interval_mass(index.subtree_range(root));
            acc.push(root);
            acc_mass += mass;
            let shards_left = k - shards.len();
            let chunks_left = chunks.len() - i - 1;
            let fair = remaining.div_ceil(shards_left as u64);
            // Close when the shard reached its fair share, or when the
            // leftover chunks are only just enough to populate the
            // remaining shards.
            if (acc_mass >= fair || chunks_left < shards_left) && shards.len() < k - 1
                || chunks_left == 0
            {
                remaining -= acc_mass;
                shards.push(Self::close_shard(index, std::mem::take(&mut acc), acc_mass));
                acc_mass = 0;
            }
        }
        debug_assert!(acc.is_empty());

        PartitionMap {
            requested_k: k,
            shards,
            spine: spine.into(),
            spine_nodes,
            total_mass,
        }
    }

    fn close_shard(index: &ncq_store::MeetIndex, roots: Vec<Oid>, mass: u64) -> ShardInfo {
        let start = roots.first().expect("non-empty shard").index();
        let end = index.subtree_range(*roots.last().expect("non-empty")).end;
        let nodes = roots
            .iter()
            .map(|&r| index.subtree_range(r).len())
            .sum::<usize>();
        ShardInfo {
            roots,
            range: start..end,
            nodes,
            mass,
        }
    }

    /// Number of shards (≤ the requested K; small documents may not
    /// decompose into K non-empty parts).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The K the partition was requested with.
    pub fn requested_k(&self) -> usize {
        self.requested_k
    }

    /// The shards, in preorder of their covering intervals.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Whether `o` is a replicated spine node (a proper ancestor of
    /// some chunk root).
    #[inline]
    pub fn is_spine(&self, o: Oid) -> bool {
        self.spine[o.index() / 64] >> (o.index() % 64) & 1 == 1
    }

    /// Number of spine nodes.
    pub fn spine_len(&self) -> usize {
        self.spine_nodes
    }

    /// Total document mass (spine + shards).
    pub fn total_mass(&self) -> u64 {
        self.total_mass
    }

    /// The shard owning `o`, or `None` for spine nodes.
    pub fn shard_of(&self, o: Oid) -> Option<usize> {
        if self.is_spine(o) {
            return None;
        }
        let i = self
            .shards
            .partition_point(|s| s.range.end <= o.index())
            .min(self.shards.len() - 1);
        debug_assert!(self.shards[i].range.contains(&o.index()));
        Some(i)
    }
}

/// Mass of the spine nodes themselves (they carry no chunk).
fn spine_mass(db: &MonetDb, spine: &[u64]) -> u64 {
    let stats = db.partition_stats();
    let mut mass = 0u64;
    for (word_idx, &word) in spine.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            mass += stats.mass_of(word_idx * 64 + bit);
            bits &= bits - 1;
        }
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    fn wide_db(sections: usize, leaves: usize) -> MonetDb {
        let mut xml = String::from("<r>");
        for s in 0..sections {
            xml.push_str("<sec>");
            for l in 0..leaves {
                xml.push_str(&format!("<p>text {s} {l}</p>"));
            }
            xml.push_str("</sec>");
        }
        xml.push_str("</r>");
        MonetDb::from_document(&parse(&xml).unwrap())
    }

    /// Every object is spine xor owned by exactly one shard, and
    /// `shard_of` agrees with the chunk-root subtree intervals.
    fn check_cover(db: &MonetDb, p: &PartitionMap) {
        let index = db.meet_index();
        let mut owned = vec![0usize; db.node_count()];
        for (i, s) in p.shards().iter().enumerate() {
            assert!(!s.roots.is_empty());
            for &r in &s.roots {
                assert!(!p.is_spine(r), "chunk roots are owned");
                for x in index.subtree_range(r) {
                    owned[x] += 1;
                    assert_eq!(p.shard_of(Oid::from_index(x)), Some(i));
                }
            }
        }
        for o in db.iter_oids() {
            if p.is_spine(o) {
                assert_eq!(owned[o.index()], 0, "{o}: spine nodes are unowned");
                assert_eq!(p.shard_of(o), None);
            } else {
                assert_eq!(owned[o.index()], 1, "{o}: owned exactly once");
            }
        }
        // Covering intervals ascend and stay disjoint.
        for w in p.shards().windows(2) {
            assert!(w[0].range.end <= w[1].range.start);
        }
        // Spine nodes are exactly the proper ancestors of chunk roots.
        for o in db.iter_oids() {
            let is_ancestor = p
                .shards()
                .iter()
                .flat_map(|s| s.roots.iter())
                .any(|&r| r != o && db.is_ancestor_or_self(o, r));
            assert_eq!(p.is_spine(o), is_ancestor, "{o}");
        }
    }

    #[test]
    fn k1_is_the_whole_document() {
        let db = wide_db(4, 4);
        let p = PartitionMap::build(&db, 1);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.spine_len(), 0);
        assert_eq!(p.shards()[0].nodes, db.node_count());
        check_cover(&db, &p);
    }

    #[test]
    fn k4_covers_and_balances() {
        let db = wide_db(16, 8);
        let p = PartitionMap::build(&db, 4);
        assert_eq!(p.shard_count(), 4);
        check_cover(&db, &p);
        // Balanced within the chunk granularity: no shard more than
        // 2× the mean mass.
        let masses: Vec<u64> = p.shards().iter().map(|s| s.mass).collect();
        let mean = masses.iter().sum::<u64>() / masses.len() as u64;
        for m in &masses {
            assert!(*m <= 2 * mean, "masses {masses:?}");
        }
        // The spine is tiny relative to the document.
        assert!(p.spine_len() < db.node_count() / 4);
    }

    #[test]
    fn deep_chain_splits_along_the_chain() {
        // A single deep chain forces the spine through the chain: the
        // decomposition must still cover every node exactly once.
        let mut xml = String::from("<r>");
        for _ in 0..100 {
            xml.push_str("<e><leaf>x</leaf>");
        }
        for _ in 0..100 {
            xml.push_str("</e>");
        }
        xml.push_str("</r>");
        let db = MonetDb::from_document(&parse(&xml).unwrap());
        for k in [2, 3, 8] {
            let p = PartitionMap::build(&db, k);
            assert!(p.shard_count() >= 1 && p.shard_count() <= k);
            check_cover(&db, &p);
        }
    }

    #[test]
    fn oversized_k_degrades_gracefully() {
        let db = MonetDb::from_document(&parse("<r><a>x</a><b>y</b></r>").unwrap());
        let p = PartitionMap::build(&db, 64);
        assert!(p.shard_count() <= 64);
        check_cover(&db, &p);
        let single = MonetDb::from_document(&parse("<only/>").unwrap());
        let p = PartitionMap::build(&single, 8);
        assert_eq!(p.shard_count(), 1);
        check_cover(&single, &p);
    }

    #[test]
    fn cross_shard_lcas_land_on_the_spine() {
        let db = wide_db(12, 6);
        let p = PartitionMap::build(&db, 4);
        let index = db.meet_index();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                let (sa, sb) = (p.shard_of(a), p.shard_of(b));
                let cross = match (sa, sb) {
                    (Some(x), Some(y)) => x != y,
                    _ => true, // any pair involving a spine node
                };
                if cross {
                    // A cross-shard meet always resolves on replicated
                    // state: the LCA of nodes in two different chunks
                    // properly contains a chunk root, and the LCA of a
                    // spine node with anything is a spine ancestor-or-
                    // self of it.
                    let m = index.lca(a, b);
                    assert!(p.is_spine(m), "lca({a},{b}) = {m} not on spine");
                }
            }
        }
    }
}
