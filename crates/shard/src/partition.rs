//! The partition map: cutting a document into K preorder-interval
//! shards plus a spine.
//!
//! Because OIDs are assigned in depth-first document order, every
//! subtree is a contiguous OID interval
//! ([`ncq_store::MeetIndex::subtree_range`]). A document therefore
//! shards *naturally*: pick a set of **chunk roots** whose subtrees
//! cover the document, pack consecutive chunks into K balanced shards,
//! and leave only the **spine** — the proper ancestors of the chunk
//! roots — to the gather, so that every cross-shard meet resolves
//! there. The spine is tiny by construction: it contains exactly the
//! nodes too heavy to fit a single chunk, i.e. O(chunks × depth) nodes.
//!
//! Balancing weighs subtrees by `Mass` — node count plus string
//! mass — so a shard owning few huge text nodes and a shard owning many
//! tiny elements cost about the same to scan.
//!
//! Invariants the executor builds on:
//!
//! * every object is either on the spine or owned by exactly one shard;
//! * a shard's owned objects lie inside its covering preorder interval
//!   `[first chunk root, end of last chunk subtree)`, and the covering
//!   intervals of distinct shards are disjoint and ascending;
//! * the LCA of two objects owned by *different* shards — or of any
//!   object with a spine object — is a spine node (subtree intervals
//!   nest, so a common ancestor of nodes in two chunks properly
//!   contains a chunk root).

use ncq_store::{MonetDb, Oid};
use std::ops::Range;

/// Per-object load weights as prefix sums over the document-order OID
/// axis. The weight of an object is `1 + strings(o)`: one unit of
/// structural mass plus one per string it owns (what the full-text
/// index decomposes into postings). Because OIDs are preorder, the mass
/// of a subtree is the prefix-sum difference over its interval.
struct Mass {
    /// `prefix[i]` = total weight of oids `0..i`; length `nodes + 1`.
    prefix: Vec<u64>,
}

impl Mass {
    fn of(db: &MonetDb) -> Mass {
        let mut prefix = vec![1u64; db.node_count() + 1];
        prefix[0] = 0;
        for p in db.string_paths() {
            for (owner, _) in db.strings_of(p).iter() {
                prefix[owner.index() + 1] += 1;
            }
        }
        for i in 1..prefix.len() {
            prefix[i] += prefix[i - 1];
        }
        Mass { prefix }
    }

    fn total(&self) -> u64 {
        self.prefix[self.prefix.len() - 1]
    }

    fn interval(&self, range: Range<usize>) -> u64 {
        self.prefix[range.end] - self.prefix[range.start]
    }
}

/// The K-way partition of one document.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// Per shard, its covering preorder interval: from its first chunk
    /// root to the end of its last chunk's subtree. The shard owns the
    /// interval's non-spine objects (spine nodes inside it are
    /// ancestors of later chunks).
    shards: Vec<Range<usize>>,
    /// Bitset over OIDs: set = spine node.
    spine: Vec<u64>,
}

impl PartitionMap {
    /// Cut `db` into (at most) `k` shards balanced by mass, splitting
    /// only on subtree boundaries. `k = 1` (or a single-object
    /// document) yields one shard owning everything and an empty spine.
    pub fn build(db: &MonetDb, k: usize) -> PartitionMap {
        let n = db.node_count();
        let index = db.meet_index();
        let mass = Mass::of(db);
        let k = k.max(1);

        let mut spine = vec![0u64; n.div_ceil(64)];
        if k == 1 || n == 1 {
            return PartitionMap {
                shards: std::iter::once(0..n).collect(),
                spine,
            };
        }

        // Chunk decomposition: descend from the root, emitting every
        // subtree that fits the chunk target and recursing through (and
        // marking as spine) the nodes that don't. Over-decomposing by 8×
        // relative to the shard target gives the greedy packer slack to
        // balance without splitting below subtree granularity.
        let chunk_target = (mass.total() / (8 * k as u64)).max(1);
        let mut chunks: Vec<Oid> = Vec::new();
        let mut spine_mass = 0u64;
        let mut stack: Vec<Oid> = vec![db.root()];
        while let Some(o) = stack.pop() {
            let range = index.subtree_range(o);
            // A node with no children cannot be split further.
            if mass.interval(range.clone()) <= chunk_target || range.len() == 1 {
                chunks.push(o);
                continue;
            }
            spine[o.index() / 64] |= 1 << (o.index() % 64);
            spine_mass += mass.interval(o.index()..o.index() + 1);
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
        let mut shards: Vec<Range<usize>> = Vec::new();
        let mut start: Option<usize> = None;
        let mut acc_mass = 0u64;
        let mut remaining = mass.total() - spine_mass;
        for (i, &root) in chunks.iter().enumerate() {
            let chunk = index.subtree_range(root);
            let first = *start.get_or_insert(chunk.start);
            acc_mass += mass.interval(chunk.clone());
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
                shards.push(first..chunk.end);
                start = None;
                acc_mass = 0;
            }
        }
        debug_assert!(start.is_none());

        PartitionMap { shards, spine }
    }

    /// Number of shards (≤ the requested K; small documents may not
    /// decompose into K non-empty parts).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether `o` is a spine node (a proper ancestor of some chunk
    /// root).
    #[inline]
    pub fn is_spine(&self, o: Oid) -> bool {
        self.spine[o.index() / 64] >> (o.index() % 64) & 1 == 1
    }

    /// The shard owning `o`, or `None` for spine nodes.
    pub(crate) fn shard_of(&self, o: Oid) -> Option<usize> {
        if self.is_spine(o) {
            return None;
        }
        let i = self
            .shards
            .partition_point(|s| s.end <= o.index())
            .min(self.shards.len() - 1);
        debug_assert!(self.shards[i].contains(&o.index()));
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_core::Database;

    fn load(xml: &str) -> MonetDb {
        Database::from_xml_str(xml).unwrap().store().clone()
    }

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
        load(&xml)
    }

    /// The chunk roots: the objects off the spine whose parent is on
    /// it, or the root itself when it is off the spine.
    fn chunk_roots(db: &MonetDb, p: &PartitionMap) -> Vec<Oid> {
        db.iter_oids()
            .filter(|&o| !p.is_spine(o) && db.parent(o).is_none_or(|up| p.is_spine(up)))
            .collect()
    }

    /// Every object is spine xor owned by exactly one shard, and
    /// `shard_of` agrees with the chunk-root subtree intervals.
    fn check_cover(db: &MonetDb, p: &PartitionMap) {
        let index = db.meet_index();
        let roots = chunk_roots(db, p);
        let mut owned = vec![0usize; db.node_count()];
        for &r in &roots {
            let shard = p.shard_of(r).expect("chunk roots are owned");
            for x in index.subtree_range(r) {
                owned[x] += 1;
                assert_eq!(p.shard_of(Oid::from_index(x)), Some(shard));
                assert!(p.shards[shard].contains(&x));
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
        // Covering intervals ascend, stay disjoint and each owns a chunk.
        for w in p.shards.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for s in &p.shards {
            assert!(roots.iter().any(|r| s.contains(&r.index())));
        }
        // Spine nodes are exactly the proper ancestors of chunk roots.
        for o in db.iter_oids() {
            let is_ancestor = roots
                .iter()
                .any(|&r| r != o && db.is_ancestor_or_self(o, r));
            assert_eq!(p.is_spine(o), is_ancestor, "{o}");
        }
    }

    #[test]
    fn k1_is_the_whole_document() {
        let db = wide_db(4, 4);
        let p = PartitionMap::build(&db, 1);
        assert_eq!(p.shard_count(), 1);
        assert!(db.iter_oids().all(|o| !p.is_spine(o)));
        assert_eq!(p.shards[0], 0..db.node_count());
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
        let mass = Mass::of(&db);
        let mut masses = vec![0u64; p.shard_count()];
        for o in db.iter_oids() {
            if let Some(s) = p.shard_of(o) {
                masses[s] += mass.interval(o.index()..o.index() + 1);
            }
        }
        let mean = masses.iter().sum::<u64>() / masses.len() as u64;
        for m in &masses {
            assert!(*m <= 2 * mean, "masses {masses:?}");
        }
        // The spine is tiny relative to the document.
        let spine = db.iter_oids().filter(|&o| p.is_spine(o)).count();
        assert!(spine < db.node_count() / 4);
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
        let db = load(&xml);
        for k in [2, 3, 8] {
            let p = PartitionMap::build(&db, k);
            assert!(p.shard_count() >= 1 && p.shard_count() <= k);
            check_cover(&db, &p);
        }
    }

    #[test]
    fn oversized_k_degrades_gracefully() {
        let db = load("<r><a>x</a><b>y</b></r>");
        let p = PartitionMap::build(&db, 64);
        assert!(p.shard_count() <= 64);
        check_cover(&db, &p);
        let single = load("<only/>");
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

    #[test]
    fn mass_weighs_structure_plus_strings() {
        let db = load(
            r#"<bib><article key="BB99"><author>Ben Bit</author><year>1999</year></article></bib>"#,
        );
        let mass = Mass::of(&db);
        // Total mass = every object once + every string association.
        assert_eq!(
            mass.total(),
            (db.node_count() + db.stats().string_associations) as u64
        );
        let one = |o: Oid| mass.interval(o.index()..o.index() + 1);
        // The root weighs 1, a cdata node 2 (itself + its string), and
        // the article 2 (itself + its @key).
        assert_eq!(one(Oid::ROOT), 1);
        let cdata = db.iter_oids().find(|&o| db.label(o) == "cdata").unwrap();
        assert_eq!(one(cdata), 2);
        let article = db
            .iter_oids()
            .find(|&o| db.tag(o) == Some("article"))
            .unwrap();
        assert_eq!(one(article), 2);
        // Subtree masses sum like intervals: whole document = root range.
        let root = db.meet_index().subtree_range(Oid::ROOT);
        assert_eq!(mass.interval(root), mass.total());
    }
}
