//! The structural meet index: O(1) ancestor tests, O(1) LCA, O(1)
//! distances over the store's own preorder columns.
//!
//! # Why
//!
//! The paper's meet operator answers `meet₂(o₁, o₂)` by σ-steered parent
//! walks — O(`distance`) look-ups per pair (§3.2, Fig. 3), and §4 counts
//! "the number of joins executed" as exactly that distance. That is the
//! right *relational* cost model, but for a query engine serving large hit
//! sets the classical LCA result applies: after one linear-ish preprocess,
//! every lowest-common-ancestor query is O(1). This module is that
//! preprocess; the operators in `ncq-core` build their indexed fast paths
//! on top of it, keeping the steered walk as the ablation baseline.
//!
//! # Construction
//!
//! The OIDs of a loaded [`crate::MonetDb`] are depth-first preorder by
//! construction, and that numbering *is* the index — no second numbering
//! is built on top of it. One fact about it carries every query: for
//! `a < b`, **`min(parent[a+1 ..= b])` is `a` when `b` lies in `a`'s
//! subtree and the LCA of `a` and `b` otherwise** (then smaller than
//! `a`). With `L` the LCA, every oid in `(a, b]` is a proper descendant
//! of `L` — the subtree of `L` is a contiguous preorder range holding
//! both — so its parent is `L` or a descendant of `L` and therefore
//! `≥ L` in preorder, while the child of `L` on `b`'s path lies in
//! `(a, b]` and has parent exactly `L`.
//!
//! So [`MeetIndex::lca`] is one range minimum over the store's `parent`
//! column and nothing else; [`MeetIndex::is_ancestor_or_self`] asks
//! whether that minimum is the candidate ancestor; and
//! [`MeetIndex::subtree_range`] gallops to the first oid whose range
//! minimum drops below its root. [`MeetIndex::distance`] is
//! `depth(a) + depth(b) − 2·depth(lca)` with `depth(o) =
//! summary.depth(σ(o))` read through a per-path table.
//!
//! The range minimum is O(1) with **O(n)** memory — one `u32` a node
//! plus a sparse table of about `log₂(n/32)` `u32`s per 32-entry block
//! (1.75 bytes a node for 521 k nodes). The `n` positions are cut
//! into 32-entry blocks. Per position `r`, a 32-bit mask records the
//! stack of suffix minima of its block up to `r` (the entries whose
//! parent is smaller than every parent after them, up to `r`); the
//! lowest of them at or after `l` is the minimum of `parent[l ..= r]`,
//! one mask, one shift, one trailing-zero count. A range across blocks
//! takes that probe on each partial block and a sparse table over
//! whole-block minima for the middle. Sub-range minima compose by
//! `min`, so no depth is stored or compared anywhere.
//!
//! # Paper connection
//!
//! §4 of the paper ranks answers by the join count of the meet, i.e. by
//! tree distance. With this index the *ranking quantity is preserved* —
//! [`MeetIndex::distance`] returns exactly the number of parent joins the
//! relational plan would execute — while the *evaluation cost* drops from
//! O(hits × depth) to O(1) per pair. The operators report the joins they
//! *model*, not the look-ups they perform.

use crate::mmap::Col;
use crate::monet::MonetDb;
use crate::oid::Oid;
use crate::path::{PathId, PathSummary};

/// Preorder LCA index: a block range-minimum structure over the
/// `parent` column.
///
/// Built once per document via [`MonetDb::meet_index`] (lazily, cached)
/// or eagerly with [`MeetIndex::build`].
///
/// Every array is a [`Col`]: owned when the index was built, a
/// zero-copy view into a snapshot when it was loaded — both arrays
/// stored here are **final-form** on disk, so a snapshot open performs
/// no assembly at all. `pub(crate)` fields: the snapshot codec persists
/// and reattaches them directly.
#[derive(Debug, Clone)]
pub struct MeetIndex {
    /// The store's parent column (the root maps to itself) — a shared
    /// view of [`MonetDb`]'s own array, never persisted a second time.
    pub(crate) parent: Col<Oid>,
    /// The store's `σ` column, shared the same way.
    pub(crate) sigma: Col<PathId>,
    /// `summary.depth(p)` per path; `depth(o)` is `path_depth[σ(o)]`.
    pub(crate) path_depth: Box<[u32]>,
    /// Per oid `o` of the block starting at `bs`: bit `j` is set when
    /// entry `bs + j` is on the stack of suffix minima of
    /// `parent[bs ..= o]` — its parent is smaller than every parent
    /// after it, up to `o`. Bit `o − bs` is always set.
    pub(crate) stack_mask: Col<u32>,
    /// Sparse table over whole-block minima, flattened level-major:
    /// `block_table[level * num_blocks + b]` is the minimum of `parent`
    /// over blocks `b .. b + 2^level`.
    pub(crate) block_table: Col<Oid>,
    /// Number of 32-entry oid blocks.
    pub(crate) num_blocks: usize,
}

/// Block size: one bit per entry of a `u32` stack mask (and two cache
/// lines of `parent`). `pub(crate)`: the snapshot codec validates block
/// counts against it.
pub(crate) const BLOCK: usize = 32;
const BLOCK_SHIFT: u32 = BLOCK.trailing_zeros();

impl MeetIndex {
    /// Build the index from a loaded database — one pass over the
    /// `parent` column plus the small O((n/32)·log(n/32)) sparse-table
    /// fill.
    pub fn build(db: &MonetDb) -> MeetIndex {
        let n = db.node_count();
        assert!(n > 0, "a loaded document always has a root");
        let parent = db.parent.clone();

        // Per-block pass: run the block's stack of suffix minima as a
        // bit mask (the top is the highest set bit), record it after
        // every push, and seed the sparse table's level 0 with the
        // bottom of the final stack — the block minimum.
        let num_blocks = n.div_ceil(BLOCK);
        let levels = usize::BITS as usize - (num_blocks.leading_zeros() as usize);
        let mut stack_mask: Vec<u32> = Vec::with_capacity(n);
        let mut block_table = vec![Oid::ROOT; levels * num_blocks];
        for (block, level0) in parent.chunks(BLOCK).zip(block_table.iter_mut()) {
            let mut stack = 0u32;
            for (j, &p) in block.iter().enumerate() {
                while let Some(top) = stack.checked_ilog2() {
                    if block[top as usize] < p {
                        break;
                    }
                    stack ^= 1 << top;
                }
                stack |= 1 << j;
                stack_mask.push(stack);
            }
            *level0 = block[stack.trailing_zeros() as usize];
        }
        // Remaining sparse-table levels over whole-block minima.
        for level in 1..levels {
            let half = 1usize << (level - 1);
            let width = 1usize << level;
            let (prev_rows, row) = block_table.split_at_mut(level * num_blocks);
            let prev = &prev_rows[(level - 1) * num_blocks..];
            for i in 0..=(num_blocks - width) {
                row[i] = prev[i].min(prev[i + half]);
            }
        }

        MeetIndex {
            parent,
            sigma: db.sigma.clone(),
            path_depth: MeetIndex::path_depths(db.summary()),
            stack_mask: stack_mask.into(),
            block_table: block_table.into(),
            num_blocks,
        }
    }

    /// The per-path depth table [`MeetIndex::depth`] reads through `σ`
    /// — filled from the summary on build and on open, never stored.
    pub(crate) fn path_depths(summary: &PathSummary) -> Box<[u32]> {
        summary.iter().map(|p| summary.depth(p) as u32).collect()
    }

    /// Number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false: an index exists only for a loaded (rooted) document.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tree depth of `o` (0 for the root).
    #[inline]
    pub fn depth(&self, o: Oid) -> usize {
        self.path_depth[self.sigma[o.index()].index()] as usize
    }

    /// The preorder interval of `o`'s subtree: `o` is an ancestor-or-self
    /// of exactly the OIDs with index in this range. Its end is the first
    /// oid past `o` outside the subtree, found by galloping and then
    /// bisecting over ancestor tests — O(log size) range minima.
    pub fn subtree_range(&self, o: Oid) -> std::ops::Range<usize> {
        let start = o.index();
        let inside = |j: usize| self.is_ancestor_or_self(o, Oid::from_index(j));
        // The end lies in `lo..=hi`.
        let (mut lo, mut hi) = (start + 1, self.len());
        let mut step = 1;
        while start + step < hi {
            if !inside(start + step) {
                hi = start + step;
                break;
            }
            lo = start + step + 1;
            step *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if inside(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        start..lo
    }

    /// O(1) inclusive ancestor test: `anc` is the LCA of the pair exactly
    /// when it is an ancestor-or-self of `o`.
    #[inline]
    pub fn is_ancestor_or_self(&self, anc: Oid, o: Oid) -> bool {
        self.lca(anc, o) == anc
    }

    /// Minimum of `parent` over the oids `l..=r` of one block: the
    /// lowest entry at or after `l` on `r`'s stack. Bit `r` is or-ed in
    /// so that a corrupt mask from a lazily verified file still lands
    /// inside `[l, r]`.
    #[inline]
    fn block_min(&self, l: usize, r: usize) -> Oid {
        let bs = r & !(BLOCK - 1);
        debug_assert!(bs <= l && l <= r);
        let stack = (self.stack_mask[r] | 1 << (r - bs)) & (u32::MAX << (l - bs));
        self.parent[bs + stack.trailing_zeros() as usize]
    }

    /// Minimum of `parent` over the oids `l..=r`.
    #[inline]
    fn min_parent(&self, l: usize, r: usize) -> Oid {
        debug_assert!(l <= r);
        let (bl, br) = (l >> BLOCK_SHIFT, r >> BLOCK_SHIFT);
        if bl == br {
            return self.block_min(l, r);
        }
        // One probe per partial block. Their end entries are read up
        // front: in the range, so the minimum stays the same, but the
        // reads do not wait for the masks, and they bring in the cache
        // lines the probes then read (a block is two lines of `parent`).
        let (left_end, right_start) = ((bl << BLOCK_SHIFT) + BLOCK - 1, br << BLOCK_SHIFT);
        let ends = self.parent[l]
            .min(self.parent[left_end])
            .min(self.parent[right_start])
            .min(self.parent[r]);
        let mut best = ends
            .min(self.block_min(l, left_end))
            .min(self.block_min(right_start, r));
        if bl + 1 < br {
            // Whole blocks strictly between: one sparse-table probe.
            let span = br - bl - 1;
            let level = usize::BITS as usize - 1 - span.leading_zeros() as usize;
            let row = &self.block_table[level * self.num_blocks..];
            best = best.min(row[bl + 1]).min(row[br - (1usize << level)]);
        }
        best
    }

    /// O(1) lowest common ancestor.
    #[inline]
    pub fn lca(&self, a: Oid, b: Oid) -> Oid {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == b {
            return a;
        }
        // The smallest parent pointer in `(a, b]` (module docs).
        self.min_parent(a.index() + 1, b.index())
    }

    /// O(1) tree distance: the number of edges on the shortest path —
    /// the paper's join count `d(o₁, o₂)`.
    #[inline]
    pub fn distance(&self, a: Oid, b: Oid) -> usize {
        self.meet(a, b).1
    }

    /// O(1) combined meet: the LCA and the distance through it (the hot
    /// path of `meet2_indexed`).
    #[inline]
    pub fn meet(&self, a: Oid, b: Oid) -> (Oid, usize) {
        let lca = self.lca(a, b);
        (lca, self.depth(a) + self.depth(b) - 2 * self.depth(lca))
    }

    /// Whether any OID of the sorted document-order `oids` slice falls in
    /// the subtree of `o` — an O(log n) containment test used by query
    /// evaluation ("does this node's offspring contain a hit?"): the
    /// first oid at or after `o` is in the subtree, or none is.
    pub fn subtree_contains_any(&self, o: Oid, oids: &[Oid]) -> bool {
        let start = ncq_simd::lower_bound_u32(Oid::raw_slice(oids), o.raw());
        oids.get(start)
            .is_some_and(|&x| self.is_ancestor_or_self(o, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::{parse, Document};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    fn db() -> MonetDb {
        MonetDb::from_document(&parse(FIGURE1).unwrap())
    }

    /// Reference LCA by intersecting ancestor lists.
    fn reference_lca(db: &MonetDb, a: Oid, b: Oid) -> Oid {
        let anc: Vec<Oid> = db.ancestors(a).collect();
        db.ancestors(b).find(|x| anc.contains(x)).unwrap()
    }

    /// The module's claim, taken literally: unless one endpoint is an
    /// ancestor of the other (`lca` is then that endpoint), the LCA is
    /// the smallest parent pointer in the preorder range `(a, b]` — a
    /// linear scan of the store's own column, no tables.
    fn assert_lca_is_min_parent(db: &MonetDb, a: Oid, b: Oid, lca: Oid, what: &str) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if lca == a {
            return;
        }
        let min_parent = (a.index() + 1..=b.index())
            .map(|i| db.parent(Oid::from_index(i)).expect("past the root"))
            .min();
        assert_eq!(min_parent, Some(lca), "{what} min(parent[{a}+1..={b}])");
    }

    #[test]
    fn lca_matches_ancestor_walks_on_all_pairs() {
        let db = db();
        let idx = db.meet_index();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                let reference = reference_lca(&db, a, b);
                assert_eq!(idx.lca(a, b), reference, "{a:?} {b:?}");
                assert_lca_is_min_parent(&db, a, b, reference, "figure 1");
            }
        }
    }

    /// A tree of `parents.len() + 1` elements: node `i + 1` hangs under
    /// node `parents[i]` (creation indices; the root is node 0).
    fn tree(parents: &[usize]) -> MonetDb {
        let mut doc = Document::new("r");
        let mut nodes = vec![doc.root()];
        for &p in parents {
            nodes.push(doc.add_element(nodes[p], "e"));
        }
        MonetDb::from_document(&doc)
    }

    /// Parent-walk oracle sharing no code with the index: lift the
    /// deeper endpoint until the two meet, one edge per step.
    fn walk_meet(db: &MonetDb, mut a: Oid, mut b: Oid) -> (Oid, usize) {
        let mut steps = 0;
        while a != b {
            if db.depth(a) >= db.depth(b) {
                a = db.parent(a).expect("deeper endpoint is not the root");
            } else {
                b = db.parent(b).expect("deeper endpoint is not the root");
            }
            steps += 1;
        }
        (a, steps)
    }

    fn assert_pair_matches_walk(db: &MonetDb, shape: &str, a: usize, b: usize) {
        let idx = db.meet_index();
        let (a, b) = (Oid::from_index(a), Oid::from_index(b));
        let expect = walk_meet(db, a, b);
        let n = db.node_count();
        assert_eq!(idx.meet(a, b), expect, "{shape} n={n} meet({a}, {b})");
        assert_eq!(idx.lca(a, b), expect.0, "{shape} n={n} lca({a}, {b})");
        assert_eq!(idx.distance(a, b), expect.1, "{shape} n={n} d({a}, {b})");
        let anc = (idx.is_ancestor_or_self(a, b), idx.is_ancestor_or_self(b, a));
        assert_eq!(
            anc,
            (expect.0 == a, expect.0 == b),
            "{shape} n={n} anc({a}, {b})"
        );
        assert_lca_is_min_parent(db, a, b, expect.0, shape);
    }

    /// `subtree_range(o)` against the walk: it starts at `o`, its last oid
    /// is a descendant-or-self of `o` and the oid after it (if any) is
    /// not — preorder subtrees are contiguous, so that pins the range.
    fn assert_subtree_range_matches_walk(db: &MonetDb, shape: &str, o: usize) {
        let range = db.meet_index().subtree_range(Oid::from_index(o));
        let (root, n) = (Oid::from_index(o), db.node_count());
        let below = |x: usize| walk_meet(db, root, Oid::from_index(x)).0 == root;
        let what = format!("{shape} n={n} subtree({o}) = {range:?}");
        assert_eq!(range.start, o, "{what}");
        assert!(below(range.end - 1), "{what}");
        assert!(range.end == n || !below(range.end), "{what}");
    }

    /// Shapes chosen for the 32-entry block decomposition, at sizes on
    /// both sides of one and two block edges and past a sparse-table
    /// level: chains (every pair ancestor-related), stars (every
    /// minimum tied), combs (answers on the spine, ranges straddling
    /// block edges) and a random attachment tree. All ordered pairs —
    /// so `a == b`, ancestor/descendant in both argument orders,
    /// adjacent siblings and first/last oid are all in — up to 65
    /// nodes; above that every adjacent pair, first/last, every range
    /// `(a, b]` inside one middle block, and 10^5 seeded pairs. Every
    /// node's subtree range, at every size.
    #[test]
    fn lca_meet_and_distance_match_parent_walks_on_block_edge_shapes() {
        let mut rng = StdRng::seed_from_u64(0x1ca_b10c);
        for n in [1usize, 31, 32, 33, 64, 65, 1025] {
            let links = n - 1;
            let shapes: [(&str, Vec<usize>); 4] = [
                ("chain", (0..links).collect()),
                ("star", vec![0; links]),
                // Even nodes form the spine, each odd node is the leaf
                // hanging off the spine node before it.
                ("comb", (0..links).map(|i| i & !1).collect()),
                (
                    "random",
                    (0..links).map(|i| rng.random_range(0..i + 1)).collect(),
                ),
            ];
            for (shape, parents) in &shapes {
                let db = tree(parents);
                assert_eq!(db.node_count(), n);
                for o in 0..n {
                    assert_subtree_range_matches_walk(&db, shape, o);
                }
                if n <= 65 {
                    for a in 0..n {
                        for b in 0..n {
                            assert_pair_matches_walk(&db, shape, a, b);
                        }
                    }
                    continue;
                }
                for a in 0..n - 1 {
                    assert_pair_matches_walk(&db, shape, a, a + 1);
                    assert_pair_matches_walk(&db, shape, a + 1, a);
                }
                assert_pair_matches_walk(&db, shape, 0, n - 1);
                assert_pair_matches_walk(&db, shape, n - 1, 0);
                // `lca(a, b)` probes `(a, b]`: every in-block `(l, r)`.
                let bs = (n / 2) & !(BLOCK - 1);
                for a in bs - 1..bs + BLOCK {
                    for b in a..bs + BLOCK {
                        assert_pair_matches_walk(&db, shape, a, b);
                    }
                }
                for _ in 0..100_000 {
                    let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                    assert_pair_matches_walk(&db, shape, a, b);
                }
            }
        }
    }

    #[test]
    fn distance_matches_depth_arithmetic() {
        let db = db();
        let idx = db.meet_index();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                let m = reference_lca(&db, a, b);
                let expect = db.depth(a) + db.depth(b) - 2 * db.depth(m);
                assert_eq!(idx.distance(a, b), expect);
            }
        }
    }

    #[test]
    fn ancestor_test_matches_walks() {
        let db = db();
        let idx = db.meet_index();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                assert_eq!(
                    idx.is_ancestor_or_self(a, b),
                    db.is_ancestor_or_self(a, b),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn subtree_ranges_are_preorder_intervals() {
        let db = db();
        let idx = db.meet_index();
        for o in db.iter_oids() {
            let range = idx.subtree_range(o);
            let members: Vec<usize> = db
                .iter_oids()
                .filter(|&x| db.is_ancestor_or_self(o, x))
                .map(Oid::index)
                .collect();
            assert_eq!(members, range.collect::<Vec<_>>());
        }
    }

    #[test]
    fn subtree_contains_any_agrees_with_scan() {
        let db = db();
        let idx = db.meet_index();
        let hits: Vec<Oid> = db.iter_oids().filter(|&o| db.label(o) == "cdata").collect();
        for o in db.iter_oids() {
            let expect = hits.iter().any(|&h| db.is_ancestor_or_self(o, h));
            assert_eq!(idx.subtree_contains_any(o, &hits), expect, "{o:?}");
        }
        assert!(!idx.subtree_contains_any(db.root(), &[]));
    }

    #[test]
    fn single_node_document_indexes() {
        let db = MonetDb::from_document(&parse("<only/>").unwrap());
        let idx = db.meet_index();
        let root = db.root();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.lca(root, root), root);
        assert_eq!(idx.distance(root, root), 0);
        assert!(idx.is_ancestor_or_self(root, root));
    }

    #[test]
    fn deep_chain_lca_is_exact() {
        // A 64-deep chain with a two-leaf fork at the bottom.
        let mut xml = String::from("<r>");
        for _ in 0..64 {
            xml.push_str("<e>");
        }
        xml.push_str("<a>x</a><b>y</b>");
        for _ in 0..64 {
            xml.push_str("</e>");
        }
        xml.push_str("</r>");
        let db = MonetDb::from_document(&parse(&xml).unwrap());
        let idx = db.meet_index();
        let a = db.iter_oids().find(|&o| db.label(o) == "a").unwrap();
        let b = db.iter_oids().find(|&o| db.label(o) == "b").unwrap();
        let m = idx.lca(a, b);
        assert_eq!(db.label(m), "e");
        assert_eq!(db.depth(m), 64);
        assert_eq!(idx.distance(a, b), 2);
    }
}
