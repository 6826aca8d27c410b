//! The structural meet index: O(1) ancestor tests, O(1) LCA, O(1)
//! distances, and document-order posting lists.
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
//! One pass over the loaded [`crate::MonetDb`] (whose OIDs are
//! depth-first preorder by construction) yields three structures:
//!
//! 1. **Preorder intervals** — because OIDs are assigned in DFS order,
//!    the subtree of `o` occupies the contiguous OID range
//!    `[o, subtree_end(o))`. Storing one `end` per node gives O(1)
//!    [`MeetIndex::is_ancestor_or_self`] — the pre/post-order numbering
//!    trick with the pre-number coming for free from the OID itself.
//! 2. **Euler tour + block-decomposed sparse-table RMQ** — the tour
//!    visits `2n − 1` nodes; the LCA of `a` and `b` is the minimum-depth
//!    node between their first tour occurrences (Bender & Farach-Colton's
//!    reduction of LCA to range-minimum). The tour is cut into 32-entry
//!    blocks: per-position prefix/suffix minima answer the partial
//!    blocks, and a sparse table over whole-block minima answers the
//!    middle, so [`MeetIndex::lca`] and [`MeetIndex::distance`]
//!    (`depth(a) + depth(b) − 2·depth(lca)`) are O(1) with **O(n)**
//!    memory (a flat sparse table over the raw tour would be
//!    O(n log n) — 168 MB at a million nodes; this layout is ~32 MB).
//!    Ties at the minimum depth need no care: every minimum-depth
//!    position in the queried range is an occurrence of the same node,
//!    the LCA itself.
//! 3. **Per-path posting lists** — for every path `p` of the summary, the
//!    OIDs with `σ(o) = p`, in document order. Document-order sortedness
//!    is what the plane-sweep set operators and the galloping posting
//!    intersections rely on; keeping the lists here makes the guarantee
//!    explicit (and allocation-free to read).
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
use crate::path::PathId;

/// Euler-tour LCA index with preorder intervals and per-path postings.
///
/// Built once per document via [`MonetDb::meet_index`] (lazily, cached)
/// or eagerly with [`MeetIndex::build`].
///
/// Every array is a [`Col`]: owned when the index was built, a
/// zero-copy view into a snapshot when it was loaded — all eleven
/// arrays here are **final-form** on disk, so a snapshot open performs
/// no assembly at all. `pub(crate)` fields:
/// the snapshot codecs persist and reattach them directly.
#[derive(Debug, Clone)]
pub struct MeetIndex {
    /// Tree depth per oid (copied out of the path summary for locality).
    pub(crate) depth: Col<u32>,
    /// Exclusive end of the preorder interval per oid: the subtree of `o`
    /// is exactly the OID range `o.index()..subtree_end[o.index()]`.
    pub(crate) subtree_end: Col<u32>,
    /// `(first_visit << 32) | depth` per oid: one load per query
    /// endpoint yields both the tour position and the depth.
    pub(crate) visit_depth: Col<u64>,
    /// The Euler tour: `2n − 1` oid values.
    pub(crate) tour: Col<u32>,
    /// `depth[tour[i]]`, materialized so in-block scans read contiguous
    /// memory instead of chasing `tour` → `depth`.
    pub(crate) tour_depth: Col<u32>,
    /// Per tour position: packed `(depth << 32) | pos` argmin within its
    /// block, from the block start up to and including this position.
    /// Packing makes every RMQ comparison a plain u64 compare with no
    /// dependent loads.
    pub(crate) prefix_min: Col<u64>,
    /// Per tour position: packed argmin within its block, from this
    /// position to the block end.
    pub(crate) suffix_min: Col<u64>,
    /// Sparse table over whole-block minima, flattened level-major:
    /// `block_table[level * num_blocks + b]` is the packed minimum over
    /// blocks `b .. b + 2^level`.
    pub(crate) block_table: Col<u64>,
    /// Number of 32-entry tour blocks.
    pub(crate) num_blocks: usize,
    /// Per-path posting offsets (CSR): the oids of path `p` are
    /// `path_data[path_off[p] .. path_off[p + 1]]`, in document order.
    pub(crate) path_off: Col<u32>,
    /// Concatenated per-path postings, `n` oids total.
    pub(crate) path_data: Col<Oid>,
}

/// Tour block size: 32 entries = two cache lines of `tour_depth`, and a
/// worst-case in-block scan of 31 contiguous comparisons. `pub(crate)`:
/// the v3 snapshot codec validates block counts against it.
pub(crate) const BLOCK: usize = 32;
const BLOCK_SHIFT: u32 = BLOCK.trailing_zeros();

/// Pack a (depth, tour position) pair; the natural u64 order is then
/// exactly "smaller depth first, leftmost position on ties".
#[inline]
fn pack(depth: u32, pos: usize) -> u64 {
    ((depth as u64) << 32) | pos as u64
}

impl MeetIndex {
    /// Build the index from a loaded database — one DFS plus the
    /// O(n log n) sparse-table fill.
    pub fn build(db: &MonetDb) -> MeetIndex {
        let n = db.node_count();
        assert!(n > 0, "a loaded document always has a root");

        let mut depth = Vec::with_capacity(n);
        let mut path_oids: Vec<Vec<Oid>> = vec![Vec::new(); db.summary().len()];
        for o in db.iter_oids() {
            depth.push(db.depth(o) as u32);
            path_oids[db.sigma(o).index()].push(o);
        }

        // Preorder intervals: children have larger OIDs than parents, so
        // a reverse sweep folds each subtree's end into its parent.
        let mut subtree_end: Vec<u32> = (1..=n as u32).collect();
        for i in (1..n).rev() {
            let p = db.parent(Oid::from_index(i)).expect("non-root").index();
            if subtree_end[p] < subtree_end[i] {
                subtree_end[p] = subtree_end[i];
            }
        }

        // Children in document order, CSR layout over the parent array.
        let mut child_count = vec![0u32; n];
        for i in 1..n {
            child_count[db.parent(Oid::from_index(i)).expect("non-root").index()] += 1;
        }
        let mut child_start = vec![0u32; n + 1];
        for i in 0..n {
            child_start[i + 1] = child_start[i] + child_count[i];
        }
        let mut children = vec![0u32; n.saturating_sub(1)];
        let mut fill = child_start.clone();
        for i in 1..n {
            let p = db.parent(Oid::from_index(i)).expect("non-root").index();
            children[fill[p] as usize] = i as u32;
            fill[p] += 1;
        }

        // Euler tour via an explicit DFS stack of (node, next child slot).
        // First-visit positions are recovered from the tour by `assemble`.
        let tour_len = 2 * n - 1;
        let mut tour = Vec::with_capacity(tour_len);
        let mut stack: Vec<(u32, u32)> = vec![(0, child_start[0])];
        tour.push(0u32);
        while let Some(top) = stack.last_mut() {
            let node = top.0 as usize;
            if top.1 < child_start[node + 1] {
                let child = children[top.1 as usize];
                top.1 += 1;
                tour.push(child);
                stack.push((child, child_start[child as usize]));
            } else {
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    tour.push(parent);
                }
            }
        }
        debug_assert_eq!(tour.len(), tour_len);

        MeetIndex::assemble(depth, subtree_end, tour, path_oids)
    }

    /// Finish an index from its four source arrays — the preorder
    /// intervals, the Euler tour and the per-path postings — by
    /// building the derived structures (first visits, tour depths,
    /// block RMQ tables) in linear passes plus the small
    /// O((n/32)·log(n/32)) sparse-table fill.
    fn assemble(
        depth: Vec<u32>,
        subtree_end: Vec<u32>,
        tour: Vec<u32>,
        path_oids: Vec<Vec<Oid>>,
    ) -> MeetIndex {
        let n = depth.len();
        let tour_len = tour.len();
        debug_assert_eq!(tour_len, 2 * n - 1);

        // First tour occurrence per oid (one forward pass). OIDs are
        // preorder and the tour is a DFS walk, so nodes are discovered
        // in oid order: entry `o` is a first visit exactly when it is
        // the next undiscovered oid — an append, not a random write.
        let mut first_visit: Vec<u32> = Vec::with_capacity(n);
        for (i, &o) in tour.iter().enumerate() {
            if o as usize == first_visit.len() {
                first_visit.push(i as u32);
            }
        }
        assert_eq!(first_visit.len(), n, "the DFS tour visits every oid");

        // Note the layout difference: visit_depth is
        // (first_visit << 32) | depth, while the RMQ tables pack
        // (depth << 32) | pos so the u64 order is depth-first.
        let visit_depth: Vec<u64> = (0..n)
            .map(|i| ((first_visit[i] as u64) << 32) | depth[i] as u64)
            .collect();

        // Per-block pass, fused for locality: gather the block's tour
        // depths, fold its prefix/suffix packed argmins and seed the
        // sparse table's level 0 while the 32 entries are cache-hot.
        // The big arrays are appended to (prefix order) or staged in a
        // block-sized scratch (suffix order) so nothing is zero-filled
        // only to be overwritten.
        let num_blocks = tour_len.div_ceil(BLOCK);
        let levels = usize::BITS as usize - (num_blocks.leading_zeros() as usize);
        let mut tour_depth: Vec<u32> = Vec::with_capacity(tour_len);
        let mut prefix_min: Vec<u64> = Vec::with_capacity(tour_len);
        let mut suffix_min: Vec<u64> = Vec::with_capacity(tour_len);
        let mut block_table = vec![0u64; levels * num_blocks];
        let mut scratch = [0u64; BLOCK];
        for (b, level0) in block_table.iter_mut().take(num_blocks).enumerate() {
            let start = b * BLOCK;
            let end = (start + BLOCK).min(tour_len);
            tour_depth.extend(tour[start..end].iter().map(|&o| depth[o as usize]));
            let block = &tour_depth[start..end];
            let mut best = pack(block[0], start);
            for (off, &d) in block.iter().enumerate() {
                best = best.min(pack(d, start + off));
                prefix_min.push(best);
            }
            let mut best = pack(block[block.len() - 1], end - 1);
            for (off, &d) in block.iter().enumerate().rev() {
                best = best.min(pack(d, start + off));
                scratch[off] = best;
            }
            suffix_min.extend_from_slice(&scratch[..block.len()]);
            *level0 = scratch[0];
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

        // Per-path postings in CSR layout: one offsets array plus the
        // concatenated document-order data — the shape the v3 snapshot
        // maps back without assembly.
        let mut path_off: Vec<u32> = Vec::with_capacity(path_oids.len() + 1);
        let mut path_data: Vec<Oid> = Vec::with_capacity(n);
        path_off.push(0);
        for oids in &path_oids {
            path_data.extend_from_slice(oids);
            path_off.push(path_data.len() as u32);
        }

        MeetIndex {
            depth: depth.into(),
            subtree_end: subtree_end.into(),
            visit_depth: visit_depth.into(),
            tour: tour.into(),
            tour_depth: tour_depth.into(),
            prefix_min: prefix_min.into(),
            suffix_min: suffix_min.into(),
            block_table: block_table.into(),
            num_blocks,
            path_off: path_off.into(),
            path_data: path_data.into(),
        }
    }

    /// Reattach an index from its persisted final-form arrays — the v3
    /// snapshot path: no DFS, no RMQ fill, no posting regrouping. The
    /// caller (the codec) has validated the shape invariants the
    /// accessors rely on: matching lengths, `path_off` monotone from 0
    /// to `n`, and `block_table.len() == levels * num_blocks`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        depth: Col<u32>,
        subtree_end: Col<u32>,
        visit_depth: Col<u64>,
        tour: Col<u32>,
        tour_depth: Col<u32>,
        prefix_min: Col<u64>,
        suffix_min: Col<u64>,
        block_table: Col<u64>,
        num_blocks: usize,
        path_off: Col<u32>,
        path_data: Col<Oid>,
    ) -> MeetIndex {
        MeetIndex {
            depth,
            subtree_end,
            visit_depth,
            tour,
            tour_depth,
            prefix_min,
            suffix_min,
            block_table,
            num_blocks,
            path_off,
            path_data,
        }
    }

    /// Number of paths with a postings slot.
    #[inline]
    pub(crate) fn path_count(&self) -> usize {
        self.path_off.len().saturating_sub(1)
    }

    /// Number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// Always false: an index exists only for a loaded (rooted) document.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tree depth of `o` (0 for the root).
    #[inline]
    pub fn depth(&self, o: Oid) -> usize {
        self.depth[o.index()] as usize
    }

    /// The preorder interval of `o`'s subtree: `o` is an ancestor-or-self
    /// of exactly the OIDs with index in this range.
    #[inline]
    pub fn subtree_range(&self, o: Oid) -> std::ops::Range<usize> {
        o.index()..self.subtree_end[o.index()] as usize
    }

    /// O(1) inclusive ancestor test via preorder intervals.
    #[inline]
    pub fn is_ancestor_or_self(&self, anc: Oid, o: Oid) -> bool {
        anc.index() <= o.index() && o.index() < self.subtree_end[anc.index()] as usize
    }

    /// Packed `(depth << 32) | pos` of a minimum-depth node in
    /// `tour[l..=r]`. Any argmin is correct: all minimum-depth positions
    /// in an Euler-tour range are occurrences of one node (the LCA).
    #[inline]
    fn rmq(&self, l: usize, r: usize) -> u64 {
        debug_assert!(l <= r);
        let (bl, br) = (l >> BLOCK_SHIFT, r >> BLOCK_SHIFT);
        if bl == br {
            // One block: contiguous scan over at most 32 depths.
            let mut best = pack(self.tour_depth[l], l);
            for i in l + 1..=r {
                best = best.min(pack(self.tour_depth[i], i));
            }
            return best;
        }
        let mut best = self.suffix_min[l].min(self.prefix_min[r]);
        if bl + 1 < br {
            // Whole blocks strictly between: one sparse-table probe.
            let span = br - bl - 1;
            let level = usize::BITS as usize - 1 - span.leading_zeros() as usize;
            let row = &self.block_table[level * self.num_blocks..];
            best = best.min(row[bl + 1]).min(row[br - (1usize << level)]);
        }
        best
    }

    /// Packed rmq over the endpoints' first-visit range.
    #[inline]
    fn meet_packed(&self, va: u64, vb: u64) -> u64 {
        let fa = (va >> 32) as usize;
        let fb = (vb >> 32) as usize;
        let (l, r) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        self.rmq(l, r)
    }

    /// O(1) lowest common ancestor.
    #[inline]
    pub fn lca(&self, a: Oid, b: Oid) -> Oid {
        let m = self.meet_packed(self.visit_depth[a.index()], self.visit_depth[b.index()]);
        Oid::from_index(self.tour[(m & 0xFFFF_FFFF) as usize] as usize)
    }

    /// O(1) tree distance: the number of edges on the shortest path —
    /// the paper's join count `d(o₁, o₂)`.
    #[inline]
    pub fn distance(&self, a: Oid, b: Oid) -> usize {
        self.meet(a, b).1
    }

    /// O(1) combined meet: the LCA and the distance through it, sharing
    /// one RMQ probe (the hot path of `meet2_indexed`).
    #[inline]
    pub fn meet(&self, a: Oid, b: Oid) -> (Oid, usize) {
        let va = self.visit_depth[a.index()];
        let vb = self.visit_depth[b.index()];
        let m = self.meet_packed(va, vb);
        let meet = Oid::from_index(self.tour[(m & 0xFFFF_FFFF) as usize] as usize);
        let dm = (m >> 32) as usize;
        let da = (va & 0xFFFF_FFFF) as usize;
        let dbv = (vb & 0xFFFF_FFFF) as usize;
        (meet, da + dbv - 2 * dm)
    }

    /// All OIDs of path `p` in document order (empty for attribute paths,
    /// which own no objects). Reading is allocation-free, unlike
    /// [`MonetDb::oids_of_path`].
    #[inline]
    pub fn oids_of_path(&self, p: PathId) -> &[Oid] {
        let i = p.index();
        if i + 1 >= self.path_off.len() {
            return &[];
        }
        &self.path_data[self.path_off[i] as usize..self.path_off[i + 1] as usize]
    }

    /// Whether any OID of the sorted document-order `oids` slice falls in
    /// the subtree of `o` — an O(log n) containment test used by query
    /// evaluation ("does this node's offspring contain a hit?").
    pub fn subtree_contains_any(&self, o: Oid, oids: &[Oid]) -> bool {
        let start = ncq_simd::lower_bound_u32(Oid::raw_slice(oids), o.raw());
        oids.get(start)
            .is_some_and(|&x| x.index() < self.subtree_end[o.index()] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

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

    #[test]
    fn lca_matches_ancestor_walks_on_all_pairs() {
        let db = db();
        let idx = db.meet_index();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                assert_eq!(idx.lca(a, b), reference_lca(&db, a, b), "{a:?} {b:?}");
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
    fn path_oids_are_document_order_and_complete() {
        let db = db();
        let idx = db.meet_index();
        let mut total = 0;
        for p in db.summary().iter() {
            let oids = idx.oids_of_path(p);
            assert!(oids.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert_eq!(oids, db.oids_of_path(p).as_slice());
            total += oids.len();
        }
        assert_eq!(total, db.node_count());
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
