//! Document-order plane-sweep engine behind the indexed generalized
//! meet and the sharded per-shard sweeps.
//!
//! Items sorted in document order form a doubly-linked list; candidate
//! meets are the LCAs of adjacent alive items, processed deepest first
//! from a max-heap; accepting a meet consumes the contiguous run of
//! alive items inside its subtree (preorder intervals are contiguous,
//! so the run is an interval of the list) and bridges the gap, creating
//! exactly one new adjacency. This module hosts that machinery once;
//! callers differ only in what happens at a candidate.
//!
//! A rejected candidate (only `meet^δ` rejects) is memoized by node:
//! consumption can only *remove* witnesses from a subtree, so the two
//! closest climbs at a node can only grow — a node that once failed the
//! distance bound fails it forever. The memo caps the per-node run-scan
//! work at once per distinct node, avoiding a quadratic blow-up when
//! many adjacencies share one shallow LCA.

use ncq_store::{MeetIndex, Oid};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// What the per-candidate callback decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Consume the run; the callback has recorded the meet (or chosen to
    /// suppress it — consumption happens either way).
    Accept,
    /// Leave the run alive; the node is memoized and never re-proposed
    /// by this sweep. Two callers rely on it: `meet^δ` failures (the
    /// distance can only grow, so the node fails forever), and the
    /// sharded scatter phase, which *defers* candidates on the
    /// replicated spine — their runs span shards, so only the gather
    /// sweep may consume them.
    Reject,
}

/// Run the sweep over `oids` (document-order sorted, multiplicity
/// preserved). `on_candidate(meet, run)` receives the meet node and the
/// alive run's item indices, deepest candidates first.
///
/// Accepted candidates surface in `(depth descending, node ascending)`
/// order: initial candidates all enter the heap up front, a bridge
/// adjacency created by consuming a run at depth `d` proposes a proper
/// ancestor (depth < `d`), and rejected candidates propose nothing — so
/// the heap never receives a candidate at a depth it has already
/// drained past. The sharded scatter/gather executors rely on this to
/// stitch per-shard accept sequences back into the exact global order
/// by a single sort.
pub fn plane_sweep(
    index: &MeetIndex,
    oids: &[Oid],
    on_candidate: impl FnMut(Oid, &[usize]) -> Verdict,
) {
    sweep_core(index, oids, on_candidate, None::<fn(usize) -> bool>)
}

/// [`plane_sweep`] with a top-k early-exit hook. After every accepted
/// candidate the sweep computes a **floor on the distance of any meet it
/// could still produce** and hands it to `should_stop`; returning `true`
/// ends the sweep immediately.
///
/// The floor is sound because the sweep drains candidates deepest first:
/// every remaining candidate (in the heap or proposed later by a bridge)
/// sits at depth ≤ the current heap top `d_next`, and its two closest
/// witnesses are items that are alive *now* (consumption only removes
/// items). With `a₁ ≤ a₂` the two smallest alive item depths, any future
/// meet distance is ≥ `a₁ + a₂ − 2·d_next`. Stale heap entries only
/// overestimate `d_next`, weakening the floor — never unsoundly.
///
/// Callers implementing `LIMIT k` stop once they hold `k` results whose
/// k-th best distance is **strictly** below the floor: a future meet at
/// the same distance could still outrank the k-th result on the
/// witness-count/document-order tie-breaks, so ties must keep sweeping.
pub fn plane_sweep_bounded(
    index: &MeetIndex,
    oids: &[Oid],
    on_candidate: impl FnMut(Oid, &[usize]) -> Verdict,
    should_stop: impl FnMut(usize) -> bool,
) {
    sweep_core(index, oids, on_candidate, Some(should_stop))
}

fn sweep_core(
    index: &MeetIndex,
    oids: &[Oid],
    mut on_candidate: impl FnMut(Oid, &[usize]) -> Verdict,
    mut should_stop: Option<impl FnMut(usize) -> bool>,
) {
    let n = oids.len();
    if n < 2 {
        return;
    }

    const NONE: usize = usize::MAX;
    let mut prev: Vec<usize> = (0..n).map(|i| i.checked_sub(1).unwrap_or(NONE)).collect();
    let mut next: Vec<usize> = (1..=n).map(|i| if i < n { i } else { NONE }).collect();
    let mut alive = vec![true; n];

    // Max-heap: (LCA depth, doc order, left, right) — deepest first;
    // equal depths are disjoint subtrees, ordered by document position
    // for determinism.
    let mut heap: BinaryHeap<(u32, std::cmp::Reverse<u32>, u32, u32)> = BinaryHeap::new();
    let mut rejected: HashSet<Oid> = HashSet::new();
    let mut run: Vec<usize> = Vec::new();

    // Bounded sweeps track the two shallowest alive items in a lazy
    // min-heap (dead tops are skimmed off on demand); unbounded sweeps
    // pay nothing.
    let mut shallow: BinaryHeap<Reverse<(u32, u32)>> = if should_stop.is_some() {
        (0..n)
            .map(|i| Reverse((index.depth(oids[i]) as u32, i as u32)))
            .collect()
    } else {
        BinaryHeap::new()
    };

    macro_rules! push_candidate {
        ($li:expr, $ri:expr) => {
            let m = index.lca(oids[$li], oids[$ri]);
            heap.push((
                index.depth(m) as u32,
                std::cmp::Reverse(m.index() as u32),
                $li as u32,
                $ri as u32,
            ));
        };
    }
    for i in 1..n {
        push_candidate!(i - 1, i);
    }

    while let Some((_, std::cmp::Reverse(m_raw), li, ri)) = heap.pop() {
        let (li, ri) = (li as usize, ri as usize);
        if !alive[li] || !alive[ri] || next[li] != ri {
            continue; // stale adjacency
        }
        let m = Oid::from_index(m_raw as usize);
        if rejected.contains(&m) {
            continue; // permanently over the distance bound
        }

        // The alive items in subtree(m): a contiguous run around the
        // proposing pair.
        let mut lo = li;
        while prev[lo] != NONE && index.is_ancestor_or_self(m, oids[prev[lo]]) {
            lo = prev[lo];
        }
        let mut hi = ri;
        while next[hi] != NONE && index.is_ancestor_or_self(m, oids[next[hi]]) {
            hi = next[hi];
        }
        run.clear();
        let mut cur = lo;
        loop {
            run.push(cur);
            if cur == hi {
                break;
            }
            cur = next[cur];
        }

        match on_candidate(m, &run) {
            Verdict::Reject => {
                rejected.insert(m);
                continue;
            }
            Verdict::Accept => {}
        }

        // Consume the run and bridge the gap.
        for &i in &run {
            alive[i] = false;
        }
        let (left, right) = (prev[lo], next[hi]);
        if left != NONE {
            next[left] = right;
        }
        if right != NONE {
            prev[right] = left;
        }
        if left != NONE && right != NONE {
            push_candidate!(left, right);
        }

        if let Some(stop) = should_stop.as_mut() {
            // Floor on any future meet distance (see
            // [`plane_sweep_bounded`]). No candidates or fewer than two
            // alive items means no future meets at all.
            let Some(&(d_next, ..)) = heap.peek() else {
                break;
            };
            while shallow
                .peek()
                .is_some_and(|&Reverse((_, i))| !alive[i as usize])
            {
                shallow.pop();
            }
            let Some(first) = shallow.pop() else { break };
            while shallow
                .peek()
                .is_some_and(|&Reverse((_, i))| !alive[i as usize])
            {
                shallow.pop();
            }
            let Some(&Reverse((a2, _))) = shallow.peek() else {
                break;
            };
            let Reverse((a1, _)) = first;
            shallow.push(first);
            let floor = (a1 as usize + a2 as usize).saturating_sub(2 * d_next as usize);
            if stop(floor) {
                break;
            }
        }
    }
}
