//! The served generalized meet: Fig. 5's roll-up as one stack pass over
//! the hits in document order. The paper's level-by-level roll-up is its
//! oracle, [`crate::reference::meet_rollup`].
//!
//! The paper contracts "the offspring of nodes whose only offspring are
//! leaves", bottom-up; "all nodes that are meets of other nodes are
//! minimal by construction; they are output and not considered
//! anymore". Only two kinds of node can matter: the hits and the LCAs of
//! neighbouring hits — the tree *compressed* to the hits — and in
//! document order the unconsumed hits of a subtree are contiguous. So
//! the pass keeps the root-to-current path of that compressed tree on a
//! stack. For the next hit `x` it takes **one** `l = lca(top, x)` and
//! pops every frame deeper than `l`: a popped frame's subtree will never
//! be entered again, so it is *closed* (`Pass::close`). Two or more
//! hits whose two shallowest lie within δ make it a meet — emitted, its
//! hits consumed. Otherwise its token (hit count, two smallest hit
//! depths, a list of item indices) is absorbed by the frame below, with
//! a frame for `l` slipped in when the frame below is shallower than
//! `l`. Then `x` is pushed.
//!
//! Children close before parents and disjoint subtrees commute, so this
//! is the contraction order of Fig. 5 without a priority queue: nothing
//! is ever stale, re-proposed or re-scanned. After the sort it is
//! O(hits) with one LCA probe per hit. `meet^δ` needs no memo — a closed
//! frame is never seen again, and its token simply climbs, carrying the
//! merged two smallest depths to whichever ancestor a closer hit joins.
//!
//! Every token that is never consumed ends in the last frame on the
//! stack, in document order: those are the pass's survivors. Engines
//! differ in one thing, the `defer` gate. [`crate::Database`] never
//! defers; a shard's scatter task defers the replicated spine (a spine
//! node's hits may span shards) and hands its survivors to the gather,
//! which is this same pass again over everybody's survivors.

use crate::meet_multi::{Meet, MeetOptions, MeetWitness};
use crate::rank::{rank_and_cut, rank_key, KBest};
use ncq_fulltext::HitSet;
use ncq_store::{MeetIndex, MonetDb, Oid};
use std::borrow::Borrow;

/// All hits of `inputs` in document order, each with the index of its
/// input group. Multiplicity is kept: two attribute hits owned by one
/// element are two witnesses, exactly as in the paper's token roll-up.
pub fn merged_hits<H: Borrow<HitSet>>(inputs: &[H]) -> Vec<(Oid, u32)> {
    let total = inputs.iter().map(|hits| hits.borrow().len()).sum();
    let mut items: Vec<(Oid, u32)> = Vec::with_capacity(total);
    for (i, hits) in inputs.iter().enumerate() {
        items.extend(hits.borrow().iter().map(|(_, o)| (o, i as u32)));
    }
    items.sort_unstable();
    items
}

/// The generalized meet over hit groups (paper Fig. 5) on `store`:
/// one pass over the hits in document order, ranked and cut to
/// [`MeetOptions::limit`]. Inputs are accepted through any
/// [`Borrow`]-able holder (`HitSet`, `&HitSet`, `Arc<HitSet>`), so
/// shared caches need no deep copy.
pub fn meet_hits<H: Borrow<HitSet>>(
    store: &MonetDb,
    inputs: &[H],
    options: &MeetOptions,
) -> Vec<Meet> {
    let _span = ncq_obs::trace::span("meet_eval");
    let swept = sweep(store, &merged_hits(inputs), options, |_| false);
    rank_and_cut(swept.meets, options.limit)
}

/// What one pass found.
#[derive(Debug)]
pub struct Swept {
    /// The meets, unranked; under [`MeetOptions::limit`] only the `k`
    /// best by the rank key, which contain the ranked prefix.
    pub meets: Vec<Meet>,
    /// The items no meet consumed, in document order.
    pub survivors: Vec<(Oid, u32)>,
}

/// Run the pass over `items` (as [`merged_hits`] returns them).
/// `defer(node)` keeps `node` from being a meet here: its hits climb on
/// and, unless an ancestor consumes them, survive.
pub fn sweep(
    db: &MonetDb,
    items: &[(Oid, u32)],
    options: &MeetOptions,
    defer: impl Fn(Oid) -> bool,
) -> Swept {
    assert!(items.len() < NIL as usize, "item indices are u32");
    let index = db.meet_index();
    let mut pass = Pass {
        db,
        index,
        items,
        options,
        defer,
        depths: items.iter().map(|&(o, _)| index.depth(o) as u32).collect(),
        next: vec![NIL; items.len()],
        // A meet consumes at least two items.
        best: KBest::new(options.limit, items.len() / 2),
    };

    let mut stack: Vec<Frame> = Vec::new();
    for (i, &(x, _)) in items.iter().enumerate() {
        let token = Token::leaf(i as u32, pass.depths[i]);
        match stack.last_mut() {
            None => {}
            Some(top) if top.node == x => {
                top.token.absorb(token, &mut pass.next);
                continue;
            }
            Some(top) => {
                let l = lca(index, top.node, x);
                while stack.last().is_some_and(|top| top.node > l) {
                    let closed = stack.pop().expect("just peeked");
                    let Some(kept) = pass.close(closed) else {
                        continue;
                    };
                    match stack.last_mut() {
                        Some(below) if below.node >= l => below.token.absorb(kept, &mut pass.next),
                        _ => stack.push(Frame {
                            node: l,
                            token: kept,
                        }),
                    }
                }
            }
        }
        stack.push(Frame { node: x, token });
    }

    let mut rest = None;
    while let Some(closed) = stack.pop() {
        let Some(kept) = pass.close(closed) else {
            continue;
        };
        match stack.last_mut() {
            Some(below) => below.token.absorb(kept, &mut pass.next),
            None => rest = Some(kept),
        }
    }
    Swept {
        survivors: rest
            .iter()
            .flat_map(|token| pass.list(token))
            .map(|i| items[i])
            .collect(),
        meets: pass.best.into_meets(),
    }
}

const NIL: u32 = u32::MAX;

/// The unconsumed hits below a frame's node.
struct Token {
    count: usize,
    /// The two smallest depths among them — enough for the distance of
    /// the closest pair through any common ancestor.
    shallowest: [u32; 2],
    /// Their item indices, as a list threaded through `Pass::next`.
    head: u32,
    tail: u32,
}

impl Token {
    fn leaf(item: u32, depth: u32) -> Token {
        Token {
            count: 1,
            shallowest: [depth, u32::MAX],
            head: item,
            tail: item,
        }
    }

    /// Append `other`, whose items all follow `self`'s in document order.
    fn absorb(&mut self, other: Token, next: &mut [u32]) {
        self.count += other.count;
        let [a, b] = self.shallowest;
        let [c, d] = other.shallowest;
        self.shallowest = if a <= c { [a, b.min(c)] } else { [c, a.min(d)] };
        next[self.tail as usize] = other.head;
        self.tail = other.tail;
    }
}

/// One node of the compressed tree on the current root path. Preorder
/// numbers order a root path by depth, so frames compare by `node`.
struct Frame {
    node: Oid,
    token: Token,
}

struct Pass<'a, D> {
    db: &'a MonetDb,
    index: &'a MeetIndex,
    items: &'a [(Oid, u32)],
    options: &'a MeetOptions,
    defer: D,
    depths: Vec<u32>,
    next: Vec<u32>,
    best: KBest,
}

impl<D: Fn(Oid) -> bool> Pass<'_, D> {
    /// The one place a candidate is judged. Returns the token if it
    /// climbs on: fewer than two hits, a deferred node, or `meet^δ`
    /// failed. Otherwise the node is a meet and its hits are consumed —
    /// also when the filter suppresses the result type ("we discard o")
    /// or the meet cannot enter the `k` best.
    fn close(&mut self, frame: Frame) -> Option<Token> {
        let Frame { node, token } = frame;
        if token.count < 2 || (self.defer)(node) {
            return Some(token);
        }
        let depth = self.index.depth(node);
        let [d1, d2] = token.shallowest;
        let distance = d1 as usize + d2 as usize - 2 * depth;
        if self.options.max_distance.is_some_and(|d| distance > d) {
            return Some(token);
        }
        let path = self.db.sigma(node);
        if self.options.filter.accepts(path)
            && self.best.admits(rank_key(distance, token.count, node))
        {
            let witnesses = self
                .list(&token)
                .take(self.options.cap())
                .map(|i| MeetWitness {
                    origin: self.items[i].0,
                    input: self.items[i].1 as usize,
                    climb: self.depths[i] as usize - depth,
                })
                .collect();
            self.best.keep(Meet {
                node,
                path,
                distance,
                witness_count: token.count,
                witnesses,
            });
        }
        None
    }

    /// A token's item indices, in document order.
    fn list<'s>(&'s self, token: &Token) -> impl Iterator<Item = usize> + 's {
        let mut at = token.head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let i = at as usize;
                at = self.next[i];
                i
            })
        })
    }
}

#[cfg(test)]
thread_local! {
    /// LCA probes issued by this thread's passes.
    static LCA_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn lca(index: &MeetIndex, a: Oid, b: Oid) -> Oid {
    #[cfg(test)]
    LCA_PROBES.with(|n| n.set(n.get() + 1));
    index.lca(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    /// A chain, a star, a comb and a bushy tree; every node is a hit,
    /// the second group repeats every third.
    fn corpora() -> Vec<(MonetDb, Vec<(Oid, u32)>)> {
        let chain = format!("<r>{}{}</r>", "<e>".repeat(60), "</e>".repeat(60));
        let star = format!("<r>{}</r>", "<p/>".repeat(500));
        let comb = format!("<r>{}{}</r>", "<s><l/>".repeat(60), "</s>".repeat(60));
        let bushy = format!(
            "<r>{}</r>",
            "<a><b><c/><c/></b><b/></a><d><c/></d>".repeat(40)
        );
        [chain, star, comb, bushy]
            .iter()
            .map(|xml| {
                let db = MonetDb::from_document(&parse(xml).unwrap());
                let every = |step| {
                    HitSet::from_pairs(db.iter_oids().step_by(step).map(|o| (db.sigma(o), o)))
                };
                let inputs = [every(1), every(3)];
                let items = merged_hits(&inputs);
                (db, items)
            })
            .collect()
    }

    fn options(max_distance: Option<usize>) -> MeetOptions {
        MeetOptions {
            max_distance,
            ..MeetOptions::default()
        }
    }

    /// The O(hits) claim, checked by counting instead of timing.
    #[test]
    fn at_most_one_lca_probe_per_item() {
        for (db, items) in corpora() {
            for max_distance in [None, Some(0), Some(2)] {
                LCA_PROBES.with(|n| n.set(0));
                sweep(&db, &items, &options(max_distance), |_| false);
                let probes = LCA_PROBES.with(std::cell::Cell::get);
                assert!(
                    probes < items.len(),
                    "{probes} probes, {} items",
                    items.len()
                );
            }
        }
    }

    /// Every item is a witness of exactly one meet or a survivor, and
    /// the survivors come back in document order.
    #[test]
    fn items_are_consumed_or_survive() {
        for (db, items) in corpora() {
            for max_distance in [None, Some(0), Some(2)] {
                let swept = sweep(&db, &items, &options(max_distance), |_| false);
                let consumed: usize = swept.meets.iter().map(|m| m.witness_count).sum();
                assert_eq!(consumed + swept.survivors.len(), items.len());
                assert!(swept.survivors.windows(2).all(|w| w[0] <= w[1]));
                assert!(max_distance.is_some() || swept.survivors.len() <= 1);
            }
        }
    }

    /// What the sharded engine builds on: defer any ancestor-closed set
    /// of nodes, sweep the survivors again with nothing deferred, and
    /// the two passes together find the meets of one ungated pass.
    #[test]
    fn deferred_nodes_resolve_in_a_second_pass_over_the_survivors() {
        for (db, items) in corpora() {
            let index = db.meet_index();
            for max_distance in [None, Some(2)] {
                let options = options(max_distance);
                let mut whole = sweep(&db, &items, &options, |_| false).meets;
                let first = sweep(&db, &items, &options, |o| index.depth(o) < 2);
                assert!(first.meets.iter().all(|m| index.depth(m.node) >= 2));
                let second = sweep(&db, &first.survivors, &options, |_| false);
                let mut both = first.meets;
                both.extend(second.meets);
                crate::rank::rank_meets(&mut whole);
                crate::rank::rank_meets(&mut both);
                assert_eq!(both, whole);
            }
        }
    }
}
