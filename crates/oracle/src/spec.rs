//! The meet as a property of the tree and the hits alone — no roll-up,
//! no stack, no order of evaluation.
//!
//! **Hits.** A hit is a node and the term (hit group) it answers. They
//! form a multiset: a node hit by two terms carries two hits (the
//! paper's "Bob Byte" case), and so does an element owning two matching
//! attributes. A hit *lies beneath* `v` when its node is `v` or a
//! descendant of `v`; its *climb* to `v` is the depth difference.
//!
//! **Branches.** The branches of `v` are its child subtrees, and each
//! hit on `v` itself on its own. Two hits lie in different branches
//! exactly when the shortest path between them passes through `v`.
//!
//! **Meets.** A hit beneath `v` is *free at `v`* when no meet strictly
//! below `v` lies on its way up, i.e. no meet `u` with `u` a proper
//! descendant of `v` and an ancestor-or-self of the hit's node. Then
//! `v` is a **meet** when
//!
//! 1. its free hits lie in at least two branches, and
//! 2. under `meet^δ`, the closest two of them in different branches lie
//!    within δ edges of each other: the sum of their climbs is ≤ δ.
//!
//! The definition is well founded: whether `v` is a meet depends only on
//! the meets strictly below it. A meet *takes* its free hits; they are
//! its witnesses, and its distance is the closest cross-branch pair of
//! condition 2. Under `meet_Π` a meet whose result type the filter
//! rejects answers nothing, but it takes its hits all the same ("we
//! discard o"). The answers are the meets the filter accepts.
//!
//! Two consequences the suites pin, because they are Fig. 5's behaviour
//! and not obviously what §4 asks for:
//!
//! * hits of one term meet each other: the hits are a multiset of
//!   nodes, and the terms only label the witnesses;
//! * a node that fails δ is not a meet, so its hits stay free and may
//!   make an ancestor a meet that the unbounded meet does not have. δ is
//!   not a filter over the unbounded answers.

use ncq_store::{MonetDb, Oid};
use ncq_xml::Document;

/// One hit: the node that owns it and the index of its term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hit {
    /// Preorder number of the owning node.
    pub node: usize,
    /// Index of the hit group.
    pub term: usize,
}

/// One answer of the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Preorder number of the meet.
    pub node: usize,
    /// Climbs of the closest two witnesses in different branches.
    pub distance: usize,
    /// Every hit the meet takes, in document order (node, then term).
    pub witnesses: Vec<Hit>,
}

/// A rooted ordered tree, nodes numbered in preorder.
#[derive(Debug, Clone)]
pub struct Tree {
    parent: Vec<usize>,
    depth: Vec<usize>,
    /// One past the last node of each subtree.
    end: Vec<usize>,
}

impl Tree {
    /// From a parent array in preorder: node 0 is the root (its entry
    /// is ignored) and every other node's parent precedes it.
    pub fn from_parents(parents: &[usize]) -> Tree {
        let n = parents.len();
        let mut depth = vec![0; n];
        for v in 1..n {
            assert!(parents[v] < v, "not a preorder parent array");
            depth[v] = depth[parents[v]] + 1;
        }
        let mut end: Vec<usize> = (1..=n).collect();
        for v in (1..n).rev() {
            end[parents[v]] = end[parents[v]].max(end[v]);
        }
        Tree {
            parent: parents.to_vec(),
            depth,
            end,
        }
    }

    /// The tree of a store's oids (preorder numbers).
    pub fn of(store: &MonetDb) -> Tree {
        let parents: Vec<usize> = store
            .iter_oids()
            .map(|o| store.parent(o).map_or(0, Oid::index))
            .collect();
        Tree::from_parents(&parents)
    }

    /// The same tree as a document of `<n>` elements, whose preorder
    /// numbers are the store's oids.
    pub fn document(&self) -> Document {
        let mut doc = Document::new("n");
        let mut ids = vec![doc.root()];
        for v in 1..self.len() {
            ids.push(doc.add_element(ids[self.parent[v]], "n"));
        }
        doc
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never: a tree has a root).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Edges from the root to `v`.
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// Whether `x` lies in the subtree of `v`.
    fn beneath(&self, x: usize, v: usize) -> bool {
        v <= x && x < self.end[v]
    }

    /// The branch of `v` that hit `i` (owned by `x`) lies in: the child
    /// of `v` above `x`, or the hit itself when it is on `v`.
    fn branch(&self, v: usize, x: usize, i: usize) -> Branch {
        if x == v {
            return Branch::Own(i);
        }
        let mut child = x;
        while self.parent[child] != v {
            child = self.parent[child];
        }
        Branch::Child(child)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Branch {
    Own(usize),
    Child(usize),
}

/// The meets of `hits` on `tree` under `max_distance` (δ), of which
/// those on a node `accepts` (Π) answer, in document order. See the
/// module docs for the definition.
pub fn meet(
    tree: &Tree,
    hits: &[Hit],
    max_distance: Option<usize>,
    accepts: impl Fn(usize) -> bool,
) -> Vec<Answer> {
    let mut taken = vec![false; hits.len()];
    let mut answers = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut nearest: Vec<(Branch, usize)> = Vec::new();
    // Reverse preorder visits every node after all of its descendants,
    // so the meets strictly below `v` are known when `v` is judged.
    for v in (0..tree.len()).rev() {
        free.clear();
        free.extend((0..hits.len()).filter(|&i| !taken[i] && tree.beneath(hits[i].node, v)));
        // The smallest climb in each branch; the closest cross-branch
        // pair is the two smallest of those.
        nearest.clear();
        for &i in &free {
            let x = hits[i].node;
            let climb = tree.depth(x) - tree.depth(v);
            let branch = tree.branch(v, x, i);
            match nearest.iter_mut().find(|(b, _)| *b == branch) {
                Some((_, c)) => *c = (*c).min(climb),
                None => nearest.push((branch, climb)),
            }
        }
        let mut closest = [usize::MAX; 2];
        for &(_, c) in &nearest {
            if c < closest[0] {
                closest = [c, closest[0]];
            } else {
                closest[1] = closest[1].min(c);
            }
        }
        let [first, second] = closest;
        if second == usize::MAX {
            continue; // fewer than two branches
        }
        let distance = first + second;
        if max_distance.is_some_and(|d| distance > d) {
            continue;
        }
        for &i in &free {
            taken[i] = true;
        }
        if accepts(v) {
            let mut witnesses: Vec<Hit> = free.iter().map(|&i| hits[i]).collect();
            witnesses.sort_unstable();
            answers.push(Answer {
                node: v,
                distance,
                witnesses,
            });
        }
    }
    answers.reverse();
    answers
}

/// `hits` drawn as a tree: each node is its preorder number, followed by
/// the letters of the terms that hit it (`a` for term 0) in brackets and
/// its children in parentheses — `0[b](1[a](2[a]))` is a three-node
/// chain with term 1 on the root and term 0 on the two nodes below.
pub fn render(tree: &Tree, hits: &[Hit]) -> String {
    fn node(tree: &Tree, hits: &[Hit], v: usize, out: &mut String) {
        out.push_str(&v.to_string());
        let mut terms: Vec<usize> = hits
            .iter()
            .filter(|h| h.node == v)
            .map(|h| h.term)
            .collect();
        if !terms.is_empty() {
            terms.sort_unstable();
            out.push('[');
            out.extend(terms.iter().map(|&t| char::from(b'a' + t as u8)));
            out.push(']');
        }
        let children: Vec<usize> = (v + 1..tree.len())
            .filter(|&c| tree.parent[c] == v)
            .collect();
        if !children.is_empty() {
            out.push('(');
            for (k, &c) in children.iter().enumerate() {
                if k > 0 {
                    out.push(' ');
                }
                node(tree, hits, c, out);
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    node(tree, hits, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(node: usize, term: usize) -> Hit {
        Hit { node, term }
    }

    fn answers(
        parents: &[usize],
        hits: &[Hit],
        max_distance: Option<usize>,
    ) -> Vec<(usize, usize)> {
        let tree = Tree::from_parents(parents);
        meet(&tree, hits, max_distance, |_| true)
            .iter()
            .map(|a| (a.node, a.distance))
            .collect()
    }

    /// Figure 1's article, cut down: `0 article (1 author (2 first, 3
    /// last), 4 year)`.
    const ARTICLE: [usize; 5] = [0, 0, 1, 1, 0];

    #[test]
    fn section_3_1_by_the_definition() {
        // Ben + Bit → author, distance 2; Bit + 1999 → article, 3.
        assert_eq!(answers(&ARTICLE, &[hit(2, 0), hit(3, 1)], None), [(1, 2)]);
        assert_eq!(answers(&ARTICLE, &[hit(3, 0), hit(4, 1)], None), [(0, 3)]);
        // Bob Byte: two hits on one node meet there.
        assert_eq!(answers(&ARTICLE, &[hit(2, 0), hit(2, 1)], None), [(2, 0)]);
    }

    #[test]
    fn a_meet_takes_its_hits() {
        // Ben + Bit meet at the author; the year is left alone.
        let all = [hit(2, 0), hit(3, 1), hit(4, 1)];
        assert_eq!(answers(&ARTICLE, &all, None), [(1, 2)]);
        // With the author rejected by Π its hits are taken all the same.
        let tree = Tree::from_parents(&ARTICLE);
        assert!(meet(&tree, &all, None, |v| v != 1).is_empty());
    }

    #[test]
    fn delta_rejects_and_the_hits_climb() {
        // 0(1(2(3) 4(5))): the hits on 3 and 5 meet at 1, distance 4.
        let parents = [0, 0, 1, 2, 1, 4];
        let hits = [hit(0, 0), hit(3, 0), hit(5, 1)];
        assert_eq!(answers(&parents, &hits, None), [(1, 4)]);
        // Under δ = 3 node 1 is no meet; its hits climb on, and the
        // root's own hit makes the root a meet at 0 + 3.
        assert_eq!(answers(&parents, &hits, Some(3)), [(0, 3)]);
        assert_eq!(answers(&parents, &hits, Some(2)), []);
        // Two hits in one branch never make a meet above it.
        assert_eq!(answers(&[0, 0, 1, 1], &[hit(2, 0), hit(3, 0)], Some(1)), []);
    }

    #[test]
    fn render_draws_the_tree() {
        let tree = Tree::from_parents(&ARTICLE);
        assert_eq!(
            render(&tree, &[hit(2, 1), hit(2, 0), hit(4, 0)]),
            "0(1(2[ab] 3) 4[a])"
        );
        assert_eq!(tree.document().len(), 5);
    }
}
