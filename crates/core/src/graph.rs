//! Meets over IDREF-broken tree structures — the paper's future work.
//!
//! > "XML documents may also contain references (IDs and IDREFs) that
//! > potentially break the tree structure … If we interpret the meet
//! > operator as some variant of nearest neighbor search, we might find
//! > generalizations on graph structures that prove useful in certain
//! > application domains. However, the fact that we then have to take
//! > care of circular structures may add significant complexity."
//! > (§3.2, and again in the conclusion as future research)
//!
//! This module implements that generalization. A [`RefGraph`] overlays
//! reference edges (e.g. DBLP's `crossref` → `key`) on the tree; the
//! **graph meet** of two nodes is the midpoint node of a shortest path
//! between them in the undirected union of tree and reference edges,
//! found by bidirectional BFS — cycles are handled by visited sets,
//! exactly the complexity the paper anticipated.
//!
//! On reference-free documents the graph meet degenerates to the tree
//! meet's shortest path: the distance equals [`crate::distance()`], and the
//! midpoint lies on the ancestor path through the LCA.

use ncq_store::{MonetDb, Oid, PathStep};
use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

/// Undirected adjacency in compressed-sparse-row layout: neighbor runs
/// are contiguous slices, so the BFS inner loop does no hashing.
#[derive(Debug, Clone, Default)]
struct Csr {
    /// `offsets[o] .. offsets[o + 1]` indexes `neighbors` for node `o`;
    /// nodes beyond the highest referenced oid have no entries.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl Csr {
    fn build(pairs: &[(u32, u32)]) -> Csr {
        let max_node = pairs
            .iter()
            .map(|&(a, b)| a.max(b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut counts = vec![0u32; max_node + 1];
        for &(a, b) in pairs {
            counts[a as usize + 1] += 1;
            counts[b as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut fill = offsets.clone();
        let mut neighbors = vec![0u32; pairs.len() * 2];
        for &(a, b) in pairs {
            neighbors[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            neighbors[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    fn neighbors_of(&self, o: usize) -> &[u32] {
        if o + 1 >= self.offsets.len() {
            return &[];
        }
        &self.neighbors[self.offsets[o] as usize..self.offsets[o + 1] as usize]
    }
}

/// Reference edges overlaid on the document tree.
///
/// Edges are staged as pairs and compiled into a dense CSR adjacency on
/// first traversal (cached; [`RefGraph::add_edge`] invalidates), so the
/// bidirectional-BFS inner loop reads contiguous slices instead of
/// probing a hash map per node.
#[derive(Debug, Clone, Default)]
pub struct RefGraph {
    /// Directed staging for provenance; traversal is undirected.
    pairs: Vec<(u32, u32)>,
    csr: OnceLock<Csr>,
}

impl RefGraph {
    /// An empty overlay (graph meet == tree shortest path).
    pub fn new() -> RefGraph {
        RefGraph::default()
    }

    /// Add one reference edge.
    pub fn add_edge(&mut self, from: Oid, to: Oid) {
        self.pairs.push((from.index() as u32, to.index() as u32));
        self.csr = OnceLock::new();
    }

    /// Number of reference edges.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the overlay has no edges.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Build from key/reference conventions: every element owning an
    /// attribute named `key_attr` is a target; every element whose child
    /// element named `ref_elem` carries matching text references it.
    /// This is exactly DBLP's `key` / `crossref` convention.
    pub fn from_key_references(db: &MonetDb, key_attr: &str, ref_elem: &str) -> RefGraph {
        let summary = db.summary();
        let symbols = db.symbols();
        // Collect targets: key value → element oid.
        let mut targets: HashMap<&str, Oid> = HashMap::new();
        for path in summary.iter() {
            if let PathStep::Attribute(sym) = summary.step(path) {
                if symbols.resolve(sym) == key_attr {
                    for (owner, value) in db.strings_of(path).iter() {
                        targets.insert(value, owner);
                    }
                }
            }
        }
        // Collect references: cdata under a `ref_elem` element.
        let mut graph = RefGraph::new();
        for path in summary.iter() {
            if !matches!(summary.step(path), PathStep::Cdata) {
                continue;
            }
            let Some(parent_path) = summary.parent(path) else {
                continue;
            };
            let is_ref = matches!(
                summary.step(parent_path),
                PathStep::Element(sym) if symbols.resolve(sym) == ref_elem
            );
            if !is_ref {
                continue;
            }
            for (cdata_oid, value) in db.strings_of(path).iter() {
                if let Some(&target) = targets.get(value) {
                    // Reference edge between the *record* owning the
                    // crossref (the ref element's parent) and the target.
                    let ref_node = db.parent(cdata_oid).expect("cdata has a parent");
                    let source = db.parent(ref_node).unwrap_or(ref_node);
                    graph.add_edge(source, target);
                }
            }
        }
        graph
    }

    fn refs_of(&self, o: Oid) -> &[u32] {
        self.csr
            .get_or_init(|| Csr::build(&self.pairs))
            .neighbors_of(o.index())
    }
}

/// Result of a graph meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMeet {
    /// The midpoint node of a shortest path (the "nearest concept" in
    /// the graph sense).
    pub meet: Oid,
    /// Shortest-path length between the inputs (tree + reference edges).
    pub distance: usize,
    /// Edges from `o1` to the meet.
    pub d1: usize,
    /// Edges from `o2` to the meet.
    pub d2: usize,
}

/// Neighbors of `o` in the undirected union of tree and reference edges.
fn neighbors(db: &MonetDb, graph: &RefGraph, o: Oid, out: &mut Vec<Oid>) {
    out.clear();
    if let Some(p) = db.parent(o) {
        out.push(p);
    }
    let path = db.sigma(o);
    for &child_path in db.summary().children(path) {
        out.extend(db.children_on_path(child_path, o));
    }
    out.extend(
        graph
            .refs_of(o)
            .iter()
            .map(|&r| Oid::from_index(r as usize)),
    );
}

/// The graph meet: midpoint of a shortest path in the tree+reference
/// graph, via bidirectional BFS. Returns `None` only if the graph is
/// disconnected between the nodes — impossible when both belong to one
/// document (the tree connects them), so `None` never occurs for oids of
/// the same `db`.
pub fn graph_meet(db: &MonetDb, graph: &RefGraph, o1: Oid, o2: Oid) -> Option<GraphMeet> {
    if o1 == o2 {
        return Some(GraphMeet {
            meet: o1,
            distance: 0,
            d1: 0,
            d2: 0,
        });
    }
    // Bidirectional BFS. Distance maps stay sparse: the search visits
    // far fewer nodes than the document holds, and a dense per-call
    // array would cost O(n) zero-fill on every query. (The adjacency —
    // the actual inner-loop hot path — is hash-free CSR.)
    let mut dist1: HashMap<Oid, u32> = HashMap::from([(o1, 0)]);
    let mut dist2: HashMap<Oid, u32> = HashMap::from([(o2, 0)]);
    let mut q1: VecDeque<Oid> = VecDeque::from([o1]);
    let mut q2: VecDeque<Oid> = VecDeque::from([o2]);
    let mut best: Option<(usize, Oid)> = None;
    let mut scratch = Vec::new();

    while !q1.is_empty() || !q2.is_empty() {
        // Expand the smaller frontier.
        let expand_first = match (q1.front(), q2.front()) {
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(_), Some(_)) => q1.len() <= q2.len(),
            (None, None) => break,
        };
        let (qa, da, db_) = if expand_first {
            (&mut q1, &mut dist1, &mut dist2)
        } else {
            (&mut q2, &mut dist2, &mut dist1)
        };
        let layer = qa.len();
        for _ in 0..layer {
            let cur = qa.pop_front().expect("layer size checked");
            let d_cur = da[&cur] as usize;
            // Prune: cannot improve on the best meeting point.
            if let Some((b, _)) = best {
                if d_cur + 1 >= b {
                    continue;
                }
            }
            neighbors(db, graph, cur, &mut scratch);
            for &nb in &scratch {
                if da.contains_key(&nb) {
                    continue;
                }
                da.insert(nb, (d_cur + 1) as u32);
                if let Some(&other) = db_.get(&nb) {
                    let total = d_cur + 1 + other as usize;
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, nb));
                    }
                }
                qa.push_back(nb);
            }
        }
        if let Some((b, _)) = best {
            // Both frontiers have advanced past b/2 → cannot improve.
            let min_d1 = q1.front().map(|o| dist1[o] as usize).unwrap_or(usize::MAX);
            let min_d2 = q2.front().map(|o| dist2[o] as usize).unwrap_or(usize::MAX);
            if min_d1.saturating_add(min_d2).saturating_add(2) > b {
                break;
            }
        }
    }

    best.map(|(total, node)| GraphMeet {
        meet: node,
        distance: total,
        d1: dist1[&node] as usize,
        d2: total - dist1[&node] as usize,
    })
}

/// Shortest-path distance in the tree+reference graph.
pub fn graph_distance(db: &MonetDb, graph: &RefGraph, o1: Oid, o2: Oid) -> usize {
    graph_meet(db, graph, o1, o2)
        .expect("nodes of one document are connected")
        .distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance;
    use crate::reference::meet2;
    use ncq_xml::parse;

    fn db_with_refs() -> (MonetDb, RefGraph) {
        // Two records cross-referencing a proceedings entry, DBLP style.
        let doc = parse(
            r#"<dblp>
                 <proceedings key="conf/icde99"><title>ICDE 99</title></proceedings>
                 <inproceedings key="conf/icde99/p1">
                   <title>Paper One</title><crossref>conf/icde99</crossref>
                 </inproceedings>
                 <inproceedings key="conf/icde99/p2">
                   <title>Paper Two</title><crossref>conf/icde99</crossref>
                 </inproceedings>
               </dblp>"#,
        )
        .unwrap();
        let db = MonetDb::from_document(&doc);
        let graph = RefGraph::from_key_references(&db, "key", "crossref");
        (db, graph)
    }

    fn by_text(db: &MonetDb, s: &str) -> Oid {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .find(|&(_, t)| t == s)
            .map(|(o, _)| o)
            .unwrap()
    }

    #[test]
    fn crossrefs_are_discovered() {
        let (_, graph) = db_with_refs();
        assert_eq!(graph.len(), 2);
        assert!(!graph.is_empty());
    }

    #[test]
    fn graph_meet_without_refs_matches_tree_distance() {
        let doc = parse("<r><a><b>x</b></a><c>y</c></r>").unwrap();
        let db = MonetDb::from_document(&doc);
        let empty = RefGraph::new();
        for a in db.iter_oids() {
            for b in db.iter_oids() {
                let gm = graph_meet(&db, &empty, a, b).unwrap();
                assert_eq!(gm.distance, distance(&db, a, b), "{a:?},{b:?}");
                assert_eq!(gm.d1 + gm.d2, gm.distance);
            }
        }
    }

    #[test]
    fn references_create_shortcuts() {
        let (db, graph) = db_with_refs();
        let p1 = by_text(&db, "Paper One");
        let p2 = by_text(&db, "Paper Two");
        // Tree route: title/cdata ↑2 to record, ↑1 root, ↓1, ↓2 = 6.
        let tree_d = distance(&db, p1, p2);
        assert_eq!(tree_d, 6);
        // Graph route via the shared crossref target: cdata ↑2, ref-edge
        // to proceedings, ref-edge back to the other record, ↓2 = 6 too —
        // no shortcut between the papers…
        assert_eq!(graph_distance(&db, &graph, p1, p2), 6);
        // …but the proceedings title is 5 hops from a paper title via the
        // crossref edge (cdata ↑2, ref-edge, ↓2) instead of 6 through the
        // tree root.
        let proc_title = by_text(&db, "ICDE 99");
        assert_eq!(distance(&db, p1, proc_title), 6);
        assert_eq!(graph_distance(&db, &graph, p1, proc_title), 5);
    }

    #[test]
    fn graph_meet_midpoint_is_on_a_shortest_path() {
        let (db, graph) = db_with_refs();
        let p1 = by_text(&db, "Paper One");
        let p2 = by_text(&db, "Paper Two");
        let gm = graph_meet(&db, &graph, p1, p2).unwrap();
        assert_eq!(gm.d1 + gm.d2, gm.distance);
        // The midpoint is balanced to within one edge.
        assert!(gm.d1.abs_diff(gm.d2) <= 1);
    }

    #[test]
    fn cycles_terminate() {
        // a ↔ b reference edge creates a cycle with the tree path.
        let doc =
            parse(r#"<r><a key="ka"><ref>kb</ref></a><b key="kb"><ref>ka</ref></b></r>"#).unwrap();
        let db = MonetDb::from_document(&doc);
        let graph = RefGraph::from_key_references(&db, "key", "ref");
        assert_eq!(graph.len(), 2);
        let a = db.iter_oids().find(|&o| db.label(o) == "a").unwrap();
        let b = db.iter_oids().find(|&o| db.label(o) == "b").unwrap();
        // Direct reference edge beats the tree route through r.
        assert_eq!(graph_distance(&db, &graph, a, b), 1);
        // Self distance is zero even with cycles.
        assert_eq!(graph_distance(&db, &graph, a, a), 0);
    }

    #[test]
    fn identical_nodes_meet_at_themselves() {
        let (db, graph) = db_with_refs();
        let o = by_text(&db, "Paper One");
        let gm = graph_meet(&db, &graph, o, o).unwrap();
        assert_eq!(gm.meet, o);
        assert_eq!(gm.distance, 0);
    }

    #[test]
    fn tree_meet_lies_on_graph_shortest_path_when_no_refs_help() {
        let doc = parse("<r><x><y>p</y></x><z>q</z></r>").unwrap();
        let db = MonetDb::from_document(&doc);
        let graph = RefGraph::new();
        let p = by_text(&db, "p");
        let q = by_text(&db, "q");
        let gm = graph_meet(&db, &graph, p, q).unwrap();
        let tm = meet2(&db, p, q);
        assert_eq!(gm.distance, tm.distance);
        // The graph midpoint is an ancestor of one of the endpoints on
        // the path through the LCA.
        assert!(db.is_ancestor_or_self(tm.meet, gm.meet) || gm.meet == tm.meet);
    }
}
