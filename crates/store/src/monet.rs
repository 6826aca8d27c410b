//! The Monet transform: bulk loading and the loaded database.
//!
//! [`MonetDb::from_document`] walks the syntax tree depth-first along its
//! child and sibling links (`ncq_xml::Document` is a flat arena; a node's
//! arena index says nothing about its place in the document), assigns
//! dense [`Oid`]s in document order (paper: "the assignment of OIDs is
//! arbitrary, e.g., depth-first traversal order"), interns every node's
//! path `σ(o)`, and scatters the associations into per-path binary
//! relations:
//!
//! * **edge relations** `σ(o) ↦ [(parent, o)]` for element and cdata nodes
//!   — held as per-path postings (the second column, in document order);
//!   the first column is `parent[o]`,
//! * **string relations** for cdata text (`…/cdata`) and attribute values
//!   (`…/@name`), keyed by the owner's association path — four columns
//!   shared by every relation (see [`crate::strings`]), read through the
//!   borrowed [`StringRel`] view.
//!
//! **Oid = preorder position.** That is the one contract between the
//! store and the tree it was loaded from: the i-th node of
//! `Document::iter_depth_first` is oid i, and nothing else about the
//! source tree is kept. Definition 4 stores sibling order in separate
//! rank relations because it lets oids be arbitrary; here siblings are
//! numbered in document order, so sibling order *is* oid order and no
//! rank relation exists.
//!
//! On top of the relations, two dense arrays provide the primitives the
//! meet algorithms need in O(1): `sigma: oid → PathId` and
//! `parent: oid → Oid` (the paper's "basically a hash look-up").

use crate::index::MeetIndex;
use crate::mmap::Col;
use crate::oid::Oid;
use crate::path::{PathId, PathStep, PathSummary};
use crate::stats::{DepthStats, StoreStats};
use crate::strings::{StringColumns, StringRel};
use ncq_xml::{Document, NodeKind, SymbolTable};
use std::sync::OnceLock;

/// A loaded, path-partitioned XML database instance.
///
/// The dense per-oid columns, the per-path postings and the string
/// columns are [`Col`]s: owned after a bulk load, zero-copy views into
/// the mapped file after a snapshot open. An edge relation is a *view*:
/// `(parent[o], o)` over the postings of its path.
#[derive(Debug, Clone)]
pub struct MonetDb {
    /// Field visibility is `pub(crate)` so the snapshot codec
    /// (`crate::snapshot`) can persist and reconstruct the columns
    /// without an intermediate copy.
    pub(crate) symbols: SymbolTable,
    pub(crate) summary: PathSummary,
    /// `σ(o)` per oid.
    pub(crate) sigma: Col<PathId>,
    /// Parent oid per oid; the root maps to itself.
    pub(crate) parent: Col<Oid>,
    /// Per-path posting offsets (CSR): the oids with `σ(o) = p` are
    /// `path_data[path_off[p] .. path_off[p + 1]]`, in document order.
    /// Attribute paths own no objects.
    pub(crate) path_off: Col<u32>,
    /// Concatenated per-path postings, `n` oids total.
    pub(crate) path_data: Col<Oid>,
    /// String relations indexed by `PathId`: pairs `(owner, string)`.
    /// Non-empty only for cdata paths (owner = the cdata node) and
    /// attribute paths (owner = the element carrying the attribute).
    pub(crate) strings: StringColumns,
    /// Lazily built structural meet index (preorder LCA); the database
    /// is immutable after loading, so the cache never invalidates.
    pub(crate) meet_index: OnceLock<MeetIndex>,
}

impl MonetDb {
    /// Bulk-load a parsed document (paper §2, Definition 4).
    pub fn from_document(doc: &Document) -> MonetDb {
        let n = doc.len();
        let mut summary = PathSummary::new();
        let mut sigma: Vec<PathId> = Vec::with_capacity(n);
        let mut parent: Vec<Oid> = Vec::with_capacity(n);
        // The oid of every node met so far, by arena index: a node is
        // met after its parent, whose oid and path its own are made
        // from. Arena order is pre-order only for a parsed document, so
        // all three walks follow the links.
        let mut oid_of = vec![Oid::ROOT; n];
        for node in doc.iter_depth_first() {
            let oid = Oid::from_index(sigma.len());
            oid_of[node.index()] = oid;
            // Symbols are cloned from the document below, so its symbol
            // ids are valid in our table too.
            let step = match doc.kind(node) {
                NodeKind::Element(sym) => PathStep::Element(sym),
                NodeKind::Text(_) => PathStep::Cdata,
            };
            // The root is its own parent and has no parent path.
            let (parent_oid, path) = match doc.parent(node) {
                None => (Oid::ROOT, summary.intern_root(step)),
                Some(p) => {
                    let p = oid_of[p.index()];
                    (p, summary.intern_child(sigma[p.index()], step))
                }
            };
            sigma.push(path);
            parent.push(parent_oid);
            // Attribute paths are interned here, right after their
            // element's, so path ids keep their document order; the walks
            // below only look them up.
            for attr in doc.attributes(node) {
                summary.intern_child(path, PathStep::Attribute(attr.name));
            }
        }
        // The scratch goes back before the string columns and the
        // postings are sized, so they take its place instead of adding
        // to the peak.
        drop(oid_of);
        let strings = StringColumns::from_document_order(summary.len(), |emit| {
            for (i, node) in doc.iter_depth_first().enumerate() {
                let oid = Oid::from_index(i);
                if let NodeKind::Text(s) = doc.kind(node) {
                    emit(sigma[i], oid, s);
                }
                for attr in doc.attributes(node) {
                    let apath = summary.intern_child(sigma[i], PathStep::Attribute(attr.name));
                    emit(apath, oid, attr.value);
                }
            }
        });
        // Per-path postings in CSR layout — one offsets array plus the
        // concatenated document-order data, the shape the snapshot maps
        // back without assembly — by counting sort over `σ`.
        let mut path_off = vec![0u32; summary.len() + 1];
        for &p in &sigma {
            path_off[p.index() + 1] += 1;
        }
        for p in 1..path_off.len() {
            path_off[p] += path_off[p - 1];
        }
        let mut next = path_off.clone();
        let mut path_data = vec![Oid::ROOT; n];
        for (i, &p) in sigma.iter().enumerate() {
            path_data[next[p.index()] as usize] = Oid::from_index(i);
            next[p.index()] += 1;
        }
        MonetDb {
            symbols: doc.symbols().clone(),
            summary,
            sigma: sigma.into(),
            parent: parent.into(),
            path_off: path_off.into(),
            path_data: path_data.into(),
            strings,
            meet_index: OnceLock::new(),
        }
    }

    // ----- primitives used by the meet operators -----

    /// `σ(o)`: the association type / relation of `o` (Definition 3).
    #[inline]
    pub fn sigma(&self, o: Oid) -> PathId {
        self.sigma[o.index()]
    }

    /// The parent association head: `None` for the root.
    #[inline]
    pub fn parent(&self, o: Oid) -> Option<Oid> {
        if o == Oid::ROOT {
            None
        } else {
            Some(self.parent[o.index()])
        }
    }

    /// Depth of `o` (= depth of `σ(o)`; 0 for the root).
    #[inline]
    pub fn depth(&self, o: Oid) -> usize {
        self.summary.depth(self.sigma(o))
    }

    /// The root object.
    #[inline]
    pub fn root(&self) -> Oid {
        Oid::ROOT
    }

    /// Total number of objects (element + cdata nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.sigma.len()
    }

    /// Iterate over all oids in document order.
    pub fn iter_oids(&self) -> impl Iterator<Item = Oid> {
        (0..self.sigma.len()).map(Oid::from_index)
    }

    /// Iterate `o, parent(o), …, root`.
    pub fn ancestors(&self, o: Oid) -> impl Iterator<Item = Oid> + '_ {
        let mut cur = Some(o);
        std::iter::from_fn(move || {
            let c = cur?;
            cur = self.parent(c);
            Some(c)
        })
    }

    /// Whether `anc` is an ancestor of `o` (inclusive).
    pub fn is_ancestor_or_self(&self, anc: Oid, o: Oid) -> bool {
        self.ancestors(o).any(|a| a == anc)
    }

    /// The structural meet index: O(1) `lca` / `distance` /
    /// `is_ancestor_or_self` after a one-off O(n log n) build. Built
    /// lazily on first use and cached for the lifetime of the database
    /// (which is immutable after bulk load).
    pub fn meet_index(&self) -> &MeetIndex {
        self.meet_index.get_or_init(|| MeetIndex::build(self))
    }

    /// Node-depth distribution of the instance (read by the roll-up's
    /// cost model in `ncq_core::reference`). Objects of one path share a
    /// depth, so the histogram is folded from the per-path posting
    /// counts: O(paths), nothing per node.
    pub fn depth_stats(&self) -> DepthStats {
        let mut histogram = Vec::new();
        for p in self.summary.iter() {
            let depth = self.summary.depth(p);
            if histogram.len() <= depth {
                histogram.resize(depth + 1, 0);
            }
            histogram[depth] += self.oids_of_path(p).len();
        }
        DepthStats::from_histogram(&histogram)
    }

    // ----- schema access -----

    /// The path summary (tree-shaped schema).
    #[inline]
    pub fn summary(&self) -> &PathSummary {
        &self.summary
    }

    /// The symbol table shared with the source document.
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Human-readable relation name of a path, e.g.
    /// `bibliography/institute/article/author/cdata`.
    pub fn relation_name(&self, p: PathId) -> String {
        self.summary.display(p, &self.symbols)
    }

    /// Label of `o` for display in answers: the element tag, `cdata`, or
    /// `@attr`.
    pub fn label(&self, o: Oid) -> String {
        self.summary.last_label(self.sigma(o), &self.symbols)
    }

    /// Tag name of `o` when it is an element node.
    pub fn tag(&self, o: Oid) -> Option<&str> {
        match self.summary.step(self.sigma(o)) {
            PathStep::Element(s) => Some(self.symbols.resolve(s)),
            _ => None,
        }
    }

    // ----- relation access -----

    /// All oids whose `σ` equals `p`, in document order (empty for
    /// attribute paths, which own no objects, and for unknown paths).
    #[inline]
    pub fn oids_of_path(&self, p: PathId) -> &[Oid] {
        let i = p.index();
        if i + 1 >= self.path_off.len() {
            return &[];
        }
        &self.path_data[self.path_off[i] as usize..self.path_off[i + 1] as usize]
    }

    /// The second column of the edge relation of `p`: its postings
    /// without the root, which is no one's child.
    fn edge_children(&self, p: PathId) -> &[Oid] {
        match self.oids_of_path(p) {
            [Oid::ROOT, rest @ ..] => rest,
            oids => oids,
        }
    }

    /// Edge relation of a path: all `(parent, o)` with `σ(o)` = `p`,
    /// in document order of `o`.
    pub fn edges_of(&self, p: PathId) -> impl ExactSizeIterator<Item = (Oid, Oid)> + '_ {
        self.edge_children(p)
            .iter()
            .map(|&o| (self.parent[o.index()], o))
    }

    /// The children of `parent` on path `p`, in document order. Objects
    /// of one path share a depth, so their parents are non-decreasing in
    /// document order and the run is a contiguous subslice of the
    /// postings, found by binary search on `parent[o]`.
    pub fn children_on_path(&self, p: PathId, parent: Oid) -> &[Oid] {
        let oids = self.edge_children(p);
        let lo = oids.partition_point(|o| self.parent[o.index()] < parent);
        let hi = lo + oids[lo..].partition_point(|o| self.parent[o.index()] == parent);
        &oids[lo..hi]
    }

    /// String relation of a path: `(owner, string)` pairs in document
    /// order of the owner.
    pub fn strings_of(&self, p: PathId) -> StringRel<'_> {
        self.strings.relation(p)
    }

    /// The string owned by `owner` in relation `p`, if any. String
    /// relations are loaded in document order of the owner, so this is a
    /// binary search.
    pub fn string_value(&self, p: PathId, owner: Oid) -> Option<&str> {
        self.strings_of(p).value_of(owner)
    }

    /// All paths that own a non-empty string relation (cdata and attribute
    /// paths) — the domain of full-text search.
    pub fn string_paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.summary
            .iter()
            .filter(|p| !self.strings_of(*p).is_empty())
    }

    /// Render the syntax tree in the style of the paper's **Figure 1**:
    /// one node per line, indented by depth, with labels, oids, attribute
    /// associations and strings.
    pub fn dump_tree(&self) -> String {
        let mut out = String::new();
        // Depth-first over oids; oids are document order, so a stack of
        // (oid, depth) walked via children keeps the figure's layout.
        let mut stack = vec![Oid::ROOT];
        while let Some(o) = stack.pop() {
            let depth = self.depth(o);
            for _ in 0..depth {
                out.push_str("  ");
            }
            match self.summary.step(self.sigma(o)) {
                PathStep::Cdata => {
                    let text = self.string_value(self.sigma(o), o).unwrap_or_default();
                    out.push_str(&format!("cdata, {o} \"{text}\"\n"));
                }
                _ => {
                    out.push_str(&format!("{}, {o}", self.label(o)));
                    for p in self.summary.children(self.sigma(o)) {
                        if let PathStep::Attribute(sym) = self.summary.step(*p) {
                            if let Some(v) = self.string_value(*p, o) {
                                out.push_str(&format!(
                                    " [{}=\"{}\"]",
                                    self.symbols.resolve(sym),
                                    v
                                ));
                            }
                        }
                    }
                    out.push('\n');
                }
            }
            // Children in reverse document order so the stack pops the
            // first child next.
            let mut children: Vec<Oid> = self
                .summary
                .children(self.sigma(o))
                .iter()
                .flat_map(|p| self.children_on_path(*p, o))
                .copied()
                .collect();
            children.sort_unstable();
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Render the Monet transform in the style of the paper's **Figure 2**:
    /// one line per non-empty relation, `name ↦ {associations}`.
    pub fn dump_relations(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for p in self.summary.iter() {
            let name = self.relation_name(p);
            let edges = self.edges_of(p);
            if edges.len() > 0 {
                let pairs: Vec<String> = edges.map(|(a, b)| format!("({a},{b})")).collect();
                lines.push(format!("{name} -> {{{}}}", pairs.join(", ")));
            }
            let strings = self.strings_of(p);
            if !strings.is_empty() {
                let pairs: Vec<String> = strings
                    .iter()
                    .map(|(o, s)| format!("({o},\"{s}\")"))
                    .collect();
                lines.push(format!("{name}/string -> {{{}}}", pairs.join(", ")));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Summary statistics (relation counts, association counts…).
    pub fn stats(&self) -> StoreStats {
        let (_, owners, _, text) = self.strings.columns();
        let mut s = StoreStats {
            objects: self.node_count(),
            paths: self.summary.len(),
            string_associations: owners.len(),
            string_bytes: text.len(),
            ..StoreStats::default()
        };
        for p in self.summary.iter() {
            let e = self.edges_of(p).len();
            if e > 0 {
                s.edge_relations += 1;
                s.edge_associations += e;
            }
            if !self.strings_of(p).is_empty() {
                s.string_relations += 1;
            }
            s.max_depth = s.max_depth.max(self.summary.depth(p));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_xml::parse;

    /// The paper's Figure 1 document, verbatim.
    pub(crate) const FIGURE1: &str = r#"
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

    fn figure1_db() -> MonetDb {
        MonetDb::from_document(&parse(FIGURE1).unwrap())
    }

    #[test]
    fn oids_are_depth_first_document_order() {
        let db = figure1_db();
        // Root gets o0, first child o1, etc. Parents precede children.
        assert_eq!(db.label(Oid::ROOT), "bibliography");
        assert_eq!(db.label(Oid::from_index(1)), "institute");
        assert_eq!(db.label(Oid::from_index(2)), "article");
        for o in db.iter_oids().skip(1) {
            assert!(db.parent(o).unwrap() < o);
        }
    }

    #[test]
    fn sigma_matches_figure2_relation_names() {
        let db = figure1_db();
        let names: Vec<String> = db.summary().iter().map(|p| db.relation_name(p)).collect();
        // Every relation of the paper's Figure 2 must exist.
        for expected in [
            "bibliography",
            "bibliography/institute",
            "bibliography/institute/article",
            "bibliography/institute/article/@key",
            "bibliography/institute/article/author",
            "bibliography/institute/article/author/cdata",
            "bibliography/institute/article/author/firstname",
            "bibliography/institute/article/author/firstname/cdata",
            "bibliography/institute/article/author/lastname",
            "bibliography/institute/article/author/lastname/cdata",
            "bibliography/institute/article/title",
            "bibliography/institute/article/title/cdata",
            "bibliography/institute/article/year",
            "bibliography/institute/article/year/cdata",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn key_attributes_are_stored_with_element_owner() {
        let db = figure1_db();
        let p = db
            .summary()
            .lookup_in(
                &["bibliography", "institute", "article", "@key"],
                db.symbols(),
            )
            .unwrap();
        let rel = db.strings_of(p);
        assert_eq!(rel.len(), 2);
        let ((first, bb99), (second, bk99)) = (rel.get(0).unwrap(), rel.get(1).unwrap());
        assert_eq!((bb99, bk99), ("BB99", "BK99"));
        assert_eq!(rel.get(2), None);
        // Owners are the two article elements.
        assert_eq!(db.tag(first), Some("article"));
        assert_eq!(db.tag(second), Some("article"));
        assert_ne!(first, second);
    }

    #[test]
    fn year_strings_live_in_one_relation() {
        let db = figure1_db();
        let p = db
            .summary()
            .lookup_in(
                &["bibliography", "institute", "article", "year", "cdata"],
                db.symbols(),
            )
            .unwrap();
        let years: Vec<&str> = db.strings_of(p).iter().map(|(_, s)| s).collect();
        assert_eq!(years, vec!["1999", "1999"]);
    }

    #[test]
    fn edge_relations_hold_parent_child_pairs() {
        let db = figure1_db();
        let p_art = db
            .summary()
            .lookup_in(&["bibliography", "institute", "article"], db.symbols())
            .unwrap();
        let edges: Vec<(Oid, Oid)> = db.edges_of(p_art).collect();
        assert_eq!(edges.len(), 2);
        // Both articles share the institute parent.
        assert_eq!(edges[0].0, edges[1].0);
        assert_eq!(db.label(edges[0].0), "institute");
    }

    #[test]
    fn parent_walks_reach_root() {
        let db = figure1_db();
        for o in db.iter_oids() {
            let last = db.ancestors(o).last().unwrap();
            assert_eq!(last, Oid::ROOT);
        }
        assert_eq!(db.parent(Oid::ROOT), None);
    }

    #[test]
    fn depth_equals_path_depth_equals_ancestor_count() {
        let db = figure1_db();
        for o in db.iter_oids() {
            assert_eq!(db.depth(o), db.ancestors(o).count() - 1);
        }
    }

    #[test]
    fn oids_are_preorder_positions() {
        let doc = parse(FIGURE1).unwrap();
        let db = MonetDb::from_document(&doc);
        assert_eq!(db.node_count(), doc.len());
        for (n, o) in doc.iter_depth_first().zip(db.iter_oids()) {
            assert_eq!(db.tag(o), doc.tag_name(n));
            assert_eq!(db.string_value(db.sigma(o), o), doc.text(n));
        }
    }

    #[test]
    fn figure1_object_count_matches_paper() {
        // Figure 1 numbers the tree o1..o19 plus the root: element nodes
        // and cdata nodes (attribute values are not objects).
        let db = figure1_db();
        // bibliography, institute, 2×(article, author, title, year,
        // title/cdata, year/cdata) = see FIGURE1; count explicitly:
        // article1: article, author, firstname, firstname/cdata, lastname,
        //           lastname/cdata, title, title/cdata, year, year/cdata = 10
        // article2: article, author, author/cdata, title, title/cdata,
        //           year, year/cdata = 7
        assert_eq!(db.node_count(), 2 + 10 + 7);
    }

    #[test]
    fn string_paths_cover_cdata_and_attributes() {
        let db = figure1_db();
        let mut names: Vec<String> = db.string_paths().map(|p| db.relation_name(p)).collect();
        names.sort();
        assert!(names.iter().any(|n| n.ends_with("@key")));
        assert!(names
            .iter()
            .all(|n| n.ends_with("cdata") || n.ends_with("@key")));
    }

    #[test]
    fn is_ancestor_or_self_works() {
        let db = figure1_db();
        let any_leaf = db.iter_oids().find(|&o| db.label(o) == "cdata").unwrap();
        assert!(db.is_ancestor_or_self(Oid::ROOT, any_leaf));
        assert!(db.is_ancestor_or_self(any_leaf, any_leaf));
        assert!(!db.is_ancestor_or_self(any_leaf, Oid::ROOT));
    }

    #[test]
    fn stats_are_consistent() {
        let db = figure1_db();
        let s = db.stats();
        assert_eq!(s.objects, db.node_count());
        assert_eq!(s.paths, db.summary().len());
        // Every non-root object contributes exactly one edge association.
        assert_eq!(s.edge_associations, db.node_count() - 1);
        // 7 cdata strings + 2 key attributes.
        assert_eq!(s.string_associations, 9);
        assert!(s.max_depth >= 5);
    }

    #[test]
    fn dump_tree_reproduces_figure1_layout() {
        let db = figure1_db();
        let tree = db.dump_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "bibliography, o0");
        assert_eq!(lines[1], "  institute, o1");
        assert!(lines[2].starts_with("    article, o2 [key=\"BB99\"]"));
        // Cdata nodes carry their strings.
        assert!(tree.contains("cdata, o5 \"Ben\""));
        assert!(tree.contains("\"Hacking & RSI\""));
        // One line per object.
        assert_eq!(lines.len(), db.node_count());
    }

    #[test]
    fn dump_relations_reproduces_figure2() {
        let db = figure1_db();
        let dump = db.dump_relations();
        // Spot-check the paper's Figure 2 rows (our oid numbering starts
        // at the root = o0).
        assert!(dump.contains("bibliography/institute -> {(o0,o1)}"));
        // The two articles share one relation.
        assert!(dump.contains("bibliography/institute/article -> {(o1,o2), (o1,o12)}"));
        // The key attribute relation with both values.
        assert!(dump.contains(
            "bibliography/institute/article/@key/string -> {(o2,\"BB99\"), (o12,\"BK99\")}"
        ));
        // Both years in one string relation.
        assert!(dump.contains(
            "bibliography/institute/article/year/cdata/string -> {(o11,\"1999\"), (o18,\"1999\")}"
        ));
        // Every non-empty relation appears exactly once.
        let lines: Vec<&str> = dump.lines().collect();
        let mut dedup = lines.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(lines.len(), dedup.len());
    }

    #[test]
    fn depth_stats_match_per_node_depths() {
        let db = figure1_db();
        let s = db.depth_stats();
        assert_eq!(s.nodes, db.node_count());
        let max = db.iter_oids().map(|o| db.depth(o)).max().unwrap();
        let sum: usize = db.iter_oids().map(|o| db.depth(o)).sum();
        assert_eq!(s.max_depth, max);
        assert!((s.mean_depth - sum as f64 / db.node_count() as f64).abs() < 1e-12);
        assert!(s.p90_depth <= s.max_depth);
    }

    #[test]
    fn path_postings_are_document_order_and_complete() {
        let db = figure1_db();
        let mut total = 0;
        for p in db.summary().iter() {
            let oids = db.oids_of_path(p);
            assert!(oids.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(oids.iter().all(|&o| db.sigma(o) == p));
            total += oids.len();
        }
        assert_eq!(total, db.node_count());
    }

    #[test]
    fn single_element_document_loads() {
        let db = MonetDb::from_document(&parse("<only/>").unwrap());
        assert_eq!(db.node_count(), 1);
        assert_eq!(db.label(db.root()), "only");
        assert_eq!(db.oids_of_path(db.sigma(db.root())), [Oid::ROOT]);
    }
}
