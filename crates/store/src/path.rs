//! Paths (`σ(o)`, Definition 3) and the path summary.
//!
//! A path is the sequence of labels from the root to a node. Because paths
//! are prefix-closed, the set of all paths of a document — its **path
//! summary** — forms a tree: exactly the "tree-shaped schema" that
//! the generalized meet algorithm (paper Figure 5) rolls up bottom-up.
//!
//! Paths are interned: equal label sequences share one [`PathId`]. Each
//! path node stores its parent and depth, so the prefix order of
//! Definition 5 (`σ(o₁) ≤ σ(o₂)` iff `σ(o₂)` is a prefix of `σ(o₁)`)
//! costs at most `depth(σ(o₁)) − depth(σ(o₂))` pointer hops to decide.

use ncq_xml::{Symbol, SymbolTable};
use std::collections::HashMap;
use std::fmt;

/// One step of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// Descent into an element with this tag.
    Element(Symbol),
    /// Descent into an attribute (`@name`); always a terminal step.
    Attribute(Symbol),
    /// Descent into a character-data node (the paper's `cdata` step);
    /// always a terminal step, with the actual string stored in the
    /// corresponding string relation.
    Cdata,
}

/// Interned identifier of a path within a [`PathSummary`].
///
/// `repr(transparent)`: guaranteed to be exactly a `u32`, so a
/// `(PathId, Oid)` posting has a defined `[u32; 2]` layout the SIMD
/// decode kernel can read.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct PathId(u32);

impl PathId {
    /// Raw dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from a raw index previously obtained via [`PathId::index`].
    #[inline]
    pub fn from_index(index: usize) -> PathId {
        PathId(u32::try_from(index).expect("too many paths"))
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct PathNode {
    parent: Option<PathId>,
    step: PathStep,
    depth: u32,
}

/// The tree of all interned paths of a document.
#[derive(Debug, Clone, Default)]
pub struct PathSummary {
    nodes: Vec<PathNode>,
    children: Vec<Vec<PathId>>,
    intern: HashMap<(Option<PathId>, PathStep), PathId>,
}

impl PathSummary {
    /// Create an empty summary.
    pub fn new() -> PathSummary {
        PathSummary::default()
    }

    /// Intern the single-step root path.
    pub fn intern_root(&mut self, step: PathStep) -> PathId {
        self.intern_step(None, step)
    }

    /// Intern `parent` extended by `step`.
    pub fn intern_child(&mut self, parent: PathId, step: PathStep) -> PathId {
        self.intern_step(Some(parent), step)
    }

    /// `parent` extended by `step`, if it is interned.
    pub(crate) fn child(&self, parent: PathId, step: PathStep) -> Option<PathId> {
        self.lookup(Some(parent), step)
    }

    fn lookup(&self, parent: Option<PathId>, step: PathStep) -> Option<PathId> {
        // The bulk load asks once per node, and most paths have a few
        // children: those are compared one by one, which costs less than
        // hashing the key; a wide schema node goes through the map.
        const SCANNED: usize = 8;
        match parent {
            Some(p) if self.children[p.index()].len() <= SCANNED => self.children[p.index()]
                .iter()
                .copied()
                .find(|c| self.nodes[c.index()].step == step),
            _ => self.intern.get(&(parent, step)).copied(),
        }
    }

    fn intern_step(&mut self, parent: Option<PathId>, step: PathStep) -> PathId {
        if let Some(p) = self.lookup(parent, step) {
            return p;
        }
        let id = PathId(u32::try_from(self.nodes.len()).expect("too many paths"));
        let depth = parent.map_or(0, |p| self.nodes[p.index()].depth + 1);
        self.nodes.push(PathNode {
            parent,
            step,
            depth,
        });
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p.index()].push(id);
        }
        self.intern.insert((parent, step), id);
        id
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no path has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Parent path (`None` for the root path).
    #[inline]
    pub fn parent(&self, p: PathId) -> Option<PathId> {
        self.nodes[p.index()].parent
    }

    /// Last step of the path.
    #[inline]
    pub fn step(&self, p: PathId) -> PathStep {
        self.nodes[p.index()].step
    }

    /// Depth: 0 for the root path.
    #[inline]
    pub fn depth(&self, p: PathId) -> usize {
        self.nodes[p.index()].depth as usize
    }

    /// Child paths (the schema-tree edges used by the roll-up algorithm).
    #[inline]
    pub fn children(&self, p: PathId) -> &[PathId] {
        &self.children[p.index()]
    }

    /// Iterate over all interned paths in interning order (parents first).
    pub fn iter(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.nodes.len()).map(|i| PathId(i as u32))
    }

    /// Definition 5: `le(a, b)` iff `b` is a prefix of `a` (including
    /// `a == b`). "`σ(o₁) ≤ σ(o₂)`" in the paper's notation.
    pub fn le(&self, a: PathId, b: PathId) -> bool {
        let target_depth = self.depth(b);
        let mut cur = a;
        while self.depth(cur) > target_depth {
            cur = self.parent(cur).expect("depth > 0 implies a parent");
        }
        cur == b
    }

    /// Strict version of [`PathSummary::le`].
    pub fn lt(&self, a: PathId, b: PathId) -> bool {
        a != b && self.le(a, b)
    }

    /// Longest common prefix of two paths — the path of the meet of any
    /// two nodes with these paths (paper §3.1, first interpretation).
    pub fn common_prefix(&self, a: PathId, b: PathId) -> PathId {
        let mut x = a;
        let mut y = b;
        while self.depth(x) > self.depth(y) {
            x = self.parent(x).expect("deeper path has parent");
        }
        while self.depth(y) > self.depth(x) {
            y = self.parent(y).expect("deeper path has parent");
        }
        while x != y {
            x = self.parent(x).expect("paths share a root");
            y = self.parent(y).expect("paths share a root");
        }
        x
    }

    /// Render the path in the `a/b/@c` notation used throughout this repo
    /// (the paper's Figure 2 uses the same shape with different separators).
    pub fn display(&self, p: PathId, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        self.display_into(p, symbols, &mut Vec::new(), &mut out);
        out
    }

    /// The byte length of [`PathSummary::display`]'s rendering of `p`.
    pub fn display_len(&self, p: PathId, symbols: &SymbolTable) -> usize {
        let mut len = self.depth(p); // the separators
        let mut cur = Some(p);
        while let Some(c) = cur {
            len += match self.step(c) {
                PathStep::Element(s) => symbols.resolve(s).len(),
                PathStep::Attribute(s) => 1 + symbols.resolve(s).len(),
                PathStep::Cdata => "cdata".len(),
            };
            cur = self.parent(c);
        }
        len
    }

    /// Append [`PathSummary::display`]'s rendering of `p` to `out`,
    /// and return where its last step ([`PathSummary::last_label`])
    /// starts in `out`. `steps` is scratch, so a caller rendering many
    /// paths allocates it once.
    pub fn display_into(
        &self,
        p: PathId,
        symbols: &SymbolTable,
        steps: &mut Vec<PathId>,
        out: &mut String,
    ) -> usize {
        steps.clear();
        let mut cur = Some(p);
        while let Some(c) = cur {
            steps.push(c);
            cur = self.parent(c);
        }
        let mut last = out.len();
        for (i, id) in steps.iter().rev().enumerate() {
            if i > 0 {
                out.push('/');
            }
            last = out.len();
            match self.step(*id) {
                PathStep::Element(s) => out.push_str(symbols.resolve(s)),
                PathStep::Attribute(s) => {
                    out.push('@');
                    out.push_str(symbols.resolve(s));
                }
                PathStep::Cdata => out.push_str("cdata"),
            }
        }
        last
    }

    /// Look up a path by its step names. `"@name"` selects an attribute
    /// step, `"cdata"` the cdata step, anything else an element step.
    /// Requires the exact vocabulary of `symbols` used at interning time.
    pub fn lookup_in(&self, steps: &[&str], symbols: &SymbolTable) -> Option<PathId> {
        let mut cur: Option<PathId> = None;
        for (i, name) in steps.iter().enumerate() {
            let step = if let Some(attr) = name.strip_prefix('@') {
                PathStep::Attribute(symbols.get(attr)?)
            } else if *name == "cdata" {
                PathStep::Cdata
            } else {
                PathStep::Element(symbols.get(name)?)
            };
            let found = if i == 0 {
                *self.intern.get(&(None, step))?
            } else {
                *self.intern.get(&(cur, step))?
            };
            cur = Some(found);
        }
        cur
    }

    /// Label of the last step, e.g. `article`, `@key` or `cdata`.
    pub fn last_label(&self, p: PathId, symbols: &SymbolTable) -> String {
        match self.step(p) {
            PathStep::Element(s) => symbols.resolve(s).to_owned(),
            PathStep::Attribute(s) => format!("@{}", symbols.resolve(s)),
            PathStep::Cdata => "cdata".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PathSummary, SymbolTable, PathId, PathId, PathId, PathId) {
        let mut sym = SymbolTable::new();
        let bib = sym.intern("bib");
        let art = sym.intern("article");
        let year = sym.intern("year");
        let key = sym.intern("key");

        let mut ps = PathSummary::new();
        let p_bib = ps.intern_root(PathStep::Element(bib));
        let p_art = ps.intern_child(p_bib, PathStep::Element(art));
        let p_year = ps.intern_child(p_art, PathStep::Element(year));
        let p_key = ps.intern_child(p_art, PathStep::Attribute(key));
        (ps, sym, p_bib, p_art, p_year, p_key)
    }

    #[test]
    fn interning_is_idempotent() {
        let (mut ps, mut sym, p_bib, p_art, ..) = setup();
        let art = sym.intern("article");
        assert_eq!(ps.intern_child(p_bib, PathStep::Element(art)), p_art);
        assert_eq!(ps.len(), 4);
    }

    #[test]
    fn depths_count_from_zero() {
        let (ps, _, p_bib, p_art, p_year, _) = setup();
        assert_eq!(ps.depth(p_bib), 0);
        assert_eq!(ps.depth(p_art), 1);
        assert_eq!(ps.depth(p_year), 2);
    }

    #[test]
    fn le_matches_definition_5() {
        let (ps, _, p_bib, p_art, p_year, p_key) = setup();
        // σ(year) ≤ σ(article): article-path is a prefix of year-path.
        assert!(ps.le(p_year, p_art));
        assert!(ps.le(p_year, p_bib));
        assert!(ps.le(p_year, p_year)); // inclusive
        assert!(!ps.le(p_art, p_year));
        // Sibling steps are incomparable.
        assert!(!ps.le(p_year, p_key));
        assert!(!ps.le(p_key, p_year));
        // Strict version.
        assert!(ps.lt(p_year, p_art));
        assert!(!ps.lt(p_year, p_year));
    }

    #[test]
    fn common_prefix_is_the_schema_lca() {
        let (ps, _, p_bib, p_art, p_year, p_key) = setup();
        assert_eq!(ps.common_prefix(p_year, p_key), p_art);
        assert_eq!(ps.common_prefix(p_year, p_art), p_art);
        assert_eq!(ps.common_prefix(p_bib, p_year), p_bib);
        assert_eq!(ps.common_prefix(p_year, p_year), p_year);
    }

    #[test]
    fn display_renders_relation_names() {
        let (mut ps, sym, p_bib, p_art, p_year, p_key) = setup();
        assert_eq!(ps.display(p_year, &sym), "bib/article/year");
        assert_eq!(ps.display(p_key, &sym), "bib/article/@key");
        let p_cd = ps.intern_child(p_art, PathStep::Cdata);
        assert_eq!(ps.display(p_cd, &sym), "bib/article/cdata");
        // Appended after what `out` holds, the last step located in it.
        let (mut out, mut steps) = (String::from("x"), Vec::new());
        for p in [p_year, p_key, p_cd, p_art] {
            let at = out.len();
            let last = ps.display_into(p, &sym, &mut steps, &mut out);
            assert_eq!(out[at..], ps.display(p, &sym));
            assert_eq!(out.len() - at, ps.display_len(p, &sym));
            assert_eq!(out[last..], ps.last_label(p, &sym));
            assert!(last > at);
        }
        let last = ps.display_into(p_bib, &sym, &mut steps, &mut out);
        assert_eq!(&out[last..], "bib");
    }

    #[test]
    fn lookup_reverses_display() {
        let (mut ps, sym, _, p_art, p_year, p_key) = setup();
        let p_cd = ps.intern_child(p_art, PathStep::Cdata);
        assert_eq!(
            ps.lookup_in(&["bib", "article", "year"], &sym),
            Some(p_year)
        );
        assert_eq!(ps.lookup_in(&["bib", "article", "@key"], &sym), Some(p_key));
        assert_eq!(ps.lookup_in(&["bib", "article", "cdata"], &sym), Some(p_cd));
        assert_eq!(ps.lookup_in(&["bib", "nothere"], &sym), None);
        assert_eq!(ps.lookup_in(&["article"], &sym), None);
    }

    #[test]
    fn children_form_the_schema_tree() {
        let (ps, _, p_bib, p_art, p_year, p_key) = setup();
        assert_eq!(ps.children(p_bib), &[p_art]);
        assert_eq!(ps.children(p_art), &[p_year, p_key]);
        assert!(ps.children(p_year).is_empty());
    }

    #[test]
    fn last_label_names_steps() {
        let (ps, sym, p_bib, _, p_year, p_key) = setup();
        assert_eq!(ps.last_label(p_bib, &sym), "bib");
        assert_eq!(ps.last_label(p_year, &sym), "year");
        assert_eq!(ps.last_label(p_key, &sym), "@key");
    }
}
