//! Arena-based XML syntax tree: the conceptual data model of the paper.
//!
//! A [`Document`] owns a flat arena of [`Node`]s addressed by [`NodeId`].
//! Two node kinds exist:
//!
//! * **Element** nodes carry an interned tag name, an ordered attribute
//!   list, and an ordered child list (the paper's `rank` function is the
//!   child-vector position).
//! * **Text** nodes carry character data. They correspond to the `cdata`
//!   nodes drawn in Figure 1 of the paper — PCDATA and CDATA are not
//!   distinguished, exactly as the paper's "common simplification".
//!
//! The arena layout guarantees that a node created after its parent has a
//! larger `NodeId`; builders in this crate and the parser always create
//! nodes parent-first, so `NodeId` order is a topological (and for the
//! parser: document/depth-first) order. `ncq-store` relies on this when it
//! assigns OIDs.

use crate::symbols::{Symbol, SymbolTable};
use std::fmt;

/// Index of a node inside a [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single attribute `name="value"` on an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Interned attribute name.
    pub name: Symbol,
    /// Attribute value with entities already decoded.
    pub value: String,
}

/// What a node is: an element or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with an interned tag name.
    Element(Symbol),
    /// Character data (the paper's *cdata* node).
    Text(String),
}

/// One node of the syntax tree.
#[derive(Debug, Clone)]
pub struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    attrs: Vec<Attribute>,
}

/// A rooted XML syntax tree with its symbol table.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
    symbols: SymbolTable,
}

impl Document {
    /// Create a document with a single root element named `root_tag`.
    pub fn new(root_tag: &str) -> Document {
        let mut symbols = SymbolTable::new();
        let sym = symbols.intern(root_tag);
        Document {
            nodes: vec![Node {
                kind: NodeKind::Element(sym),
                parent: None,
                children: Vec::new(),
                attrs: Vec::new(),
            }],
            root: NodeId(0),
            symbols,
        }
    }

    /// Make room for `additional` more nodes in one allocation. A hint:
    /// when the allocator refuses (the count comes from the input), the
    /// arena grows as it is pushed to.
    pub(crate) fn reserve_nodes(&mut self, additional: usize) {
        let _ = self.nodes.try_reserve_exact(additional);
    }

    /// The distinguished root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements + text).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The symbol table for tag/attribute names.
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Append a new element child under `parent` and return its id.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let sym = self.symbols.intern(tag);
        self.push_node(parent, NodeKind::Element(sym))
    }

    /// Append a new text (cdata) child under `parent` and return its id.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(parent, NodeKind::Text(text.into()))
    }

    /// Set (or overwrite) an attribute on an element node.
    ///
    /// # Panics
    /// Panics if `node` is a text node.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: impl Into<String>) {
        assert!(
            matches!(self.nodes[node.index()].kind, NodeKind::Element(_)),
            "attributes only exist on element nodes"
        );
        let sym = self.symbols.intern(name);
        let attrs = &mut self.nodes[node.index()].attrs;
        if let Some(a) = attrs.iter_mut().find(|a| a.name == sym) {
            a.value = value.into();
        } else {
            attrs.push(Attribute {
                name: sym,
                value: value.into(),
            });
        }
    }

    fn push_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "dangling parent id");
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document too large"));
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The parent, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The ordered children (the paper's `rank` order).
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// The attributes of an element (empty slice for text nodes).
    #[inline]
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        &self.nodes[id.index()].attrs
    }

    /// Tag name of an element node, `None` for text nodes.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match self.nodes[id.index()].kind {
            NodeKind::Element(sym) => Some(self.symbols.resolve(sym)),
            NodeKind::Text(_) => None,
        }
    }

    /// Interned tag symbol of an element node, `None` for text nodes.
    pub fn tag_symbol(&self, id: NodeId) -> Option<Symbol> {
        match self.nodes[id.index()].kind {
            NodeKind::Element(sym) => Some(sym),
            NodeKind::Text(_) => None,
        }
    }

    /// Character data of a text node, `None` for elements.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Text(s) => Some(s),
            NodeKind::Element(_) => None,
        }
    }

    /// Attribute value by name on an element node.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.symbols.get(name)?;
        self.nodes[id.index()]
            .attrs
            .iter()
            .find(|a| a.name == sym)
            .map(|a| a.value.as_str())
    }

    /// Depth of a node: 0 for the root.
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count() - 1
    }

    /// Iterate `id, parent(id), …, root` (inclusive on both ends).
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: Some(id),
        }
    }

    /// Depth-first pre-order traversal of the whole document.
    pub fn iter_depth_first(&self) -> DepthFirst<'_> {
        DepthFirst {
            doc: self,
            stack: vec![self.root],
        }
    }

    /// All node ids in arena order (parents before children, but not
    /// necessarily document order if built out of order).
    pub fn iter_arena(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Concatenated text of all descendant text nodes, in document order.
    pub fn deep_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeKind::Text(s) = &self.nodes[n.index()].kind {
                out.push_str(s);
            }
            // Push children in reverse so the leftmost is popped first.
            for &c in self.nodes[n.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Find the first descendant element (pre-order) with the given tag.
    pub fn find_element(&self, from: NodeId, tag: &str) -> Option<NodeId> {
        let sym = self.symbols.get(tag)?;
        self.iter_subtree(from)
            .find(|&n| self.tag_symbol(n) == Some(sym))
    }

    /// Depth-first pre-order traversal of the subtree rooted at `from`.
    pub fn iter_subtree(&self, from: NodeId) -> DepthFirst<'_> {
        DepthFirst {
            doc: self,
            stack: vec![from],
        }
    }

    /// Structural equality, ignoring symbol numbering (two documents built
    /// in different label orders can still be equal).
    pub fn structural_eq(&self, other: &Document) -> bool {
        fn eq_rec(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            match (a.kind(an), b.kind(bn)) {
                (NodeKind::Text(x), NodeKind::Text(y)) => x == y,
                (NodeKind::Element(_), NodeKind::Element(_)) => {
                    if a.tag_name(an) != b.tag_name(bn) {
                        return false;
                    }
                    let aa = a.attributes(an);
                    let ba = b.attributes(bn);
                    if aa.len() != ba.len() {
                        return false;
                    }
                    for (x, y) in aa.iter().zip(ba.iter()) {
                        if a.symbols.resolve(x.name) != b.symbols.resolve(y.name)
                            || x.value != y.value
                        {
                            return false;
                        }
                    }
                    let ac = a.children(an);
                    let bc = b.children(bn);
                    ac.len() == bc.len()
                        && ac.iter().zip(bc.iter()).all(|(&x, &y)| eq_rec(a, x, b, y))
                }
                _ => false,
            }
        }
        eq_rec(self, self.root(), other, other.root())
    }
}

/// Iterator over a node's ancestors, produced by [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.parent(cur);
        Some(cur)
    }
}

/// Depth-first pre-order iterator, produced by [`Document::iter_depth_first`].
pub struct DepthFirst<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for DepthFirst<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        for &c in self.doc.children(cur).iter().rev() {
            self.stack.push(c);
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the running example of the paper's Figure 1 (one article).
    fn small_bib() -> Document {
        let mut d = Document::new("bibliography");
        let inst = d.add_element(d.root(), "institute");
        let art = d.add_element(inst, "article");
        d.set_attribute(art, "key", "BB99");
        let author = d.add_element(art, "author");
        let first = d.add_element(author, "firstname");
        d.add_text(first, "Ben");
        let last = d.add_element(author, "lastname");
        d.add_text(last, "Bit");
        let title = d.add_element(art, "title");
        d.add_text(title, "How to Hack");
        let year = d.add_element(art, "year");
        d.add_text(year, "1999");
        d
    }

    #[test]
    fn root_has_no_parent() {
        let d = small_bib();
        assert_eq!(d.parent(d.root()), None);
        assert_eq!(d.depth(d.root()), 0);
    }

    #[test]
    fn children_preserve_rank_order() {
        let d = small_bib();
        let art = d.find_element(d.root(), "article").unwrap();
        let tags: Vec<&str> = d
            .children(art)
            .iter()
            .map(|&c| d.tag_name(c).unwrap())
            .collect();
        assert_eq!(tags, vec!["author", "title", "year"]);
    }

    #[test]
    fn attribute_lookup() {
        let d = small_bib();
        let art = d.find_element(d.root(), "article").unwrap();
        assert_eq!(d.attribute(art, "key"), Some("BB99"));
        assert_eq!(d.attribute(art, "missing"), None);
    }

    #[test]
    fn set_attribute_overwrites() {
        let mut d = Document::new("r");
        let root = d.root();
        d.set_attribute(root, "a", "1");
        d.set_attribute(root, "a", "2");
        assert_eq!(d.attribute(root, "a"), Some("2"));
        assert_eq!(d.attributes(root).len(), 1);
    }

    #[test]
    #[should_panic(expected = "attributes only exist on element nodes")]
    fn set_attribute_on_text_panics() {
        let mut d = Document::new("r");
        let t = d.add_text(d.root(), "hello");
        d.set_attribute(t, "a", "1");
    }

    #[test]
    fn ancestors_walk_to_root() {
        let d = small_bib();
        let ben = d
            .iter_depth_first()
            .find(|&n| d.text(n) == Some("Ben"))
            .unwrap();
        let path: Vec<Option<&str>> = d.ancestors(ben).map(|n| d.tag_name(n)).collect();
        assert_eq!(
            path,
            vec![
                None, // the text node itself
                Some("firstname"),
                Some("author"),
                Some("article"),
                Some("institute"),
                Some("bibliography"),
            ]
        );
    }

    #[test]
    fn depth_first_is_document_order() {
        let d = small_bib();
        let order: Vec<String> = d
            .iter_depth_first()
            .map(|n| match d.kind(n) {
                NodeKind::Element(_) => d.tag_name(n).unwrap().to_string(),
                NodeKind::Text(s) => format!("#{s}"),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                "bibliography",
                "institute",
                "article",
                "author",
                "firstname",
                "#Ben",
                "lastname",
                "#Bit",
                "title",
                "#How to Hack",
                "year",
                "#1999",
            ]
        );
    }

    #[test]
    fn deep_text_concatenates_in_document_order() {
        let d = small_bib();
        let author = d.find_element(d.root(), "author").unwrap();
        assert_eq!(d.deep_text(author), "BenBit");
    }

    #[test]
    fn node_ids_are_parent_first() {
        let d = small_bib();
        for n in d.iter_arena() {
            if let Some(p) = d.parent(n) {
                assert!(p < n, "parent must be allocated before child");
            }
        }
    }

    #[test]
    fn structural_eq_ignores_intern_order() {
        let mut a = Document::new("r");
        let x = a.add_element(a.root(), "x");
        a.add_element(a.root(), "y");
        a.add_text(x, "t");

        // Same shape, but interning "y" before "x".
        let mut b = Document::new("r");
        b.symbols.intern("y");
        let x2 = b.add_element(b.root(), "x");
        b.add_element(b.root(), "y");
        b.add_text(x2, "t");

        assert!(a.structural_eq(&b));
    }

    #[test]
    fn structural_eq_detects_differences() {
        let mut a = Document::new("r");
        a.add_text(a.root(), "one");
        let mut b = Document::new("r");
        b.add_text(b.root(), "two");
        assert!(!a.structural_eq(&b));

        let mut c = Document::new("r");
        c.set_attribute(c.root(), "k", "v");
        let d2 = Document::new("r");
        assert!(!c.structural_eq(&d2));
    }

    #[test]
    fn len_counts_all_nodes() {
        let d = small_bib();
        // bibliography, institute, article, author, firstname, #Ben,
        // lastname, #Bit, title, #How to Hack, year, #1999
        assert_eq!(d.len(), 12);
    }
}
