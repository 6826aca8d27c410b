//! Arena-based XML syntax tree: the conceptual data model of the paper.
//!
//! A [`Document`] is three flat vectors and the symbol table — no heap
//! object per node:
//!
//! * `nodes`, six `u32` words a node, addressed by [`NodeId`]:
//!
//!   | word     | element                  | text (the paper's *cdata*) |
//!   |----------|--------------------------|----------------------------|
//!   | `kind`   | tag [`Symbol`]           | the text sentinel          |
//!   | `parent` | parent node (none: root) | parent node                |
//!   | `next`   | next sibling             | next sibling               |
//!   | `first`  | first child              | byte offset in the blob    |
//!   | `last`   | last child               | byte length                |
//!   | `attr`   | last attribute           | —                          |
//!
//! * `attrs`, one record per attribute: name, value range in the blob
//!   and the next attribute of the same element. The list is circular —
//!   the last record links back to the first — so one word in the node
//!   gives both O(1) append and iteration in insertion order.
//! * `text`, one blob holding every text node's data and every attribute
//!   value (entities decoded). PCDATA and CDATA are not distinguished,
//!   exactly as the paper's "common simplification".
//!
//! Sibling order (the paper's `rank`) is the order of the `next` links,
//! which is the order the children were added in, under whichever parent
//! and at whatever time: `add_element` / `add_text` append to the
//! parent's list in O(1). A node is created after its parent, so a
//! child's `NodeId` is larger than its parent's; the parser creates
//! nodes in document order, so there `NodeId` order *is* pre-order.
//! Builders may add a child to an earlier parent at any time, and then
//! it is not — `ncq-store` assigns oids by walking the links
//! ([`Document::iter_depth_first`]), never by `NodeId`.

use crate::symbols::{Symbol, SymbolTable};
use std::fmt;
use std::iter::successors;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Interned attribute name.
    pub name: Symbol,
    /// Attribute value with entities already decoded.
    pub value: &'a str,
}

/// What a node is: an element or character data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element with an interned tag name.
    Element(Symbol),
    /// Character data (the paper's *cdata* node).
    Text(&'a str),
}

/// "No such node / attribute" in a link word, and the `kind` of a text
/// node. Every index handed out is checked to stay below it.
const NIL: u32 = u32::MAX;
const TEXT: u32 = NIL;

/// One node of the syntax tree; see the module docs for the layout.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: u32,
    parent: u32,
    next: u32,
    first: u32,
    last: u32,
    attr: u32,
}

/// One attribute record: its value is `text[at .. at + len]`.
#[derive(Debug, Clone, Copy)]
struct Attr {
    name: Symbol,
    at: u32,
    len: u32,
    next: u32,
}

/// A rooted XML syntax tree with its symbol table. The root is node 0.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    attrs: Vec<Attr>,
    text: String,
    symbols: SymbolTable,
}

/// `n` as an index word.
///
/// # Panics
/// Panics with "document too large" when it does not fit below [`NIL`].
fn word(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&w| w != NIL)
        .expect("document too large")
}

/// The capacity to ask for when `count` elements of `T` are wanted in one
/// block that is filled, read once and dropped, as a parsed document is
/// (and as `ncq-store`'s snapshot image is, so the rule has this one
/// definition).
///
/// A block of 128 KiB or more is a mapping of its own under glibc, and a
/// *freed* mapping of up to 32 MiB becomes the allocator's new mmap
/// threshold: after the first `drop(doc)` every smaller block — the next
/// document, the store's columns, a snapshot image on its way up — is
/// carved from the heap, and up to twice that much freed heap is kept.
/// What an ingest then costs depends on the holes the previous one left:
/// the same 5 MB input peaked at 76, 83 or 87 MB from one run to the
/// next. Past 32 MiB a block is mapped, unmapped on drop and leaves the
/// threshold alone, so such a block asks for that much; it is resident
/// only as far as it is filled, and the fourth ingest of a process costs
/// what the first did. Elsewhere, and for small documents, the capacity
/// is the count.
pub fn own_mapping<T>(count: usize) -> usize {
    const MAPPED_FROM: usize = 128 << 10;
    const KEPT_UP_TO: usize = 32 << 20;
    let size = std::mem::size_of::<T>();
    let glibc = cfg!(all(target_env = "gnu", target_pointer_width = "64"));
    if glibc && count.saturating_mul(size) >= MAPPED_FROM {
        count.max(KEPT_UP_TO / size + 1)
    } else {
        count
    }
}

fn link(word: u32) -> Option<NodeId> {
    (word != NIL).then_some(NodeId(word))
}

impl Document {
    /// Create a document with a single root element named `root_tag`.
    pub fn new(root_tag: &str) -> Document {
        let mut symbols = SymbolTable::new();
        let kind = word(symbols.intern(root_tag).index());
        let root = Node {
            kind,
            parent: NIL,
            next: NIL,
            first: NIL,
            last: NIL,
            attr: NIL,
        };
        Document {
            nodes: vec![root],
            attrs: Vec::new(),
            text: String::new(),
            symbols,
        }
    }

    /// Make room for this many more nodes, attributes and blob bytes,
    /// one allocation each. A hint: when the allocator refuses (the
    /// counts come from the input), the vectors grow as they are pushed
    /// to.
    pub(crate) fn reserve(&mut self, nodes: usize, attrs: usize, text: usize) {
        let _ = self.nodes.try_reserve_exact(own_mapping::<Node>(nodes));
        let _ = self.attrs.try_reserve_exact(own_mapping::<Attr>(attrs));
        let _ = self.text.try_reserve_exact(own_mapping::<u8>(text));
    }

    /// The distinguished root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
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

    /// Intern an attribute name for [`Document::push_attribute`].
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Append a new element child under `parent` and return its id.
    ///
    /// # Panics
    /// Like [`Document::add_text`].
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let tag = self.symbols.intern(tag);
        self.push_node(parent, word(tag.index()), NIL, NIL)
    }

    /// Append a new text (cdata) child under `parent` and return its id.
    ///
    /// # Panics
    /// Panics if `parent` is a text node, and with "document too large"
    /// once the nodes or the text no longer fit `u32` offsets.
    pub fn add_text(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        let (at, len) = self.push_str(text.as_ref());
        self.push_node(parent, TEXT, at, len)
    }

    /// Set (or overwrite) an attribute on an element node. Overwriting
    /// keeps the attribute's position in the list.
    ///
    /// # Panics
    /// Panics if `node` is a text node.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: impl AsRef<str>) {
        let name = self.symbols.intern(name);
        let existing = self.attr_ids(node).find(|&a| self.attrs[a].name == name);
        match existing {
            Some(a) => {
                let (at, len) = self.push_str(value.as_ref());
                (self.attrs[a].at, self.attrs[a].len) = (at, len);
            }
            None => self.push_attribute(node, name, value.as_ref()),
        }
    }

    /// Append an attribute the caller knows `node` does not carry yet.
    pub(crate) fn push_attribute(&mut self, node: NodeId, name: Symbol, value: &str) {
        let owner = node.index();
        assert!(
            self.nodes[owner].kind != TEXT,
            "attributes only exist on element nodes"
        );
        let (at, len) = self.push_str(value);
        let id = word(self.attrs.len());
        // Close the circle: the new last record links to the first.
        let next = match std::mem::replace(&mut self.nodes[owner].attr, id) {
            NIL => id,
            last => std::mem::replace(&mut self.attrs[last as usize].next, id),
        };
        self.attrs.push(Attr {
            name,
            at,
            len,
            next,
        });
    }

    /// Append `s` to the blob; its offset and length.
    fn push_str(&mut self, s: &str) -> (u32, u32) {
        let at = self.text.len();
        self.text.push_str(s);
        // The end fits, so the offset and the length do.
        word(self.text.len());
        (at as u32, s.len() as u32)
    }

    fn push_node(&mut self, parent: NodeId, kind: u32, first: u32, last: u32) -> NodeId {
        let id = word(self.nodes.len());
        let host = &mut self.nodes[parent.index()];
        assert!(host.kind != TEXT, "children only exist under element nodes");
        let prev = std::mem::replace(&mut host.last, id);
        match prev {
            NIL => host.first = id,
            _ => self.nodes[prev as usize].next = id,
        }
        self.nodes.push(Node {
            kind,
            parent: parent.0,
            next: NIL,
            first,
            last,
            attr: NIL,
        });
        NodeId(id)
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let node = &self.nodes[id.index()];
        match node.kind {
            TEXT => NodeKind::Text(self.slice(node.first, node.last)),
            tag => NodeKind::Element(Symbol::from_index(tag as usize)),
        }
    }

    fn slice(&self, at: u32, len: u32) -> &str {
        &self.text[at as usize..at as usize + len as usize]
    }

    /// The parent, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.nodes[id.index()].parent)
    }

    /// The children in sibling order (the paper's `rank` order).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        successors(self.first_child(id), |c| link(self.nodes[c.index()].next))
    }

    fn first_child(&self, id: NodeId) -> Option<NodeId> {
        let node = &self.nodes[id.index()];
        link(if node.kind == TEXT { NIL } else { node.first })
    }

    /// The attributes of an element in the order they were first set
    /// (none for text nodes).
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = Attribute<'_>> + '_ {
        self.attr_ids(id).map(|a| {
            let Attr { name, at, len, .. } = self.attrs[a];
            let value = self.slice(at, len);
            Attribute { name, value }
        })
    }

    fn named_attributes(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attributes(id)
            .map(|a| (self.symbols.resolve(a.name), a.value))
    }

    /// Indices into `attrs` of the attributes of `id`: once around the
    /// circle, from the record after the last one.
    fn attr_ids(&self, id: NodeId) -> impl Iterator<Item = usize> + '_ {
        let last = self.nodes[id.index()].attr;
        let first = (last != NIL).then(|| self.attrs[last as usize].next);
        successors(first, move |&a| {
            (a != last).then(|| self.attrs[a as usize].next)
        })
        .map(|a| a as usize)
    }

    /// Tag name of an element node, `None` for text nodes.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.tag_symbol(id).map(|tag| self.symbols.resolve(tag))
    }

    /// Interned tag symbol of an element node, `None` for text nodes.
    pub fn tag_symbol(&self, id: NodeId) -> Option<Symbol> {
        match self.kind(id) {
            NodeKind::Element(tag) => Some(tag),
            NodeKind::Text(_) => None,
        }
    }

    /// Character data of a text node, `None` for elements.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(s) => Some(s),
            NodeKind::Element(_) => None,
        }
    }

    /// Attribute value by name on an element node.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let name = self.symbols.get(name)?;
        self.attributes(id)
            .find(|a| a.name == name)
            .map(|a| a.value)
    }

    /// Depth of a node: 0 for the root.
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count() - 1
    }

    /// Iterate `id, parent(id), …, root` (inclusive on both ends).
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        successors(Some(id), |&n| self.parent(n))
    }

    /// Depth-first pre-order traversal of the whole document.
    pub fn iter_depth_first(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter_subtree(self.root())
    }

    /// All node ids in arena order (parents before children, but not
    /// necessarily document order if built out of order).
    pub fn iter_arena(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Concatenated text of all descendant text nodes, in document order.
    pub fn deep_text(&self, id: NodeId) -> String {
        self.iter_subtree(id).filter_map(|n| self.text(n)).collect()
    }

    /// Find the first descendant element (pre-order) with the given tag.
    pub fn find_element(&self, from: NodeId, tag: &str) -> Option<NodeId> {
        let sym = self.symbols.get(tag)?;
        self.iter_subtree(from)
            .find(|&n| self.tag_symbol(n) == Some(sym))
    }

    /// Depth-first pre-order traversal of the subtree rooted at `from`.
    /// It follows the links — down to the first child, else along the
    /// next sibling of the nearest ancestor below `from` that has one —
    /// so it keeps no stack.
    pub fn iter_subtree(&self, from: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        successors(Some(from), move |&n| {
            if let Some(child) = self.first_child(n) {
                return Some(child);
            }
            let mut up = n;
            while up != from {
                let node = &self.nodes[up.index()];
                if let Some(sibling) = link(node.next) {
                    return Some(sibling);
                }
                up = NodeId(node.parent);
            }
            None
        })
    }

    /// Structural equality, ignoring symbol numbering (two documents built
    /// in different label orders can still be equal).
    pub fn structural_eq(&self, other: &Document) -> bool {
        // Two pre-order walks in step. Nodes that agree on having a child
        // and on having a next sibling make the walks take the same
        // turns, so equal pairs all the way mean equal shapes.
        let same = |a: NodeId, b: NodeId| {
            self.tag_name(a) == other.tag_name(b)
                && self.text(a) == other.text(b)
                && self.first_child(a).is_some() == other.first_child(b).is_some()
                && (self.nodes[a.index()].next != NIL) == (other.nodes[b.index()].next != NIL)
                && self.named_attributes(a).eq(other.named_attributes(b))
        };
        let mut theirs = other.iter_depth_first();
        self.iter_depth_first()
            .all(|a| theirs.next().is_some_and(|b| same(a, b)))
            && theirs.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_that_would_be_mapped_asks_for_a_mapping_that_is_handed_back() {
        // Below glibc's 128 KiB: the count itself.
        assert_eq!(own_mapping::<Node>(5_000), 5_000);
        assert_eq!(own_mapping::<u8>(0), 0);
        // Never less than what was asked for.
        assert_eq!(own_mapping::<Node>(2_000_000), 2_000_000);
        if cfg!(all(target_env = "gnu", target_pointer_width = "64")) {
            // From there on: past the 32 MiB a freed mapping may have
            // and still move the threshold.
            assert!(own_mapping::<Node>(6_000) * std::mem::size_of::<Node>() > 32 << 20);
            assert!(own_mapping::<Attr>(20_000) * std::mem::size_of::<Attr>() > 32 << 20);
            assert_eq!(own_mapping::<u8>(128 << 10), (32 << 20) + 1);
        }
    }

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
        let tags: Vec<&str> = d.children(art).map(|c| d.tag_name(c).unwrap()).collect();
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
        assert_eq!(d.attributes(root).count(), 1);
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

    /// `r(a(a1, a2), b(b1))` with `a2` added last, under the earlier parent.
    fn out_of_order() -> (Document, [NodeId; 5]) {
        let mut d = Document::new("r");
        let a = d.add_element(d.root(), "a");
        let a1 = d.add_text(a, "one");
        let b = d.add_element(d.root(), "b");
        let b1 = d.add_text(b, "three");
        let a2 = d.add_element(a, "two");
        (d, [a, a1, a2, b, b1])
    }

    #[test]
    fn children_keep_insertion_order_when_built_out_of_document_order() {
        let (d, [a, a1, a2, b, b1]) = out_of_order();
        assert_eq!(d.children(d.root()).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(d.children(a).collect::<Vec<_>>(), vec![a1, a2]);
        assert_eq!(d.children(b).collect::<Vec<_>>(), vec![b1]);
        assert_eq!(d.children(a1).count(), 0);
        // Pre-order follows the links, not the arena.
        let order: Vec<NodeId> = d.iter_depth_first().collect();
        assert_eq!(order, vec![d.root(), a, a1, a2, b, b1]);
        assert!(a2 > b1);
        assert_eq!(d.parent(a2), Some(a));
        assert_eq!(d.depth(a2), 2);
    }

    #[test]
    fn iter_subtree_stops_at_the_last_descendant() {
        let (d, [a, a1, a2, b, b1]) = out_of_order();
        assert_eq!(d.iter_subtree(a).collect::<Vec<_>>(), vec![a, a1, a2]);
        assert_eq!(d.iter_subtree(b).collect::<Vec<_>>(), vec![b, b1]);
        assert_eq!(d.iter_subtree(a1).collect::<Vec<_>>(), vec![a1]);
        assert_eq!(d.iter_subtree(a2).collect::<Vec<_>>(), vec![a2]);
        assert_eq!(d.deep_text(a), "one");
        assert_eq!(d.deep_text(d.root()), "onethree");
        assert_eq!(d.find_element(d.root(), "two"), Some(a2));
        assert_eq!(d.find_element(b, "two"), None);
    }

    #[test]
    fn attributes_keep_insertion_order_across_elements_and_overwrites() {
        let mut d = Document::new("r");
        let x = d.add_element(d.root(), "x");
        let y = d.add_element(d.root(), "y");
        d.set_attribute(x, "a", "1");
        d.set_attribute(y, "a", "y1");
        d.set_attribute(x, "b", "2");
        d.set_attribute(x, "c", "3");
        d.set_attribute(y, "c", "y3");
        // Overwriting the first, a middle and the last attribute keeps
        // every position and the count.
        d.set_attribute(x, "b", "two");
        d.set_attribute(x, "a", "");
        d.set_attribute(x, "c", "three, longer than before");
        let pairs = |n| -> Vec<(&str, &str)> {
            d.attributes(n)
                .map(|a| (d.symbols().resolve(a.name), a.value))
                .collect()
        };
        assert_eq!(
            pairs(x),
            vec![("a", ""), ("b", "two"), ("c", "three, longer than before")]
        );
        assert_eq!(pairs(y), vec![("a", "y1"), ("c", "y3")]);
        assert_eq!(d.attribute(x, "b"), Some("two"));
        assert_eq!(d.attributes(d.root()).count(), 0);
    }

    #[test]
    fn structural_eq_follows_links_not_arena_order() {
        let (a, _) = out_of_order();
        let mut b = Document::new("r");
        let x = b.add_element(b.root(), "a");
        b.add_text(x, "one");
        b.add_element(x, "two");
        let y = b.add_element(b.root(), "b");
        b.add_text(y, "three");
        assert!(a.structural_eq(&b) && b.structural_eq(&a));
        // Same pre-order labels, different shape: `two` moved under `b`.
        let mut c = Document::new("r");
        let x = c.add_element(c.root(), "a");
        c.add_text(x, "one");
        let y = c.add_element(c.root(), "b");
        c.add_element(y, "two");
        c.add_text(y, "three");
        assert!(!a.structural_eq(&c));
        // A proper prefix is not equal either way round.
        let mut e = b.clone();
        e.add_element(y, "tail");
        assert!(!b.structural_eq(&e) && !e.structural_eq(&b));
    }

    #[test]
    #[should_panic(expected = "children only exist under element nodes")]
    fn add_child_under_text_panics() {
        let mut d = Document::new("r");
        let t = d.add_text(d.root(), "hello");
        d.add_element(t, "x");
    }

    #[test]
    #[should_panic(expected = "document too large")]
    fn an_index_that_does_not_fit_a_word_is_refused() {
        word(u32::MAX as usize);
    }
}
