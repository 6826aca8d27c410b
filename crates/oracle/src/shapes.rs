//! Tree and hit shapes the random 150-node generators rarely draw,
//! shared by `ncq-core`'s `properties.rs` (the stack pass against the
//! Fig. 5 roll-up) and `ncq-shard`'s `equivalence.rs` (sharded against
//! single engine). Each aims at one corner of the stack pass in
//! `ncq_core::sweep`.

use ncq_core::{Database, PathFilter};
use ncq_fulltext::HitSet;
use ncq_store::Oid;
use ncq_xml::{Document, NodeId};
use std::collections::HashMap;

/// One shape: a database, its hit groups and the result-type filter.
pub struct Shape {
    /// What the shape is called in failure messages.
    pub name: &'static str,
    /// The loaded tree.
    pub db: Database,
    /// The hit groups to meet.
    pub inputs: Vec<HitSet>,
    /// `meet_Π`; everything but "suppressed meet" accepts all paths.
    pub filter: PathFilter,
}

/// The distance bounds every shape is met under.
pub const MAX_DISTANCES: [Option<usize>; 4] = [None, Some(0), Some(1), Some(3)];
/// The `limit k` values every shape is met under.
pub const LIMITS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(usize::MAX)];
/// The witness caps every shape is met under.
pub const WITNESS_CAPS: [usize; 3] = [1, 8, 64];

/// The first oid carrying `tag`.
pub fn oid_by_tag(db: &Database, tag: &str) -> Oid {
    let store = db.store();
    store
        .iter_oids()
        .find(|&o| store.tag(o) == Some(tag))
        .unwrap_or_else(|| panic!("no <{tag}>"))
}

/// Load `doc`; each group of nodes becomes one hit group.
fn shape(name: &'static str, doc: &Document, groups: &[Vec<NodeId>]) -> Shape {
    let db = Database::from_document(doc);
    let oid: HashMap<NodeId, Oid> = doc
        .iter_depth_first()
        .enumerate()
        .map(|(i, n)| (n, Oid::from_index(i)))
        .collect();
    let inputs = groups
        .iter()
        .map(|group| HitSet::from_pairs(group.iter().map(|n| (db.store().sigma(oid[n]), oid[n]))))
        .collect();
    Shape {
        name,
        db,
        inputs,
        filter: PathFilter::All,
    }
}

/// `n` elements nested under `from`; returns them outermost first.
fn chain_under(doc: &mut Document, from: NodeId, tag: &str, n: usize) -> Vec<NodeId> {
    let mut cur = from;
    (0..n)
        .map(|_| {
            cur = doc.add_element(cur, tag);
            cur
        })
        .collect()
}

/// Every hit is an ancestor of the next: the stack is as deep as the
/// hit list is long.
fn chain() -> Shape {
    let mut doc = Document::new("root");
    let root = doc.root();
    let mut nodes = vec![root];
    nodes.extend(chain_under(&mut doc, root, "e", 299));
    let even = nodes.iter().copied().step_by(2).collect();
    let odd = nodes.iter().copied().skip(1).step_by(2).collect();
    shape("chain", &doc, &[even, odd])
}

/// 10⁴ hits under one parent: one meet, one token absorbing them all.
fn star() -> Shape {
    let mut doc = Document::new("root");
    let root = doc.root();
    let leaves: Vec<NodeId> = (0..10_000).map(|_| doc.add_element(root, "p")).collect();
    let (a, b) = leaves.split_at(5_000);
    shape("star", &doc, &[a.to_vec(), b.to_vec()])
}

/// The same oid in every input: three witnesses, distance 0.
fn same_oid() -> Shape {
    let mut doc = Document::new("root");
    let root = doc.root();
    let x = doc.add_element(root, "x");
    let y = doc.add_element(root, "y");
    shape("same oid", &doc, &[vec![x], vec![x, y], vec![x]])
}

/// Two attribute hits owned by one element are two items with one oid.
fn attribute_pair() -> Shape {
    let db = Database::from_xml_str(r#"<r><e a="x1" b="y1"><c>z1</c></e><e a="q1"/></r>"#).unwrap();
    let inputs = vec![db.search("x1"), db.search("y1"), db.search("q1")];
    Shape {
        name: "attribute pair",
        db,
        inputs,
        filter: PathFilter::All,
    }
}

/// A spine with one leaf per level; the hits are the leaves, so every
/// LCA of neighbours lies on the spine. `leaf_first` decides whether a
/// level's leaf precedes or follows the deeper levels in document
/// order: frames for the spine are slipped in on the way down, or all
/// closed in one unwinding on the way back up.
fn comb(leaf_first: bool) -> Shape {
    let mut doc = Document::new("root");
    let mut cur = doc.root();
    let mut spine = Vec::new();
    let mut leaves = Vec::new();
    for _ in 0..200 {
        if leaf_first {
            leaves.push(doc.add_element(cur, "l"));
        }
        spine.push(cur);
        cur = doc.add_element(cur, "s");
    }
    if !leaf_first {
        for &s in spine.iter().rev() {
            leaves.push(doc.add_element(s, "l"));
        }
    }
    let name = if leaf_first {
        "comb, leaf first"
    } else {
        "comb, leaf last"
    };
    shape(name, &doc, &[leaves])
}

/// A token that fails δ = 3 three times before it is accepted. The hit
/// on `<a>` and one 4 below it fail at `<a>` (distance 4); a hit 5
/// below `<b>` joins at `<b>` (1 + 5), one 5 below `<c>` at `<c>`
/// (2 + 5); at the root the root's own hit joins and 0 + 3 is within
/// the bound — with the two smallest depths taken across the merge. The
/// padding subtrees make `<c>` light enough to be one chunk of a
/// two-shard partition, so there the three failures are shard-local
/// and the acceptance is on the spine.
fn climbing_token() -> Shape {
    let mut doc = Document::new("root");
    let root = doc.root();
    let c = doc.add_element(root, "c");
    let b = doc.add_element(c, "b");
    let a = doc.add_element(b, "a");
    let a_deep = chain_under(&mut doc, a, "e", 4)[3];
    let b_deep = chain_under(&mut doc, b, "e", 5)[4];
    let c_deep = chain_under(&mut doc, c, "e", 5)[4];
    let mut far = root;
    for _ in 0..16 {
        far = chain_under(&mut doc, root, "pad", 20)[19];
    }
    shape(
        "climbing token",
        &doc,
        &[vec![root, b_deep], vec![a, c_deep], vec![a_deep, far]],
    )
}

/// The meet at `<x>` is suppressed by the filter; its two hits must be
/// consumed all the same, or they would meet `<y>`'s lone hit at the
/// root.
fn suppressed_meet() -> Shape {
    let mut doc = Document::new("root");
    let root = doc.root();
    let x = doc.add_element(root, "x");
    let x1 = doc.add_element(x, "h");
    let x2 = doc.add_element(x, "h");
    let y = doc.add_element(root, "y");
    let y1 = doc.add_element(y, "h");
    let z = doc.add_element(root, "z");
    let z1 = doc.add_element(z, "h");
    let z2 = doc.add_element(z, "h");
    let mut s = shape("suppressed meet", &doc, &[vec![x1, y1, z1], vec![x2, z2]]);
    let x_path = s.db.store().sigma(oid_by_tag(&s.db, "x"));
    s.filter = PathFilter::excluding([x_path]);
    s
}

/// Every shape, built afresh.
pub fn shapes() -> Vec<Shape> {
    vec![
        chain(),
        star(),
        same_oid(),
        attribute_pair(),
        comb(true),
        comb(false),
        climbing_token(),
        suppressed_meet(),
    ]
}
