//! Randomized invariants of the Monet transform and the meet index.
//!
//! Seeded loops over a deterministic PRNG stand in for proptest (the
//! offline build cannot fetch it); failures print the seed.

use ncq_store::{
    DepthStats, MappedSnapshot, MonetDb, Oid, PathId, PathStep, SnapshotWriter, VerifyMode,
};
use ncq_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random document recipes (same instruction-list trick as in ncq-xml).
#[derive(Debug, Clone)]
enum Op {
    Open(&'static str),
    Close,
    Text(String),
    Attr(&'static str, String),
}

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

fn word(rng: &mut StdRng) -> String {
    let len = rng.random_range(1usize..7);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0u8..26)) as char)
        .collect()
}

fn ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.random_range(0usize..80);
    (0..n)
        .map(|_| match rng.random_range(0usize..8) {
            0..=2 => Op::Open(TAGS[rng.random_range(0..TAGS.len())]),
            3..=4 => Op::Close,
            5..=6 => Op::Text(word(rng)),
            _ => Op::Attr(TAGS[rng.random_range(0..TAGS.len())], word(rng)),
        })
        .collect()
}

fn build(ops: &[Op]) -> Document {
    let mut doc = Document::new("root");
    let mut stack: Vec<NodeId> = vec![doc.root()];
    for op in ops {
        let cur = *stack.last().unwrap();
        match op {
            Op::Open(tag) => {
                let id = doc.add_element(cur, tag);
                stack.push(id);
            }
            Op::Close => {
                if stack.len() > 1 {
                    stack.pop();
                }
            }
            Op::Text(s) => {
                // Avoid adjacent text nodes; the store does not merge them
                // and neither does the builder.
                let last_is_text = doc
                    .children(cur)
                    .last()
                    .is_some_and(|c| doc.text(c).is_some());
                if !last_is_text {
                    doc.add_text(cur, s.clone());
                }
            }
            Op::Attr(k, v) => doc.set_attribute(cur, k, v.clone()),
        }
    }
    doc
}

const CASES: u64 = 192;

fn for_random_dbs(salt: u64, mut check: impl FnMut(&Document, &MonetDb, u64)) {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(salt << 32 | seed);
        let doc = build(&ops(&mut rng));
        let db = MonetDb::from_document(&doc);
        check(&doc, &db, seed);
    }
}

/// Grow `doc` out of document order: new elements under random earlier
/// elements, so arena ids stop being preorder positions.
fn graft(doc: &mut Document, rng: &mut StdRng) {
    let mut hosts: Vec<NodeId> = doc
        .iter_arena()
        .filter(|&n| doc.text(n).is_none())
        .collect();
    for _ in 0..rng.random_range(1usize..12) {
        let e = doc.add_element(
            hosts[rng.random_range(0..hosts.len())],
            TAGS[rng.random_range(0..TAGS.len())],
        );
        doc.add_text(e, word(rng));
        hosts.push(e);
    }
}

/// Random builder documents whose arena order is (almost always) not
/// preorder, loaded; `check` also gets the contract's pairing of the
/// document's DFS with the oid sequence.
fn for_grafted_dbs(salt: u64, mut check: impl FnMut(&Document, &MonetDb, &[(NodeId, Oid)], u64)) {
    let mut out_of_order = 0;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(salt << 32 | seed);
        let mut doc = build(&ops(&mut rng));
        graft(&mut doc, &mut rng);
        let db = MonetDb::from_document(&doc);
        let pairs: Vec<(NodeId, Oid)> = doc.iter_depth_first().zip(db.iter_oids()).collect();
        out_of_order += pairs.iter().any(|(n, o)| n.index() != o.index()) as u64;
        check(&doc, &db, &pairs, seed);
    }
    assert!(
        out_of_order > CASES / 2,
        "grafting left arena order = preorder"
    );
}

/// `db` saved to `file` and opened again both ways: through the file
/// (mapped on unix, an owned copy elsewhere) and through the owned-copy
/// path directly.
fn reopen(db: &MonetDb, file: &std::path::Path) -> [MonetDb; 2] {
    let mut writer = SnapshotWriter::new();
    db.encode_snapshot(&mut writer);
    writer.write_to(file).expect("save");
    let reopened =
        MonetDb::decode_snapshot(&MappedSnapshot::open(file).expect("open")).expect("load");
    let bytes = std::fs::read(file).expect("read");
    std::fs::remove_file(file).ok();
    let owned = MonetDb::decode_snapshot(
        &MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Lazy).expect("owned open"),
    )
    .expect("owned decode");
    [reopened, owned]
}

/// Every tree node gets exactly one oid; count matches.
#[test]
fn oid_assignment_is_a_bijection() {
    for_grafted_dbs(1, |doc, db, pairs, seed| {
        assert_eq!(db.node_count(), doc.len(), "seed {seed}");
        assert_eq!(pairs.len(), doc.len(), "seed {seed}");
        let mut seen = vec![false; doc.len()];
        for (n, _) in pairs {
            assert!(!seen[n.index()], "seed {seed}");
            seen[n.index()] = true;
        }
    });
}

/// Oid = preorder position: the i-th node of the document's DFS is oid
/// i — same kind, same tag or text, and its parent is its tree parent's
/// oid (so parent < child).
#[test]
fn oids_follow_document_order() {
    for_grafted_dbs(2, |doc, db, pairs, seed| {
        let mut oid_at = vec![Oid::ROOT; doc.len()];
        for &(n, o) in pairs {
            oid_at[n.index()] = o;
            // Both sides answer `None` for the other kind.
            assert_eq!(db.tag(o), doc.tag_name(n), "seed {seed}");
            assert_eq!(db.string_value(db.sigma(o), o), doc.text(n), "seed {seed}");
            // The DFS reaches a parent before its children, so its slot
            // in `oid_at` is already filled.
            assert_eq!(
                db.parent(o),
                doc.parent(n).map(|p| oid_at[p.index()]),
                "seed {seed}"
            );
        }
        for o in db.iter_oids().skip(1) {
            assert!(db.parent(o).unwrap() < o, "seed {seed}");
        }
    });
}

/// The load depends on the tree, not on the arena: a document built
/// out of document order loads to the same relations, dump for dump,
/// as its copy built in document order (where arena index = oid).
#[test]
fn out_of_order_documents_load_like_their_in_order_copies() {
    for_grafted_dbs(12, |doc, db, pairs, seed| {
        let mut copy = Document::new(doc.tag_name(doc.root()).unwrap());
        let mut copy_of = vec![copy.root(); doc.len()];
        for n in doc.iter_depth_first() {
            if let Some(p) = doc.parent(n) {
                copy_of[n.index()] = match doc.text(n) {
                    Some(text) => copy.add_text(copy_of[p.index()], text),
                    None => copy.add_element(copy_of[p.index()], doc.tag_name(n).unwrap()),
                };
            }
            for attr in doc.attributes(n) {
                let name = doc.symbols().resolve(attr.name);
                copy.set_attribute(copy_of[n.index()], name, attr.value);
            }
        }
        assert!(copy.structural_eq(doc), "seed {seed}");
        for &(n, o) in pairs {
            assert_eq!(copy_of[n.index()].index(), o.index(), "seed {seed}");
        }
        let in_order = MonetDb::from_document(&copy);
        assert_eq!(
            db.dump_relations(),
            in_order.dump_relations(),
            "seed {seed}"
        );
        assert!(db.iter_oids().all(|o| db.sigma(o) == in_order.sigma(o)
            && db.parent(o) == in_order.parent(o)
            && db.label(o) == in_order.label(o)));
    });
}

/// Every non-root oid appears exactly once as the child component of
/// exactly one edge relation, and that relation is σ(o).
#[test]
fn edge_relations_partition_the_objects() {
    for_random_dbs(3, |_, db, seed| {
        let mut appearances = vec![0usize; db.node_count()];
        for p in db.summary().iter() {
            for (parent, child) in db.edges_of(p) {
                assert_eq!(db.sigma(child), p, "seed {seed}");
                assert_eq!(db.parent(child), Some(parent), "seed {seed}");
                appearances[child.index()] += 1;
            }
        }
        assert_eq!(appearances[0], 0, "root is in no edge relation");
        for o in db.iter_oids().skip(1) {
            assert_eq!(appearances[o.index()], 1, "seed {seed}");
        }
    });
}

/// σ(o) is consistent: walking parents of o walks parents of σ(o).
#[test]
fn sigma_tracks_parent_paths() {
    for_random_dbs(4, |_, db, seed| {
        for o in db.iter_oids().skip(1) {
            let p = db.parent(o).unwrap();
            assert_eq!(
                db.summary().parent(db.sigma(o)),
                Some(db.sigma(p)),
                "seed {seed}"
            );
        }
    });
}

/// Depth in the tree equals path depth.
#[test]
fn depth_matches_ancestor_count() {
    for_random_dbs(5, |_, db, seed| {
        for o in db.iter_oids() {
            assert_eq!(db.depth(o), db.ancestors(o).count() - 1, "seed {seed}");
        }
    });
}

/// String associations cover exactly the text nodes and attributes.
#[test]
fn string_relations_cover_text_and_attributes() {
    for_random_dbs(6, |doc, db, seed| {
        let text_nodes = doc
            .iter_depth_first()
            .filter(|&n| doc.text(n).is_some())
            .count();
        let attrs: usize = doc
            .iter_depth_first()
            .map(|n| doc.attributes(n).count())
            .sum();
        let total: usize = db.summary().iter().map(|p| db.strings_of(p).len()).sum();
        assert_eq!(total, text_nodes + attrs, "seed {seed}");
        // Cdata string owners are the cdata nodes themselves; attribute
        // string owners are element nodes.
        for p in db.summary().iter() {
            for (owner, _) in db.strings_of(p).iter() {
                match db.summary().step(p) {
                    PathStep::Cdata => assert_eq!(db.sigma(owner), p, "seed {seed}"),
                    PathStep::Attribute(_) => {
                        assert_eq!(Some(db.sigma(owner)), db.summary().parent(p), "seed {seed}")
                    }
                    PathStep::Element(_) => panic!("element paths own no strings"),
                }
            }
        }
    });
}

/// The string columns read back exactly what the document holds. Per
/// path, the view iterates the `(owner, text)` pairs gathered straight
/// from the tree in document order; `string_value` agrees with a linear
/// scan; and a store reopened from its snapshot — through the file
/// (mapped on unix, an owned copy elsewhere) and through the owned-copy
/// path directly — yields the same. The strings are hostile to an
/// offset column: empty, and 1- to 4-byte code points side by side.
#[test]
fn string_views_equal_the_documents_strings() {
    const PIECES: [&str; 7] = ["", "a", "é", "ß", "→", "日本", "🦀"];
    let dir = std::env::temp_dir().join("ncq-store-string-views");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(10 << 32 | seed);
        let text = |rng: &mut StdRng| -> String {
            (0..rng.random_range(0usize..4))
                .map(|_| PIECES[rng.random_range(0..PIECES.len())])
                .collect()
        };
        // Elements under random earlier elements; each may get cdata,
        // attributes, both (the same element owns entries in several
        // relations) or neither (paths with no strings).
        let mut doc = Document::new("root");
        let mut elements = vec![doc.root()];
        for _ in 0..rng.random_range(0usize..60) {
            let host = elements[rng.random_range(0..elements.len())];
            let e = doc.add_element(host, TAGS[rng.random_range(0..TAGS.len())]);
            if rng.random_range(0..2usize) == 0 {
                doc.add_text(e, text(&mut rng));
            }
            for _ in 0..rng.random_range(0usize..3) {
                doc.set_attribute(e, TAGS[rng.random_range(0..TAGS.len())], text(&mut rng));
            }
            elements.push(e);
        }
        let built = MonetDb::from_document(&doc);

        // The expectation, from the tree alone: oid = DFS position, a
        // text node's relation is its own path, an attribute's is the
        // `@name` child of its element's path.
        let summary = built.summary();
        let mut expected: Vec<Vec<(Oid, &str)>> = vec![Vec::new(); summary.len()];
        for (n, o) in doc.iter_depth_first().zip(built.iter_oids()) {
            if let Some(t) = doc.text(n) {
                expected[built.sigma(o).index()].push((o, t));
            }
            for attr in doc.attributes(n) {
                let path = summary
                    .children(built.sigma(o))
                    .iter()
                    .find(|&&c| summary.step(c) == PathStep::Attribute(attr.name))
                    .expect("attribute path interned");
                expected[path.index()].push((o, attr.value));
            }
        }
        assert!(
            seed > 0 || expected.iter().any(Vec::is_empty),
            "no path without strings"
        );

        let [reopened, owned] = reopen(&built, &dir.join(format!("seed-{seed}.ncq")));

        for db in [&built, &reopened, &owned] {
            for (p, expected) in expected.iter().enumerate() {
                let p = PathId::from_index(p);
                let rel = db.strings_of(p);
                assert_eq!(rel.len(), expected.len(), "seed {seed}");
                assert_eq!(rel.is_empty(), expected.is_empty(), "seed {seed}");
                assert_eq!(&rel.iter().collect::<Vec<_>>(), expected, "seed {seed}");
                for (i, &pair) in expected.iter().enumerate() {
                    assert_eq!(rel.get(i), Some(pair), "seed {seed}");
                }
                assert_eq!(rel.get(expected.len()), None, "seed {seed}");
                for o in db.iter_oids() {
                    let scan = expected.iter().find(|(owner, _)| *owner == o);
                    assert_eq!(db.string_value(p, o), scan.map(|&(_, t)| t), "seed {seed}");
                }
            }
            assert!(db.strings_of(PathId::from_index(expected.len())).is_empty());
        }
    }
}

/// The prefix order `le` agrees with an independent prefix check on
/// rendered path strings.
#[test]
fn le_agrees_with_string_prefixes() {
    for_random_dbs(7, |_, db, seed| {
        let s = db.summary();
        let paths: Vec<_> = s.iter().collect();
        for &a in paths.iter().take(20) {
            for &b in paths.iter().take(20) {
                let sa = db.relation_name(a);
                let sb = db.relation_name(b);
                let expect =
                    sa == sb || (sa.starts_with(&sb) && sa.as_bytes().get(sb.len()) == Some(&b'/'));
                assert_eq!(s.le(a, b), expect, "seed {seed} a={sa} b={sb}");
            }
        }
    });
}

/// The meet index agrees with parent-pointer walks on every primitive
/// — depth, inclusive-ancestor test, LCA, distance, subtree range — and
/// the LCA is the smallest parent pointer in the preorder range between
/// the pair; built, and reopened from its snapshot both ways (mapped
/// and owned views of the stored masks and table).
#[test]
fn meet_index_agrees_with_parent_walks() {
    let dir = std::env::temp_dir().join("ncq-store-meet-index");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for_random_dbs(8, |_, db, seed| {
        let n = db.node_count();
        // Exhaustive on small documents, sampled on larger ones.
        let mut rng = StdRng::seed_from_u64(9 << 32 | seed);
        let pairs: Vec<(Oid, Oid)> = if n <= 24 {
            db.iter_oids()
                .flat_map(|a| db.iter_oids().map(move |b| (a, b)))
                .collect()
        } else {
            (0..200)
                .map(|_| {
                    (
                        Oid::from_index(rng.random_range(0..n)),
                        Oid::from_index(rng.random_range(0..n)),
                    )
                })
                .collect()
        };
        let [reopened, owned] = reopen(db, &dir.join(format!("seed-{seed}.ncq")));
        for idx in [db.meet_index(), reopened.meet_index(), owned.meet_index()] {
            for o in db.iter_oids() {
                let members: Vec<usize> = db
                    .iter_oids()
                    .filter(|&x| db.is_ancestor_or_self(o, x))
                    .map(Oid::index)
                    .collect();
                assert_eq!(
                    idx.subtree_range(o).collect::<Vec<_>>(),
                    members,
                    "seed {seed}"
                );
            }
            for &(a, b) in &pairs {
                let anc: Vec<Oid> = db.ancestors(a).collect();
                let reference = db.ancestors(b).find(|x| anc.contains(x)).unwrap();
                assert_eq!(idx.lca(a, b), reference, "seed {seed} {a:?} {b:?}");
                let (lo, hi) = (a.min(b), a.max(b));
                if !db.is_ancestor_or_self(lo, hi) {
                    let min_parent = (lo.index() + 1..=hi.index())
                        .map(|i| db.parent(Oid::from_index(i)).unwrap())
                        .min();
                    assert_eq!(min_parent, Some(reference), "seed {seed} {a:?} {b:?}");
                }
                let expect_d = db.depth(a) + db.depth(b) - 2 * db.depth(reference);
                assert_eq!(idx.distance(a, b), expect_d, "seed {seed} {a:?} {b:?}");
                assert_eq!(
                    idx.is_ancestor_or_self(a, b),
                    db.is_ancestor_or_self(a, b),
                    "seed {seed} {a:?} {b:?}"
                );
                assert_eq!(idx.depth(a), db.depth(a), "seed {seed}");
            }
        }
    });
}

/// The edge relations are a view of the per-path postings. Per path,
/// the postings are the oids with that `σ` in document order;
/// `edges_of` pairs each with its parent, in the same order and never
/// the root; `children_on_path` is a filter of the postings on the
/// parent; the relation counts in `stats()` and the depth statistics
/// (folded from per-path counts) equal what a walk over the nodes
/// gives — on the built store and on one reopened from its snapshot
/// both ways.
#[test]
fn edge_views_and_depth_stats_equal_the_per_node_walk() {
    let dir = std::env::temp_dir().join("ncq-store-edge-views");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for_random_dbs(11, |_, built, seed| {
        let [reopened, owned] = reopen(built, &dir.join(format!("seed-{seed}.ncq")));

        let mut histogram = Vec::new();
        for o in built.iter_oids() {
            let depth = built.depth(o);
            if histogram.len() <= depth {
                histogram.resize(depth + 1, 0);
            }
            histogram[depth] += 1;
        }
        let depth_stats = DepthStats::from_histogram(&histogram);

        for db in [built, &reopened, &owned] {
            let (mut relations, mut associations) = (0, 0);
            for p in db.summary().iter() {
                let oids: Vec<Oid> = db.iter_oids().filter(|&o| db.sigma(o) == p).collect();
                assert_eq!(db.oids_of_path(p), oids, "seed {seed}");
                let edges: Vec<(Oid, Oid)> = oids
                    .iter()
                    .filter_map(|&o| Some((db.parent(o)?, o)))
                    .collect();
                assert_eq!(db.edges_of(p).len(), edges.len(), "seed {seed}");
                assert!(db.edges_of(p).eq(edges.iter().copied()), "seed {seed}");
                relations += !edges.is_empty() as usize;
                associations += edges.len();
                for q in db.iter_oids() {
                    let children: Vec<Oid> = oids
                        .iter()
                        .copied()
                        .filter(|&o| db.parent(o) == Some(q))
                        .collect();
                    assert_eq!(db.children_on_path(p, q), children, "seed {seed} {q:?}");
                }
            }
            let stats = db.stats();
            assert_eq!(
                (stats.edge_relations, stats.edge_associations),
                (relations, associations),
                "seed {seed}"
            );
            assert_eq!(associations, db.node_count() - 1, "seed {seed}");
            assert_eq!(db.depth_stats(), depth_stats, "seed {seed}");
            assert_eq!(db.dump_relations(), built.dump_relations(), "seed {seed}");
        }
    });
}

/// Bulk load costs the same per node whatever the fan-out: ~100 k
/// elements as one root × 100 k children and as a 64-ary tree load
/// within 5× of each other (fastest of three). A per-node scan of the
/// sibling list would put the flat shape ~10⁴× behind.
#[test]
fn ingest_is_linear_in_fan_out() {
    const NODES: usize = 100_000;
    let shaped = |fan_out: usize| {
        let mut doc = Document::new("root");
        let mut nodes = vec![doc.root()];
        for i in 0..NODES {
            let node = doc.add_element(nodes[i / fan_out], "e");
            nodes.push(node);
        }
        doc
    };
    let fastest_load = |doc: &Document| {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let db = MonetDb::from_document(doc);
                let elapsed = start.elapsed();
                assert_eq!(db.node_count(), NODES + 1);
                elapsed
            })
            .min()
            .expect("three runs")
    };
    let flat = fastest_load(&shaped(NODES));
    let tree = fastest_load(&shaped(64));
    assert!(
        flat <= 5 * tree && tree <= 5 * flat,
        "flat fan-out loads in {flat:?}, 64-ary tree in {tree:?}"
    );
}
