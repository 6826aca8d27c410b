//! Sharding equivalence property suite: for random trees and random K,
//! [`ShardedDb::meet_hits`] is identical to [`Database::meet_hits`] —
//! witness samples and result order included — on random hit groups
//! and on the hits of real terms.
//!
//! Seeded loops over a deterministic PRNG stand in for proptest (the
//! offline build cannot fetch it); failures print the seed.

#[path = "../../core/tests/shapes/mod.rs"]
mod shapes;

use ncq_core::{Database, MeetOptions, PathFilter};
use ncq_fulltext::HitSet;
use ncq_shard::ShardedDb;
use ncq_store::Oid;
use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random tree with text leaves: node `i + 1` hangs under a random
/// earlier node; some nodes carry cdata from a small token pool so
/// term hits land on both shards and spine.
fn random_tree(rng: &mut StdRng) -> Document {
    const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
    const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "twin peaks", "omega"];
    let mut doc = Document::new("root");
    let mut nodes = vec![doc.root()];
    let n = rng.random_range(1usize..150);
    for i in 0..n {
        let parent = nodes[rng.random_range(0..nodes.len())];
        let node = doc.add_element(parent, TAGS[i % TAGS.len()]);
        if rng.random_range(0..3usize) == 0 {
            let w1 = WORDS[rng.random_range(0..WORDS.len())];
            let w2 = WORDS[rng.random_range(0..WORDS.len())];
            doc.add_text(node, format!("{w1} {w2}"));
        }
        nodes.push(node);
    }
    doc
}

fn random_oid(rng: &mut StdRng, db: &Database) -> Oid {
    Oid::from_index(rng.random_range(0..db.store().node_count()))
}

/// A random hit group (arbitrary paths).
fn random_hit_set(rng: &mut StdRng, db: &Database) -> HitSet {
    let store = db.store();
    let len = rng.random_range(1usize..15);
    HitSet::from_pairs((0..len).map(|_| {
        let o = random_oid(rng, db);
        (store.sigma(o), o)
    }))
}

const CASES: u64 = 96;

fn random_k(rng: &mut StdRng) -> usize {
    rng.random_range(2usize..9)
}

#[test]
fn meet_multi_is_identical_including_witnesses() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBEEF00 ^ seed);
        let db = Database::from_document(&random_tree(&mut rng));
        let k = random_k(&mut rng);
        // Partitioned over a snapshot reopen, so the partitioner's
        // subtree walks read the meet index's stack masks as views.
        let reopened = Database::from_snapshot_bytes(db.snapshot_to_bytes()).unwrap();
        let sharded = ShardedDb::new(reopened, k);
        for _ in 0..6 {
            let groups = rng.random_range(1usize..4);
            let inputs: Vec<HitSet> = (0..groups).map(|_| random_hit_set(&mut rng, &db)).collect();
            let max_distance = match rng.random_range(0..3usize) {
                0 => None,
                _ => Some(rng.random_range(0usize..8)),
            };
            let filter = match rng.random_range(0..3usize) {
                0 => PathFilter::exclude_root(db.store()),
                _ => PathFilter::All,
            };
            let limit = match rng.random_range(0..3usize) {
                0 => Some(rng.random_range(1usize..6)),
                _ => None,
            };
            let options = MeetOptions {
                max_distance,
                filter,
                witness_cap: rng.random_range(1usize..5),
                limit,
            };
            // Full structural equality: nodes, paths, distances,
            // witness counts AND the capped witness samples, in
            // result order.
            assert_eq!(
                db.meet_hits(&inputs, &options),
                sharded.meet_hits(&inputs, &options),
                "seed {seed} k {k}"
            );
        }
    }
}

/// The shapes the random trees rarely draw (`ncq-core`'s
/// `tests/shapes/mod.rs`), each at a random K under every distance
/// bound, limit and witness cap.
#[test]
fn adversarial_shapes_are_identical_including_witnesses() {
    let mut rng = StdRng::seed_from_u64(0x5AAB);
    for shape in shapes::shapes() {
        let k = random_k(&mut rng);
        let sharded = ShardedDb::new(shape.db.clone(), k);
        for max_distance in shapes::MAX_DISTANCES {
            for limit in shapes::LIMITS {
                for witness_cap in shapes::WITNESS_CAPS {
                    let options = MeetOptions {
                        filter: shape.filter.clone(),
                        max_distance,
                        witness_cap,
                        limit,
                    };
                    assert_eq!(
                        shape.db.meet_hits(&shape.inputs, &options),
                        sharded.meet_hits(&shape.inputs, &options),
                        "{} k {k} {options:?}",
                        shape.name
                    );
                }
            }
        }
    }
}

/// A token rejected by shard-local nodes and accepted on the spine: the
/// shard hands it to the gather with its hits in document order, and
/// the gather, re-closing the shard-local nodes over the same hits,
/// rejects there again before the root accepts.
#[test]
fn a_token_rejected_in_its_shard_is_accepted_on_the_spine() {
    let shape = shapes::shapes()
        .into_iter()
        .find(|s| s.name == "climbing token")
        .unwrap();
    let sharded = ShardedDb::new(shape.db.clone(), 2);
    assert_eq!(sharded.shard_count(), 2);
    let partition = sharded.partition();
    assert!(partition.is_spine(shape.db.store().root()));
    for tag in ["a", "b", "c"] {
        assert!(
            !partition.is_spine(shapes::oid_by_tag(&shape.db, tag)),
            "{tag}"
        );
    }
    let options = MeetOptions {
        max_distance: Some(3),
        ..MeetOptions::default()
    };
    let meets = sharded.meet_hits(&shape.inputs, &options);
    assert_eq!(meets, shape.db.meet_hits(&shape.inputs, &options));
    assert_eq!(meets.len(), 1);
    assert_eq!(meets[0].node, shape.db.store().root());
    assert_eq!((meets[0].distance, meets[0].witness_count), (3, 6));
}

/// The meet over each term's hits, through both engines.
fn assert_terms_agree(db: &Database, sharded: &ShardedDb, terms: &[&str], context: &str) {
    let inputs: Vec<HitSet> = terms.iter().map(|t| db.search(t)).collect();
    let options = MeetOptions::default();
    assert_eq!(
        db.meet_hits(&inputs, &options),
        sharded.meet_hits(&inputs, &options),
        "{context} {terms:?}"
    );
}

#[test]
fn term_hits_meet_identically() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ seed);
        let db = Database::from_document(&random_tree(&mut rng));
        let k = random_k(&mut rng);
        let sharded = ShardedDb::new(db.clone(), k);
        for terms in [
            vec!["alpha", "beta"],
            vec!["gamma", "delta", "omega"],
            vec!["twin peaks", "alpha"],
            vec!["gamm", "absent"],
        ] {
            assert_terms_agree(&db, &sharded, &terms, &format!("seed {seed} k {k}"));
        }
    }
}

#[test]
fn datagen_corpora_match_at_all_k() {
    use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
    let dblp = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 6,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    let mm = MultimediaCorpus::generate(&MultimediaConfig {
        noise_items: 60,
        ..MultimediaConfig::default()
    });
    for doc in [&dblp.document, &mm.document] {
        let db = Database::from_document(doc);
        for k in [1, 2, 4, 8] {
            let sharded = ShardedDb::new(db.clone(), k);
            for terms in [
                vec!["ICDE", "1995"],
                vec!["1990", "1991"],
                vec!["video", "colour"],
                vec!["absent-token", "1999"],
            ] {
                assert_terms_agree(&db, &sharded, &terms, &format!("k {k}"));
            }
        }
    }
}
