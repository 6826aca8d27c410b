//! Differential harness for `limit k`.
//!
//! `MeetOptions::limit` promises answers byte-identical to the first
//! `k` of the plain unbounded evaluation. This suite proves the promise
//! differentially on random trees — at k ∈ {1, 2, 5}, at k beyond the
//! result size and at the absurd k a hostile client can send, with the
//! paper's roll-up
//! (`reference::meet_rollup_ranked`) as the oracle for the ranking — and
//! once more through the full term pipeline.
//!
//! Seeded loops over the vendored deterministic PRNG stand in for
//! proptest (the offline build cannot fetch it); failures print the
//! seed.

use ncq_fulltext::HitSet;
use nearest_concept::core::reference::meet_rollup_ranked;
use nearest_concept::core::{Meet, MeetOptions};
use nearest_concept::xml::Document;
use nearest_concept::Database;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random tree with text leaves (the snapshot suite's generator): node
/// `i + 1` hangs under a random earlier node; some nodes carry cdata
/// from a small token pool so hit sets overlap between queries.
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

/// Terms the generator's token pool can answer — including a phrase and
/// a word that only occurs inside the phrase, so hit sets of different
/// shapes (and empty ones, on small trees) all show up.
const TERMS: [&str; 7] = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "omega",
    "peaks",
    "twin peaks",
];

/// A meet's rank-relevant fields. The roll-up's witness sample follows
/// absorption order, so the oracle comparison leaves the sample out;
/// the engines are compared byte for byte.
fn ranked(meets: &[Meet]) -> Vec<(usize, usize, usize)> {
    meets
        .iter()
        .map(|m| (m.node.index(), m.distance, m.witness_count))
        .collect()
}

/// `limit k` is the unbounded ranking's prefix: the bounded answer equals `unbounded[..k]` at small k, and equals the
/// full answer when k exceeds the result size; the unbounded ranking is
/// the roll-up's. The k-best selection may skip witness samples but must
/// never change a returned byte, and nothing may be sized by `k`.
#[test]
fn limit_k_equals_the_unbounded_prefix() {
    for seed in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(0x70bb_0000 + seed);
        let doc = random_tree(&mut rng);
        let db = Database::from_document(&doc);
        let hits: Vec<HitSet> = TERMS.iter().map(|t| db.search(t)).collect();
        let n_groups = rng.random_range(2usize..4);
        let inputs: Vec<&HitSet> = (0..n_groups)
            .map(|_| &hits[rng.random_range(0..hits.len())])
            .collect();

        let oracle = meet_rollup_ranked(db.store(), &inputs, &MeetOptions::default());
        let unbounded = db.meet_hits(&inputs, &MeetOptions::default());
        assert_eq!(
            ranked(&unbounded),
            ranked(&oracle),
            "seed {seed}: the engine ranks unlike the roll-up"
        );
        for k in [1usize, 2, 5, unbounded.len() + 100, 1 << 40, usize::MAX] {
            let bounded = db.meet_hits(
                &inputs,
                &MeetOptions {
                    limit: Some(k),
                    ..MeetOptions::default()
                },
            );
            let want = &unbounded[..k.min(unbounded.len())];
            assert_eq!(bounded, want, "seed {seed}: limit {k} != unbounded prefix");
        }
    }
}

/// The same prefix property through the full term pipeline (the
/// ranked `AnswerSet` facade the server and the dialect's `limit k`
/// clause sit on): distances, tags, witness samples and serialized
/// answer XML all come from the unbounded prefix.
#[test]
fn limited_term_queries_answer_the_ranked_prefix() {
    for seed in 0u64..15 {
        let mut rng = StdRng::seed_from_u64(0x9f1d_0000 + seed);
        let doc = random_tree(&mut rng);
        let db = Database::from_document(&doc);
        let terms = ["alpha", "beta", "twin peaks"];
        let full = db.meet_terms(&terms).expect("unbounded");
        for k in [1usize, 2, 5] {
            let options = MeetOptions {
                limit: Some(k),
                ..MeetOptions::default()
            };
            let bounded = db.meet_terms_with(&terms, &options).expect("bounded");
            let cut = k.min(full.results.len());
            assert_eq!(bounded.results, full.results[..cut], "seed {seed}: k = {k}");
        }
    }
}
