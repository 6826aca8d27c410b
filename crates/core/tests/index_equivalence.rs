//! Index equivalence on realistic corpora: on randomized `ncq-datagen`
//! documents (DBLP bibliography and multimedia feature shapes), the
//! indexed primitives must agree exactly with the paper's walk/lift
//! evaluation — `meet2_indexed` ≡ steered `meet2` ≡ `meet2_naive`, and
//! served generalized meet (one stack pass) returns the same ranked
//! answers as the paper's token roll-up.

use ncq_core::{meet2_indexed, Database, MeetOptions};
use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use ncq_fulltext::HitSet;
use ncq_oracle::{meet2, meet2_naive, meet_rollup_ranked};
use ncq_store::Oid;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dblp_db(seed: u64) -> Database {
    let corpus = DblpCorpus::generate(&DblpConfig {
        seed,
        papers_per_edition: 4,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    Database::from_document(&corpus.document)
}

/// Fig. 6's planted distances, 0..=20 edges, four probe pairs each.
const MAX_DISTANCE: usize = 20;
const PROBES: usize = 4;

fn multimedia_db(seed: u64) -> Database {
    let corpus = MultimediaCorpus::generate(&MultimediaConfig {
        seed,
        noise_items: 40,
        max_distance: MAX_DISTANCE,
        probes_per_distance: PROBES,
    });
    Database::from_document(&corpus.document)
}

fn random_oid(rng: &mut StdRng, db: &Database) -> Oid {
    Oid::from_index(rng.random_range(0..db.store().node_count()))
}

#[test]
fn all_three_meet2_implementations_agree_on_corpora() {
    for seed in 0..8u64 {
        for db in [dblp_db(seed), multimedia_db(seed)] {
            let store = db.store();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..500 {
                let a = random_oid(&mut rng, &db);
                let b = random_oid(&mut rng, &db);
                let steered = meet2(store, a, b);
                let naive = meet2_naive(store, a, b);
                let indexed = meet2_indexed(store, a, b);
                assert_eq!(steered.meet, naive.meet, "seed {seed} {a:?} {b:?}");
                assert_eq!(steered.meet, indexed.meet, "seed {seed} {a:?} {b:?}");
                assert_eq!(steered.distance, naive.distance, "seed {seed}");
                assert_eq!(steered.distance, indexed.distance, "seed {seed}");
            }
        }
    }
}

#[test]
fn index_lca_and_distance_match_parent_walks_on_corpora() {
    for seed in 0..4u64 {
        for db in [dblp_db(seed), multimedia_db(seed)] {
            let store = db.store();
            let index = store.meet_index();
            let mut rng = StdRng::seed_from_u64(1 << 32 | seed);
            for _ in 0..500 {
                let a = random_oid(&mut rng, &db);
                let b = random_oid(&mut rng, &db);
                // Reference by ancestor-list intersection.
                let anc: Vec<Oid> = store.ancestors(a).collect();
                let reference = store.ancestors(b).find(|x| anc.contains(x)).unwrap();
                assert_eq!(index.lca(a, b), reference, "seed {seed} {a:?} {b:?}");
                let d = store.depth(a) + store.depth(b) - 2 * store.depth(reference);
                assert_eq!(index.distance(a, b), d, "seed {seed} {a:?} {b:?}");
            }
        }
    }
}

#[test]
fn sweep_meet_multi_matches_rollup_on_corpus_queries() {
    let canonical = |ms: &[ncq_core::Meet]| {
        ms.iter()
            .map(|m| {
                let mut ws: Vec<_> = m
                    .witnesses
                    .iter()
                    .map(|w| (w.origin, w.input, w.climb))
                    .collect();
                ws.sort_unstable();
                (m.node, m.path, m.distance, m.witness_count, ws)
            })
            .collect::<Vec<_>>()
    };
    for seed in 0..4u64 {
        // DBLP: the paper's "ICDE AND year" query at several δ bounds.
        let db = dblp_db(seed);
        let mut years = HitSet::new();
        for y in [1994u16, 1995, 1996] {
            years.union(&db.search_word(&y.to_string()));
        }
        let inputs = [db.search_word("ICDE"), years];
        for max_distance in [None, Some(0), Some(2), Some(6)] {
            let opts = MeetOptions {
                max_distance,
                witness_cap: 1024,
                ..MeetOptions::default()
            };
            let served = db.meet_hits(&inputs, &opts);
            let rollup = meet_rollup_ranked(db.store(), &inputs, &opts);
            assert_eq!(
                canonical(&served),
                canonical(&rollup),
                "seed {seed} δ={max_distance:?}"
            );
        }

        // Multimedia (Fig. 6): every planted probe pair meets once, at
        // exactly its planted distance.
        let db = multimedia_db(seed);
        for (d, k) in (0..=MAX_DISTANCE).flat_map(|d| (0..PROBES).map(move |k| (d, k))) {
            let (ta, tb) = MultimediaCorpus::marker_terms(d, k);
            let inputs = [db.search(&ta), db.search(&tb)];
            let opts = MeetOptions {
                witness_cap: 1024,
                ..MeetOptions::default()
            };
            let served = db.meet_hits(&inputs, &opts);
            let rollup = meet_rollup_ranked(db.store(), &inputs, &opts);
            assert_eq!(
                canonical(&served),
                canonical(&rollup),
                "seed {seed} d={d} k={k}"
            );
            assert_eq!(served.len(), 1, "seed {seed} d={d} k={k}");
            assert_eq!(served[0].distance, d, "seed {seed} d={d} k={k}");
        }
    }
}
