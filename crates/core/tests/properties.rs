//! Randomized property tests on random trees: the paper's walks in
//! `ncq-oracle` against an independent ancestor-set LCA and the O(1)
//! index, and the served meet ([`Database::meet_hits`], one stack pass)
//! against the paper's roll-up ([`ncq_oracle::meet_rollup_ranked`]) and
//! against the witness invariants of the generalized meet.
//!
//! Seeded loops over a deterministic PRNG stand in for proptest (the
//! offline build cannot fetch it); failures print the seed.

use ncq_core::{meet2_indexed, Database, Meet, MeetOptions};
use ncq_fulltext::HitSet;
use ncq_oracle::{meet2, meet2_naive, meet_rollup_ranked, meet_sets, shapes, TreeDraw};
use ncq_store::{MonetDb, Oid};
use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Bare elements, 1..120 of them (tags only: no text, no attributes).
fn random_tree(rng: &mut StdRng) -> Document {
    ncq_oracle::random_tree(rng, &TreeDraw::TAGS)
}

/// Independent LCA reference: intersect full ancestor lists.
fn reference_lca(db: &MonetDb, a: Oid, b: Oid) -> (Oid, usize) {
    let anc_a: Vec<Oid> = db.ancestors(a).collect();
    let set_a: HashSet<Oid> = anc_a.iter().copied().collect();
    for (climb_b, anc) in db.ancestors(b).enumerate() {
        if set_a.contains(&anc) {
            let climb_a = anc_a.iter().position(|&x| x == anc).unwrap();
            return (anc, climb_a + climb_b);
        }
    }
    unreachable!("all nodes share the root");
}

fn random_oid(rng: &mut StdRng, db: &MonetDb) -> Oid {
    Oid::from_index(rng.random_range(0..db.node_count()))
}

const CASES: u64 = 128;

/// Steered meet2 equals the ancestor-set reference, the naive baseline,
/// and the indexed fast path, with exact distances.
#[test]
fn meet2_matches_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = MonetDb::from_document(&random_tree(&mut rng));
        for _ in 0..rng.random_range(1usize..20) {
            let a = random_oid(&mut rng, &db);
            let b = random_oid(&mut rng, &db);
            let (ref_meet, ref_dist) = reference_lca(&db, a, b);
            let steered = meet2(&db, a, b);
            let naive = meet2_naive(&db, a, b);
            let indexed = meet2_indexed(&db, a, b);
            assert_eq!(steered.meet, ref_meet, "seed {seed} {a:?} {b:?}");
            assert_eq!(steered.distance, ref_dist, "seed {seed} {a:?} {b:?}");
            assert_eq!(naive.meet, ref_meet, "seed {seed} {a:?} {b:?}");
            assert_eq!(naive.distance, ref_dist, "seed {seed} {a:?} {b:?}");
            assert_eq!(indexed.meet, ref_meet, "seed {seed} {a:?} {b:?}");
            assert_eq!(indexed.distance, ref_dist, "seed {seed} {a:?} {b:?}");
            assert_eq!(steered.lookups, steered.distance);
            assert_eq!(indexed.lookups, 0);
        }
    }
}

/// meet2 algebra: commutative, idempotent, absorbs ancestors.
#[test]
fn meet2_algebraic_laws() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1 << 32 | seed);
        let db = MonetDb::from_document(&random_tree(&mut rng));
        let a = random_oid(&mut rng, &db);
        let b = random_oid(&mut rng, &db);
        assert_eq!(meet2(&db, a, b).meet, meet2(&db, b, a).meet, "seed {seed}");
        assert_eq!(meet2(&db, a, a).meet, a, "seed {seed}");
        let m = meet2(&db, a, b).meet;
        // The meet is a common ancestor…
        assert!(db.is_ancestor_or_self(m, a), "seed {seed}");
        assert!(db.is_ancestor_or_self(m, b), "seed {seed}");
        // …and meeting with it is absorbing.
        assert_eq!(meet2(&db, a, m).meet, m, "seed {seed}");
        assert_eq!(meet2(&db, m, b).meet, m, "seed {seed}");
    }
}

/// Set meet on singletons coincides with meet2.
#[test]
fn meet_sets_singletons_match_meet2() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2 << 32 | seed);
        let db = MonetDb::from_document(&random_tree(&mut rng));
        let a = random_oid(&mut rng, &db);
        let b = random_oid(&mut rng, &db);
        let expect = meet2(&db, a, b).meet;
        let result = meet_sets(&db, &[a], &[b]).unwrap();
        assert_eq!(result.meets.len(), 1, "seed {seed}");
        assert_eq!(result.meets[0].0, expect, "seed {seed}");
    }
}

/// Every meet_sets result is minimal: the meet2 — the *lowest* common
/// ancestor, not just a common one — of one element from each input set.
#[test]
fn meet_sets_results_are_minimal_against_meet2() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3 << 32 | seed);
        let db = MonetDb::from_document(&random_tree(&mut rng));
        // Homogeneous sets: group oids by path, keep the populated ones.
        let mut by_path: std::collections::HashMap<_, Vec<Oid>> = Default::default();
        for o in db.iter_oids() {
            by_path.entry(db.sigma(o)).or_default().push(o);
        }
        let mut groups: Vec<Vec<Oid>> = by_path.into_values().collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        if groups.len() < 2 {
            continue;
        }
        let s1 = &groups[0];
        let s2 = &groups[rng.random_range(1..groups.len())];
        let result = meet_sets(&db, s1, s2).unwrap();
        for &(m, _) in &result.meets {
            assert!(
                s1.iter()
                    .any(|&a| s2.iter().any(|&b| meet2(&db, a, b).meet == m)),
                "seed {seed}: {m:?} is not the meet2 of any cross pair"
            );
        }
    }
}

/// Random hit groups over a random tree.
fn random_inputs(rng: &mut StdRng, db: &MonetDb, max_groups: usize, picks: usize) -> Vec<HitSet> {
    let mut groups: Vec<Vec<(ncq_store::PathId, Oid)>> = vec![Vec::new(); max_groups];
    for _ in 0..picks {
        let o = random_oid(rng, db);
        let g = rng.random_range(0..max_groups);
        groups[g].push((db.sigma(o), o));
    }
    groups
        .iter()
        .map(|g| HitSet::from_pairs(g.iter().copied()))
        .collect()
}

/// The paper's roll-up over the same inputs, ranked and cut.
fn rollup(db: &Database, inputs: &[HitSet], options: &MeetOptions) -> Vec<Meet> {
    meet_rollup_ranked(db.store(), inputs, options)
}

/// Generalized-meet invariants: witnesses' pairwise LCA is exactly the
/// meet node; the reported distance is the closest witness pair's
/// distance; every hit is consumed by exactly one meet, except at most
/// one lone survivor (which dies at the root). The served meet returns
/// exactly the roll-up's ranked meets, witness for witness.
#[test]
fn meet_multi_witness_invariants_and_sweep_agrees() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4 << 32 | seed);
        let facade = Database::from_document(&random_tree(&mut rng));
        let db = facade.store();
        let picks = rng.random_range(2usize..24);
        let inputs = random_inputs(&mut rng, db, 4, picks);
        let total_hits: usize = inputs.iter().map(HitSet::len).sum();

        let opts = MeetOptions {
            witness_cap: 64,
            ..MeetOptions::default()
        };
        let meets = facade.meet_hits(&inputs, &opts);

        let mut consumed = 0usize;
        for m in &meets {
            assert!(m.witness_count >= 2, "seed {seed}");
            consumed += m.witness_count;
            // Witness sample is complete thanks to the high cap.
            assert_eq!(m.witnesses.len(), m.witness_count, "seed {seed}");
            let mut best = usize::MAX;
            for (i, w1) in m.witnesses.iter().enumerate() {
                // climb is the real tree distance origin → meet.
                let (lca_om, d_om) = reference_lca(db, w1.origin, m.node);
                assert_eq!(lca_om, m.node, "seed {seed}");
                assert_eq!(d_om, w1.climb, "seed {seed}");
                for w2 in m.witnesses.iter().skip(i + 1) {
                    if (w1.origin, w1.input) == (w2.origin, w2.input) {
                        continue;
                    }
                    let (lca, d) = reference_lca(db, w1.origin, w2.origin);
                    assert_eq!(
                        lca, m.node,
                        "seed {seed}: witness pair LCA must be the meet"
                    );
                    best = best.min(d);
                }
            }
            assert_eq!(m.distance, best, "seed {seed}");
        }
        // Conservation: all hits consumed, minus at most one lone token.
        assert!(
            total_hits - consumed <= 1,
            "seed {seed}: hits={total_hits} consumed={consumed}"
        );

        // The paper's roll-up is witness-for-witness identical.
        let oracle = rollup(&facade, &inputs, &opts);
        let canonical = |ms: &[Meet]| {
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
        assert_eq!(canonical(&meets), canonical(&oracle), "seed {seed}");
    }
}

/// The generalized meet is invariant under permutation of the input
/// groups, served and in the paper's roll-up.
#[test]
fn meet_multi_is_order_invariant() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5 << 32 | seed);
        let db = Database::from_document(&random_tree(&mut rng));
        let picks = rng.random_range(2usize..18);
        let inputs = random_inputs(&mut rng, db.store(), 3, picks);
        let inputs_rev: Vec<HitSet> = inputs.iter().rev().cloned().collect();
        let key = |ms: Vec<Meet>| -> Vec<(Oid, usize, usize)> {
            ms.iter()
                .map(|m| (m.node, m.distance, m.witness_count))
                .collect()
        };
        let opts = MeetOptions::default();
        assert_eq!(
            key(db.meet_hits(&inputs, &opts)),
            key(db.meet_hits(&inputs_rev, &opts)),
            "seed {seed} served"
        );
        assert_eq!(
            key(rollup(&db, &inputs, &opts)),
            key(rollup(&db, &inputs_rev, &opts)),
            "seed {seed} roll-up"
        );
    }
}

/// Under the distance bound meet^δ every answer respects the bound, the
/// served meet agrees with the roll-up, and each answer is an unbounded
/// one or a proper ancestor of an unbounded answer farther apart than δ:
/// the hits of a meet that fails δ climb on (Fig. 5) and may pair with
/// a closer hit higher up, so δ can promote an answer, not only drop it.
#[test]
fn max_distance_is_monotone_and_sweep_agrees() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6 << 32 | seed);
        let db = Database::from_document(&random_tree(&mut rng));
        let picks = rng.random_range(2usize..16);
        let inputs = random_inputs(&mut rng, db.store(), 2, picks);
        let delta = rng.random_range(0usize..12);
        let opts = MeetOptions {
            max_distance: Some(delta),
            ..MeetOptions::default()
        };
        let bounded = db.meet_hits(&inputs, &opts);
        for m in &bounded {
            assert!(m.distance <= delta, "seed {seed}");
            assert!(m.witness_count >= 2, "seed {seed}");
        }
        let oracle = rollup(&db, &inputs, &opts);
        let key = |ms: &[Meet]| {
            ms.iter()
                .map(|m| (m.node, m.distance, m.witness_count))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&bounded), key(&oracle), "seed {seed} δ={delta}");
        let unbounded = db.meet_hits(&inputs, &MeetOptions::default());
        for m in &bounded {
            let kept = unbounded.iter().any(|u| u.node == m.node);
            let promoted = unbounded
                .iter()
                .any(|u| u.distance > delta && db.store().is_ancestor_or_self(m.node, u.node));
            assert!(kept || promoted, "seed {seed} δ={delta}: {:?}", m.node);
        }
    }
}

/// The shapes of `ncq_oracle::shapes`, each under every distance bound,
/// limit and witness cap: the served meet returns the roll-up's ranked
/// meets with the same witnesses, its capped sample is the first `cap`
/// witnesses in document order, and `limit k` is the unbounded prefix.
#[test]
fn adversarial_shapes_agree_with_the_roll_up() {
    for shape in shapes::shapes() {
        let name = shape.name;
        for max_distance in shapes::MAX_DISTANCES {
            let options = |witness_cap, limit| MeetOptions {
                filter: shape.filter.clone(),
                max_distance,
                witness_cap,
                limit,
            };
            let run = |options: &MeetOptions| shape.db.meet_hits(&shape.inputs, options);

            let oracle = rollup(&shape.db, &shape.inputs, &options(usize::MAX, None));
            let full = run(&options(usize::MAX, None));
            // The roll-up absorbs tokens path by path, the served pass
            // in document order: same witnesses, compared as sets.
            let mut sorted = oracle.clone();
            for m in &mut sorted {
                m.witnesses.sort_unstable_by_key(|w| (w.origin, w.input));
            }
            assert_eq!(sorted, full, "{name} δ={max_distance:?}");
            for m in &full {
                assert_eq!(m.witnesses.len(), m.witness_count, "{name}");
                assert!(max_distance.is_none_or(|d| m.distance <= d), "{name}");
            }

            for witness_cap in shapes::WITNESS_CAPS {
                let capped: Vec<Meet> = full
                    .iter()
                    .map(|m| Meet {
                        witnesses: m.witnesses[..witness_cap.min(m.witness_count)].to_vec(),
                        ..m.clone()
                    })
                    .collect();
                let unbounded = run(&options(witness_cap, None));
                assert_eq!(
                    unbounded, capped,
                    "{name} δ={max_distance:?} cap={witness_cap}"
                );
                for limit in shapes::LIMITS {
                    let bounded = run(&options(witness_cap, limit));
                    let k = limit.unwrap_or(usize::MAX).min(unbounded.len());
                    assert_eq!(
                        bounded,
                        unbounded[..k],
                        "{name} δ={max_distance:?} cap={witness_cap} limit={limit:?}"
                    );
                }
            }
        }
    }
}

/// What each shape is there to show, spelled out.
#[test]
fn adversarial_shapes_have_the_answers_they_were_built_for() {
    let shapes = shapes::shapes();
    let sweep = |name: &str, max_distance| {
        let shape = shapes.iter().find(|s| s.name == name).expect(name);
        let options = MeetOptions {
            filter: shape.filter.clone(),
            max_distance,
            ..MeetOptions::default()
        };
        (shape, shape.db.meet_hits(&shape.inputs, &options))
    };

    // One meet, exact count, sample capped.
    let (shape, star) = sweep("star", None);
    assert_eq!(star.len(), 1);
    assert_eq!(star[0].node, shape.db.store().root());
    assert_eq!((star[0].distance, star[0].witness_count), (2, 10_000));
    assert_eq!(star[0].witnesses.len(), MeetOptions::default().cap());

    // Nested hits pair off bottom-up; under δ = 0 nothing is close
    // enough anywhere on the chain.
    assert_eq!(sweep("chain", None).1.len(), 150);
    assert!(sweep("chain", Some(0)).1.is_empty());

    let (shape, same) = sweep("same oid", Some(0));
    assert_eq!(same.len(), 1);
    assert_eq!(same[0].node, shapes::oid_by_tag(&shape.db, "x"));
    assert_eq!((same[0].distance, same[0].witness_count), (0, 3));

    let (shape, attrs) = sweep("attribute pair", Some(0));
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].node, shapes::oid_by_tag(&shape.db, "e"));
    assert_eq!((attrs[0].distance, attrs[0].witness_count), (0, 2));

    // Every LCA on the spine, leaves paired off two levels at a time.
    for name in ["comb, leaf first", "comb, leaf last"] {
        let (shape, comb) = sweep(name, None);
        assert_eq!(comb.len(), 100, "{name}");
        assert!(comb.iter().all(|m| m.distance == 3), "{name}");
        let store = shape.db.store();
        assert!(comb
            .iter()
            .all(|m| m.node == store.root() || store.tag(m.node) == Some("s")));
    }

    // Rejected at <a>, <b> and <c>, accepted at the root on 0 + 3 with
    // everything that climbed as witnesses, in document order.
    let (shape, climbed) = sweep("climbing token", Some(3));
    assert_eq!(climbed.len(), 1);
    assert_eq!(climbed[0].node, shape.db.store().root());
    assert_eq!((climbed[0].distance, climbed[0].witness_count), (3, 6));
    let climbs: Vec<usize> = climbed[0].witnesses.iter().map(|w| w.climb).collect();
    assert_eq!(climbs, [0, 3, 7, 7, 6, 20]);

    // <x>'s hits are consumed by the suppressed meet: only <z> answers.
    let (shape, suppressed) = sweep("suppressed meet", None);
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].node, shapes::oid_by_tag(&shape.db, "z"));
}
