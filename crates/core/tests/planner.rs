//! Depth regression tests: seeded-PRNG corpora at depth ∈ {3, 16, 256}
//! pin (a) that `Database::meet_hits` returns the paper's roll-up's
//! ranked meets (`ncq_oracle::meet_rollup_ranked`), and (b) that the
//! roll-up's cost model, which the benchmark's tracer still reads, picks
//! the roll-up on a small flat input and the stack pass on deep or large
//! ones — the flat-row regression recorded in CHANGES.md.

use ncq_core::{ChosenStrategy, Database, Meet, MeetOptions};
use ncq_fulltext::HitSet;
use ncq_oracle::{meet_rollup_ranked, meet_sets};
use ncq_store::Oid;
use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A corpus whose marker cdatas sit at exactly `depth`: `records` record
/// heads under the root, each carrying a chain of `depth - 3` inner
/// elements (so root=0, record=1, chain…, a/b, cdata=depth), ending in a
/// randomized number of `<a>s</a>` / `<b>t</b>` leaf pairs plus noise
/// children. Seeded, so every run builds the same trees.
fn corpus(seed: u64, depth: usize, records: usize) -> Database {
    assert!(depth >= 3, "root/record/a/cdata is already depth 3");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = Document::new("root");
    for _ in 0..records {
        let head = doc.add_element(doc.root(), "record");
        let mut cur = head;
        for _ in 0..depth - 3 {
            cur = doc.add_element(cur, "link");
            // Noise siblings keep OID gaps irregular.
            for _ in 0..rng.random_range(0usize..2) {
                doc.add_element(cur, "pad");
            }
        }
        for _ in 0..rng.random_range(1usize..4) {
            let a = doc.add_element(cur, "a");
            doc.add_text(a, "s");
            let b = doc.add_element(cur, "b");
            doc.add_text(b, "t");
        }
    }
    Database::from_document(&doc)
}

/// The two marker hit groups (every `s` cdata, every `t` cdata) — what
/// `MEET s t` resolves to.
fn marker_hits(db: &Database) -> [HitSet; 2] {
    ["s", "t"].map(|needle| db.search_word(needle))
}

fn options() -> MeetOptions {
    MeetOptions {
        witness_cap: 1024,
        ..MeetOptions::default()
    }
}

/// Ranked meets with each witness sample put in a canonical order:
/// the roll-up absorbs witnesses path level by path level, the served
/// pass lists them in document order — the same set either way.
fn canonical(meets: &[Meet]) -> Vec<Meet> {
    let mut meets = meets.to_vec();
    for m in &mut meets {
        m.witnesses.sort_unstable_by_key(|w| (w.origin, w.input));
    }
    meets
}

const DEPTHS: [usize; 3] = [3, 16, 256];

#[test]
fn sweep_and_rollup_agree_at_every_depth() {
    for (i, &depth) in DEPTHS.iter().enumerate() {
        for seed in 0..8u64 {
            let records = if depth >= 256 { 6 } else { 24 };
            let db = corpus((i as u64) << 32 | seed, depth, records);
            let inputs = marker_hits(&db);
            let oids = |h: &HitSet| -> Vec<Oid> { h.iter().map(|(_, o)| o).collect() };
            let (s, t) = (oids(&inputs[0]), oids(&inputs[1]));
            assert!(!s.is_empty() && !t.is_empty());
            assert_eq!(db.store().depth(s[0]), depth, "marker depth is exact");
            let served = canonical(&db.meet_hits(&inputs, &options()));
            assert!(
                served == canonical(&meet_rollup_ranked(db.store(), &inputs, &options())),
                "depth {depth} seed {seed}: served meet and roll-up diverged"
            );
            // On this shape (every s has a t under the same parent) the
            // generalized meet finds exactly the Fig. 4 minimal meets:
            // one per record.
            let mut oracle = meet_sets(db.store(), &s, &t).unwrap().oids();
            oracle.sort_unstable();
            let mut nodes: Vec<Oid> = served.iter().map(|m| m.node).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, oracle, "depth {depth} seed {seed}");
            assert_eq!(nodes.len(), records);
        }
    }
}

#[test]
fn planner_picks_rollup_flat_and_sweep_deep() {
    // Flat and small: ≤ 8 · 3 · 2 = 48 hits at depth 3.
    let flat = corpus(0xF1A7, 3, 8);
    let plan = flat.planner().plan_multi(&marker_hits(&flat));
    assert_eq!(
        plan.strategy,
        ChosenStrategy::Lift,
        "flat corpus (depth 3, {} hits) must roll up: {plan:?}",
        plan.hits
    );

    // Flat but large: the roll-up's per-token hashing loses past 64
    // hits whatever the depth (64 records carry ≥ 128).
    let wide = corpus(0xF1A7, 3, 64);
    let plan = wide.planner().plan_multi(&marker_hits(&wide));
    assert_eq!(plan.strategy, ChosenStrategy::Sweep, "{plan:?}");
    assert!(plan.est_rounds <= plan.round_budget, "{plan:?}");

    let deep = corpus(0xDEEB, 256, 8);
    let plan = deep.planner().plan_multi(&marker_hits(&deep));
    assert_eq!(
        plan.strategy,
        ChosenStrategy::Sweep,
        "deep corpus (depth 256, {} hits) must sweep: {plan:?}",
        plan.hits
    );
    assert_eq!(plan.est_rounds, 256);
}

#[test]
fn planner_empty_input_regression() {
    let db = corpus(0, 3, 4);
    let [s, _] = marker_hits(&db);
    let none: [HitSet; 0] = [];
    assert_eq!(db.planner().plan_multi(&none).hits, 0);
    assert!(db.meet_hits(&none, &options()).is_empty());
    assert!(meet_rollup_ranked(db.store(), &none, &options()).is_empty());
    // An empty group next to a populated one contributes nothing: the
    // populated group still meets within itself.
    let empty = HitSet::new();
    let alone = db.meet_hits(&[&s], &options());
    let padded = db.meet_hits(&[&s, &empty], &options());
    assert!(!alone.is_empty() && alone == padded);
    assert_eq!(
        canonical(&padded),
        canonical(&meet_rollup_ranked(db.store(), &[&s, &empty], &options()))
    );
}
