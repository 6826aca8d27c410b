//! The served meet ([`ncq_core::sweep::meet_hits`], one stack pass)
//! against the declarative spec ([`ncq_oracle::spec`]):
//!
//! * exhaustively: every ordered tree of up to 7 nodes (197 shapes) ×
//!   every two-term hit assignment (4ⁿ: each node hit by neither term,
//!   either or both) × every δ ∈ {none, 0 … 6}; on 7 nodes no two hits
//!   lie more than 6 edges apart, so δ = 6 is the last bound that can
//!   differ from none. An assignment and its term-swapped twin run
//!   once. Release builds only; it prints its wall time;
//! * sampled: random trees of up to 150 elements with text and `key`
//!   attributes, three hit groups, a random `meet_Π` and a random δ,
//!   and the same groups permuted.
//!
//! Both sides compare every answer: node, distance and every witness
//! (node and term) in document order.
//!
//! Three properties one might expect of a nearest-concept answer do
//! not hold under Fig. 5, and so not under the spec either. Each is
//! pinned with its smallest counterexample (fewest nodes, then fewest
//! hits), on which the served pass is checked to agree with the spec.

use ncq_core::sweep::meet_hits;
use ncq_core::{Database, Meet, MeetOptions, PathFilter};
use ncq_fulltext::HitSet;
use ncq_oracle::spec::{self, Answer, Hit, Tree};
use ncq_oracle::trees::{ordered_trees, WORDS};
use ncq_oracle::TreeDraw;
use ncq_store::{MonetDb, Oid, PathId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const DELTAS: [Option<usize>; 8] = [
    None,
    Some(0),
    Some(1),
    Some(2),
    Some(3),
    Some(4),
    Some(5),
    Some(6),
];

/// Hit assignment `a` on an `n`-node tree: bit `2v + t` puts a hit of
/// term `t` on node `v`.
fn assignment(n: usize, a: usize) -> Vec<Hit> {
    (0..n)
        .flat_map(|node| (0..2).map(move |term| Hit { node, term }))
        .filter(|h| a >> (2 * h.node + h.term) & 1 == 1)
        .collect()
}

/// One hit group per term, as the full-text search hands them over.
fn hit_sets(store: &MonetDb, hits: &[Hit], terms: usize) -> Vec<HitSet> {
    (0..terms)
        .map(|t| {
            HitSet::from_pairs(hits.iter().filter(|h| h.term == t).map(|h| {
                let o = Oid::from_index(h.node);
                (store.sigma(o), o)
            }))
        })
        .collect()
}

/// The hits of `inputs`, group `t` as term `t`.
fn spec_hits(inputs: &[HitSet]) -> Vec<Hit> {
    inputs
        .iter()
        .enumerate()
        .flat_map(|(term, h)| {
            h.iter().map(move |(_, o)| Hit {
                node: o.index(),
                term,
            })
        })
        .collect()
}

/// The served meet's answers in the spec's terms and order: every
/// witness, meets in document order.
fn served(store: &MonetDb, inputs: &[HitSet], options: &MeetOptions) -> Vec<Answer> {
    let options = MeetOptions {
        witness_cap: usize::MAX,
        limit: None,
        ..options.clone()
    };
    let mut meets = meet_hits(store, inputs, &options);
    meets.sort_unstable_by_key(|m| m.node);
    meets
        .iter()
        .map(|m| {
            assert_eq!(m.witness_count, m.witnesses.len());
            Answer {
                node: m.node.index(),
                distance: m.distance,
                witnesses: m
                    .witnesses
                    .iter()
                    .map(|w| Hit {
                        node: w.origin.index(),
                        term: w.input,
                    })
                    .collect(),
            }
        })
        .collect()
}

fn options(max_distance: Option<usize>) -> MeetOptions {
    MeetOptions {
        max_distance,
        ..MeetOptions::default()
    }
}

/// Whether the served meets are the spec's answers: node, distance
/// and every witness, in document order.
fn agree(mut meets: Vec<Meet>, answers: &[Answer]) -> bool {
    meets.sort_unstable_by_key(|m| m.node);
    meets.len() == answers.len()
        && meets.iter().zip(answers).all(|(m, a)| {
            m.node.index() == a.node
                && m.distance == a.distance
                && m.witness_count == a.witnesses.len()
                && m.witnesses.len() == a.witnesses.len()
                && m.witnesses
                    .iter()
                    .zip(&a.witnesses)
                    .all(|(w, h)| (w.origin.index(), w.input) == (h.node, h.term))
        })
}

/// Assignment `a` with the two terms swapped.
fn swapped(a: usize) -> usize {
    const TERM_0: usize = 0x5555_5555;
    (a & TERM_0) << 1 | (a >> 1) & TERM_0
}

/// Served against spec on every assignment of one tree, under every δ;
/// returns the number of assignments checked.
///
/// Neither side reads a hit group's index except to label a witness,
/// so an assignment and its term-swapped twin answer alike up to that
/// label (the random-tree suite checks permutations of the served pass
/// directly): only the smaller of each pair is run. A δ no two hits can
/// exceed, twice the tree's height, answers as δ = none does, so the
/// spec is evaluated once for those.
fn check_tree(tree: &Tree) -> usize {
    let store = MonetDb::from_document(&tree.document());
    let every = DELTAS.map(|delta| MeetOptions {
        max_distance: delta,
        witness_cap: usize::MAX,
        ..MeetOptions::default()
    });
    let n = tree.len();
    let widest = 2 * (0..n).map(|v| tree.depth(v)).max().unwrap_or(0);
    let mut checked = 0;
    for a in (0..1usize << (2 * n)).filter(|&a| a <= swapped(a)) {
        let hits = assignment(n, a);
        let inputs = hit_sets(&store, &hits, 2);
        let unbounded = spec::meet(tree, &hits, None, |_| true);
        for options in &every {
            let expected = match options.max_distance {
                Some(d) if d < widest => spec::meet(tree, &hits, Some(d), |_| true),
                _ => unbounded.clone(),
            };
            if !agree(meet_hits(&store, &inputs, options), &expected) {
                panic!(
                    "{} δ={:?}: served {:?}, spec {expected:?}",
                    spec::render(tree, &hits),
                    options.max_distance,
                    served(&store, &inputs, options),
                );
            }
        }
        checked += 1;
    }
    checked
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: exhaustive")]
fn served_pass_is_the_spec_on_every_small_tree() {
    let started = Instant::now();
    let trees: Vec<Tree> = (1..=7)
        .flat_map(ordered_trees)
        .map(|parents| Tree::from_parents(&parents))
        .collect();
    assert_eq!(trees.len(), 197);
    let assignments: usize = trees.iter().map(|t| 1 << (2 * t.len())).sum();
    // Two threads, trees dealt alternately: the 132 seven-node trees
    // dominate and split evenly.
    let checked: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|k| {
                let trees = &trees;
                s.spawn(move || {
                    trees
                        .iter()
                        .skip(k)
                        .step_by(2)
                        .map(check_tree)
                        .sum::<usize>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    // Of 4ⁿ assignments 2ⁿ are their own twin: (4ⁿ + 2ⁿ) / 2 per tree.
    let twins: usize = trees.iter().map(|t| 1 << t.len()).sum();
    assert_eq!(checked, (assignments + twins) / 2);
    println!(
        "exhaustive: {} trees × {assignments} hit assignments ({checked} up to the term \
         swap) × {} bounds: {} served calls, 0 disagreements, {:.2} s on 2 threads",
        trees.len(),
        DELTAS.len(),
        checked * DELTAS.len(),
        started.elapsed().as_secs_f64()
    );
}

#[test]
fn served_pass_is_the_spec_on_random_trees() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5EC << 32 | seed);
        let db =
            Database::from_document(&ncq_oracle::random_tree(&mut rng, &TreeDraw::TEXT_AND_KEYS));
        let store = db.store();
        let tree = Tree::of(store);
        // Two pool words (attribute hits included) and a random group.
        let mut inputs: Vec<HitSet> = (0..2)
            .map(|_| db.search(WORDS[rng.random_range(0..WORDS.len())]))
            .collect();
        inputs.push(HitSet::from_pairs((0..rng.random_range(0usize..12)).map(
            |_| {
                let o = Oid::from_index(rng.random_range(0..store.node_count()));
                (store.sigma(o), o)
            },
        )));
        let paths: Vec<PathId> = store
            .summary()
            .iter()
            .filter(|_| rng.random_range(0..4usize) == 0)
            .collect();
        let filter = match rng.random_range(0..3usize) {
            0 => PathFilter::All,
            1 => PathFilter::excluding(paths),
            _ => PathFilter::allowing(paths),
        };
        let max_distance = match rng.random_range(0..3usize) {
            0 => None,
            _ => Some(rng.random_range(0usize..10)),
        };
        let options = MeetOptions {
            filter: filter.clone(),
            max_distance,
            ..MeetOptions::default()
        };
        let accepts = |v| filter.accepts(store.sigma(Oid::from_index(v)));
        let expected = spec::meet(&tree, &spec_hits(&inputs), max_distance, accepts);
        let answers = served(store, &inputs, &options);
        assert_eq!(answers, expected, "seed {seed}");

        // Permuted groups: the same answers, the witnesses relabelled.
        let order = [2, 0, 1];
        let permuted: Vec<HitSet> = order.iter().map(|&t| inputs[t].clone()).collect();
        let relabelled: Vec<Answer> = served(store, &permuted, &options)
            .into_iter()
            .map(|mut a| {
                for w in &mut a.witnesses {
                    w.term = order[w.term];
                }
                a.witnesses.sort_unstable();
                a
            })
            .collect();
        assert_eq!(relabelled, answers, "seed {seed} permuted");
    }
}

/// `(node, distance)` of each answer.
fn nodes(answers: &[Answer]) -> Vec<(usize, usize)> {
    answers.iter().map(|a| (a.node, a.distance)).collect()
}

/// The smallest case on at most `max_nodes` nodes (fewest nodes, then
/// fewest hits, then first in enumeration order) on which `fails`
/// describes a failure, with the case drawn by [`spec::render`] before
/// the description.
fn smallest(
    max_nodes: usize,
    fails: impl Fn(&Tree, &[Hit]) -> Option<String>,
) -> Option<(Tree, Vec<Hit>, String)> {
    for n in 1..=max_nodes {
        let mut best: Option<(Tree, Vec<Hit>, String)> = None;
        for parents in ordered_trees(n) {
            let tree = Tree::from_parents(&parents);
            for a in 0..1usize << (2 * n) {
                let hits = assignment(n, a);
                if best.as_ref().is_some_and(|b| b.1.len() <= hits.len()) {
                    continue;
                }
                if let Some(why) = fails(&tree, &hits) {
                    let drawn = format!("{}: {why}", spec::render(&tree, &hits));
                    best = Some((tree.clone(), hits, drawn));
                }
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

/// The served pass answers `hits` (up to three terms) as the spec does,
/// under every δ.
fn served_agrees(tree: &Tree, hits: &[Hit]) {
    let store = MonetDb::from_document(&tree.document());
    let inputs = hit_sets(&store, hits, 3);
    for delta in DELTAS {
        let expected = spec::meet(tree, hits, delta, |_| true);
        assert_eq!(served(&store, &inputs, &options(delta)), expected);
    }
}

/// δ is not a filter over the unbounded answers: a node that fails δ
/// lets its hits climb, and an ancestor may become an answer the
/// unbounded meet does not have (ROADMAP 14; seed 100 of
/// `max_distance_is_monotone_and_sweep_agrees` answers the root so).
#[test]
fn delta_is_not_a_filter_over_the_unbounded_answers() {
    let fails = |tree: &Tree, hits: &[Hit]| {
        let unbounded = nodes(&spec::meet(tree, hits, None, |_| true));
        DELTAS[1..].iter().find_map(|&delta| {
            let bounded = nodes(&spec::meet(tree, hits, delta, |_| true));
            let d = delta.unwrap();
            let filtered: Vec<_> = unbounded.iter().copied().filter(|a| a.1 <= d).collect();
            (bounded != filtered).then(|| {
                format!(
                    "δ = {d} answers {bounded:?}; the unbounded answers within δ are {filtered:?}"
                )
            })
        })
    };
    let (tree, hits, found) = smallest(5, fails).expect("δ filters on every tree of ≤ 5 nodes");
    served_agrees(&tree, &hits);
    assert_eq!(
        found,
        "0[a](1[a](2(3[a]))): δ = 1 answers [(0, 1)]; the unbounded answers within δ are []"
    );
}

/// Hits of one term meet each other: an answer need not have a witness
/// of every term, even when every term has hits.
#[test]
fn an_answer_need_not_witness_every_term() {
    let fails = |tree: &Tree, hits: &[Hit]| {
        let terms = |hs: &[Hit]| (0..2).filter(|&t| hs.iter().any(|h| h.term == t)).count();
        if terms(hits) < 2 {
            return None;
        }
        let answers = spec::meet(tree, hits, None, |_| true);
        answers.iter().find(|a| terms(&a.witnesses) < 2).map(|a| {
            let witnesses: Vec<String> = a
                .witnesses
                .iter()
                .map(|h| format!("{}{}", h.node, char::from(b'a' + h.term as u8)))
                .collect();
            format!("node {} answers with witnesses {witnesses:?}", a.node)
        })
    };
    let (tree, hits, found) = smallest(5, fails).expect("every answer witnesses every term");
    served_agrees(&tree, &hits);
    assert_eq!(
        found,
        r#"0[b](1[a](2[a])): node 1 answers with witnesses ["1a", "2a"]"#
    );
}

/// A repeated term is a second hit group: each of its hits meets its own
/// copy, at distance 0 (`MEET x x` answers every hit of `x`).
#[test]
fn a_repeated_term_changes_the_answers() {
    let doubled = |hits: &[Hit]| {
        let mut doubled = hits.to_vec();
        doubled.extend(
            hits.iter()
                .filter(|h| h.term == 0)
                .map(|h| Hit { term: 2, ..*h }),
        );
        doubled
    };
    let fails = |tree: &Tree, hits: &[Hit]| {
        let once = nodes(&spec::meet(tree, hits, None, |_| true));
        let twice = nodes(&spec::meet(tree, &doubled(hits), None, |_| true));
        (once != twice).then(|| format!("term a once answers {once:?}, twice {twice:?}"))
    };
    let (tree, hits, found) = smallest(5, fails).expect("repeating a term changes nothing");
    served_agrees(&tree, &hits);
    served_agrees(&tree, &doubled(&hits));
    assert_eq!(found, "0[a]: term a once answers [], twice [(0, 0)]");
}
