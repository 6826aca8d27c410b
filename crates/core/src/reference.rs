//! Reference algorithms — the paper's walks, kept as test oracles.
//!
//! Nothing a request reaches lives here: every served meet is one stack
//! pass over the hits in document order ([`crate::sweep`]), ranked and
//! cut by [`crate::rank::rank_and_cut`] (pairwise probes go through the
//! O(1) [`crate::meet2_indexed`]). This module holds the paper-faithful
//! algorithms that pass is checked against:
//!
//! * [`meet2`] — Fig. 3: the lowest common ancestor of two nodes by
//!   parent walks *steered* by comparing `σ(o₁)` and `σ(o₂)`: the node
//!   with the strictly longer path is lifted first, so "superfluous
//!   look-ups are avoided". It performs exactly
//!   `d = distance(o₁, o₂)` look-ups.
//! * [`meet2_naive`] — the baseline the steering is measured against:
//!   materialize the full ancestor list of one node, then walk the
//!   other upward probing membership (`depth(o₁) + d` look-ups).
//! * [`meet_sets`] — Fig. 4: `meet_s(O₁, O₂)` over two *homogeneous*
//!   OID sets (every member of a set shares one path). Repeated
//!   *parent joins* lift whole frontiers, the σ prefix order steers
//!   which frontier is lifted, and whenever the frontiers intersect the
//!   intersection is output as the set of **minimal meets** and removed
//!   from both frontiers — which "avoids a combinatoric explosion of
//!   the result size" while keeping the operator independent of input
//!   order.
//! * [`meet_rollup`] — Fig. 5: the generalized meet as the paper writes
//!   it, a bottom-up token roll-up one path level at a time, with the §4
//!   restrictions. [`meet_rollup_ranked`] ranks and cuts it the way the
//!   served path does, so an equivalence check is one call. Its witness
//!   samples follow absorption order rather than document order; compare
//!   them as sets.
//! * [`MeetPlanner`] — the cost model that once chose between the
//!   roll-up and the stack pass. Nothing served consults it.
//!
//! Callers are the test suites and `repro`'s steering ablation, plus
//! one outside the workspace: the benchmark's tracer
//! (`perf/src/trace.rs`) reads [`MeetPlanner::plan_multi`] through
//! [`crate::Database::planner`] until ROADMAP item 1(d) unlinks it. The
//! module is not re-exported at the crate root, with one exception for
//! that same tracer: [`ChosenStrategy`].

use crate::db::MeetError;
use crate::meet2::Meet2;
use crate::meet_multi::{Meet, MeetOptions, MeetWitness};
use crate::rank::rank_and_cut;
use ncq_fulltext::HitSet;
use ncq_store::{MonetDb, Oid, PathId};
use std::borrow::Borrow;
use std::collections::HashMap;

/// σ-steered pairwise meet (paper Fig. 3).
pub fn meet2(db: &MonetDb, o1: Oid, o2: Oid) -> Meet2 {
    let mut a = o1;
    let mut b = o2;
    let mut da = db.depth(a);
    let mut db_ = db.depth(b);
    let mut lookups = 0usize;

    // Case σ(a) < σ(b): a's path is strictly longer — lift a.
    while da > db_ {
        a = db.parent(a).expect("depth > 0 has a parent");
        da -= 1;
        lookups += 1;
    }
    // Case σ(b) < σ(a): lift b.
    while db_ > da {
        b = db.parent(b).expect("depth > 0 has a parent");
        db_ -= 1;
        lookups += 1;
    }
    // Default case: lift both until they coincide.
    while a != b {
        a = db.parent(a).expect("non-equal nodes are below the root");
        b = db.parent(b).expect("non-equal nodes are below the root");
        lookups += 2;
    }
    Meet2 {
        meet: a,
        distance: lookups,
        lookups,
    }
}

/// Naive baseline: collect all ancestors of `o1`, then probe `o2`'s
/// ancestors against them. No σ steering.
pub fn meet2_naive(db: &MonetDb, o1: Oid, o2: Oid) -> Meet2 {
    // Ancestor list of o1, index = climb count. The iterator always
    // yields o1 itself first, but guard the subtraction so an empty list
    // can never underflow in release builds.
    let anc1: Vec<Oid> = db.ancestors(o1).collect();
    let mut lookups = anc1.len().saturating_sub(1); // parent() calls to build the list

    let mut b = o2;
    let mut climb2 = 0usize;
    loop {
        if let Some(pos) = anc1.iter().position(|&a| a == b) {
            return Meet2 {
                meet: b,
                distance: pos + climb2,
                lookups,
            };
        }
        b = db
            .parent(b)
            .expect("every pair of nodes meets at the root at the latest");
        climb2 += 1;
        lookups += 1;
    }
}

/// Result of [`meet_sets`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetMeets {
    /// Minimal meets in the order they were found (deepest first), each
    /// carrying the number of parent-join rounds that had been executed
    /// when it surfaced (a distance proxy used for ranking).
    pub meets: Vec<(Oid, usize)>,
    /// Total parent-join rounds executed.
    pub join_rounds: usize,
    /// Total per-element parent look-ups across all rounds.
    pub lookups: usize,
}

impl SetMeets {
    /// Just the meet OIDs.
    pub fn oids(&self) -> Vec<Oid> {
        self.meets.iter().map(|&(o, _)| o).collect()
    }
}

fn check_homogeneous(db: &MonetDb, set: &[Oid]) -> Result<Option<PathId>, MeetError> {
    let Some(&first) = set.first() else {
        return Ok(None);
    };
    let expected = db.sigma(first);
    for &o in &set[1..] {
        let found = db.sigma(o);
        if found != expected {
            return Err(MeetError::HeterogeneousInput { expected, found });
        }
    }
    Ok(Some(expected))
}

/// Below this combined size the frontier intersection stays on the
/// scalar reference even in vector mode: frontiers shrink fast as they climb,
/// and on runs of a few dozen oids the lane setup costs more than it
/// saves. The output is identical either way (same reference kernel).
const VECTOR_MIN: usize = 64;

/// Sorted-set intersection; inputs must be sorted and deduplicated.
/// Frontiers are sorted `Oid` runs, i.e. raw `u32` lanes — the kernel
/// dispatches vector or scalar per `ncq_simd::mode()`.
fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if a.len() + b.len() < VECTOR_MIN {
        ncq_simd::scalar::intersect_u32_into(Oid::raw_slice(a), Oid::raw_slice(b), &mut out);
    } else {
        ncq_simd::intersect_u32_into(Oid::raw_slice(a), Oid::raw_slice(b), &mut out);
    }
    Oid::wrap_raw_vec(out)
}

/// Remove (sorted) `remove` from (sorted) `set`.
fn difference(set: &mut Vec<Oid>, remove: &[Oid]) {
    if remove.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(set.len());
    ncq_simd::scalar::difference_u32_into(Oid::raw_slice(set), Oid::raw_slice(remove), &mut out);
    *set = Oid::wrap_raw_vec(out);
}

/// Lift a frontier one level: map every OID to its parent, dedup.
/// Returns the number of look-ups performed.
fn lift(db: &MonetDb, set: &mut Vec<Oid>) -> usize {
    let lookups = set.len();
    for o in set.iter_mut() {
        if let Some(p) = db.parent(*o) {
            *o = p;
        }
    }
    set.sort_unstable();
    set.dedup();
    lookups
}

/// The paper's Figure 4: meets of two homogeneous OID sets.
///
/// Returns the minimal meets. Errors if either input set mixes paths.
pub fn meet_sets(db: &MonetDb, set1: &[Oid], set2: &[Oid]) -> Result<SetMeets, MeetError> {
    let p1 = check_homogeneous(db, set1)?;
    let p2 = check_homogeneous(db, set2)?;
    let mut result = SetMeets::default();
    let (Some(mut p1), Some(mut p2)) = (p1, p2) else {
        return Ok(result); // one side empty → no meets
    };

    let mut o1: Vec<Oid> = set1.to_vec();
    let mut o2: Vec<Oid> = set2.to_vec();
    o1.sort_unstable();
    o1.dedup();
    o2.sort_unstable();
    o2.dedup();

    let summary = db.summary();
    loop {
        if o1.is_empty() || o2.is_empty() {
            return Ok(result);
        }
        // D := O1 ∩ O2 — can only be non-empty when the frontiers reached
        // the same path, but the check is cheap and mirrors Fig. 4.
        let d = intersect(&o1, &o2);
        if !d.is_empty() {
            let round = result.join_rounds;
            result.meets.extend(d.iter().map(|&o| (o, round)));
            difference(&mut o1, &d);
            difference(&mut o2, &d);
            if o1.is_empty() || o2.is_empty() {
                return Ok(result);
            }
        }
        // Steering: lift the frontier with the strictly longer path; on
        // incomparable/equal paths lift both (paper's default case).
        if summary.lt(p1, p2) {
            result.lookups += lift(db, &mut o1);
            p1 = summary.parent(p1).expect("deeper path has a parent");
        } else if summary.lt(p2, p1) {
            result.lookups += lift(db, &mut o2);
            p2 = summary.parent(p2).expect("deeper path has a parent");
        } else if p1 == p2 && summary.depth(p1) == 0 {
            // Both frontiers sit at the root path and did not intersect —
            // impossible (the root is unique), but guard against looping.
            return Ok(result);
        } else {
            result.lookups += lift(db, &mut o1);
            result.lookups += lift(db, &mut o2);
            p1 = summary.parent(p1).expect("non-root path has a parent");
            p2 = summary.parent(p2).expect("non-root path has a parent");
        }
        result.join_rounds += 1;
    }
}

// ----- Fig. 5: the generalized meet as a token roll-up -----
//
// Full-text results "may be distributed over a large number of
// relations". The generalized algorithm takes the hit groups `R₁ … Rₙ`
// and **rolls up the tree-shaped schema from the bottom**, "iteratively
// contracting the offspring of nodes whose only offspring are leaves,
// until we reach the root or the empty set. This way, all nodes that are
// meets of other nodes are minimal by construction; they are output and
// not considered anymore, thus avoiding a combinatorial explosion of the
// result set and dependence on the input order."
//
// Concretely: every hit starts as a *token* on its owner node. Paths are
// processed in order of decreasing depth; tokens on a node are counted,
// and a node on which **two or more input nodes converge** is a meet
// (paper §3.2: "we now call a node meet if it is the lowest common
// ancestor of at least two other nodes" — where a hit node reached by
// another hit counts as its own ancestor, covering the "Bob Byte" case).
// Meets are emitted, their tokens consumed; single tokens climb to the
// parent path.
//
// The §4 extensions hook in here:
//
// * `meet_Π` — a `PathFilter` suppresses meets whose result type is
//   unwanted (their witnesses are consumed, matching "we discard o");
// * `meet^δ` — a maximum distance: a meet is only valid if its two
//   closest witnesses lie within `δ` edges of each other; otherwise the
//   merged token climbs on.

/// A token: the state of hits climbing the tree during the roll-up.
#[derive(Debug, Clone)]
struct Token {
    count: usize,
    /// Two smallest climbs — enough to compute the meet distance.
    min_climb: usize,
    second_climb: usize,
    witnesses: Vec<MeetWitness>,
}

impl Token {
    fn new(w: MeetWitness) -> Token {
        Token {
            count: 1,
            min_climb: w.climb,
            second_climb: usize::MAX,
            witnesses: vec![w],
        }
    }

    fn absorb(&mut self, other: Token, cap: usize) {
        self.count += other.count;
        // Merge the two smallest climbs of both sides.
        for c in [other.min_climb, other.second_climb] {
            if c < self.min_climb {
                self.second_climb = self.min_climb;
                self.min_climb = c;
            } else if c < self.second_climb {
                self.second_climb = c;
            }
        }
        for w in other.witnesses {
            if self.witnesses.len() >= cap {
                break;
            }
            self.witnesses.push(w);
        }
    }
}

/// The paper's Figure 5 with the §4 restrictions.
///
/// `inputs` are hit groups (e.g. one [`HitSet`] per full-text term),
/// accepted through any [`Borrow`]-able holder. The result is the set of
/// minimal meets, deepest first; each meet's witnesses tell which hits
/// it explains.
pub fn meet_rollup<H: Borrow<HitSet>>(
    db: &MonetDb,
    inputs: &[H],
    options: &MeetOptions,
) -> Vec<Meet> {
    let summary = db.summary();
    let cap = options.cap();

    // tokens[path] : oid → token. Only paths that can carry tokens are
    // materialized.
    let mut tokens: HashMap<PathId, HashMap<Oid, Token>> = HashMap::new();
    for (input_idx, hits) in inputs.iter().enumerate() {
        for (path, oid) in hits.borrow().iter() {
            // Attribute hits are owned by the element carrying the
            // attribute: their token starts on the element, i.e. on the
            // attribute path's parent.
            let node_path = match summary.step(path) {
                ncq_store::PathStep::Attribute(_) => {
                    summary.parent(path).expect("attribute paths have parents")
                }
                _ => path,
            };
            let w = MeetWitness {
                origin: oid,
                input: input_idx,
                climb: 0,
            };
            tokens
                .entry(node_path)
                .or_default()
                .entry(oid)
                .and_modify(|t| t.absorb(Token::new(w), cap))
                .or_insert_with(|| Token::new(w));
        }
    }

    // Paths ordered by decreasing depth: children are always contracted
    // before their parents (the bottom-up roll-up).
    let mut paths: Vec<PathId> = summary.iter().collect();
    paths.sort_by_key(|&p| std::cmp::Reverse(summary.depth(p)));

    let mut meets: Vec<Meet> = Vec::new();
    for path in paths {
        let Some(node_tokens) = tokens.remove(&path) else {
            continue;
        };
        let parent_path = summary.parent(path);
        // Document order, not hash order: token absorption order decides
        // the witness sample, which must be deterministic so a failed
        // oracle comparison reproduces.
        let mut node_tokens: Vec<(Oid, Token)> = node_tokens.into_iter().collect();
        node_tokens.sort_unstable_by_key(|&(o, _)| o);
        for (oid, token) in node_tokens {
            if token.count >= 2 {
                let distance = token.min_climb.saturating_add(token.second_climb);
                let within = options.max_distance.is_none_or(|d| distance <= d);
                if within {
                    // A (possibly suppressed) meet: witnesses are consumed
                    // either way — "they are output and not considered
                    // anymore" / "we discard o".
                    if options.filter.accepts(path) {
                        meets.push(Meet {
                            node: oid,
                            path,
                            distance,
                            witness_count: token.count,
                            witnesses: token.witnesses,
                        });
                    }
                    continue;
                }
                // Too far apart: not a meet. The merged token keeps
                // climbing — a fresh, closer witness higher up may still
                // pair with its closest member.
            }
            // Climb to the parent path (single token, or a failed meet^δ
            // candidate). Tokens beyond δ keep climbing: they can no
            // longer *form* a meet, but they still count as witnesses of
            // a meet formed by closer hits higher up — pruning them here
            // would change witness counts (and diverge from the stack
            // pass, whose tokens carry every unconsumed hit of a subtree).
            let Some(parent_path) = parent_path else {
                continue; // lone token at the root: dies
            };
            let climbed = Token {
                count: token.count,
                min_climb: token.min_climb + 1,
                second_climb: token.second_climb.saturating_add(1),
                witnesses: token
                    .witnesses
                    .into_iter()
                    .map(|w| MeetWitness {
                        climb: w.climb + 1,
                        ..w
                    })
                    .collect(),
            };
            let parent_oid = db.parent(oid).expect("non-root nodes have parents");
            tokens
                .entry(parent_path)
                .or_default()
                .entry(parent_oid)
                .and_modify(|t| t.absorb(climbed.clone(), cap))
                .or_insert(climbed);
        }
    }

    // Deterministic order: deepest meets first, then document order.
    meets.sort_by_key(|m| (std::cmp::Reverse(summary.depth(m.path)), m.node));
    meets
}

/// [`meet_rollup`] ranked and cut to [`MeetOptions::limit`], like every
/// served answer: the one-line oracle for [`crate::Database::meet_hits`].
pub fn meet_rollup_ranked<H: Borrow<HitSet>>(
    db: &MonetDb,
    inputs: &[H],
    options: &MeetOptions,
) -> Vec<Meet> {
    rank_and_cut(meet_rollup(db, inputs, options), options.limit)
}

// ----- the roll-up's cost model -----
//
// Kept only because the benchmark's tracer (`perf/src/trace.rs`) reads
// `plan_multi` and `ChosenStrategy`; ROADMAP item 1(d) unlinks it.
// `plan_multi` compares a round estimate (how deep the inputs sit, i.e.
// how many parent-join rounds the roll-up could need) against a round
// budget proportional to `log₂(hits)`, and caps the roll-up at a small
// hit count. The thresholds were calibrated against the flat/deep rows
// of CHANGES.md — against the heap-driven sweep the stack pass
// replaced — and have not been re-derived: on the benchmark's two
// request streams the roll-up was planned on 0 of 11 890 MEETs.

/// Flat component of the roll-up's round budget.
const LIFT_ROUND_BASE: usize = 4;
/// Rounds granted per *bit* of input cardinality (bit length =
/// ⌊log₂(hits)⌋ + 1) — a proxy for the log factor of the sweep's sort.
const LIFT_ROUNDS_PER_LOG2: usize = 2;
/// Above this many total hits the roll-up is never planned (its
/// per-token hashing loses to the sweep regardless of depth).
const ROLLUP_MAX_HITS: usize = 64;
/// When the inputs span more than this many distinct relations,
/// [`MeetPlanner::plan_multi`] stops scanning per-group depths and uses
/// the corpus-level [`ncq_store::DepthStats`] (p90 depth) instead.
const GROUP_SCAN_LIMIT: usize = 16;

/// The evaluation a plan picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenStrategy {
    /// Token roll-up.
    Lift,
    /// Document-order stack pass.
    Sweep,
}

/// One planning decision, with the quantities it weighed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDecision {
    /// The chosen evaluation.
    pub strategy: ChosenStrategy,
    /// Total input hits.
    pub hits: usize,
    /// Parent-join rounds the roll-up could need (depth of the deepest
    /// input).
    pub est_rounds: usize,
    /// Rounds the roll-up is granted before the sweep is preferred.
    pub round_budget: usize,
}

/// Per-query cost model over a loaded database: would the roll-up or
/// the stack pass be cheaper? Cheap to construct (borrows the store);
/// [`crate::Database::planner`] hands one out.
#[derive(Debug, Clone, Copy)]
pub struct MeetPlanner<'a> {
    db: &'a MonetDb,
}

/// Bit length of `n` (⌊log₂(n)⌋ + 1 for n ≥ 1; 1 for n = 0) — the
/// cardinality proxy the round budget scales with.
fn bit_length(n: usize) -> usize {
    usize::BITS as usize - n.max(1).leading_zeros() as usize
}

impl<'a> MeetPlanner<'a> {
    /// Planner over `db`.
    pub fn new(db: &'a MonetDb) -> MeetPlanner<'a> {
        MeetPlanner { db }
    }

    /// Plan a generalized meet over hit groups. The round estimate is
    /// the depth of the deepest hit path — or, when the inputs span
    /// more than 16 distinct relations, the corpus-level p90 depth from
    /// [`ncq_store::DepthStats`] (broad hit sets are statistical samples
    /// of the corpus, and one fold over the path summary replaces a
    /// scan of hundreds of group depths per query). The roll-up is
    /// additionally capped at 64 total hits.
    pub fn plan_multi<H: Borrow<HitSet>>(&self, inputs: &[H]) -> PlanDecision {
        let summary = self.db.summary();
        let hits: usize = inputs.iter().map(|h| h.borrow().len()).sum();
        let group_count: usize = inputs.iter().map(|h| h.borrow().group_count()).sum();
        let est_rounds = if group_count > GROUP_SCAN_LIMIT {
            self.db.depth_stats().p90_depth
        } else {
            inputs
                .iter()
                .flat_map(|h| h.borrow().groups().keys())
                .map(|&p| summary.depth(p))
                .max()
                .unwrap_or(0)
        };
        let round_budget = LIFT_ROUND_BASE + LIFT_ROUNDS_PER_LOG2 * bit_length(hits);
        let strategy = if est_rounds <= round_budget && hits <= ROLLUP_MAX_HITS {
            ChosenStrategy::Lift
        } else {
            ChosenStrategy::Sweep
        };
        PlanDecision {
            strategy,
            hits,
            est_rounds,
            round_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PathFilter;
    use ncq_fulltext::{search, InvertedIndex};
    use ncq_xml::parse;

    /// The paper's Figure 1 document.
    const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

    fn db() -> MonetDb {
        MonetDb::from_document(&parse(FIGURE1).unwrap())
    }

    fn setup() -> (MonetDb, InvertedIndex) {
        let db = db();
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    fn hits(db: &MonetDb, idx: &InvertedIndex, term: &str) -> HitSet {
        search::term_hits(db, idx, term)
    }

    /// Oid of the cdata node whose text equals `s` (first match).
    fn cdata(db: &MonetDb, s: &str) -> Oid {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .find(|&(_, t)| t == s)
            .map(|(o, _)| o)
            .unwrap()
    }

    fn cdata_all(db: &MonetDb, s: &str) -> Vec<Oid> {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .filter(|&(_, t)| t == s)
            .map(|(o, _)| o)
            .collect()
    }

    fn cdata_containing(db: &MonetDb, s: &str) -> Vec<Oid> {
        db.string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .filter(|(_, t)| t.contains(s))
            .map(|(o, _)| o)
            .collect()
    }

    #[test]
    fn paper_example_ben_bit_meets_at_author() {
        // §3.1: full-text "Ben" & "Bit" → the author node.
        let db = db();
        let m = meet2(&db, cdata(&db, "Ben"), cdata(&db, "Bit"));
        assert_eq!(db.tag(m.meet), Some("author"));
        // firstname/cdata → author is 2 up; lastname/cdata → author 2 up.
        assert_eq!(m.distance, 4);
    }

    #[test]
    fn paper_example_bob_byte_meets_at_cdata_itself() {
        // §3.1: "Bob" and "Byte" hit the same association; the meet is the
        // cdata node itself.
        let db = db();
        let o = cdata(&db, "Bob Byte");
        let m = meet2(&db, o, o);
        assert_eq!(m.meet, o);
        assert_eq!(m.distance, 0);
        assert_eq!(db.label(m.meet), "cdata");
    }

    #[test]
    fn paper_example_bit_1999_meets_at_article() {
        // §3.1: "Bit" & the first article's "1999" meet at the article.
        let db = db();
        let bit = cdata(&db, "Bit");
        // First "1999" in document order belongs to the first article.
        let year = cdata(&db, "1999");
        let m = meet2(&db, bit, year);
        assert_eq!(db.tag(m.meet), Some("article"));
    }

    #[test]
    fn meet_is_commutative() {
        let db = db();
        let a = cdata(&db, "Ben");
        let b = cdata(&db, "How to Hack");
        let m1 = meet2(&db, a, b);
        let m2 = meet2(&db, b, a);
        assert_eq!(m1.meet, m2.meet);
        assert_eq!(m1.distance, m2.distance);
    }

    #[test]
    fn meet_with_ancestor_is_the_ancestor() {
        let db = db();
        let ben = cdata(&db, "Ben");
        let root = db.root();
        let m = meet2(&db, ben, root);
        assert_eq!(m.meet, root);
        assert_eq!(m.distance, db.depth(ben));
        // And in the other argument order.
        assert_eq!(meet2(&db, root, ben).meet, root);
    }

    #[test]
    fn meet_of_node_with_itself_is_identity() {
        let db = db();
        for o in db.iter_oids() {
            let m = meet2(&db, o, o);
            assert_eq!(m.meet, o);
            assert_eq!(m.distance, 0);
            assert_eq!(m.lookups, 0);
        }
    }

    #[test]
    fn cross_article_meet_is_institute() {
        let db = db();
        let ben = cdata(&db, "Ben"); // article 1
        let bob = cdata(&db, "Bob Byte"); // article 2
        let m = meet2(&db, ben, bob);
        assert_eq!(db.tag(m.meet), Some("institute"));
    }

    #[test]
    fn naive_agrees_with_steered_everywhere() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let s = meet2(&db, a, b);
                let n = meet2_naive(&db, a, b);
                assert_eq!(s.meet, n.meet, "meet mismatch for {a:?},{b:?}");
                assert_eq!(s.distance, n.distance, "distance mismatch for {a:?},{b:?}");
            }
        }
    }

    #[test]
    fn steered_version_needs_no_more_lookups_than_distance() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let s = meet2(&db, a, b);
                assert_eq!(s.lookups, s.distance);
                let n = meet2_naive(&db, a, b);
                assert!(n.lookups >= s.lookups);
            }
        }
    }

    #[test]
    fn meet_result_is_a_common_ancestor_and_lowest() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let m = meet2(&db, a, b).meet;
                assert!(db.is_ancestor_or_self(m, a));
                assert!(db.is_ancestor_or_self(m, b));
                // No child of m is a common ancestor (lowest-ness):
                // the child of m on the path to a differs from the one to
                // b unless a==b (then m==a==b).
                if a != b {
                    let step =
                        |x: Oid| -> Option<Oid> { db.ancestors(x).take_while(|&n| n != m).last() };
                    match (step(a), step(b)) {
                        (Some(ca), Some(cb)) => assert_ne!(ca, cb),
                        // One of them IS the meet.
                        _ => assert!(a == m || b == m),
                    }
                }
            }
        }
    }

    #[test]
    fn paper_case_bit_1999_yields_only_the_article() {
        // §3.2 / Listing-2: hits for "Bit" = {o(Bit)}, hits for "1999" =
        // two year cdatas. The minimal meet is the first article alone —
        // the second "1999" finds no partner.
        let db = db();
        let bits = cdata_containing(&db, "Bit");
        let years = cdata_all(&db, "1999");
        assert_eq!(bits.len(), 1);
        assert_eq!(years.len(), 2);
        let result = meet_sets(&db, &bits, &years).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("article"));
    }

    #[test]
    fn identical_singletons_meet_at_themselves() {
        // The "Bob" / "Byte" case: same association in both sets.
        let db = db();
        let bob = cdata_containing(&db, "Bob");
        let byte = cdata_containing(&db, "Byte");
        assert_eq!(bob, byte);
        let result = meet_sets(&db, &bob, &byte).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(result.meets[0].0, bob[0]);
        assert_eq!(result.meets[0].1, 0); // found before any join round
        assert_eq!(db.label(result.meets[0].0), "cdata");
    }

    #[test]
    fn singletons_agree_with_meet2() {
        let db = db();
        let oids: Vec<Oid> = db.iter_oids().collect();
        for &a in &oids {
            for &b in &oids {
                let pair = meet2(&db, a, b);
                let set = meet_sets(&db, &[a], &[b]).unwrap();
                assert_eq!(set.meets.len(), 1, "{a:?} {b:?}");
                assert_eq!(set.meets[0].0, pair.meet, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_produce_no_meets() {
        let db = db();
        let some = cdata_all(&db, "1999");
        assert!(meet_sets(&db, &[], &some).unwrap().meets.is_empty());
        assert!(meet_sets(&db, &some, &[]).unwrap().meets.is_empty());
        assert!(meet_sets(&db, &[], &[]).unwrap().meets.is_empty());
    }

    #[test]
    fn heterogeneous_input_is_rejected() {
        let db = db();
        let mut mixed = cdata_all(&db, "1999");
        mixed.extend(cdata_containing(&db, "Bit"));
        let err = meet_sets(&db, &mixed, &[db.root()]).unwrap_err();
        assert!(matches!(err, MeetError::HeterogeneousInput { .. }));
        assert!(err.to_string().contains("homogeneous"));
    }

    #[test]
    fn result_is_input_order_invariant() {
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        let fwd = meet_sets(&db, &years, &titles).unwrap();
        let mut years_rev = years.clone();
        years_rev.reverse();
        let mut titles_rev = titles.clone();
        titles_rev.reverse();
        let rev = meet_sets(&db, &years_rev, &titles_rev).unwrap();
        let mut a = fwd.oids();
        let mut b = rev.oids();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn swap_of_arguments_gives_same_meets() {
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        let mut ab = meet_sets(&db, &years, &titles).unwrap().oids();
        let mut ba = meet_sets(&db, &titles, &years).unwrap().oids();
        ab.sort_unstable();
        ba.sort_unstable();
        assert_eq!(ab, ba);
    }

    #[test]
    fn two_parallel_pairs_give_two_minimal_meets() {
        // years × titles: each article pairs its own year with its own
        // title; both articles surface, nothing above them.
        let db = db();
        let years = cdata_all(&db, "1999");
        let titles = cdata_containing(&db, "Hack");
        assert_eq!(years.len(), 2);
        assert_eq!(titles.len(), 2);
        let result = meet_sets(&db, &years, &titles).unwrap();
        assert_eq!(result.meets.len(), 2);
        for &(m, _) in &result.meets {
            assert_eq!(db.tag(m), Some("article"));
        }
    }

    #[test]
    fn consumed_witnesses_do_not_meet_again() {
        // "Ben" (one hit) against both years: only the first article can
        // form a minimal meet; the leftover year climbs alone to the root
        // and the institute/bibliography never enter the answer.
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let years = cdata_all(&db, "1999");
        let result = meet_sets(&db, &ben, &years).unwrap();
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("article"));
    }

    #[test]
    fn meets_against_root_set_is_root() {
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let result = meet_sets(&db, &ben, &[db.root()]).unwrap();
        assert_eq!(result.oids(), vec![db.root()]);
    }

    #[test]
    fn join_rounds_are_counted() {
        let db = db();
        let ben = cdata_containing(&db, "Ben");
        let bit = cdata_containing(&db, "Bit");
        let result = meet_sets(&db, &ben, &bit).unwrap();
        // firstname/cdata and lastname/cdata sit at equal depth: two
        // lockstep rounds lift both to author where they intersect.
        assert_eq!(result.meets.len(), 1);
        assert_eq!(db.tag(result.meets[0].0), Some("author"));
        assert_eq!(result.join_rounds, 2);
        assert_eq!(result.lookups, 4);
    }

    // ----- Fig. 5 roll-up -----

    #[test]
    fn listing2_bit_and_1999_yields_only_article() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bit"), hits(&db, &idx, "1999")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("article"));
        // Distance: lastname/cdata → article (3 up), year/cdata → article
        // (2 up) = 5 edges.
        assert_eq!(meets[0].distance, 5);
        assert_eq!(meets[0].witness_count, 2);
    }

    #[test]
    fn ben_and_bit_meet_at_author() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Ben"), hits(&db, &idx, "Bit")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("author"));
        assert_eq!(meets[0].distance, 4);
    }

    #[test]
    fn bob_and_byte_meet_at_the_cdata_node() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bob"), hits(&db, &idx, "Byte")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.label(meets[0].node), "cdata");
        assert_eq!(meets[0].distance, 0);
    }

    #[test]
    fn attribute_hits_start_on_their_element() {
        let (db, idx) = setup();
        // "BB99" is the key attribute of article 1; "Ben" is inside it.
        let inputs = vec![hits(&db, &idx, "BB99"), hits(&db, &idx, "Ben")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("article"));
        // key@article climbs 0, Ben cdata climbs 3.
        assert_eq!(meets[0].distance, 3);
    }

    #[test]
    fn single_input_group_meets_within_itself() {
        let (db, idx) = setup();
        // "Hack" as a word hits only "How to Hack"; "1999" hits two years.
        // One group with both years: they meet at the institute.
        let inputs = vec![hits(&db, &idx, "1999")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("institute"));
    }

    #[test]
    fn exclude_root_suppresses_root_meets() {
        let (db, idx) = setup();
        // "Ben" (article 1) and "RSI" (article 2) meet at the institute…
        let inputs = vec![hits(&db, &idx, "Ben"), hits(&db, &idx, "RSI")];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("institute"));

        // …excluding the institute path consumes them silently; nothing
        // bubbles to the root.
        let inst_path = meets[0].path;
        let opts = MeetOptions {
            filter: PathFilter::excluding([inst_path]),
            ..MeetOptions::default()
        };
        let meets = meet_rollup(&db, &inputs, &opts);
        assert!(meets.is_empty());
    }

    #[test]
    fn allow_filter_keeps_only_wanted_types() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bit"), hits(&db, &idx, "1999")];
        let article_path = db
            .summary()
            .lookup_in(&["bibliography", "institute", "article"], db.symbols())
            .unwrap();
        let opts = MeetOptions {
            filter: PathFilter::allowing([article_path]),
            ..MeetOptions::default()
        };
        let meets = meet_rollup(&db, &inputs, &opts);
        assert_eq!(meets.len(), 1);
        assert_eq!(meets[0].path, article_path);
    }

    #[test]
    fn max_distance_blocks_far_meets() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bit"), hits(&db, &idx, "1999")];
        // The article meet needs distance 5.
        for (delta, expect) in [(4usize, 0usize), (5, 1), (20, 1)] {
            let opts = MeetOptions {
                max_distance: Some(delta),
                ..MeetOptions::default()
            };
            let found = meet_rollup(&db, &inputs, &opts);
            assert_eq!(found.len(), expect, "δ={delta}");
        }
    }

    #[test]
    fn zero_distance_still_finds_same_node_meets() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bob"), hits(&db, &idx, "Byte")];
        let opts = MeetOptions {
            max_distance: Some(0),
            ..MeetOptions::default()
        };
        let meets = meet_rollup(&db, &inputs, &opts);
        assert_eq!(meets.len(), 1);
        assert_eq!(meets[0].distance, 0);
    }

    #[test]
    fn empty_inputs_give_no_meets() {
        let (db, _) = setup();
        assert!(meet_rollup::<HitSet>(&db, &[], &MeetOptions::default()).is_empty());
        let empty = HitSet::new();
        assert!(meet_rollup(&db, &[empty], &MeetOptions::default()).is_empty());
    }

    #[test]
    fn lone_hit_never_meets() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Ben")];
        assert!(meet_rollup(&db, &inputs, &MeetOptions::default()).is_empty());
    }

    #[test]
    fn three_terms_meet_pairwise_minimally() {
        let (db, idx) = setup();
        // Ben+Bit meet at author (distance 4); the year's hits meet that
        // pair's leftovers? No — author consumed Ben and Bit, the two
        // 1999 hits meet each other at the institute.
        let inputs = vec![
            hits(&db, &idx, "Ben"),
            hits(&db, &idx, "Bit"),
            hits(&db, &idx, "1999"),
        ];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        let tags: Vec<_> = meets.iter().map(|m| db.tag(m.node).unwrap()).collect();
        assert_eq!(tags, vec!["author", "institute"]);
    }

    #[test]
    fn witness_counts_are_exact_even_when_capped() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "1999"), hits(&db, &idx, "Hacking")];
        let opts = MeetOptions {
            witness_cap: 1,
            ..MeetOptions::default()
        };
        let meets = meet_rollup(&db, &inputs, &opts);
        for m in &meets {
            assert!(m.witnesses.len() <= 1);
            assert!(m.witness_count >= m.witnesses.len());
        }
    }

    #[test]
    fn results_are_deterministic_and_deepest_first() {
        let (db, idx) = setup();
        let inputs = vec![
            hits(&db, &idx, "Bob"),
            hits(&db, &idx, "Byte"),
            hits(&db, &idx, "Ben"),
            hits(&db, &idx, "Bit"),
        ];
        let meets = meet_rollup(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 2);
        let depths: Vec<usize> = meets.iter().map(|m| db.summary().depth(m.path)).collect();
        assert!(depths[0] >= depths[1]);
        // Shuffling the input groups does not change the answer set.
        let inputs_rev: Vec<HitSet> = inputs.iter().rev().cloned().collect();
        let meets_rev = meet_rollup(&db, &inputs_rev, &MeetOptions::default());
        let a: Vec<Oid> = meets.iter().map(|m| m.node).collect();
        let b: Vec<Oid> = meets_rev.iter().map(|m| m.node).collect();
        assert_eq!(a, b);
    }

    // ----- cost model -----

    fn deep_db(depth: usize, chains: usize) -> MonetDb {
        let mut xml = String::from("<r>");
        for c in 0..chains {
            for _ in 0..depth {
                xml.push_str("<e>");
            }
            xml.push_str(&format!("<a>s{c}</a><b>t{c}</b>"));
            for _ in 0..depth {
                xml.push_str("</e>");
            }
        }
        xml.push_str("</r>");
        MonetDb::from_document(&parse(&xml).unwrap())
    }

    fn cdata_oids(db: &MonetDb, prefix: &str) -> Vec<Oid> {
        let mut v: Vec<Oid> = db
            .string_paths()
            .flat_map(|p| db.strings_of(p).iter())
            .filter(|(_, t)| t.starts_with(prefix))
            .map(|(o, _)| o)
            .collect();
        v.sort_unstable();
        v
    }

    /// The `s…` and `t…` leaves as two hit groups (first `take` of each).
    fn inputs(db: &MonetDb, take: usize) -> Vec<HitSet> {
        ["s", "t"]
            .map(|prefix| {
                HitSet::from_pairs(
                    cdata_oids(db, prefix)
                        .into_iter()
                        .take(take)
                        .map(|o| (db.sigma(o), o)),
                )
            })
            .to_vec()
    }

    #[test]
    fn shallow_inputs_plan_lift() {
        let db = deep_db(1, 8);
        let plan = MeetPlanner::new(&db).plan_multi(&inputs(&db, usize::MAX));
        assert_eq!(plan.strategy, ChosenStrategy::Lift);
        assert_eq!(plan.hits, 16);
    }

    #[test]
    fn deep_inputs_plan_sweep() {
        let db = deep_db(64, 4);
        let plan = MeetPlanner::new(&db).plan_multi(&inputs(&db, usize::MAX));
        // est_rounds = 66 (chain + <a> + cdata), budget = 4 + 2·bits(8).
        assert_eq!(plan.strategy, ChosenStrategy::Sweep);
        assert!(plan.est_rounds > plan.round_budget);
    }

    #[test]
    fn empty_input_plans_and_rolls_up_nothing() {
        let db = deep_db(1, 2);
        let none: [HitSet; 0] = [];
        assert_eq!(MeetPlanner::new(&db).plan_multi(&none).hits, 0);
        for inputs in [vec![], vec![HitSet::new(), HitSet::new()]] {
            assert!(meet_rollup(&db, &inputs, &MeetOptions::default()).is_empty());
        }
    }

    #[test]
    fn multi_rollup_is_capped_by_hits() {
        let db = deep_db(1, 40); // shallow, 80 hits > ROLLUP_MAX_HITS
        let planner = MeetPlanner::new(&db);
        let plan = planner.plan_multi(&inputs(&db, usize::MAX));
        assert_eq!(plan.strategy, ChosenStrategy::Sweep);
        assert_eq!(plan.hits, 80);
        // The small prefix still plans the roll-up.
        let small = planner.plan_multi(&inputs(&db, 4));
        assert_eq!(small.strategy, ChosenStrategy::Lift);
    }

    #[test]
    fn bit_length_is_sane() {
        assert_eq!(bit_length(0), 1);
        assert_eq!(bit_length(1), 1);
        assert_eq!(bit_length(2), 2);
        assert_eq!(bit_length(3), 2);
        assert_eq!(bit_length(1024), 11);
    }

    #[test]
    fn wide_inputs_plan_from_corpus_depth_stats() {
        // More distinct relations than GROUP_SCAN_LIMIT: the estimate
        // must come from the cached corpus DepthStats, not a scan.
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<t{i}>w</t{i}>"));
        }
        xml.push_str("</r>");
        let db = MonetDb::from_document(&parse(&xml).unwrap());
        let planner = MeetPlanner::new(&db);
        let wide =
            vec![HitSet::from_pairs(db.string_paths().flat_map(|p| {
                db.strings_of(p).iter().map(move |(o, _)| (p, o))
            }))];
        assert!(wide[0].group_count() > GROUP_SCAN_LIMIT);
        let plan = planner.plan_multi(&wide);
        assert_eq!(plan.est_rounds, db.depth_stats().p90_depth);
        // Under the limit, the exact per-group scan is used.
        let narrow =
            vec![HitSet::from_pairs(db.string_paths().take(2).flat_map(
                |p| db.strings_of(p).iter().map(move |(o, _)| (p, o)),
            ))];
        let plan = planner.plan_multi(&narrow);
        assert_eq!(plan.est_rounds, 2); // r/t{i}/cdata
    }
}
