//! Generalized meet over arbitrary grouped input — the paper's Figure 5.
//!
//! Full-text results "may be distributed over a large number of
//! relations". The generalized algorithm takes the hit groups `R₁ … Rₙ`
//! and **rolls up the tree-shaped schema from the bottom**, "iteratively
//! contracting the offspring of nodes whose only offspring are leaves,
//! until we reach the root or the empty set. This way, all nodes that are
//! meets of other nodes are minimal by construction; they are output and
//! not considered anymore, thus avoiding a combinatorial explosion of the
//! result set and dependence on the input order."
//!
//! Concretely: every hit starts as a *token* on its owner node. Paths are
//! processed in order of decreasing depth; tokens on a node are counted,
//! and a node on which **two or more input nodes converge** is a meet
//! (paper §3.2: "we now call a node meet if it is the lowest common
//! ancestor of at least two other nodes" — where a hit node reached by
//! another hit counts as its own ancestor, covering the "Bob Byte" case).
//! Meets are emitted, their tokens consumed; single tokens climb to the
//! parent path.
//!
//! The §4 extensions hook in here:
//!
//! * `meet_Π` — a [`PathFilter`] suppresses meets whose result type is
//!   unwanted (their witnesses are consumed, matching "we discard o");
//! * `meet^δ` — a maximum distance: a meet is only valid if its two
//!   closest witnesses lie within `δ` edges of each other; tokens whose
//!   climb alone exceeds `δ` are pruned.

use crate::filter::PathFilter;
use crate::planner::MeetStrategy;
use ncq_fulltext::HitSet;
use ncq_store::{MonetDb, Oid, PathId};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Tuning and restriction knobs for the generalized meet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeetOptions {
    /// Result-type restriction (`meet_Π`).
    pub filter: PathFilter,
    /// Maximum distance between the two closest witnesses (`meet^δ`).
    pub max_distance: Option<usize>,
    /// Cap on stored witnesses per meet (the count is always exact;
    /// only the sample is bounded). Default 8.
    pub witness_cap: usize,
    /// Evaluation strategy, resolved once per query by
    /// [`crate::MeetPlanner::execute`]; the operators in this module
    /// *are* the strategies and ignore it.
    pub strategy: MeetStrategy,
    /// Top-k bound (the dialect's `limit k`): the answer is the first
    /// `k` of the unbounded ranking, byte for byte. No arm stops early
    /// for it. [`crate::MeetPlanner::execute`] ranks and truncates; the
    /// sweep arm also keeps only the `k` best by the same rank key while
    /// it runs, so a meet that cannot make the cut costs no witness
    /// sample. Any value is safe: nothing is sized by `k`.
    pub limit: Option<usize>,
}

impl MeetOptions {
    /// The effective witness-sample bound: [`MeetOptions::witness_cap`]
    /// with `0` meaning the default of 8. Both arms apply it — witness
    /// samples are part of the byte-identical-answers contract.
    pub fn cap(&self) -> usize {
        if self.witness_cap == 0 {
            8
        } else {
            self.witness_cap
        }
    }
}

/// One witness of a meet: an original full-text hit that converged there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeetWitness {
    /// The hit's owner oid (cdata node or attribute-carrying element).
    pub origin: Oid,
    /// Index of the hit group (position in the `inputs` slice).
    pub input: usize,
    /// Edges climbed from the origin to the meet.
    pub climb: usize,
}

/// A nearest concept found by the generalized meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meet {
    /// The meet node.
    pub node: Oid,
    /// `σ(node)` — the result type the user did not have to specify.
    pub path: PathId,
    /// Distance between the two closest witnesses through this node
    /// (the ranking heuristic of §4).
    pub distance: usize,
    /// Total number of witnesses that converged here.
    pub witness_count: usize,
    /// Sample of witnesses (bounded by [`MeetOptions::witness_cap`]).
    pub witnesses: Vec<MeetWitness>,
}

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
/// accepted through any [`Borrow`]-able holder (`HitSet`, `&HitSet`,
/// `Arc<HitSet>` — the server's shared term cache) so callers never
/// deep-copy hit lists just to group them. The result is the set of
/// minimal meets, deepest first; each meet's witnesses tell which hits
/// it explains.
pub(crate) fn meet_multi<H: Borrow<HitSet>>(
    db: &MonetDb,
    inputs: &[H],
    options: &MeetOptions,
) -> Vec<Meet> {
    let summary = db.summary();
    let cap = options.cap();

    // tokens[path] : oid → token. Only paths that can carry tokens are
    // materialized.
    let mut tokens: HashMap<PathId, HashMap<Oid, Token>> = HashMap::new();
    let mut max_depth = 0usize;
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
            max_depth = max_depth.max(summary.depth(node_path));
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
        // the witness sample, which must be deterministic (the golden
        // suite and the server's response-equality guarantee pin it).
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
            // would change witness counts (and diverge from the sweep
            // arm, whose tokens carry every unconsumed hit of a subtree).
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

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_fulltext::{search, InvertedIndex};
    use ncq_store::MonetDb;
    use ncq_xml::parse;

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

    fn setup() -> (MonetDb, InvertedIndex) {
        let db = MonetDb::from_document(&parse(FIGURE1).unwrap());
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    fn hits(db: &MonetDb, idx: &InvertedIndex, term: &str) -> HitSet {
        search::term_hits(db, idx, term)
    }

    #[test]
    fn listing2_bit_and_1999_yields_only_article() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bit"), hits(&db, &idx, "1999")];
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
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
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("author"));
        assert_eq!(meets[0].distance, 4);
    }

    #[test]
    fn bob_and_byte_meet_at_the_cdata_node() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Bob"), hits(&db, &idx, "Byte")];
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.label(meets[0].node), "cdata");
        assert_eq!(meets[0].distance, 0);
    }

    #[test]
    fn attribute_hits_start_on_their_element() {
        let (db, idx) = setup();
        // "BB99" is the key attribute of article 1; "Ben" is inside it.
        let inputs = vec![hits(&db, &idx, "BB99"), hits(&db, &idx, "Ben")];
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
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
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("institute"));
    }

    #[test]
    fn exclude_root_suppresses_root_meets() {
        let (db, idx) = setup();
        // "Ben" (article 1) and "RSI" (article 2) meet at the institute…
        let inputs = vec![hits(&db, &idx, "Ben"), hits(&db, &idx, "RSI")];
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 1);
        assert_eq!(db.tag(meets[0].node), Some("institute"));

        // …excluding the institute path consumes them silently; nothing
        // bubbles to the root.
        let inst_path = meets[0].path;
        let opts = MeetOptions {
            filter: PathFilter::excluding([inst_path]),
            ..MeetOptions::default()
        };
        let meets = meet_multi(&db, &inputs, &opts);
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
        let meets = meet_multi(&db, &inputs, &opts);
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
            let found = meet_multi(&db, &inputs, &opts);
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
        let meets = meet_multi(&db, &inputs, &opts);
        assert_eq!(meets.len(), 1);
        assert_eq!(meets[0].distance, 0);
    }

    #[test]
    fn empty_inputs_give_no_meets() {
        let (db, _) = setup();
        assert!(meet_multi::<HitSet>(&db, &[], &MeetOptions::default()).is_empty());
        let empty = HitSet::new();
        assert!(meet_multi(&db, &[empty], &MeetOptions::default()).is_empty());
    }

    #[test]
    fn lone_hit_never_meets() {
        let (db, idx) = setup();
        let inputs = vec![hits(&db, &idx, "Ben")];
        assert!(meet_multi(&db, &inputs, &MeetOptions::default()).is_empty());
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
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
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
        let meets = meet_multi(&db, &inputs, &opts);
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
        let meets = meet_multi(&db, &inputs, &MeetOptions::default());
        assert_eq!(meets.len(), 2);
        let depths: Vec<usize> = meets.iter().map(|m| db.summary().depth(m.path)).collect();
        assert!(depths[0] >= depths[1]);
        // Shuffling the input groups does not change the answer set.
        let inputs_rev: Vec<HitSet> = inputs.iter().rev().cloned().collect();
        let meets_rev = meet_multi(&db, &inputs_rev, &MeetOptions::default());
        let a: Vec<Oid> = meets.iter().map(|m| m.node).collect();
        let b: Vec<Oid> = meets_rev.iter().map(|m| m.node).collect();
        assert_eq!(a, b);
    }
}
