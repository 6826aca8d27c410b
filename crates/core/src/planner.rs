//! The one meet pipeline: plan → {roll-up | sweep} → rank → cut.
//!
//! Every request ends in the generalized meet of Fig. 5, and the paper's
//! token roll-up and the **sweep** ([`crate::sweep`]) evaluate it to the
//! same answers at different costs:
//!
//! * the roll-up pays `O(hits)` parent look-ups *per level* plus hash-map
//!   bookkeeping per token — cheap when the inputs are few and shallow,
//!   and it never touches the meet index;
//! * the sweep pays the sort of the hits into document order plus one
//!   O(hits) stack pass with one O(1) LCA probe per hit —
//!   depth-independent.
//!
//! [`MeetPlanner::plan_multi`] compares a **round estimate** (how deep
//! the inputs sit, i.e. how many parent-join rounds the roll-up could
//! need) against a **round budget** proportional to `log₂(hits)`, and
//! caps the roll-up at a small hit count, so the roll-up is only planned
//! where either evaluation is microseconds. The thresholds were
//! calibrated against the heap-driven sweep the stack pass replaced
//! (CHANGES.md, PR 1 and PR 2) and have not been re-derived: on the
//! benchmark's two request streams the roll-up was planned on 0 of
//! 11 890 MEETs (ROADMAP item 5).
//! [`MeetPlanner::execute`] is the single place that resolves
//! [`MeetStrategy`] (`Auto` plans, `Lift`/`Sweep` force an arm — the
//! equivalence tests use that), runs the chosen arm, ranks and applies
//! `limit`; [`crate::Database::meet_hits`] and the sharded engine both
//! go through it and differ only in the sweep they plug in.

use crate::meet_multi::{meet_multi, Meet, MeetOptions};
use crate::rank::rank_meets;
use ncq_fulltext::HitSet;
use ncq_store::MonetDb;
use std::borrow::Borrow;

/// Which evaluation strategy a meet query should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MeetStrategy {
    /// Let the [`MeetPlanner`] decide from depth statistics and input
    /// cardinalities (the default).
    #[default]
    Auto,
    /// Force the paper-faithful Fig. 5 token roll-up.
    Lift,
    /// Force the document-order stack pass ([`crate::sweep`]).
    Sweep,
}

// Planner thresholds, calibrated against the flat/deep rows recorded in
// CHANGES.md (PR 1, PR 2) — that is, against the sweep of that time.

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

/// The strategy a plan resolved to (never `Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenStrategy {
    /// Token roll-up.
    Lift,
    /// Document-order stack pass.
    Sweep,
}

impl ChosenStrategy {
    /// Lower-case name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            ChosenStrategy::Lift => "lift",
            ChosenStrategy::Sweep => "sweep",
        }
    }
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

/// Per-query planner over a loaded database.
///
/// Cheap to construct (borrows the store); [`crate::Database`] builds
/// one per meet call.
#[derive(Debug, Clone, Copy)]
pub struct MeetPlanner<'a> {
    db: &'a MonetDb,
}

/// Bit length of `n` (⌊log₂(n)⌋ + 1 for n ≥ 1; 1 for n = 0) — the
/// cardinality proxy the round budget scales with.
fn bit_length(n: usize) -> usize {
    usize::BITS as usize - n.max(1).leading_zeros() as usize
}

/// Registry handles for the planner's decision counters (looked up
/// once; incrementing is a relaxed atomic add).
fn plan_counters() -> (
    &'static std::sync::Arc<ncq_obs::Counter>,
    &'static std::sync::Arc<ncq_obs::Counter>,
) {
    static COUNTERS: std::sync::OnceLock<(
        std::sync::Arc<ncq_obs::Counter>,
        std::sync::Arc<ncq_obs::Counter>,
    )> = std::sync::OnceLock::new();
    let (lift, sweep) = COUNTERS.get_or_init(|| {
        let registry = &ncq_obs::obs().registry;
        (
            registry.counter("ncq_plan_lift_total"),
            registry.counter("ncq_plan_sweep_total"),
        )
    });
    (lift, sweep)
}

impl<'a> MeetPlanner<'a> {
    /// Planner over `db`.
    pub fn new(db: &'a MonetDb) -> MeetPlanner<'a> {
        MeetPlanner { db }
    }

    fn decide(&self, hits: usize, est_rounds: usize) -> PlanDecision {
        let round_budget = LIFT_ROUND_BASE + LIFT_ROUNDS_PER_LOG2 * bit_length(hits);
        let strategy = if est_rounds <= round_budget {
            ChosenStrategy::Lift
        } else {
            ChosenStrategy::Sweep
        };
        if ncq_obs::obs().enabled() {
            let (lift, sweep) = plan_counters();
            match strategy {
                ChosenStrategy::Lift => lift.inc(),
                ChosenStrategy::Sweep => sweep.inc(),
            }
            ncq_obs::trace::event(
                "plan",
                format!(
                    "{} hits={hits} est_rounds={est_rounds} budget={round_budget}",
                    strategy.name()
                ),
            );
        }
        PlanDecision {
            strategy,
            hits,
            est_rounds,
            round_budget,
        }
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
        let mut decision = self.decide(hits, est_rounds);
        if hits > ROLLUP_MAX_HITS {
            decision.strategy = ChosenStrategy::Sweep;
        }
        decision
    }

    /// The pipeline every meet runs: resolve [`MeetOptions::strategy`]
    /// (`Auto` → [`MeetPlanner::plan_multi`]), evaluate the roll-up or
    /// the caller's `sweep`, rank, truncate to [`MeetOptions::limit`].
    ///
    /// `sweep` is the one thing engines differ in: one pass of
    /// [`crate::sweep::sweep`] over all hits, or the sharded
    /// scatter/gather of several. It returns the sweep arm's meets in
    /// any order, possibly already cut to the `limit` best — the rank
    /// key is total.
    pub fn execute<H: Borrow<HitSet>>(
        &self,
        inputs: &[H],
        options: &MeetOptions,
        sweep: impl FnOnce() -> Vec<Meet>,
    ) -> Vec<Meet> {
        let chosen = match options.strategy {
            MeetStrategy::Auto => self.plan_multi(inputs).strategy,
            MeetStrategy::Lift => ChosenStrategy::Lift,
            MeetStrategy::Sweep => ChosenStrategy::Sweep,
        };
        let mut meets = match chosen {
            ChosenStrategy::Lift => meet_multi(self.db, inputs, options),
            ChosenStrategy::Sweep => sweep(),
        };
        rank_meets(&mut meets);
        if let Some(k) = options.limit {
            meets.truncate(k);
        }
        meets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{merged_hits, sweep};
    use ncq_store::Oid;
    use ncq_xml::parse;

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
    fn empty_input_plans_and_meets_nothing() {
        let db = deep_db(1, 2);
        let planner = MeetPlanner::new(&db);
        let none: [HitSet; 0] = [];
        assert_eq!(planner.plan_multi(&none).hits, 0);
        for strategy in [MeetStrategy::Auto, MeetStrategy::Lift, MeetStrategy::Sweep] {
            let options = MeetOptions {
                strategy,
                ..MeetOptions::default()
            };
            for inputs in [vec![], vec![HitSet::new(), HitSet::new()]] {
                let meets = planner.execute(&inputs, &options, || {
                    sweep(&db, &merged_hits(&inputs), &options, |_| false).meets
                });
                assert!(meets.is_empty(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn overrides_run_the_forced_arm_and_agree_on_answers() {
        let db = deep_db(16, 6);
        let inputs = inputs(&db, usize::MAX);
        let planner = MeetPlanner::new(&db);
        let run = |strategy| {
            let options = MeetOptions {
                strategy,
                ..MeetOptions::default()
            };
            let mut swept = false;
            let meets = planner.execute(&inputs, &options, || {
                swept = true;
                sweep(&db, &merged_hits(&inputs), &options, |_| false).meets
            });
            (meets, swept)
        };
        let (auto, auto_swept) = run(MeetStrategy::Auto);
        let (lift, lift_swept) = run(MeetStrategy::Lift);
        let (sweep, sweep_swept) = run(MeetStrategy::Sweep);
        assert!(!lift_swept && sweep_swept);
        assert_eq!(
            auto_swept,
            planner.plan_multi(&inputs).strategy == ChosenStrategy::Sweep
        );
        let key = |ms: &[Meet]| -> Vec<_> {
            ms.iter()
                .map(|m| (m.node, m.distance, m.witness_count))
                .collect()
        };
        assert_eq!(auto.len(), 6);
        assert_eq!(key(&auto), key(&lift));
        assert_eq!(key(&lift), key(&sweep));
    }

    #[test]
    fn execute_ranks_and_cuts_both_arms() {
        // Chains of different depths give distinct distances, so the
        // ranked prefix is well defined.
        let db = MonetDb::from_document(
            &parse("<r><e><e><a>s0</a></e><b>t0</b></e><e><a>s1</a><b>t1</b></e></r>").unwrap(),
        );
        let inputs = inputs(&db, usize::MAX);
        let planner = MeetPlanner::new(&db);
        for strategy in [MeetStrategy::Lift, MeetStrategy::Sweep] {
            let options = MeetOptions {
                strategy,
                limit: Some(1),
                ..MeetOptions::default()
            };
            let meets = planner.execute(&inputs, &options, || {
                sweep(&db, &merged_hits(&inputs), &options, |_| false).meets
            });
            assert_eq!(meets.len(), 1, "{strategy:?}");
            assert_eq!(meets[0].distance, 4, "{strategy:?}: closest pair first");
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
        let db = MonetDb::from_document(&ncq_xml::parse(&xml).unwrap());
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
