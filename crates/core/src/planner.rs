//! The roll-up's cost model, which once chose between Fig. 5's token
//! roll-up and the stack pass. Nothing served consults it: every meet is
//! one stack pass ([`crate::sweep`]), and the roll-up itself is a test
//! oracle in the `ncq-oracle` crate.
//!
//! Kept only because the benchmark's tracer (`perf/src/trace.rs`) reads
//! [`MeetPlanner::plan_multi`] through [`crate::Database::planner`] and
//! compares against [`ChosenStrategy`]; ROADMAP 1(d) unlinks it and item 3
//! deletes it.
//!
//! `plan_multi` compares a round estimate (how deep the inputs sit, i.e.
//! how many parent-join rounds the roll-up could need) against a round
//! budget proportional to `log₂(hits)`, and caps the roll-up at a small
//! hit count. The thresholds were calibrated against the flat/deep rows
//! of CHANGES.md — against the heap-driven sweep the stack pass
//! replaced — and have not been re-derived: on the benchmark's two
//! request streams the roll-up was planned on 0 of 11 890 MEETs.

use ncq_fulltext::HitSet;
use ncq_store::MonetDb;
use std::borrow::Borrow;

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
    fn empty_input_plans_nothing() {
        let db = deep_db(1, 2);
        let planner = MeetPlanner::new(&db);
        let none: [HitSet; 0] = [];
        assert_eq!(planner.plan_multi(&none).hits, 0);
        assert_eq!(planner.plan_multi(&[HitSet::new(), HitSet::new()]).hits, 0);
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
