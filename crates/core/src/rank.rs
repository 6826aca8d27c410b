//! Answer ranking (§4).
//!
//! > "The number of joins is also a simple yet effective heuristic for
//! > establishing a ranking between the result OIDs."
//!
//! Meets whose witnesses lie closer together rank higher. Ties break
//! toward more witnesses (a concept explaining more hits is more
//! interesting), then document order for determinism. The paper mentions
//! thesauri and IR techniques as future work — [`rank_meets_by`] is the
//! hook where such scoring plugs in.

use crate::meet_multi::Meet;
use ncq_store::Oid;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The rank key, smallest first: distance, then more witnesses, then
/// document order. Total — a node is a meet at most once per evaluation.
pub(crate) type RankKey = (usize, Reverse<usize>, Oid);

pub(crate) fn rank_key(distance: usize, witness_count: usize, node: Oid) -> RankKey {
    (distance, Reverse(witness_count), node)
}

/// Rank in-place by the paper's join-count heuristic.
pub fn rank_meets(meets: &mut [Meet]) {
    meets.sort_by_key(|m| rank_key(m.distance, m.witness_count, m.node));
}

/// The `k` best meets by [`rank_key`] out of a stream, unordered (the
/// pipeline ranks afterwards). A max-heap of the kept keys names the
/// slot of the worst kept meet; a meet that cannot displace it is
/// refused by [`KBest::admits`] before its witness sample is built.
/// Nothing is sized by `k`, which comes straight off the wire: a bound
/// no stream of `at_most` meets can reach is no bound.
pub(crate) struct KBest {
    k: Option<usize>,
    worst: BinaryHeap<(RankKey, usize)>,
    meets: Vec<Meet>,
}

impl KBest {
    pub(crate) fn new(limit: Option<usize>, at_most: usize) -> KBest {
        KBest {
            k: limit.filter(|&k| k < at_most),
            worst: BinaryHeap::new(),
            meets: Vec::new(),
        }
    }

    /// Whether a meet with this key would be kept.
    pub(crate) fn admits(&self, key: RankKey) -> bool {
        match self.k {
            None => true,
            Some(k) => self.meets.len() < k || self.worst.peek().is_some_and(|w| key < w.0),
        }
    }

    /// Keep an admitted meet, in place of the worst one once `k` are held.
    pub(crate) fn keep(&mut self, meet: Meet) {
        let key = rank_key(meet.distance, meet.witness_count, meet.node);
        match self.k {
            Some(k) if self.meets.len() == k => {
                let mut worst = self.worst.peek_mut().expect("admitted past k = 0");
                let slot = worst.1;
                *worst = (key, slot);
                self.meets[slot] = meet;
            }
            Some(_) => {
                self.worst.push((key, self.meets.len()));
                self.meets.push(meet);
            }
            None => self.meets.push(meet),
        }
    }

    pub(crate) fn into_meets(self) -> Vec<Meet> {
        self.meets
    }
}

/// Rank by a custom score (lower is better), stable within equal scores.
pub fn rank_meets_by<S: Ord>(meets: &mut [Meet], mut score: impl FnMut(&Meet) -> S) {
    meets.sort_by_key(|m| score(m));
}

/// The paper's second heuristic: "it is worthwhile to apply additional
/// heuristics like **distances in the source file**". OIDs are assigned
/// in document order, so the span of witness origins approximates their
/// spread in the source text; tighter spans rank first, tree distance
/// breaks ties.
pub fn rank_meets_by_source_proximity(meets: &mut [Meet]) {
    meets.sort_by_key(|m| {
        let min = m.witnesses.iter().map(|w| w.origin).min();
        let max = m.witnesses.iter().map(|w| w.origin).max();
        let span = match (min, max) {
            (Some(a), Some(b)) => b.index() - a.index(),
            _ => usize::MAX,
        };
        (span, m.distance, m.node)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meet_multi::MeetWitness;
    use ncq_store::{Oid, PathId};

    fn meet(node: usize, distance: usize, witnesses: usize) -> Meet {
        Meet {
            node: Oid::from_index(node),
            path: PathId::from_index(0),
            distance,
            witness_count: witnesses,
            witnesses: (0..witnesses.min(2))
                .map(|i| MeetWitness {
                    origin: Oid::from_index(100 + i),
                    input: i,
                    climb: distance / 2,
                })
                .collect(),
        }
    }

    #[test]
    fn closer_meets_rank_first() {
        let mut v = vec![meet(1, 9, 2), meet(2, 1, 2), meet(3, 4, 2)];
        rank_meets(&mut v);
        let order: Vec<usize> = v.iter().map(|m| m.node.index()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn more_witnesses_break_distance_ties() {
        let mut v = vec![meet(1, 3, 2), meet(2, 3, 5)];
        rank_meets(&mut v);
        assert_eq!(v[0].node.index(), 2);
    }

    #[test]
    fn document_order_breaks_remaining_ties() {
        let mut v = vec![meet(9, 3, 2), meet(4, 3, 2)];
        rank_meets(&mut v);
        assert_eq!(v[0].node.index(), 4);
    }

    #[test]
    fn custom_scores_override() {
        let mut v = vec![meet(1, 1, 1), meet(2, 9, 9)];
        // Prefer many witnesses regardless of distance.
        rank_meets_by(&mut v, |m| std::cmp::Reverse(m.witness_count));
        assert_eq!(v[0].node.index(), 2);
    }

    fn meet_with_origins(node: usize, distance: usize, origins: &[usize]) -> Meet {
        Meet {
            node: Oid::from_index(node),
            path: PathId::from_index(0),
            distance,
            witness_count: origins.len(),
            witnesses: origins
                .iter()
                .enumerate()
                .map(|(i, &o)| MeetWitness {
                    origin: Oid::from_index(o),
                    input: i,
                    climb: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn source_proximity_prefers_tight_spans() {
        // Meet 1: witnesses far apart in the source; meet 2: adjacent.
        let mut v = vec![
            meet_with_origins(1, 2, &[10, 500]),
            meet_with_origins(2, 9, &[100, 103]),
        ];
        rank_meets_by_source_proximity(&mut v);
        assert_eq!(v[0].node.index(), 2, "tight source span wins");
    }

    #[test]
    fn source_proximity_falls_back_to_distance() {
        let mut v = vec![
            meet_with_origins(1, 9, &[10, 20]),
            meet_with_origins(2, 2, &[100, 110]),
        ];
        rank_meets_by_source_proximity(&mut v);
        // Equal spans (10): tree distance decides.
        assert_eq!(v[0].node.index(), 2);
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut v: Vec<Meet> = Vec::new();
        rank_meets(&mut v);
        assert!(v.is_empty());
    }
}
