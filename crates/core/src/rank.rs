//! Answer ranking (§4).
//!
//! > "The number of joins is also a simple yet effective heuristic for
//! > establishing a ranking between the result OIDs."
//!
//! Meets whose witnesses lie closer together rank higher. Ties break
//! toward more witnesses (a concept explaining more hits is more
//! interesting), then document order for determinism.

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

/// The last step of every served meet: rank, then keep the first
/// `limit` (the dialect's `limit k`). [`crate::Database::meet_hits`]
/// and the sharded engine both end here.
pub fn rank_and_cut(mut meets: Vec<Meet>, limit: Option<usize>) -> Vec<Meet> {
    rank_meets(&mut meets);
    if let Some(k) = limit {
        meets.truncate(k);
    }
    meets
}

/// The `k` best meets by [`rank_key`] out of a stream, unordered
/// ([`rank_and_cut`] ranks afterwards). A max-heap of the kept keys
/// names the slot of the worst kept meet; a meet that cannot displace
/// it is refused by [`KBest::admits`] before its witness sample is
/// built.
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
    fn empty_slice_is_fine() {
        let mut v: Vec<Meet> = Vec::new();
        rank_meets(&mut v);
        assert!(v.is_empty());
    }
}
