//! Intersection of posting lists, path by path.
//!
//! A token's postings are runs grouped by path — paths ascending, owners
//! strictly increasing within a run (document order within a relation)
//! — so a multi-term conjunction is a merge on path, and for each path
//! both lists hold, one intersection of two owner runs. Those runs are
//! exactly the shape of `ncq_simd::intersect_u32_into`, and they go to
//! it as they lie in the index, built or mapped: no decode, no copy.
//! The kernel gallops through skewed stretches (one rare term, one
//! frequent term) in either dispatch mode, so a run pair costs
//! O(short · log(long / short)) rather than O(short + long).

use crate::hits::HitSet;
use crate::index::Postings;
use ncq_store::{Oid, PathId};
use std::cmp::Ordering;

/// Merge two path-ordered run sequences on path and intersect the
/// owner runs of every common path.
fn intersect_runs<'a, 'b>(
    a: impl Iterator<Item = (PathId, &'a [Oid])>,
    b: impl Iterator<Item = (PathId, &'b [Oid])>,
) -> HitSet {
    let mut out = HitSet::new();
    let (mut a, mut b) = (a.peekable(), b.peekable());
    while let (Some(&(pa, oa)), Some(&(pb, ob))) = (a.peek(), b.peek()) {
        match pa.cmp(&pb) {
            Ordering::Less => {
                a.next();
            }
            Ordering::Greater => {
                b.next();
            }
            Ordering::Equal => {
                let mut both = Vec::new();
                ncq_simd::intersect_u32_into(Oid::raw_slice(oa), Oid::raw_slice(ob), &mut both);
                out.push_run(pa, Oid::wrap_raw_vec(both));
                a.next();
                b.next();
            }
        }
    }
    out
}

/// Intersection of two tokens' postings, grouped by path.
pub fn intersect(a: Postings<'_>, b: Postings<'_>) -> HitSet {
    intersect_runs(a.runs(), b.runs())
}

/// Intersection of arbitrarily many tokens' postings, the two shortest
/// first so every later pass shrinks the candidate set fastest.
pub fn intersect_all(lists: &[Postings<'_>]) -> HitSet {
    let mut lists = lists.to_vec();
    lists.sort_by_key(|l| l.len());
    match lists.as_slice() {
        [] => HitSet::new(),
        [only] => HitSet::from(*only),
        [first, second, rest @ ..] => {
            let mut acc = intersect(*first, *second);
            for list in rest {
                if acc.is_empty() {
                    break;
                }
                let groups = acc.groups().iter().map(|(&p, v)| (p, v.as_slice()));
                acc = intersect_runs(groups, list.runs());
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three columns of a posting view over sorted `(path, owner)`
    /// pairs.
    struct Columns {
        paths: Vec<PathId>,
        owner_off: Vec<u32>,
        owners: Vec<Oid>,
    }

    fn columns(pairs: &[(usize, usize)]) -> Columns {
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        pairs.dedup();
        let mut c = Columns {
            paths: Vec::new(),
            owner_off: vec![0],
            owners: Vec::new(),
        };
        for (path, owner) in pairs {
            let path = PathId::from_index(path);
            if c.paths.last() != Some(&path) {
                c.paths.push(path);
                c.owner_off.push(c.owners.len() as u32);
            }
            c.owners.push(Oid::from_index(owner));
            *c.owner_off.last_mut().unwrap() = c.owners.len() as u32;
        }
        c
    }

    fn view(c: &Columns) -> Postings<'_> {
        Postings {
            paths: &c.paths,
            owner_off: &c.owner_off,
            owners: &c.owners,
        }
    }

    fn hits(pairs: &[(usize, usize)]) -> HitSet {
        HitSet::from(view(&columns(pairs)))
    }

    /// Reference intersection over the flattened pairs.
    fn slow(a: &Columns, b: &Columns) -> HitSet {
        let b: Vec<_> = view(b).iter().collect();
        view(a).iter().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn agrees_with_the_pairwise_reference() {
        let a = columns(&(0..50).map(|i| (i % 3, i * 2)).collect::<Vec<_>>());
        let b = columns(&(0..200).map(|i| (i % 3, i)).collect::<Vec<_>>());
        assert_eq!(intersect(view(&a), view(&b)), slow(&a, &b));
        assert_eq!(intersect(view(&b), view(&a)), slow(&a, &b));
    }

    #[test]
    fn skewed_lists_intersect_correctly() {
        let rare = columns(&[(0, 7), (1, 1000)]);
        let frequent = columns(&(0..5000).map(|i| (0, i)).collect::<Vec<_>>());
        let both = intersect(view(&rare), view(&frequent));
        assert_eq!(both, hits(&[(0, 7)]));
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        let (empty, one, two) = (columns(&[]), columns(&[(0, 1)]), columns(&[(0, 2)]));
        assert!(intersect(view(&empty), view(&one)).is_empty());
        assert!(intersect(view(&one), view(&empty)).is_empty());
        assert!(intersect(view(&one), view(&two)).is_empty());
        // Same owner, different relation: no hit.
        assert!(intersect(view(&one), view(&columns(&[(1, 1)]))).is_empty());
    }

    #[test]
    fn multi_way_starts_from_the_rarest() {
        let a = columns(&(0..100).map(|i| (0, i)).collect::<Vec<_>>());
        let b = columns(
            &(0..100)
                .filter(|i| i % 2 == 0)
                .map(|i| (0, i))
                .collect::<Vec<_>>(),
        );
        let c = columns(&[(0, 4), (0, 5), (0, 6)]);
        let out = intersect_all(&[view(&a), view(&b), view(&c)]);
        assert_eq!(out, hits(&[(0, 4), (0, 6)]));
        assert!(intersect_all(&[]).is_empty());
        assert_eq!(intersect_all(&[view(&c)]), HitSet::from(view(&c)));
    }

    #[test]
    fn random_runs_agree_with_the_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut mk = |cap: usize| {
            let n = rng.random_range(0..cap);
            let pairs: Vec<_> = (0..n)
                .map(|_| (rng.random_range(0..4), rng.random_range(0..4000)))
                .collect();
            columns(&pairs)
        };
        // Runs shorter and longer than a vector block, under whatever
        // dispatch mode the process runs (CI runs both).
        for round in 0..40 {
            let cap = if round % 2 == 0 { 150 } else { 1500 };
            let (a, b) = (mk(cap), mk(cap));
            assert_eq!(intersect(view(&a), view(&b)), slow(&a, &b), "round {round}");
        }
    }
}
