//! Galloping (exponential-search) intersection of sorted posting lists.
//!
//! Posting lists are kept sorted by `(path, owner)` — document order
//! within each relation, relations in interning order — so multi-term
//! conjunctions are sort-merge problems. When list sizes are skewed
//! (the common case: one rare term, one frequent term), a linear merge
//! wastes work on the long list; *galloping* advances through it in
//! doubling strides and finishes the probe with a binary search, giving
//! O(short · log(long / short)) instead of O(short + long).

use crate::index::Posting;
use ncq_store::Oid;

/// Smallest index `i` in `list[from..]` with `list[i] >= target`,
/// found by doubling strides then binary search within the last stride.
#[inline]
fn gallop_to(list: &[Posting], from: usize, target: Posting) -> usize {
    let mut step = 1usize;
    let mut lo = from;
    let mut hi = from;
    while hi < list.len() && list[hi] < target {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(list.len());
    lo + list[lo..hi].partition_point(|&p| p < target)
}

/// Intersection of two sorted, deduplicated posting lists.
///
/// Both lists are sorted by `(path, owner)`, so the intersection
/// decomposes into per-path segments whose owner columns are sorted,
/// strictly increasing `u32` runs — exactly the shape of
/// `ncq_simd::intersect_u32_into`. When a vector mode is active the
/// common segments go through the compare-exchange kernel (with the
/// gallop shortcut built into it for skewed stretches); under
/// `NCQ_SIMD=off` (or off x86-64) the original galloping merge runs
/// unchanged. Output is bit-identical either way: segments are visited
/// in path order and owners emitted in ascending order within each.
///
/// Short lists stay on the scalar merge even in vector mode: the owner
/// columns have to be copied out of the `(path, owner)` structs before
/// the kernel can see them, and below ~1k postings that copy costs
/// more than the lanes win back.
pub fn intersect(a: &[Posting], b: &[Posting]) -> Vec<Posting> {
    const VECTOR_MIN: usize = 1024;
    if a.len() + b.len() < VECTOR_MIN || ncq_simd::mode() == ncq_simd::Mode::Scalar {
        return intersect_scalar(a, b);
    }
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    let mut owners_a: Vec<u32> = Vec::new();
    let mut owners_b: Vec<u32> = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].path.cmp(&b[j].path) {
            std::cmp::Ordering::Less => {
                let target = Posting {
                    path: b[j].path,
                    owner: Oid::ROOT,
                };
                i = gallop_to(a, i + 1, target);
            }
            std::cmp::Ordering::Greater => {
                let target = Posting {
                    path: a[i].path,
                    owner: Oid::ROOT,
                };
                j = gallop_to(b, j + 1, target);
            }
            std::cmp::Ordering::Equal => {
                let path = a[i].path;
                let ea = i + a[i..].partition_point(|p| p.path == path);
                let eb = j + b[j..].partition_point(|p| p.path == path);
                owners_a.clear();
                ncq_simd::unpack_hi_u32(as_pairs(&a[i..ea]), &mut owners_a);
                owners_b.clear();
                ncq_simd::unpack_hi_u32(as_pairs(&b[j..eb]), &mut owners_b);
                hits.clear();
                ncq_simd::intersect_u32_into(&owners_a, &owners_b, &mut hits);
                out.extend(hits.iter().map(|&owner| Posting {
                    path,
                    owner: Oid::from_raw(owner),
                }));
                i = ea;
                j = eb;
            }
        }
    }
    out
}

/// View a posting segment as the `[path, owner]` pairs the decode
/// kernel reads. Sound because `Posting` is `repr(C)` over two
/// `repr(transparent)` `u32` newtypes (checked below).
fn as_pairs(seg: &[Posting]) -> &[[u32; 2]] {
    const _: () =
        assert!(std::mem::size_of::<Posting>() == 8 && std::mem::align_of::<Posting>() == 4);
    unsafe { std::slice::from_raw_parts(seg.as_ptr().cast(), seg.len()) }
}

/// The scalar path: gallop through whichever side is currently ahead.
fn intersect_scalar(a: &[Posting], b: &[Posting]) -> Vec<Posting> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i = gallop_to(a, i + 1, b[j]),
            std::cmp::Ordering::Greater => j = gallop_to(b, j + 1, a[i]),
        }
    }
    out
}

/// Intersection of arbitrarily many sorted posting lists, smallest list
/// first so every later pass shrinks the candidate set fastest.
pub fn intersect_all(lists: &[&[Posting]]) -> Vec<Posting> {
    let Some(&first) = lists.iter().min_by_key(|l| l.len()) else {
        return Vec::new();
    };
    let mut acc: Vec<Posting> = first.to_vec();
    let mut rest: Vec<&&[Posting]> = lists
        .iter()
        .filter(|l| !std::ptr::eq(l.as_ptr(), first.as_ptr()))
        .collect();
    rest.sort_by_key(|l| l.len());
    for list in rest {
        if acc.is_empty() {
            break;
        }
        acc = intersect(&acc, list);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_store::{Oid, PathId};

    fn p(path: usize, owner: usize) -> Posting {
        Posting {
            path: PathId::from_index(path),
            owner: Oid::from_index(owner),
        }
    }

    /// Reference linear intersection.
    fn slow(a: &[Posting], b: &[Posting]) -> Vec<Posting> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn agrees_with_linear_merge() {
        let a: Vec<Posting> = (0..50).map(|i| p(i % 3, i * 2)).collect();
        let mut a = a;
        a.sort_unstable();
        let b: Vec<Posting> = (0..200).map(|i| p(i % 3, i)).collect();
        let mut b = b;
        b.sort_unstable();
        b.dedup();
        a.dedup();
        assert_eq!(intersect(&a, &b), slow(&a, &b));
        assert_eq!(intersect(&b, &a), slow(&a, &b));
    }

    #[test]
    fn skewed_lists_intersect_correctly() {
        let rare = vec![p(0, 7), p(1, 1000)];
        let frequent: Vec<Posting> = (0..5000).map(|i| p(0, i)).collect();
        let both = intersect(&rare, &frequent);
        assert_eq!(both, vec![p(0, 7)]);
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        assert!(intersect(&[], &[p(0, 1)]).is_empty());
        assert!(intersect(&[p(0, 1)], &[]).is_empty());
        assert!(intersect(&[p(0, 1)], &[p(0, 2)]).is_empty());
    }

    #[test]
    fn multi_way_starts_from_the_rarest() {
        let a: Vec<Posting> = (0..100).map(|i| p(0, i)).collect();
        let b: Vec<Posting> = (0..100).filter(|i| i % 2 == 0).map(|i| p(0, i)).collect();
        let c = vec![p(0, 4), p(0, 5), p(0, 6)];
        let out = intersect_all(&[&a, &b, &c]);
        assert_eq!(out, vec![p(0, 4), p(0, 6)]);
        assert!(intersect_all(&[]).is_empty());
        assert_eq!(intersect_all(&[&c]), c);
    }

    #[test]
    fn vector_and_scalar_paths_agree() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mk = |rng: &mut StdRng, n: usize| {
            let mut v: Vec<Posting> = (0..n)
                .map(|_| p(rng.random_range(0..4), rng.random_range(0..4000)))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for round in 0..40 {
            // Alternate below and above the wrapper's short-list
            // cutoff so both the scalar shortcut and the kernel path
            // are exercised.
            let cap = if round % 2 == 0 { 150 } else { 1500 };
            let la = rng.random_range(0..cap);
            let lb = rng.random_range(0..cap);
            let a = mk(&mut rng, la);
            let b = mk(&mut rng, lb);
            // Whatever the ambient dispatch mode, the public entry must
            // match the scalar merge bit for bit.
            assert_eq!(intersect(&a, &b), intersect_scalar(&a, &b));
            assert_eq!(intersect(&a, &b), slow(&a, &b));
        }
    }

    #[test]
    fn gallop_lands_on_first_not_less() {
        let list: Vec<Posting> = (0..64).map(|i| p(0, i * 3)).collect();
        for target in 0..200 {
            let t = p(0, target);
            let i = gallop_to(&list, 0, t);
            assert!(list[..i].iter().all(|&x| x < t));
            assert!(list[i..].iter().all(|&x| x >= t));
        }
    }
}
