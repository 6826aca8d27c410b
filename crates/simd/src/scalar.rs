//! Scalar reference kernels.
//!
//! Every vector kernel in [`crate::x86`] must produce output
//! bit-identical to the function of the same name here — these are the
//! semantics, the vector code is an implementation detail. They are
//! also the dispatch target on non-x86-64 builds and under
//! `NCQ_SIMD=off`, so they are written to be fast in their own right
//! (galloping, bulk copies), not as naive loops.

/// Smallest `i` with `hay[i] >= target`; `hay.len()` if none.
/// `hay` must be sorted ascending.
#[inline]
pub fn lower_bound_u32(hay: &[u32], target: u32) -> usize {
    hay.partition_point(|&x| x < target)
}

/// Intersection of two sorted, strictly increasing runs, appended to
/// `out`. Gallops through whichever side is currently ahead, exactly
/// like the posting-list intersection this kernel replaces.
pub fn intersect_u32_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1 + gallop(&a[i + 1..], b[j]),
            std::cmp::Ordering::Greater => j += 1 + gallop(&b[j + 1..], a[i]),
        }
    }
}

/// Exponential probe + partition search: number of leading elements of
/// `list` that are `< target`.
#[inline]
fn gallop(list: &[u32], target: u32) -> usize {
    let mut hi = 1usize;
    while hi < list.len() && list[hi - 1] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(list.len());
    lo + list[lo..hi].partition_point(|&x| x < target)
}
