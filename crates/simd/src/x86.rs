//! SSE2/AVX2 kernels for x86-64.
//!
//! Every function here is a drop-in for its [`crate::scalar`] namesake:
//! same signature, bit-identical output (the property suite in
//! `tests/properties.rs` proves it over random runs, lane remainders
//! and misaligned slice heads). The code follows the branch-free
//! playbook:
//!
//! * **lower bound** — binary search narrows to a small window, then a
//!   vector *count* of elements below the target finishes the probe
//!   (`cmpgt` + `movemask` + `count_ones`); on a sorted window the
//!   count *is* the partition point, so there is no lane extraction.
//! * **intersect** — the compare-exchange block algorithm: load one
//!   register from each side, compare all lane pairs via rotations,
//!   emit the matching left lanes in order, advance whichever block
//!   has the smaller maximum. Strictly increasing inputs guarantee a
//!   match is emitted exactly once. Skewed stretches short-circuit
//!   through the vector lower bound before the block compare.
//!
//! Unsigned lane compares use the sign-flip trick (`x ^ MIN` turns an
//! unsigned order into a signed one); all loads are unaligned
//! (`loadu`), so callers never need alignment guarantees.
//!
//! Safety: every `unsafe` block is either an intrinsic whose required
//! CPU feature is guaranteed by the `#[target_feature]` attribute of
//! the surrounding function (callers go through
//! [`crate::Mode`]-checked dispatch), or an unaligned load whose
//! pointer stays inside a live slice — the bounds are established by
//! the surrounding loop conditions. The nightly ASan CI job runs this
//! module's whole suite under `-Zsanitizer=address`.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

/// Window below which the u32 lower bound switches from binary search
/// to a vector count. One cache line of u32s times two: small enough
/// that the count is a handful of compares, large enough that the
/// binary search tail (the unpredictable branches) is skipped.
const LB32_WINDOW: usize = 32;

/// SSE2 `lower_bound_u32`: binary search to a window, vector count of
/// elements below the target inside it.
///
/// # Safety
/// Requires SSE2 (guaranteed on every x86-64 CPU; kept `unsafe` +
/// `target_feature` for uniformity with the AVX2 kernels).
#[target_feature(enable = "sse2")]
pub unsafe fn lower_bound_u32_sse2(hay: &[u32], target: u32) -> usize {
    let (base, window) = narrow_window(hay, LB32_WINDOW, |x| x < target);
    let sign = _mm_set1_epi32(i32::MIN);
    let tv = _mm_xor_si128(_mm_set1_epi32(target as i32), sign);
    let mut below = 0usize;
    let mut i = 0usize;
    while i + 4 <= window.len() {
        let x = _mm_loadu_si128(window.as_ptr().add(i).cast());
        let lt = _mm_cmpgt_epi32(tv, _mm_xor_si128(x, sign));
        below += (_mm_movemask_ps(_mm_castsi128_ps(lt)) as u32).count_ones() as usize;
        i += 4;
    }
    while i < window.len() && window[i] < target {
        below += 1;
        i += 1;
    }
    base + below
}

/// AVX2 `lower_bound_u32`: as the SSE2 kernel with 8-wide counts.
///
/// # Safety
/// Requires AVX2 (checked by the dispatch layer).
#[target_feature(enable = "avx2")]
pub unsafe fn lower_bound_u32_avx2(hay: &[u32], target: u32) -> usize {
    let (base, window) = narrow_window(hay, LB32_WINDOW, |x| x < target);
    let sign = _mm256_set1_epi32(i32::MIN);
    let tv = _mm256_xor_si256(_mm256_set1_epi32(target as i32), sign);
    let mut below = 0usize;
    let mut i = 0usize;
    while i + 8 <= window.len() {
        let x = _mm256_loadu_si256(window.as_ptr().add(i).cast());
        let lt = _mm256_cmpgt_epi32(tv, _mm256_xor_si256(x, sign));
        below += (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32).count_ones() as usize;
        i += 8;
    }
    while i < window.len() && window[i] < target {
        below += 1;
        i += 1;
    }
    base + below
}

/// Binary-search `hay` down to at most `cap` elements around the
/// partition point; returns the window's offset and the window.
///
/// The probe reads with `get_unchecked` (sound: `mid < hi <= len` at
/// every step) — a bounds check per level would cost the few percent
/// that `partition_point` doesn't pay.
#[inline(always)]
fn narrow_window<T: Copy>(hay: &[T], cap: usize, below: impl Fn(T) -> bool) -> (usize, &[T]) {
    let mut lo = 0usize;
    let mut hi = hay.len();
    while hi - lo > cap {
        let mid = lo + (hi - lo) / 2;
        if below(unsafe { *hay.get_unchecked(mid) }) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, &hay[lo..hi])
}

/// Exponential probe + vector partition count: the vector analogue of
/// the scalar kernel's gallop. The doubling probe keeps the search
/// local to the current position (a full binary search would cache-miss
/// across the whole remaining run on skewed inputs); the vector count
/// finishes the final window branch-free.
#[target_feature(enable = "sse2")]
unsafe fn gallop_sse2(list: &[u32], target: u32) -> usize {
    let mut hi = 1usize;
    while hi < list.len() && list[hi - 1] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(list.len());
    lo + lower_bound_u32_sse2(&list[lo..hi], target)
}

/// SSE2 compare-exchange intersection of strictly increasing runs.
///
/// # Safety
/// Requires SSE2 (see [`lower_bound_u32_sse2`]).
#[target_feature(enable = "sse2")]
pub unsafe fn intersect_u32_sse2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        // A block entirely below the other side's head: the gallop
        // case. Jump it with the local galloping probe instead of
        // grinding through compare-exchange rounds.
        if a[i + 3] < b[j] {
            i += gallop_sse2(&a[i + 4..], b[j]) + 4;
            continue;
        }
        if b[j + 3] < a[i] {
            j += gallop_sse2(&b[j + 4..], a[i]) + 4;
            continue;
        }
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
        // Compare every (a-lane, b-lane) pair: vb and its three
        // rotations cover all four alignments.
        let m = _mm_or_si128(
            _mm_or_si128(
                _mm_cmpeq_epi32(va, vb),
                _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01)),
            ),
            _mm_or_si128(
                _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10)),
                _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11)),
            ),
        );
        let mut mask = _mm_movemask_ps(_mm_castsi128_ps(m)) as u32;
        // Matching a-lanes, in lane (= document) order.
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(a[i + lane]);
            mask &= mask - 1;
        }
        // Advance the block(s) with the smaller maximum; on equal
        // maxima both advance (that element just matched).
        let amax = a[i + 3];
        let bmax = b[j + 3];
        if amax <= bmax {
            i += 4;
        }
        if bmax <= amax {
            j += 4;
        }
    }
    // Sub-block tails finish on the scalar kernel.
    crate::scalar::intersect_u32_into(&a[i..], &b[j..], out);
}
