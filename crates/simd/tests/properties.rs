//! Property suite: every dispatch target of every kernel must return
//! output bit-identical to the scalar reference, over random runs ×
//! random lane remainders × degenerate shapes × misaligned slice
//! heads. Modes are forced via `set_mode_override`, so the whole
//! matrix runs on any host — an ISA the CPU lacks is simply skipped
//! (the override caps at the best available).
//!
//! Each case also re-checks through the *public* dispatching entry
//! points, so the dispatch layer itself (not just the raw kernels) is
//! under test.

use ncq_simd::{self as simd, Mode};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// The mode override is process-global; serialize the tests that force
/// it so every leg really executes the ISA it claims to.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_modes() -> MutexGuard<'static, ()> {
    MODE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The modes this host can actually execute, deduplicated.
fn testable_modes() -> Vec<Mode> {
    let mut modes = vec![Mode::Scalar];
    for want in [Mode::Sse2, Mode::Avx2] {
        let got = simd::set_mode_override(Some(want));
        if got == want && !modes.contains(&got) {
            modes.push(got);
        }
    }
    simd::set_mode_override(None);
    modes
}

/// Sorted, strictly increasing random run. `span` controls density:
/// small spans force long shared stretches, large spans force skew.
fn sorted_run(rng: &mut StdRng, len: usize, span: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.random_range(0..span.max(1))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Shapes that historically break lane code: empty, singleton, exactly
/// one vector, one-less / one-more than a vector, all-equal ties.
fn edge_runs() -> Vec<Vec<u32>> {
    vec![
        vec![],
        vec![7],
        (0..3).collect(),
        (0..4).collect(),
        (0..5).collect(),
        (0..7).collect(),
        (0..8).collect(),
        (0..9).collect(),
        (10..42).collect(),
        vec![u32::MAX - 1, u32::MAX],
        (0..100).map(|i| i * 1000).collect(),
    ]
}

/// Run `f` once per testable mode and assert all answers equal the
/// scalar one. Restores auto dispatch afterwards.
fn for_each_mode<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let scalar = {
        simd::set_mode_override(Some(Mode::Scalar));
        f()
    };
    for mode in testable_modes() {
        simd::set_mode_override(Some(mode));
        let got = f();
        assert_eq!(got, scalar, "{label}: {:?} diverged from scalar", mode);
    }
    simd::set_mode_override(None);
}

#[test]
fn lower_bound_u32_matches_partition_point() {
    let _guard = lock_modes();
    let mut rng = StdRng::seed_from_u64(0x9_01);
    let mut runs = edge_runs();
    for len in [0usize, 1, 2, 5, 31, 32, 33, 63, 64, 65, 200, 1000] {
        runs.push(sorted_run(&mut rng, len, 500));
        runs.push(sorted_run(&mut rng, len, u32::MAX));
    }
    for hay in &runs {
        // Misaligned heads: a sub-slice starting at offset 1..4 is no
        // longer 16-byte aligned; the kernels must not care.
        for off in 0..4.min(hay.len() + 1) {
            let hay = &hay[off..];
            let mut targets: Vec<u32> = vec![0, 1, u32::MAX];
            targets.extend(
                hay.iter()
                    .flat_map(|&x| [x.saturating_sub(1), x, x.saturating_add(1)]),
            );
            for _ in 0..8 {
                targets.push(rng.next_u64() as u32);
            }
            for t in targets {
                let expect = hay.partition_point(|&x| x < t);
                for_each_mode("lower_bound_u32", || simd::lower_bound_u32(hay, t));
                assert_eq!(simd::lower_bound_u32(hay, t), expect);
            }
        }
    }
}

#[test]
fn intersect_matches_scalar_reference() {
    let _guard = lock_modes();
    let mut rng = StdRng::seed_from_u64(0x9_04);
    let mut cases: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    for a in edge_runs() {
        for b in edge_runs() {
            cases.push((a.clone(), b));
        }
    }
    // Random pairs across densities: dense overlap, total skew, and
    // lengths straddling the 4-lane block width.
    for _ in 0..200 {
        let la = rng.random_range(0..70);
        let lb = rng.random_range(0..70);
        let span = *[60u32, 300, 5_000, u32::MAX]
            .get(rng.random_range(0..4))
            .unwrap();
        cases.push((
            sorted_run(&mut rng, la, span),
            sorted_run(&mut rng, lb, span),
        ));
    }
    for (a, b) in &cases {
        for off in 0..3.min(a.len() + 1) {
            let a = &a[off..];
            let expect: Vec<u32> = a
                .iter()
                .filter(|x| b.binary_search(x).is_ok())
                .copied()
                .collect();
            for_each_mode("intersect_u32", || {
                let mut out = Vec::new();
                simd::intersect_u32_into(a, b, &mut out);
                out
            });
            let mut out = Vec::new();
            simd::intersect_u32_into(a, b, &mut out);
            assert_eq!(out, expect);
        }
    }
}
