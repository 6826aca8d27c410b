//! Ad-hoc microbenchmark of the raw kernels against their scalar
//! references, on pseudo-random sorted runs. Not a gate — the `perf/`
//! benchmark's `simd.*` rows are — just a quick probe while tuning:
//!
//! ```sh
//! cargo run --release -p ncq-simd --example kernel_bench
//! ```

use ncq_simd::Mode;
use std::time::Instant;

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer: cheap stateless pseudo-randomness.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sorted run of `n` distinct u32s, ~1/`density` of the key space.
fn run_of(seed: u64, n: usize, density: u64) -> Vec<u32> {
    let mut v = Vec::with_capacity(n);
    let mut x = 0u64;
    for i in 0..n {
        x += 1 + mix(seed ^ i as u64) % (2 * density - 1);
        v.push(x as u32);
    }
    v
}

fn bench(label: &str, a: &[u32], b: &[u32], reps: usize) {
    let mut out = Vec::new();
    let mut leg = |mode: Mode| {
        ncq_simd::set_mode_override(Some(mode));
        let t = Instant::now();
        for _ in 0..reps {
            ncq_simd::intersect_u32_into(
                std::hint::black_box(a),
                std::hint::black_box(b),
                &mut out,
            );
        }
        std::hint::black_box(&out);
        t.elapsed().as_secs_f64() * 1e3
    };
    let scalar = leg(Mode::Scalar);
    let vector = leg(Mode::Avx2);
    ncq_simd::set_mode_override(None);
    println!(
        "{label:<28} |a|={:<6} |b|={:<6} out={:<6} scalar={scalar:>7.2}ms vector={vector:>7.2}ms ratio={:.2}x",
        a.len(),
        b.len(),
        out.len(),
        scalar / vector,
    );
}

fn main() {
    println!("mode={}", ncq_simd::mode().name());
    for &n in &[1_000usize, 10_000, 100_000] {
        let reps = 40_000_000 / n.max(1);
        let a = run_of(1, n, 2);
        let b = run_of(2, n, 2);
        bench("equal-length ~50% overlap", &a, &b, reps);
        let rare = run_of(3, n / 16, 32);
        bench("16:1 skew", &a, &rare, reps);
    }
}
