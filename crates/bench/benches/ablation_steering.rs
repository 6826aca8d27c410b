//! Ablation A bench: σ-steered `meet₂` (Fig. 3) against the naive
//! two-ancestor-list LCA and the Euler-tour index, across document depth.
//! The steered version's cost depends only on the hit distance; the naive
//! baseline pays for the full depth; the index answers in O(1). The
//! `deep_pair` shapes scale the *distance* with the depth, separating
//! O(distance) walks from the O(1) index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncq_bench::experiments::ablations::{deep_chain_db, deep_pair_db};
use ncq_core::{meet2, meet2_indexed, meet2_naive};
use std::hint::black_box;
use std::time::Duration;

fn steering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_steering");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    for depth in [8usize, 64, 512] {
        let (db, a, b) = deep_chain_db(depth);
        db.store().meet_index(); // build outside the timed region
        group.bench_with_input(BenchmarkId::new("steered", depth), &depth, |bch, _| {
            bch.iter(|| meet2(db.store(), black_box(a), black_box(b)))
        });
        group.bench_with_input(BenchmarkId::new("naive", depth), &depth, |bch, _| {
            bch.iter(|| meet2_naive(db.store(), black_box(a), black_box(b)))
        });
        group.bench_with_input(BenchmarkId::new("indexed", depth), &depth, |bch, _| {
            bch.iter(|| meet2_indexed(db.store(), black_box(a), black_box(b)))
        });
    }
    // Distance-scaling shape: probes 2·depth + 2 edges apart.
    for depth in [16usize, 256, 1024] {
        let (db, a, b) = deep_pair_db(depth);
        db.store().meet_index();
        group.bench_with_input(
            BenchmarkId::new("deep_pair_steered", depth),
            &depth,
            |bch, _| bch.iter(|| meet2(db.store(), black_box(a), black_box(b))),
        );
        group.bench_with_input(
            BenchmarkId::new("deep_pair_indexed", depth),
            &depth,
            |bch, _| bch.iter(|| meet2_indexed(db.store(), black_box(a), black_box(b))),
        );
    }
    group.finish();
}

criterion_group!(benches, steering);
criterion_main!(benches);
