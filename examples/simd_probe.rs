//! Run a small query workload and print the SIMD kernel-dispatch
//! counters — the same numbers `STATS` reports as `simd.*` lines.
//!
//! ```sh
//! cargo run --release --example simd_probe
//! NCQ_SIMD=off cargo run --release --example simd_probe
//! ```
//!
//! The CI `simd-compat` job runs it under both settings and diffs the
//! output: the forced-scalar run must report `total.vector=0`, the
//! default run on vector hardware must report `total.vector>0` —
//! proving the matrix actually exercised both code paths rather than
//! running the same one twice.
//!
//! Output is one `key=value` per line, so it greps cleanly:
//!
//! ```text
//! mode=avx2
//! lower_bound.scalar=0
//! lower_bound.vector=412
//! ...
//! total.scalar=0
//! total.vector=9184
//! ```

use nearest_concept::core::reference::meet_sets;
use nearest_concept::core::{BatchQuery, MeetOptions};
use nearest_concept::{Database, ShardedDb};

fn main() {
    // A small forked corpus whose leaves interleave three terms, so
    // the workload drives every vectorized kernel: posting-list
    // intersections (search), frontier algebra + interval probes
    // (meets), tagged merges (batches), and gather-side range probes
    // (the sharded backend).
    let mut xml = String::from("<root>");
    for f in 0..16 {
        xml.push_str("<x><x><x>");
        for i in 0..40 {
            let n = f * 40 + i;
            xml.push_str("<p>alpha");
            if n % 2 == 0 {
                xml.push_str(" beta");
            }
            if n % 3 == 0 {
                xml.push_str(" gamma");
            }
            xml.push_str("</p>");
        }
        xml.push_str("</x></x></x>");
    }
    xml.push_str("</root>");
    let db = Database::from_xml_str(&xml).expect("probe corpus");

    let alpha = db.search("alpha");
    let beta = db.search("beta");
    let gamma = db.search("gamma");
    // Phrase search intersects the per-word posting lists before the
    // adjacency check — the `intersect` kernel's main call site.
    let phrase = db.search("alpha beta gamma");

    // Homogeneous-set meets walk the frontier algebra: `intersect`
    // and `difference` over sorted oid sets.
    let leaves = |hits: &nearest_concept::fulltext::HitSet| {
        hits.groups()
            .values()
            .max_by_key(|v| v.len())
            .cloned()
            .unwrap_or_default()
    };
    let frontier = meet_sets(db.store(), &leaves(&alpha), &leaves(&beta)).expect("same-path sets");
    let options = MeetOptions::default();

    let inputs = vec![&alpha, &beta, &gamma];
    let queries: Vec<BatchQuery<'_>> = (0..8)
        .map(|_| BatchQuery::new(inputs.clone(), options.clone()))
        .collect();
    let batched = db.meet_hits_batch(&queries);

    let sharded = ShardedDb::new(db, 4);
    let gathered = sharded.meet_hits(&[&alpha, &beta], &options);

    eprintln!(
        "workload: {} phrase hits, {} set meets, {} batch results, {} gathered meets",
        phrase.len(),
        frontier.meets.len(),
        batched.iter().map(Vec::len).sum::<usize>(),
        gathered.len()
    );

    let stats = nearest_concept::simd::dispatch_stats();
    println!("mode={}", nearest_concept::simd::mode().name());
    for (kernel, scalar, vector) in stats.lines() {
        println!("{kernel}.scalar={scalar}");
        println!("{kernel}.vector={vector}");
    }
    println!("total.scalar={}", stats.total_scalar());
    println!("total.vector={}", stats.total_vector());
}
