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

use nearest_concept::{run_query, Database, QueryOutput};

fn main() {
    // A small forked corpus whose leaves interleave three terms, so
    // the workload drives both kernel families: posting-run
    // intersection (phrase search) and partition search (the dialect's
    // `contains` offspring test).
    let mut xml = String::from("<root>");
    for f in 0..24 {
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

    // Phrase search intersects the per-word owner runs before the
    // adjacency check — `intersect`.
    let phrase = db.search("alpha beta gamma");

    // A projection's `contains` asks, per candidate node, whether its
    // subtree holds a hit: one `lower_bound` partition search each.
    let rows = match run_query(
        &db,
        "select t from root/x/x/x as t where t contains 'gamma'",
    ) {
        Ok(QueryOutput::Rows(r)) => r.rows.len(),
        other => panic!("probe query: {other:?}"),
    };

    eprintln!(
        "workload: {} phrase hits, {rows} projected rows",
        phrase.len()
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
