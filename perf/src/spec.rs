//! The benchmark's contract as data: workload rationales, end-to-end
//! metrics with their regression bounds, per-layer metrics. The run
//! prints exactly these names and `BENCHMARK.json` is rendered from
//! these tables (a test keeps the committed file equal to the render).

use crate::workload::WorkloadId;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse:
    /// the issue's floor, never below the interquartile spread
    /// `perf calibrate` measured (NOISE.json).
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The gated metrics, in print order. Three of the issue's nine are
/// not rows here. `error_rate` must be exactly 0, and a bound relative
/// to 0 is no bound: it travels as `failed`/`attempted`/`correct` in
/// the result line and as the exit code. `p99_us` and `cold_start_ms`
/// repeat no better than 15 % on identical code, so by the issue's rule
/// (demote, do not widen) they are per-layer metrics:
/// `server.tcp_p99_us` and `store.cold_start_ms`. Every bound is at
/// most 0.10 but that of `setup_s`: the driver's contract wants it
/// gated, with the largest bound, and as the fastest of nine
/// repetitions it still spreads by 7-17 % on the sandbox VM.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("qps", "req/s", "higher", 0.08),
    end_to_end("p50_us", "us", "lower", 0.08),
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("peak_rss_mb", "MB", "lower", 0.05),
    end_to_end("serve_rss_mb", "MB", "lower", 0.08),
    end_to_end("snapshot_bytes_per_xml_byte", "ratio", "lower", 0.002),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced pass, in print order. README.md
/// says which end-to-end metric each should move, on which workload.
pub const PER_LAYER: [PerLayer; 44] = [
    layer("server.tcp_ping_us", "us", "lower"),
    layer("server.tcp_us", "us", "lower"),
    layer("server.tcp_p99_us", "us", "lower"),
    layer("server.lines_us", "us", "lower"),
    layer("server.request_us", "us", "lower"),
    layer("server.socket_self_us", "us", "lower"),
    layer("server.protocol_self_us", "us", "lower"),
    layer("server.queue_self_us", "us", "lower"),
    layer("server.sem_hit_rate", "ratio", "higher"),
    layer("server.term_cache_hit_rate", "ratio", "higher"),
    layer("server.batch_mean", "count", "higher"),
    layer("server.resp_bytes_per_req", "bytes", "lower"),
    layer("core.meet_terms_us", "us", "lower"),
    layer("core.split_coverage", "ratio", "higher"),
    layer("fulltext.search_us", "us", "lower"),
    layer("fulltext.postings_per_req", "count", "lower"),
    layer("core.plan_us", "us", "lower"),
    layer("core.sweep_share", "ratio", "higher"),
    layer("core.meet_us", "us", "lower"),
    layer("core.answer_us", "us", "lower"),
    layer("core.answers_per_req", "count", "lower"),
    layer("core.serialize_us", "us", "lower"),
    layer("query.parse_us", "us", "lower"),
    layer("query.eval_us", "us", "lower"),
    layer("store.lca_ns", "ns", "lower"),
    layer("simd.intersect_melem_s", "Melem/s", "higher"),
    layer("simd.vector_call_share", "ratio", "higher"),
    layer("server.remote_call_us", "us", "lower"),
    layer("server.remote_search_us", "us", "lower"),
    layer("server.remote_wire_bytes_per_req", "bytes", "lower"),
    layer("shard.meet_us", "us", "lower"),
    layer("shard.speedup", "ratio", "higher"),
    layer("xml.parse_ms", "ms", "lower"),
    layer("xml.parse_mb_s", "MB/s", "higher"),
    layer("xml.tree_rss_mb", "MB", "lower"),
    layer("store.transform_ms", "ms", "lower"),
    layer("fulltext.index_build_ms", "ms", "lower"),
    layer("store.meet_index_ms", "ms", "lower"),
    layer("store.snapshot_save_ms", "ms", "lower"),
    layer("store.cold_start_ms", "ms", "lower"),
    layer("store.snapshot_open_ms", "ms", "lower"),
    layer("store.first_touch_ms", "ms", "lower"),
    layer("store.snapshot_mb", "MB", "lower"),
    layer("bench.trace_overhead", "ratio", "lower"),
];

/// Why each workload exists, with the facts of its seed-1 corpus
/// (every run prints its own). One line, at most 200 characters.
pub fn why(workload: WorkloadId) -> &'static str {
    match workload {
        WorkloadId::DblpHot => {
            "64 cached MEETs cycled on a 10 MB DBLP corpus (521k nodes, depth 3, 3.6k terms, \
             22 answers/query): evaluation is bypassed, so this is the serving shell; \
             the bypass workload for core/store changes"
        }
        WorkloadId::DblpCold => {
            "The paper's mix over 8200 distinct queries on the same 10 MB corpus \
             (27 answers/query): result cache never hits, term cache always; term lookup, plan, \
             meet, rank, serialize do the work; 5% SQL scans"
        }
        WorkloadId::DeepSweep => {
            "4100 distinct queries on a 5.3 MB fork forest (582k nodes, depth 27, 8.1k Zipf terms, \
             7 answers/query): the planner must sweep, phrases intersect long postings, \
             the term cache overflows"
        }
        WorkloadId::RemoteDblp => {
            "Byte for byte dblp_cold's corpus and stream, served through RemoteBackend to one \
             RemoteEngine on loopback: remote_dblp minus dblp_cold on any metric is the cost \
             of the remote hop"
        }
    }
}

/// The unit a metric name is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or_else(|| panic!("metric {name:?} is in neither table"))
}

/// The last line of a run's standard output.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64)],
) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            assert!(value.is_finite(), "metric {name} is not a number: {value}");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        rows.join(", ")
    )
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = crate::workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_render_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= 0.10 || m.name == "setup_s", "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for w in crate::workload::ALL {
            assert!(ok_name(w.name()));
            assert!(why(w).len() <= 200 && !why(w).contains(['\n', '"', '\\']));
            names.push(w.name());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
