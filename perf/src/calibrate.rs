//! `perf calibrate`: how far identical code disagrees with itself.
//!
//! Runs every workload [`RUNS`] times, each run a fresh process (peak
//! memory is per process) with its own seed and the benchmark's own
//! window, and writes `perf/NOISE.json`: per (workload, end-to-end
//! metric) the values, median, quartiles and spreads. The spread that
//! gates is the one the driver computes — interquartile distance over
//! median, quartiles by Python's `statistics.quantiles(n=4)`. Each
//! bound in `spec.rs` must cover it; the command fails when one does
//! not, or when the medians of the first and second half of the runs
//! differ by more than the bound.

use crate::spec::{EndToEnd, END_TO_END, RUN_SECONDS};
use crate::stack::BoxError;
use crate::stats::{median, quartiles, sorted};
use crate::workload::ALL;
use std::fmt::Write as _;
use std::process::Command;

/// Runs per workload: what the driver makes before it accepts the
/// benchmark.
const RUNS: usize = 10;

/// The number after `"<name>": {"value": ` in a result line.
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One benchmark run in a child process; the values of every
/// end-to-end metric, in table order.
fn child_run(workload: &str, seed: u64) -> Result<Vec<f64>, BoxError> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
        .into());
    }
    END_TO_END
        .iter()
        .map(|m| {
            metric_value(last, m.name)
                .ok_or_else(|| format!("{workload} seed {seed}: no {} in {last}", m.name).into())
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worse_by(metric: &EndToEnd, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if metric.better == "higher" {
        -change
    } else {
        change
    }
}

pub fn calibrate() -> Result<bool, BoxError> {
    // values[workload][metric][run]
    let mut values = vec![vec![Vec::with_capacity(RUNS); END_TO_END.len()]; ALL.len()];
    for run in 0..RUNS {
        for (w, workload) in ALL.iter().enumerate() {
            let seed = 1 + run as u64;
            eprintln!(
                "calibrate: run {}/{RUNS} {} seed {seed}",
                run + 1,
                workload.name()
            );
            let row = child_run(workload.name(), seed)?;
            for (column, v) in values[w].iter_mut().zip(row) {
                column.push(v);
            }
        }
    }

    let mut all_fit = true;
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<28} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "iqr", "full", "halves", "bound"
    );
    for (w, workload) in ALL.iter().enumerate() {
        for (metric, v) in END_TO_END.iter().zip(&values[w]) {
            let m = median(v);
            let (q1, q3) = quartiles(v);
            let s = sorted(v.clone());
            let iqr = (q3 - q1) / m;
            let full = (s[s.len() - 1] - s[0]) / m;
            let (first, second) = v.split_at(v.len() / 2);
            let halves = worse_by(metric, median(first), median(second));
            let fits = iqr <= metric.bound && halves.abs() <= metric.bound;
            all_fit &= fits;
            println!(
                "{:<12} {:<28} {m:>12.4} {iqr:>8.4} {full:>8.4} {halves:>8.4} {:>6}{}",
                workload.name(),
                metric.name,
                metric.bound,
                if fits { "" } else { "  DOES NOT FIT" }
            );
            let list: Vec<String> = v.iter().map(f64::to_string).collect();
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"values\": [{}], \"median\": {m}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"relative_iqr\": {iqr}, \"relative_full_spread\": {full}, \
                 \"second_half_worse_by\": {halves}, \"bound\": {}, \"fits\": {fits}}}",
                workload.name(),
                metric.name,
                metric.unit,
                list.join(", "),
                metric.bound
            ));
        }
    }

    let mut json = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    writeln!(json, "  \"runs_per_workload\": {RUNS},")?;
    writeln!(json, "  \"seeds\": \"1..={RUNS}\",")?;
    writeln!(json, "  \"window_seconds\": {RUN_SECONDS},")?;
    writeln!(json, "  \"available_parallelism\": {cores},")?;
    writeln!(json, "  \"all_fit\": {all_fit},")?;
    writeln!(json, "  \"pairs\": [\n{}\n  ]\n}}", rows.join(",\n"))?;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("NOISE.json");
    std::fs::write(&path, json)?;
    eprintln!("calibrate: wrote {}", path.display());
    Ok(all_fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_out_of_a_result_line() {
        let line = crate::spec::result_line(true, 10, 0, &[("qps", 22.5), ("setup_s", 1.0e-3)]);
        assert_eq!(metric_value(&line, "qps"), Some(22.5));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.001));
        assert_eq!(metric_value(&line, "p50_us"), None);
    }

    #[test]
    fn worse_follows_the_metric_direction() {
        let qps = &END_TO_END[0];
        let p50 = &END_TO_END[1];
        assert!(worse_by(qps, 100.0, 90.0) > 0.09);
        assert!(worse_by(qps, 100.0, 110.0) < 0.0);
        assert!(worse_by(p50, 100.0, 110.0) > 0.09);
    }
}
