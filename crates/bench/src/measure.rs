//! Tiny wall-clock measurement helpers (medians over repeated runs), so
//! the `repro` binary can print the paper's timing figures (Fig. 6/7,
//! the ablations) as tables in seconds. They are not a benchmark: claims
//! about the serving path go through `perf/`.

use std::time::{Duration, Instant};

/// Run `f` once and return its result with the elapsed time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Run `f` `runs` times; return the last result and the median duration.
pub fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(runs > 0);
    let mut durations = Vec::with_capacity(runs);
    let mut result = None;
    for _ in 0..runs {
        let (r, d) = time_once(&mut f);
        durations.push(d);
        result = Some(r);
    }
    durations.sort_unstable();
    (result.expect("runs > 0"), durations[durations.len() / 2])
}

/// Microseconds as f64, for table printing.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds as f64, for table printing.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures_something() {
        let (value, d) = time_once(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn time_median_returns_a_result_and_positive_time() {
        let (v, d) = time_median(5, || 42);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < Duration::from_secs(1).as_nanos());
    }

    #[test]
    fn unit_conversions() {
        let d = Duration::from_millis(1500);
        assert!((millis(d) - 1500.0).abs() < 1e-9);
        assert!((micros(d) - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn zero_runs_panics() {
        let _ = time_median(0, || ());
    }
}
