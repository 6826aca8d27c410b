//! The metrics half of `ncq-obs`: monotonic counters, gauges, and
//! log-bucketed latency histograms behind a name-keyed registry.
//!
//! The design splits registration from recording. The [`Registry`]
//! holds a mutex-guarded name → metric map, but it is touched only at
//! *registration* — call sites look a metric up once (typically into a
//! `OnceLock<Arc<Counter>>` static) and then record through the shared
//! handle, which is a single relaxed atomic op. Nothing on the hot
//! path takes a lock.
//!
//! Histograms bucket by bit length (powers of two), so a recorded
//! nanosecond duration lands in bucket `⌈log2(v+1)⌉` — 65 buckets
//! cover the whole `u64` range with a branch-free index. Quantile
//! extraction walks the cumulative counts to the rank and reports the
//! containing bucket, which makes p50/p90/p99 *exact at bucket
//! resolution*: the true order statistic is guaranteed to lie inside
//! the returned bucket's `[lower, upper]` bounds (the unit suite pins
//! this against a sorted reference).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adjust by a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ≥ 1` holds values whose bit length is `i`, i.e. `[2^(i-1),
/// 2^i - 1]`. 64 value buckets plus the zero bucket cover all of
/// `u64`.
pub const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds). Recording is three relaxed atomic
/// adds; no locks, no allocation.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in: its bit length.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive `[lower, upper]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Zero every bucket plus the sum/count accumulators — the
    /// histogram half of a stats-window reset. Relaxed stores: a
    /// sample racing the reset lands wholly before or wholly after it
    /// at bucket granularity, same contract as recording itself.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.count.store(0, Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Mean sample, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket counts (a relaxed snapshot).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// The `[lower, upper]` bounds of the bucket containing the
    /// `q`-quantile sample (rank `⌈q·count⌉`), or `None` when empty.
    /// The true order statistic lies inside the returned range.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_bounds(i));
            }
        }
        Some(bucket_bounds(BUCKETS - 1))
    }

    /// Upper bound of the bucket holding the `q`-quantile, `0` when
    /// empty. This is the conservative single-number read: the true
    /// quantile is `≤` it and within 2× of it (bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map_or(0, |(_, hi)| hi)
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A registered metric, by kind.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Name-keyed metric registry. Registration takes the mutex;
/// recording never does (call sites keep the returned `Arc` handles).
#[derive(Default)]
pub struct Registry {
    map: Mutex<BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// Get or create the counter `name`. Panics if `name` is already
    /// registered as a different kind (a programming error).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.map.lock().expect("metrics registry lock");
        match map
            .entry(name)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.map.lock().expect("metrics registry lock");
        match map
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.map.lock().expect("metrics registry lock");
        match map
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Reset every registered histogram (counters and gauges are left
    /// alone: counters are monotonic by contract, and the server's
    /// window reset handles its own counter set). Backs `STATS RESET`.
    pub fn reset_histograms(&self) {
        let map = self.map.lock().expect("metrics registry lock");
        for metric in map.values() {
            if let Metric::Histogram(h) = metric {
                h.reset();
            }
        }
    }

    /// Prometheus-style text exposition of every registered metric,
    /// one `Vec` entry per line. Histograms render cumulative
    /// `_bucket{le="…"}` lines (empty leading buckets elided), the
    /// `+Inf` bucket, `_sum`/`_count`, and a quantile summary comment.
    pub fn render(&self) -> Vec<String> {
        let map = self.map.lock().expect("metrics registry lock");
        let mut out = Vec::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push(format!("# TYPE {name} counter"));
                    out.push(format!("{name} {}", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push(format!("# TYPE {name} gauge"));
                    out.push(format!("{name} {}", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push(format!("# TYPE {name} histogram"));
                    let counts = h.bucket_counts();
                    let last = counts.iter().rposition(|&c| c > 0);
                    let mut cum = 0u64;
                    if let Some(last) = last {
                        for (i, &c) in counts.iter().enumerate().take(last + 1) {
                            cum += c;
                            if c == 0 && cum == 0 {
                                continue; // elide empty leading buckets
                            }
                            let (_, hi) = bucket_bounds(i);
                            out.push(format!("{name}_bucket{{le=\"{hi}\"}} {cum}"));
                        }
                    }
                    out.push(format!("{name}_bucket{{le=\"+Inf\"}} {}", h.count()));
                    out.push(format!("{name}_sum {}", h.sum()));
                    out.push(format!("{name}_count {}", h.count()));
                    let mut q = format!("# {name}");
                    for (label, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                        let _ = write!(q, " {label}<={v}");
                    }
                    out.push(q);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_land_where_the_bounds_say() {
        // Every power of two, its predecessor and successor: the value
        // must fall inside bucket_bounds of its own bucket.
        let mut values = vec![0u64, 1, 2, 3];
        for shift in 2..64 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p + 1]);
        }
        values.push(u64::MAX);
        for v in values {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo}, {hi}]");
        }
        // Exact boundary pins: 0 is its own bucket, 1 starts bucket 1,
        // 1024 starts bucket 11 (i.e. 1023 and 1024 differ).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_ne!(bucket_index(1023), bucket_index(1024));
    }

    #[test]
    fn quantiles_bracket_a_sorted_reference() {
        // A spread of samples across several decades; the true order
        // statistic must lie inside the returned bucket bounds.
        let h = Histogram::default();
        let mut samples: Vec<u64> = (0..1000u64).map(|i| i * i % 90_000 + 7).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.50, 0.90, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: true {truth} outside [{lo}, {hi}]"
            );
            assert!(h.quantile(q) >= truth);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_reconciles_exactly() {
        // N threads × M samples each: count, sum, and the per-bucket
        // totals must all reconcile exactly — relaxed atomics lose
        // nothing.
        let h = Arc::new(Histogram::default());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t as u64 * 1_000 + i % 97);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), threads as u64 * per_thread);
        let mut expected_sum = 0u64;
        let mut expected_buckets = [0u64; BUCKETS];
        for t in 0..threads {
            for i in 0..per_thread {
                let v = t as u64 * 1_000 + i % 97;
                expected_sum += v;
                expected_buckets[bucket_index(v)] += 1;
            }
        }
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.bucket_counts(), expected_buckets);
    }

    #[test]
    fn registry_hands_out_shared_handles_and_renders() {
        let r = Registry::default();
        let a = r.counter("ncq_test_total");
        let b = r.counter("ncq_test_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same handle behind both Arcs");
        r.gauge("ncq_test_gauge").set(-5);
        let h = r.histogram("ncq_test_ns");
        h.record(100);
        h.record(100_000);
        let text = r.render().join("\n");
        assert!(text.contains("# TYPE ncq_test_total counter"), "{text}");
        assert!(text.contains("ncq_test_total 2"), "{text}");
        assert!(text.contains("ncq_test_gauge -5"), "{text}");
        assert!(text.contains("ncq_test_ns_count 2"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn reset_zeroes_buckets_sum_and_count() {
        let h = Histogram::default();
        for v in [0u64, 5, 1_000, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.bucket_counts(), [0u64; BUCKETS]);
        assert_eq!(h.quantile_bounds(0.5), None);
        // The histogram keeps working after a reset.
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7);
    }

    #[test]
    fn registry_reset_touches_only_histograms() {
        let r = Registry::default();
        let c = r.counter("ncq_reset_total");
        c.add(3);
        r.gauge("ncq_reset_gauge").set(9);
        let h = r.histogram("ncq_reset_ns");
        h.record(123);
        r.reset_histograms();
        assert_eq!(h.count(), 0, "histogram window cleared");
        assert_eq!(c.get(), 3, "counter untouched");
        assert_eq!(r.gauge("ncq_reset_gauge").get(), 9, "gauge untouched");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_a_programming_error() {
        let r = Registry::default();
        r.histogram("ncq_kind_clash");
        r.counter("ncq_kind_clash");
    }
}
