//! `ncq-obs` — hand-rolled observability for the nearest-concept
//! engine: a lock-free metrics registry (counters, gauges,
//! log-bucketed latency histograms with exact-at-bucket-resolution
//! p50/p90/p99) and structured per-query tracing (span trees in a
//! bounded ring, with a slow-query log above a configurable
//! threshold).
//!
//! The crate is dependency-free by design: the build image has no
//! registry access, so this plays the role `metrics`/`tracing` would
//! — same shapes, a fraction of the surface. One process-global
//! [`Obs`] instance ([`obs`]) owns the registry, the trace sinks, the
//! trace-id allocator, and the master on/off switch; instrumented
//! code guards its recording on [`Obs::enabled`], one relaxed atomic
//! load, so metrics-off overhead on the hot meet path is measurable
//! noise (CHANGES.md, PR 8 pinned it ≤ 5% even with metrics *on*).

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{FinishedTrace, SpanRec};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Completed traces kept in the ring buffer.
const TRACE_RING: usize = 256;
/// Entries kept in the slow-query log.
const SLOW_RING: usize = 64;
/// Default slow-query threshold: 50 ms.
const DEFAULT_SLOW_THRESHOLD_NS: u64 = 50_000_000;

/// Process-global observability state. Use [`obs`].
pub struct Obs {
    enabled: AtomicBool,
    /// The metrics registry; look handles up once, record through the
    /// `Arc`.
    pub registry: Registry,
    next_trace_id: AtomicU64,
    slow_threshold_ns: AtomicU64,
    traces: Mutex<VecDeque<Arc<FinishedTrace>>>,
    slow: Mutex<VecDeque<Arc<FinishedTrace>>>,
    slow_total: metrics::Counter,
}

/// The process-global [`Obs`] instance.
pub fn obs() -> &'static Obs {
    static OBS: OnceLock<Obs> = OnceLock::new();
    OBS.get_or_init(|| Obs {
        enabled: AtomicBool::new(true),
        registry: Registry::default(),
        next_trace_id: AtomicU64::new(1),
        slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
        traces: Mutex::new(VecDeque::new()),
        slow: Mutex::new(VecDeque::new()),
        slow_total: metrics::Counter::default(),
    })
}

impl Obs {
    /// The master switch: instrumented code records only when this is
    /// on (one relaxed load). On by default.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Flip the master switch at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Allocate a fresh trace/request id (never 0).
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Relaxed)
    }

    /// Start a trace with the given id on this thread, if enabled.
    pub fn begin_trace(&self, id: u64) {
        if self.enabled() {
            trace::start(id);
        }
    }

    /// Finish this thread's trace into the ring buffer (and the
    /// slow-query log when over threshold). Returns the sealed trace.
    pub fn finish_trace(&self) -> Option<Arc<FinishedTrace>> {
        let finished = Arc::new(trace::finish()?);
        push_ring(&self.traces, TRACE_RING, Arc::clone(&finished));
        if finished.total_ns > self.slow_threshold_ns.load(Relaxed) {
            self.slow_total.inc();
            push_ring(&self.slow, SLOW_RING, Arc::clone(&finished));
        }
        Some(finished)
    }

    /// The last `n` completed traces, most recent first.
    pub fn recent_traces(&self, n: usize) -> Vec<Arc<FinishedTrace>> {
        read_ring(&self.traces, n)
    }

    /// The last `n` slow-query traces, most recent first.
    pub fn recent_slow(&self, n: usize) -> Vec<Arc<FinishedTrace>> {
        read_ring(&self.slow, n)
    }

    /// Traces recorded over the slow threshold since start.
    pub fn slow_count(&self) -> u64 {
        self.slow_total.get()
    }

    /// The slow-query threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_threshold_ns.load(Relaxed))
    }

    /// Set the slow-query threshold.
    pub fn set_slow_threshold(&self, d: Duration) {
        self.slow_threshold_ns
            .store(d.as_nanos().min(u64::MAX as u128) as u64, Relaxed);
    }
}

fn push_ring(ring: &Mutex<VecDeque<Arc<FinishedTrace>>>, cap: usize, t: Arc<FinishedTrace>) {
    let mut ring = ring.lock().expect("trace ring lock");
    if ring.len() >= cap {
        ring.pop_front();
    }
    ring.push_back(t);
}

fn read_ring(ring: &Mutex<VecDeque<Arc<FinishedTrace>>>, n: usize) -> Vec<Arc<FinishedTrace>> {
    let ring = ring.lock().expect("trace ring lock");
    ring.iter().rev().take(n).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = obs().next_trace_id();
        let b = obs().next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn finished_traces_land_in_the_ring() {
        let id = obs().next_trace_id();
        obs().begin_trace(id);
        {
            let _s = trace::span("stage");
        }
        let sealed = obs().finish_trace().expect("trace was active");
        assert_eq!(sealed.id, id);
        let recent = obs().recent_traces(TRACE_RING);
        assert!(
            recent.iter().any(|t| t.id == id),
            "trace {id} not in the ring"
        );
    }

    #[test]
    fn slow_threshold_routes_to_the_slow_log() {
        // Threshold zero: everything with nonzero duration is slow.
        let id = obs().next_trace_id();
        let before = obs().slow_threshold();
        obs().set_slow_threshold(Duration::ZERO);
        obs().begin_trace(id);
        std::thread::sleep(Duration::from_millis(1));
        obs().finish_trace().unwrap();
        obs().set_slow_threshold(before);
        assert!(
            obs().recent_slow(SLOW_RING).iter().any(|t| t.id == id),
            "trace {id} not in the slow log"
        );
        assert!(obs().slow_count() >= 1);
    }

    #[test]
    fn disabled_switch_suppresses_trace_creation() {
        // Serialize against other tests touching the global switch by
        // only asserting the local effect.
        let was = obs().enabled();
        obs().set_enabled(false);
        obs().begin_trace(obs().next_trace_id());
        assert!(!trace::is_active(), "begin_trace must be a no-op when off");
        assert_eq!(obs().finish_trace().map(|t| t.id), None);
        obs().set_enabled(was);
    }
}
