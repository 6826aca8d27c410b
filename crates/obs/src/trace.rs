//! The tracing half of `ncq-obs`: per-query span trees.
//!
//! A request gets one `Trace` — a flat vector of [`SpanRec`]s whose
//! `parent` indices encode the tree — carried in a thread-local slot
//! while the owning thread works on it. The server evaluates each
//! request start to finish on the thread that made it, so thread-local
//! is the natural home.
//!
//! Every instrumentation primitive ([`span`], [`event`], [`annotate`])
//! is a no-op when no trace is active on the thread, so instrumented
//! library code (meet, remote router) costs one TLS check when tracing
//! is off the request path.

use std::cell::RefCell;
use std::time::Instant;

/// One span of a trace: a stage the request actually crossed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Index of the parent span in the trace's `spans` vector;
    /// `None` only for the root.
    pub parent: Option<u32>,
    /// Stage name (static: "parse", "meet_eval", …).
    pub stage: &'static str,
    /// Start, nanoseconds relative to the trace's start.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Key/value annotations (strategy chosen, replica address, …).
    pub attrs: Vec<(&'static str, String)>,
}

/// An in-flight trace. Created by [`start`] (installs into the
/// thread-local slot) and closed by [`finish`].
#[derive(Debug)]
struct Trace {
    /// The request's trace id — propagated across the remote wire so
    /// replica-side traces stitch to the coordinator's.
    id: u64,
    started: Instant,
    spans: Vec<SpanRec>,
    /// Stack of currently open span indices; the top is the parent of
    /// the next span.
    open: Vec<u32>,
}

impl Trace {
    fn new(id: u64) -> Trace {
        Trace {
            id,
            started: Instant::now(),
            spans: vec![SpanRec {
                parent: None,
                stage: "request",
                start_ns: 0,
                dur_ns: 0,
                attrs: Vec::new(),
            }],
            open: vec![0],
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Close everything still open and seal the trace.
    fn into_finished(mut self) -> FinishedTrace {
        let now = self.elapsed_ns();
        while let Some(idx) = self.open.pop() {
            let span = &mut self.spans[idx as usize];
            span.dur_ns = now.saturating_sub(span.start_ns);
        }
        FinishedTrace {
            id: self.id,
            total_ns: self.spans[0].dur_ns,
            spans: self.spans,
        }
    }
}

/// A completed span tree, as held in the trace ring / slow-query log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The request's trace id.
    pub id: u64,
    /// End-to-end duration (the root span's).
    pub total_ns: u64,
    /// Spans in recording order; parents precede children.
    pub spans: Vec<SpanRec>,
}

impl FinishedTrace {
    /// Spans with the given stage name.
    pub fn spans_named(&self, stage: &str) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.stage == stage).collect()
    }

    /// Render as an indented text tree, one line per span:
    /// `trace <id> total_us=<n>` then `  <stage> start_us=… dur_us=…
    /// k=v …` nested by depth.
    pub fn render(&self) -> Vec<String> {
        let mut depth = vec![0usize; self.spans.len()];
        let mut out = Vec::with_capacity(self.spans.len() + 1);
        out.push(format!(
            "trace {} total_us={}",
            self.id,
            self.total_ns / 1_000
        ));
        for (i, span) in self.spans.iter().enumerate() {
            depth[i] = span.parent.map_or(0, |p| depth[p as usize] + 1);
            let mut line = format!(
                "{}{} start_us={} dur_us={}",
                "  ".repeat(depth[i] + 1),
                span.stage,
                span.start_ns / 1_000,
                span.dur_ns / 1_000
            );
            for (k, v) in &span.attrs {
                line.push_str(&format!(" {k}={v}"));
            }
            out.push(line);
        }
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Begin a new trace with the given id and install it as this
/// thread's current trace (replacing any leftover one).
pub fn start(id: u64) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Trace::new(id)));
}

/// Whether a trace is active on this thread.
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The active trace's id, for propagation (remote frames, `ERR`
/// correlation).
pub fn current_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.id))
}

/// Drop the current trace without finishing it (panic recovery).
pub fn clear() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Finish the current trace: closes all open spans and returns the
/// sealed tree. `None` when no trace is active.
pub fn finish() -> Option<FinishedTrace> {
    CURRENT
        .with(|c| c.borrow_mut().take())
        .map(Trace::into_finished)
}

/// Open a span; it closes (duration recorded) when the returned guard
/// drops. A no-op guard when no trace is active.
pub fn span(stage: &'static str) -> SpanGuard {
    let idx = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let trace = cur.as_mut()?;
        let now = trace.elapsed_ns();
        let parent = trace.open.last().copied();
        let idx = trace.spans.len() as u32;
        trace.spans.push(SpanRec {
            parent,
            stage,
            start_ns: now,
            dur_ns: 0,
            attrs: Vec::new(),
        });
        trace.open.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

/// Guard for an open span; dropping closes it.
pub struct SpanGuard {
    idx: Option<u32>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            // The trace may have been finished while the guard was
            // alive (panic unwind paths); closing is then
            // moot.
            let Some(trace) = cur.as_mut() else { return };
            let now = trace.elapsed_ns();
            if let Some(span) = trace.spans.get_mut(idx as usize) {
                if span.dur_ns == 0 {
                    span.dur_ns = now.saturating_sub(span.start_ns);
                }
            }
            trace.open.retain(|&i| i != idx);
        });
    }
}

/// Annotate the innermost open span of the current trace.
pub fn annotate(key: &'static str, value: String) {
    CURRENT.with(|c| {
        if let Some(trace) = c.borrow_mut().as_mut() {
            if let Some(&idx) = trace.open.last() {
                trace.spans[idx as usize].attrs.push((key, value));
            }
        }
    });
}

/// Record an instant event (a zero-duration span) on the current
/// trace, with one detail attribute.
pub fn event(stage: &'static str, detail: String) {
    CURRENT.with(|c| {
        if let Some(trace) = c.borrow_mut().as_mut() {
            let now = trace.elapsed_ns();
            let parent = trace.open.last().copied();
            trace.spans.push(SpanRec {
                parent,
                stage,
                start_ns: now,
                dur_ns: 0,
                attrs: vec![("detail", detail)],
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_seal_into_a_tree() {
        start(7);
        {
            let _outer = span("outer");
            annotate("k", "v".into());
            {
                let _inner = span("inner");
                event("tick", "detail".into());
            }
        }
        let t = finish().expect("trace was active");
        assert_eq!(t.id, 7);
        let stages: Vec<&str> = t.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec!["request", "outer", "inner", "tick"]);
        // Parent chain: outer under request, inner under outer, the
        // event under inner.
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.spans[1].attrs, vec![("k", "v".to_owned())]);
        assert!(t.total_ns >= t.spans[1].dur_ns);
        assert!(t.spans[1].dur_ns >= t.spans[2].dur_ns);
        let text = t.render().join("\n");
        assert!(text.contains("trace 7"), "{text}");
        assert!(text.contains("    inner "), "indented twice: {text}");
    }

    #[test]
    fn everything_is_a_noop_without_an_active_trace() {
        clear();
        assert!(!is_active());
        assert_eq!(current_id(), None);
        {
            let _g = span("orphan");
            annotate("k", "v".into());
            event("e", "d".into());
        }
        assert_eq!(finish(), None);
    }

    #[test]
    fn guard_outliving_the_trace_is_harmless() {
        start(11);
        let g = span("escapee");
        let _ = finish();
        drop(g); // no trace on the thread any more: must not panic
        assert!(!is_active());
    }
}
