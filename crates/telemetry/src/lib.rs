//! # parfait-telemetry
//!
//! Structured tracing, metrics, and progress reporting for the Parfait
//! proof pipeline. Zero external dependencies.
//!
//! Two APIs, one job each:
//!
//! - [`Telemetry`] streams what the pipeline is doing *now* to a sink:
//!   - **spans** — nested, wall-clock-timed regions
//!     (`tel.span("fps.command")`), ended by RAII drop;
//!   - **progress** — heartbeats with numeric fields
//!     (`tel.progress("fps.heartbeat", &[("cycles", c), ...])`).
//! - [`metrics::Metrics`] accumulates every count, gauge and
//!   histogram, which a bin snapshots into its `--metrics` manifest.
//!
//! Telemetry events flow to a [`Recorder`]: [`sinks`] provides a
//! human-readable indented log and a fan-out combinator, and
//! [`progress::MatrixView`] a live per-cell view.
//!
//! The disabled handle (`Telemetry::disabled()`, also `Default`) is a
//! `None` behind the `Clone`: every instrumentation call is a single
//! branch on the hot path and no recorder, clock, or lock is touched.

#![forbid(unsafe_code)]

pub mod env;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod sinks;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One telemetry event, passed by reference to [`Recorder::record`].
///
/// Timestamps (`t_us`) are microseconds since the handle was created;
/// `tid` is a small per-thread integer.
#[derive(Clone, Debug)]
pub enum Event<'a> {
    SpanBegin { id: u64, parent: u64, depth: usize, tid: u64, name: &'a str, t_us: u64 },
    SpanEnd { id: u64, parent: u64, depth: usize, tid: u64, name: &'a str, t_us: u64, dur_us: u64 },
    Progress { name: &'a str, fields: &'a [(&'a str, f64)], tid: u64, t_us: u64 },
}

/// A sink for telemetry events.
///
/// Recorders are driven under a lock from the [`Telemetry`] handle, so
/// implementations are free to keep mutable state without their own
/// synchronization.
pub trait Recorder: Send {
    /// Consume one event.
    fn record(&mut self, event: &Event<'_>);

    /// Flush and close the sink.
    /// Called once by [`Telemetry::finish`]; must be idempotent.
    fn finish(&mut self) {}
}

struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    recorder: Mutex<RecorderState>,
}

struct RecorderState {
    recorder: Box<dyn Recorder>,
    finished: bool,
}

// Per-thread compact id for trace lanes, and the active-span stack for
// parentage. Spans are RAII guards, so per thread they strictly nest.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The shared instrumentation handle.
///
/// Cloning is cheap (an `Option<Arc>`), and clones feed the same
/// recorder — hand them to every layer that should report. The
/// [`disabled`](Telemetry::disabled) handle makes every call a no-op
/// behind one branch.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl Telemetry {
    /// The no-op handle: all instrumentation compiles down to an
    /// `is_none` check.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// A handle recording into `recorder`.
    pub fn new(recorder: Box<dyn Recorder>) -> Telemetry {
        Telemetry(Some(Arc::new(Inner {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            recorder: Mutex::new(RecorderState { recorder, finished: false }),
        })))
    }

    /// Whether events are being recorded. Callers can gate *expensive
    /// context computation* (not the calls themselves) on this.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn t_us(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    /// Open a nested, wall-clock-timed span. Closed when the returned
    /// guard drops.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.0 else {
            return Span {
                tel: Telemetry(None),
                id: 0,
                parent: 0,
                depth: 0,
                name: String::new(),
                begin_us: 0,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tid = current_tid();
        let (parent, depth) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            let depth = s.len();
            s.push(id);
            (parent, depth)
        });
        let t_us = Self::t_us(inner);
        {
            let mut state = inner.recorder.lock().unwrap();
            state.recorder.record(&Event::SpanBegin { id, parent, depth, tid, name, t_us });
        }
        Span { tel: self.clone(), id, parent, depth, name: name.to_string(), begin_us: t_us }
    }

    /// Emit a progress/heartbeat event with named numeric fields.
    pub fn progress(&self, name: &str, fields: &[(&str, f64)]) {
        let Some(inner) = &self.0 else { return };
        let t_us = Self::t_us(inner);
        let tid = current_tid();
        let mut state = inner.recorder.lock().unwrap();
        state.recorder.record(&Event::Progress { name, fields, tid, t_us });
    }

    /// Flush and close the underlying recorder. Safe to call more than
    /// once; later telemetry calls on the handle still no-op through
    /// the recorder's own idempotence.
    pub fn finish(&self) {
        let Some(inner) = &self.0 else { return };
        let mut state = inner.recorder.lock().unwrap();
        if !state.finished {
            state.finished = true;
            state.recorder.finish();
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

/// RAII guard for an open span; emits `SpanEnd` on drop.
///
/// Spans must be dropped in reverse order of creation within a thread
/// (the natural result of scoping them), or parentage of later spans
/// will be misattributed.
pub struct Span {
    tel: Telemetry,
    id: u64,
    parent: u64,
    depth: usize,
    name: String,
    begin_us: u64,
}

impl Span {
    /// The span's id, usable for correlating external context.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = &self.tel.0 else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop back to (and including) this span; tolerates a
            // mis-nested drop rather than corrupting the stack.
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let t_us = Telemetry::t_us(inner);
        let tid = current_tid();
        let mut state = inner.recorder.lock().unwrap();
        state.recorder.record(&Event::SpanEnd {
            id: self.id,
            parent: self.parent,
            depth: self.depth,
            tid,
            name: &self.name,
            t_us,
            dur_us: t_us.saturating_sub(self.begin_us),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder that captures a flat description of each event.
    #[derive(Clone, Default)]
    pub(crate) struct Capture(std::sync::Arc<Mutex<Vec<String>>>);

    impl Capture {
        /// The events captured so far, one line each.
        pub(crate) fn lines(&self) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Recorder for Capture {
        fn record(&mut self, event: &Event<'_>) {
            let line = match event {
                Event::SpanBegin { id, parent, name, depth, .. } => {
                    format!("B {name} id={id} parent={parent} depth={depth}")
                }
                Event::SpanEnd { id, parent, name, depth, .. } => {
                    format!("E {name} id={id} parent={parent} depth={depth}")
                }
                Event::Progress { name, fields, .. } => {
                    format!("P {name} n_fields={}", fields.len())
                }
            };
            self.0.lock().unwrap().push(line);
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        let _outer = tel.span("a");
        tel.progress("p", &[("x", 1.0)]);
        tel.finish();
    }

    #[test]
    fn nested_spans_report_parentage_and_depth() {
        let log = Capture::default();
        let tel = Telemetry::new(Box::new(log.clone()));
        {
            let _a = tel.span("outer");
            {
                let _b = tel.span("mid");
                let _c = tel.span("leaf");
            }
            let _d = tel.span("sibling");
        }
        assert_eq!(
            log.lines(),
            vec![
                "B outer id=1 parent=0 depth=0",
                "B mid id=2 parent=1 depth=1",
                "B leaf id=3 parent=2 depth=2",
                "E leaf id=3 parent=2 depth=2",
                "E mid id=2 parent=1 depth=1",
                "B sibling id=4 parent=1 depth=1",
                "E sibling id=4 parent=1 depth=1",
                "E outer id=1 parent=0 depth=0",
            ]
        );
    }

    #[test]
    fn finish_is_idempotent() {
        struct CountFinish(std::sync::Arc<AtomicU64>);
        impl Recorder for CountFinish {
            fn record(&mut self, _: &Event<'_>) {}
            fn finish(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let n = std::sync::Arc::new(AtomicU64::new(0));
        let tel = Telemetry::new(Box::new(CountFinish(n.clone())));
        tel.finish();
        tel.finish();
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clones_share_one_recorder() {
        let log = Capture::default();
        let tel = Telemetry::new(Box::new(log.clone()));
        let tel2 = tel.clone();
        tel.progress("a", &[]);
        tel2.progress("b", &[("x", 1.0)]);
        tel.finish();
        assert_eq!(
            log.lines(),
            vec!["P a n_fields=0", "P b n_fields=1"],
            "clones must feed one recorder"
        );
    }
}
