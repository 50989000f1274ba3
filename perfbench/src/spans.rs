//! Host-side span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions; nothing inside the program is
//! instrumented. A disabled recorder runs the closure and nothing else,
//! so untraced runs pay one branch per call site.
//!
//! Spans live in memory until [`Tracer::take`] hands them out. They are
//! written as Chrome trace-event JSON (the format
//! `tapeflow_sim::probe::TraceRecorder` writes), so a traced run opens in
//! Perfetto or `chrome://tracing`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;
use tapeflow_sim::json::Value;

/// One closed span: a named interval and the span that enclosed it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.trace` or `core.pipeline.tflow`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same batch, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `on == false` makes every [`Tracer::span`] a plain call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        r
    }

    /// Hands out every span recorded since the last call.
    ///
    /// # Panics
    ///
    /// Panics when called from inside an open span.
    pub fn take(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "take() inside an open span");
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time per span name, in milliseconds: each span's duration minus
/// the part of it its direct children cover.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
    }
    out
}

/// Chrome trace-event document for one batch of spans. `meta` lands in
/// the document's `otherData` section (host identity, workload, seed).
pub fn chrome_trace(spans: &[Span], process: &str, meta: Value) -> Value {
    let mut name_args = Value::object();
    name_args.set("name", process);
    let mut m = Value::object();
    m.set("name", "process_name")
        .set("ph", "M")
        .set("pid", 0u64)
        .set("tid", 0u64)
        .set("args", name_args);
    let mut events = vec![m];
    for s in spans {
        let mut e = Value::object();
        e.set("name", s.name)
            .set("cat", s.name.split('.').next().unwrap_or(s.name))
            .set("ph", "X")
            .set("ts", s.start_ns as f64 / 1e3)
            .set("dur", s.dur_ns() as f64 / 1e3)
            .set("pid", 0u64)
            .set("tid", 0u64);
        events.push(e);
    }
    let mut doc = Value::object();
    doc.set("displayTimeUnit", "ns")
        .set("traceEvents", Value::Arr(events))
        .set("otherData", meta);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 2_000_000,
                end_ns: 3_000_000,
                parent: Some(1),
            },
        ];
        let t = self_times_ms(&spans);
        assert_eq!(t["root"], 7.0);
        assert_eq!(t["a"], 2.0);
        assert_eq!(t["b"], 1.0);
        let total: f64 = t.values().sum();
        assert_eq!(total, 10.0, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
