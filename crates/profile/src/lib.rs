//! # hipacc-profile
//!
//! The observability layer of the pipeline: a pluggable, zero-overhead-
//! when-disabled span recorder shared by the compiler, the static
//! verifier and the simulator runtime.
//!
//! The design is deliberately small:
//!
//! * A [`Span`] is one timed interval — a compile phase, a verifier pass,
//!   a simulated launch — with a category and optional string arguments.
//! * A [`ProfileSink`] receives spans. Instrumented code asks
//!   [`ProfileSink::enabled`] first and skips *all* measurement work when
//!   the sink is off; [`NullSink`] (the default everywhere) is therefore
//!   free. [`Recorder`] collects spans in memory for later export.
//! * [`chrome`] renders spans as Chrome `trace_event` JSON (loadable in
//!   `about:tracing` and Perfetto) and validates traces. Because the
//!   workspace is dependency-free, [`json`] is its own JSON reader and
//!   the one writer every emitted document goes through.
//!
//! Timestamps come from one process-wide monotonic epoch ([`now_us`]), so
//! spans recorded in different crates land on a single consistent
//! timeline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod json;

use std::sync::OnceLock;
use std::time::Instant;

/// Microseconds since the process-wide profiling epoch (first call wins).
///
/// Monotonic by construction: `Instant` never goes backwards.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One timed interval on the profiling timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran (e.g. `"lowering"`, `"verify:bounds"`, `"execute"`).
    pub name: String,
    /// Coarse grouping for trace viewers (`"compile"`, `"verify"`,
    /// `"launch"`).
    pub cat: String,
    /// Start, in microseconds since the profiling epoch ([`now_us`]).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Trace lane (`tid` in the Chrome trace). Spans from different
    /// streams carry different lanes so viewers draw one track each.
    pub lane: u32,
    /// Free-form key/value annotations (counters, labels).
    pub args: Vec<(String, String)>,
}

impl Span {
    /// A complete span with no arguments.
    pub fn new(
        name: impl Into<String>,
        cat: impl Into<String>,
        start_us: u64,
        dur_us: u64,
    ) -> Self {
        Span {
            name: name.into(),
            cat: cat.into(),
            start_us,
            dur_us,
            lane: 1,
            args: Vec::new(),
        }
    }

    /// Attach one key/value argument.
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Assign the span to a trace lane (Chrome trace `tid`).
    pub fn lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.dur_us as f64 / 1000.0
    }
}

/// Receiver of profiling spans.
///
/// Instrumented code must check [`ProfileSink::enabled`] before doing any
/// measurement work, so a disabled sink costs one virtual call per
/// potential span and nothing else.
pub trait ProfileSink {
    /// Whether spans should be measured and recorded at all.
    fn enabled(&self) -> bool;
    /// Record one finished span.
    fn record(&mut self, span: Span);
}

/// The disabled sink: reports `enabled() == false` and drops everything.
/// This is the default sink on every instrumented path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ProfileSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _span: Span) {}
}

/// An in-memory sink: collects spans for later export or inspection.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consume the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl ProfileSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&mut self, span: Span) {
        self.spans.push(span);
    }
}

/// Run `f`, recording a span for it when the sink is enabled.
///
/// With a disabled sink this is exactly one `enabled()` call plus the
/// closure — no clocks are read and no allocation happens.
pub fn timed<R>(sink: &mut dyn ProfileSink, name: &str, cat: &str, f: impl FnOnce() -> R) -> R {
    if !sink.enabled() {
        return f();
    }
    let start = now_us();
    let out = f();
    let end = now_us();
    sink.record(Span::new(name, cat, start, end.saturating_sub(start)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn null_sink_skips_measurement() {
        let mut sink = NullSink;
        let v = timed(&mut sink, "work", "test", || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn recorder_collects_spans_in_order() {
        let mut rec = Recorder::new();
        timed(&mut rec, "first", "test", || std::hint::black_box(1));
        timed(&mut rec, "second", "test", || std::hint::black_box(2));
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[0].name, "first");
        assert_eq!(rec.spans()[1].name, "second");
        assert!(rec.spans()[0].start_us <= rec.spans()[1].start_us);
    }

    #[test]
    fn span_args_attach() {
        let s = Span::new("x", "c", 0, 10).arg("blocks", "64");
        assert_eq!(s.args, vec![("blocks".to_string(), "64".to_string())]);
        assert_eq!(s.ms(), 0.01);
    }
}
