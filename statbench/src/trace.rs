//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name (the layer), start, end, the enclosing
//! span, and the request it served. They stay in memory until the run
//! ends and are written out once. A disabled tracer records nothing, so
//! the untraced twin of a traced phase runs the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into.
    pub layer: &'static str,
    /// Request (or iteration) the call served.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the call's start from the tracer's creation.
    pub start: Duration,
    /// Offset of the call's end; equal to `start` while still open.
    pub end: Duration,
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(Option<usize>);

/// The recorder. Spans nest: a span entered while another is open is its
/// child.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans entered from now on with `request`.
    pub fn request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span for a call into `layer`.
    pub fn enter(&mut self, layer: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            request: self.request,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order: the self-time split
    /// assumes strict nesting.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span for `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span of `layer`, in record order.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Self time (seconds) per layer: each span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer).or_insert(0.0) += (s.end - s.start).saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// The spans as JSON lines, tagged with the phase that recorded them.
    pub fn to_jsonl(&self, phase: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"span\":{i},\"layer\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("optimizer");
        let inner = t.enter("pruned");
        std::thread::sleep(Duration::from_millis(20));
        t.exit(inner);
        std::thread::sleep(Duration::from_millis(10));
        t.exit(outer);
        let selfs = t.self_times();
        let outer = t.durations("optimizer")[0];
        let inner = t.durations("pruned")[0];
        assert!(inner >= 0.02);
        assert!((selfs["optimizer"] - (outer - inner)).abs() < 1e-9);
        assert!(selfs["optimizer"] >= 0.01);
        assert_eq!(selfs["pruned"], inner);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("serve");
        t.exit(id);
        assert_eq!(t.time("wal", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
