//! Span tracing: nested, parent-linked timing spans for the job
//! lifecycle (`submit → queue_wait → attempt[n] → slice[k] →
//! result_encode`).
//!
//! A [`SpanRecorder`] owns a flat vector of [`SpanRecord`]s; nesting is
//! expressed through explicit parent ids rather than a thread-local
//! stack because one job's spans are opened and closed from different
//! threads (the submitting connection thread, a worker, the engine's
//! finisher). [`SharedSpans`] wraps a recorder in `Arc<Mutex<…>>` so the
//! engine, the runner, and protocol handlers can all append to the same
//! per-job trace.
//!
//! The clock is injected: a recorder is either anchored to a wall
//! [`Instant`] at construction (production) or driven manually with
//! [`SpanRecorder::advance`] (tests), so span output in tests is
//! byte-deterministic.

use crate::json;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handle to a span within one [`SpanRecorder`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute.
    U64(u64),
    /// String attribute.
    Str(String),
}

/// One recorded span: a named interval with an optional parent.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Index of this span in its recorder.
    pub id: u32,
    /// Parent span id, if nested.
    pub parent: Option<u32>,
    /// Stage name (e.g. `"queue_wait"`, `"attempt[1]"`).
    pub name: String,
    /// Start time, microseconds since the recorder's clock anchor.
    pub start_us: u64,
    /// End time; `None` while the span is open.
    pub end_us: Option<u64>,
    /// Attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

#[derive(Debug, Clone)]
enum Clock {
    Wall(Instant),
    Manual(u64),
}

/// Records a tree of timed spans against an injected clock.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    clock: Clock,
    spans: Vec<SpanRecord>,
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A recorder anchored to the wall clock at construction time.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            clock: Clock::Wall(Instant::now()),
            spans: Vec::new(),
        }
    }

    /// A recorder with a manually driven clock starting at 0 µs, for
    /// deterministic tests.
    pub fn manual() -> SpanRecorder {
        SpanRecorder {
            clock: Clock::Manual(0),
            spans: Vec::new(),
        }
    }

    /// Advance a manual clock by `us` microseconds (no-op on a wall
    /// clock).
    pub fn advance(&mut self, us: u64) {
        if let Clock::Manual(now) = &mut self.clock {
            *now += us;
        }
    }

    fn now_us(&self) -> u64 {
        match &self.clock {
            Clock::Wall(anchor) => anchor.elapsed().as_micros() as u64,
            Clock::Manual(now) => *now,
        }
    }

    /// Open a span named `name` under `parent` (or as a root).
    pub fn start(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            id,
            parent: parent.map(|p| p.0),
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: None,
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Close a span (idempotent: a second end is ignored).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_us();
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            if s.end_us.is_none() {
                s.end_us = Some(now.max(s.start_us));
            }
        }
    }

    /// Attach an integer attribute to a span.
    pub fn attr_u64(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            s.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attach a string attribute to a span.
    pub fn attr_str(&mut self, id: SpanId, key: &'static str, value: &str) {
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            s.attrs.push((key, AttrValue::Str(value.to_string())));
        }
    }

    /// Number of spans recorded (open or closed).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Duration of a closed span in microseconds (`None` while open or
    /// for an unknown id).
    pub fn duration_us(&self, id: SpanId) -> Option<u64> {
        let s = self.spans.get(id.0 as usize)?;
        Some(s.end_us? - s.start_us)
    }

    /// Visit every *closed* span as `(name, duration_us)`, in id order.
    pub fn for_each_closed(&self, f: &mut dyn FnMut(&str, u64)) {
        for s in &self.spans {
            if let Some(end) = s.end_us {
                f(&s.name, end - s.start_us);
            }
        }
    }

    /// All spans as JSON Lines in id order, one
    /// `{"type":"span","id":..,"parent":..,"name":..,"start_us":..,
    /// "end_us":..,"dur_us":..,"attrs":{..}}` object per line (open
    /// spans have `null` end/duration).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push('{');
            json::push_key(&mut out, true, "type");
            json::push_str(&mut out, "span");
            json::push_key(&mut out, false, "id");
            json::push_u64(&mut out, s.id as u64);
            json::push_key(&mut out, false, "parent");
            match s.parent {
                Some(p) => json::push_u64(&mut out, p as u64),
                None => out.push_str("null"),
            }
            json::push_key(&mut out, false, "name");
            json::push_str(&mut out, &s.name);
            json::push_key(&mut out, false, "start_us");
            json::push_u64(&mut out, s.start_us);
            json::push_key(&mut out, false, "end_us");
            match s.end_us {
                Some(e) => json::push_u64(&mut out, e),
                None => out.push_str("null"),
            }
            json::push_key(&mut out, false, "dur_us");
            match s.end_us {
                Some(e) => json::push_u64(&mut out, e - s.start_us),
                None => out.push_str("null"),
            }
            json::push_key(&mut out, false, "attrs");
            out.push('{');
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                json::push_key(&mut out, i == 0, k);
                match v {
                    AttrValue::U64(n) => json::push_u64(&mut out, *n),
                    AttrValue::Str(t) => json::push_str(&mut out, t),
                }
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// A cloneable, thread-safe handle to one job's [`SpanRecorder`].
#[derive(Debug, Clone, Default)]
pub struct SharedSpans {
    inner: Arc<Mutex<SpanRecorder>>,
}

impl SharedSpans {
    /// A shared recorder on the wall clock.
    pub fn new() -> SharedSpans {
        SharedSpans::default()
    }

    /// A shared recorder on a manual clock (tests).
    pub fn manual() -> SharedSpans {
        SharedSpans {
            inner: Arc::new(Mutex::new(SpanRecorder::manual())),
        }
    }

    fn with<R>(&self, default: R, f: impl FnOnce(&mut SpanRecorder) -> R) -> R {
        match self.inner.lock() {
            Ok(mut rec) => f(&mut rec),
            Err(_) => default,
        }
    }

    /// Open a span (see [`SpanRecorder::start`]).
    pub fn start(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.with(SpanId(0), |rec| rec.start(name, parent))
    }

    /// Close a span.
    pub fn end(&self, id: SpanId) {
        self.with((), |rec| rec.end(id));
    }

    /// Attach an integer attribute.
    pub fn attr_u64(&self, id: SpanId, key: &'static str, value: u64) {
        self.with((), |rec| rec.attr_u64(id, key, value));
    }

    /// Attach a string attribute.
    pub fn attr_str(&self, id: SpanId, key: &'static str, value: &str) {
        self.with((), |rec| rec.attr_str(id, key, value));
    }

    /// Advance a manual clock (no-op on wall clocks).
    pub fn advance(&self, us: u64) {
        self.with((), |rec| rec.advance(us));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.with(0, |rec| rec.len())
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every closed span as `(name, duration_us)` in id order.
    pub fn closed_durations(&self) -> Vec<(String, u64)> {
        self.with(Vec::new(), |rec| {
            let mut out = Vec::new();
            rec.for_each_closed(&mut |name, dur| out.push((name.to_string(), dur)));
            out
        })
    }

    /// The trace as JSON Lines (see [`SpanRecorder::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        self.with(String::new(), |rec| rec.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let mut rec = SpanRecorder::manual();
        let root = rec.start("job", None);
        rec.advance(5);
        let child = rec.start("queue_wait", Some(root));
        rec.advance(10);
        rec.end(child);
        rec.advance(1);
        rec.end(root);
        assert_eq!(rec.duration_us(child), Some(10));
        assert_eq!(rec.duration_us(root), Some(16));
        let jsonl = rec.to_jsonl();
        assert!(jsonl.contains("\"name\":\"queue_wait\",\"start_us\":5,\"end_us\":15,\"dur_us\":10"));
        assert!(jsonl.contains("\"parent\":0"));
    }

    #[test]
    fn end_is_idempotent_and_attrs_render() {
        let mut rec = SpanRecorder::manual();
        let s = rec.start("attempt[1]", None);
        rec.attr_u64(s, "retries", 2);
        rec.attr_str(s, "kind", "sweep");
        rec.advance(3);
        rec.end(s);
        rec.advance(100);
        rec.end(s);
        assert_eq!(rec.duration_us(s), Some(3));
        assert!(rec.to_jsonl().contains("\"attrs\":{\"retries\":2,\"kind\":\"sweep\"}"));
    }

    #[test]
    fn shared_handle_aggregates_closed_spans() {
        let spans = SharedSpans::manual();
        let root = spans.start("job", None);
        spans.advance(7);
        let open = spans.start("queue_wait", Some(root));
        spans.end(root);
        let durs = spans.closed_durations();
        assert_eq!(durs, vec![("job".to_string(), 7)]);
        let _ = open;
        assert_eq!(spans.len(), 2);
    }
}
