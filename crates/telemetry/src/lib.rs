//! Unified telemetry layer for the Exynos simulator: a central
//! [`MetricsRegistry`] of typed [`Counter`]/[`Gauge`]/[`Histogram`]
//! primitives, an [`EpochSeries`] sampler that snapshots every registered
//! component each N instructions, and a bounded [`EventTrace`] ring of
//! structured [`PipelineEvent`]s with cycle timestamps.
//!
//! # Attaching
//!
//! There is one build. Telemetry is a run-time choice: a caller that
//! wants it passes a [`Telemetry`] sink to the run, and the sweep hot
//! path, which passes none, does no probe work at all.
//!
//! # Wiring
//!
//! Component crates implement [`Observable`] for their `*Stats` structs
//! (a stable dotted component path plus a fixed-order visit of named
//! values). `exynos_core::Simulator::run_slice_with` threads an
//! `&mut Telemetry` through the step loop: events are derived from
//! per-step stat deltas, and every `epoch_len` retired instructions the
//! whole registry is snapshotted into the columnar series.
//!
//! # Determinism
//!
//! All output is byte-deterministic for a same-seed run: iteration is
//! over `Vec`s in registration order, no wall-clock or map-order state is
//! consulted, and floats serialize via Rust's shortest-roundtrip
//! formatter (non-finite values become `null`).

#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metric;
pub mod quantile;
pub mod registry;
pub mod series;
pub mod span;

pub use event::{
    BranchClass, EventRecord, EventTrace, FaultClass, PipelineEvent, PrefetchKind, UocModeTag,
};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metric::{Counter, Gauge, Histogram, MetricKind, GAP_BUCKETS, LATENCY_BUCKETS};
pub use quantile::{QuantileHistogram, QUANTILE_SUB_BUCKETS};
pub use registry::{MetricId, MetricsRegistry};
pub use series::{EpochMark, EpochSeries};
pub use span::{SharedSpans, SpanId, SpanRecorder};

use std::fmt::Write as _;

/// A single sampled metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value (cumulative counters, absolute occupancies).
    U64(u64),
    /// Floating-point value (rates, averages, fractions).
    F64(f64),
}

impl Value {
    /// The value as `f64` (lossy above 2^53 for [`Value::U64`]).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
        }
    }
}

/// A component whose statistics can be pulled into the registry.
///
/// Implementations must visit the same names in the same order on every
/// call — the registry and epoch series rely on a stable schema.
pub trait Observable {
    /// Stable dotted component path; the first segment names the crate
    /// (e.g. `"branch.frontend"`, `"mem.tlb.itlb"`, `"core.sim"`).
    fn component(&self) -> &'static str;

    /// Visit each metric as a `(name, value)` pair in a fixed order.
    /// [`Value::U64`] registers as a counter, [`Value::F64`] as a gauge.
    fn visit(&self, f: &mut dyn FnMut(&'static str, Value));
}

/// Construction parameters for [`Telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample the registry into the epoch series every this many retired
    /// instructions.
    pub epoch_len: u64,
    /// Event-trace ring capacity (records retained).
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            epoch_len: 10_000,
            event_capacity: 65_536,
        }
    }
}

/// The per-run telemetry sink: registry + epoch series + event trace.
///
/// Owned by the caller (not the `Simulator`), so the simulator's own
/// state and hot loop are untouched when no sink is attached.
#[derive(Debug, Clone)]
pub struct Telemetry {
    epoch_len: u64,
    registry: MetricsRegistry,
    series: EpochSeries,
    events: EventTrace,
    hist_retire_gap: MetricId,
    hist_load_latency: MetricId,
}

impl Telemetry {
    /// A telemetry sink with the given configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let mut registry = MetricsRegistry::new();
        let hist_retire_gap = registry.histogram("core.sim", "retire_gap", GAP_BUCKETS);
        let hist_load_latency = registry.histogram("core.mem", "load_latency", LATENCY_BUCKETS);
        Telemetry {
            epoch_len: config.epoch_len.max(1),
            registry,
            series: EpochSeries::new(),
            events: EventTrace::new(config.event_capacity),
            hist_retire_gap,
            hist_load_latency,
        }
    }

    /// The configured epoch length.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Whether an epoch boundary falls at `instructions` retired.
    #[inline]
    pub fn epoch_due(&self, instructions: u64) -> bool {
        instructions > 0 && instructions.is_multiple_of(self.epoch_len)
    }

    /// Record one pipeline event at `(cycle, instr)`.
    #[inline]
    pub fn record(&mut self, cycle: u64, instr: u64, event: PipelineEvent) {
        self.events.record(cycle, instr, event);
    }

    /// Pull one component's stats into the registry under its own
    /// [`Observable::component`] path.
    pub fn sample(&mut self, obs: &dyn Observable) {
        self.sample_named(obs.component(), obs);
    }

    /// Pull one component's stats into the registry under an explicit
    /// `component` path (for multi-instance components such as the
    /// per-level caches and TLBs).
    pub fn sample_named(&mut self, component: &'static str, obs: &dyn Observable) {
        obs.visit(&mut |name, value| match value {
            Value::U64(v) => {
                let id = self.registry.counter(component, name);
                self.registry.set_counter(id, v);
            }
            Value::F64(v) => {
                let id = self.registry.gauge(component, name);
                self.registry.set_gauge(id, v);
            }
        });
    }

    /// Set a free-standing derived gauge (e.g. IPC, MPKI).
    pub fn gauge(&mut self, component: &'static str, name: &'static str, value: f64) {
        let id = self.registry.gauge(component, name);
        self.registry.set_gauge(id, value);
    }

    /// Close the current epoch: snapshot every registry slot into the
    /// columnar series, stamped with the run position.
    pub fn end_epoch(&mut self, instructions: u64, cycle: u64) {
        self.series.push_row(
            EpochMark {
                instructions,
                cycle,
            },
            &self.registry,
        );
    }

    /// Sample the retirement-gap histogram (cycles between retires).
    #[inline]
    pub fn observe_retire_gap(&mut self, gap: u64) {
        self.registry.observe(self.hist_retire_gap, gap);
    }

    /// Sample the load-latency histogram (cycles).
    #[inline]
    pub fn observe_load_latency(&mut self, latency: u64) {
        self.registry.observe(self.hist_load_latency, latency);
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The epoch time-series.
    pub fn series(&self) -> &EpochSeries {
        &self.series
    }

    /// The event trace.
    pub fn events(&self) -> &EventTrace {
        &self.events
    }

    /// Epoch time-series as JSON Lines, followed by one
    /// `{"type":"histogram",...}` line per histogram slot.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = self.series.to_jsonl();
        self.registry.for_each_histogram(&mut |component, name, h| {
            out.push('{');
            json::push_key(&mut out, true, "type");
            json::push_str(&mut out, "histogram");
            json::push_key(&mut out, false, "metric");
            let full = format!("{component}.{name}");
            json::push_str(&mut out, &full);
            json::push_key(&mut out, false, "count");
            json::push_u64(&mut out, h.count());
            json::push_key(&mut out, false, "sum");
            json::push_u64(&mut out, h.sum());
            json::push_key(&mut out, false, "max");
            json::push_u64(&mut out, h.max());
            json::push_key(&mut out, false, "mean");
            json::push_f64(&mut out, h.mean());
            json::push_key(&mut out, false, "p50");
            json::push_u64(&mut out, h.quantile(0.5).min(h.max()));
            json::push_key(&mut out, false, "p99");
            json::push_u64(&mut out, h.quantile(0.99).min(h.max()));
            json::push_key(&mut out, false, "buckets");
            out.push('[');
            for i in 0..=h.bounds().len() {
                if i > 0 {
                    out.push(',');
                }
                json::push_u64(&mut out, h.bucket(i));
            }
            out.push(']');
            json::push_key(&mut out, false, "bounds");
            out.push('[');
            for (i, b) in h.bounds().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_u64(&mut out, *b);
            }
            out.push_str("]}\n");
        });
        out
    }

    /// Epoch time-series as CSV (see [`EpochSeries::to_csv`]).
    pub fn metrics_csv(&self) -> String {
        self.series.to_csv()
    }

    /// Event trace as JSON Lines, oldest first.
    pub fn events_jsonl(&self) -> String {
        self.events.to_jsonl()
    }

    /// Human-readable per-run summary: final value of every metric,
    /// histogram digests, and event counts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry summary: {} metrics / {} components, {} epochs, {} events ({} dropped)",
            self.registry.len(),
            self.registry.component_count(),
            self.series.len(),
            self.events.recorded(),
            self.events.dropped(),
        );
        self.registry.for_each(&mut |component, name, kind, scalar| {
            if kind == MetricKind::Histogram || kind == MetricKind::Quantile {
                return;
            }
            let _ = writeln!(out, "  {component}.{name} = {scalar}");
        });
        self.registry.for_each_quantile(&mut |component, name, q| {
            let _ = writeln!(
                out,
                "  {component}.{name}: count={} mean={:.2} p50={} p99={} max={}",
                q.count(),
                q.mean(),
                q.quantile(0.5).min(q.max()),
                q.quantile(0.99).min(q.max()),
                q.max(),
            );
        });
        self.registry.for_each_histogram(&mut |component, name, h| {
            let _ = writeln!(
                out,
                "  {component}.{name}: count={} mean={:.2} p50={} p99={} max={}",
                h.count(),
                h.mean(),
                h.quantile(0.5).min(h.max()),
                h.quantile(0.99).min(h.max()),
                h.max(),
            );
        });
        let counts = self.events.counts_by_name();
        if !counts.is_empty() {
            out.push_str("  events:");
            for (name, n) in counts {
                let _ = write!(out, " {name}={n}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;

    impl Observable for Fake {
        fn component(&self) -> &'static str {
            "test.fake"
        }
        fn visit(&self, f: &mut dyn FnMut(&'static str, Value)) {
            f("hits", Value::U64(3));
            f("rate", Value::F64(0.75));
        }
    }

    #[test]
    fn sample_and_epoch_roundtrip() {
        let mut t = Telemetry::new(TelemetryConfig {
            epoch_len: 100,
            event_capacity: 16,
        });
        assert!(!t.epoch_due(50));
        assert!(t.epoch_due(100));
        assert!(!t.epoch_due(0));
        t.sample(&Fake);
        t.gauge("test.fake", "ipc", 1.25);
        t.observe_retire_gap(3);
        t.end_epoch(100, 222);
        assert_eq!(t.series().len(), 1);
        assert_eq!(t.series().value_at("test.fake", "hits", 0), Some(3.0));
        assert_eq!(t.series().value_at("test.fake", "ipc", 0), Some(1.25));
        let jsonl = t.metrics_jsonl();
        assert!(jsonl.contains("\"test.fake.rate\":0.75"));
        assert!(jsonl.contains("\"type\":\"histogram\""));
        assert!(jsonl.contains("\"metric\":\"core.sim.retire_gap\""));
        let summary = t.summary();
        assert!(summary.contains("test.fake.hits = 3"));
    }
}
