//! The central [`MetricsRegistry`]: a flat, append-only table of named
//! metric slots keyed by `(component, name)`.
//!
//! Components register lazily on first sample; subsequent samples of the
//! same `(component, name)` pair reuse the slot, so the registry order is
//! stable for the life of a run and the epoch series can index columns by
//! slot position.

use crate::json;
use crate::metric::{Counter, Gauge, MetricKind};
use crate::quantile::QuantileHistogram;

/// Handle to a registered metric slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricId(pub(crate) u32);

/// One registered metric.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    /// Counter slot.
    Counter(Counter),
    /// Gauge slot.
    Gauge(Gauge),
    /// Quantile-histogram slot.
    Quantile(QuantileHistogram),
}

impl Metric {
    /// Scalar view of the slot for time-series columns: counters report
    /// their total, gauges their value, quantile histograms their mean.
    pub(crate) fn scalar(&self) -> f64 {
        match self {
            Metric::Counter(c) => c.get() as f64,
            Metric::Gauge(g) => g.get(),
            Metric::Quantile(q) => q.mean(),
        }
    }

    pub(crate) fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Quantile(_) => MetricKind::Quantile,
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    component: &'static str,
    name: &'static str,
    metric: Metric,
}

/// The central metric table.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    slots: Vec<Slot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn find_slot(&self, component: &str, name: &str) -> Option<u32> {
        self.slots
            .iter()
            .position(|s| s.component == component && s.name == name)
            .map(|i| i as u32)
    }

    fn register(&mut self, component: &'static str, name: &'static str, metric: Metric) -> MetricId {
        if let Some(i) = self.find_slot(component, name) {
            return MetricId(i);
        }
        self.slots.push(Slot {
            component,
            name,
            metric,
        });
        MetricId(self.slots.len() as u32 - 1)
    }

    /// Find-or-register a counter slot.
    pub fn counter(&mut self, component: &'static str, name: &'static str) -> MetricId {
        self.register(component, name, Metric::Counter(Counter::new()))
    }

    /// Find-or-register a gauge slot.
    pub fn gauge(&mut self, component: &'static str, name: &'static str) -> MetricId {
        self.register(component, name, Metric::Gauge(Gauge::new()))
    }

    /// Overwrite a counter's total (no-op on other kinds).
    #[inline]
    pub fn set_counter(&mut self, id: MetricId, total: u64) {
        if let Some(Slot {
            metric: Metric::Counter(c),
            ..
        }) = self.slots.get_mut(id.0 as usize)
        {
            c.set(total);
        }
    }

    /// Add to a counter's total (no-op on other kinds).
    #[inline]
    pub fn add(&mut self, id: MetricId, by: u64) {
        if let Some(Slot {
            metric: Metric::Counter(c),
            ..
        }) = self.slots.get_mut(id.0 as usize)
        {
            c.add(by);
        }
    }

    /// Overwrite a gauge's value (no-op on other kinds).
    #[inline]
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        if let Some(Slot {
            metric: Metric::Gauge(g),
            ..
        }) = self.slots.get_mut(id.0 as usize)
        {
            g.set(value);
        }
    }

    /// Find-or-register a log-bucketed quantile-histogram slot.
    pub fn quantile_histogram(&mut self, component: &'static str, name: &'static str) -> MetricId {
        self.register(
            component,
            name,
            Metric::Quantile(QuantileHistogram::new()),
        )
    }

    /// Record one distribution sample (no-op on other kinds).
    #[inline]
    pub fn observe(&mut self, id: MetricId, sample: u64) {
        if let Some(Slot {
            metric: Metric::Quantile(q),
            ..
        }) = self.slots.get_mut(id.0 as usize)
        {
            q.observe(sample);
        }
    }

    /// Number of registered slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the registry has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct component paths registered.
    pub fn component_count(&self) -> usize {
        let mut seen: Vec<&'static str> = Vec::new();
        for s in &self.slots {
            if !seen.contains(&s.component) {
                seen.push(s.component);
            }
        }
        seen.len()
    }

    /// Look up a slot by exact `(component, name)`.
    pub fn find(&self, component: &str, name: &str) -> Option<MetricId> {
        self.find_slot(component, name).map(MetricId)
    }

    /// Scalar view of a slot (counter total, gauge value, quantile
    /// histogram mean); 0.0 for an unknown id.
    pub fn scalar(&self, id: MetricId) -> f64 {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.metric.scalar())
            .unwrap_or(0.0)
    }

    /// The kind of a slot, if known.
    pub fn kind(&self, id: MetricId) -> Option<MetricKind> {
        self.slots.get(id.0 as usize).map(|s| s.metric.kind())
    }

    /// Visit every slot in registration order as
    /// `(component, name, kind, scalar)`.
    pub fn for_each(&self, f: &mut dyn FnMut(&'static str, &'static str, MetricKind, f64)) {
        for s in &self.slots {
            f(s.component, s.name, s.metric.kind(), s.metric.scalar());
        }
    }

    /// Visit every quantile-histogram slot as `(component, name, qh)`.
    pub fn for_each_quantile(
        &self,
        f: &mut dyn FnMut(&'static str, &'static str, &QuantileHistogram),
    ) {
        for s in &self.slots {
            if let Metric::Quantile(q) = &s.metric {
                f(s.component, s.name, q);
            }
        }
    }

    /// Render the registry in Prometheus text exposition format, in
    /// registration order. Metric names are `component.name` with every
    /// non-alphanumeric byte mapped to `_`; quantile histograms render
    /// as summaries with `{quantile="..."}` labels plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn sanitize(out: &mut String, component: &str, name: &str) {
            for c in component.chars().chain("_".chars()).chain(name.chars()) {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
        }
        let mut out = String::new();
        for s in &self.slots {
            let mut metric = String::new();
            sanitize(&mut metric, s.component, s.name);
            match &s.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {metric} counter");
                    let _ = writeln!(out, "{metric} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {metric} gauge");
                    let mut v = String::new();
                    json::push_f64(&mut v, g.get());
                    let _ = writeln!(out, "{metric} {v}");
                }
                Metric::Quantile(q) => {
                    let _ = writeln!(out, "# TYPE {metric} summary");
                    for (label, quant) in
                        [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)]
                    {
                        let _ = writeln!(
                            out,
                            "{metric}{{quantile=\"{label}\"}} {}",
                            q.quantile(quant).min(q.max())
                        );
                    }
                    let _ = writeln!(out, "{metric}_sum {}", q.sum());
                    let _ = writeln!(out, "{metric}_count {}", q.count());
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
    fn register_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("x.y", "hits");
        let b = r.counter("x.y", "hits");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        let c = r.counter("x.y", "misses");
        assert_ne!(a, c);
        assert_eq!(r.len(), 2);
        assert_eq!(r.component_count(), 1);
    }

    #[test]
    fn scalar_views() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("a", "n");
        let g = r.gauge("a", "rate");
        let q = r.quantile_histogram("a", "lat");
        r.set_counter(c, 7);
        r.set_gauge(g, 0.5);
        r.observe(q, 4);
        r.observe(q, 6);
        r.observe(c, 100); // not a distribution: ignored
        assert_eq!(r.scalar(c), 7.0);
        assert_eq!(r.scalar(g), 0.5);
        assert_eq!(r.scalar(q), 5.0);
        assert_eq!(r.kind(c), Some(MetricKind::Counter));
        assert_eq!(r.kind(g), Some(MetricKind::Gauge));
        assert_eq!(r.kind(q), Some(MetricKind::Quantile));
    }

    #[test]
    fn quantile_slots_observe_and_render() {
        let mut r = MetricsRegistry::new();
        let q = r.quantile_histogram("svc.latency", "job_total");
        for v in [10u64, 20, 30, 40] {
            r.observe(q, v);
        }
        let mut seen = 0;
        r.for_each_quantile(&mut |c, n, qh| {
            assert_eq!((c, n), ("svc.latency", "job_total"));
            assert_eq!(qh.count(), 4);
            assert!(qh.quantile(0.99) >= 40);
            seen += 1;
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn prometheus_rendering_covers_all_kinds() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("svc.queue", "shed_total");
        let g = r.gauge("svc.queue", "depth");
        let q = r.quantile_histogram("svc.latency", "job_total");
        r.set_counter(c, 3);
        r.set_gauge(g, 2.0);
        r.observe(q, 100);
        let prom = r.render_prometheus();
        assert!(prom.contains("# TYPE svc_queue_shed_total counter\nsvc_queue_shed_total 3\n"));
        assert!(prom.contains("# TYPE svc_queue_depth gauge\nsvc_queue_depth 2\n"));
        assert!(prom.contains("# TYPE svc_latency_job_total summary\n"));
        assert!(prom.contains("svc_latency_job_total{quantile=\"0.99\"} 100"));
        assert!(prom.contains("svc_latency_job_total_count 1"));
    }
}
