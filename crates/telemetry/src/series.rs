//! Columnar epoch time-series.
//!
//! Every N retired instructions the sampler snapshots the whole
//! [`crate::MetricsRegistry`] into one row. Storage is columnar — one
//! `Vec<f64>` per metric — so a long run with a stable schema costs one
//! push per metric per epoch and serializes straight into CSV columns.
//! Values are cumulative snapshots (counters keep their running totals);
//! consumers diff adjacent rows to get per-epoch rates.
//!
//! Columns align with registry slots by position: the registry is
//! append-only, so slot `i` is column `i` for the life of a run. A metric
//! that first registers after some epochs have elapsed gets leading
//! `NaN` padding (serialized as `null` / an empty CSV cell).

use crate::json;
use crate::registry::MetricsRegistry;

/// Identifies one epoch row: where in the run it was sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMark {
    /// Retired-instruction count at the sample point.
    pub instructions: u64,
    /// Cycle at the sample point.
    pub cycle: u64,
}

#[derive(Debug, Clone)]
struct Column {
    component: &'static str,
    name: &'static str,
    values: Vec<f64>,
}

/// The columnar epoch store.
#[derive(Debug, Clone, Default)]
pub struct EpochSeries {
    marks: Vec<EpochMark>,
    columns: Vec<Column>,
}

impl EpochSeries {
    /// An empty series.
    pub fn new() -> EpochSeries {
        EpochSeries::default()
    }

    /// Number of epoch rows recorded.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no epochs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of metric columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Snapshot every registry slot as one new epoch row.
    pub fn push_row(&mut self, mark: EpochMark, registry: &MetricsRegistry) {
        let prior = self.marks.len();
        self.marks.push(mark);
        let mut i = 0usize;
        registry.for_each(&mut |component, name, _kind, scalar| {
            if i == self.columns.len() {
                // Late-registered metric: pad the epochs it missed.
                self.columns.push(Column {
                    component,
                    name,
                    values: vec![f64::NAN; prior],
                });
            }
            self.columns[i].values.push(scalar);
            i += 1;
        });
    }

    /// The mark for epoch `i`.
    pub fn mark(&self, i: usize) -> Option<EpochMark> {
        self.marks.get(i).copied()
    }

    /// The value of column `(component, name)` at epoch `i`, if present.
    pub fn value_at(&self, component: &str, name: &str, i: usize) -> Option<f64> {
        self.columns
            .iter()
            .find(|c| c.component == component && c.name == name)
            .and_then(|c| c.values.get(i))
            .copied()
    }

    /// Serialize as JSON Lines: one object per epoch with a flat
    /// `metrics` map keyed `component.name`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (e, mark) in self.marks.iter().enumerate() {
            out.push('{');
            json::push_key(&mut out, true, "type");
            json::push_str(&mut out, "epoch");
            json::push_key(&mut out, false, "epoch");
            json::push_u64(&mut out, e as u64);
            json::push_key(&mut out, false, "instructions");
            json::push_u64(&mut out, mark.instructions);
            json::push_key(&mut out, false, "cycle");
            json::push_u64(&mut out, mark.cycle);
            json::push_key(&mut out, false, "metrics");
            out.push('{');
            let mut first = true;
            for col in &self.columns {
                if let Some(&v) = col.values.get(e) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('"');
                    out.push_str(col.component);
                    out.push('.');
                    out.push_str(col.name);
                    out.push_str("\":");
                    json::push_f64(&mut out, v);
                }
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Serialize as CSV: `epoch,instructions,cycle` then one column per
    /// metric (header `component.name`); `NaN` cells are left empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("epoch,instructions,cycle");
        for col in &self.columns {
            out.push(',');
            out.push_str(col.component);
            out.push('.');
            out.push_str(col.name);
        }
        out.push('\n');
        for (e, mark) in self.marks.iter().enumerate() {
            out.push_str(&format!("{},{},{}", e, mark.instructions, mark.cycle));
            for col in &self.columns {
                out.push(',');
                match col.values.get(e) {
                    Some(v) if v.is_finite() => out.push_str(&format!("{v}")),
                    _ => {}
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_align_with_registry_order() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("c", "a");
        let b = r.gauge("c", "b");
        let mut s = EpochSeries::new();
        r.set_counter(a, 1);
        r.set_gauge(b, 0.5);
        s.push_row(
            EpochMark {
                instructions: 10,
                cycle: 20,
            },
            &r,
        );
        r.set_counter(a, 3);
        // A metric registered after the first epoch gets NaN padding.
        let late = r.counter("c", "late");
        r.set_counter(late, 9);
        s.push_row(
            EpochMark {
                instructions: 20,
                cycle: 41,
            },
            &r,
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.column_count(), 3);
        assert_eq!(s.value_at("c", "a", 0), Some(1.0));
        assert_eq!(s.value_at("c", "a", 1), Some(3.0));
        assert!(s.value_at("c", "late", 0).is_some_and(f64::is_nan));
        assert_eq!(s.value_at("c", "late", 1), Some(9.0));
        let jsonl = s.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"c.late\":null"));
        assert!(jsonl.contains("\"instructions\":20"));
        let csv = s.to_csv();
        assert!(csv.starts_with("epoch,instructions,cycle,c.a,c.b,c.late\n"));
        assert!(csv.contains("0,10,20,1,0.5,\n"));
    }
}
