//! One workload's result: its metrics, its correctness tally, and the two
//! lines it prints (a detail object, then the result line).

use crate::stats::{summarize, Summary};

/// One named metric with its unit and the spread of its samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub s: Summary,
}

/// Most failure messages one report keeps; the count keeps growing.
const MAX_FAILURE_MESSAGES: usize = 16;

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted (slice groups or jobs, plus oracle checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of the workload's reference results.
    pub digest: u64,
    /// End-to-end metrics declared in `BENCHMARK.json` (untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics declared in `BENCHMARK.json` (traced runs).
    pub layers: Vec<Metric>,
    /// Metrics only this workload has; printed on the detail line only.
    pub extras: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Count `ops` attempted operations; when `ok` is false they all
    /// count as failed and `why` is kept.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(why());
            }
        }
    }

    /// Record a failure that stopped the workload early.
    pub fn abort(mut self, why: String) -> Report {
        self.check(false, 1, || why);
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics the result line carries: end-to-end ones untraced,
    /// per-layer ones traced.
    pub fn declared(&self) -> &[Metric] {
        if self.trace {
            &self.layers
        } else {
            &self.e2e
        }
    }

    /// The detail line: every metric with its sample count and quartiles,
    /// the results digest and any failure messages.
    pub fn detail_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"results_digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failures\":[",
            json_str(self.workload),
            self.seed,
            self.trace,
            self.digest,
            self.attempted,
            self.failed
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(f));
        }
        out.push_str("],\"metrics\":{");
        for (i, m) in self.declared().iter().chain(&self.extras).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"q1\":{},\"q3\":{}}}",
                json_str(&m.name),
                num(m.s.median),
                json_str(m.unit),
                m.s.n,
                num(m.s.q1),
                num(m.s.q3)
            ));
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the declared
    /// metrics' values.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.declared().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                num(m.s.median),
                json_str(m.unit)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Build a metric from its samples; `None` when there are none.
pub fn metric(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Option<Metric> {
    summarize(samples).map(|s| Metric {
        name: name.into(),
        unit,
        s,
    })
}

/// A metric measured once.
pub fn single(name: impl Into<String>, unit: &'static str, v: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        s: Summary::single(v),
    }
}

/// A JSON number; a non-finite value (which no metric should produce)
/// renders as `null`, so the line stays parseable and the bad value shows.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_declared_metrics_only() {
        let mut r = Report::new("w", 1, false);
        r.check(true, 3, String::new);
        r.e2e.push(single("setup_s", "s", 0.5));
        r.layers.push(single("core.x", "frac", 0.25));
        r.extras.push(single("jobs_per_s", "1/s", 2.0));
        let line = r.result_json();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(r.detail_json().contains("\"jobs_per_s\""));
        r.trace = true;
        assert!(r.result_json().contains("core.x") && !r.result_json().contains("setup_s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new("w", 1, false);
        r.check(true, 5, String::new);
        r.check(false, 2, || "rep 3 \"diverged\"".to_owned());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (7, 2));
        assert!(r.detail_json().contains("rep 3 \\\"diverged\\\""));
    }
}
