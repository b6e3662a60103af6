//! Bounded-ring flight recorder for post-mortem dumps.
//!
//! The service feeds the recorder one pre-rendered JSONL line per
//! noteworthy moment (job submitted, attempt started, retry scheduled,
//! breaker opened, …) plus the span lines of terminating jobs. The ring
//! keeps the most recent `capacity` lines; on a trigger — watchdog trip,
//! circuit-breaker open, job failure, deadline cancel, torn-journal
//! recovery — [`FlightRecorder::dump`] snapshots the buffer into a
//! self-describing post-mortem artifact: a `{"type":"postmortem",...}`
//! header line followed by the buffered lines oldest-first.

use crate::json;
use std::collections::VecDeque;

/// Default ring capacity (lines retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// A bounded ring of JSONL lines with drop accounting.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<String>,
    capacity: usize,
    recorded: u64,
    dumps: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` lines (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            recorded: 0,
            dumps: 0,
        }
    }

    /// Append one JSONL line (no trailing newline), evicting the oldest
    /// line when full.
    pub fn note(&mut self, line: String) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(line);
        self.recorded += 1;
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lines ever noted.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Lines evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.recorded() - self.len() as u64
    }

    /// Dumps taken so far.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Snapshot the ring into a post-mortem artifact: a header line
    /// `{"type":"postmortem","reason":..,"seq":..,"lines":..,
    /// "dropped":..}` followed by the buffered lines oldest-first. The
    /// ring is left intact (overlapping dumps share context).
    pub fn dump(&mut self, reason: &str) -> String {
        self.dumps += 1;
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, true, "type");
        json::push_str(&mut out, "postmortem");
        json::push_key(&mut out, false, "reason");
        json::push_str(&mut out, reason);
        json::push_key(&mut out, false, "seq");
        json::push_u64(&mut out, self.dumps);
        json::push_key(&mut out, false, "lines");
        json::push_u64(&mut out, self.ring.len() as u64);
        json::push_key(&mut out, false, "dropped");
        json::push_u64(&mut out, self.dropped());
        out.push_str("}\n");
        for line in &self.ring {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut fr = FlightRecorder::new(2);
        fr.note("{\"a\":1}".to_string());
        fr.note("{\"a\":2}".to_string());
        fr.note("{\"a\":3}".to_string());
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.recorded(), 3);
        assert_eq!(fr.dropped(), 1);
        let dump = fr.dump("test");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"postmortem\""));
        assert!(lines[0].contains("\"reason\":\"test\""));
        assert!(lines[0].contains("\"dropped\":1"));
        assert_eq!(lines[1], "{\"a\":2}");
        assert_eq!(lines[2], "{\"a\":3}");
        assert_eq!(fr.dumps(), 1);
        // The ring survives the dump.
        assert_eq!(fr.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one_line() {
        let mut fr = FlightRecorder::new(0);
        for i in 0..10 {
            fr.note(format!("{{\"a\":{i}}}"));
        }
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.dropped(), 9);
        assert!(fr.dump("test").ends_with("{\"a\":9}\n"));
    }
}
