//! The address re-order buffer and duplicate filter feeding the L1
//! prefetcher's training unit (§VII.A, patents \[27\]\[28\]).
//!
//! "To avoid noisy behavior and improve pattern detection, out-of-order
//! addresses generated from multiple load pipes are reordered back into
//! program order using a ROB-like structure. To reduce the size of this
//! re-order buffer, an address filter is used to deallocate duplicate
//! entries to the same cache line."

use std::collections::VecDeque;

exynos_telemetry::counters! {
    /// Statistics for the address re-order buffer.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReorderStats in "prefetch.reorder" {
        /// Entries dropped by the duplicate filter.
        pub filtered: u64,
        /// Entries dropped because the buffer was full (oldest released
        /// early).
        pub overflows: u64,
    }
}

/// Re-orders (sequence-numbered) load addresses back into program order
/// and filters duplicate cache lines.
#[derive(Debug, Clone)]
pub struct AddressReorderBuffer {
    /// Pending out-of-order arrivals: (seq, line).
    pending: Vec<(u64, u64)>,
    /// Next sequence number to release.
    next_seq: u64,
    /// Recently released lines (duplicate filter).
    recent_lines: VecDeque<u64>,
    filter_depth: usize,
    capacity: usize,
    /// Entries dropped by the duplicate filter.
    filtered: u64,
    /// Entries dropped because the buffer was full (oldest released early).
    overflows: u64,
}

impl AddressReorderBuffer {
    /// Why [`AddressReorderBuffer::new`] would reject `capacity`, if it
    /// would.
    pub fn defect(capacity: usize) -> Option<String> {
        (capacity == 0).then(|| "a zero-entry re-order buffer holds no prefetch".into())
    }

    /// A buffer of `capacity` entries with a `filter_depth`-line duplicate
    /// filter.
    ///
    /// # Panics
    /// Panics if [`AddressReorderBuffer::defect`] rejects `capacity`.
    pub fn new(capacity: usize, filter_depth: usize) -> AddressReorderBuffer {
        let defect = AddressReorderBuffer::defect(capacity);
        assert!(defect.is_none(), "re-order buffer: {defect:?}");
        AddressReorderBuffer {
            pending: Vec::new(),
            next_seq: 0,
            recent_lines: VecDeque::with_capacity(filter_depth),
            filter_depth,
            capacity,
            filtered: 0,
            overflows: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            filtered: self.filtered,
            overflows: self.overflows,
        }
    }

    /// Insert a load's cache-line address with its program-order sequence
    /// number; returns the lines now releasable *in program order*.
    pub fn insert(&mut self, seq: u64, line: u64) -> Vec<u64> {
        // Duplicate filter: deallocate entries to a recently seen line.
        if self.recent_lines.contains(&line) || self.pending.iter().any(|&(_, l)| l == line) {
            self.filtered += 1;
            // Skip the sequence slot so in-order release continues.
            if seq == self.next_seq {
                self.next_seq += 1;
                return self.drain_ready();
            }
            self.pending.push((seq, u64::MAX)); // tombstone
            return Vec::new();
        }
        self.pending.push((seq, line));
        if self.pending.len() > self.capacity {
            // Pressure: release the oldest pending entry early.
            self.overflows += 1;
            self.pending.sort_unstable_by_key(|&(s, _)| s);
            let (s, l) = self.pending.remove(0);
            self.next_seq = self.next_seq.max(s + 1);
            let mut out = if l == u64::MAX { Vec::new() } else { vec![l] };
            for x in &out {
                self.remember(*x);
            }
            out.extend(self.drain_ready());
            return out;
        }
        self.drain_ready()
    }

    fn remember(&mut self, line: u64) {
        if self.filter_depth == 0 {
            return;
        }
        if self.recent_lines.len() == self.filter_depth {
            self.recent_lines.pop_front();
        }
        self.recent_lines.push_back(line);
    }

    fn drain_ready(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            match self.pending.iter().position(|&(s, _)| s == self.next_seq) {
                Some(i) => {
                    let (_, line) = self.pending.swap_remove(i);
                    self.next_seq += 1;
                    if line != u64::MAX {
                        self.remember(line);
                        out.push(line);
                    }
                }
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_program_order() {
        let mut b = AddressReorderBuffer::new(8, 4);
        assert!(b.insert(2, 0x30).is_empty());
        assert!(b.insert(1, 0x20).is_empty());
        let out = b.insert(0, 0x10);
        assert_eq!(out, vec![0x10, 0x20, 0x30]);
    }

    #[test]
    fn duplicates_filtered() {
        let mut b = AddressReorderBuffer::new(8, 4);
        let out = b.insert(0, 0x10);
        assert_eq!(out, vec![0x10]);
        let out = b.insert(1, 0x10); // duplicate line
        assert!(out.is_empty());
        assert_eq!(b.stats().filtered, 1);
        // Sequence continues past the filtered slot.
        let out = b.insert(2, 0x20);
        assert_eq!(out, vec![0x20]);
    }

    #[test]
    fn duplicate_mid_window_does_not_stall_release() {
        let mut b = AddressReorderBuffer::new(8, 4);
        b.insert(0, 0x10);
        assert!(b.insert(2, 0x30).is_empty());
        // seq 1 is a duplicate of 0x10: tombstoned; 0x30 must release once
        // seq 1 resolves.
        let out = b.insert(1, 0x10);
        assert_eq!(out, vec![0x30]);
    }

    #[test]
    fn overflow_releases_oldest_early() {
        let mut b = AddressReorderBuffer::new(2, 0);
        assert!(b.insert(5, 0x50).is_empty());
        assert!(b.insert(3, 0x30).is_empty());
        // Third insert overflows: the oldest (seq 3) releases early.
        let out = b.insert(7, 0x70);
        assert!(out.contains(&0x30));
        assert_eq!(b.stats().overflows, 1);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! {
        AddressReorderBuffer [tags::REORDER] |s| {
            pending: Bounded(s.capacity + 1, "reorder pending entries"),
            next_seq,
            recent_lines: Bounded(s.filter_depth, "reorder duplicate filter"),
            filtered, overflows,
        }
    }
}
