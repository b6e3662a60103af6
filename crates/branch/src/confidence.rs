//! Branch-confidence estimation (Jacobsen/Rotenberg/Smith style), used by
//! the M5 Mispredict Recovery Buffer to identify low-confidence branches
//! (§IV.E, \[19\] in the paper).

/// A table of resetting saturating counters: correct predictions increment,
/// mispredicts reset. A branch is low-confidence while its counter is below
/// the threshold.
#[derive(Debug, Clone)]
pub struct ConfidenceTable {
    ctrs: Vec<u8>,
    threshold: u8,
    max: u8,
}

impl ConfidenceTable {
    /// A table with `rows` counters (power of two), saturating at `max`,
    /// with low-confidence below `threshold`.
    ///
    /// # Panics
    /// Panics if `rows` is not a power of two or `threshold > max`.
    pub fn new(rows: usize, threshold: u8, max: u8) -> ConfidenceTable {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        assert!(threshold <= max, "threshold must not exceed max");
        ConfidenceTable {
            ctrs: vec![0; rows],
            threshold,
            max,
        }
    }

    /// Default geometry used by the M5 front end.
    pub fn m5() -> ConfidenceTable {
        ConfidenceTable::new(1024, 6, 15)
    }

    fn index(&self, pc: u64) -> usize {
        let h = (pc >> 2) as u32;
        ((h ^ (h >> 11)).wrapping_mul(0x9E37_79B9) >> 16) as usize & (self.ctrs.len() - 1)
    }

    /// Whether the branch at `pc` is currently low-confidence.
    pub fn is_low_confidence(&self, pc: u64) -> bool {
        self.ctrs[self.index(pc)] < self.threshold
    }

    /// Record a prediction outcome for the branch at `pc`.
    ///
    /// Returns `Some(now_low)` when the update flipped the branch across
    /// the confidence threshold (`true` = became low-confidence), `None`
    /// when the classification is unchanged — the flip feeds the
    /// telemetry event trace.
    pub fn record(&mut self, pc: u64, correct: bool) -> Option<bool> {
        let i = self.index(pc);
        let was_low = self.ctrs[i] < self.threshold;
        if correct {
            self.ctrs[i] = (self.ctrs[i] + 1).min(self.max);
        } else {
            self.ctrs[i] = 0;
        }
        let now_low = self.ctrs[i] < self.threshold;
        if was_low != now_low {
            Some(now_low)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_low_confidence() {
        let c = ConfidenceTable::m5();
        assert!(c.is_low_confidence(0x4000));
    }

    #[test]
    fn correct_streak_builds_confidence() {
        let mut c = ConfidenceTable::m5();
        for _ in 0..8 {
            c.record(0x4000, true);
        }
        assert!(!c.is_low_confidence(0x4000));
    }

    #[test]
    fn mispredict_resets() {
        let mut c = ConfidenceTable::m5();
        for _ in 0..15 {
            c.record(0x4000, true);
        }
        c.record(0x4000, false);
        assert!(c.is_low_confidence(0x4000));
    }

    #[test]
    fn counter_saturates_at_max() {
        let mut c = ConfidenceTable::new(16, 2, 3);
        for _ in 0..100 {
            c.record(0x4000, true);
        }
        assert_eq!(c.ctrs[c.index(0x4000)], 3);
    }

    #[test]
    fn record_reports_threshold_flips() {
        let mut c = ConfidenceTable::new(16, 2, 3);
        assert_eq!(c.record(0x4000, true), None, "0→1 stays low");
        assert_eq!(c.record(0x4000, true), Some(false), "1→2 crosses up");
        assert_eq!(c.record(0x4000, true), None, "2→3 stays high");
        assert_eq!(c.record(0x4000, false), Some(true), "reset crosses down");
        assert_eq!(c.record(0x4000, false), None, "already low");
    }

    #[test]
    #[should_panic]
    fn bad_threshold_rejected() {
        let _ = ConfidenceTable::new(16, 9, 3);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { ConfidenceTable [tags::CONFIDENCE] { ctrs: Fixed("confidence table") } }
}
