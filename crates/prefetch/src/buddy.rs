//! The Buddy L2 prefetcher, added in M4 (§VIII.B).
//!
//! "The L2 cache tags are sectored at a 128B granule for a default data
//! line size of 64B. ... a simple 'Buddy' prefetcher is added that, for
//! every demand miss, generates a prefetch for its 64B neighbor (buddy)
//! sector. Due to the tag sectoring, this prefetching does not cause any
//! cache pollution, since the buddy sector will stay invalid in absence of
//! buddy prefetching. There can be an impact on DRAM bandwidth though ...
//! a filter is added to track the patterns of demand accesses. In the case
//! where access patterns are observed to almost always skip the
//! neighboring sector, the buddy prefetching is disabled."

use exynos_mem::LINE_BYTES;

exynos_telemetry::counters! {
    /// Buddy prefetcher statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BuddyStats in "prefetch.buddy" {
        /// Buddy prefetches issued.
        pub issued: u64,
        /// Buddy prefetches suppressed by the skip filter.
        pub suppressed: u64,
        /// Buddy lines later used by a demand access (useful).
        pub useful: u64,
        /// Buddy lines evicted (with their tag) unused.
        pub wasted: u64,
    }
}

/// The Buddy prefetcher with its skip filter.
#[derive(Debug, Clone)]
pub struct BuddyPrefetcher {
    /// Saturating usefulness score: demand-used buddies push up, wasted
    /// buddies push down. Below zero the prefetcher disables.
    score: i32,
    min: i32,
    max: i32,
    stats: BuddyStats,
}

impl BuddyPrefetcher {
    /// A prefetcher with the default filter strength.
    pub fn new() -> BuddyPrefetcher {
        BuddyPrefetcher {
            score: 8,
            min: -32,
            max: 32,
            stats: BuddyStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// Whether buddy prefetching is currently enabled.
    pub fn enabled(&self) -> bool {
        self.score >= 0
    }

    /// An L2 demand miss at `line` (64 B address): returns the buddy line
    /// to prefetch, unless the skip filter has disabled prefetching or the
    /// buddy is already valid (`buddy_valid`).
    pub fn on_l2_demand_miss(&mut self, line: u64, buddy_valid: bool) -> Option<u64> {
        if buddy_valid {
            return None;
        }
        if !self.enabled() {
            self.stats.suppressed += 1;
            return None;
        }
        self.stats.issued += 1;
        Some(line ^ LINE_BYTES)
    }

    /// A demand access hit a buddy-prefetched sector: the prefetch was
    /// useful.
    pub fn on_buddy_used(&mut self) {
        self.stats.useful += 1;
        self.score = (self.score + 1).min(self.max);
    }

    /// A buddy-prefetched sector was evicted without any demand hit.
    pub fn on_buddy_wasted(&mut self) {
        self.stats.wasted += 1;
        self.score = (self.score - 2).max(self.min);
    }
}

impl Default for BuddyPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issues_buddy_of_either_sector() {
        let mut b = BuddyPrefetcher::new();
        assert_eq!(b.on_l2_demand_miss(0x1000, false), Some(0x1040));
        assert_eq!(b.on_l2_demand_miss(0x1040, false), Some(0x1000));
    }

    #[test]
    fn skips_when_buddy_already_valid() {
        let mut b = BuddyPrefetcher::new();
        assert_eq!(b.on_l2_demand_miss(0x1000, true), None);
        assert_eq!(b.stats().issued, 0);
    }

    #[test]
    fn filter_disables_on_wasted_buddies() {
        let mut b = BuddyPrefetcher::new();
        for _ in 0..30 {
            b.on_buddy_wasted();
        }
        assert!(!b.enabled());
        assert_eq!(b.on_l2_demand_miss(0x2000, false), None);
        assert!(b.stats().suppressed > 0);
    }

    #[test]
    fn usefulness_reenables() {
        let mut b = BuddyPrefetcher::new();
        for _ in 0..30 {
            b.on_buddy_wasted();
        }
        assert!(!b.enabled());
        for _ in 0..40 {
            b.on_buddy_used();
        }
        assert!(b.enabled());
        assert!(b.on_l2_demand_miss(0x2000, false).is_some());
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! { BuddyPrefetcher [tags::BUDDY] { score, min, max, stats } then check_bounds }

    impl BuddyPrefetcher {
        fn check_bounds(&mut self) -> Result<(), SnapshotError> {
            if self.min > self.max || self.score < self.min || self.score > self.max {
                return Err(SnapshotError::Corrupt { what: "buddy score bounds" });
            }
            Ok(())
        }
    }
}
