//! Outstanding-miss tracking: fill buffers and the M4+ data-less Memory
//! Address Buffer (MAB).
//!
//! §VII: "Outstanding misses grew from 8 in M1, to 12 in M3, to 32 in M4,
//! and 40 in M6. The significant increase in misses in M4 was due to
//! transitioning from a fill buffer approach to a data-less memory address
//! buffer (MAB) approach that held fill data only in the data cache."
//!
//! Occupancy is modeled with timestamped slots: each allocated miss holds
//! its slot until its fill completes. The available memory-level
//! parallelism is therefore bounded by the structure size, which is what
//! limits prefetch degree and MLP in the core model.

/// A bank of miss-tracking slots.
#[derive(Debug, Clone)]
pub struct MissBuffers {
    /// Release time per slot (cycle at which the slot frees).
    slots: Vec<u64>,
    /// Peak simultaneous occupancy observed.
    peak: usize,
    /// Allocations performed.
    allocations: u64,
    /// Allocation attempts rejected because all slots were busy.
    rejections: u64,
}

impl MissBuffers {
    /// Why [`MissBuffers::new`] would reject `n`, if it would.
    pub fn defect(n: usize) -> Option<String> {
        (n == 0).then(|| "no miss buffer: every L1 miss would wait forever".into())
    }

    /// A bank with `n` slots.
    ///
    /// # Panics
    /// Panics if [`MissBuffers::defect`] rejects `n`.
    pub fn new(n: usize) -> MissBuffers {
        let defect = MissBuffers::defect(n);
        assert!(defect.is_none(), "miss buffers: {defect:?}");
        MissBuffers {
            slots: vec![0; n],
            peak: 0,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots busy at `now`.
    pub fn occupancy(&self, now: u64) -> usize {
        self.slots.iter().filter(|&&r| r > now).count()
    }

    /// Try to allocate a slot at `now`, holding it until `release`.
    /// Returns `true` on success.
    pub fn try_allocate(&mut self, now: u64, release: u64) -> bool {
        // One pass: the first free slot, and how many of the others are
        // busy (the occupancy after the allocation, for `peak`).
        let mut free = None;
        let mut busy = 0;
        for (i, &r) in self.slots.iter().enumerate() {
            if r > now {
                busy += 1;
            } else if free.is_none() {
                free = Some(i);
            }
        }
        match free {
            Some(i) => {
                self.slots[i] = release;
                self.allocations += 1;
                self.peak = self.peak.max(busy + usize::from(release > now));
                true
            }
            None => {
                self.rejections += 1;
                false
            }
        }
    }

    /// The earliest cycle at which any slot frees (for stall modeling).
    pub fn earliest_free(&self, now: u64) -> u64 {
        self.slots
            .iter()
            .copied()
            .map(|r| r.max(now))
            .min()
            .unwrap_or(now)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MshrStats {
        MshrStats {
            allocations: self.allocations,
            rejections: self.rejections,
            peak: self.peak as u64,
        }
    }
}

exynos_telemetry::counters! {
    /// Occupancy statistics for a miss-buffer bank.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MshrStats in "mem.mshr" {
        /// Allocations performed.
        pub allocations: u64,
        /// Allocation attempts rejected with every slot busy.
        pub rejections: u64,
        /// Peak simultaneous occupancy observed.
        pub peak: u64,
    } gauges(peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MissBuffers::new(2);
        assert!(m.try_allocate(0, 100));
        assert!(m.try_allocate(0, 100));
        assert!(!m.try_allocate(0, 100));
        assert_eq!(m.stats().rejections, 1);
    }

    #[test]
    fn slots_free_after_release() {
        let mut m = MissBuffers::new(1);
        assert!(m.try_allocate(0, 50));
        assert!(!m.try_allocate(49, 80));
        assert!(m.try_allocate(50, 80));
    }

    #[test]
    fn earliest_free_reports_stall_target() {
        let mut m = MissBuffers::new(2);
        m.try_allocate(0, 30);
        m.try_allocate(0, 70);
        assert_eq!(m.earliest_free(10), 30);
        assert_eq!(m.earliest_free(80), 80, "clamped to now when free");
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut m = MissBuffers::new(8);
        for _ in 0..5 {
            m.try_allocate(0, 100);
        }
        assert_eq!(m.stats().peak, 5);
        assert_eq!(m.occupancy(100), 0);
    }

    #[test]
    fn peak_is_the_occupancy_right_after_each_allocation() {
        let mut m = MissBuffers::new(4);
        let mut want = 0;
        let mut x = 0x9E37_79B9u64;
        for now in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Zero-length holds (release == now) occupy nothing.
            if m.try_allocate(now, now + (x >> 60) % 12) {
                want = want.max(m.occupancy(now));
            }
            assert_eq!(m.stats().peak as usize, want);
        }
        assert!(m.stats().rejections > 0 && want == 4);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! {
        MissBuffers [tags::MSHR] {
            slots: Fixed("miss-buffer slots"),
            peak, allocations, rejections,
        }
    }
}
