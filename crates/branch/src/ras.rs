//! The Return Address Stack with CONTEXT_HASH target encryption.
//!
//! §IV: "Function returns are predicted with a Return-Address Stack (RAS)
//! with standard mechanisms to repair multiple speculative pushes and
//! pops." §V/Fig. 11 adds the stream-cipher encryption of stored return
//! targets.

use exynos_secure::cipher::{decrypt_target, encrypt_target, EncryptedTarget};
use exynos_secure::context::ContextHash;

/// A bounded return-address stack. Overflow wraps (oldest entries are
/// silently overwritten), underflow predicts nothing — both are genuine
/// mispredict sources on deep recursion.
///
/// The stack owns its [`RasStats`] and exposes them through
/// [`Ras::stats`], matching every other predictor component.
#[derive(Debug, Clone)]
pub struct Ras {
    slots: Vec<Option<EncryptedTarget>>,
    top: usize,
    depth: usize,
    capacity: usize,
    key: ContextHash,
    stats: RasStats,
}

exynos_telemetry::counters! {
    /// RAS statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RasStats in "branch.ras" {
        /// Pushes that overwrote a live entry (overflow).
        pub overflows: u64,
        /// Pops from an empty stack (underflow).
        pub underflows: u64,
    }
}

impl Ras {
    /// Why [`Ras::new`] would reject `capacity`, if it would.
    pub fn defect(capacity: usize) -> Option<String> {
        (capacity == 0).then(|| "a zero-entry RAS holds no return".into())
    }

    /// A RAS with `capacity` entries, storing targets under `key`.
    ///
    /// # Panics
    /// Panics if [`Ras::defect`] rejects `capacity`.
    pub fn new(capacity: usize, key: ContextHash) -> Ras {
        let defect = Ras::defect(capacity);
        assert!(defect.is_none(), "RAS: {defect:?}");
        Ras {
            slots: vec![None; capacity],
            top: 0,
            depth: 0,
            capacity,
            key,
            stats: RasStats::default(),
        }
    }

    /// Install a new context key (context switch). Existing entries keep
    /// their old-key ciphertext and will decode to garbage — which is the
    /// security property, not a bug.
    pub fn set_key(&mut self, key: ContextHash) {
        self.key = key;
    }

    /// Push a return address (on a call).
    pub fn push(&mut self, ret_addr: u64) {
        if self.depth == self.capacity {
            self.stats.overflows += 1;
        } else {
            self.depth += 1;
        }
        self.slots[self.top] = Some(encrypt_target(self.key, ret_addr));
        self.top = (self.top + 1) % self.capacity;
    }

    /// Pop and predict the return target (on a return).
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            self.stats.underflows += 1;
            return None;
        }
        self.depth -= 1;
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.slots[self.top]
            .take()
            .map(|e| decrypt_target(self.key, e))
    }

    /// Fault-injection hook: forget all but the newest `keep` entries.
    /// Models a speculative-repair bug truncating the stack; the forgotten
    /// frames underflow later and mispredict, which the front end absorbs
    /// as ordinary return mispredicts.
    pub fn truncate(&mut self, keep: usize) {
        self.depth = self.depth.min(keep);
    }

    /// Flush all entries (pipeline-flush recovery) while keeping the key
    /// and the cumulative statistics.
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.top = 0;
        self.depth = 0;
    }

    /// Current number of live entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RasStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_secure::context::{compute_context_hash, ContextId, EntropySources};

    fn key(asid: u16) -> ContextHash {
        compute_context_hash(&EntropySources::from_seed(11), ContextId::user(asid, 0))
    }

    #[test]
    fn push_pop_lifo() {
        let mut r = Ras::new(8, key(1));
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), Some(0x100));
        assert_eq!(r.stats().overflows + r.stats().underflows, 0);
    }

    #[test]
    fn underflow_counts_and_returns_none() {
        let mut r = Ras::new(4, key(1));
        assert_eq!(r.pop(), None);
        assert_eq!(r.stats().underflows, 1);
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut r = Ras::new(2, key(1));
        r.push(0x100);
        r.push(0x200);
        r.push(0x300); // overwrites 0x100
        assert_eq!(r.stats().overflows, 1);
        assert_eq!(r.pop(), Some(0x300));
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), None, "0x100 was lost to the wrap");
    }

    #[test]
    fn deep_recursion_depth_tracks() {
        let mut r = Ras::new(16, key(1));
        for i in 0..10u64 {
            r.push(0x1000 + i * 4);
        }
        assert_eq!(r.depth(), 10);
        assert_eq!(r.capacity(), 16);
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let mut r = Ras::new(4, key(1));
        let _ = r.pop(); // underflow
        r.push(0x100);
        r.clear();
        assert_eq!(r.depth(), 0);
        assert_eq!(r.pop(), None);
        assert_eq!(r.stats().underflows, 2, "stats survive the flush");
    }

    #[test]
    fn context_switch_scrambles_stale_entries() {
        let mut r = Ras::new(8, key(1));
        r.push(0xAAA0);
        r.set_key(key(2));
        let got = r.pop().unwrap();
        assert_ne!(got, 0xAAA0, "old-context entries must not decode");
        // New pushes under the new key decode fine.
        r.push(0xBBB0);
        assert_eq!(r.pop(), Some(0xBBB0));
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        Ras [tags::RAS] {
            slots: Fixed("ras slots"),
            top, depth, key, stats,
        } then check_top
    }

    impl Ras {
        fn check_top(&mut self) -> Result<(), SnapshotError> {
            if self.top >= self.capacity.max(1) || self.depth > self.capacity {
                return Err(SnapshotError::Corrupt { what: "ras top/depth out of range" });
            }
            Ok(())
        }
    }
}
