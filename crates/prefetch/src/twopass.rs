//! The one-pass/two-pass L1 prefetch delivery scheme (§VII.B, Fig. 14,
//! patent \[31\] "Pre-fetch Chaining").
//!
//! In **two-pass** mode a prefetch does not allocate an L1 miss buffer up
//! front: the first pass sends a fill request into the L2 (steps 1–4 of
//! Fig. 14) while the address waits in a queue (step 2); when an L1 miss
//! buffer frees up, the second pass performs the L1 fill (steps 5–7).
//!
//! When the working set fits in the L2 every first pass would hit there,
//! so the controller "tracks the number of first pass prefetch hits in the
//! L2, and if they reach a certain watermark, it will switch into one-pass
//! mode", where only the queue entry is made and the L1 fill issues as
//! soon as buffers allow — saving power and L2 bandwidth.

use std::collections::VecDeque;

/// Current delivery mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMode {
    /// First pass to L2, second pass to L1 when buffers free.
    TwoPass,
    /// Single L1 fill once buffers allow (L2-resident working set).
    OnePass,
}

/// A prefetch waiting for its L1 (second-pass) fill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingFill {
    /// 64 B line address.
    pub line: u64,
    /// Cycle at which the data is available to fill (L2 response time).
    pub ready_at: u64,
}

exynos_telemetry::counters! {
    /// Controller statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TwoPassStats in "prefetch.twopass" {
        /// First-pass requests sent to the L2.
        pub first_passes: u64,
        /// First passes that hit in the L2.
        pub first_pass_l2_hits: u64,
        /// Second-pass L1 fills completed.
        pub second_passes: u64,
        /// One-pass L1 fills completed.
        pub one_passes: u64,
        /// Mode switches two-pass → one-pass.
        pub to_one_pass: u64,
        /// Mode switches one-pass → two-pass.
        pub to_two_pass: u64,
        /// Prefetches dropped because the pending queue overflowed.
        pub dropped: u64,
    }
}

/// The one-pass/two-pass delivery controller.
#[derive(Debug, Clone)]
pub struct TwoPassController {
    mode: PassMode,
    pending: VecDeque<PendingFill>,
    queue_depth: usize,
    /// Saturating counter of recent first-pass L2 hits.
    l2_hit_score: i32,
    watermark: i32,
    stats: TwoPassStats,
}

impl TwoPassController {
    /// A controller with a pending queue of `queue_depth` entries and the
    /// given one-pass switch `watermark`.
    ///
    /// # Panics
    /// Panics if `queue_depth` is zero.
    pub fn new(queue_depth: usize, watermark: i32) -> TwoPassController {
        assert!(queue_depth > 0);
        TwoPassController {
            mode: PassMode::TwoPass,
            pending: VecDeque::new(),
            queue_depth,
            l2_hit_score: 0,
            watermark,
            stats: TwoPassStats::default(),
        }
    }

    /// The M1 production-ish configuration. The queue is sized for the
    /// dynamic-degree maximum (64) across a couple of concurrent streams.
    pub fn standard() -> TwoPassController {
        TwoPassController::new(128, 12)
    }

    /// Current mode.
    pub fn mode(&self) -> PassMode {
        self.mode
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TwoPassStats {
        self.stats
    }

    /// Pending second-pass/one-pass fills.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// A new prefetch enters the scheme. In two-pass mode the caller must
    /// have issued the L2 fill; `l2_hit` reports whether it hit there, and
    /// `ready_at` when data will be in the L2. Returns `false` if the
    /// prefetch was dropped (queue full).
    pub fn enqueue(&mut self, line: u64, l2_hit: bool, ready_at: u64) -> bool {
        if self.pending.len() >= self.queue_depth {
            self.stats.dropped += 1;
            return false;
        }
        if self.mode == PassMode::TwoPass {
            self.stats.first_passes += 1;
            if l2_hit {
                self.stats.first_pass_l2_hits += 1;
                self.l2_hit_score = (self.l2_hit_score + 1).min(self.watermark * 2);
                if self.l2_hit_score >= self.watermark {
                    self.mode = PassMode::OnePass;
                    self.stats.to_one_pass += 1;
                }
            } else {
                self.l2_hit_score = (self.l2_hit_score - 2).max(-self.watermark);
            }
        }
        self.pending.push_back(PendingFill { line, ready_at });
        true
    }

    /// In one-pass mode, an L1 fill that had to go to memory anyway
    /// signals the working set outgrew the L2: decay back toward two-pass.
    pub fn on_one_pass_l2_miss(&mut self) {
        self.l2_hit_score = (self.l2_hit_score - 2).max(-self.watermark);
        if self.mode == PassMode::OnePass && self.l2_hit_score <= 0 {
            self.mode = PassMode::TwoPass;
            self.stats.to_two_pass += 1;
        }
    }

    /// L1 miss buffers freed: drain up to `buffers` fills whose data is
    /// ready at `now`. Returns the lines to fill into the L1.
    pub fn drain_ready(&mut self, now: u64, buffers: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_ready_into(now, buffers, &mut out);
        out
    }

    /// As [`TwoPassController::drain_ready`], but writing the lines into
    /// `out` (cleared first) so callers can reuse one buffer across drains
    /// instead of allocating per call.
    pub fn drain_ready_into(&mut self, now: u64, buffers: usize, out: &mut Vec<u64>) {
        out.clear();
        let mut rotated = 0;
        while out.len() < buffers && rotated < self.pending.len() {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            if p.ready_at <= now {
                match self.mode {
                    PassMode::TwoPass => self.stats.second_passes += 1,
                    PassMode::OnePass => self.stats.one_passes += 1,
                }
                out.push(p.line);
            } else {
                // Head not ready: rotate to look deeper.
                self.pending.push_back(p);
                rotated += 1;
            }
        }
    }

    /// Fault-injection hook: the chaining path loses every pending fill
    /// confirmation (steps 5–7 of Fig. 14 never arrive). The queued fills
    /// are discarded and counted into [`TwoPassStats::dropped`]. Returns
    /// how many fills were lost.
    pub fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        self.stats.dropped += n as u64;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_two_pass() {
        let c = TwoPassController::standard();
        assert_eq!(c.mode(), PassMode::TwoPass);
    }

    #[test]
    fn l2_hits_promote_to_one_pass() {
        let mut c = TwoPassController::new(64, 4);
        for i in 0..4 {
            c.enqueue(100 + i, true, 0);
        }
        assert_eq!(c.mode(), PassMode::OnePass);
        assert_eq!(c.stats().to_one_pass, 1);
    }

    #[test]
    fn l2_misses_keep_two_pass() {
        let mut c = TwoPassController::new(64, 4);
        for i in 0..20 {
            c.enqueue(100 + i, i % 4 == 0, 0); // mostly misses
        }
        assert_eq!(c.mode(), PassMode::TwoPass);
    }

    #[test]
    fn one_pass_decays_back_on_misses() {
        let mut c = TwoPassController::new(64, 4);
        for i in 0..4 {
            c.enqueue(100 + i, true, 0);
        }
        assert_eq!(c.mode(), PassMode::OnePass);
        for _ in 0..6 {
            c.on_one_pass_l2_miss();
        }
        assert_eq!(c.mode(), PassMode::TwoPass);
        assert_eq!(c.stats().to_two_pass, 1);
    }

    #[test]
    fn drain_respects_readiness_and_buffer_count() {
        let mut c = TwoPassController::standard();
        c.enqueue(1, false, 100);
        c.enqueue(2, false, 10);
        c.enqueue(3, false, 10);
        // At t=50 only lines 2 and 3 are ready; 1 buffer available.
        let out = c.drain_ready(50, 1);
        assert_eq!(out, vec![2]);
        let out = c.drain_ready(50, 4);
        assert_eq!(out, vec![3]);
        // Line 1 becomes ready later.
        let out = c.drain_ready(120, 4);
        assert_eq!(out, vec![1]);
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut c = TwoPassController::new(2, 4);
        assert!(c.enqueue(1, false, 0));
        assert!(c.enqueue(2, false, 0));
        assert!(!c.enqueue(3, false, 0));
        assert_eq!(c.stats().dropped, 1);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{codes, layout, tags};

    codes! {
        ModeCode: PassMode as u8, "two-pass mode" { TwoPass = 0, OnePass = 1 }
    }

    layout! {
        TwoPassController [tags::TWOPASS] |s| {
            mode: Via(ModeCode),
            pending: Bounded(s.queue_depth, "two-pass pending fills"),
            l2_hit_score, stats,
        }
    }
    layout! { PendingFill { line, ready_at } }
}
