//! The standalone lower-level-cache prefetcher, added in M5 (§VIII.C–D).
//!
//! "Starting in M5, a standalone prefetcher is added to prefetch into the
//! lower level caches beyond the L1s. This prefetcher observes a global
//! view of both the instruction and data accesses at the lower cache
//! level ... Both demand accesses and core-initiated prefetches are used
//! for its training." It operates on *physical* addresses, "which limits
//! its span to a single page", with "techniques to reuse learnings across
//! 4KB physical page crossings", and uses "a two-level adaptive scheme":
//!
//! * **low confidence** — "phantom prefetches are generated for confidence
//!   tracking purposes into a prefetch filter, but not issued to the
//!   memory system"; demands matching the filter raise confidence;
//! * **high confidence** — prefetches issue aggressively, with accuracy
//!   monitored through cache metadata (prefetched / demand-hit bits);
//!   dropping accuracy falls back to low confidence.

use exynos_mem::LINE_BYTES;
use std::collections::VecDeque;

/// Lines in the 4 KiB physical page that bounds a stream.
const LINES_PER_PAGE: u64 = 4096 / LINE_BYTES;

/// Confidence mode (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfMode {
    /// Phantom prefetches only.
    Low,
    /// Aggressive issue.
    High,
}

/// Tuning of the standalone prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandaloneConfig {
    /// Concurrent page-streams tracked.
    pub streams: usize,
    /// Confirmations needed in a stream before it prefetches.
    pub train_count: u32,
    /// Prefetch distance (lines ahead) in high-confidence mode.
    pub distance: u32,
    /// Phantom-filter depth.
    pub filter_depth: usize,
    /// Score at which low → high confidence.
    pub promote_score: i32,
    /// Score at which high → low confidence.
    pub demote_score: i32,
}

impl Default for StandaloneConfig {
    fn default() -> StandaloneConfig {
        StandaloneConfig {
            streams: 16,
            train_count: 2,
            distance: 8,
            filter_depth: 64,
            promote_score: 8,
            demote_score: -4,
        }
    }
}

/// One page-bounded stream.
#[derive(Debug, Clone, Copy, Default)]
struct PageStream {
    /// 4 KiB physical page number.
    page: u64,
    /// Last 64 B line index within the page (0..64).
    last_line: i64,
    stride: i64,
    confirmations: u32,
    lru: u64,
}

exynos_telemetry::counters! {
    /// Statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StandaloneStats in "prefetch.standalone" {
        /// Accesses trained on.
        pub trained: u64,
        /// Phantom prefetches generated (low-confidence mode).
        pub phantoms: u64,
        /// Demands that matched a phantom (confidence credit).
        pub phantom_hits: u64,
        /// Real prefetches issued (high-confidence mode).
        pub issued: u64,
        /// Low→high promotions.
        pub promotions: u64,
        /// High→low demotions.
        pub demotions: u64,
        /// Streams continued across a page crossing.
        pub page_crossings: u64,
    }
}

/// The standalone L2/L3 stream prefetcher.
#[derive(Debug, Clone)]
pub struct StandalonePrefetcher {
    cfg: StandaloneConfig,
    streams: Vec<PageStream>,
    mode: ConfMode,
    score: i32,
    /// Phantom prefetch filter (lines).
    filter: VecDeque<u64>,
    /// Recent stride observed, reused across page crossings.
    recent_stride: i64,
    stamp: u64,
    stats: StandaloneStats,
}

impl StandalonePrefetcher {
    /// Why [`StandalonePrefetcher::new`] would reject `cfg`, if it would.
    pub fn defect(cfg: &StandaloneConfig) -> Option<String> {
        (cfg.streams == 0 || cfg.distance == 0 || cfg.filter_depth == 0).then(|| {
            format!(
                "{} streams, distance {} and a {}-line filter: every one must be non-zero",
                cfg.streams, cfg.distance, cfg.filter_depth
            )
        })
    }

    /// Build a prefetcher from `cfg`.
    ///
    /// # Panics
    /// Panics if [`StandalonePrefetcher::defect`] rejects `cfg`.
    pub fn new(cfg: StandaloneConfig) -> StandalonePrefetcher {
        let defect = StandalonePrefetcher::defect(&cfg);
        assert!(defect.is_none(), "standalone prefetcher: {defect:?}");
        StandalonePrefetcher {
            cfg,
            streams: Vec::new(),
            mode: ConfMode::Low,
            score: 0,
            filter: VecDeque::new(),
            recent_stride: 0,
            stamp: 0,
            stats: StandaloneStats::default(),
        }
    }

    /// Current confidence mode.
    pub fn mode(&self) -> ConfMode {
        self.mode
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StandaloneStats {
        self.stats
    }

    /// Observe an L2-level access (demand or core prefetch) at physical
    /// 64 B `line`. Returns lines to prefetch (empty in low-confidence
    /// mode).
    pub fn on_l2_access(&mut self, line: u64, is_demand: bool) -> Vec<u64> {
        let mut out = Vec::new();
        self.on_l2_access_into(line, is_demand, &mut out);
        out
    }

    /// As [`StandalonePrefetcher::on_l2_access`], but writing the prefetch
    /// lines into `out` (cleared first) so callers can reuse one buffer
    /// across accesses instead of allocating per call.
    pub fn on_l2_access_into(&mut self, line: u64, is_demand: bool, out: &mut Vec<u64>) {
        out.clear();
        self.stamp += 1;
        self.stats.trained += 1;
        // Demands matching the phantom filter raise confidence (Fig. 15).
        if is_demand {
            if let Some(pos) = self.filter.iter().position(|&f| f == line) {
                self.filter.remove(pos);
                self.stats.phantom_hits += 1;
                self.score += 1;
                if self.mode == ConfMode::Low && self.score >= self.cfg.promote_score {
                    self.mode = ConfMode::High;
                    self.stats.promotions += 1;
                }
            }
        }
        let page = line / LINES_PER_PAGE;
        let in_page = (line % LINES_PER_PAGE) as i64;
        let si = match self.streams.iter().position(|s| s.page == page) {
            Some(i) => i,
            None => self.alloc_stream(page, in_page),
        };
        let s = &mut self.streams[si];
        s.lru = self.stamp;
        let delta = in_page - s.last_line;
        if delta == 0 {
            return;
        }
        if s.stride == delta {
            s.confirmations += 1;
        } else {
            s.stride = delta;
            s.confirmations = 0;
        }
        s.last_line = in_page;
        if s.confirmations < self.cfg.train_count || s.stride == 0 {
            return;
        }
        self.recent_stride = s.stride;
        // Generate up to `distance` lines ahead, clamped to the page (the
        // physical-address span limit).
        let stride = s.stride;
        let mut next = in_page;
        for _ in 0..self.cfg.distance {
            next += stride;
            if !(0..LINES_PER_PAGE as i64).contains(&next) {
                break;
            }
            out.push(page * LINES_PER_PAGE + next as u64);
        }
        match self.mode {
            ConfMode::Low => {
                for &l in out.iter() {
                    if self.filter.len() == self.cfg.filter_depth {
                        self.filter.pop_front();
                    }
                    self.filter.push_back(l);
                    self.stats.phantoms += 1;
                }
                out.clear();
            }
            ConfMode::High => {
                self.stats.issued += out.len() as u64;
            }
        }
    }

    fn alloc_stream(&mut self, page: u64, in_page: i64) -> usize {
        // Cross-page learning reuse: a fresh page whose first access lands
        // where the recent stride predicts (or within two lines of either
        // page edge) continues training pre-warmed.
        let edge = !(2..LINES_PER_PAGE as i64 - 2).contains(&in_page);
        let warm = self.recent_stride != 0 && (in_page % self.recent_stride.abs().max(1) == 0 || edge);
        if warm {
            self.stats.page_crossings += 1;
        }
        let s = PageStream {
            page,
            last_line: in_page - if warm { self.recent_stride } else { 0 },
            stride: if warm { self.recent_stride } else { 0 },
            confirmations: if warm { self.cfg.train_count } else { 0 },
            lru: self.stamp,
        };
        if self.streams.len() < self.cfg.streams {
            self.streams.push(s);
            return self.streams.len() - 1;
        }
        let victim = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, st)| st.lru)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.streams[victim] = s;
        victim
    }

    /// Fault-injection hook: confirmation messages from the cache metadata
    /// back to the trainer are lost. Every stream's training count is
    /// zeroed (they must re-confirm their stride before issuing again),
    /// the phantom filter is emptied, and the accuracy score resets.
    pub fn drop_confirmations(&mut self) {
        for s in &mut self.streams {
            s.confirmations = 0;
        }
        self.filter.clear();
        self.score = 0;
    }

    /// Feedback from cache metadata: a prefetched line was demanded
    /// (`used = true`) or evicted untouched (`used = false`). Governs the
    /// high-confidence mode's accuracy monitor.
    pub fn on_prefetch_outcome(&mut self, used: bool) {
        if used {
            self.score = (self.score + 1).min(2 * self.cfg.promote_score);
        } else {
            self.score -= 1;
            if self.mode == ConfMode::High && self.score <= self.cfg.demote_score {
                self.mode = ConfMode::Low;
                self.score = 0;
                self.stats.demotions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(p: &mut StandalonePrefetcher, start_line: u64, stride: i64, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut l = start_line as i64;
        for _ in 0..n {
            out.extend(p.on_l2_access(l as u64, true));
            l += stride;
        }
        out
    }

    #[test]
    fn starts_low_and_issues_nothing() {
        // Before confidence builds (promote_score phantom hits), nothing
        // is issued to the memory system.
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        let out = walk(&mut p, 64 * 100, 1, 8);
        assert!(out.is_empty());
        assert_eq!(p.mode(), ConfMode::Low);
        assert!(p.stats().phantoms > 0);
    }

    #[test]
    fn phantom_hits_promote_then_issue() {
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        // A long unit-stride walk: phantoms predict the walk itself, so
        // subsequent demands hit the filter and confidence climbs.
        let out = walk(&mut p, 64 * 200, 1, 60);
        assert_eq!(p.mode(), ConfMode::High, "stats: {:?}", p.stats());
        assert!(p.stats().promotions == 1);
        assert!(!out.is_empty(), "high mode must issue");
    }

    #[test]
    fn prefetches_stay_within_page() {
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        let out = walk(&mut p, 64 * 300, 1, 200);
        for l in out {
            // Every prefetch's page must equal some demanded page range.
            assert!(l / 64 >= 300 && l / 64 <= 300 + 4);
        }
    }

    #[test]
    fn inaccuracy_demotes() {
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        walk(&mut p, 64 * 400, 1, 60);
        assert_eq!(p.mode(), ConfMode::High);
        for _ in 0..40 {
            p.on_prefetch_outcome(false);
        }
        assert_eq!(p.mode(), ConfMode::Low);
        assert_eq!(p.stats().demotions, 1);
    }

    #[test]
    fn page_crossing_reuses_stride() {
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        // Promote first.
        walk(&mut p, 64 * 500, 1, 70);
        let crossings_before = p.stats().page_crossings;
        // Continue the walk into the next pages.
        walk(&mut p, 64 * 501, 1, 70);
        assert!(
            p.stats().page_crossings > crossings_before,
            "stride must carry across page boundaries"
        );
    }

    #[test]
    fn accuracy_feedback_keeps_good_streams_high() {
        let mut p = StandalonePrefetcher::new(StandaloneConfig::default());
        walk(&mut p, 64 * 600, 2, 60);
        assert_eq!(p.mode(), ConfMode::High);
        for _ in 0..100 {
            p.on_prefetch_outcome(true);
            p.on_prefetch_outcome(false);
        }
        assert_eq!(p.mode(), ConfMode::High, "balanced accuracy must not demote");
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{codes, layout, tags};

    codes! {
        ModeCode: ConfMode as u8, "standalone confidence mode" { Low = 0, High = 1 }
    }

    layout! {
        StandalonePrefetcher [tags::STANDALONE] |s| {
            streams: Bounded(s.cfg.streams, "standalone page streams"),
            mode: Via(ModeCode),
            score,
            filter: Bounded(s.cfg.filter_depth, "standalone duplicate filter"),
            recent_stride, stamp, stats,
        }
    }
    layout! { PageStream { page, last_line, stride, confirmations, lru } }
}
