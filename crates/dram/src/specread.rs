//! Speculative cache-lookup bypass for latency-critical reads (M5+, §IX).
//!
//! "Read requests are classified as 'latency critical' based on various
//! heuristics from the CPU (e.g. demand load miss, instruction cache miss,
//! table walk requests etc.) as well as a history-based cache miss
//! predictor. Such reads speculatively issue to the coherent interconnect
//! in parallel to checking the tags of the levels of cache. The coherent
//! interconnect contains a snoop filter directory ... the speculative read
//! feature utilizes the directory lookup to further predict with high
//! probability whether the requested cache line may be present in the
//! bypassed lower levels of cache. If yes, then it cancels the speculative
//! request ... acting as a second-chance 'corrector predictor' in case the
//! cache miss prediction from the first predictor is wrong."

use exynos_snapshot::LazySets;

/// A history-based cache-miss predictor (first-level heuristic), indexed
/// by load PC.
#[derive(Debug, Clone)]
pub struct MissPredictor {
    /// Saturating miss-bias counters.
    ctrs: Vec<i8>,
}

impl MissPredictor {
    /// A predictor with `rows` counters (power of two).
    ///
    /// # Panics
    /// Panics if `rows` is not a power of two.
    pub fn new(rows: usize) -> MissPredictor {
        assert!(rows.is_power_of_two());
        MissPredictor { ctrs: vec![0; rows] }
    }

    fn index(&self, pc: u64) -> usize {
        let h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 40) as usize & (self.ctrs.len() - 1)
    }

    /// Predict whether the load at `pc` will miss all cache levels.
    pub fn predict_miss(&self, pc: u64) -> bool {
        self.ctrs[self.index(pc)] > 0
    }

    /// Train with the resolved outcome.
    pub fn train(&mut self, pc: u64, missed_all: bool) {
        let i = self.index(pc);
        let d = if missed_all { 1 } else { -1 };
        self.ctrs[i] = (self.ctrs[i] + d).clamp(-8, 8);
    }
}

/// The interconnect's snoop-filter directory: a (lossy) record of lines
/// held by the CPU cluster's caches, consulted to cancel speculative
/// DRAM reads. Its sets are [`LazySets`], stored once first written.
#[derive(Debug, Clone)]
pub struct SnoopFilter {
    /// (line address, lru); `u64::MAX` = invalid.
    entries: LazySets<(u64, u64)>,
    stamp: u64,
}

/// A free directory way.
const INVALID: (u64, u64) = (u64::MAX, 0);

impl SnoopFilter {
    /// A directory covering `lines` entries with `ways` associativity.
    ///
    /// # Panics
    /// Panics on zero geometry.
    pub fn new(lines: usize, ways: usize) -> SnoopFilter {
        assert!(lines > 0 && ways > 0);
        let sets = (lines / ways).max(1);
        SnoopFilter {
            entries: LazySets::new(sets, ways, INVALID),
            stamp: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        ((line ^ (line >> 11)) % self.entries.sets() as u64) as usize
    }

    /// Record that the cluster now holds `line`.
    pub fn insert(&mut self, line: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.entries.set_mut(self.set_of(line));
        if let Some(way) = set.iter_mut().find(|w| w.0 == line) {
            way.1 = stamp;
            return;
        }
        let victim = (0..set.len())
            .min_by_key(|&w| if set[w].0 == u64::MAX { 0 } else { set[w].1.max(1) })
            .unwrap_or(0);
        set[victim] = (line, stamp);
    }

    /// Record that the cluster no longer holds `line`.
    pub fn remove(&mut self, line: u64) {
        let s = self.set_of(line);
        if let Some(way) = self.entries.written_mut(s).and_then(|set| set.iter_mut().find(|w| w.0 == line)) {
            *way = INVALID;
        }
    }

    /// Directory lookup: might the cluster's caches hold `line`?
    pub fn may_be_cached(&self, line: u64) -> bool {
        self.entries.set(self.set_of(line)).iter().any(|w| w.0 == line)
    }
}

/// Outcome of a speculative-read decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDecision {
    /// Not classified latency-critical / predictor said hit: no
    /// speculation; sequential tag checks then memory.
    NoSpeculation,
    /// Speculative DRAM read launched in parallel with the tag checks.
    Speculate,
    /// Speculation was requested but the snoop-filter directory predicted
    /// the line is cached: the interconnect cancels the DRAM access.
    Cancelled,
}

exynos_telemetry::counters! {
    /// Statistics for the speculative-read feature.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SpecReadStats in "dram.specread" {
        /// Reads that speculated to DRAM.
        pub speculated: u64,
        /// Speculations cancelled by the directory.
        pub cancelled: u64,
        /// Speculations that were correct (line truly not cached).
        pub useful: u64,
        /// Speculations that were wasted (line was cached after all — the
        /// directory failed to cancel).
        pub wasted: u64,
    }
}

/// The M5 speculative-read controller.
#[derive(Debug, Clone)]
pub struct SpecReadController {
    predictor: MissPredictor,
    stats: SpecReadStats,
    enabled: bool,
}

impl SpecReadController {
    /// A controller; `enabled` gates the whole feature (pre-M5 = false).
    pub fn new(enabled: bool) -> SpecReadController {
        SpecReadController {
            predictor: MissPredictor::new(1024),
            stats: SpecReadStats::default(),
            enabled,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SpecReadStats {
        self.stats
    }

    /// Decide for a latency-critical read at `pc` to `line`, consulting
    /// the miss predictor and the snoop-filter directory.
    pub fn decide(&mut self, pc: u64, line: u64, filter: &SnoopFilter) -> SpecDecision {
        if !self.enabled || !self.predictor.predict_miss(pc) {
            return SpecDecision::NoSpeculation;
        }
        if filter.may_be_cached(line) {
            self.stats.cancelled += 1;
            return SpecDecision::Cancelled;
        }
        self.stats.speculated += 1;
        SpecDecision::Speculate
    }

    /// Train with the resolved outcome of the read: `hit_in_cache` is
    /// whether any bypassed cache level held the line.
    pub fn resolve(&mut self, pc: u64, decision: SpecDecision, hit_in_cache: bool) {
        self.predictor.train(pc, !hit_in_cache);
        if decision == SpecDecision::Speculate {
            if hit_in_cache {
                self.stats.wasted += 1;
            } else {
                self.stats.useful += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_missy_loads() {
        let mut p = MissPredictor::new(64);
        for _ in 0..4 {
            p.train(0x4000, true);
        }
        assert!(p.predict_miss(0x4000));
        for _ in 0..8 {
            p.train(0x4000, false);
        }
        assert!(!p.predict_miss(0x4000));
    }

    #[test]
    fn snoop_filter_tracks_residency() {
        let mut f = SnoopFilter::new(256, 4);
        f.insert(0x100);
        assert!(f.may_be_cached(0x100));
        f.remove(0x100);
        assert!(!f.may_be_cached(0x100));
    }

    #[test]
    fn directory_cancels_speculation_on_cached_lines() {
        let mut c = SpecReadController::new(true);
        let mut f = SnoopFilter::new(256, 4);
        // Teach the predictor this PC misses.
        for _ in 0..4 {
            c.predictor.train(0x4000, true);
        }
        f.insert(0xABC);
        assert_eq!(c.decide(0x4000, 0xABC, &f), SpecDecision::Cancelled);
        assert_eq!(c.decide(0x4000, 0xDEF, &f), SpecDecision::Speculate);
    }

    #[test]
    fn disabled_controller_never_speculates() {
        let mut c = SpecReadController::new(false);
        let f = SnoopFilter::new(256, 4);
        for _ in 0..4 {
            c.predictor.train(0x4000, true);
        }
        assert_eq!(c.decide(0x4000, 0x123, &f), SpecDecision::NoSpeculation);
    }

    #[test]
    fn outcomes_tracked() {
        let mut c = SpecReadController::new(true);
        let f = SnoopFilter::new(256, 4);
        for _ in 0..4 {
            c.predictor.train(0x4000, true);
        }
        let d = c.decide(0x4000, 0x500, &f);
        c.resolve(0x4000, d, false);
        assert_eq!(c.stats().useful, 1);
        let d = c.decide(0x4000, 0x600, &f);
        c.resolve(0x4000, d, true); // directory failed to cancel
        assert_eq!(c.stats().wasted, 1);
    }

    #[test]
    fn lossy_directory_evicts_lru() {
        let mut f = SnoopFilter::new(4, 2);
        // Overfill one set.
        let mut in_set = Vec::new();
        let mut line = 0u64;
        while in_set.len() < 3 {
            if f.set_of(line) == 0 {
                in_set.push(line);
                f.insert(line);
            }
            line += 1;
        }
        assert!(!f.may_be_cached(in_set[0]), "oldest evicted");
        assert!(f.may_be_cached(in_set[2]));
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { MissPredictor [tags::MISS_PREDICTOR] { ctrs: Fixed("miss-predictor counters") } }
    layout! {
        SnoopFilter [tags::SNOOP_FILTER] { entries: Fixed("snoop-filter entries"), stamp }
    }
    layout! { SpecReadController [tags::SPEC_READ] { predictor, enabled, stats } }
}
