//! # exynos-uoc — the M5 micro-operation cache (§VI)
//!
//! "The M5 implementation added a micro-operation cache as an alternative
//! µop supply path, primarily to save fetch and decode power on repeatable
//! kernels. The UOC can hold up to 384 µops, and provides up to 6 µops per
//! cycle."
//!
//! The front end operates in three modes (Fig. 13):
//!
//! * **FilterMode** — the µBTB predictor determines predictability and size
//!   of the current code segment; only when it locks onto a small, highly
//!   predictable kernel does the UOC start building (avoiding unprofitable
//!   builds);
//! * **BuildMode** — basic blocks are allocated into the UOC. Each µBTB
//!   branch entry carries a "built" bit: on a prediction lookup
//!   `#BuildTimer` increments, and the bit selects between `#BuildEdge`
//!   (clear — block marked for allocation, UOC tags checked, bit
//!   back-propagated) and `#FetchEdge` (set). When the
//!   `#FetchEdge / #BuildEdge` ratio reaches a threshold before the timer
//!   expires, the front end shifts to FetchMode;
//! * **FetchMode** — the instruction cache and decoders are disabled and
//!   the µBTB predictions feed through the UAQ into the UOC. Built bits
//!   keep being monitored; too many `#BuildEdge` events flip back to
//!   FilterMode.

#![warn(missing_docs)]

use exynos_branch::ubtb::MicroBtb;
use std::fmt;

/// Internal inconsistency of the UOC detected during operation. Typed
/// (instead of a panic) so the core's watchdog can demote the UOC to
/// FilterMode and continue, or surface the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UocError {
    /// The instruction-level driver lost the current block's start PC
    /// while a block was being accumulated.
    BlockStateLost {
        /// PC of the closing branch that found no block start.
        pc: u64,
    },
}

impl fmt::Display for UocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UocError::BlockStateLost { pc } => {
                write!(f, "UOC block accumulator lost its start PC at {pc:#x}")
            }
        }
    }
}

impl std::error::Error for UocError {}

/// Operating mode of the µop supply path (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UocMode {
    /// µBTB filters for a profitable, predictable kernel.
    Filter,
    /// Basic blocks are being allocated into the UOC.
    Build,
    /// The UOC supplies µops; instruction cache and decode are gated.
    Fetch,
}

/// Geometry and thresholds of the UOC.
#[derive(Debug, Clone, PartialEq)]
pub struct UocConfig {
    /// Total µop capacity (384 in M5/M6).
    pub capacity_uops: u32,
    /// µops supplied per cycle in FetchMode (6 in M5).
    pub supply_width: u32,
    /// `#FetchEdge / #BuildEdge` ratio that promotes Build → Fetch.
    pub build_to_fetch_ratio: u32,
    /// Minimum edges observed before the promotion ratio is evaluated.
    pub min_edges: u32,
    /// `#BuildTimer` limit; expiry demotes Build → Filter.
    pub build_timer_limit: u32,
    /// `#BuildEdge` fraction (percent) of edges that demotes Fetch →
    /// Filter.
    pub fetch_miss_percent: u32,
}

impl Default for UocConfig {
    /// The M5 production configuration.
    fn default() -> UocConfig {
        UocConfig {
            capacity_uops: 384,
            supply_width: 6,
            build_to_fetch_ratio: 3,
            min_edges: 16,
            build_timer_limit: 2048,
            fetch_miss_percent: 25,
        }
    }
}

/// One cached basic block.
#[derive(Debug, Clone, Copy)]
struct UocBlock {
    /// Block start PC (tag).
    start: u64,
    /// Terminating branch PC (built-bit owner in the µBTB).
    branch_pc: u64,
    uops: u32,
    lru: u64,
}

/// Aggregate UOC statistics (power/effectiveness proxies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UocStats {
    /// Blocks processed in FilterMode.
    pub filter_blocks: u64,
    /// Blocks processed in BuildMode.
    pub build_blocks: u64,
    /// Blocks processed in FetchMode.
    pub fetch_blocks: u64,
    /// µops supplied by the UOC (fetch+decode power saved).
    pub uops_supplied: u64,
    /// Basic-block allocations performed.
    pub builds: u64,
    /// Blocks evicted for capacity.
    pub evictions: u64,
    /// Build→Fetch promotions.
    pub promotions: u64,
    /// Demotions back to FilterMode.
    pub demotions: u64,
    /// Build requests squashed because the UOC already held the block
    /// (the back-propagation case in §VI).
    pub squashed_builds: u64,
}

impl exynos_telemetry::Observable for UocStats {
    fn component(&self) -> &'static str {
        "uoc.cache"
    }

    fn visit(&self, f: &mut dyn FnMut(&'static str, exynos_telemetry::Value)) {
        use exynos_telemetry::Value;
        f("filter_blocks", Value::U64(self.filter_blocks));
        f("build_blocks", Value::U64(self.build_blocks));
        f("fetch_blocks", Value::U64(self.fetch_blocks));
        f("uops_supplied", Value::U64(self.uops_supplied));
        f("builds", Value::U64(self.builds));
        f("evictions", Value::U64(self.evictions));
        f("promotions", Value::U64(self.promotions));
        f("demotions", Value::U64(self.demotions));
        f("squashed_builds", Value::U64(self.squashed_builds));
    }
}

/// The micro-operation cache and its mode state machine.
#[derive(Debug, Clone)]
pub struct Uoc {
    cfg: UocConfig,
    mode: UocMode,
    blocks: Vec<UocBlock>,
    used_uops: u32,
    build_edge: u32,
    fetch_edge: u32,
    build_timer: u32,
    stamp: u64,
    stats: UocStats,
    /// Block-accumulation state for the instruction-level driver.
    cur_block_start: Option<u64>,
    cur_block_uops: u32,
    /// Index of the most recent [`Uoc::find`] hit. Kernels loop over a
    /// handful of blocks, so verifying this tag first usually skips the
    /// linear scan; it is always re-validated against the block's start
    /// PC, so a stale hint (e.g. after `swap_remove`) just falls back.
    find_hint: usize,
}

impl Uoc {
    /// Build a UOC from `cfg`.
    ///
    /// # Panics
    /// Panics if `capacity_uops` or `supply_width` is zero.
    pub fn new(cfg: UocConfig) -> Uoc {
        assert!(cfg.capacity_uops > 0 && cfg.supply_width > 0);
        Uoc {
            mode: UocMode::Filter,
            blocks: Vec::new(),
            used_uops: 0,
            build_edge: 0,
            fetch_edge: 0,
            build_timer: 0,
            stamp: 0,
            stats: UocStats::default(),
            cfg,
            cur_block_start: None,
            cur_block_uops: 0,
            find_hint: 0,
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> UocMode {
        self.mode
    }

    /// The configuration in use.
    pub fn config(&self) -> &UocConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> UocStats {
        self.stats
    }

    /// µops currently resident.
    pub fn occupancy(&self) -> u32 {
        self.used_uops
    }

    fn reset_counters(&mut self) {
        self.build_edge = 0;
        self.fetch_edge = 0;
        self.build_timer = 0;
    }

    /// Watchdog degradation hook: force the mode machine back to
    /// FilterMode and drop the in-flight block accumulator. Resident
    /// blocks stay cached (they re-arm via the ordinary Build path), but
    /// µop supply stops until the filter re-qualifies the kernel.
    pub fn demote_to_filter(&mut self) {
        if self.mode != UocMode::Filter {
            self.stats.demotions += 1;
        }
        self.mode = UocMode::Filter;
        self.reset_counters();
        self.cur_block_start = None;
        self.cur_block_uops = 0;
    }

    #[inline]
    fn find(&mut self, start: u64) -> Option<usize> {
        if let Some(b) = self.blocks.get(self.find_hint) {
            if b.start == start {
                return Some(self.find_hint);
            }
        }
        let found = self.blocks.iter().position(|b| b.start == start);
        if let Some(i) = found {
            self.find_hint = i;
        }
        found
    }

    fn allocate(&mut self, start: u64, branch_pc: u64, uops: u32, ubtb: &mut MicroBtb) {
        let uops = uops.min(self.cfg.capacity_uops);
        if let Some(i) = self.find(start) {
            // Already present: the build request is squashed and the built
            // bit back-propagated.
            self.stats.squashed_builds += 1;
            self.blocks[i].lru = self.stamp;
            ubtb.set_built(branch_pc, true);
            return;
        }
        while self.used_uops + uops > self.cfg.capacity_uops && !self.blocks.is_empty() {
            let victim = self
                .blocks
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.lru)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let b = self.blocks.swap_remove(victim);
            self.used_uops -= b.uops;
            self.stats.evictions += 1;
            // Eviction clears the branch's built bit.
            ubtb.set_built(b.branch_pc, false);
        }
        self.blocks.push(UocBlock {
            start,
            branch_pc,
            uops,
            lru: self.stamp,
        });
        self.used_uops += uops;
        self.stats.builds += 1;
        ubtb.set_built(branch_pc, true);
    }

    /// Process one completed basic block: `start` is its first PC,
    /// `branch_pc` the terminating branch (whose µBTB entry owns the built
    /// bit), `uops` its µop count. Returns `true` when the block's µops
    /// were supplied by the UOC (instruction cache and decode gated).
    pub fn on_block(&mut self, start: u64, branch_pc: u64, uops: u32, ubtb: &mut MicroBtb) -> bool {
        self.stamp += 1;
        match self.mode {
            UocMode::Filter => {
                self.stats.filter_blocks += 1;
                // Profitability filter: the kernel must be µBTB-predictable
                // (locked) — the lock condition already implies it fits the
                // µBTB's finite resources.
                if ubtb.is_locked() {
                    self.mode = UocMode::Build;
                    self.reset_counters();
                }
                false
            }
            UocMode::Build => {
                self.stats.build_blocks += 1;
                self.build_timer += 1;
                match ubtb.built_bit(branch_pc) {
                    Some(true) => self.fetch_edge += 1,
                    _ => {
                        self.build_edge += 1;
                        self.allocate(start, branch_pc, uops, ubtb);
                    }
                }
                if self.build_timer > self.cfg.build_timer_limit {
                    self.mode = UocMode::Filter;
                    self.stats.demotions += 1;
                    self.reset_counters();
                } else if self.fetch_edge + self.build_edge >= self.cfg.min_edges
                    && self.fetch_edge >= self.cfg.build_to_fetch_ratio * self.build_edge.max(1)
                {
                    self.mode = UocMode::Fetch;
                    self.stats.promotions += 1;
                    self.reset_counters();
                }
                false
            }
            UocMode::Fetch => {
                self.stats.fetch_blocks += 1;
                let built = ubtb.built_bit(branch_pc) == Some(true);
                let resident = match self.find(start) {
                    Some(i) if built => {
                        self.fetch_edge += 1;
                        self.blocks[i].lru = self.stamp;
                        self.stats.uops_supplied += uops as u64;
                        true
                    }
                    found => {
                        self.build_edge += 1;
                        found.is_some()
                    }
                };
                // µBTB inaccuracy or too many UOC misses end FetchMode.
                let edges = self.fetch_edge + self.build_edge;
                let missy = edges >= self.cfg.min_edges
                    && self.build_edge * 100 >= self.cfg.fetch_miss_percent * edges;
                if !ubtb.is_locked() || missy {
                    self.mode = UocMode::Filter;
                    self.stats.demotions += 1;
                    self.reset_counters();
                    return false;
                }
                built && resident
            }
        }
    }

    /// Instruction-level driver: accumulates the current basic block and
    /// calls [`Uoc::on_block`] when a taken branch (or a redirect,
    /// signalled via `block_broken`) closes it. Returns whether the
    /// *closing* block was supplied by the UOC, or a typed [`UocError`]
    /// if the accumulator state is inconsistent.
    #[inline]
    pub fn on_inst(
        &mut self,
        pc: u64,
        is_branch: bool,
        taken: bool,
        block_broken: bool,
        ubtb: &mut MicroBtb,
    ) -> Result<bool, UocError> {
        if block_broken {
            self.cur_block_start = None;
            self.cur_block_uops = 0;
        }
        if self.cur_block_start.is_none() {
            self.cur_block_start = Some(pc);
        }
        self.cur_block_uops += 1;
        if is_branch && taken {
            let Some(start) = self.cur_block_start.take() else {
                return Err(UocError::BlockStateLost { pc });
            };
            let uops = self.cur_block_uops;
            self.cur_block_uops = 0;
            return Ok(self.on_block(start, pc, uops, ubtb));
        }
        // Very long fall-through regions close blocks at fetch width too,
        // but those are uninteresting to the UOC filter; cap block size.
        if self.cur_block_uops >= 64 {
            self.cur_block_start = None;
            self.cur_block_uops = 0;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_branch::ubtb::UbtbConfig;

    /// Lock the µBTB on a kernel made of the given branch PCs.
    fn locked_ubtb_on(pcs: &[u64]) -> MicroBtb {
        let mut u = MicroBtb::new(UbtbConfig::m5());
        for _ in 0..64 {
            for &pc in pcs {
                let _ = u.predict(pc);
                u.update(pc, true, pc - 0x80, false, true);
            }
        }
        assert!(u.is_locked());
        u
    }

    /// Lock the µBTB on a two-branch kernel and return it.
    fn locked_ubtb() -> MicroBtb {
        locked_ubtb_on(&[0x4100, 0x4200])
    }

    /// Drive the kernel's two blocks through the UOC once.
    fn drive(uoc: &mut Uoc, ubtb: &mut MicroBtb) -> bool {
        let mut any = false;
        for (start, bpc) in [(0x4080u64, 0x4100u64), (0x4180, 0x4200)] {
            any |= uoc.on_block(start, bpc, 8, ubtb);
        }
        any
    }

    #[test]
    fn filter_waits_for_ubtb_lock() {
        let mut uoc = Uoc::new(UocConfig::default());
        let mut ubtb = MicroBtb::new(UbtbConfig::m5());
        assert!(!uoc.on_block(0x4080, 0x4100, 8, &mut ubtb));
        assert_eq!(uoc.mode(), UocMode::Filter);
    }

    #[test]
    fn full_filter_build_fetch_progression() {
        let mut uoc = Uoc::new(UocConfig::default());
        let mut ubtb = locked_ubtb();
        // First block observes the lock and enters BuildMode.
        drive(&mut uoc, &mut ubtb);
        assert_eq!(uoc.mode(), UocMode::Build);
        // Building: blocks allocate, built bits set, fetch edges accrue.
        for _ in 0..40 {
            drive(&mut uoc, &mut ubtb);
        }
        assert_eq!(uoc.mode(), UocMode::Fetch, "stats: {:?}", uoc.stats());
        // Fetching supplies µops.
        let supplied = drive(&mut uoc, &mut ubtb);
        assert!(supplied);
        assert!(uoc.stats().uops_supplied > 0);
        assert!(uoc.stats().promotions == 1);
    }

    #[test]
    fn eviction_clears_built_bits() {
        let mut cfg = UocConfig::default();
        cfg.capacity_uops = 16; // room for exactly two 8-µop blocks
        let mut uoc = Uoc::new(cfg);
        let mut ubtb = locked_ubtb_on(&[0x4100, 0x4200, 0x4300]);
        drive(&mut uoc, &mut ubtb); // -> Build
        drive(&mut uoc, &mut ubtb); // allocates both blocks (16 µops)
        assert_eq!(ubtb.built_bit(0x4100), Some(true));
        // Allocating a third block forces an eviction.
        uoc.on_block(0x4280, 0x4300, 8, &mut ubtb);
        assert!(uoc.stats().evictions >= 1);
        let cleared = [0x4100u64, 0x4200]
            .iter()
            .any(|&pc| ubtb.built_bit(pc) == Some(false));
        assert!(cleared, "an evicted block's built bit must clear");
    }

    #[test]
    fn fetch_mode_demotes_on_misses() {
        let mut uoc = Uoc::new(UocConfig::default());
        let mut ubtb = locked_ubtb();
        drive(&mut uoc, &mut ubtb);
        for _ in 0..40 {
            drive(&mut uoc, &mut ubtb);
        }
        assert_eq!(uoc.mode(), UocMode::Fetch);
        // Suddenly the code walks new blocks the UOC has never seen: the
        // miss ratio demotes FetchMode (the still-locked µBTB may promote
        // again later, but a demotion must have occurred).
        for i in 0..40u64 {
            uoc.on_block(0x9000 + i * 0x80, 0x9040 + i * 0x80, 8, &mut ubtb);
        }
        assert!(uoc.stats().demotions >= 1);
        assert_ne!(uoc.mode(), UocMode::Fetch);
    }

    #[test]
    fn build_timer_expiry_demotes() {
        let mut cfg = UocConfig::default();
        cfg.build_timer_limit = 8;
        cfg.min_edges = 1000; // promotion unreachable
        let mut uoc = Uoc::new(cfg);
        let mut ubtb = locked_ubtb();
        drive(&mut uoc, &mut ubtb);
        for _ in 0..10 {
            drive(&mut uoc, &mut ubtb);
        }
        // The timer expired at least once (Filter may immediately re-enter
        // Build because the µBTB is still locked).
        assert!(uoc.stats().demotions >= 1);
        assert_ne!(uoc.mode(), UocMode::Fetch);
    }

    #[test]
    fn squashed_build_when_block_already_resident() {
        let mut uoc = Uoc::new(UocConfig::default());
        let mut ubtb = locked_ubtb();
        drive(&mut uoc, &mut ubtb); // -> Build
        drive(&mut uoc, &mut ubtb); // allocate both
        // Clear the built bit behind the UOC's back (as an eviction of the
        // µBTB node would); the next build request finds the block present
        // and squashes.
        ubtb.set_built(0x4100, false);
        drive(&mut uoc, &mut ubtb);
        assert!(uoc.stats().squashed_builds >= 1);
        assert_eq!(ubtb.built_bit(0x4100), Some(true), "bit back-propagated");
    }

    #[test]
    fn inst_level_driver_closes_blocks_on_taken_branches() {
        let mut uoc = Uoc::new(UocConfig::default());
        let mut ubtb = locked_ubtb();
        // 3 µops then the taken branch at 0x4100.
        for pc in [0x40F4u64, 0x40F8, 0x40FC] {
            assert!(!uoc.on_inst(pc, false, false, false, &mut ubtb).unwrap());
        }
        let _ = uoc.on_inst(0x4100, true, true, false, &mut ubtb);
        // One block processed in Filter mode (observing the lock).
        assert_eq!(uoc.stats().filter_blocks, 1);
        assert_eq!(uoc.mode(), UocMode::Build);
    }
}

impl Uoc {
    /// Drop all cached blocks and return to FilterMode, keeping cumulative
    /// statistics (they describe the run, not the state) — the
    /// `stats() / clear() / snapshot` surface shared by the stateful
    /// components.
    pub fn clear(&mut self) {
        self.mode = UocMode::Filter;
        self.blocks.clear();
        self.used_uops = 0;
        self.build_edge = 0;
        self.fetch_edge = 0;
        self.build_timer = 0;
        self.stamp = 0;
        self.cur_block_start = None;
        self.cur_block_uops = 0;
        self.find_hint = 0;
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn mode_to_u8(m: UocMode) -> u8 {
        match m {
            UocMode::Filter => 0,
            UocMode::Build => 1,
            UocMode::Fetch => 2,
        }
    }

    fn mode_from_u8(v: u8) -> Result<UocMode, SnapshotError> {
        Ok(match v {
            0 => UocMode::Filter,
            1 => UocMode::Build,
            2 => UocMode::Fetch,
            _ => return Err(SnapshotError::Corrupt { what: "uoc mode tag" }),
        })
    }

    impl Snapshot for Uoc {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::UOC);
            enc.u8(mode_to_u8(self.mode));
            enc.seq(self.blocks.len());
            for b in &self.blocks {
                enc.u64(b.start);
                enc.u64(b.branch_pc);
                enc.u32(b.uops);
                enc.u64(b.lru);
            }
            enc.u32(self.used_uops);
            enc.u32(self.build_edge);
            enc.u32(self.fetch_edge);
            enc.u32(self.build_timer);
            enc.u64(self.stamp);
            match self.cur_block_start {
                Some(pc) => {
                    enc.u8(1);
                    enc.u64(pc);
                }
                None => enc.u8(0),
            }
            enc.u32(self.cur_block_uops);
            enc.u64(self.stats.filter_blocks);
            enc.u64(self.stats.build_blocks);
            enc.u64(self.stats.fetch_blocks);
            enc.u64(self.stats.uops_supplied);
            enc.u64(self.stats.builds);
            enc.u64(self.stats.evictions);
            enc.u64(self.stats.promotions);
            enc.u64(self.stats.demotions);
            enc.u64(self.stats.squashed_builds);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::UOC)?;
            self.mode = mode_from_u8(dec.u8()?)?;
            let n = dec.seq(28)?;
            self.blocks.clear();
            for _ in 0..n {
                self.blocks.push(UocBlock {
                    start: dec.u64()?,
                    branch_pc: dec.u64()?,
                    uops: dec.u32()?,
                    lru: dec.u64()?,
                });
            }
            self.used_uops = dec.u32()?;
            self.build_edge = dec.u32()?;
            self.fetch_edge = dec.u32()?;
            self.build_timer = dec.u32()?;
            self.stamp = dec.u64()?;
            self.cur_block_start = match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()?),
                _ => return Err(SnapshotError::Corrupt { what: "uoc current-block flag" }),
            };
            self.cur_block_uops = dec.u32()?;
            self.stats.filter_blocks = dec.u64()?;
            self.stats.build_blocks = dec.u64()?;
            self.stats.fetch_blocks = dec.u64()?;
            self.stats.uops_supplied = dec.u64()?;
            self.stats.builds = dec.u64()?;
            self.stats.evictions = dec.u64()?;
            self.stats.promotions = dec.u64()?;
            self.stats.demotions = dec.u64()?;
            self.stats.squashed_builds = dec.u64()?;
            // Hints are transient lookup accelerators, never part of the
            // architectural state: reset rather than serialize.
            self.find_hint = 0;
            dec.end_section()
        }
    }
}
