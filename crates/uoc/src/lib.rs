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
            build_to_fetch_ratio: 3,
            min_edges: 16,
            build_timer_limit: 2048,
            fetch_miss_percent: 25,
        }
    }
}

/// One cached basic block.
#[derive(Debug, Clone, Copy, Default)]
struct UocBlock {
    /// Block start PC (tag).
    start: u64,
    /// Terminating branch PC (built-bit owner in the µBTB).
    branch_pc: u64,
    uops: u32,
    lru: u64,
}

exynos_telemetry::counters! {
    /// Aggregate UOC statistics (power/effectiveness proxies).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct UocStats in "uoc.cache" {
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
    /// Why [`Uoc::new`] would reject `cfg`, if it would.
    pub fn defect(cfg: &UocConfig) -> Option<String> {
        (cfg.capacity_uops == 0).then(|| "a zero-µop UOC holds no block".into())
    }

    /// Build a UOC from `cfg`.
    ///
    /// # Panics
    /// Panics if [`Uoc::defect`] rejects `cfg`.
    pub fn new(cfg: UocConfig) -> Uoc {
        let defect = Uoc::defect(&cfg);
        assert!(defect.is_none(), "UOC: {defect:?}");
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
        // A block holds at least its closing branch.
        let uops = uops.clamp(1, self.cfg.capacity_uops);
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
    /// *closing* block was supplied by the UOC.
    #[inline]
    pub fn on_inst(
        &mut self,
        pc: u64,
        is_branch: bool,
        taken: bool,
        block_broken: bool,
        ubtb: &mut MicroBtb,
    ) -> bool {
        if block_broken {
            self.cur_block_start = None;
            self.cur_block_uops = 0;
        }
        let start = *self.cur_block_start.get_or_insert(pc);
        self.cur_block_uops += 1;
        if is_branch && taken {
            self.cur_block_start = None;
            let uops = std::mem::take(&mut self.cur_block_uops);
            return self.on_block(start, pc, uops, ubtb);
        }
        // Very long fall-through regions close blocks at fetch width too,
        // but those are uninteresting to the UOC filter; cap block size.
        if self.cur_block_uops >= 64 {
            self.cur_block_start = None;
            self.cur_block_uops = 0;
        }
        false
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
            assert!(!uoc.on_inst(pc, false, false, false, &mut ubtb));
        }
        let _ = uoc.on_inst(0x4100, true, true, false, &mut ubtb);
        // One block processed in Filter mode (observing the lock).
        assert_eq!(uoc.stats().filter_blocks, 1);
        assert_eq!(uoc.mode(), UocMode::Build);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{codes, layout, tags, SnapshotError};

    codes! {
        ModeCode: UocMode as u8, "uoc mode tag" { Filter = 0, Build = 1, Fetch = 2 }
    }

    // Every block holds at least one µop (`allocate` clamps to
    // `1..=capacity_uops`) and the blocks' µops never exceed
    // `capacity_uops`, so a live UOC holds at most `capacity_uops` blocks.
    layout! {
        Uoc [tags::UOC] |s| {
            mode: Via(ModeCode),
            blocks: Bounded(s.cfg.capacity_uops as usize, "uoc blocks"),
            used_uops, build_edge, fetch_edge, build_timer, stamp, cur_block_start,
            cur_block_uops, stats,
        } then reset_find_hint
    }
    layout! { UocBlock { start, branch_pc, uops, lru } }

    impl Uoc {
        /// Hints are transient lookup accelerators, never part of the
        /// architectural state: reset rather than serialize.
        fn reset_find_hint(&mut self) -> Result<(), SnapshotError> {
            self.find_hint = 0;
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};

        /// A live UOC holds at most `capacity_uops` blocks, so an image
        /// with one more cannot come from a run.
        #[test]
        fn over_capacity_blocks_is_geometry() {
            let cfg = UocConfig { capacity_uops: 16, ..UocConfig::default() };
            for extra in [0u64, 1] {
                let mut uoc = Uoc::new(cfg.clone());
                for b in 0..16 + extra {
                    let (start, branch_pc) = (b * 64, b * 64 + 60);
                    uoc.blocks.push(UocBlock { start, branch_pc, uops: 1, lru: b });
                }
                let mut enc = Encoder::new();
                uoc.save(&mut enc);
                let bytes = enc.finish();
                let got = Uoc::new(cfg.clone()).restore(&mut Decoder::new(&bytes));
                let want = if extra == 0 {
                    Ok(())
                } else {
                    Err(SnapshotError::Geometry { what: "uoc blocks", expected: 16, found: 17 })
                };
                assert_eq!(got, want);
            }
        }
    }
}
