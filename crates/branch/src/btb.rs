//! The BTB hierarchy: main BTB (mBTB), virtual BTB (vBTB) and Level-2 BTB
//! (L2BTB).
//!
//! §IV.A/Fig. 2: "The main BTBs are organized into 8 sequential discovered
//! branches per 128B cacheline ... additional dense branches exceeding the
//! first 8 spill to a virtual-indexed vBTB at an additional access latency
//! cost." The L2BTB "retains learned information" (§IV), was doubled in M3
//! and doubled again in M4 with reduced fill latency and 2× fill bandwidth
//! (§IV.D), and M6 grew the mBTB by 50% (§IV.F).
//!
//! Indirect and return targets stored in these structures are encrypted
//! with the context's CONTEXT_HASH (§V) by the front end before insertion;
//! the BTB itself is oblivious to the cipher and just stores bits.

use crate::error::PredictorError;
use exynos_trace::BranchKind;

/// One discovered branch's BTB payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Branch PC this entry describes.
    pub pc: u64,
    /// Stored (possibly encrypted) predicted-taken target.
    pub target: u64,
    /// Control-flow class.
    pub kind: BranchKind,
    /// Local BIAS weight consulted (doubled) by the SHP sum.
    pub bias: i8,
    /// Set while the branch has never been observed not-taken (drives the
    /// always-taken SHP filter, 1AT early redirects and ZAT replication).
    pub always_taken: bool,
    /// Saturating taken-rate counter (0..=15) classifying often-taken
    /// branches for ZOT replication.
    pub taken_ctr: u8,
    /// ZAT/ZOT replication (§IV.E, Fig. 5): the (encrypted) target of the
    /// always/often-taken branch that follows this branch's own target,
    /// allowing a zero-bubble second redirect.
    pub replicated_next: Option<(u64, u64)>,
}

impl BtbEntry {
    /// A fresh entry for a newly discovered branch.
    pub fn discover(pc: u64, target: u64, kind: BranchKind, taken: bool) -> BtbEntry {
        BtbEntry {
            pc,
            target,
            kind,
            bias: if taken { 1 } else { -1 },
            always_taken: taken,
            taken_ctr: if taken { 8 } else { 7 },
            replicated_next: None,
        }
    }

    /// Record an executed direction, maintaining AT/OT classification.
    pub fn record_direction(&mut self, taken: bool) {
        if taken {
            self.taken_ctr = (self.taken_ctr + 1).min(15);
        } else {
            self.always_taken = false;
            self.taken_ctr = self.taken_ctr.saturating_sub(1);
        }
    }

    /// Whether ZOT replication considers this branch often-taken.
    pub fn is_often_taken(&self) -> bool {
        self.taken_ctr >= 14
    }
}

/// Where a lookup found its entry (drives bubble accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbHit {
    /// Found in the mBTB line (1–2 bubble path).
    Main,
    /// Found in the vBTB (extra access-latency bubble).
    Virtual,
    /// Found only in the L2BTB; entry was filled into the L1 (fill-latency
    /// bubbles apply).
    Level2,
}

/// Geometry of the BTB hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbConfig {
    /// mBTB lines (each covers 128 B and holds up to 8 branches).
    pub mbtb_lines: usize,
    /// mBTB set associativity.
    pub mbtb_ways: usize,
    /// vBTB entries (entry-granular, virtually indexed).
    pub vbtb_entries: usize,
    /// vBTB ways.
    pub vbtb_ways: usize,
    /// L2BTB entries.
    pub l2btb_entries: usize,
    /// L2BTB ways.
    pub l2btb_ways: usize,
    /// Bubbles charged when a taken-branch prediction was served by an
    /// L2BTB fill (reduced in M4).
    pub l2_fill_latency: u32,
    /// Entries moved per L2→L1 fill event (doubled in M4).
    pub l2_fill_bandwidth: usize,
}

impl BtbConfig {
    /// Branches per 128 B line before spilling to the vBTB.
    pub const SLOTS_PER_LINE: usize = 8;
}

/// One mBTB line: up to 8 discovered branches in a 128 B code window.
#[derive(Debug, Clone)]
struct Line {
    /// 128 B-aligned line address (`pc >> 7`); `u64::MAX` = invalid.
    line_addr: u64,
    slots: [Option<BtbEntry>; BtbConfig::SLOTS_PER_LINE],
    lru: u64,
}

impl Line {
    fn empty() -> Line {
        Line {
            line_addr: u64::MAX,
            slots: [None; BtbConfig::SLOTS_PER_LINE],
            lru: 0,
        }
    }
}

/// Entry-granular victim/spill store (used for both vBTB and L2BTB).
#[derive(Debug, Clone)]
struct EntryStore {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (every shipped geometry),
    /// letting `set_of` mask instead of divide; `None` keeps the modulo
    /// for exact non-power-of-two geometries.
    set_mask: Option<usize>,
    entries: Vec<Option<(BtbEntry, u64)>>, // (entry, lru stamp)
}

impl EntryStore {
    fn new(total: usize, ways: usize) -> EntryStore {
        let ways = ways.max(1);
        let sets = (total / ways).max(1);
        EntryStore {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            entries: vec![None; sets * ways],
        }
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        // Mix line and intra-line bits so branches 128 B apart spread over
        // the sets; modulo supports exact (non-power-of-two) geometries.
        let h = (pc >> 2) ^ (pc >> 7) ^ (pc >> 16);
        match self.set_mask {
            Some(mask) => h as usize & mask,
            None => h as usize % self.sets,
        }
    }

    #[inline]
    fn lookup(&mut self, pc: u64, stamp: u64) -> Option<BtbEntry> {
        let s = self.set_of(pc);
        for w in 0..self.ways {
            if let Some((e, lru)) = &mut self.entries[s * self.ways + w] {
                if e.pc == pc {
                    *lru = stamp;
                    return Some(*e);
                }
            }
        }
        None
    }

    fn update_in_place(&mut self, entry: BtbEntry) -> bool {
        let s = self.set_of(entry.pc);
        for w in 0..self.ways {
            if let Some((e, _)) = &mut self.entries[s * self.ways + w] {
                if e.pc == entry.pc {
                    *e = entry;
                    return true;
                }
            }
        }
        false
    }

    /// Insert, evicting LRU; returns the victim if one was displaced.
    fn insert(&mut self, entry: BtbEntry, stamp: u64) -> Option<BtbEntry> {
        if self.update_in_place(entry) {
            return None;
        }
        let s = self.set_of(entry.pc);
        let base = s * self.ways;
        // Free way?
        for w in 0..self.ways {
            if self.entries[base + w].is_none() {
                self.entries[base + w] = Some((entry, stamp));
                return None;
            }
        }
        // Evict LRU (every way is occupied here; an impossible empty way
        // sorts first and is simply reused).
        let victim_way = (0..self.ways)
            .min_by_key(|&w| self.entries[base + w].as_ref().map(|&(_, lru)| lru).unwrap_or(0))
            .unwrap_or(0);
        let victim = self.entries[base + victim_way].take().map(|(e, _)| e);
        self.entries[base + victim_way] = Some((entry, stamp));
        victim
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// Hit/miss/traffic statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Lookups that hit in the mBTB.
    pub main_hits: u64,
    /// Lookups that hit in the vBTB.
    pub virtual_hits: u64,
    /// Lookups served by an L2BTB fill.
    pub l2_hits: u64,
    /// Lookups that missed everywhere (branch discovery).
    pub misses: u64,
    /// Entries written back to the L2BTB on L1 eviction.
    pub l2_writebacks: u64,
    /// Lines looked up that contained no branch at all (Empty Line
    /// Optimization candidates, §IV.E).
    pub empty_line_lookups: u64,
}

/// The three-level BTB hierarchy.
#[derive(Debug, Clone)]
pub struct BtbHierarchy {
    cfg: BtbConfig,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two; `None` keeps the modulo
    /// for exact non-power-of-two geometries.
    line_mask: Option<usize>,
    lines: Vec<Line>,
    vbtb: EntryStore,
    l2btb: EntryStore,
    stamp: u64,
    stats: BtbStats,
}

impl BtbHierarchy {
    /// Build the hierarchy from `cfg`.
    ///
    /// # Panics
    /// Panics if any geometry field is zero.
    pub fn new(cfg: BtbConfig) -> BtbHierarchy {
        assert!(cfg.mbtb_lines > 0 && cfg.mbtb_ways > 0);
        assert!(cfg.vbtb_entries > 0 && cfg.l2btb_entries > 0);
        let sets = (cfg.mbtb_lines / cfg.mbtb_ways).max(1);
        BtbHierarchy {
            sets,
            line_mask: sets.is_power_of_two().then(|| sets - 1),
            lines: vec![Line::empty(); sets * cfg.mbtb_ways],
            vbtb: EntryStore::new(cfg.vbtb_entries, cfg.vbtb_ways),
            l2btb: EntryStore::new(cfg.l2btb_entries, cfg.l2btb_ways),
            cfg,
            stamp: 0,
            stats: BtbStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BtbConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    #[inline]
    fn set_of_line(&self, line_addr: u64) -> usize {
        let h = line_addr as usize ^ (line_addr >> 11) as usize;
        match self.line_mask {
            Some(mask) => h & mask,
            None => h % self.sets,
        }
    }

    #[inline]
    fn find_line(&mut self, line_addr: u64) -> Option<usize> {
        let s = self.set_of_line(line_addr);
        let base = s * self.cfg.mbtb_ways;
        (0..self.cfg.mbtb_ways)
            .map(|w| base + w)
            .find(|&i| self.lines[i].line_addr == line_addr)
    }

    /// Look up the branch at `pc`. On an L1 miss the L2BTB is probed and,
    /// on a hit there, the entry (plus up to `l2_fill_bandwidth - 1`
    /// neighbours from the same line) is filled into the L1.
    ///
    /// Scanning the line also validates it: an entry stored under a line
    /// whose address window does not contain its PC is detectable
    /// corruption (the parity-check analog) and returns a typed
    /// [`PredictorError`] instead of a bogus prediction.
    pub fn lookup(&mut self, pc: u64) -> Result<Option<(BtbEntry, BtbHit)>, PredictorError> {
        self.stamp += 1;
        let line_addr = pc >> 7;
        if let Some(li) = self.find_line(line_addr) {
            self.lines[li].lru = self.stamp;
            // One pass over the line's slots: validate every tag, note
            // whether the line holds any branch at all, and pick up the
            // PC match. The first bad tag still wins over a hit, exactly
            // as with the separate validation scan.
            let mut occupied = false;
            let mut hit: Option<BtbEntry> = None;
            for e in self.lines[li].slots.iter().flatten() {
                if e.pc >> 7 != line_addr {
                    return Err(PredictorError::BtbTagMismatch {
                        slot_pc: e.pc,
                        line_addr,
                    });
                }
                occupied = true;
                if hit.is_none() && e.pc == pc {
                    hit = Some(*e);
                }
            }
            if !occupied {
                self.stats.empty_line_lookups += 1;
            }
            if let Some(e) = hit {
                self.stats.main_hits += 1;
                return Ok(Some((e, BtbHit::Main)));
            }
        }
        if let Some(e) = self.vbtb.lookup(pc, self.stamp) {
            self.stats.virtual_hits += 1;
            return Ok(Some((e, BtbHit::Virtual)));
        }
        if let Some(e) = self.l2btb.lookup(pc, self.stamp) {
            self.stats.l2_hits += 1;
            // Fill into the L1 (and pull sibling entries of the same 128 B
            // line up to the configured fill bandwidth).
            self.install(e);
            let mut pulled = 1;
            if self.cfg.l2_fill_bandwidth > 1 {
                let sibs = self.l2_line_siblings(pc);
                for sib in sibs {
                    if pulled >= self.cfg.l2_fill_bandwidth {
                        break;
                    }
                    self.install(sib);
                    pulled += 1;
                }
            }
            return Ok(Some((e, BtbHit::Level2)));
        }
        self.stats.misses += 1;
        Ok(None)
    }

    fn l2_line_siblings(&mut self, pc: u64) -> Vec<BtbEntry> {
        let line = pc >> 7;
        let stamp = self.stamp;
        // An entry always lives in the set its own PC hashes to, and the
        // hash only depends on pc >> 2 within a line, so a 128 B line can
        // reach at most 32 distinct sets. Probing just those (in ascending
        // set order, hence ascending slot order) visits every possible
        // sibling in the same order the old full-store scan did, without
        // walking all the L2BTB entries.
        let mut sets = [0usize; 32];
        for (k, s) in sets.iter_mut().enumerate() {
            *s = self.l2btb.set_of((line << 7) | ((k as u64) << 2));
        }
        sets.sort_unstable();
        let mut out = Vec::new();
        let mut prev = usize::MAX;
        for &s in &sets {
            if s == prev {
                continue;
            }
            prev = s;
            let base = s * self.l2btb.ways;
            for slot in self.l2btb.entries[base..base + self.l2btb.ways].iter_mut() {
                if let Some((e, lru)) = slot {
                    if e.pc >> 7 == line && e.pc != pc {
                        *lru = stamp;
                        out.push(*e);
                    }
                }
            }
        }
        out
    }

    /// Install (allocate or update) an entry in the L1, spilling dense
    /// lines to the vBTB and evictions to the L2BTB.
    pub fn install(&mut self, entry: BtbEntry) {
        self.stamp += 1;
        let line_addr = entry.pc >> 7;
        let li = match self.find_line(line_addr) {
            Some(li) => li,
            None => {
                // Allocate a line, evicting the LRU way; evicted branches
                // retire to the L2BTB (retention).
                let s = self.set_of_line(line_addr);
                let base = s * self.cfg.mbtb_ways;
                let victim = (0..self.cfg.mbtb_ways)
                    .map(|w| base + w)
                    .min_by_key(|&i| {
                        if self.lines[i].line_addr == u64::MAX {
                            0
                        } else {
                            self.lines[i].lru.max(1)
                        }
                    })
                    .unwrap_or(base);
                let old = std::mem::replace(&mut self.lines[victim], Line::empty());
                if old.line_addr != u64::MAX {
                    for e in old.slots.into_iter().flatten() {
                        self.stats.l2_writebacks += 1;
                        self.l2btb.insert(e, self.stamp);
                    }
                }
                self.lines[victim].line_addr = line_addr;
                victim
            }
        };
        self.lines[li].lru = self.stamp;
        // Update in place if the branch is already present.
        if let Some(slot) = self.lines[li]
            .slots
            .iter_mut()
            .flatten()
            .find(|e| e.pc == entry.pc)
        {
            *slot = entry;
            return;
        }
        // Free slot in the line?
        if let Some(slot) = self.lines[li].slots.iter_mut().find(|s| s.is_none()) {
            *slot = Some(entry);
            return;
        }
        // Dense line: spill to the vBTB; vBTB victims retire to the L2BTB.
        if self.vbtb.lookup(entry.pc, self.stamp).is_some() {
            self.vbtb.update_in_place(entry);
            return;
        }
        if let Some(victim) = self.vbtb.insert(entry, self.stamp) {
            self.stats.l2_writebacks += 1;
            self.l2btb.insert(victim, self.stamp);
        }
    }

    /// Side-effect-free probe: find the entry for `pc` without touching
    /// LRU state, statistics, or triggering L2 fills. Used by maintenance
    /// paths (e.g. ZAT/ZOT replication learning) that must not perturb the
    /// timing-visible state.
    pub fn probe(&self, pc: u64) -> Option<BtbEntry> {
        let line_addr = pc >> 7;
        let s = self.set_of_line(line_addr);
        let base = s * self.cfg.mbtb_ways;
        for w in 0..self.cfg.mbtb_ways {
            let line = &self.lines[base + w];
            if line.line_addr == line_addr {
                if let Some(e) = line.slots.iter().flatten().find(|e| e.pc == pc) {
                    return Some(*e);
                }
            }
        }
        let vs = self.vbtb.set_of(pc);
        for w in 0..self.vbtb.ways {
            if let Some((e, _)) = &self.vbtb.entries[vs * self.vbtb.ways + w] {
                if e.pc == pc {
                    return Some(*e);
                }
            }
        }
        None
    }

    /// Update an existing entry wherever it currently lives (used for
    /// direction-counter and replication maintenance without changing
    /// residency).
    pub fn update_entry(&mut self, entry: BtbEntry) {
        let line_addr = entry.pc >> 7;
        if let Some(li) = self.find_line(line_addr) {
            if let Some(slot) = self.lines[li]
                .slots
                .iter_mut()
                .flatten()
                .find(|e| e.pc == entry.pc)
            {
                *slot = entry;
                return;
            }
        }
        if self.vbtb.update_in_place(entry) {
            return;
        }
        self.l2btb.update_in_place(entry);
    }

    /// Fault-injection hook: flip bits in the stored target of one
    /// resident mBTB entry (chosen deterministically from `salt`). Target
    /// corruption is *not* detectable by the tag check — it models a soft
    /// error the predictor can only recover from by mispredicting and
    /// retraining. Returns whether an entry was corrupted.
    pub fn corrupt_target(&mut self, salt: u64) -> bool {
        let n = self.lines.len();
        for k in 0..n {
            let line = &mut self.lines[(salt as usize + k) % n];
            if line.line_addr == u64::MAX {
                continue;
            }
            if let Some(e) = line.slots.iter_mut().flatten().next() {
                e.target ^= 0x40 ^ (salt & 0xFFF0);
                return true;
            }
        }
        false
    }

    /// Fault-injection hook: corrupt the PC tag of one resident mBTB
    /// entry so it no longer belongs to its line's 128 B window. Unlike
    /// [`BtbHierarchy::corrupt_target`], this *is* detectable — the next
    /// [`BtbHierarchy::lookup`] of the line reports a
    /// [`PredictorError::BtbTagMismatch`]. Returns whether an entry was
    /// corrupted.
    pub fn corrupt_tag(&mut self, salt: u64) -> bool {
        let n = self.lines.len();
        for k in 0..n {
            let line = &mut self.lines[(salt as usize + k) % n];
            if line.line_addr == u64::MAX {
                continue;
            }
            if let Some(e) = line.slots.iter_mut().flatten().next() {
                e.pc ^= 1 << (7 + (salt % 8));
                return true;
            }
        }
        false
    }

    /// Current number of valid entries in (mBTB, vBTB, L2BTB).
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let main = self
            .lines
            .iter()
            .map(|l| l.slots.iter().flatten().count())
            .sum();
        (main, self.vbtb.occupancy(), self.l2btb.occupancy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> BtbConfig {
        BtbConfig {
            mbtb_lines: 16,
            mbtb_ways: 4,
            vbtb_entries: 16,
            vbtb_ways: 4,
            l2btb_entries: 128,
            l2btb_ways: 4,
            l2_fill_latency: 4,
            l2_fill_bandwidth: 1,
        }
    }

    fn entry(pc: u64) -> BtbEntry {
        BtbEntry::discover(pc, pc + 0x100, BranchKind::CondDirect, true)
    }

    #[test]
    fn install_then_hit_main() {
        let mut b = BtbHierarchy::new(cfg_small());
        b.install(entry(0x4000));
        let (e, hit) = b.lookup(0x4000).unwrap().unwrap();
        assert_eq!(hit, BtbHit::Main);
        assert_eq!(e.target, 0x4100);
        assert_eq!(b.stats().main_hits, 1);
    }

    #[test]
    fn miss_returns_none() {
        let mut b = BtbHierarchy::new(cfg_small());
        assert!(b.lookup(0x9000).unwrap().is_none());
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn ninth_branch_in_line_spills_to_vbtb() {
        let mut b = BtbHierarchy::new(cfg_small());
        // 9 branches in the same 128 B line.
        for i in 0..9u64 {
            b.install(entry(0x4000 + i * 4));
        }
        let mut hits = Vec::new();
        for i in 0..9u64 {
            let (_, h) = b.lookup(0x4000 + i * 4).unwrap().unwrap();
            hits.push(h);
        }
        assert_eq!(hits.iter().filter(|&&h| h == BtbHit::Main).count(), 8);
        assert_eq!(hits.iter().filter(|&&h| h == BtbHit::Virtual).count(), 1);
    }

    #[test]
    fn evicted_lines_retire_to_l2_and_refill() {
        let mut b = BtbHierarchy::new(cfg_small());
        // Far more lines than the mBTB holds (16 lines): 64 distinct lines.
        for i in 0..64u64 {
            b.install(entry(0x4000 + i * 128));
        }
        assert!(b.stats().l2_writebacks > 0);
        // Early lines were evicted; a lookup must be served by L2 fill.
        let (_, h) = b.lookup(0x4000).unwrap().unwrap();
        assert_eq!(h, BtbHit::Level2);
        // And is now resident in L1.
        let (_, h2) = b.lookup(0x4000).unwrap().unwrap();
        assert_eq!(h2, BtbHit::Main);
    }

    #[test]
    fn fill_bandwidth_pulls_line_siblings() {
        let mut cfg = cfg_small();
        cfg.l2_fill_bandwidth = 4;
        let mut b = BtbHierarchy::new(cfg);
        // Two branches in one line, then thrash the L1 away.
        b.install(entry(0x4000));
        b.install(entry(0x4008));
        for i in 1..64u64 {
            b.install(entry(0x4000 + i * 128));
        }
        let (_, h) = b.lookup(0x4000).unwrap().unwrap();
        assert_eq!(h, BtbHit::Level2);
        // The sibling came along with the fill.
        let (_, h2) = b.lookup(0x4008).unwrap().unwrap();
        assert_eq!(h2, BtbHit::Main, "sibling should have been filled too");
    }

    #[test]
    fn direction_counters_classify_at_and_ot() {
        let mut e = entry(0x4000);
        assert!(e.always_taken);
        for _ in 0..8 {
            e.record_direction(true);
        }
        assert!(e.always_taken && e.is_often_taken());
        e.record_direction(false);
        assert!(!e.always_taken);
        assert!(e.is_often_taken());
        for _ in 0..8 {
            e.record_direction(false);
        }
        assert!(!e.is_often_taken());
    }

    #[test]
    fn update_entry_preserves_residency() {
        let mut b = BtbHierarchy::new(cfg_small());
        let mut e = entry(0x4000);
        b.install(e);
        e.bias = 42;
        b.update_entry(e);
        let (got, hit) = b.lookup(0x4000).unwrap().unwrap();
        assert_eq!(hit, BtbHit::Main);
        assert_eq!(got.bias, 42);
    }

    #[test]
    fn occupancy_tracks_installs() {
        let mut b = BtbHierarchy::new(cfg_small());
        for i in 0..10u64 {
            b.install(entry(0x4000 + i * 4));
        }
        let (m, v, _) = b.occupancy();
        assert_eq!(m + v, 10);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn kind_to_u8(k: BranchKind) -> u8 {
        match k {
            BranchKind::CondDirect => 0,
            BranchKind::UncondDirect => 1,
            BranchKind::DirectCall => 2,
            BranchKind::IndirectJump => 3,
            BranchKind::IndirectCall => 4,
            BranchKind::Return => 5,
        }
    }

    fn kind_from_u8(v: u8) -> Result<BranchKind, SnapshotError> {
        Ok(match v {
            0 => BranchKind::CondDirect,
            1 => BranchKind::UncondDirect,
            2 => BranchKind::DirectCall,
            3 => BranchKind::IndirectJump,
            4 => BranchKind::IndirectCall,
            5 => BranchKind::Return,
            _ => return Err(SnapshotError::Corrupt { what: "btb branch-kind tag" }),
        })
    }

    fn save_entry(enc: &mut Encoder, e: &BtbEntry) {
        enc.u64(e.pc);
        enc.u64(e.target);
        enc.u8(kind_to_u8(e.kind));
        enc.i8(e.bias);
        enc.bool(e.always_taken);
        enc.u8(e.taken_ctr);
        match e.replicated_next {
            Some((pc, tgt)) => {
                enc.u8(1);
                enc.u64(pc);
                enc.u64(tgt);
            }
            None => enc.u8(0),
        }
    }

    fn load_entry(dec: &mut Decoder<'_>) -> Result<BtbEntry, SnapshotError> {
        Ok(BtbEntry {
            pc: dec.u64()?,
            target: dec.u64()?,
            kind: kind_from_u8(dec.u8()?)?,
            bias: dec.i8()?,
            always_taken: dec.bool()?,
            taken_ctr: dec.u8()?,
            replicated_next: match dec.u8()? {
                0 => None,
                1 => Some((dec.u64()?, dec.u64()?)),
                _ => return Err(SnapshotError::Corrupt { what: "btb replicated-next flag" }),
            },
        })
    }

    fn save_opt_entry(enc: &mut Encoder, slot: &Option<BtbEntry>) {
        match slot {
            Some(e) => {
                enc.u8(1);
                save_entry(enc, e);
            }
            None => enc.u8(0),
        }
    }

    fn load_opt_entry(dec: &mut Decoder<'_>) -> Result<Option<BtbEntry>, SnapshotError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(load_entry(dec)?)),
            _ => Err(SnapshotError::Corrupt { what: "btb slot presence flag" }),
        }
    }

    fn save_store(enc: &mut Encoder, s: &EntryStore) {
        enc.seq(s.entries.len());
        for slot in &s.entries {
            match slot {
                Some((e, lru)) => {
                    enc.u8(1);
                    save_entry(enc, e);
                    enc.u64(*lru);
                }
                None => enc.u8(0),
            }
        }
    }

    fn load_store(dec: &mut Decoder<'_>, s: &mut EntryStore) -> Result<(), SnapshotError> {
        let n = dec.seq(1)?;
        if n != s.entries.len() {
            return Err(SnapshotError::Geometry {
                what: "btb entry store",
                expected: s.entries.len() as u64,
                found: n as u64,
            });
        }
        for slot in &mut s.entries {
            *slot = match dec.u8()? {
                0 => None,
                1 => Some((load_entry(dec)?, dec.u64()?)),
                _ => return Err(SnapshotError::Corrupt { what: "btb store presence flag" }),
            };
        }
        Ok(())
    }

    impl Snapshot for BtbHierarchy {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::BTB);
            enc.seq(self.lines.len());
            for line in &self.lines {
                enc.u64(line.line_addr);
                for slot in &line.slots {
                    save_opt_entry(enc, slot);
                }
                enc.u64(line.lru);
            }
            save_store(enc, &self.vbtb);
            save_store(enc, &self.l2btb);
            enc.u64(self.stamp);
            enc.u64(self.stats.main_hits);
            enc.u64(self.stats.virtual_hits);
            enc.u64(self.stats.l2_hits);
            enc.u64(self.stats.misses);
            enc.u64(self.stats.l2_writebacks);
            enc.u64(self.stats.empty_line_lookups);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::BTB)?;
            let n = dec.seq(1)?;
            if n != self.lines.len() {
                return Err(SnapshotError::Geometry {
                    what: "mbtb lines",
                    expected: self.lines.len() as u64,
                    found: n as u64,
                });
            }
            for line in &mut self.lines {
                line.line_addr = dec.u64()?;
                for slot in &mut line.slots {
                    *slot = load_opt_entry(dec)?;
                }
                line.lru = dec.u64()?;
            }
            load_store(dec, &mut self.vbtb)?;
            load_store(dec, &mut self.l2btb)?;
            self.stamp = dec.u64()?;
            self.stats.main_hits = dec.u64()?;
            self.stats.virtual_hits = dec.u64()?;
            self.stats.l2_hits = dec.u64()?;
            self.stats.misses = dec.u64()?;
            self.stats.l2_writebacks = dec.u64()?;
            self.stats.empty_line_lookups = dec.u64()?;
            dec.end_section()
        }
    }
}
