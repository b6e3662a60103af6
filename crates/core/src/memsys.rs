//! The composed memory system: L1I/L1D → L2 → (exclusive) L3 → DRAM, with
//! TLBs, MAB occupancy, every prefetch engine of §VII–§VIII, and the §IX
//! latency features (fast path, speculative read, early page activate).
//!
//! Timing is call-tree based: a demand load returns the cycle its data is
//! available, with in-flight-miss limits (MABs), DRAM bank conflicts and
//! prefetch bandwidth effects folded in through shared state.

use crate::config::CoreConfig;
use crate::error::SimError;
use exynos_dram::{MemoryController, SnoopFilter, SpecDecision, SpecReadController};
use exynos_mem::{
    AccessKind, Cache, InsertPriority, LineMeta, MissBuffers, TlbHierarchy, Victims, LINE_BYTES,
};
use exynos_prefetch::{
    BuddyPrefetcher, L1Prefetcher, L1PrefetchRequest, PassMode, StandalonePrefetcher,
    TwoPassController,
};
use std::collections::VecDeque;

/// Buddy-filled lines tracked for usefulness; the oldest is dropped first.
const BUDDY_WINDOW: usize = 64;

/// The level that served a demand which missed the L1.
#[derive(Debug, Clone, Copy)]
enum Served {
    L2,
    L3,
    Dram,
}

exynos_telemetry::counters! {
    /// Aggregate memory-system statistics.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct MemStats in "core.mem" {
        /// Demand loads served.
        pub loads: u64,
        /// Demand stores served.
        pub stores: u64,
        /// Loads hitting the L1D.
        pub l1_hits: u64,
        /// Loads served by the L2.
        pub l2_hits: u64,
        /// Loads served by the L3.
        pub l3_hits: u64,
        /// Loads served by DRAM.
        pub dram_loads: u64,
        /// Sum of load-to-use latencies (cycles).
        pub total_load_latency: u64,
        /// Load stalls waiting for a free MAB.
        pub mab_stalls: u64,
        /// L1 prefetch fills completed.
        pub l1_prefetch_fills: u64,
        /// Buddy prefetch fills into the L2.
        pub buddy_fills: u64,
        /// Standalone prefetch fills into the L2.
        pub standalone_fills: u64,
        /// Speculative DRAM reads that saved the tag-check serialization.
        pub spec_read_wins: u64,
        /// Instruction fetches that missed the L1I.
        pub icache_misses: u64,
    } derived(avg_load_latency)
}

impl MemStats {
    /// Average demand-load latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.total_load_latency as f64 / self.loads as f64
        }
    }
}

/// The composed per-generation memory system.
#[derive(Debug, Clone)]
pub struct MemSystem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    tlb: TlbHierarchy,
    mabs: MissBuffers,
    l1pf: L1Prefetcher,
    twopass: TwoPassController,
    buddy: Option<BuddyPrefetcher>,
    /// Lines recently brought in by the buddy prefetcher (usefulness
    /// tracking), 64 B line addresses.
    buddy_lines: VecDeque<u64>,
    standalone: Option<StandalonePrefetcher>,
    spec: SpecReadController,
    snoop: SnoopFilter,
    dram: MemoryController,
    l1_hit_lat: u32,
    l1_cascade_lat: u32,
    stats: MemStats,
    /// Reused line-address buffer for prefetcher output (taken with
    /// `mem::take` around each use so per-access allocations disappear
    /// from the step loop).
    scratch_lines: Vec<u64>,
    /// Reused L1-prefetch-request buffer, same discipline.
    scratch_reqs: Vec<L1PrefetchRequest>,
}

impl MemSystem {
    /// Build the memory system for `cfg`.
    pub fn new(cfg: &CoreConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(cfg.mem.l1i),
            l1d: Cache::new(cfg.mem.l1d),
            l2: Cache::new(cfg.mem.l2),
            l3: cfg.mem.l3.map(Cache::new),
            tlb: TlbHierarchy::new(&cfg.mem.tlb),
            mabs: MissBuffers::new(cfg.mem.miss_buffers),
            l1pf: L1Prefetcher::new(&cfg.l1_prefetch),
            twopass: TwoPassController::standard(),
            buddy: cfg.buddy.then(BuddyPrefetcher::new),
            buddy_lines: VecDeque::new(),
            standalone: cfg.standalone.clone().map(StandalonePrefetcher::new),
            spec: SpecReadController::new(cfg.spec_read),
            snoop: SnoopFilter::new(65536, 8),
            dram: MemoryController::new(cfg.dram.clone()),
            l1_hit_lat: cfg.mem.l1d.latency,
            l1_cascade_lat: cfg.lat.l1_cascade,
            stats: MemStats::default(),
            scratch_lines: Vec::new(),
            scratch_reqs: Vec::new(),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// L1 prefetcher access (for reporting).
    pub fn l1_prefetcher(&self) -> &L1Prefetcher {
        &self.l1pf
    }

    /// Two-pass controller access (for reporting).
    pub fn twopass(&self) -> &TwoPassController {
        &self.twopass
    }

    /// Buddy prefetcher stats (zeroes when absent).
    pub fn buddy_stats(&self) -> exynos_prefetch::buddy::BuddyStats {
        self.buddy.as_ref().map(|b| b.stats()).unwrap_or_default()
    }

    /// Standalone prefetcher stats (zeroes when absent).
    pub fn standalone_stats(&self) -> exynos_prefetch::standalone::StandaloneStats {
        self.standalone.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Speculative-read stats.
    pub fn spec_stats(&self) -> exynos_dram::SpecReadStats {
        self.spec.stats()
    }

    /// DRAM stats.
    pub fn dram_stats(&self) -> exynos_dram::DramStats {
        self.dram.stats()
    }

    /// L1D array stats.
    pub fn l1d_stats(&self) -> exynos_mem::CacheStats {
        self.l1d.stats()
    }

    /// L2 array stats.
    pub fn l2_stats(&self) -> exynos_mem::CacheStats {
        self.l2.stats()
    }

    /// L3 array stats (zeroes when absent).
    pub fn l3_stats(&self) -> exynos_mem::CacheStats {
        self.l3.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Residency of `addr`'s line in (L1D, L2, L3) — side-effect-free,
    /// for invariant checking (the L3 must stay exclusive of the L2).
    pub fn line_residency(&self, addr: u64) -> (bool, bool, bool) {
        (
            self.l1d.probe(addr),
            self.l2.probe(addr),
            self.l3.as_ref().map(|c| c.probe(addr)).unwrap_or(false),
        )
    }

    // ------------------------------------------------------------------
    // Inner-level plumbing
    // ------------------------------------------------------------------

    /// Install `addr`'s line in the L2, dirty if `dirty`, and send on what
    /// it displaces. A victim first settles its prefetcher bookkeeping,
    /// then takes the coordinated castout policy into the exclusive L3
    /// (§VIII.A): reuse ≥ 2 → elevated; demanded or dirty → ordinary;
    /// never-reused (or pure second-pass) lines bypass the L3. This is the
    /// one place a line leaves the model: a bypassed victim, an L3 victim,
    /// and on M1/M2 every L2 victim.
    fn fill_l2(&mut self, addr: u64, kind: AccessKind, meta: LineMeta, dirty: bool, prio: InsertPriority) {
        for v in self.l2.fill(addr, kind, meta, dirty, prio) {
            // Buddy usefulness: a buddy-brought line evicted without a
            // demand hit was wasted bandwidth.
            if let Some(pos) = self.buddy_lines.iter().position(|&l| l == v.addr / LINE_BYTES) {
                self.buddy_lines.remove(pos);
                if let Some(b) = &mut self.buddy {
                    if v.meta.demand_hit {
                        b.on_buddy_used();
                    } else {
                        b.on_buddy_wasted();
                    }
                }
            }
            if v.meta.prefetched {
                if let Some(sp) = &mut self.standalone {
                    sp.on_prefetch_outcome(v.meta.demand_hit);
                }
            }
            // Observed reuse (L2 hits / L3 re-allocations) earns the
            // elevated state; demanded lines allocate ordinarily;
            // prefetched-but-never-demanded lines (dead prefetches, incl.
            // second-pass fills) bypass the L3 entirely so transient
            // streams don't wash it out.
            let castout = if v.meta.reuse >= 2 {
                InsertPriority::Elevated
            } else if v.meta.demand_hit || v.dirty {
                InsertPriority::Ordinary
            } else {
                InsertPriority::Bypass
            };
            let (evicted, bypassed) = match &mut self.l3 {
                Some(l3) if castout != InsertPriority::Bypass => {
                    (l3.fill(v.addr, AccessKind::Writeback, v.meta, v.dirty, castout), None)
                }
                _ => (Victims::default(), Some(v)),
            };
            for gone in evicted.into_iter().chain(bypassed) {
                self.snoop.remove(gone.addr / LINE_BYTES);
            }
        }
    }

    /// Bring the line of a demand that missed the L1 to the L2. Returns
    /// the cycle its data is at the L2 and the level that served it.
    /// Handles L3 exclusivity, DRAM, the §IX features, buddy + standalone
    /// prefetch hooks.
    fn fetch_to_l2(&mut self, pc: u64, addr: u64, now: u64) -> (u64, Served) {
        let line = addr / LINE_BYTES;
        let l2_lat = self.l2.config().latency as u64;
        // Standalone prefetcher observes the L2-level demand stream.
        if self.standalone.is_some() {
            let mut standalone_pf = std::mem::take(&mut self.scratch_lines);
            if let Some(sp) = &mut self.standalone {
                sp.on_l2_access_into(line, true, &mut standalone_pf);
            }
            for &pf_line in &standalone_pf {
                self.background_fill_l2(pf_line * LINE_BYTES, now, AccessKind::Prefetch);
                self.stats.standalone_fills += 1;
            }
            self.scratch_lines = standalone_pf;
        }
        // Speculative read decision happens in parallel with the L2 tags.
        let spec = self.spec.decide(pc, line, &self.snoop);
        // L2 tags.
        if let Some(m) = self.l2.access(addr, AccessKind::Demand) {
            // Buddy usefulness: first demand touch of a buddy line.
            if m.prefetched && !m.demand_hit {
                if let Some(pos) = self.buddy_lines.iter().position(|&l| l == line) {
                    self.buddy_lines.remove(pos);
                    if let Some(b) = &mut self.buddy {
                        b.on_buddy_used();
                    }
                } else if let Some(sp) = &mut self.standalone {
                    sp.on_prefetch_outcome(true);
                }
            }
            self.spec.resolve(pc, spec, true);
            return (now + l2_lat, Served::L2);
        }
        // L2 demand miss: the early page-activate hint fires as soon as
        // the read is classified latency-critical (§IX) — ahead of the
        // buddy prefetch and the L3 tag check.
        self.dram.activate_hint(addr, now);
        // Buddy prefetch of the neighbour sector.
        let buddy_req = match &mut self.buddy {
            Some(b) => b.on_l2_demand_miss(addr, self.l2.buddy_valid(addr)),
            None => None,
        };
        if let Some(baddr) = buddy_req {
            // The buddy request flows the ordinary (tag-checked) path
            // to memory — it does not get the latency-critical bypass.
            let l3_lat = self.l3.as_ref().map(|c| c.config().latency as u64).unwrap_or(0);
            self.background_fill_l2(baddr, now + l3_lat, AccessKind::Prefetch);
            self.buddy_lines.push_back(baddr / LINE_BYTES);
            if self.buddy_lines.len() > BUDDY_WINDOW {
                self.buddy_lines.pop_front();
            }
            self.stats.buddy_fills += 1;
        }
        // L3 (exclusive) tags, checked after the L2.
        let l3_swap = self.l3.as_mut().and_then(|l3| {
            let (mut meta, dirty) = l3.access_and_take(addr, AccessKind::Demand)?;
            if !meta.second_pass {
                meta.reuse = meta.reuse.saturating_add(1).min(3);
            }
            Some((meta, dirty, l3.config().latency as u64))
        });
        if let Some((meta, dirty, l3_lat)) = l3_swap {
            // Exclusive swap: line moves L3 → L2, reuse credited
            // ("subsequent re-allocation from L3").
            self.fill_l2(addr, AccessKind::Demand, meta, dirty, InsertPriority::Elevated);
            self.spec.resolve(pc, spec, true);
            return (now + l2_lat + l3_lat, Served::L3);
        }
        // Full miss: DRAM (the activate hint already fired at L2-miss
        // classification); the read launches after the (possibly bypassed)
        // tag checks.
        let l3_lat = self.l3.as_ref().map(|c| c.config().latency as u64).unwrap_or(0);
        let launch = match spec {
            SpecDecision::Speculate => {
                self.stats.spec_read_wins += 1;
                now
            }
            _ => now + l2_lat + l3_lat,
        };
        let done = self.dram.read(addr, launch);
        self.spec.resolve(pc, spec, false);
        // Fill the L2 (the L3 stays out of the way: exclusive).
        self.fill_l2(addr, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        self.snoop.insert(line);
        (done, Served::Dram)
    }

    /// A background (prefetch) fill to the L2 level: affects cache and
    /// DRAM state but returns no latency to the core.
    fn background_fill_l2(&mut self, addr: u64, now: u64, kind: AccessKind) {
        if self.l2.probe(addr) {
            return;
        }
        // L3 hit satisfies the prefetch without DRAM traffic.
        if let Some((meta, dirty)) = self.l3.as_mut().and_then(|l3| l3.invalidate(addr)) {
            self.fill_l2(addr, kind, meta, dirty, InsertPriority::Ordinary);
            return;
        }
        // Low-priority DRAM read: deprioritized behind demand traffic, so
        // prefetch bursts never inflate demand latency.
        let _ = self.dram.read_background(addr, now);
        let meta = LineMeta {
            second_pass: kind == AccessKind::PrefetchFirstPass,
            ..LineMeta::default()
        };
        self.fill_l2(addr, kind, meta, false, InsertPriority::Ordinary);
        self.snoop.insert(addr / LINE_BYTES);
    }

    /// Fill `addr` into the L1D, dirty if `dirty`, and retire what it
    /// displaces. The L2 does not include the L1D: a clean victim just
    /// leaves; a dirty one marks the L2's copy dirty or allocates one.
    fn fill_l1d(&mut self, addr: u64, kind: AccessKind, dirty: bool) {
        for v in self.l1d.fill(addr, kind, LineMeta::default(), dirty, InsertPriority::Elevated) {
            if v.dirty && !self.l2.mark_dirty(v.addr) {
                self.fill_l2(v.addr, AccessKind::Writeback, v.meta, true, InsertPriority::Ordinary);
            }
        }
    }

    /// Fill `addr` into the L1D (prefetch second pass / one pass).
    fn fill_l1(&mut self, addr: u64, now: u64) {
        if self.l1d.probe(addr) {
            return;
        }
        // One-pass mode: the L2 may not have the line yet.
        if !self.l2.probe(addr) {
            if self.twopass.mode() == PassMode::OnePass {
                self.twopass.on_one_pass_l2_miss();
            }
            self.background_fill_l2(addr, now, AccessKind::Prefetch);
        } else {
            self.l2.access(addr, AccessKind::Prefetch);
        }
        self.fill_l1d(addr, AccessKind::Prefetch, false);
        self.stats.l1_prefetch_fills += 1;
    }

    /// Issue L1 prefetch requests through the one-pass/two-pass delivery
    /// scheme (§VII.B), preloading translations along the way.
    fn issue_l1_prefetches(&mut self, requests: &[L1PrefetchRequest], start: u64) {
        for &req in requests {
            let addr = req.line * LINE_BYTES;
            self.tlb.prefetch_translation(addr);
            if self.l1d.probe(addr) {
                continue;
            }
            match self.twopass.mode() {
                PassMode::TwoPass => {
                    let l2_hit = self.l2.probe(addr);
                    let ready = if l2_hit {
                        start + self.l2.config().latency as u64
                    } else {
                        self.background_fill_l2(addr, start, AccessKind::PrefetchFirstPass);
                        start + 60
                    };
                    if req.into_l1 {
                        self.twopass.enqueue(req.line, l2_hit, ready);
                    }
                }
                PassMode::OnePass => {
                    if req.into_l1 {
                        self.twopass.enqueue(req.line, true, start);
                    } else if !self.l2.probe(addr) {
                        self.background_fill_l2(addr, start, AccessKind::PrefetchFirstPass);
                    }
                }
            }
        }
    }

    /// Drain pending prefetch fills whose data is ready, bounded by free
    /// MABs.
    fn drain_prefetches(&mut self, now: u64) {
        let free = self.mabs.capacity().saturating_sub(self.mabs.occupancy(now));
        if free == 0 {
            return;
        }
        // Reserve one buffer for demands.
        let budget = free.saturating_sub(1);
        if budget == 0 {
            return;
        }
        let mut lines = std::mem::take(&mut self.scratch_lines);
        self.twopass.drain_ready_into(now, budget, &mut lines);
        for &line in &lines {
            let addr = line * LINE_BYTES;
            self.mabs.try_allocate(now, now + self.l1_hit_lat as u64 + 4);
            self.fill_l1(addr, now);
        }
        self.scratch_lines = lines;
    }

    // ------------------------------------------------------------------
    // Demand interface
    // ------------------------------------------------------------------

    /// Occupancy must never exceed capacity: `try_allocate` refuses when
    /// full, so a violation means the buffer bookkeeping itself broke.
    fn check_mab_invariant(&self, now: u64) -> Result<(), SimError> {
        let occ = self.mabs.occupancy(now);
        let cap = self.mabs.capacity();
        if occ > cap {
            return Err(SimError::ResourceInvariant {
                resource: "mab",
                detail: format!("{occ} miss buffers in flight but only {cap} exist"),
            });
        }
        Ok(())
    }

    /// Miss-address buffers in use at `now` (watchdog snapshots).
    pub fn mab_occupancy(&self, now: u64) -> usize {
        self.mabs.occupancy(now)
    }

    /// Configured miss-address buffer count.
    pub fn mab_capacity(&self) -> usize {
        self.mabs.capacity()
    }

    /// MAB occupancy statistics.
    pub fn mab_stats(&self) -> exynos_mem::mshr::MshrStats {
        self.mabs.stats()
    }

    /// TLB hierarchy access (per-level stats).
    pub fn tlb(&self) -> &exynos_mem::tlb::TlbHierarchy {
        &self.tlb
    }

    /// Fault-injection hook: the prefetch confirmation paths lose their
    /// in-flight state — pending two-pass fills are discarded and the
    /// standalone prefetcher's stream training resets. Returns the number
    /// of pending L1 fills that were dropped.
    pub fn drop_prefetch_state(&mut self) -> usize {
        let dropped = self.twopass.drop_pending();
        if let Some(sp) = &mut self.standalone {
            sp.drop_confirmations();
        }
        dropped
    }

    /// A demand load issued at `now`; returns the cycle its data is
    /// available. `cascade` marks a load whose address comes from a load:
    /// it hits at `lat.l1_cascade` (M4's load-to-load fast path; the L1D
    /// hit latency on earlier generations).
    pub fn load(&mut self, pc: u64, vaddr: u64, now: u64, cascade: bool) -> Result<u64, SimError> {
        self.stats.loads += 1;
        self.drain_prefetches(now);
        let tlb_lat = self.tlb.translate_data(vaddr) as u64;
        let base = now + tlb_lat;
        let hit_lat = if cascade { self.l1_cascade_lat } else { self.l1_hit_lat } as u64;
        if let Some(m) = self.l1d.access(vaddr, AccessKind::Demand) {
            self.stats.l1_hits += 1;
            // First demand touch of a prefetched L1 line: propagate the
            // reuse information down to the L2 (response-channel metadata,
            // §VIII.A) and keep training/confirming the L1 prefetcher —
            // the prefetch-hit bit feeds the training unit, otherwise a
            // covered stream would starve its own prefetcher.
            if m.prefetched && !m.demand_hit {
                self.l2.mark_demanded(vaddr);
                let mut reqs = std::mem::take(&mut self.scratch_reqs);
                self.l1pf.on_demand_miss_into(pc, vaddr, &mut reqs);
                self.issue_l1_prefetches(&reqs, now);
                self.scratch_reqs = reqs;
            }
            let done = base + hit_lat;
            self.stats.total_load_latency += done - now;
            return Ok(done);
        }
        // L1 miss: allocate a MAB (stall if none free).
        self.check_mab_invariant(now)?;
        let mut start = base;
        if !self.mabs.try_allocate(start, start + 1) {
            let free_at = self.mabs.earliest_free(start);
            self.stats.mab_stalls += 1;
            start = free_at;
        }
        // Train the L1 prefetchers on the miss and issue their requests.
        let mut requests = std::mem::take(&mut self.scratch_reqs);
        self.l1pf.on_demand_miss_into(pc, vaddr, &mut requests);
        let (data_at_l2, served) = self.fetch_to_l2(pc, vaddr, start);
        match served {
            Served::L2 => self.stats.l2_hits += 1,
            Served::L3 => self.stats.l3_hits += 1,
            Served::Dram => self.stats.dram_loads += 1,
        }
        // Reserve the MAB until the fill returns.
        let _ = self.mabs.try_allocate(start, data_at_l2);
        self.fill_l1d(vaddr, AccessKind::Demand, false);
        // Issue the prefetch requests (two-pass scheme + TLB preload).
        self.issue_l1_prefetches(&requests, start);
        self.scratch_reqs = requests;
        let done = data_at_l2 + hit_lat;
        self.stats.total_load_latency += done - now;
        Ok(done)
    }

    /// A demand store issued at `now`; returns the cycle it completes into
    /// the store buffer (cache state updated in the background).
    pub fn store(&mut self, pc: u64, vaddr: u64, now: u64) -> Result<u64, SimError> {
        self.stats.stores += 1;
        let _ = self.tlb.translate_data(vaddr);
        if !self.l1d.store(vaddr) {
            // Write-allocate in the background: train the prefetcher but
            // discard its requests, as before.
            let mut reqs = std::mem::take(&mut self.scratch_reqs);
            self.l1pf.on_demand_miss_into(pc, vaddr, &mut reqs);
            self.scratch_reqs = reqs;
            let _ = self.fetch_to_l2(pc, vaddr, now);
            self.fill_l1d(vaddr, AccessKind::Demand, true);
        }
        Ok(now + 1)
    }

    /// An instruction fetch of the line at `pc` at `now`; returns added
    /// fetch latency in cycles (0 on an L1I hit).
    pub fn ifetch(&mut self, pc: u64, now: u64) -> Result<u64, SimError> {
        let tlb_lat = self.tlb.translate_inst(pc) as u64;
        if self.l1i.access(pc, AccessKind::Demand).is_some() {
            return Ok(tlb_lat);
        }
        self.check_mab_invariant(now)?;
        self.stats.icache_misses += 1;
        let (done, _) = self.fetch_to_l2(pc, pc, now + tlb_lat);
        let _ = self.l1i.fill(pc, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        // Clean instruction lines need no writeback.
        Ok(done.saturating_sub(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use exynos_trace::{standard_suite, InstKind};
    use std::collections::{BTreeMap, HashMap, HashSet};

    fn ms(cfg: CoreConfig) -> MemSystem {
        MemSystem::new(&cfg)
    }

    /// The hierarchy's conservation rules over `m`'s current state: one
    /// (rule, detail) pair per violation. `dirtied` holds the lines stores
    /// have dirtied; a line no level holds any more has been written back
    /// and is dropped from it. `touched` holds the lines the run accessed.
    fn audit(m: &MemSystem, dirtied: &mut HashSet<u64>, touched: &HashSet<u64>) -> Vec<(&'static str, String)> {
        let lines = |c: Option<&Cache>| -> HashMap<u64, bool> {
            c.into_iter().flat_map(Cache::lines).map(|(a, _, dirty)| (a / LINE_BYTES, dirty)).collect()
        };
        let (l1d, l2, l3) = (lines(Some(&m.l1d)), lines(Some(&m.l2)), lines(m.l3.as_ref()));
        let levels = [&l1d, &l2, &l3];
        let mut bad = Vec::new();
        // The L2 and the L3 are exclusive.
        for line in l2.keys().filter(|l| l3.contains_key(l)) {
            bad.push(("L2 ∩ L3 = ∅", format!("line {line:#x}")));
        }
        // A line a store dirtied stays dirty at some level until it leaves.
        dirtied.retain(|l| levels.iter().any(|c| c.contains_key(l)));
        for line in dirtied.iter().filter(|l| !levels.iter().any(|c| c.get(l) == Some(&true))) {
            bad.push(("stored lines stay dirty", format!("line {line:#x} is resident but clean")));
        }
        for line in m.buddy_lines.iter().filter(|l| !l2.contains_key(l)) {
            bad.push(("buddy lines ⊆ L2", format!("line {line:#x}")));
        }
        // The directory never claims a line the L2 and L3 do not hold. It
        // may miss lines: its 65,536 entries are fewer than M5/M6's L2 + L3
        // lines, and a dirty L1D victim allocates in the L2 without one.
        for line in touched.iter().filter(|&&l| m.snoop.may_be_cached(l)) {
            if !l2.contains_key(line) && !l3.contains_key(line) {
                bad.push(("directory ⊆ L2 ∪ L3", format!("line {line:#x}")));
            }
        }
        let s = m.stats;
        if s.l1_hits + s.l2_hits + s.l3_hits + s.dram_loads != s.loads {
            bad.push(("per-level loads sum to loads", format!("{s:?}")));
        }
        bad
    }

    /// Whether `c` holds `addr`'s line, and dirty.
    fn held_dirty(c: &Cache, addr: u64) -> Option<bool> {
        c.lines().find(|l| l.0 == addr).map(|l| l.2)
    }

    /// Drives `MemSystem` with the instruction fetches, loads and stores
    /// of `insts` instructions of each named `standard_suite(1)` slice, one
    /// instruction a cycle, and audits the hierarchy every `every`
    /// instructions. Returns the violations, labelled by slice.
    fn audited_run(cfg: &CoreConfig, slices: &[&str], insts: u64, every: u64) -> Vec<(&'static str, String)> {
        let mut bad = Vec::new();
        for spec in standard_suite(1).iter().filter(|s| slices.contains(&s.name.as_str())) {
            let mut m = MemSystem::new(cfg);
            let mut gen = spec.build().unwrap();
            let (mut dirtied, mut touched) = (HashSet::new(), HashSet::new());
            let mut fetch_line = u64::MAX;
            for now in 0..insts {
                let inst = gen.next_inst();
                if inst.pc / LINE_BYTES != fetch_line {
                    fetch_line = inst.pc / LINE_BYTES;
                    touched.insert(fetch_line);
                    m.ifetch(inst.pc, now).unwrap();
                }
                if let Some(r) = inst.mem {
                    touched.insert(r.vaddr / LINE_BYTES);
                    match inst.kind {
                        InstKind::Load => {
                            m.load(inst.pc, r.vaddr, now, false).unwrap();
                        }
                        InstKind::Store => {
                            m.store(inst.pc, r.vaddr, now).unwrap();
                            dirtied.insert(r.vaddr / LINE_BYTES);
                        }
                        _ => {}
                    }
                }
                if (now + 1) % every == 0 {
                    let found = audit(&m, &mut dirtied, &touched);
                    bad.extend(found.into_iter().map(|(rule, v)| (rule, format!("{} @{now}: {v}", spec.name))));
                }
            }
        }
        bad
    }

    /// A store stream (`stream/copy0`, whose write-allocates evict dirty
    /// L1D lines), a multi-stride stream, a 16 MB pointer chase and a
    /// mixed mobile slice, on every generation.
    #[test]
    fn the_hierarchy_conserves_lines_and_dirtiness() {
        let slices = ["stream/copy0", "stream/ms1", "game/chase2_ws16m", "mobile/geek0"];
        for cfg in CoreConfig::all_generations() {
            let bad = audited_run(&cfg, &slices, 20_000, 64);
            let mut per_rule = BTreeMap::new();
            for (rule, v) in &bad {
                per_rule.entry(*rule).or_insert((0, v)).0 += 1;
            }
            assert!(bad.is_empty(), "{:?}: violations per rule (count, first): {per_rule:?}", cfg.gen);
        }
    }

    #[test]
    fn a_store_evicting_a_dirty_l1d_line_keeps_it_dirty() {
        for l2_holds in [true, false] {
            let mut m = ms(CoreConfig::m3());
            let a = 0x50_0000;
            m.store(0x4000, a, 0).unwrap();
            if !l2_holds {
                // The L2 does not include the L1D: drop its copy, as a
                // castout would.
                assert!(m.l2.invalidate(a).is_some());
            }
            // Write-allocate stores to lines of the same L1D set until one
            // evicts `a`.
            let stride = m.l1d.config().sets() * LINE_BYTES;
            let mut k = 0;
            while m.l1d.probe(a) {
                k += 1;
                assert!(k <= 64, "the L1D never evicted the line");
                m.store(0x4000, a + k * stride, k).unwrap();
            }
            assert_eq!(held_dirty(&m.l2, a), Some(true), "l2_holds {l2_holds}: the L2 must hold the victim dirty");
        }
    }

    #[test]
    fn lines_a_store_dirtied_stay_dirty_through_the_l3_and_back() {
        for cfg in [CoreConfig::m3(), CoreConfig::m4(), CoreConfig::m5(), CoreConfig::m6()] {
            let gen = cfg.gen;
            let mut m = ms(cfg);
            let lines = 4 * m.l2.config().size_bytes / LINE_BYTES;
            for i in 0..lines {
                m.store(0x4000, 0x1000_0000 + i * LINE_BYTES, i).unwrap();
            }
            let l3 = m.l3.as_ref().unwrap();
            let clean = l3.lines().filter(|l| !l.2).count();
            assert_eq!(clean, 0, "{gen:?}: {clean} of {} L3 lines clean", l3.lines().count());
            // The exclusive swap back into the L2 keeps the line dirty. The
            // last line cast out is the one a buddy fill's castouts are
            // least likely to push out of the L3 first.
            let addr = l3.lines().map(|l| l.0).max().unwrap();
            m.load(0x4000, addr, 2 * lines, false).unwrap();
            assert_eq!(m.stats().l3_hits, 1, "{gen:?}: the load must be served by the L3");
            assert_eq!(held_dirty(&m.l2, addr), Some(true), "{gen:?}: the line swapped back clean");
        }
    }

    #[test]
    fn l1_hit_costs_hit_latency() {
        let mut m = ms(CoreConfig::m3());
        let t1 = m.load(0x4000, 0x10_0000, 0, false).unwrap();
        assert!(t1 > 50, "cold miss goes deep");
        let t2 = m.load(0x4000, 0x10_0008, 1000, false).unwrap();
        assert_eq!(t2 - 1000, 4, "same line now hits L1");
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn cascade_latency_is_three() {
        let mut m = ms(CoreConfig::m4());
        let _ = m.load(0x4000, 0x10_0000, 0, false).unwrap();
        let t = m.load(0x4000, 0x10_0000, 1000, true).unwrap();
        assert_eq!(t - 1000, 3);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let mut m = ms(CoreConfig::m3());
        let cold = m.load(0x4000, 0x20_0000, 0, false).unwrap() - 0;
        // Evict from L1 by filling the set, keeping L2 resident: simplest
        // is a second distinct line mapping elsewhere, then re-access the
        // first after L1 eviction. Directly probe the path instead: a
        // second load to the same line after only L1 invalidation isn't
        // exposed, so approximate by comparing a fresh DRAM load to an
        // L3-resident reload pattern at the system level.
        assert!(cold > m.l2_stats().demand_misses as u64); // sanity
        let far = m.load(0x4000, 0x30_0000, 10_000, false).unwrap() - 10_000;
        assert!(far > 60, "cold DRAM load is expensive, got {far}");
    }

    #[test]
    fn exclusive_l3_receives_l2_castouts_and_swaps_back() {
        let mut m = ms(CoreConfig::m3());
        // Touch far more lines than the 512 KB L2 holds so castouts reach
        // the L3; revisit early lines: they must come back cheaper than
        // DRAM.
        let lines = (512 * 1024 / 64) * 2;
        for i in 0..lines as u64 {
            // Touch twice so reuse metadata marks them L3-worthy.
            let a = 0x100_0000 + i * 64;
            let _ = m.load(0x4000, a, i * 10, false).unwrap();
            let _ = m.load(0x4000, a, i * 10 + 5, false).unwrap();
        }
        let before = m.stats().l3_hits;
        // Revisit a mid-range line (old enough to have left L1/L2).
        let _ = m.load(0x4000, 0x100_0000, 10_000_000, false).unwrap();
        assert!(
            m.stats().l3_hits > before,
            "revisit must be served by the exclusive L3: {:?}",
            m.stats()
        );
    }

    #[test]
    fn strided_stream_gets_prefetched() {
        let mut m = ms(CoreConfig::m3());
        let mut misses_late = 0;
        let mut total_late = 0;
        for i in 0..400u64 {
            let t = m.load(0x4000, 0x400_0000 + i * 64, i * 200, false).unwrap();
            let lat = t - i * 200;
            if i >= 350 {
                total_late += 1;
                if lat > 8 {
                    misses_late += 1;
                }
            }
        }
        assert!(
            misses_late < total_late / 2,
            "steady strided stream should mostly hit after prefetch training: {misses_late}/{total_late}"
        );
        assert!(m.stats().l1_prefetch_fills > 0);
    }

    #[test]
    fn buddy_fills_on_m4_but_not_m3() {
        let run = |cfg: CoreConfig| {
            let mut m = ms(cfg);
            for i in 0..50u64 {
                // Pointer-chase-ish: unique 128 B-granule pairs.
                let _ = m.load(0x4000, 0x800_0000 + i * 8192, i * 300, false).unwrap();
            }
            m.stats().buddy_fills
        };
        assert_eq!(run(CoreConfig::m3()), 0);
        assert!(run(CoreConfig::m4()) > 0);
    }

    #[test]
    fn mab_limit_stalls_when_exhausted() {
        let mut m = ms(CoreConfig::m1()); // 8 MABs
        // Fire many independent misses at the same cycle.
        for i in 0..30u64 {
            let _ = m.load(0x4000, 0x900_0000 + i * 4096 * 7, 0, false).unwrap();
        }
        assert!(m.stats().mab_stalls > 0, "{:?}", m.stats());
    }

    #[test]
    fn ifetch_miss_then_hit() {
        let mut m = ms(CoreConfig::m3());
        let lat = m.ifetch(0x40_0000, 0).unwrap();
        assert!(lat > 0);
        let lat2 = m.ifetch(0x40_0010, 100).unwrap();
        assert_eq!(lat2, 0, "same icache line hits");
    }

    #[test]
    fn stores_complete_fast_but_update_state() {
        let mut m = ms(CoreConfig::m3());
        let t = m.store(0x4000, 0xA0_0000, 0).unwrap();
        assert_eq!(t, 1);
        // The stored line is now L1-resident: a load hits.
        let t2 = m.load(0x4000, 0xA0_0000, 100, false).unwrap();
        assert_eq!(t2 - 100, 4);
    }

    #[test]
    fn spec_read_enabled_only_on_m5() {
        let mut m5 = ms(CoreConfig::m5());
        let mut m4 = ms(CoreConfig::m4());
        // Pointer-chase pattern that always misses: trains the miss
        // predictor, then speculates.
        for i in 0..200u64 {
            let a = 0xB00_0000 + i * 64 * 97;
            let _ = m5.load(0x4444, a, i * 400, false).unwrap();
            let _ = m4.load(0x4444, a, i * 400, false).unwrap();
        }
        assert!(m5.stats().spec_read_wins > 0);
        assert_eq!(m4.stats().spec_read_wins, 0);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        MemSystem [tags::MEMSYS] {
            l1i, l1d, l2,
            l3: Present("l3 presence"),
            tlb, mabs, l1pf, twopass,
            buddy: Present("buddy presence"),
            buddy_lines: Bounded(BUDDY_WINDOW, "buddy usefulness window"),
            standalone: Present("standalone presence"),
            spec, snoop, dram, stats,
        } then clear_scratch
    }

    impl MemSystem {
        /// The scratch buffers are transient step-loop storage: always
        /// empty between steps, so a resumed run starts them empty too.
        fn clear_scratch(&mut self) -> Result<(), SnapshotError> {
            self.scratch_lines.clear();
            self.scratch_reqs.clear();
            Ok(())
        }
    }
}
