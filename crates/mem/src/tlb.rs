//! The translation hierarchy of Table I: L1 instruction TLB, L1 data TLB,
//! the M3+ "level 1.5 Data TLB" ("additional capacity at much lower latency
//! than the much-larger L2 TLB"), and the shared L2 TLB, backed by a page
//! walker.
//!
//! Table I gives each structure as total pages (#entries / #ways /
//! #sectors); sectoring is modeled as multiple translations per entry
//! (adjacent pages sharing a tag).

/// Geometry of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Tag entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Pages per entry (sectoring).
    pub sectors: usize,
    /// Hit latency added to the access (0 for the in-pipeline L1s).
    pub latency: u32,
}

impl TlbConfig {
    /// Total pages covered.
    pub fn pages(&self) -> usize {
        self.entries * self.sectors
    }
}

exynos_telemetry::counters! {
    /// Hit/miss statistics for one TLB level.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TlbStats in "mem.tlb" {
        /// Accesses that hit.
        pub hits: u64,
        /// Accesses that missed.
        pub misses: u64,
    }
}

/// One TLB array (page-granular, 4 KiB pages, sectored tags).
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: usize,
    /// (tag-granule vpn, sector valid bits, lru)
    entries: Vec<(u64, u64, u64)>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Why [`Tlb::new`] would reject `t`, if it would: no entry, or a
    /// sector count its 64-bit sector mask cannot hold.
    pub fn defect(t: &TlbConfig) -> Option<String> {
        (t.entries == 0 || t.ways == 0 || !(1..=64).contains(&t.sectors)).then(|| {
            format!("{} entries, {} ways, {} sectors (nonzero, at most 64 sectors)", t.entries, t.ways, t.sectors)
        })
    }

    /// Build a TLB from `cfg`.
    ///
    /// # Panics
    /// Panics if [`Tlb::defect`] rejects `cfg`.
    pub fn new(cfg: TlbConfig) -> Tlb {
        let defect = Tlb::defect(&cfg);
        assert!(defect.is_none(), "TLB geometry: {defect:?}");
        let sets = (cfg.entries / cfg.ways).max(1);
        Tlb {
            sets,
            entries: vec![(u64::MAX, 0, 0); sets * cfg.ways],
            stamp: 0,
            hits: 0,
            misses: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        TlbStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    fn granule_vpn(&self, vaddr: u64) -> (u64, usize) {
        let vpn = vaddr >> 12;
        (vpn / self.cfg.sectors as u64, (vpn % self.cfg.sectors as u64) as usize)
    }

    fn set_of(&self, gvpn: u64) -> usize {
        ((gvpn ^ (gvpn >> 9)) % self.sets as u64) as usize
    }

    /// Translate `vaddr`; returns whether it hit.
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.stamp += 1;
        let (gvpn, sector) = self.granule_vpn(vaddr);
        let base = self.set_of(gvpn) * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            let (tag, valid, _) = self.entries[i];
            if tag == gvpn && valid >> sector & 1 == 1 {
                self.entries[i].2 = self.stamp;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Install the translation for `vaddr`.
    pub fn fill(&mut self, vaddr: u64) {
        self.stamp += 1;
        let (gvpn, sector) = self.granule_vpn(vaddr);
        let base = self.set_of(gvpn) * self.cfg.ways;
        // Same tag present: set the sector bit.
        for i in base..base + self.cfg.ways {
            if self.entries[i].0 == gvpn {
                self.entries[i].1 |= 1 << sector;
                self.entries[i].2 = self.stamp;
                return;
            }
        }
        let victim = (base..base + self.cfg.ways)
            .min_by_key(|&i| if self.entries[i].0 == u64::MAX { 0 } else { self.entries[i].2.max(1) })
            .unwrap_or(base);
        self.entries[victim] = (gvpn, 1 << sector, self.stamp);
    }
}

/// The per-generation translation hierarchy.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    /// L1 instruction TLB.
    pub itlb: Tlb,
    /// L1 data TLB.
    pub dtlb: Tlb,
    /// The fast "level 1.5" data TLB (M3+).
    pub dtlb15: Option<Tlb>,
    /// Shared L2 TLB.
    pub l2tlb: Tlb,
    /// Page-walk latency in cycles on a full miss.
    pub walk_latency: u32,
}

/// Per-generation TLB geometry from Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbHierarchyConfig {
    /// L1 ITLB.
    pub itlb: TlbConfig,
    /// L1 DTLB.
    pub dtlb: TlbConfig,
    /// L1.5 DTLB if present.
    pub dtlb15: Option<TlbConfig>,
    /// L2 TLB.
    pub l2tlb: TlbConfig,
    /// Page-walk latency.
    pub walk_latency: u32,
}

impl TlbHierarchyConfig {
    /// M1/M2 (Table I column 1–2).
    pub fn m1() -> TlbHierarchyConfig {
        TlbHierarchyConfig {
            itlb: TlbConfig { entries: 64, ways: 64, sectors: 4, latency: 0 },
            dtlb: TlbConfig { entries: 32, ways: 32, sectors: 1, latency: 0 },
            dtlb15: None,
            l2tlb: TlbConfig { entries: 1024, ways: 4, sectors: 1, latency: 8 },
            walk_latency: 40,
        }
    }

    /// M3 (adds the L1.5 DTLB; larger L2 TLB).
    pub fn m3() -> TlbHierarchyConfig {
        TlbHierarchyConfig {
            itlb: TlbConfig { entries: 64, ways: 64, sectors: 8, latency: 0 },
            dtlb: TlbConfig { entries: 32, ways: 32, sectors: 1, latency: 0 },
            dtlb15: Some(TlbConfig { entries: 128, ways: 4, sectors: 4, latency: 2 }),
            l2tlb: TlbConfig { entries: 1024, ways: 4, sectors: 4, latency: 10 },
            walk_latency: 40,
        }
    }

    /// M4/M5 (48-page DTLB).
    pub fn m4() -> TlbHierarchyConfig {
        let mut c = TlbHierarchyConfig::m3();
        c.dtlb = TlbConfig { entries: 48, ways: 48, sectors: 1, latency: 0 };
        c
    }

    /// M6 (128-page DTLB, 8K-page L2 TLB).
    pub fn m6() -> TlbHierarchyConfig {
        let mut c = TlbHierarchyConfig::m4();
        c.dtlb = TlbConfig { entries: 128, ways: 128, sectors: 1, latency: 0 };
        c.l2tlb = TlbConfig { entries: 2048, ways: 4, sectors: 4, latency: 10 };
        c
    }
}

impl TlbHierarchy {
    /// Build a hierarchy from `cfg`.
    pub fn new(cfg: &TlbHierarchyConfig) -> TlbHierarchy {
        TlbHierarchy {
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            dtlb15: cfg.dtlb15.map(Tlb::new),
            l2tlb: Tlb::new(cfg.l2tlb),
            walk_latency: cfg.walk_latency,
        }
    }

    /// Translate a data access; returns added latency in cycles (0 on an
    /// L1 DTLB hit).
    pub fn translate_data(&mut self, vaddr: u64) -> u32 {
        if self.dtlb.access(vaddr) {
            return 0;
        }
        if let Some(t15) = &mut self.dtlb15 {
            if t15.access(vaddr) {
                self.dtlb.fill(vaddr);
                return t15.config().latency;
            }
        }
        let lat = if self.l2tlb.access(vaddr) {
            self.l2tlb.config().latency
        } else {
            self.l2tlb.fill(vaddr);
            self.l2tlb.config().latency + self.walk_latency
        };
        if let Some(t15) = &mut self.dtlb15 {
            t15.fill(vaddr);
        }
        self.dtlb.fill(vaddr);
        lat
    }

    /// Translate an instruction fetch; returns added latency.
    pub fn translate_inst(&mut self, vaddr: u64) -> u32 {
        if self.itlb.access(vaddr) {
            return 0;
        }
        let lat = if self.l2tlb.access(vaddr) {
            self.l2tlb.config().latency
        } else {
            self.l2tlb.fill(vaddr);
            self.l2tlb.config().latency + self.walk_latency
        };
        self.itlb.fill(vaddr);
        lat
    }

    /// Prefetch a translation (the virtual-address L1 prefetcher "inherently
    /// acts as a simple TLB prefetcher", §VII.A).
    pub fn prefetch_translation(&mut self, vaddr: u64) {
        if !self.dtlb.access(vaddr) {
            if let Some(t15) = &mut self.dtlb15 {
                t15.fill(vaddr);
            }
            self.dtlb.fill(vaddr);
            self.l2tlb.fill(vaddr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_page_counts() {
        let m1 = TlbHierarchyConfig::m1();
        assert_eq!(m1.itlb.pages(), 256);
        assert_eq!(m1.dtlb.pages(), 32);
        assert_eq!(m1.l2tlb.pages(), 1024);
        let m3 = TlbHierarchyConfig::m3();
        assert_eq!(m3.itlb.pages(), 512);
        assert_eq!(m3.dtlb15.unwrap().pages(), 512);
        assert_eq!(m3.l2tlb.pages(), 4096);
        let m6 = TlbHierarchyConfig::m6();
        assert_eq!(m6.dtlb.pages(), 128);
        assert_eq!(m6.l2tlb.pages(), 8192);
    }

    #[test]
    fn first_access_walks_second_hits() {
        let mut h = TlbHierarchy::new(&TlbHierarchyConfig::m1());
        let lat = h.translate_data(0x1234_5678);
        assert!(lat >= h.walk_latency);
        assert_eq!(h.translate_data(0x1234_5000), 0, "same page hits");
    }

    #[test]
    fn l15_serves_dtlb_evictions_cheaply() {
        let mut h = TlbHierarchy::new(&TlbHierarchyConfig::m3());
        // Touch 64 pages: far more than the 32-page DTLB, within the
        // 512-page L1.5.
        for p in 0..64u64 {
            let _ = h.translate_data(p << 12);
        }
        // Revisit page 0: DTLB has evicted it, but the L1.5 should hold it.
        let lat = h.translate_data(0);
        assert_eq!(lat, 2, "L1.5 latency, not a walk");
    }

    #[test]
    fn m1_without_l15_pays_l2_latency() {
        let mut h = TlbHierarchy::new(&TlbHierarchyConfig::m1());
        for p in 0..64u64 {
            let _ = h.translate_data(p << 12);
        }
        let lat = h.translate_data(0);
        assert_eq!(lat, 8, "L2 TLB latency on M1");
    }

    #[test]
    fn sectored_itlb_covers_adjacent_pages() {
        let mut h = TlbHierarchy::new(&TlbHierarchyConfig::m1());
        let _ = h.translate_inst(0x40_0000);
        // Fill covers only its own page; an adjacent page in the same
        // sector granule still misses until filled, then shares the tag.
        let _ = h.translate_inst(0x40_1000);
        assert_eq!(h.translate_inst(0x40_0000), 0);
        assert_eq!(h.translate_inst(0x40_1000), 0);
    }

    #[test]
    fn prefetch_translation_preloads() {
        let mut h = TlbHierarchy::new(&TlbHierarchyConfig::m3());
        h.prefetch_translation(0x9999_0000);
        assert_eq!(h.translate_data(0x9999_0008), 0, "prefetched page hits");
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { Tlb [tags::TLB] { entries: Fixed("tlb entries"), stamp, hits, misses } }
    layout! {
        TlbHierarchy [tags::TLB_HIERARCHY] {
            itlb, dtlb,
            dtlb15: Present("dtlb1.5 presence"),
            l2tlb,
        }
    }
}
