//! Set-associative cache arrays with the metadata the paper's large-cache
//! management needs (§VIII.A–B).
//!
//! Each line tracks whether it was brought in by a prefetch, whether a
//! demand access ever hit it (the adaptive standalone prefetcher's
//! confidence metadata, §VIII.D), and a small reuse counter fed by L2 hits
//! and L3 re-allocations (the coordinated exclusive-hierarchy policy,
//! §VIII.A). L2 tags may be *sectored* at 128 B for 64 B data lines
//! (§VIII.B): two sectors share one tag, which is what makes the Buddy
//! prefetcher pollution-free.

/// How an access entered the cache (affects metadata and policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load/store/ifetch.
    Demand,
    /// Hardware prefetch, first pass (two-pass scheme, §VII.B).
    PrefetchFirstPass,
    /// Hardware prefetch, second pass / ordinary prefetch fill.
    Prefetch,
    /// Writeback / castout from an inner level.
    Writeback,
}

impl AccessKind {
    /// Whether this access is any kind of prefetch.
    pub fn is_prefetch(self) -> bool {
        matches!(self, AccessKind::Prefetch | AccessKind::PrefetchFirstPass)
    }
}

/// Insertion priority chosen by the coordinated-management policy when a
/// castout allocates into the L3 (§VIII.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPriority {
    /// Elevated replacement state (protected — observed reuse).
    Elevated,
    /// Ordinary replacement state.
    Ordinary,
    /// Do not allocate at all.
    Bypass,
}

/// Per-line metadata carried through the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineMeta {
    /// Brought in by a prefetch and not yet demanded.
    pub prefetched: bool,
    /// A demand access has hit this line since fill.
    pub demand_hit: bool,
    /// Reuse level: L2 hits and L3 re-allocations increment (saturating).
    pub reuse: u8,
    /// Second-pass-prefetch filter (§VIII.A: "some cases needed to be
    /// filtered out from being marked as reuse, such as the second pass
    /// prefetch of two-pass prefetching").
    pub second_pass: bool,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// 64 B-aligned line address of the evicted line.
    pub addr: u64,
    /// Its metadata at eviction.
    pub meta: LineMeta,
    /// Whether the line was dirty.
    pub dirty: bool,
}

/// The victims displaced by one fill: at most both sectors of a single
/// evicted tag, so a fixed two-slot array avoids a heap allocation on
/// every fill in the simulator's hot loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Victims {
    items: [Option<Victim>; 2],
    len: u8,
}

impl Victims {
    fn push(&mut self, v: Victim) {
        debug_assert!((self.len as usize) < 2, "a fill evicts at most one tag");
        if (self.len as usize) < self.items.len() {
            self.items[self.len as usize] = Some(v);
            self.len += 1;
        }
    }

    /// Number of victims.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the fill displaced nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the victims by reference.
    pub fn iter(&self) -> impl Iterator<Item = &Victim> {
        self.items[..self.len as usize].iter().flatten()
    }
}

impl IntoIterator for Victims {
    type Item = Victim;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Victim>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

impl<'a> IntoIterator for &'a Victims {
    type Item = &'a Victim;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<Victim>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items[..self.len as usize].iter().flatten()
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Data line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Tag-sector factor: 1 = one tag per line; 2 = 128 B-sectored tags
    /// (two 64 B sectors share a tag, §VIII.B).
    pub sectors_per_tag: u64,
    /// Access latency in cycles (hit).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of tag entries.
    pub fn tags(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.sectors_per_tag)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.tags() / self.ways as u64).max(1)
    }
}

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    /// Tag-granule address (`addr / (line * sectors)`); `u64::MAX` invalid.
    tag_addr: u64,
    /// Per-sector valid bits.
    sector_valid: u8,
    /// Per-sector dirty bits.
    sector_dirty: u8,
    /// Per-sector metadata.
    meta: [LineMeta; 2],
    /// 2-bit SRRIP re-reference prediction value: 0 = near re-reference
    /// (elevated / recently hit), 3 = evictable. The "elevated" vs
    /// "ordinary" replacement states of §VIII.A map onto the insertion
    /// RRPV.
    rrpv: u8,
}

impl TagEntry {
    fn invalid() -> TagEntry {
        TagEntry {
            tag_addr: u64::MAX,
            sector_valid: 0,
            sector_dirty: 0,
            meta: [LineMeta::default(); 2],
            rrpv: 3,
        }
    }
}

/// Access statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub demand_hits: u64,
    /// Demand misses.
    pub demand_misses: u64,
    /// Prefetch hits (already present).
    pub prefetch_hits: u64,
    /// Prefetch misses (will fill).
    pub prefetch_misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Victims evicted (valid lines displaced).
    pub evictions: u64,
    /// Demand hits on lines brought by prefetch (useful prefetches).
    pub useful_prefetch_hits: u64,
}

/// A set-associative, optionally sectored, write-back cache array with
/// SRRIP replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    /// `log2(granule)` when the tag granule is a power of two (every
    /// shipped geometry), letting `tag_addr` shift instead of divide.
    granule_shift: Option<u32>,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    entries: Vec<TagEntry>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache from `cfg`.
    ///
    /// # Panics
    /// Panics if geometry is degenerate (zero ways/size, or more than two
    /// sectors per tag).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.size_bytes > 0 && cfg.ways > 0 && cfg.line_bytes > 0);
        assert!(
            cfg.sectors_per_tag == 1 || cfg.sectors_per_tag == 2,
            "1 or 2 sectors per tag supported"
        );
        let sets = cfg.sets();
        let granule = cfg.line_bytes * cfg.sectors_per_tag;
        Cache {
            sets,
            granule_shift: granule.is_power_of_two().then(|| granule.trailing_zeros()),
            line_shift: cfg
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.line_bytes.trailing_zeros()),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            entries: vec![TagEntry::invalid(); (sets * cfg.ways as u64) as usize],
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn granule(&self) -> u64 {
        self.cfg.line_bytes * self.cfg.sectors_per_tag
    }

    #[inline]
    fn tag_addr(&self, addr: u64) -> u64 {
        match self.granule_shift {
            Some(s) => addr >> s,
            None => addr / self.granule(),
        }
    }

    #[inline]
    fn sector_of(&self, addr: u64) -> usize {
        // sectors_per_tag is 1 or 2 (asserted in `new`), so it is always
        // a power of two and the modulo can be a mask.
        let line = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.line_bytes,
        };
        (line & (self.cfg.sectors_per_tag - 1)) as usize
    }

    #[inline]
    fn set_of(&self, addr: u64) -> u64 {
        let t = self.tag_addr(addr);
        let h = t ^ (t >> 13);
        match self.set_mask {
            Some(mask) => h & mask,
            None => h % self.sets,
        }
    }

    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let t = self.tag_addr(addr);
        let base = (self.set_of(addr) * self.cfg.ways as u64) as usize;
        let sector = self.sector_of(addr);
        (base..base + self.cfg.ways)
            .find(|&i| self.entries[i].tag_addr == t && self.entries[i].sector_valid >> sector & 1 == 1)
    }

    /// Probe without side effects: is the 64 B line present?
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Probe whether the *buddy* sector of `addr` is valid under the same
    /// tag (Buddy prefetcher support; always false for unsectored caches).
    pub fn buddy_valid(&self, addr: u64) -> bool {
        if self.cfg.sectors_per_tag != 2 {
            return false;
        }
        let buddy = addr ^ self.cfg.line_bytes;
        self.probe(buddy)
    }

    /// Look up `addr`; on a hit, update replacement state and metadata.
    /// Returns hit.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        match self.find(addr) {
            Some(i) => {
                let sector = self.sector_of(addr);
                self.entries[i].rrpv = 0;
                match kind {
                    AccessKind::Demand => {
                        let m = &mut self.entries[i].meta[sector];
                        if m.prefetched && !m.demand_hit {
                            self.stats.useful_prefetch_hits += 1;
                        }
                        m.demand_hit = true;
                        if !m.second_pass {
                            m.reuse = m.reuse.saturating_add(1).min(3);
                        }
                        self.stats.demand_hits += 1;
                    }
                    AccessKind::Writeback => {
                        self.entries[i].sector_dirty |= 1 << sector;
                    }
                    _ => {
                        self.stats.prefetch_hits += 1;
                    }
                }
                true
            }
            None => {
                match kind {
                    AccessKind::Demand => self.stats.demand_misses += 1,
                    AccessKind::Writeback => {}
                    _ => self.stats.prefetch_misses += 1,
                }
                false
            }
        }
    }

    /// Fill the 64 B line at `addr`. Returns victims displaced by the fill
    /// (up to both sectors of an evicted sectored tag).
    pub fn fill(&mut self, addr: u64, kind: AccessKind, mut meta: LineMeta, priority: InsertPriority) -> Victims {
        if priority == InsertPriority::Bypass {
            return Victims::default();
        }
        self.stats.fills += 1;
        meta.prefetched = kind.is_prefetch();
        if kind == AccessKind::Demand {
            meta.demand_hit = true;
        }
        let t = self.tag_addr(addr);
        let sector = self.sector_of(addr);
        let base = (self.set_of(addr) * self.cfg.ways as u64) as usize;
        let insert_rrpv = match priority {
            InsertPriority::Elevated => 0,
            InsertPriority::Ordinary => 2,
            InsertPriority::Bypass => unreachable!("checked above"),
        };
        // Same tag already present (other sector valid, or refill)?
        if let Some(i) = (base..base + self.cfg.ways).find(|&i| self.entries[i].tag_addr == t) {
            let e = &mut self.entries[i];
            e.sector_valid |= 1 << sector;
            e.meta[sector] = meta;
            e.rrpv = e.rrpv.min(insert_rrpv);
            return Victims::default();
        }
        // SRRIP victim selection: a free way, else a way at RRPV 3 (aging
        // the set until one appears). Among RRPV-3 candidates, prefer
        // lines that a demand has already consumed over
        // prefetched-but-unconsumed ones — evicting the stream's past
        // rather than its prefetched future (§VIII.A's "preserve useful
        // data in the wake of transient streams").
        let victim_idx = loop {
            if let Some(i) = (base..base + self.cfg.ways).find(|&i| self.entries[i].sector_valid == 0) {
                break i;
            }
            // One scan, no candidate list: remember the first RRPV-3 way
            // and stop at the first fully demand-consumed one.
            let mut first = None;
            let mut consumed = None;
            for i in base..base + self.cfg.ways {
                if self.entries[i].rrpv < 3 {
                    continue;
                }
                if first.is_none() {
                    first = Some(i);
                }
                let e = &self.entries[i];
                if (0..self.cfg.sectors_per_tag as usize)
                    .filter(|&s| e.sector_valid >> s & 1 == 1)
                    .all(|s| e.meta[s].demand_hit)
                {
                    consumed = Some(i);
                    break;
                }
            }
            if let Some(i) = consumed.or(first) {
                break i;
            }
            for i in base..base + self.cfg.ways {
                self.entries[i].rrpv += 1;
            }
        };
        let mut victims = Victims::default();
        let granule = self.granule();
        {
            let e = &self.entries[victim_idx];
            if e.sector_valid != 0 {
                for s in 0..self.cfg.sectors_per_tag as usize {
                    if e.sector_valid >> s & 1 == 1 {
                        victims.push(Victim {
                            addr: e.tag_addr * granule + s as u64 * self.cfg.line_bytes,
                            meta: e.meta[s],
                            dirty: e.sector_dirty >> s & 1 == 1,
                        });
                    }
                }
                self.stats.evictions += victims.len() as u64;
            }
        }
        let e = &mut self.entries[victim_idx];
        *e = TagEntry::invalid();
        e.tag_addr = t;
        e.sector_valid = 1 << sector;
        e.meta[sector] = meta;
        e.rrpv = insert_rrpv;
        victims
    }

    /// Invalidate the 64 B line (exclusive-hierarchy swap). Returns its
    /// metadata if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<(LineMeta, bool)> {
        let i = self.find(addr)?;
        let sector = self.sector_of(addr);
        let e = &mut self.entries[i];
        let meta = e.meta[sector];
        let dirty = e.sector_dirty >> sector & 1 == 1;
        e.sector_valid &= !(1 << sector);
        e.sector_dirty &= !(1 << sector);
        if e.sector_valid == 0 {
            e.tag_addr = u64::MAX;
            e.rrpv = 3;
        }
        Some((meta, dirty))
    }

    /// Mark the line dirty (store hit).
    pub fn mark_dirty(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            let sector = self.sector_of(addr);
            self.entries[i].sector_dirty |= 1 << sector;
        }
    }

    /// Read a line's metadata (no side effects).
    pub fn meta(&self, addr: u64) -> Option<LineMeta> {
        self.find(addr).map(|i| self.entries[i].meta[self.sector_of(addr)])
    }

    /// Mark the line as demanded by an inner level (§VIII.A: reuse
    /// metadata "passed through request or response channels between the
    /// cache levels"). No hit statistics are charged.
    pub fn mark_demanded(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            let sector = self.sector_of(addr);
            let m = &mut self.entries[i].meta[sector];
            m.demand_hit = true;
            if !m.second_pass {
                m.reuse = m.reuse.saturating_add(1).min(3);
            }
        }
    }

    /// Number of valid 64 B lines resident.
    pub fn occupancy(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.sector_valid.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            sectors_per_tag: 1,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, AccessKind::Demand));
        c.fill(0x1000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert!(c.access(0x1000, AccessKind::Demand));
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 4 ways: fill 5 lines mapping to the same set (set stride =
        // sets*64).
        let sets = c.config().sets();
        let stride = sets * 64;
        for i in 0..5u64 {
            let a = 0x10_0000 + i * stride;
            c.access(a, AccessKind::Demand);
            c.fill(a, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        }
        assert!(!c.probe(0x10_0000), "oldest line evicted");
        assert!(c.probe(0x10_0000 + 4 * stride));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sectored_tags_share_one_tag() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            sectors_per_tag: 2,
            latency: 12,
        });
        c.fill(0x2000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert!(c.probe(0x2000));
        assert!(!c.probe(0x2040), "buddy sector invalid until filled");
        assert!(!c.buddy_valid(0x2040) == false || c.buddy_valid(0x2040));
        assert!(c.buddy_valid(0x2040), "0x2000 is 0x2040's buddy");
        // Filling the buddy does not evict anything (same tag).
        let v = c.fill(0x2040, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        assert!(v.is_empty());
        assert!(c.probe(0x2040));
    }

    #[test]
    fn eviction_of_sectored_tag_yields_both_victims() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 1,
            line_bytes: 64,
            sectors_per_tag: 2,
            latency: 12,
        });
        let sets = c.config().sets();
        let stride = sets * 128;
        c.fill(0x4000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        c.fill(0x4040, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        let v = c.fill(0x4000 + stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        assert_eq!(v.len(), 2, "both sectors evicted with the tag");
    }

    #[test]
    fn useful_prefetch_tracked_once() {
        let mut c = small();
        c.fill(0x3000, AccessKind::Prefetch, LineMeta::default(), InsertPriority::Ordinary);
        assert!(c.access(0x3000, AccessKind::Demand));
        assert!(c.access(0x3000, AccessKind::Demand));
        assert_eq!(c.stats().useful_prefetch_hits, 1);
    }

    #[test]
    fn reuse_counter_saturates_and_skips_second_pass() {
        let mut c = small();
        let mut meta = LineMeta::default();
        meta.second_pass = true;
        c.fill(0x3000, AccessKind::PrefetchFirstPass, meta, InsertPriority::Ordinary);
        for _ in 0..5 {
            c.access(0x3000, AccessKind::Demand);
        }
        assert_eq!(c.meta(0x3000).unwrap().reuse, 0, "second-pass lines don't mark reuse");
        c.fill(0x3040, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        for _ in 0..5 {
            c.access(0x3040, AccessKind::Demand);
        }
        assert_eq!(c.meta(0x3040).unwrap().reuse, 3, "saturates at 3");
    }

    #[test]
    fn elevated_insertion_resists_ordinary_stream() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
            sectors_per_tag: 1,
            latency: 30,
        });
        let sets = c.config().sets();
        let stride = sets * 64;
        // One elevated (hot) line.
        c.fill(0x8000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        // An ordinary transient stream through the same set.
        for i in 1..9u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Ordinary);
        }
        assert!(c.probe(0x8000), "elevated line survives a transient stream");
        // But protection ages out eventually — a cold elevated line cannot
        // pin its way forever.
        for i in 9..40u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), InsertPriority::Ordinary);
        }
        assert!(!c.probe(0x8000), "unreferenced elevated line ages out");
    }

    #[test]
    fn invalidate_supports_exclusive_swaps() {
        let mut c = small();
        c.fill(0x9000, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        c.mark_dirty(0x9000);
        let (meta, dirty) = c.invalidate(0x9000).unwrap();
        assert!(dirty);
        assert!(meta.demand_hit);
        assert!(!c.probe(0x9000));
        assert!(c.invalidate(0x9000).is_none());
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        for i in 0..10u64 {
            c.fill(0xA000 + i * 64, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
        }
        assert_eq!(c.occupancy(), 10);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn save_meta(enc: &mut Encoder, m: &LineMeta) {
        enc.bool(m.prefetched);
        enc.bool(m.demand_hit);
        enc.u8(m.reuse);
        enc.bool(m.second_pass);
    }

    fn load_meta(dec: &mut Decoder<'_>) -> Result<LineMeta, SnapshotError> {
        Ok(LineMeta {
            prefetched: dec.bool()?,
            demand_hit: dec.bool()?,
            reuse: dec.u8()?,
            second_pass: dec.bool()?,
        })
    }

    impl Snapshot for Cache {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::CACHE);
            enc.seq(self.entries.len());
            for e in &self.entries {
                enc.u64(e.tag_addr);
                enc.u8(e.sector_valid);
                enc.u8(e.sector_dirty);
                for m in &e.meta {
                    save_meta(enc, m);
                }
                enc.u8(e.rrpv);
            }
            enc.u64(self.stats.demand_hits);
            enc.u64(self.stats.demand_misses);
            enc.u64(self.stats.prefetch_hits);
            enc.u64(self.stats.prefetch_misses);
            enc.u64(self.stats.fills);
            enc.u64(self.stats.evictions);
            enc.u64(self.stats.useful_prefetch_hits);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::CACHE)?;
            let n = dec.seq(1)?;
            if n != self.entries.len() {
                return Err(SnapshotError::Geometry {
                    what: "cache tag array",
                    expected: self.entries.len() as u64,
                    found: n as u64,
                });
            }
            for e in &mut self.entries {
                e.tag_addr = dec.u64()?;
                e.sector_valid = dec.u8()?;
                e.sector_dirty = dec.u8()?;
                for m in &mut e.meta {
                    *m = load_meta(dec)?;
                }
                e.rrpv = dec.u8()?;
            }
            self.stats.demand_hits = dec.u64()?;
            self.stats.demand_misses = dec.u64()?;
            self.stats.prefetch_hits = dec.u64()?;
            self.stats.prefetch_misses = dec.u64()?;
            self.stats.fills = dec.u64()?;
            self.stats.evictions = dec.u64()?;
            self.stats.useful_prefetch_hits = dec.u64()?;
            dec.end_section()
        }
    }
}
