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

use exynos_snapshot::LazySets;

/// The data line size in bytes, 64 throughout the paper and in every
/// generation: the one home of the line size for caches, prefetchers and
/// the core's fetch-line tracking.
pub const LINE_BYTES: u64 = 64;

/// `log2(LINE_BYTES)`.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

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
    /// Tag-sector factor: 1 = one tag per line; 2 = 128 B-sectored tags
    /// (two 64 B sectors share a tag, §VIII.B).
    pub sectors_per_tag: u64,
    /// Access latency in cycles (hit).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of tag entries.
    pub fn tags(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.sectors_per_tag)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.tags() / self.ways as u64).max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Whether this entry holds sector `sector` of tag granule `t`.
    #[inline]
    fn holds(&self, t: u64, sector: usize) -> bool {
        self.tag_addr == t && self.sector_valid >> sector & 1 == 1
    }

    /// The replacement and metadata effects of a hit on `sector` by
    /// `kind`, charged to `stats`.
    #[inline]
    fn touch(&mut self, sector: usize, kind: AccessKind, stats: &mut CacheStats) {
        self.rrpv = 0;
        match kind {
            AccessKind::Demand => {
                let m = &mut self.meta[sector];
                if m.prefetched && !m.demand_hit {
                    stats.useful_prefetch_hits += 1;
                }
                m.demand_hit = true;
                if !m.second_pass {
                    m.reuse = m.reuse.saturating_add(1).min(3);
                }
                stats.demand_hits += 1;
            }
            AccessKind::Writeback => {
                self.sector_dirty |= 1 << sector;
            }
            _ => {
                stats.prefetch_hits += 1;
            }
        }
    }

    /// The valid sectors as lines, each with its metadata and dirtiness.
    #[inline]
    fn lines(&self, sectors: usize, granule_shift: u32) -> impl Iterator<Item = Victim> + '_ {
        (0..sectors).filter(move |&s| self.sector_valid >> s & 1 == 1).map(move |s| Victim {
            addr: (self.tag_addr << granule_shift) + s as u64 * LINE_BYTES,
            meta: self.meta[s],
            dirty: self.sector_dirty >> s & 1 == 1,
        })
    }

    /// Drop sector `sector`, freeing the tag when no sector is left.
    /// Returns the sector's metadata and dirtiness.
    #[inline]
    fn take_sector(&mut self, sector: usize) -> (LineMeta, bool) {
        let meta = self.meta[sector];
        let dirty = self.sector_dirty >> sector & 1 == 1;
        self.sector_valid &= !(1 << sector);
        self.sector_dirty &= !(1 << sector);
        if self.sector_valid == 0 {
            self.tag_addr = u64::MAX;
            self.rrpv = 3;
        }
        (meta, dirty)
    }
}

/// The entry of `set` holding sector `sector` of granule `t`.
#[inline]
fn hit_mut(set: Option<&mut [TagEntry]>, t: u64, sector: usize) -> Option<&mut TagEntry> {
    set?.iter_mut().find(|e| e.holds(t, sector))
}

exynos_telemetry::counters! {
    /// Access statistics for one cache.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats in "mem.cache" {
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
}

impl CacheStats {
    /// Charge a miss by `kind` (writebacks are not counted).
    #[inline]
    fn miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Demand => self.demand_misses += 1,
            AccessKind::Writeback => {}
            _ => self.prefetch_misses += 1,
        }
    }
}

/// A set-associative, optionally sectored, write-back cache array with
/// SRRIP replacement.
///
/// The tag array is a [`LazySets`]: a set is stored only once a fill
/// first writes it, so building or cloning a mostly empty L2 or L3 costs
/// its directory, not its capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2` of the tag granule, `LINE_BYTES × sectors_per_tag`: a
    /// power of two, since `sectors_per_tag` is 1 or 2.
    granule_shift: u32,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    entries: LazySets<TagEntry>,
    stats: CacheStats,
}

impl Cache {
    /// Why [`Cache::new`] would reject `c`, if it would.
    pub fn defect(c: &CacheConfig) -> Option<String> {
        if c.size_bytes == 0 || c.ways == 0 {
            Some(format!("{} bytes in {} ways holds no line", c.size_bytes, c.ways))
        } else if !matches!(c.sectors_per_tag, 1 | 2) {
            Some(format!("{} sectors per tag (1 or 2 supported)", c.sectors_per_tag))
        } else {
            None
        }
    }

    /// Build a cache from `cfg`.
    ///
    /// # Panics
    /// Panics if [`Cache::defect`] rejects `cfg`.
    pub fn new(cfg: CacheConfig) -> Cache {
        let defect = Cache::defect(&cfg);
        assert!(defect.is_none(), "cache geometry: {defect:?}");
        let sets = cfg.sets();
        Cache {
            granule_shift: LINE_SHIFT + cfg.sectors_per_tag.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            entries: LazySets::new(sets as usize, cfg.ways, TagEntry::invalid()),
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

    #[inline]
    fn tag_addr(&self, addr: u64) -> u64 {
        addr >> self.granule_shift
    }

    #[inline]
    fn sector_of(&self, addr: u64) -> usize {
        // sectors_per_tag is 1 or 2 (asserted in `new`), so it is always
        // a power of two and the modulo can be a mask.
        ((addr >> LINE_SHIFT) & (self.cfg.sectors_per_tag - 1)) as usize
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        let t = self.tag_addr(addr);
        let h = t ^ (t >> 13);
        (match self.set_mask {
            Some(mask) => h & mask,
            None => h % self.entries.sets() as u64,
        }) as usize
    }

    /// `addr`'s (set, tag granule, sector).
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64, usize) {
        (self.set_of(addr), self.tag_addr(addr), self.sector_of(addr))
    }

    /// Probe without side effects: is the 64 B line present?
    pub fn probe(&self, addr: u64) -> bool {
        let (s, t, sector) = self.locate(addr);
        self.entries.set(s).iter().any(|e| e.holds(t, sector))
    }

    /// Probe whether the *buddy* sector of `addr` is valid under the same
    /// tag (Buddy prefetcher support; always false for unsectored caches).
    pub fn buddy_valid(&self, addr: u64) -> bool {
        if self.cfg.sectors_per_tag != 2 {
            return false;
        }
        let buddy = addr ^ LINE_BYTES;
        self.probe(buddy)
    }

    /// Look up `addr`; on a hit, update replacement state and metadata.
    /// Returns the line's metadata from before the access on a hit,
    /// `None` on a miss.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> Option<LineMeta> {
        let (s, t, sector) = self.locate(addr);
        match hit_mut(self.entries.written_mut(s), t, sector) {
            Some(e) => {
                let before = e.meta[sector];
                e.touch(sector, kind, &mut self.stats);
                Some(before)
            }
            None => {
                self.stats.miss(kind);
                None
            }
        }
    }

    /// A demand store: [`Cache::access`] with [`AccessKind::Demand`] that
    /// also marks the line dirty on a hit, in one set scan. Returns hit.
    pub fn store(&mut self, addr: u64) -> bool {
        let (s, t, sector) = self.locate(addr);
        match hit_mut(self.entries.written_mut(s), t, sector) {
            Some(e) => {
                e.touch(sector, AccessKind::Demand, &mut self.stats);
                e.sector_dirty |= 1 << sector;
                true
            }
            None => {
                self.stats.miss(AccessKind::Demand);
                false
            }
        }
    }

    /// [`Cache::access`] then [`Cache::invalidate`] in one set scan (the
    /// exclusive-hierarchy swap out of this level). Returns the line's
    /// metadata after the access and its dirtiness on a hit.
    pub fn access_and_take(&mut self, addr: u64, kind: AccessKind) -> Option<(LineMeta, bool)> {
        let (s, t, sector) = self.locate(addr);
        match hit_mut(self.entries.written_mut(s), t, sector) {
            Some(e) => {
                e.touch(sector, kind, &mut self.stats);
                Some(e.take_sector(sector))
            }
            None => {
                self.stats.miss(kind);
                None
            }
        }
    }

    /// Fill the 64 B line at `addr`, dirty if `dirty` (a refill keeps a
    /// dirty bit it finds). Returns victims displaced by the fill (up to
    /// both sectors of an evicted sectored tag).
    pub fn fill(
        &mut self,
        addr: u64,
        kind: AccessKind,
        mut meta: LineMeta,
        dirty: bool,
        priority: InsertPriority,
    ) -> Victims {
        if priority == InsertPriority::Bypass {
            return Victims::default();
        }
        self.stats.fills += 1;
        meta.prefetched = kind.is_prefetch();
        if kind == AccessKind::Demand {
            meta.demand_hit = true;
        }
        let (s, t, sector) = self.locate(addr);
        let granule_shift = self.granule_shift;
        let sectors = self.cfg.sectors_per_tag as usize;
        let insert_rrpv = match priority {
            InsertPriority::Elevated => 0,
            InsertPriority::Ordinary => 2,
            InsertPriority::Bypass => unreachable!("checked above"),
        };
        let dirty_bit = u8::from(dirty) << sector;
        let set = self.entries.set_mut(s);
        // Same tag already present (other sector valid, or refill)?
        if let Some(e) = set.iter_mut().find(|e| e.tag_addr == t) {
            e.sector_valid |= 1 << sector;
            e.sector_dirty |= dirty_bit;
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
        let victim_way = loop {
            if let Some(w) = set.iter().position(|e| e.sector_valid == 0) {
                break w;
            }
            // One scan, no candidate list: remember the first RRPV-3 way
            // and stop at the first fully demand-consumed one.
            let mut first = None;
            let mut consumed = None;
            for (w, e) in set.iter().enumerate() {
                if e.rrpv < 3 {
                    continue;
                }
                if first.is_none() {
                    first = Some(w);
                }
                if (0..sectors)
                    .filter(|&s| e.sector_valid >> s & 1 == 1)
                    .all(|s| e.meta[s].demand_hit)
                {
                    consumed = Some(w);
                    break;
                }
            }
            if let Some(w) = consumed.or(first) {
                break w;
            }
            for e in set.iter_mut() {
                e.rrpv += 1;
            }
        };
        let mut victims = Victims::default();
        let e = &mut set[victim_way];
        for v in e.lines(sectors, granule_shift) {
            victims.push(v);
        }
        self.stats.evictions += victims.len() as u64;
        *e = TagEntry::invalid();
        e.tag_addr = t;
        e.sector_valid = 1 << sector;
        e.sector_dirty = dirty_bit;
        e.meta[sector] = meta;
        e.rrpv = insert_rrpv;
        victims
    }

    /// Invalidate the 64 B line (exclusive-hierarchy swap). Returns its
    /// metadata if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<(LineMeta, bool)> {
        let (s, t, sector) = self.locate(addr);
        hit_mut(self.entries.written_mut(s), t, sector).map(|e| e.take_sector(sector))
    }

    /// Mark the line dirty if it is present (an inner level's dirty
    /// victim). Returns whether it was.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (s, t, sector) = self.locate(addr);
        match hit_mut(self.entries.written_mut(s), t, sector) {
            Some(e) => {
                e.sector_dirty |= 1 << sector;
                true
            }
            None => false,
        }
    }

    /// Mark the line as demanded by an inner level (§VIII.A: reuse
    /// metadata "passed through request or response channels between the
    /// cache levels"). No hit statistics are charged.
    pub fn mark_demanded(&mut self, addr: u64) {
        let (s, t, sector) = self.locate(addr);
        if let Some(e) = hit_mut(self.entries.written_mut(s), t, sector) {
            let m = &mut e.meta[sector];
            m.demand_hit = true;
            if !m.second_pass {
                m.reuse = m.reuse.saturating_add(1).min(3);
            }
        }
    }

    /// Every resident 64 B line as (line address, metadata, dirty), over
    /// the written sets in no particular order.
    pub fn lines(&self) -> impl Iterator<Item = (u64, LineMeta, bool)> + '_ {
        let sectors = self.cfg.sectors_per_tag as usize;
        self.entries
            .written()
            .flatten()
            .flat_map(move |e| e.lines(sectors, self.granule_shift))
            .map(|v| (v.addr, v.meta, v.dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 4,
            sectors_per_tag: 1,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(c.access(0x1000, AccessKind::Demand).is_none());
        c.fill(0x1000, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        assert!(c.access(0x1000, AccessKind::Demand).is_some());
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
            c.fill(a, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
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
            sectors_per_tag: 2,
            latency: 12,
        });
        c.fill(0x2000, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        assert!(c.probe(0x2000));
        assert!(!c.probe(0x2040), "buddy sector invalid until filled");
        assert!(!c.buddy_valid(0x2040) == false || c.buddy_valid(0x2040));
        assert!(c.buddy_valid(0x2040), "0x2000 is 0x2040's buddy");
        // Filling the buddy does not evict anything (same tag).
        let v = c.fill(0x2040, AccessKind::Prefetch, LineMeta::default(), false, InsertPriority::Ordinary);
        assert!(v.is_empty());
        assert!(c.probe(0x2040));
    }

    #[test]
    fn eviction_of_sectored_tag_yields_both_victims() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 1,
            sectors_per_tag: 2,
            latency: 12,
        });
        let sets = c.config().sets();
        let stride = sets * 128;
        c.fill(0x4000, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        c.fill(0x4040, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        let v = c.fill(0x4000 + stride, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        assert_eq!(v.len(), 2, "both sectors evicted with the tag");
    }

    #[test]
    fn useful_prefetch_tracked_once() {
        let mut c = small();
        c.fill(0x3000, AccessKind::Prefetch, LineMeta::default(), false, InsertPriority::Ordinary);
        assert!(c.access(0x3000, AccessKind::Demand).is_some());
        assert!(c.access(0x3000, AccessKind::Demand).is_some());
        assert_eq!(c.stats().useful_prefetch_hits, 1);
    }

    #[test]
    fn reuse_counter_saturates_and_skips_second_pass() {
        let mut c = small();
        let mut meta = LineMeta::default();
        meta.second_pass = true;
        c.fill(0x3000, AccessKind::PrefetchFirstPass, meta, false, InsertPriority::Ordinary);
        for _ in 0..5 {
            c.access(0x3000, AccessKind::Demand);
        }
        let reuse = |c: &mut Cache, a| c.access(a, AccessKind::Demand).unwrap().reuse;
        assert_eq!(reuse(&mut c, 0x3000), 0, "second-pass lines don't mark reuse");
        c.fill(0x3040, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        for _ in 0..5 {
            c.access(0x3040, AccessKind::Demand);
        }
        assert_eq!(reuse(&mut c, 0x3040), 3, "saturates at 3");
    }

    #[test]
    fn elevated_insertion_resists_ordinary_stream() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            sectors_per_tag: 1,
            latency: 30,
        });
        let sets = c.config().sets();
        let stride = sets * 64;
        // One elevated (hot) line.
        c.fill(0x8000, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        // An ordinary transient stream through the same set.
        for i in 1..9u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Ordinary);
        }
        assert!(c.probe(0x8000), "elevated line survives a transient stream");
        // But protection ages out eventually — a cold elevated line cannot
        // pin its way forever.
        for i in 9..40u64 {
            c.fill(0x8000 + i * stride, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Ordinary);
        }
        assert!(!c.probe(0x8000), "unreferenced elevated line ages out");
    }

    #[test]
    fn invalidate_supports_exclusive_swaps() {
        let mut c = small();
        c.fill(0x9000, AccessKind::Demand, LineMeta::default(), true, InsertPriority::Elevated);
        let (meta, dirty) = c.invalidate(0x9000).unwrap();
        assert!(dirty);
        assert!(meta.demand_hit);
        assert!(!c.probe(0x9000));
        assert!(c.invalidate(0x9000).is_none());
    }

    #[test]
    fn access_returns_the_metadata_from_before_it() {
        let mut c = small();
        assert_eq!(c.access(0x3000, AccessKind::Demand), None);
        c.fill(0x3000, AccessKind::Prefetch, LineMeta::default(), false, InsertPriority::Ordinary);
        let m = c.access(0x3000, AccessKind::Demand).unwrap();
        assert!(m.prefetched && !m.demand_hit && m.reuse == 0);
        let m = c.access(0x3000, AccessKind::Demand).unwrap();
        assert!(m.demand_hit && m.reuse == 1);
    }

    /// The snapshot image of `c`: every tag, bit of metadata and counter.
    fn image(c: &Cache) -> Vec<u8> {
        let mut e = exynos_snapshot::Encoder::new();
        exynos_snapshot::Snapshot::save(c, &mut e);
        e.finish()
    }

    #[test]
    fn fused_calls_match_the_pairs_they_replace() {
        let mut a = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            sectors_per_tag: 2,
            latency: 12,
        });
        let stride = a.config().sets() * 128;
        for i in 0..6u64 {
            let kind = if i % 2 == 0 { AccessKind::Prefetch } else { AccessKind::Demand };
            a.fill(0x4000 + i * stride, kind, LineMeta::default(), false, InsertPriority::Ordinary);
            a.fill(0x4040 + i * stride, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Ordinary);
        }
        let mut b = a.clone();
        for i in 0..8u64 {
            // Lines 4 and 5 are resident, 3 was evicted.
            let addr = 0x4000 + (3 + i % 3) * stride + (i / 3 % 2) * 64;
            let kind = if i % 4 == 1 { AccessKind::Prefetch } else { AccessKind::Demand };
            a.access(addr, kind);
            b.access(addr, kind);
            // store = demand access + mark_dirty.
            let hit = a.access(addr + 8, AccessKind::Demand).is_some();
            if hit {
                assert!(a.mark_dirty(addr + 8));
            }
            assert_eq!(b.store(addr + 8), hit);
            assert_eq!(image(&a), image(&b));
        }
        let mut takes = 0;
        for i in 0..8u64 {
            let addr = 0x4000 + i * stride + 64;
            let taken = match a.access(addr, AccessKind::Demand) {
                Some(_) => a.invalidate(addr),
                None => None,
            };
            takes += usize::from(taken.is_some());
            assert_eq!(b.access_and_take(addr, AccessKind::Demand), taken);
            assert_eq!(image(&a), image(&b));
        }
        assert!(takes > 0 && takes < 8, "both outcomes covered: {takes}");
        assert!(b.stats().demand_hits > 0 && b.stats().prefetch_hits > 0);
    }

    #[test]
    fn lines_lists_the_valid_lines() {
        let mut c = small();
        for i in 0..10u64 {
            c.fill(0xA000 + i * 64, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        }
        assert_eq!(c.lines().count(), 10);
        let mut addrs: Vec<u64> = c.lines().map(|(a, _, _)| a).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..10u64).map(|i| 0xA000 + i * 64).collect::<Vec<_>>());
    }

    #[test]
    fn fills_carry_dirtiness() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            sectors_per_tag: 2,
            latency: 12,
        });
        let dirty = |c: &Cache, a: u64| c.lines().find(|l| l.0 == a).map(|l| l.2);
        c.fill(0x2000, AccessKind::Writeback, LineMeta::default(), true, InsertPriority::Ordinary);
        c.fill(0x2040, AccessKind::Prefetch, LineMeta::default(), false, InsertPriority::Ordinary);
        assert_eq!((dirty(&c, 0x2000), dirty(&c, 0x2040)), (Some(true), Some(false)));
        // A clean refill keeps the dirty bit; a dirty one sets it.
        c.fill(0x2000, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        c.fill(0x2040, AccessKind::Writeback, LineMeta::default(), true, InsertPriority::Ordinary);
        assert_eq!((dirty(&c, 0x2000), dirty(&c, 0x2040)), (Some(true), Some(true)));
        assert_eq!(c.invalidate(0x2040).map(|t| t.1), Some(true));
        // Re-filling a freed sector of a live tag starts it clean.
        c.fill(0x2040, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
        assert_eq!(dirty(&c, 0x2040), Some(false));
        assert!(c.mark_dirty(0x2040));
        assert!(!c.mark_dirty(0x3000), "an absent line is not marked");
        assert_eq!(dirty(&c, 0x2040), Some(true));
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { Cache [tags::CACHE] { entries: Fixed("cache tag array"), stats } }
    layout! { TagEntry { tag_addr, sector_valid, sector_dirty, meta, rrpv } }
    layout! { LineMeta { prefetched, demand_hit, reuse, second_pass } }
}
