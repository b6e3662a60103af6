//! Property tests on cache arrays, TLBs and miss buffers.

use exynos_mem::{AccessKind, Cache, CacheConfig, InsertPriority, LineMeta, MissBuffers, Tlb, TlbConfig};
use proptest::prelude::*;

fn small_cache(sectors: u64) -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 8192,
        ways: 4,
        sectors_per_tag: sectors,
        latency: 4,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Occupancy never exceeds capacity and a filled line is immediately
    /// probeable, under arbitrary fill/invalidate mixes.
    #[test]
    fn cache_occupancy_and_residency(
        ops in prop::collection::vec((0u64..4096, any::<bool>()), 300),
        sectors in 1u64..3,
    ) {
        let mut c = small_cache(sectors);
        let lines_cap = 8192 / 64;
        for (line, fill) in ops {
            let addr = line * 64;
            if fill {
                c.fill(addr, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Elevated);
                prop_assert!(c.probe(addr), "fill must leave the line resident");
            } else {
                let _ = c.invalidate(addr);
                prop_assert!(!c.probe(addr), "invalidate must remove the line");
            }
            prop_assert!(c.lines().count() <= lines_cap as usize);
        }
    }

    /// Every eviction is reported: fills(with victims) conserve lines —
    /// occupancy == fills - evictions - invalidations (per 64 B line).
    #[test]
    fn cache_line_conservation(lines in prop::collection::vec(0u64..8192, 400)) {
        let mut c = small_cache(1);
        let mut filled = 0i64;
        let mut evicted = 0i64;
        for line in lines {
            let addr = line * 64;
            if !c.probe(addr) {
                let victims = c.fill(addr, AccessKind::Demand, LineMeta::default(), false, InsertPriority::Ordinary);
                filled += 1;
                evicted += victims.len() as i64;
            }
        }
        prop_assert_eq!(c.lines().count() as i64, filled - evicted);
    }

    /// Bypass-priority fills never allocate.
    #[test]
    fn bypass_never_allocates(lines in prop::collection::vec(0u64..1024, 50)) {
        let mut c = small_cache(1);
        for line in lines {
            let v = c.fill(line * 64, AccessKind::Prefetch, LineMeta::default(), false, InsertPriority::Bypass);
            prop_assert!(v.is_empty());
            prop_assert!(!c.probe(line * 64));
        }
        prop_assert_eq!(c.lines().count(), 0);
    }

    /// TLB: a translation hit follows every fill; sectored entries never
    /// leak translations for pages that were not filled.
    #[test]
    fn tlb_fill_then_hit(pages in prop::collection::vec(0u64..100_000, 100)) {
        let mut t = Tlb::new(TlbConfig { entries: 32, ways: 4, sectors: 4, latency: 2 });
        for p in &pages {
            let va = p << 12;
            t.fill(va);
            prop_assert!(t.access(va), "freshly filled page must hit");
        }
    }

    /// Miss buffers: occupancy is bounded by capacity at every instant and
    /// allocation succeeds iff a slot is free.
    #[test]
    fn miss_buffers_bounded(reqs in prop::collection::vec((0u64..1000, 1u64..200), 100), cap in 1usize..16) {
        let mut m = MissBuffers::new(cap);
        for (now, dur) in reqs {
            let occupied_before = m.occupancy(now);
            let ok = m.try_allocate(now, now + dur);
            prop_assert_eq!(ok, occupied_before < cap);
            prop_assert!(m.occupancy(now) <= cap);
            prop_assert!(m.earliest_free(now) >= now);
        }
    }
}
