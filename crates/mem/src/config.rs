//! Per-generation memory-hierarchy geometry (Table I / Table III).

use crate::cache::CacheConfig;
use crate::tlb::TlbHierarchyConfig;

/// One generation's cache/TLB/miss-buffer geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MemGenConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 cache (sectored tags from M4 on, enabling the Buddy prefetcher).
    pub l2: CacheConfig,
    /// L3 cache (M3+), exclusive of the inner levels.
    pub l3: Option<CacheConfig>,
    /// Outstanding L1 misses (fill buffers / MABs): 8 → 10 → 12 → 32 → 40.
    pub miss_buffers: usize,
    /// Translation hierarchy.
    pub tlb: TlbHierarchyConfig,
}

impl MemGenConfig {
    /// M1: 32 KB L1D, shared 2 MB L2 at 22 cycles, no L3, 8 fill buffers.
    pub fn m1() -> MemGenConfig {
        MemGenConfig {
            l1i: CacheConfig { size_bytes: 64 << 10, ways: 4, sectors_per_tag: 1, latency: 0 },
            l1d: CacheConfig { size_bytes: 32 << 10, ways: 8, sectors_per_tag: 1, latency: 4 },
            l2: CacheConfig { size_bytes: 2048 << 10, ways: 16, sectors_per_tag: 1, latency: 22 },
            l3: None,
            miss_buffers: 8,
            tlb: TlbHierarchyConfig::m1(),
        }
    }

    /// M2: M1's caches (§III: "no significant resource changes") with
    /// deeper miss queues — "a number of deeper queues not shown in
    /// Table I" — modeled as 10 fill buffers.
    pub fn m2() -> MemGenConfig {
        MemGenConfig { miss_buffers: 10, ..MemGenConfig::m1() }
    }

    /// M3: 64 KB L1D, private 512 KB L2 at 12 cycles, 4 MB L3 at 37, 12
    /// MABs.
    pub fn m3() -> MemGenConfig {
        MemGenConfig {
            l1d: CacheConfig { size_bytes: 64 << 10, ways: 8, sectors_per_tag: 1, latency: 4 },
            l2: CacheConfig { size_bytes: 512 << 10, ways: 8, sectors_per_tag: 1, latency: 12 },
            l3: Some(CacheConfig { size_bytes: 4096 << 10, ways: 16, sectors_per_tag: 1, latency: 37 }),
            miss_buffers: 12,
            tlb: TlbHierarchyConfig::m3(),
            ..MemGenConfig::m1()
        }
    }

    /// M4: 1 MB sectored L2, 3 MB L3, MAB (32).
    pub fn m4() -> MemGenConfig {
        MemGenConfig {
            l1d: CacheConfig { size_bytes: 64 << 10, ways: 4, sectors_per_tag: 1, latency: 4 },
            l2: CacheConfig { size_bytes: 1024 << 10, ways: 8, sectors_per_tag: 2, latency: 12 },
            l3: Some(CacheConfig { size_bytes: 3072 << 10, ways: 16, sectors_per_tag: 1, latency: 37 }),
            miss_buffers: 32,
            tlb: TlbHierarchyConfig::m4(),
            ..MemGenConfig::m3()
        }
    }

    /// M5: 2 MB shared-by-2 L2 at ~14 cycles, 3 MB L3 at 30.
    pub fn m5() -> MemGenConfig {
        MemGenConfig {
            l2: CacheConfig { size_bytes: 2048 << 10, ways: 8, sectors_per_tag: 2, latency: 14 },
            l3: Some(CacheConfig { size_bytes: 3072 << 10, ways: 12, sectors_per_tag: 1, latency: 30 }),
            ..MemGenConfig::m4()
        }
    }

    /// M6: 128 KB L1s, 2 MB L2, 4 MB L3, 40 MABs.
    pub fn m6() -> MemGenConfig {
        MemGenConfig {
            l1i: CacheConfig { size_bytes: 128 << 10, ways: 4, sectors_per_tag: 1, latency: 0 },
            l1d: CacheConfig { size_bytes: 128 << 10, ways: 8, sectors_per_tag: 1, latency: 4 },
            l3: Some(CacheConfig { size_bytes: 4096 << 10, ways: 16, sectors_per_tag: 1, latency: 30 }),
            miss_buffers: 40,
            tlb: TlbHierarchyConfig::m6(),
            ..MemGenConfig::m5()
        }
    }

    /// All six generations in order.
    pub fn all_generations() -> Vec<MemGenConfig> {
        vec![
            MemGenConfig::m1(),
            MemGenConfig::m2(),
            MemGenConfig::m3(),
            MemGenConfig::m4(),
            MemGenConfig::m5(),
            MemGenConfig::m6(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_l2_l3_sizes() {
        // Table III: (L2 KB, L3 KB).
        let expect = [(2048, 0u64), (2048, 0), (512, 4096), (1024, 3072), (2048, 3072), (2048, 4096)];
        for (cfg, (l2, l3)) in MemGenConfig::all_generations().iter().zip(expect) {
            assert_eq!(cfg.l2.size_bytes >> 10, l2);
            assert_eq!(cfg.l3.map(|c| c.size_bytes >> 10).unwrap_or(0), l3);
        }
    }

    #[test]
    fn miss_buffer_growth_matches_paper() {
        let growth: Vec<usize> = MemGenConfig::all_generations().iter().map(|c| c.miss_buffers).collect();
        assert_eq!(growth, vec![8, 10, 12, 32, 32, 40]);
    }

    #[test]
    fn sectored_l2_from_m4() {
        assert_eq!(MemGenConfig::m3().l2.sectors_per_tag, 1);
        assert_eq!(MemGenConfig::m4().l2.sectors_per_tag, 2);
        assert_eq!(MemGenConfig::m6().l2.sectors_per_tag, 2);
    }

    #[test]
    fn l1d_growth() {
        assert_eq!(MemGenConfig::m1().l1d.size_bytes, 32 << 10);
        assert_eq!(MemGenConfig::m3().l1d.size_bytes, 64 << 10);
        assert_eq!(MemGenConfig::m6().l1d.size_bytes, 128 << 10);
    }
}
