//! The composed L1 data prefetcher (§VII): address re-order buffer +
//! duplicate filter feeding the multi-stride engine, with the SMS engine
//! alongside from M3, and stride-over-SMS arbitration.

use crate::reorder::AddressReorderBuffer;
use crate::sms::{SmsConfig, SmsEngine, SmsTarget};
use crate::stride::{MultiStrideEngine, StrideConfig};
use exynos_mem::LINE_BYTES;

/// One prefetch produced by the L1 engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1PrefetchRequest {
    /// 64 B line address (virtual; the engine works on virtual addresses
    /// and may cross pages, §VII.A).
    pub line: u64,
    /// Whether the line should be brought all the way into the L1 (false
    /// = first-pass / L2-only, used by low-confidence SMS offsets).
    pub into_l1: bool,
}

/// Configuration of the composed engine.
#[derive(Debug, Clone, PartialEq)]
pub struct L1PrefetcherConfig {
    /// Multi-stride engine tuning.
    pub stride: StrideConfig,
    /// SMS engine (M3+); `None` on M1/M2.
    pub sms: Option<SmsConfig>,
    /// Address re-order buffer capacity.
    pub reorder_capacity: usize,
    /// Duplicate-filter depth.
    pub filter_depth: usize,
}

impl L1PrefetcherConfig {
    /// M1/M2: multi-stride with queue confirmation, no SMS.
    pub fn m1() -> L1PrefetcherConfig {
        L1PrefetcherConfig {
            stride: StrideConfig::m1(),
            sms: None,
            reorder_capacity: 16,
            filter_depth: 8,
        }
    }

    /// M3+: integrated confirmation and the SMS engine.
    pub fn m3() -> L1PrefetcherConfig {
        L1PrefetcherConfig {
            stride: StrideConfig::m3(),
            sms: Some(SmsConfig::default()),
            reorder_capacity: 24,
            filter_depth: 8,
        }
    }
}

/// The composed L1 prefetcher.
#[derive(Debug, Clone)]
pub struct L1Prefetcher {
    reorder: AddressReorderBuffer,
    stride: MultiStrideEngine,
    sms: Option<SmsEngine>,
    seq: u64,
}

impl L1Prefetcher {
    /// Build the composed engine.
    pub fn new(cfg: &L1PrefetcherConfig) -> L1Prefetcher {
        L1Prefetcher {
            reorder: AddressReorderBuffer::new(cfg.reorder_capacity, cfg.filter_depth),
            stride: MultiStrideEngine::new(cfg.stride.clone()),
            sms: cfg.sms.clone().map(SmsEngine::new),
            seq: 0,
        }
    }

    /// Stride-engine statistics.
    pub fn stride_stats(&self) -> crate::stride::StrideStats {
        self.stride.stats()
    }

    /// SMS statistics (zeroes if absent).
    pub fn sms_stats(&self) -> crate::sms::SmsStats {
        self.sms.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Address re-order buffer statistics.
    pub fn reorder_stats(&self) -> crate::reorder::ReorderStats {
        self.reorder.stats()
    }

    /// Observe a demand L1 miss by the load at `pc` to `vaddr`; returns
    /// the prefetch requests to issue.
    pub fn on_demand_miss(&mut self, pc: u64, vaddr: u64) -> Vec<L1PrefetchRequest> {
        let mut out = Vec::new();
        self.on_demand_miss_into(pc, vaddr, &mut out);
        out
    }

    /// As [`L1Prefetcher::on_demand_miss`], but writing the requests into
    /// `out` (cleared first) so callers can reuse one buffer across misses
    /// instead of allocating per call.
    pub fn on_demand_miss_into(&mut self, pc: u64, vaddr: u64, out: &mut Vec<L1PrefetchRequest>) {
        out.clear();
        let line = vaddr / LINE_BYTES;
        let seq = self.seq;
        self.seq += 1;
        // Stride path: through the re-order buffer + duplicate filter.
        for released in self.reorder.insert(seq, line) {
            for pf in self.stride.on_demand_line(released) {
                out.push(L1PrefetchRequest {
                    line: pf,
                    into_l1: true,
                });
            }
        }
        // SMS path, suppressed while the stride engine is confirming.
        if let Some(sms) = &mut self.sms {
            let suppress = self.stride.any_locked();
            for pf in sms.on_demand_miss(pc, vaddr, suppress) {
                out.push(L1PrefetchRequest {
                    line: pf.line,
                    into_l1: pf.target == SmsTarget::L1,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_workload_prefetches_via_stride_engine() {
        let mut p = L1Prefetcher::new(&L1PrefetcherConfig::m3());
        let mut got = Vec::new();
        for i in 0..64u64 {
            got.extend(p.on_demand_miss(0x4000, 0x10_0000 + i * 128));
        }
        assert!(!got.is_empty());
        assert!(p.stride_stats().locks >= 1);
        // SMS stayed quiet: stride arbitration suppressed it.
        assert!(p.sms_stats().l1_prefetches == 0);
    }

    #[test]
    fn spatial_workload_prefetches_via_sms() {
        let mut p = L1Prefetcher::new(&L1PrefetcherConfig::m3());
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut got = Vec::new();
        // Irregular region order, recurring offsets {0, 5, 9}.
        for _ in 0..80 {
            let region: u64 = rng.gen_range(0..4096);
            let base = region * 4096;
            got.extend(p.on_demand_miss(0x4000, base));
            got.extend(p.on_demand_miss(0x4010, base + 5 * 64));
            got.extend(p.on_demand_miss(0x4020, base + 9 * 64));
        }
        assert!(
            p.sms_stats().l1_prefetches > 0,
            "sms: {:?} stride: {:?}",
            p.sms_stats(),
            p.stride_stats()
        );
        assert!(!got.is_empty());
    }

    #[test]
    fn m1_has_no_sms() {
        let mut p = L1Prefetcher::new(&L1PrefetcherConfig::m1());
        for r in 0..50u64 {
            let base = r * 7919 * 4096; // irregular regions
            let _ = p.on_demand_miss(0x4000, base % (1 << 30));
            let _ = p.on_demand_miss(0x4010, (base + 5 * 64) % (1 << 30));
        }
        assert_eq!(p.sms_stats().generations, 0);
    }
}

/// Aggregate statistics across the composed engine's three components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1PrefetcherStats {
    /// Multi-stride engine counters.
    pub stride: crate::stride::StrideStats,
    /// SMS counters (zeroes when the engine is absent, i.e. M1/M2).
    pub sms: crate::sms::SmsStats,
    /// Address re-order buffer counters.
    pub reorder: crate::reorder::ReorderStats,
}

impl L1Prefetcher {
    /// Accumulated statistics across all three components.
    pub fn stats(&self) -> L1PrefetcherStats {
        L1PrefetcherStats {
            stride: self.stride_stats(),
            sms: self.sms_stats(),
            reorder: self.reorder_stats(),
        }
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! {
        L1Prefetcher [tags::L1_PREFETCHER] { reorder, stride, sms: Present("sms presence"), seq }
    }
}
