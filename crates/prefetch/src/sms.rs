//! The Spatial Memory Streaming (SMS) L1 prefetch engine, added in M3
//! (§VII.C, after Somogyi et al. \[32\] and patent \[33\]).
//!
//! "This engine tracks a primary load (the first miss to a region), and
//! attaches associated accesses to it (any misses with a different PC).
//! When the primary load PC appears again, prefetches for the associated
//! loads will be generated based off the remembered offsets. ... Only
//! associated loads with high confidence are prefetched, to filter out the
//! ones that appear transiently along with the primary load. In addition,
//! when confidence drops to a lower level, the mechanism will only issue
//! the first pass (L2) prefetch."

use exynos_mem::LINE_BYTES;

/// Region size tracked (4 KiB — a page).
pub const REGION_BYTES: u64 = 4096;
/// Lines per region.
pub const LINES_PER_REGION: usize = (REGION_BYTES / LINE_BYTES) as usize;

/// Where an SMS prefetch should go (confidence-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmsTarget {
    /// High confidence: prefetch all the way into the L1.
    L1,
    /// Lower confidence: first-pass (L2) prefetch only.
    L2Only,
}

/// A generated SMS prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsPrefetch {
    /// 64 B line address to prefetch.
    pub line: u64,
    /// Destination level.
    pub target: SmsTarget,
}

/// Geometry/tuning of the SMS engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmsConfig {
    /// Pattern-signature-table entries (per-primary-PC signatures).
    pub signatures: usize,
    /// Active-generation-table entries (regions currently being observed).
    pub active_regions: usize,
    /// Confidence at or above which offsets prefetch into the L1.
    pub high_confidence: u8,
    /// Confidence at or above which offsets prefetch first-pass into L2.
    pub low_confidence: u8,
    /// Confidence ceiling.
    pub max_confidence: u8,
}

impl Default for SmsConfig {
    fn default() -> SmsConfig {
        SmsConfig {
            signatures: 256,
            active_regions: 32,
            high_confidence: 3,
            low_confidence: 1,
            max_confidence: 7,
        }
    }
}

/// Per-offset confidence signature for one primary PC.
#[derive(Debug, Clone)]
struct Signature {
    pc: u64,
    conf: [u8; LINES_PER_REGION],
    lru: u64,
}

/// A region whose accesses are currently being recorded.
#[derive(Debug, Clone, Default)]
struct ActiveRegion {
    region: u64,
    primary_pc: u64,
    /// Lines touched this generation.
    touched: u64,
    lru: u64,
}

exynos_telemetry::counters! {
    /// SMS statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SmsStats in "prefetch.sms" {
        /// Region generations opened.
        pub generations: u64,
        /// Generations closed back into signatures.
        pub trainings: u64,
        /// Prefetches issued to L1.
        pub l1_prefetches: u64,
        /// First-pass (L2-only) prefetches issued.
        pub l2_prefetches: u64,
        /// Training events suppressed by stride-engine arbitration.
        pub suppressed: u64,
    }
}

/// The SMS prefetch engine.
#[derive(Debug, Clone)]
pub struct SmsEngine {
    cfg: SmsConfig,
    signatures: Vec<Signature>,
    active: Vec<ActiveRegion>,
    stamp: u64,
    stats: SmsStats,
}

impl SmsEngine {
    /// Why [`SmsEngine::new`] would reject `cfg`, if it would.
    pub fn defect(cfg: &SmsConfig) -> Option<String> {
        let (low, high, max) = (cfg.low_confidence, cfg.high_confidence, cfg.max_confidence);
        if cfg.signatures == 0 || cfg.active_regions == 0 {
            Some(format!("{} signatures and {} active regions hold no region", cfg.signatures, cfg.active_regions))
        } else if low > high || high > max {
            Some(format!("confidence thresholds {low} <= {high} <= {max} out of order"))
        } else {
            None
        }
    }

    /// Build an engine from `cfg`.
    ///
    /// # Panics
    /// Panics if [`SmsEngine::defect`] rejects `cfg`.
    pub fn new(cfg: SmsConfig) -> SmsEngine {
        let defect = SmsEngine::defect(&cfg);
        assert!(defect.is_none(), "SMS engine: {defect:?}");
        SmsEngine {
            cfg,
            signatures: Vec::new(),
            active: Vec::new(),
            stamp: 0,
            stats: SmsStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SmsStats {
        self.stats
    }

    /// Observe a demand miss at `vaddr` by the load at `pc`.
    /// `stride_confirming` suppresses training while the multi-stride
    /// engine is locked onto the stream (§VII.C arbitration). Returns the
    /// prefetches to issue (non-empty only on a primary-load re-visit).
    pub fn on_demand_miss(&mut self, pc: u64, vaddr: u64, stride_confirming: bool) -> Vec<SmsPrefetch> {
        self.stamp += 1;
        let region = vaddr / REGION_BYTES;
        let line_in_region = ((vaddr % REGION_BYTES) / LINE_BYTES) as usize;
        // Already recording this region? Attach the access.
        if let Some(ar) = self.active.iter_mut().find(|a| a.region == region) {
            ar.touched |= 1 << line_in_region;
            ar.lru = self.stamp;
            return Vec::new();
        }
        if stride_confirming {
            self.stats.suppressed += 1;
            return Vec::new();
        }
        // First miss to the region: this is a primary load. Open a
        // generation and predict from the PC's remembered signature.
        self.open_generation(region, pc, line_in_region);
        let base_line = region * LINES_PER_REGION as u64;
        let mut out = Vec::new();
        if let Some(sig) = self.signatures.iter_mut().find(|s| s.pc == pc) {
            sig.lru = self.stamp;
            for (off, &conf) in sig.conf.iter().enumerate() {
                if off == line_in_region || conf == 0 {
                    continue;
                }
                if conf >= self.cfg.high_confidence {
                    out.push(SmsPrefetch {
                        line: base_line + off as u64,
                        target: SmsTarget::L1,
                    });
                    self.stats.l1_prefetches += 1;
                } else if conf >= self.cfg.low_confidence {
                    out.push(SmsPrefetch {
                        line: base_line + off as u64,
                        target: SmsTarget::L2Only,
                    });
                    self.stats.l2_prefetches += 1;
                }
            }
        }
        out
    }

    fn open_generation(&mut self, region: u64, pc: u64, first_line: usize) {
        self.stats.generations += 1;
        if self.active.len() >= self.cfg.active_regions {
            let victim = self
                .active
                .iter()
                .enumerate()
                .min_by_key(|(_, a)| a.lru)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let closed = self.active.swap_remove(victim);
            self.close_generation(closed);
        }
        self.active.push(ActiveRegion {
            region,
            primary_pc: pc,
            touched: 1 << first_line,
            lru: self.stamp,
        });
    }

    /// A region generation ends (eviction here, or the region's lines
    /// leaving the cache in a fuller model): fold the observed footprint
    /// into the primary PC's signature with per-offset confidence.
    fn close_generation(&mut self, gen: ActiveRegion) {
        self.stats.trainings += 1;
        let stamp = self.stamp;
        let (max_conf, nsig) = (self.cfg.max_confidence, self.cfg.signatures);
        let sig = match self.signatures.iter_mut().position(|s| s.pc == gen.primary_pc) {
            Some(i) => &mut self.signatures[i],
            None => {
                if self.signatures.len() >= nsig {
                    let victim = self
                        .signatures
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.lru)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    self.signatures.swap_remove(victim);
                }
                self.signatures.push(Signature {
                    pc: gen.primary_pc,
                    conf: [0; LINES_PER_REGION],
                    lru: stamp,
                });
                let last = self.signatures.len() - 1;
                &mut self.signatures[last]
            }
        };
        sig.lru = stamp;
        for off in 0..LINES_PER_REGION {
            if gen.touched >> off & 1 == 1 {
                sig.conf[off] = (sig.conf[off] + 1).min(max_conf);
            } else {
                sig.conf[off] = sig.conf[off].saturating_sub(1);
            }
        }
    }

    /// Flush all open generations into their signatures (end of epoch).
    pub fn flush_generations(&mut self) {
        let open: Vec<ActiveRegion> = self.active.drain(..).collect();
        for g in open {
            self.close_generation(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Visit `region` with the signature offsets {0, 3, 7} via primary pc.
    fn visit(e: &mut SmsEngine, pc: u64, region: u64, offs: &[u64]) -> Vec<SmsPrefetch> {
        let base = region * REGION_BYTES;
        let mut out = e.on_demand_miss(pc, base + offs[0] * 64, false);
        for &o in &offs[1..] {
            out.extend(e.on_demand_miss(pc + 4, base + o * 64, false));
        }
        out
    }

    #[test]
    fn recurring_signature_learned_and_prefetched() {
        let mut e = SmsEngine::new(SmsConfig::default());
        // Train over many regions with the same signature.
        for r in 0..40u64 {
            visit(&mut e, 0x4000, r, &[0, 3, 7]);
        }
        e.flush_generations();
        // A fresh region visit by the same primary PC prefetches 3 and 7.
        let pf = e.on_demand_miss(0x4000, 1000 * REGION_BYTES, false);
        let lines: Vec<u64> = pf.iter().map(|p| p.line % 64).collect();
        assert!(lines.contains(&3), "prefetches: {pf:?}");
        assert!(lines.contains(&7));
        assert!(pf.iter().all(|p| p.target == SmsTarget::L1));
    }

    #[test]
    fn transient_offsets_filtered_by_confidence() {
        let mut e = SmsEngine::new(SmsConfig::default());
        for r in 0..40u64 {
            // Offset 5 appears only once every 8 visits (transient).
            let offs: Vec<u64> = if r % 8 == 0 { vec![0, 3, 5] } else { vec![0, 3] };
            visit(&mut e, 0x4000, r, &offs);
        }
        e.flush_generations();
        let pf = e.on_demand_miss(0x4000, 2000 * REGION_BYTES, false);
        let l1_lines: Vec<u64> = pf
            .iter()
            .filter(|p| p.target == SmsTarget::L1)
            .map(|p| p.line % 64)
            .collect();
        assert!(l1_lines.contains(&3));
        assert!(!l1_lines.contains(&5), "transient offset must not reach L1: {pf:?}");
    }

    #[test]
    fn stride_arbitration_suppresses_training() {
        let mut e = SmsEngine::new(SmsConfig::default());
        let pf = e.on_demand_miss(0x4000, 55 * REGION_BYTES, true);
        assert!(pf.is_empty());
        assert_eq!(e.stats().suppressed, 1);
        assert_eq!(e.stats().generations, 0);
    }

    #[test]
    fn distinct_pcs_have_distinct_signatures() {
        let mut e = SmsEngine::new(SmsConfig::default());
        for r in 0..30u64 {
            visit(&mut e, 0x4000, 2 * r, &[0, 2]);
            visit(&mut e, 0x8000, 2 * r + 1, &[0, 9]);
        }
        e.flush_generations();
        let pf_a = e.on_demand_miss(0x4000, 3000 * REGION_BYTES, false);
        let pf_b = e.on_demand_miss(0x8000, 3001 * REGION_BYTES, false);
        assert!(pf_a.iter().any(|p| p.line % 64 == 2));
        assert!(!pf_a.iter().any(|p| p.line % 64 == 9));
        assert!(pf_b.iter().any(|p| p.line % 64 == 9));
    }

    #[test]
    fn medium_confidence_goes_l2_only() {
        let mut e = SmsEngine::new(SmsConfig::default());
        // Offset 11 present half the time: confidence hovers mid-range.
        for r in 0..40u64 {
            let offs: Vec<u64> = if r % 2 == 0 { vec![0, 4, 11] } else { vec![0, 4] };
            visit(&mut e, 0x4000, r, &offs);
        }
        e.flush_generations();
        let pf = e.on_demand_miss(0x4000, 4000 * REGION_BYTES, false);
        let of11: Vec<&SmsPrefetch> = pf.iter().filter(|p| p.line % 64 == 11).collect();
        if let Some(p) = of11.first() {
            assert_eq!(p.target, SmsTarget::L2Only, "half-confident offsets stay in L2");
        }
        // The always-present offset 4 must be L1.
        assert!(pf.iter().any(|p| p.line % 64 == 4 && p.target == SmsTarget::L1));
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! {
        SmsEngine [tags::SMS] |s| {
            signatures: Bounded(s.cfg.signatures, "sms signatures"),
            active: Bounded(s.cfg.active_regions, "sms active regions"),
            stamp, stats,
        }
    }
    layout! { Signature { pc, conf, lru } }
    layout! { ActiveRegion { region, primary_pc, touched, lru } }

    /// The blank signature a restored one is decoded into.
    impl Default for Signature {
        fn default() -> Signature {
            Signature { pc: 0, conf: [0; LINES_PER_REGION], lru: 0 }
        }
    }
}
