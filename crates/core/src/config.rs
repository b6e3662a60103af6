//! Per-generation core configurations — Table I of the paper.

use crate::error::SimError;
use exynos_branch::FrontendConfig;
use exynos_dram::{DramConfig, MemoryController};
use exynos_mem::{Cache, MemGenConfig, MissBuffers, Tlb};
use exynos_prefetch::reorder::AddressReorderBuffer;
use exynos_prefetch::{L1PrefetcherConfig, MultiStrideEngine, SmsEngine, StandaloneConfig, StandalonePrefetcher};
use exynos_uoc::{Uoc, UocConfig};

/// The six Exynos M-series generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Generation {
    /// M1 (14nm, Galaxy S7 era).
    M1,
    /// M2 (10nm LPE).
    M2,
    /// M3 (10nm LPP, 6-wide).
    M3,
    /// M4 (8nm LPP).
    M4,
    /// M5 (7nm).
    M5,
    /// M6 (5nm, completed design).
    M6,
}

impl Generation {
    /// All generations, in order.
    pub const ALL: [Generation; 6] = [
        Generation::M1,
        Generation::M2,
        Generation::M3,
        Generation::M4,
        Generation::M5,
        Generation::M6,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Generation::M1 => "M1",
            Generation::M2 => "M2",
            Generation::M3 => "M3",
            Generation::M4 => "M4",
            Generation::M5 => "M5",
            Generation::M6 => "M6",
        }
    }
}

impl std::fmt::Display for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution-port complement (Table I "Execution Unit Details").
///
/// "S ALUs handle add/shift/logical; C ALUs handle simple plus
/// mul/indirect-branch; CD ALUs handle C plus div; BR handle only direct
/// branches"; "Generic units can perform either loads or stores".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ports {
    /// Simple integer ALUs.
    pub s: u32,
    /// Complex (mul-capable) ALUs.
    pub c: u32,
    /// Complex + divide ALUs.
    pub cd: u32,
    /// Direct-branch units.
    pub br: u32,
    /// Load pipes.
    pub ld: u32,
    /// Store pipes.
    pub st: u32,
    /// Generic (load-or-store) pipes.
    pub gen: u32,
    /// FMAC-capable FP pipes.
    pub fmac: u32,
    /// FADD-only FP pipes.
    pub fadd: u32,
}

/// Execution latencies (Table I "Latencies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Minimum branch-mispredict pipeline-refill penalty.
    pub mispredict: u32,
    /// L1D hit latency for a load whose address comes from a load: 3 with
    /// M4's load-to-load cascading, the L1D hit latency
    /// (`mem.l1d.latency`) before it.
    pub l1_cascade: u32,
    /// FMAC latency.
    pub fmac: u32,
    /// FMUL latency.
    pub fmul: u32,
    /// FADD latency.
    pub fadd: u32,
    /// Integer multiply latency.
    pub imul: u32,
    /// Integer divide latency.
    pub idiv: u32,
}

/// A complete per-generation core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Which generation this is.
    pub gen: Generation,
    /// Decode/rename/retire width (4 → 6 → 8).
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Integer physical registers.
    pub int_prf: usize,
    /// FP physical registers.
    pub fp_prf: usize,
    /// Execution ports.
    pub ports: Ports,
    /// Core latencies.
    pub lat: Latencies,
    /// Branch-prediction front end.
    pub frontend: FrontendConfig,
    /// Cache/TLB/miss-buffer geometry.
    pub mem: MemGenConfig,
    /// DRAM path.
    pub dram: DramConfig,
    /// L1 prefetcher complement.
    pub l1_prefetch: L1PrefetcherConfig,
    /// Buddy prefetcher present (M4+; requires sectored L2).
    pub buddy: bool,
    /// Standalone L2/L3 prefetcher (M5+).
    pub standalone: Option<StandaloneConfig>,
    /// Speculative DRAM read (M5+).
    pub spec_read: bool,
    /// Micro-op cache (M5+).
    pub uoc: Option<UocConfig>,
}

impl CoreConfig {
    /// M1: 4-wide, 96-entry ROB, 2S+1CD+BR, 1L/1S, 2 FP pipes.
    pub fn m1() -> CoreConfig {
        CoreConfig {
            gen: Generation::M1,
            width: 4,
            rob: 96,
            int_prf: 96,
            fp_prf: 96,
            ports: Ports { s: 2, c: 0, cd: 1, br: 1, ld: 1, st: 1, gen: 0, fmac: 1, fadd: 1 },
            lat: Latencies {
                mispredict: 14,
                l1_cascade: 4,
                fmac: 5,
                fmul: 4,
                fadd: 3,
                imul: 4,
                idiv: 12,
            },
            frontend: FrontendConfig::m1(),
            mem: MemGenConfig::m1(),
            dram: DramConfig::m1(),
            l1_prefetch: L1PrefetcherConfig::m1(),
            buddy: false,
            standalone: None,
            spec_read: false,
            uoc: None,
        }
    }

    /// M2: M1 resources with efficiency improvements — "several
    /// efficiency improvements, including a number of deeper queues not
    /// shown in Table I" (§III) — modeled as a slightly larger ROB and
    /// deeper miss queues ([`MemGenConfig::m2`]).
    pub fn m2() -> CoreConfig {
        let mut c = CoreConfig::m1();
        c.gen = Generation::M2;
        c.rob = 100;
        c.frontend = FrontendConfig::m2();
        c.mem = MemGenConfig::m2();
        c
    }

    /// M3: 6-wide, 228-entry ROB, 2L pipes, 3 FMACs, private L2 + L3.
    pub fn m3() -> CoreConfig {
        CoreConfig {
            gen: Generation::M3,
            width: 6,
            rob: 228,
            int_prf: 192,
            fp_prf: 192,
            ports: Ports { s: 2, c: 1, cd: 1, br: 1, ld: 2, st: 1, gen: 0, fmac: 3, fadd: 0 },
            lat: Latencies {
                mispredict: 16,
                l1_cascade: 4,
                fmac: 4,
                fmul: 3,
                fadd: 2,
                imul: 4,
                idiv: 12,
            },
            frontend: FrontendConfig::m3(),
            mem: MemGenConfig::m3(),
            dram: DramConfig::m1(),
            l1_prefetch: L1PrefetcherConfig::m3(),
            buddy: false,
            standalone: None,
            spec_read: false,
            uoc: None,
        }
    }

    /// M4: MAB-based misses, buddy prefetcher, data fast path, load
    /// cascading, 1L/1S/1G pipes.
    pub fn m4() -> CoreConfig {
        let mut c = CoreConfig::m3();
        c.gen = Generation::M4;
        c.ports = Ports { s: 2, c: 1, cd: 1, br: 1, ld: 1, st: 1, gen: 1, fmac: 3, fadd: 0 };
        c.lat.l1_cascade = 3;
        c.fp_prf = 176;
        c.frontend = FrontendConfig::m4();
        c.mem = MemGenConfig::m4();
        c.dram = DramConfig::m4();
        c.buddy = true;
        c
    }

    /// M5: 4S ALUs, ZAT/ZOT front end, UOC, standalone prefetcher,
    /// speculative reads, early page activate.
    pub fn m5() -> CoreConfig {
        let mut c = CoreConfig::m4();
        c.gen = Generation::M5;
        c.ports.s = 4;
        c.frontend = FrontendConfig::m5();
        c.mem = MemGenConfig::m5();
        c.dram = DramConfig::m5();
        c.standalone = Some(StandaloneConfig::default());
        c.spec_read = true;
        c.uoc = Some(UocConfig::default());
        c
    }

    /// M6: 8-wide, 256-entry ROB, 224 PRFs, 4S+2CD+2BR, 4 FMACs.
    pub fn m6() -> CoreConfig {
        let mut c = CoreConfig::m5();
        c.gen = Generation::M6;
        c.width = 8;
        c.rob = 256;
        c.int_prf = 224;
        c.fp_prf = 224;
        c.ports = Ports { s: 4, c: 0, cd: 2, br: 2, ld: 1, st: 1, gen: 1, fmac: 4, fadd: 0 };
        c.frontend = FrontendConfig::m6();
        c.mem = MemGenConfig::m6();
        c
    }

    /// Configuration for `gen`.
    pub fn for_generation(gen: Generation) -> CoreConfig {
        match gen {
            Generation::M1 => CoreConfig::m1(),
            Generation::M2 => CoreConfig::m2(),
            Generation::M3 => CoreConfig::m3(),
            Generation::M4 => CoreConfig::m4(),
            Generation::M5 => CoreConfig::m5(),
            Generation::M6 => CoreConfig::m6(),
        }
    }

    /// All six configurations in order.
    pub fn all_generations() -> Vec<CoreConfig> {
        Generation::ALL.iter().map(|&g| CoreConfig::for_generation(g)).collect()
    }

    /// Whether a simulator can be built from this configuration: an
    /// impossible pipeline (zero-wide decode, empty ROB, a mispredict
    /// latency at or below the 5-cycle back end the decode depth is
    /// derived from) is a [`SimError::ResourceInvariant`], and geometry a
    /// front-end, UOC, cache, TLB, miss-buffer, prefetcher or DRAM
    /// constructor would panic on is a [`SimError::Config`] naming the
    /// field. Each geometry rule
    /// lives beside its constructor (`Shp::defect`, `Cache::defect`, ...).
    /// Every construction path (`SimBuilder::build`, `Simulator::resume`
    /// and `resume_with_config`) runs it first.
    pub fn validate(&self) -> Result<(), SimError> {
        let invariant = |resource, detail: String| Err(SimError::ResourceInvariant { resource, detail });
        if self.width == 0 {
            return invariant("decode", "zero-wide machine".into());
        }
        if self.rob == 0 {
            return invariant("rob", "zero-entry reorder buffer".into());
        }
        if self.lat.mispredict <= 5 {
            return invariant("pipeline", format!("mispredict latency {} too short", self.lat.mispredict));
        }
        let mem = &self.mem;
        let tlb = &mem.tlb;
        let defects = [
            ("mem.l1i", Cache::defect(&mem.l1i)),
            ("mem.l1d", Cache::defect(&mem.l1d)),
            ("mem.l2", Cache::defect(&mem.l2)),
            ("mem.l3", mem.l3.as_ref().and_then(Cache::defect)),
            ("mem.tlb.itlb", Tlb::defect(&tlb.itlb)),
            ("mem.tlb.dtlb", Tlb::defect(&tlb.dtlb)),
            ("mem.tlb.dtlb15", tlb.dtlb15.as_ref().and_then(Tlb::defect)),
            ("mem.tlb.l2tlb", Tlb::defect(&tlb.l2tlb)),
            ("mem.miss_buffers", MissBuffers::defect(mem.miss_buffers)),
            ("uoc", self.uoc.as_ref().and_then(Uoc::defect)),
            ("l1_prefetch.reorder_capacity", AddressReorderBuffer::defect(self.l1_prefetch.reorder_capacity)),
            ("l1_prefetch.stride", MultiStrideEngine::defect(&self.l1_prefetch.stride)),
            ("l1_prefetch.sms", self.l1_prefetch.sms.as_ref().and_then(SmsEngine::defect)),
            ("standalone", self.standalone.as_ref().and_then(StandalonePrefetcher::defect)),
            ("dram.banks", MemoryController::defect(&self.dram)),
        ];
        let defect = self.frontend.defect().or_else(|| defects.into_iter().find_map(|(p, d)| Some((p, d?))));
        match defect {
            Some((param, detail)) => Err(SimError::Config { param, detail }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_widths_and_robs() {
        let expect = [(4, 96), (4, 100), (6, 228), (6, 228), (6, 228), (8, 256)];
        for (cfg, (w, rob)) in CoreConfig::all_generations().iter().zip(expect) {
            assert_eq!(cfg.width, w, "{}", cfg.gen);
            assert_eq!(cfg.rob, rob, "{}", cfg.gen);
        }
    }

    #[test]
    fn table1_prfs() {
        let expect = [(96, 96), (96, 96), (192, 192), (192, 176), (192, 176), (224, 224)];
        for (cfg, (i, f)) in CoreConfig::all_generations().iter().zip(expect) {
            assert_eq!((cfg.int_prf, cfg.fp_prf), (i, f), "{}", cfg.gen);
        }
    }

    #[test]
    fn table1_mispredict_penalties() {
        let expect = [14, 14, 16, 16, 16, 16];
        for (cfg, p) in CoreConfig::all_generations().iter().zip(expect) {
            assert_eq!(cfg.lat.mispredict, p, "{}", cfg.gen);
        }
    }

    #[test]
    fn feature_rollout() {
        assert!(CoreConfig::m4().buddy && !CoreConfig::m3().buddy);
        assert!(CoreConfig::m5().uoc.is_some() && CoreConfig::m4().uoc.is_none());
        assert!(CoreConfig::m5().spec_read && !CoreConfig::m4().spec_read);
        assert!(CoreConfig::m5().standalone.is_some());
        assert!(CoreConfig::m4().dram.fast_path && !CoreConfig::m3().dram.fast_path);
        assert!(CoreConfig::m5().dram.early_activate);
    }

    #[test]
    fn fp_latencies_improve_in_m3() {
        let m1 = CoreConfig::m1().lat;
        let m3 = CoreConfig::m3().lat;
        assert_eq!((m1.fmac, m1.fmul, m1.fadd), (5, 4, 3));
        assert_eq!((m3.fmac, m3.fmul, m3.fadd), (4, 3, 2));
    }

    /// The memory rows the simulator reads: (L1D hit, cascade hit,
    /// MABs). M2's deeper miss queues and M4's load-to-load cascade are
    /// the two changes Table I does not show on its own.
    #[test]
    fn simulated_memory_rows() {
        let expect = [(4, 4, 8), (4, 4, 10), (4, 4, 12), (4, 3, 32), (4, 3, 32), (4, 3, 40)];
        for (cfg, row) in CoreConfig::all_generations().iter().zip(expect) {
            let got = (cfg.mem.l1d.latency, cfg.lat.l1_cascade, cfg.mem.miss_buffers);
            assert_eq!(got, row, "{}", cfg.gen);
        }
    }
}
