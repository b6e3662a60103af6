//! The one construction path for simulators.
//!
//! [`SimBuilder`] replaces the scattered "make a `CoreConfig`, construct
//! the simulator, then remember to call `attach_fault_injector` /
//! `set_watchdog` / `set_strict_decode` in the right order" plumbing
//! with a single fluent chain:
//!
//! ```
//! use exynos_core::builder::SimBuilder;
//! use exynos_core::config::Generation;
//! use exynos_core::fault::FaultPlan;
//!
//! let sim = SimBuilder::generation(Generation::M6)
//!     .fault_profile(FaultPlan::chaos(7))
//!     .build()
//!     .unwrap();
//! assert_eq!(sim.config().gen, Generation::M6);
//! ```
//!
//! The builder validates the configuration ([`CoreConfig::validate`])
//! before constructing anything, so an impossible machine (zero-width
//! decode, empty ROB, a cache with no ways) is a typed [`SimError`]
//! instead of a downstream panic or a silent hang.

use crate::cancel::CancelToken;
use crate::config::{CoreConfig, Generation};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::sim::Simulator;

/// Fluent simulator construction; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cfg: CoreConfig,
    fault: Option<FaultPlan>,
    watchdog: Option<(u64, u32)>,
    strict_decode: bool,
    cancel: Option<CancelToken>,
}

impl SimBuilder {
    /// Start from the stock configuration of `gen` (Table I).
    pub fn generation(gen: Generation) -> SimBuilder {
        SimBuilder::config(CoreConfig::for_generation(gen))
    }

    /// Start from an explicit (possibly customized) configuration.
    pub fn config(cfg: CoreConfig) -> SimBuilder {
        SimBuilder {
            cfg,
            fault: None,
            watchdog: None,
            strict_decode: false,
            cancel: None,
        }
    }

    /// Attach a deterministic fault-injection plan to the built simulator.
    /// The plan's stall knobs are validated at [`build`](SimBuilder::build).
    #[must_use]
    pub fn fault_profile(mut self, plan: FaultPlan) -> SimBuilder {
        self.fault = Some(plan);
        self
    }

    /// Attach a cooperative cancellation token polled by the step loop.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> SimBuilder {
        self.cancel = Some(token);
        self
    }

    /// Reconfigure the forward-progress watchdog (retirement-gap trigger
    /// in cycles, degradation rungs before erroring out).
    #[must_use]
    pub fn watchdog(mut self, threshold: u64, max_recoveries: u32) -> SimBuilder {
        self.watchdog = Some((threshold, max_recoveries));
        self
    }

    /// Strict trace decode: malformed records end the run with a typed
    /// error instead of being counted and skipped.
    #[must_use]
    pub fn strict_decode(mut self, strict: bool) -> SimBuilder {
        self.strict_decode = strict;
        self
    }

    /// Validate the configuration and construct the simulator.
    pub fn build(self) -> Result<Simulator, SimError> {
        let SimBuilder { cfg, fault, watchdog, strict_decode, cancel } = self;
        let mut sim = Simulator::construct(cfg)?;
        if let Some(plan) = fault {
            sim.attach_fault_injector(plan)?;
        }
        if let Some((threshold, rungs)) = watchdog {
            sim.set_watchdog(threshold, rungs)?;
        }
        sim.set_strict_decode(strict_decode);
        if let Some(token) = cancel {
            sim.set_cancel_token(token);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_mem::{CacheConfig, TlbConfig};

    #[test]
    fn builder_applies_every_option() {
        let sim = SimBuilder::generation(Generation::M5)
            .fault_profile(FaultPlan::chaos(3))
            .watchdog(10_000, 2)
            .strict_decode(true)
            .build()
            .unwrap();
        assert_eq!(sim.config().gen, Generation::M5);
        assert!(sim.fault_stats().is_some());
    }

    #[test]
    fn builder_rejects_impossible_machines() {
        let mut cfg = CoreConfig::m1();
        cfg.width = 0;
        assert!(matches!(
            SimBuilder::config(cfg).build(),
            Err(SimError::ResourceInvariant { resource: "decode", .. })
        ));

        let mut cfg = CoreConfig::m1();
        cfg.rob = 0;
        assert!(matches!(
            SimBuilder::config(cfg).build(),
            Err(SimError::ResourceInvariant { resource: "rob", .. })
        ));
    }

    fn cache_mut<'a>(cfg: &'a mut CoreConfig, name: &str) -> &'a mut CacheConfig {
        match name {
            "mem.l1i" => &mut cfg.mem.l1i,
            "mem.l1d" => &mut cfg.mem.l1d,
            "mem.l2" => &mut cfg.mem.l2,
            _ => cfg.mem.l3.as_mut().expect("M6 has an L3"),
        }
    }

    fn tlb_mut<'a>(cfg: &'a mut CoreConfig, name: &str) -> &'a mut TlbConfig {
        let tlb = &mut cfg.mem.tlb;
        match name {
            "mem.tlb.itlb" => &mut tlb.itlb,
            "mem.tlb.dtlb" => &mut tlb.dtlb,
            "mem.tlb.dtlb15" => tlb.dtlb15.as_mut().expect("M6 has an L1.5 DTLB"),
            _ => &mut tlb.l2tlb,
        }
    }

    /// Every degenerate value `CoreConfig::validate` checks, each on its
    /// own M6 config: the builder and `resume_with_config` both return a
    /// typed error naming the field instead of panicking in a front-end,
    /// UOC, cache, TLB, miss-buffer, prefetcher or DRAM constructor (or
    /// wrapping the decode depth).
    #[test]
    fn degenerate_configs_are_errors_on_both_paths() {
        let image = SimBuilder::generation(Generation::M6).build().unwrap().checkpoint();
        let mut cases: Vec<(&str, CoreConfig)> = Vec::new();
        fn hash(c: &mut CoreConfig) -> &mut exynos_branch::indirect::IndirectHashConfig {
            c.frontend.indirect.hash_table.as_mut().expect("M6 has the hash table")
        }
        let core: [(&str, fn(&mut CoreConfig)); 28] = [
            ("decode", |c| c.width = 0),
            ("rob", |c| c.rob = 0),
            ("pipeline", |c| c.lat.mispredict = 5),
            ("pipeline", |c| c.lat.mispredict = 0),
            ("mem.miss_buffers", |c| c.mem.miss_buffers = 0),
            ("uoc", |c| c.uoc.as_mut().expect("M6 has a UOC").capacity_uops = 0),
            ("frontend.shp", |c| c.frontend.shp.rows = 1000),
            ("frontend.shp", |c| c.frontend.shp.rows = 4),
            ("frontend.shp", |c| c.frontend.shp.tables = 0),
            ("frontend.shp", |c| c.frontend.shp.tables = 17),
            ("frontend.ubtb", |c| c.frontend.ubtb.general_nodes = 0),
            ("frontend.ubtb", |c| c.frontend.ubtb.lhp_rows = 100),
            ("frontend.btb", |c| c.frontend.btb.mbtb_lines = 0),
            ("frontend.btb", |c| c.frontend.btb.mbtb_ways = 0),
            ("frontend.btb", |c| c.frontend.btb.vbtb_entries = 0),
            ("frontend.btb", |c| c.frontend.btb.l2btb_entries = 0),
            ("frontend.btb", |c| c.frontend.btb.l2btb_entries = 1 << 40),
            ("frontend.indirect", |c| c.frontend.indirect_chains = 0),
            ("frontend.indirect", |c| c.frontend.indirect.max_chain = 0),
            ("frontend.indirect", |c| hash(c).entries = 1000),
            ("frontend.indirect", |c| hash(c).target_history_bits = 32),
            ("frontend.ras_entries", |c| c.frontend.ras_entries = 0),
            ("frontend.mrb_entries", |c| c.frontend.mrb_entries = Some(0)),
            ("l1_prefetch.reorder_capacity", |c| c.l1_prefetch.reorder_capacity = 0),
            ("l1_prefetch.stride", |c| c.l1_prefetch.stride.delta_window = 1),
            ("l1_prefetch.sms", |c| c.l1_prefetch.sms.as_mut().expect("M6 has SMS").low_confidence = u8::MAX),
            ("standalone", |c| c.standalone.as_mut().expect("M6 has the standalone prefetcher").distance = 0),
            ("dram.banks", |c| c.dram.banks = 0),
        ];
        for (name, degrade) in core {
            let mut cfg = CoreConfig::m6();
            degrade(&mut cfg);
            cases.push((name, cfg));
        }
        let cache: [fn(&mut CacheConfig); 4] =
            [|c| c.size_bytes = 0, |c| c.ways = 0, |c| c.sectors_per_tag = 0, |c| c.sectors_per_tag = 3];
        for name in ["mem.l1i", "mem.l1d", "mem.l2", "mem.l3"] {
            for degrade in cache {
                let mut cfg = CoreConfig::m6();
                degrade(cache_mut(&mut cfg, name));
                cases.push((name, cfg));
            }
        }
        let tlb: [fn(&mut TlbConfig); 4] = [|t| t.entries = 0, |t| t.ways = 0, |t| t.sectors = 0, |t| t.sectors = 65];
        for name in ["mem.tlb.itlb", "mem.tlb.dtlb", "mem.tlb.dtlb15", "mem.tlb.l2tlb"] {
            for degrade in tlb {
                let mut cfg = CoreConfig::m6();
                degrade(tlb_mut(&mut cfg, name));
                cases.push((name, cfg));
            }
        }
        assert_eq!(cases.len(), 60);
        for (name, cfg) in cases {
            let named = |got: Result<Simulator, SimError>| match got {
                Err(SimError::Config { param, .. }) => param,
                Err(SimError::ResourceInvariant { resource, .. }) => resource,
                other => panic!("{name}: {other:?}"),
            };
            assert_eq!(named(SimBuilder::config(cfg.clone()).build()), name, "build");
            assert_eq!(named(Simulator::resume_with_config(cfg, &image)), name, "resume_with_config");
        }
    }

    #[test]
    fn inconsistent_stall_plan_is_rejected_at_build() {
        let mut plan = FaultPlan::none();
        plan.stall_every = 50;
        assert!(matches!(
            SimBuilder::generation(Generation::M1).fault_profile(plan).build(),
            Err(SimError::Config { param: "fault.stall_cycles", .. })
        ));
    }

    #[test]
    fn zero_watchdog_threshold_is_rejected_at_build() {
        assert!(matches!(
            SimBuilder::generation(Generation::M1).watchdog(0, 3).build(),
            Err(SimError::Config { param: "watchdog.threshold", .. })
        ));
    }

    #[test]
    fn direct_setters_return_the_same_typed_errors() {
        let mut sim = SimBuilder::generation(Generation::M1).build().unwrap();
        let mut plan = FaultPlan::none();
        plan.stall_every = 50;
        assert!(matches!(
            sim.attach_fault_injector(plan),
            Err(SimError::Config { param: "fault.stall_cycles", .. })
        ));
        assert!(sim.fault_stats().is_none(), "a rejected plan attaches nothing");
        assert!(matches!(
            sim.set_watchdog(0, 3),
            Err(SimError::Config { param: "watchdog.threshold", .. })
        ));
        assert!(sim.attach_fault_injector(FaultPlan::chaos(1)).is_ok());
        assert!(sim.set_watchdog(1, 3).is_ok());
    }

    #[test]
    fn cancel_token_stops_the_built_simulator() {
        use crate::cancel::CancelToken;
        use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
        use exynos_trace::SlicePlan;
        let token = CancelToken::new();
        token.cancel();
        let mut sim = SimBuilder::generation(Generation::M2)
            .cancel_token(token)
            .build()
            .unwrap();
        let mut gen = LoopNest::new(&LoopNestParams::default(), 0, 1);
        match sim.run_slice(&mut gen, SlicePlan::new(0, 10_000)) {
            Err(SimError::Cancelled { deadline, .. }) => assert!(!deadline),
            other => panic!("pre-cancelled token must stop the run: {other:?}"),
        }
    }
}
