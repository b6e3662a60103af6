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
//! The builder validates the configuration before constructing anything,
//! so an impossible machine (zero-width decode, empty ROB) is a typed
//! [`SimError`] instead of a downstream panic or a silent hang.

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
        self.validate()?;
        let SimBuilder { cfg, fault, watchdog, strict_decode, cancel } = self;
        let mut sim = Simulator::construct(cfg);
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

    fn validate(&self) -> Result<(), SimError> {
        let cfg = &self.cfg;
        if cfg.width == 0 {
            return Err(SimError::ResourceInvariant {
                resource: "decode",
                detail: "zero-wide machine".into(),
            });
        }
        if cfg.rob == 0 {
            return Err(SimError::ResourceInvariant {
                resource: "rob",
                detail: "zero-entry reorder buffer".into(),
            });
        }
        // The decode-depth derivation subtracts 5 from the mispredict
        // latency; anything at or below that is not a pipeline.
        if cfg.lat.mispredict <= 5 {
            return Err(SimError::ResourceInvariant {
                resource: "pipeline",
                detail: format!("mispredict latency {} too short", cfg.lat.mispredict),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
