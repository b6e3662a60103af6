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
//!     .threads(8)
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
use crate::fault::{FaultPlan, FaultRates};
use crate::sim::Simulator;
use exynos_telemetry::{Telemetry, TelemetryConfig};

/// Fluent simulator construction; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cfg: CoreConfig,
    fault: Option<FaultPlan>,
    fault_rates: Option<FaultRates>,
    watchdog: Option<(u64, u32)>,
    strict_decode: bool,
    threads: Option<usize>,
    telemetry: Option<TelemetryConfig>,
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
            fault_rates: None,
            watchdog: None,
            strict_decode: false,
            threads: None,
            telemetry: None,
            cancel: None,
        }
    }

    /// Attach a deterministic fault-injection plan to the built simulator.
    /// The plan's stall knobs are validated at [`build`](SimBuilder::build).
    #[must_use]
    pub fn fault_profile(mut self, plan: FaultPlan) -> SimBuilder {
        self.fault = Some(plan);
        self.fault_rates = None;
        self
    }

    /// Attach fault injection specified as per-instruction probabilities.
    /// Rates are validated at [`build`](SimBuilder::build): anything
    /// outside `[0, 1]` (or non-finite) is a typed [`SimError::Config`],
    /// never a silent clamp. Replaces any earlier
    /// [`fault_profile`](SimBuilder::fault_profile).
    #[must_use]
    pub fn fault_rates(mut self, rates: FaultRates) -> SimBuilder {
        self.fault_rates = Some(rates);
        self.fault = None;
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

    /// Worker-thread budget carried to sweep helpers (the simulator
    /// itself is single-threaded; population sweeps read this).
    #[must_use]
    pub fn threads(mut self, n: usize) -> SimBuilder {
        self.threads = Some(n.max(1));
        self
    }

    /// Telemetry sink configuration for [`SimBuilder::build_instrumented`].
    #[must_use]
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> SimBuilder {
        self.telemetry = Some(cfg);
        self
    }

    /// The thread budget, defaulting to 1 when unset.
    pub fn thread_count(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// The configuration the built simulator will use.
    pub fn config_ref(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Validate the configuration and construct the simulator.
    pub fn build(self) -> Result<Simulator, SimError> {
        self.validate()?;
        let SimBuilder { cfg, fault, fault_rates, watchdog, strict_decode, cancel, .. } = self;
        let plan = match (fault, fault_rates) {
            (Some(plan), _) => Some(plan),
            (None, Some(rates)) => Some(FaultPlan::from_rates(&rates)?),
            (None, None) => None,
        };
        let mut sim = Simulator::construct(cfg);
        if let Some(plan) = plan {
            sim.attach_fault_injector(plan);
        }
        if let Some((threshold, rungs)) = watchdog {
            sim.set_watchdog(threshold, rungs);
        }
        sim.set_strict_decode(strict_decode);
        if let Some(token) = cancel {
            sim.set_cancel_token(token);
        }
        Ok(sim)
    }

    /// [`build`](SimBuilder::build) plus a [`Telemetry`] sink configured
    /// by [`SimBuilder::telemetry`] (default configuration when unset).
    pub fn build_instrumented(self) -> Result<(Simulator, Telemetry), SimError> {
        let tel = Telemetry::new(self.telemetry.clone().unwrap_or_default());
        Ok((self.build()?, tel))
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
        if let Some(plan) = &self.fault {
            plan.validate()?;
        }
        if let Some((threshold, _)) = self.watchdog {
            // `Simulator::set_watchdog` clamps 0 to 1 for direct callers;
            // through the validated path a zero-cycle threshold is a
            // typed error — it would trip on every single retirement.
            if threshold == 0 {
                return Err(SimError::Config {
                    param: "watchdog.threshold",
                    detail: "zero-cycle retirement-gap threshold trips on every step".into(),
                });
            }
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
            .threads(4)
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
    fn out_of_range_fault_rates_are_rejected_at_build() {
        let mut rates = FaultRates::none(1);
        rates.malform_inst = 2.0;
        match SimBuilder::generation(Generation::M3).fault_rates(rates).build() {
            Err(SimError::Config { param, .. }) => assert_eq!(param, "fault.malform_inst"),
            other => panic!("rate 2.0 must be a typed Config error, got {other:?}"),
        }
        let mut rates = FaultRates::none(1);
        rates.malform_inst = 0.01;
        let sim = SimBuilder::generation(Generation::M3).fault_rates(rates).build().unwrap();
        assert!(sim.fault_stats().is_some(), "valid rates attach an injector");
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

    #[test]
    fn thread_count_defaults_to_one() {
        assert_eq!(SimBuilder::generation(Generation::M1).thread_count(), 1);
        assert_eq!(
            SimBuilder::generation(Generation::M1).threads(0).thread_count(),
            1
        );
    }
}
