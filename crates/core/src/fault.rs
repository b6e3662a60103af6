//! Deterministic micro-architectural fault injection.
//!
//! A [`FaultInjector`] attached to a [`crate::sim::Simulator`] corrupts
//! machine state mid-slice on a fixed schedule: BTB targets and tags, SHP
//! perceptron weights, RAS depth, pending prefetch confirmations, and the
//! trace stream itself (malformed records, discontinuity gaps). Everything
//! is seeded and step-counted — no wall clock anywhere — so a faulting run
//! replays bit-identically, which is what makes robustness regressions
//! debuggable.
//!
//! The injector never *reports* faults through a side channel: its only
//! output is the mutated machine state, so a run that survives injection
//! proves the recovery paths (detection in the predictors, the watchdog
//! ladder in the retire stage) rather than the test harness.

use crate::error::SimError;

/// Injection schedule: each `*_every` field fires that fault class once
/// per that many simulated instructions (0 disables the class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-fault salt stream.
    pub seed: u64,
    /// Silently corrupt a resident mBTB target (recoverable by
    /// retraining; mispredict-visible only).
    pub corrupt_btb_target_every: u64,
    /// Corrupt a resident mBTB entry tag (detectable: the lookup's
    /// tag/line invariant trips and reports a `PredictorError`).
    pub corrupt_btb_tag_every: u64,
    /// Flip one SHP perceptron weight to its negation.
    pub flip_shp_weight_every: u64,
    /// Truncate the return-address stack to at most one entry.
    pub truncate_ras_every: u64,
    /// Drop all pending prefetch confirmations and stream training.
    pub drop_prefetch_every: u64,
    /// Strip the memory operand from (or retype to) a load, producing a
    /// malformed trace record.
    pub malform_inst_every: u64,
    /// Warp one instruction's PC, producing a trace-discontinuity gap.
    pub gap_inst_every: u64,
    /// Add `stall_cycles` to an instruction's completion time (wedges the
    /// retire stage; exercises the forward-progress watchdog).
    pub stall_every: u64,
    /// Stall magnitude in cycles for `stall_every` firings.
    pub stall_cycles: u64,
}

impl FaultPlan {
    /// A plan that never fires (attachable placeholder).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            corrupt_btb_target_every: 0,
            corrupt_btb_tag_every: 0,
            flip_shp_weight_every: 0,
            truncate_ras_every: 0,
            drop_prefetch_every: 0,
            malform_inst_every: 0,
            gap_inst_every: 0,
            stall_every: 0,
            stall_cycles: 0,
        }
    }

    /// Construction-time consistency check for an explicit plan: the two
    /// stall knobs must agree (a period with no magnitude fires nothing;
    /// a magnitude with no period never fires — both are almost always a
    /// mis-specified experiment).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.stall_every != 0 && self.stall_cycles == 0 {
            return Err(SimError::Config {
                param: "fault.stall_cycles",
                detail: format!(
                    "stall_every = {} with stall_cycles = 0 injects nothing",
                    self.stall_every
                ),
            });
        }
        if self.stall_cycles != 0 && self.stall_every == 0 {
            return Err(SimError::Config {
                param: "fault.stall_every",
                detail: format!(
                    "stall_cycles = {} with stall_every = 0 never fires",
                    self.stall_cycles
                ),
            });
        }
        Ok(())
    }

    /// Every non-stall fault class firing on co-prime prime periods, so a
    /// few-hundred-kiloinstruction slice sees every class many times and
    /// most pairwise combinations at least once.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            corrupt_btb_target_every: 1_031,
            corrupt_btb_tag_every: 4_099,
            flip_shp_weight_every: 509,
            truncate_ras_every: 2_053,
            drop_prefetch_every: 1_543,
            malform_inst_every: 769,
            gap_inst_every: 3_071,
            stall_every: 0,
            stall_cycles: 0,
        }
    }
}

exynos_telemetry::counters! {
    /// Count of injections performed, per fault class.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultStats in "core.fault" {
        /// BTB target corruptions attempted.
        pub btb_targets: u64,
        /// BTB tag corruptions attempted.
        pub btb_tags: u64,
        /// SHP weight flips.
        pub shp_flips: u64,
        /// RAS truncations.
        pub ras_truncations: u64,
        /// Prefetch confirmation drops.
        pub prefetch_drops: u64,
        /// Malformed trace records emitted.
        pub malformed: u64,
        /// Trace gaps emitted.
        pub gaps: u64,
        /// Completion stalls injected.
        pub stalls: u64,
    } derived(total)
}

impl FaultStats {
    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.btb_targets
            + self.btb_tags
            + self.shp_flips
            + self.ras_truncations
            + self.prefetch_drops
            + self.malformed
            + self.gaps
            + self.stalls
    }
}

/// What fired on one `tick`: the simulator applies each component to the
/// matching subsystem. Salts carry the per-firing random payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultFiring {
    /// Corrupt a BTB target using this salt.
    pub corrupt_btb_target: Option<u64>,
    /// Corrupt a BTB tag using this salt.
    pub corrupt_btb_tag: Option<u64>,
    /// Flip the SHP weight indexed by this salt.
    pub flip_shp_weight: Option<u64>,
    /// Truncate the RAS to this depth.
    pub truncate_ras: Option<usize>,
    /// Drop pending prefetch state.
    pub drop_prefetch: bool,
    /// Malform this instruction's record.
    pub malform_inst: bool,
    /// Warp this instruction's PC into a trace gap.
    pub gap_inst: bool,
    /// Extra cycles to add to this instruction's completion.
    pub stall_cycles: u64,
}

/// The stateful injector: a [`FaultPlan`] plus a SplitMix64 salt stream
/// and an instruction counter.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: u64,
    step: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rng: plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            plan,
            step: 0,
            stats: FaultStats::default(),
        }
    }

    /// Injections performed so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan in force.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    fn next_salt(&mut self) -> u64 {
        // SplitMix64: full-period, seedable, and cheap.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advance one instruction and report which fault classes fire on it.
    pub fn tick(&mut self) -> FaultFiring {
        self.step += 1;
        let step = self.step;
        let fires = |every: u64| every != 0 && step.is_multiple_of(every);
        let mut f = FaultFiring::default();
        if fires(self.plan.corrupt_btb_target_every) {
            f.corrupt_btb_target = Some(self.next_salt());
            self.stats.btb_targets += 1;
        }
        if fires(self.plan.corrupt_btb_tag_every) {
            f.corrupt_btb_tag = Some(self.next_salt());
            self.stats.btb_tags += 1;
        }
        if fires(self.plan.flip_shp_weight_every) {
            f.flip_shp_weight = Some(self.next_salt());
            self.stats.shp_flips += 1;
        }
        if fires(self.plan.truncate_ras_every) {
            f.truncate_ras = Some((self.next_salt() % 2) as usize);
            self.stats.ras_truncations += 1;
        }
        if fires(self.plan.drop_prefetch_every) {
            f.drop_prefetch = true;
            self.stats.prefetch_drops += 1;
        }
        if fires(self.plan.malform_inst_every) {
            f.malform_inst = true;
            self.stats.malformed += 1;
        }
        if fires(self.plan.gap_inst_every) {
            f.gap_inst = true;
            self.stats.gaps += 1;
        }
        if fires(self.plan.stall_every) {
            f.stall_cycles = self.plan.stall_cycles;
            self.stats.stalls += 1;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..10_000 {
            let f = inj.tick();
            assert!(f.corrupt_btb_target.is_none());
            assert!(!f.malform_inst && !f.gap_inst && !f.drop_prefetch);
            assert_eq!(f.stall_cycles, 0);
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn chaos_fires_every_class_and_is_deterministic() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::chaos(seed));
            let mut salts = Vec::new();
            for _ in 0..100_000 {
                let f = inj.tick();
                if let Some(s) = f.corrupt_btb_target {
                    salts.push(s);
                }
            }
            (inj.stats(), salts)
        };
        let (s1, salts1) = run(7);
        let (s2, salts2) = run(7);
        assert_eq!(s1, s2);
        assert_eq!(salts1, salts2);
        assert!(s1.btb_targets > 0 && s1.btb_tags > 0 && s1.shp_flips > 0);
        assert!(s1.ras_truncations > 0 && s1.prefetch_drops > 0);
        assert!(s1.malformed > 0 && s1.gaps > 0);
        assert_eq!(s1.stalls, 0, "chaos leaves the stall knob off");
        // A different seed produces a different salt stream.
        let (_, salts3) = run(8);
        assert_ne!(salts1, salts3);
    }

    #[test]
    fn plan_validate_catches_inconsistent_stall_knobs() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::chaos(1).validate().is_ok());
        let mut p = FaultPlan::none();
        p.stall_every = 100;
        assert!(matches!(
            p.validate(),
            Err(SimError::Config { param: "fault.stall_cycles", .. })
        ));
        let mut p = FaultPlan::none();
        p.stall_cycles = 100;
        assert!(matches!(
            p.validate(),
            Err(SimError::Config { param: "fault.stall_every", .. })
        ));
    }

    #[test]
    fn stall_knob_fires_on_schedule() {
        let mut plan = FaultPlan::none();
        plan.stall_every = 100;
        plan.stall_cycles = 99_999;
        let mut inj = FaultInjector::new(plan);
        let mut fired = 0;
        for _ in 0..1_000 {
            if inj.tick().stall_cycles > 0 {
                fired += 1;
            }
        }
        assert_eq!(fired, 10);
        assert_eq!(inj.stats().stalls, 10);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! { FaultInjector [tags::FAULT_INJECTOR] { plan, rng, step, stats } }
    layout! {
        FaultPlan {
            seed, corrupt_btb_target_every, corrupt_btb_tag_every, flip_shp_weight_every,
            truncate_ras_every, drop_prefetch_every, malform_inst_every, gap_inst_every,
            stall_every, stall_cycles,
        } then check_plan
    }

    impl FaultPlan {
        /// The check `Simulator::attach_fault_injector` applies.
        fn check_plan(&mut self) -> Result<(), SnapshotError> {
            self.validate()
                .map_err(|_| SnapshotError::Corrupt { what: "fault plan stall knobs" })
        }
    }

    /// A present injector is decoded into a fresh one: the image carries
    /// the full plan, so whatever the target simulator had attached is
    /// replaced, not merged.
    impl Default for FaultInjector {
        fn default() -> FaultInjector {
            FaultInjector::new(FaultPlan::none())
        }
    }
}
