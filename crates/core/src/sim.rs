//! The trace-driven, timing-first out-of-order core model.
//!
//! This is the reproduction's stand-in for the paper's "trace-driven
//! cycle-accurate performance model that reflects all six of the
//! implementations" (§II). Per instruction it computes fetch, dispatch,
//! issue, completion and retirement cycles under:
//!
//! * front-end bubbles and redirects from the branch predictor
//!   ([`exynos_branch::FrontEnd`]), with the UOC supplying µops on
//!   lockable kernels (M5+);
//! * decode/rename width, ROB and PRF occupancy limits (Table I);
//! * per-class issue ports ([`crate::ports`]);
//! * dataflow dependencies through architectural registers;
//! * the full memory system ([`crate::memsys`]) for loads/stores/ifetch,
//!   including load-to-load cascading (M4+).
//!
//! Wrong-path execution is not modeled (a standard trace-driven
//! limitation); the Table I mispredict penalty plus resolution delay
//! provides the redirect cost.

use crate::cancel::CancelToken;
use crate::config::CoreConfig;
use crate::error::{OccupancySnapshot, SimError};
use crate::fault::{FaultFiring, FaultInjector, FaultPlan, FaultStats};
use crate::memsys::{MemStats, MemSystem};
use crate::ports::{PortSchedule, Resource};
use exynos_branch::{FetchFeedback, FrontEnd, FrontendStats, Redirect};
use exynos_mem::LINE_BYTES;
use exynos_telemetry::{
    BranchClass, FaultClass, PipelineEvent, PrefetchKind, Telemetry, UocModeTag,
};
use exynos_trace::{BranchKind, Inst, InstKind, Reg, SlicePlan, TraceGen};
use exynos_uoc::{Uoc, UocMode};
use std::collections::VecDeque;

exynos_telemetry::counters! {
    /// Cumulative simulation counters.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SimStats in "core.sim" [exynos_snapshot::tags::SIM_STATS] {
        /// Instructions retired.
        pub instructions: u64,
        /// Cycle of the last retirement.
        pub last_retire: u64,
        /// Loads executed.
        pub loads: u64,
        /// Instructions supplied by the UOC (fetch/decode power proxy).
        pub uoc_supplied: u64,
        /// Malformed trace records skipped (lenient decode).
        pub malformed_insts: u64,
        /// Detected predictor-state corruptions recovered by a flush.
        pub predictor_corruptions: u64,
        /// Retirement gaps beyond the watchdog threshold.
        pub watchdog_events: u64,
        /// Graceful-degradation rungs executed by the watchdog.
        pub watchdog_recoveries: u64,
    } derived(ipc)
}

impl SimStats {
    /// Instructions retired per cycle up to the last retirement.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.last_retire.max(1) as f64
    }
}

/// How many consecutive detected-corruption steps the front end may spend
/// flushing before the error escalates: a genuine soft error clears on
/// the first rebuild, so repeats mean the corruption source is live.
const CORRUPTION_ESCALATION_LIMIT: u32 = 8;

/// Forward-progress watchdog state (§ robustness): retirement gaps beyond
/// `threshold` trigger the degradation ladder, and `max_recoveries`
/// exhausted rungs surface [`SimError::ForwardProgressStall`].
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    /// Retirement-gap trigger in cycles. Far above any legitimate
    /// single-instruction latency (a full MAB of DRAM misses is < 10k).
    threshold: u64,
    /// Degradation rungs to try before erroring out.
    max_recoveries: u32,
    /// Rungs spent so far (decays with sustained progress).
    recoveries: u32,
    /// Consecutive steps with healthy retirement gaps.
    progress_streak: u32,
    /// Most recent trip, for post-run diagnostics. Deliberately not part
    /// of the snapshot codec: it is transient observability state, and
    /// keeping it out preserves the wire format version.
    last_trip: Option<WatchdogTrip>,
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog {
            threshold: 50_000,
            max_recoveries: 3,
            recoveries: 0,
            progress_streak: 0,
            last_trip: None,
        }
    }
}

/// One forward-progress watchdog trip, reported by
/// [`Simulator::watchdog_report`] so callers (the service runner's span
/// attributes, post-mortem dumps) can see what the ladder last did
/// without parsing an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// Retire-time cycle at which the trip fired.
    pub cycle: u64,
    /// Retirement gap that exceeded the threshold.
    pub gap: u64,
    /// Ladder rung spent on this trip (0 = flush, 1 = +FilterMode,
    /// 2+ = +re-key); equals `max_recoveries` when the ladder was
    /// already exhausted and the run erred out.
    pub rung: u32,
}

/// Progress steps needed to forgive one spent recovery rung.
const WATCHDOG_DECAY_STREAK: u32 = 1024;

/// Pre-step statistics snapshot used to derive telemetry events from the
/// deltas one instruction produces. Only captured when a [`Telemetry`]
/// sink is attached, so the plain [`Simulator::step`] path pays nothing.
struct StepProbe {
    counters: SliceMeasure,
    ubtb_locks: u64,
    ubtb_unlocks: u64,
    uoc_mode: Option<UocMode>,
    tp_first: u64,
    tp_dropped: u64,
    buddy_issued: u64,
    standalone_issued: u64,
}

/// What one step's stages hand on to the later stages and to
/// [`Simulator::emit_step_events`], in the order the stages write it.
#[derive(Default)]
struct StepState {
    fired: FaultFiring,
    fb: FetchFeedback,
    corruption_recovered: bool,
    uoc_supply: bool,
    // Cycles the instruction is fetched, issues, completes (a branch
    // resolves) and retires, and the gap since the previous retirement.
    fetch: u64,
    issue: u64,
    complete: u64,
    rt: u64,
    gap: u64,
    /// `(gap, rung)` when the watchdog ran a degradation rung.
    watchdog_trip: Option<(u64, u64)>,
}

/// Free the oldest entry of a full in-flight queue, returning the cycle
/// it retires at (dispatch waits for it), or 0 when the queue has room.
#[inline(always)]
fn free_oldest(queue: &mut VecDeque<u64>, cap: usize) -> u64 {
    if queue.len() >= cap { queue.pop_front().unwrap_or(0) } else { 0 }
}

/// The telemetry tag for a UOC mode.
fn uoc_tag(mode: UocMode) -> UocModeTag {
    match mode {
        UocMode::Filter => UocModeTag::Filter,
        UocMode::Build => UocModeTag::Build,
        UocMode::Fetch => UocModeTag::Fetch,
    }
}

/// The telemetry class for a resolved branch.
fn branch_class(kind: Option<BranchKind>) -> BranchClass {
    match kind {
        Some(k) if k.is_return() => BranchClass::Return,
        Some(k) if k.is_indirect() => BranchClass::Indirect,
        Some(k) if k.is_conditional() => BranchClass::Cond,
        _ => BranchClass::Direct,
    }
}

/// The simulator's aggregate counters at the start of a detail window,
/// captured by [`Simulator::measure_begin`]. The batched lockstep engine
/// and the scalar [`Simulator::run_slice`] path both derive their
/// [`SliceResult`]s through this one pair of helpers, so batched stats
/// are byte-equal to serial stats by construction.
#[derive(Debug, Clone, Copy)]
pub struct SliceMeasure {
    sim: SimStats,
    frontend: FrontendStats,
    mem: MemStats,
}

impl SliceMeasure {
    /// The counts between `earlier` and `self`.
    fn delta(&self, earlier: &SliceMeasure) -> SliceMeasure {
        SliceMeasure {
            sim: self.sim.delta(&earlier.sim),
            frontend: self.frontend.delta(&earlier.frontend),
            mem: self.mem.delta(&earlier.mem),
        }
    }
}

/// Results of one measured slice: the aggregate counters over the detail
/// window alone (warmup excluded) and the three figures derived from them.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// Instructions per cycle: `sim.ipc()`.
    pub ipc: f64,
    /// Branch mispredicts per kilo-instruction: `frontend.mpki()`.
    pub mpki: f64,
    /// Average demand-load latency in cycles: `mem.avg_load_latency()`.
    pub avg_load_latency: f64,
    /// Simulation counters over the detail window; `last_retire` is the
    /// window's length in cycles.
    pub sim: SimStats,
    /// Front-end counters over the detail window.
    pub frontend: FrontendStats,
    /// Memory counters over the detail window.
    pub mem: MemStats,
}

/// The per-generation core simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: CoreConfig,
    frontend: FrontEnd,
    uoc: Option<Uoc>,
    memsys: MemSystem,
    ports: PortSchedule,
    // ---- timing state ----
    fetch_cycle: u64,
    fetch_slots: u32,
    cur_fetch_line: u64,
    reg_ready: [u64; Reg::NUM_TOTAL as usize],
    reg_by_load: [bool; Reg::NUM_TOTAL as usize],
    rob: VecDeque<u64>,
    int_inflight: VecDeque<u64>,
    fp_inflight: VecDeque<u64>,
    last_retire: u64,
    retire_in_cycle: u32,
    decode_depth: u64,
    fe_restart: u64,
    // ---- per-step constants hoisted out of `cfg` (the step loop reads
    // them every instruction) ----
    width: u32,
    rob_cap: usize,
    // In-flight destination caps: the PRF less 32 architectural
    // registers, never below 8.
    int_prf_cap: usize,
    fp_prf_cap: usize,
    lat_mispredict: u64,
    stats: SimStats,
    // ---- robustness ----
    injector: Option<FaultInjector>,
    watchdog: Watchdog,
    strict_decode: bool,
    consecutive_corruptions: u32,
    // Runtime attachment, never serialized: a resumed simulator starts
    // with no token and the driving layer re-attaches its own.
    cancel: Option<CancelToken>,
}

impl Simulator {
    /// Construction after [`CoreConfig::validate`] — the builder's
    /// backend and the resume path. Callers outside the crate go through
    /// [`SimBuilder`](crate::builder::SimBuilder).
    pub(crate) fn construct(cfg: CoreConfig) -> Result<Simulator, SimError> {
        cfg.validate()?;
        let decode_depth = cfg.lat.mispredict as u64 - 5;
        Ok(Simulator {
            frontend: FrontEnd::new(cfg.frontend.clone()),
            uoc: cfg.uoc.clone().map(Uoc::new),
            memsys: MemSystem::new(&cfg),
            ports: PortSchedule::new(&cfg.ports),
            fetch_cycle: 0,
            fetch_slots: 0,
            cur_fetch_line: u64::MAX,
            reg_ready: [0; Reg::NUM_TOTAL as usize],
            reg_by_load: [false; Reg::NUM_TOTAL as usize],
            rob: VecDeque::with_capacity(cfg.rob),
            int_inflight: VecDeque::new(),
            fp_inflight: VecDeque::new(),
            last_retire: 0,
            retire_in_cycle: 0,
            decode_depth,
            fe_restart: 4,
            width: cfg.width,
            rob_cap: cfg.rob,
            int_prf_cap: cfg.int_prf.saturating_sub(32).max(8),
            fp_prf_cap: cfg.fp_prf.saturating_sub(32).max(8),
            lat_mispredict: cfg.lat.mispredict as u64,
            stats: SimStats::default(),
            injector: None,
            watchdog: Watchdog::default(),
            strict_decode: false,
            consecutive_corruptions: 0,
            cancel: None,
            cfg,
        })
    }

    /// Attach a deterministic fault injector executing `plan`. Replaces
    /// any previously attached injector. A plan that fails
    /// [`FaultPlan::validate`] is a [`SimError::Config`] and leaves the
    /// simulator as it was.
    pub fn attach_fault_injector(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate()?;
        self.injector = Some(FaultInjector::new(plan));
        Ok(())
    }

    /// Injection counters (`None` when no injector is attached).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Reconfigure the forward-progress watchdog: a retirement gap beyond
    /// `threshold` cycles triggers the degradation ladder, and after
    /// `max_recoveries` exhausted rungs the run ends with
    /// [`SimError::ForwardProgressStall`]. A zero `threshold` would trip
    /// on every retirement, so it is a [`SimError::Config`] and leaves
    /// the watchdog as it was.
    pub fn set_watchdog(&mut self, threshold: u64, max_recoveries: u32) -> Result<(), SimError> {
        if threshold == 0 {
            return Err(SimError::Config {
                param: "watchdog.threshold",
                detail: "zero-cycle retirement-gap threshold trips on every step".into(),
            });
        }
        self.watchdog.threshold = threshold;
        self.watchdog.max_recoveries = max_recoveries;
        Ok(())
    }

    /// Attach a cooperative cancellation token. The step loop polls it
    /// every [`CANCEL_POLL_PERIOD`](crate::cancel::CANCEL_POLL_PERIOD)
    /// instructions; a cancelled token (or expired deadline) ends the
    /// run with [`SimError::Cancelled`], leaving the simulator
    /// consistent and checkpointable.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Detach the cancellation token, if any.
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
    }

    /// In strict mode a malformed trace record ends the run with
    /// [`SimError::MalformedInst`]; the default lenient policy counts it
    /// in [`SimStats::malformed_insts`] and skips the operation.
    pub fn set_strict_decode(&mut self, strict: bool) {
        self.strict_decode = strict;
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The most recent forward-progress watchdog trip, if any fired
    /// this run (`None` after a resume — trip reports are transient and
    /// not snapshotted).
    pub fn watchdog_report(&self) -> Option<WatchdogTrip> {
        self.watchdog.last_trip
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Front-end access (stats, context switching).
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// Front-end mutable access (context switching in security studies).
    pub fn frontend_mut(&mut self) -> &mut FrontEnd {
        &mut self.frontend
    }

    /// Memory-system access (stats).
    pub fn memsys(&self) -> &MemSystem {
        &self.memsys
    }

    /// UOC statistics (zeroes when the generation has no UOC).
    pub fn uoc_stats(&self) -> exynos_uoc::UocStats {
        self.uoc.as_ref().map(|u| u.stats()).unwrap_or_default()
    }

    fn resources_for(kind: InstKind, branch: Option<BranchKind>) -> &'static [Resource] {
        match kind {
            InstKind::IntAlu | InstKind::Nop => {
                &[Resource::IntS, Resource::IntC, Resource::IntCd]
            }
            InstKind::IntMul => &[Resource::IntC, Resource::IntCd],
            InstKind::IntDiv => &[Resource::IntCd],
            InstKind::Load => &[Resource::Ld, Resource::Gen],
            InstKind::Store => &[Resource::St, Resource::Gen],
            InstKind::FpAdd => &[Resource::Fadd, Resource::Fmac],
            InstKind::FpMul | InstKind::FpMac => &[Resource::Fmac],
            InstKind::Branch => match branch {
                // Indirect branches execute on the complex ALUs (Table I
                // footnote b); direct branches on the BR units.
                Some(b) if b.is_indirect() => &[Resource::IntC, Resource::IntCd],
                _ => &[Resource::Br, Resource::IntC, Resource::IntCd],
            },
        }
    }

    fn exec_latency(&self, kind: InstKind) -> u64 {
        match kind {
            InstKind::IntAlu | InstKind::Nop | InstKind::Branch => 1,
            InstKind::IntMul => self.cfg.lat.imul as u64,
            InstKind::IntDiv => self.cfg.lat.idiv as u64,
            InstKind::FpAdd => self.cfg.lat.fadd as u64,
            InstKind::FpMul => self.cfg.lat.fmul as u64,
            InstKind::FpMac => self.cfg.lat.fmac as u64,
            InstKind::Load | InstKind::Store => {
                debug_assert!(false, "memory ops use the memsys");
                1
            }
        }
    }

    /// Machine occupancy for stall diagnostics.
    fn occupancy_snapshot(&self) -> OccupancySnapshot {
        OccupancySnapshot {
            rob: self.rob.len(),
            rob_capacity: self.cfg.rob,
            int_inflight: self.int_inflight.len(),
            fp_inflight: self.fp_inflight.len(),
            mshr_occupancy: self.memsys.mab_occupancy(self.last_retire),
            mshr_capacity: self.memsys.mab_capacity(),
            uoc_mode: self.uoc.as_ref().map(|u| u.mode()),
            uoc_occupancy: self.uoc.as_ref().map(|u| u.occupancy()).unwrap_or(0),
            fetch_cycle: self.fetch_cycle,
            last_retire: self.last_retire,
        }
    }

    /// A memory op with no address operand: in strict mode this ends the
    /// run; by default it is counted and retired as a 1-cycle no-op.
    fn skip_malformed(&mut self, inst: &Inst, issue: u64) -> Result<u64, SimError> {
        if self.strict_decode {
            return Err(SimError::MalformedInst {
                pc: inst.pc,
                kind: inst.kind,
                reason: "memory op carries no address operand",
            });
        }
        self.stats.malformed_insts += 1;
        Ok(issue + 1)
    }

    /// Process one instruction; returns its retirement cycle.
    ///
    /// An `Err` means the machine could not continue — a strict-decode
    /// violation, corruption that survives flushing, or a retire stage
    /// that stayed wedged through the whole degradation ladder.
    /// Recoverable conditions (detected predictor corruption, UOC state
    /// loss, transient stalls) degrade gracefully and return `Ok`.
    pub fn step(&mut self, inst: &Inst) -> Result<u64, SimError> {
        self.step_impl(inst, None)
    }

    /// One instruction through the stages in pipeline order; each stage
    /// reads what the earlier ones left in the [`StepState`].
    #[inline(always)]
    fn step_impl(&mut self, inst: &Inst, tel: Option<&mut Telemetry>) -> Result<u64, SimError> {
        self.poll_cancel()?;
        // Snapshot stat counters so post-step deltas become events. Only
        // paid when a sink is attached.
        let probe = tel.as_ref().map(|_| self.capture_probe());
        let mut inst = *inst;
        let mut s = self.inject_faults(&mut inst);
        let inst = &inst;
        self.front_end(inst, &mut s)?;
        self.uoc(inst, &mut s);
        self.ifetch(inst, &mut s)?;
        self.dispatch_issue(inst, &mut s);
        self.execute(inst, &mut s)?;
        self.retire(inst, &mut s)?;
        if let (Some(tel), Some(p)) = (tel, probe) {
            self.emit_step_events(tel, &p, inst, &s);
        }
        Ok(s.rt)
    }

    /// Cooperative cancellation: one relaxed-load poll per
    /// CANCEL_POLL_PERIOD instructions keeps deadline enforcement off
    /// the per-step critical path.
    #[inline(always)]
    fn poll_cancel(&self) -> Result<(), SimError> {
        let instructions = self.stats.instructions;
        match &self.cancel {
            Some(tok) if instructions & (crate::cancel::CANCEL_POLL_PERIOD - 1) == 0 => tok
                .should_stop()
                .map_or(Ok(()), |deadline| Err(SimError::Cancelled { instructions, deadline })),
            _ => Ok(()),
        }
    }

    /// Fault injection: tick the injector, corrupt the state it names,
    /// and mutate the trace record — a warped PC makes a discontinuity
    /// gap; a stripped operand makes a malformed memory op.
    #[inline(always)]
    fn inject_faults(&mut self, inst: &mut Inst) -> StepState {
        let Some(inj) = self.injector.as_mut() else { return StepState::default() };
        let fired = inj.tick();
        if let Some(salt) = fired.corrupt_btb_target {
            let _ = self.frontend.corrupt_btb_target(salt);
        }
        if let Some(salt) = fired.corrupt_btb_tag {
            let _ = self.frontend.corrupt_btb_tag(salt);
        }
        if let Some(salt) = fired.flip_shp_weight {
            self.frontend.flip_shp_weight(salt);
        }
        if let Some(keep) = fired.truncate_ras {
            self.frontend.truncate_ras(keep);
        }
        if fired.drop_prefetch {
            let _ = self.memsys.drop_prefetch_state();
        }
        if fired.gap_inst {
            inst.pc ^= 0x4000_0000;
        }
        if fired.malform_inst {
            inst.mem = None;
            if !matches!(inst.kind, InstKind::Load | InstKind::Store) {
                inst.kind = InstKind::Load;
                inst.branch = None;
            }
        }
        StepState { fired, ..StepState::default() }
    }

    /// Front end: prediction feedback, or a flush when it detects
    /// corrupted predictor state.
    #[inline(always)]
    fn front_end(&mut self, inst: &Inst, s: &mut StepState) -> Result<(), SimError> {
        match self.frontend.on_inst(inst) {
            Ok(fb) => {
                self.consecutive_corruptions = 0;
                s.fb = fb;
            }
            Err(e) => {
                // The parity-error analog: flush the front end and
                // restart fetch. A genuine soft error clears on the first
                // rebuild, so back-to-back detections mean the source is
                // live and the error escalates.
                self.stats.predictor_corruptions += 1;
                self.consecutive_corruptions += 1;
                if self.consecutive_corruptions > CORRUPTION_ESCALATION_LIMIT {
                    return Err(e.into());
                }
                s.corruption_recovered = true;
                self.frontend.flush_predictors();
                self.delay_fetch(self.lat_mispredict);
                self.cur_fetch_line = u64::MAX;
            }
        }
        Ok(())
    }

    /// UOC mode machine (M5+): feed block structure; FetchMode gates the
    /// instruction cache and decoders.
    #[inline(always)]
    fn uoc(&mut self, inst: &Inst, s: &mut StepState) {
        let Some(uoc) = &mut self.uoc else { return };
        let (taken, broken) = (inst.is_taken_branch(), s.fb.redirect.is_some());
        uoc.on_inst(inst.pc, inst.branch.is_some(), taken, broken, self.frontend.ubtb_mut());
        s.uoc_supply = uoc.mode() == UocMode::Fetch;
        if s.uoc_supply {
            self.stats.uoc_supplied += 1;
        }
    }

    /// Instruction fetch: trace gaps, prediction bubbles, the L1I
    /// (skipped while the UOC supplies µops) and fetch-width slotting.
    #[inline(always)]
    fn ifetch(&mut self, inst: &Inst, s: &mut StepState) -> Result<(), SimError> {
        // Trace gaps delay THIS instruction's fetch.
        if s.fb.redirect == Some(Redirect::TraceGap) {
            self.delay_fetch(self.lat_mispredict);
        }
        // Prediction-pipe bubbles precede this instruction.
        if s.fb.bubbles > 0 {
            self.delay_fetch(s.fb.bubbles as u64);
        }
        let line = inst.pc / LINE_BYTES;
        if line != self.cur_fetch_line {
            self.cur_fetch_line = line;
            if !s.uoc_supply {
                let lat = self.memsys.ifetch(inst.pc, self.fetch_cycle)?;
                if lat > 0 {
                    self.delay_fetch(lat);
                }
            }
        }
        if self.fetch_slots >= self.width {
            self.delay_fetch(1);
        }
        s.fetch = self.fetch_cycle;
        self.fetch_slots += 1;
        // A taken branch redirects fetch: it closes the current fetch
        // group, so at most one taken branch is consumed per cycle (the
        // "zero-bubble" paths still deliver one redirect per cycle).
        if inst.is_taken_branch() {
            self.fetch_slots = self.width;
        }
        Ok(())
    }

    /// Hold fetch for `cycles` and start a new fetch group.
    #[inline(always)]
    fn delay_fetch(&mut self, cycles: u64) {
        self.fetch_cycle += cycles;
        self.fetch_slots = 0;
    }

    /// Dispatch under the ROB and PRF limits, then issue once the
    /// sources are ready and a port is free.
    #[inline(always)]
    fn dispatch_issue(&mut self, inst: &Inst, s: &mut StepState) {
        let rob_freed = free_oldest(&mut self.rob, self.rob_cap);
        let prf_freed = match inst.dst {
            Some(dst) if dst.is_int() => free_oldest(&mut self.int_inflight, self.int_prf_cap),
            Some(_) => free_oldest(&mut self.fp_inflight, self.fp_prf_cap),
            None => 0,
        };
        let mut ready = (s.fetch + self.decode_depth).max(rob_freed).max(prf_freed);
        for src in inst.srcs.iter().flatten() {
            if !src.is_zero() {
                ready = ready.max(self.reg_ready[src.index()]);
            }
        }
        let eligible = Self::resources_for(inst.kind, inst.branch.map(|b| b.kind));
        s.issue = self.ports.book(eligible, ready);
    }

    /// Execute: memory ops through the memory system, the rest at their
    /// class latency, plus any injected completion stall (it wedges
    /// retirement; the watchdog's job is to notice).
    #[inline(always)]
    fn execute(&mut self, inst: &Inst, s: &mut StepState) -> Result<(), SimError> {
        let issue = s.issue;
        let complete = match (inst.kind, inst.mem) {
            (InstKind::Load, Some(m)) => {
                self.stats.loads += 1;
                let by_load = |r: &Reg| !r.is_zero() && self.reg_by_load[r.index()];
                let cascade = inst.srcs.iter().flatten().any(by_load);
                self.memsys.load(inst.pc, m.vaddr, issue, cascade)?
            }
            (InstKind::Store, Some(m)) => self.memsys.store(inst.pc, m.vaddr, issue)?,
            (InstKind::Load | InstKind::Store, None) => self.skip_malformed(inst, issue)?,
            (kind, _) => issue + self.exec_latency(kind),
        };
        s.complete = complete + s.fired.stall_cycles;
        Ok(())
    }

    /// Redirect resolution, writeback, in-order retirement, and the
    /// forward-progress watchdog.
    #[inline(always)]
    fn retire(&mut self, inst: &Inst, s: &mut StepState) -> Result<(), SimError> {
        if matches!(s.fb.redirect, Some(Redirect::Mispredict | Redirect::Discovery)) {
            // The front end restarts once this branch resolves.
            let restart = s.complete + self.fe_restart;
            self.delay_fetch(restart.saturating_sub(self.fetch_cycle));
            self.cur_fetch_line = u64::MAX;
        }
        if let Some(dst) = inst.dst {
            self.reg_ready[dst.index()] = s.complete;
            self.reg_by_load[dst.index()] = inst.kind == InstKind::Load;
        }
        let mut rt = s.complete.max(self.last_retire);
        if rt == self.last_retire {
            if self.retire_in_cycle >= self.width {
                rt += 1;
                self.retire_in_cycle = 0;
            }
        } else {
            self.retire_in_cycle = 0;
        }
        // In this instruction-stepped model "N cycles without retirement"
        // is a gap between consecutive retire timestamps.
        let gap = rt - self.last_retire;
        (s.rt, s.gap) = (rt, gap);
        if gap > self.watchdog.threshold {
            let rung = self.watchdog.recoveries;
            self.stats.watchdog_events += 1;
            self.watchdog.progress_streak = 0;
            self.watchdog.last_trip = Some(WatchdogTrip { cycle: rt, gap, rung });
            if rung >= self.watchdog.max_recoveries {
                return Err(SimError::ForwardProgressStall {
                    cycle: rt,
                    stalled_cycles: gap,
                    recoveries: rung,
                    snapshot: self.occupancy_snapshot(),
                });
            }
            // Graceful degradation, one rung per event, each adding to
            // the last: flush the front end; then also surrender the UOC;
            // then also re-key the context cipher in case an encrypted
            // structure went bad.
            if rung >= 2 {
                self.frontend.rekey(0x5EED_F00D ^ rt);
            }
            if rung >= 1 {
                if let Some(uoc) = &mut self.uoc {
                    uoc.demote_to_filter();
                }
            }
            self.frontend.flush_predictors();
            s.watchdog_trip = Some((gap, rung as u64));
            self.watchdog.recoveries += 1;
            self.stats.watchdog_recoveries += 1;
        } else {
            // Sustained progress forgives spent rungs, so isolated stalls
            // hours apart don't accumulate into a spurious abort.
            self.watchdog.progress_streak += 1;
            if self.watchdog.progress_streak >= WATCHDOG_DECAY_STREAK {
                self.watchdog.progress_streak = 0;
                self.watchdog.recoveries = self.watchdog.recoveries.saturating_sub(1);
            }
        }
        self.retire_in_cycle += 1;
        self.last_retire = rt;
        self.rob.push_back(rt);
        match inst.dst {
            Some(dst) if dst.is_int() => self.int_inflight.push_back(rt),
            Some(_) => self.fp_inflight.push_back(rt),
            None => {}
        }
        self.stats.instructions += 1;
        self.stats.last_retire = rt;
        Ok(())
    }

    /// Snapshot the counters `emit_step_events` diffs against.
    fn capture_probe(&self) -> StepProbe {
        let ubtb = self.frontend.ubtb_stats();
        let tp = self.memsys.twopass().stats();
        StepProbe {
            counters: self.measure_begin(),
            ubtb_locks: ubtb.locks,
            ubtb_unlocks: ubtb.unlocks,
            uoc_mode: self.uoc.as_ref().map(|u| u.mode()),
            tp_first: tp.first_passes,
            tp_dropped: tp.dropped,
            buddy_issued: self.memsys.buddy_stats().issued,
            standalone_issued: self.memsys.standalone_stats().issued,
        }
    }

    /// Turn one step's stat deltas into pipeline events. Every event is
    /// stamped at the retirement cycle; retirement never moves
    /// backwards, so the trace stays cycle-monotone by construction.
    fn emit_step_events(&self, tel: &mut Telemetry, p: &StepProbe, inst: &Inst, s: &StepState) {
        let (fired, rt, n, pc) = (&s.fired, s.rt, self.stats.instructions, inst.pc);
        let mut emit = |hit: bool, event: PipelineEvent| {
            if hit {
                tel.record(rt, n, event);
            }
        };
        // Injector firings come first: the pipeline's reaction (flushes,
        // gaps, malformed skips) follows from them.
        let firings = [
            (fired.corrupt_btb_target.is_some(), FaultClass::BtbTarget),
            (fired.corrupt_btb_tag.is_some(), FaultClass::BtbTag),
            (fired.flip_shp_weight.is_some(), FaultClass::ShpWeight),
            (fired.truncate_ras.is_some(), FaultClass::RasTruncate),
            (fired.drop_prefetch, FaultClass::PrefetchDrop),
            (fired.malform_inst, FaultClass::Malformed),
            (fired.gap_inst, FaultClass::TraceGap),
            (fired.stall_cycles > 0, FaultClass::Stall),
        ];
        for (hit, class) in firings {
            emit(hit, PipelineEvent::FaultInjected { class });
        }
        let consecutive = self.consecutive_corruptions as u64;
        emit(s.corruption_recovered, PipelineEvent::CorruptionRecovered { consecutive });
        let (redirect, class) = (s.fb.redirect, branch_class(inst.branch.map(|b| b.kind)));
        let mispredict = PipelineEvent::Mispredict { pc, class, resolve_cycle: s.complete };
        emit(redirect == Some(Redirect::Mispredict), mispredict);
        emit(redirect == Some(Redirect::Discovery), PipelineEvent::BranchDiscovery { pc });
        emit(redirect == Some(Redirect::TraceGap), PipelineEvent::TraceGap { pc });
        let d = self.measure_begin().delta(&p.counters);
        let (fe, ubtb) = (d.frontend, self.frontend.ubtb_stats());
        emit(fe.conf_flips_to_low > 0, PipelineEvent::ShpConfFlip { to_low: true });
        emit(fe.conf_flips_to_high > 0, PipelineEvent::ShpConfFlip { to_low: false });
        emit(ubtb.locks > p.ubtb_locks, PipelineEvent::UbtbLock);
        emit(ubtb.unlocks > p.ubtb_unlocks, PipelineEvent::UbtbUnlock);
        if let (Some(from), Some(to)) = (p.uoc_mode, self.uoc.as_ref().map(|u| u.mode())) {
            emit(from != to, PipelineEvent::UocTransition { from: uoc_tag(from), to: uoc_tag(to) });
        }
        // Prefetch activity: launches from the engines, fills and drops
        // from the memory system.
        let (tp, mem) = (self.memsys.twopass().stats(), d.mem);
        let launches = [
            (tp.first_passes - p.tp_first, PrefetchKind::L1),
            (self.memsys.buddy_stats().issued - p.buddy_issued, PrefetchKind::Buddy),
            (self.memsys.standalone_stats().issued - p.standalone_issued, PrefetchKind::Standalone),
        ];
        for (count, kind) in launches {
            emit(count > 0, PipelineEvent::PrefetchLaunch { kind, count });
        }
        let fills = [
            (mem.l1_prefetch_fills, PrefetchKind::L1),
            (mem.buddy_fills, PrefetchKind::Buddy),
            (mem.standalone_fills, PrefetchKind::Standalone),
        ];
        for (count, kind) in fills {
            emit(count > 0, PipelineEvent::PrefetchFill { kind, count });
        }
        let count = tp.dropped - p.tp_dropped;
        emit(count > 0, PipelineEvent::PrefetchDrop { kind: PrefetchKind::L1, count });
        emit(d.sim.malformed_insts > 0, PipelineEvent::MalformedInst { pc });
        if let Some((gap, rung)) = s.watchdog_trip {
            emit(true, PipelineEvent::WatchdogTrip { gap, rung });
        }
        // Histograms: every retirement gap, and demand-load latency when
        // this step performed a load.
        tel.observe_retire_gap(s.gap);
        if mem.loads > 0 {
            tel.observe_load_latency(mem.total_load_latency);
        }
    }

    /// Run a warmup + detail slice of `gen`, returning measured results
    /// for the detail window.
    pub fn run_slice(
        &mut self,
        gen: &mut dyn TraceGen,
        plan: SlicePlan,
    ) -> Result<SliceResult, SimError> {
        self.run_slice_impl(gen, plan, None)
    }

    /// [`run_slice`](Simulator::run_slice) with a telemetry sink: events
    /// stream into the trace and the metrics registry is re-sampled into
    /// an epoch row every [`Telemetry::epoch_len`] instructions.
    pub fn run_slice_with(
        &mut self,
        gen: &mut dyn TraceGen,
        plan: SlicePlan,
        tel: &mut Telemetry,
    ) -> Result<SliceResult, SimError> {
        self.run_slice_impl(gen, plan, Some(tel))
    }

    fn run_slice_impl(
        &mut self,
        gen: &mut dyn TraceGen,
        plan: SlicePlan,
        mut tel: Option<&mut Telemetry>,
    ) -> Result<SliceResult, SimError> {
        self.run_insts(gen, plan.warmup, tel.as_deref_mut())?;
        let measure = self.measure_begin();
        self.run_insts(gen, plan.detail, tel)?;
        Ok(self.measure_end(&measure))
    }

    /// Step the simulator through `n` instructions from `gen` without
    /// measuring a detail window — the warm-up half of a
    /// checkpoint-then-fork workflow.
    pub fn run_warmup(&mut self, gen: &mut dyn TraceGen, n: u64) -> Result<(), SimError> {
        self.run_insts(gen, n, None)
    }

    /// The instruction loop behind every `run_*`: step `n` records of
    /// `gen`, closing a telemetry epoch whenever one falls due.
    fn run_insts(
        &mut self,
        gen: &mut dyn TraceGen,
        n: u64,
        mut tel: Option<&mut Telemetry>,
    ) -> Result<(), SimError> {
        for _ in 0..n {
            self.step_impl(&gen.next_inst(), tel.as_deref_mut())?;
            if let Some(t) = tel.as_deref_mut().filter(|t| t.epoch_due(self.stats.instructions)) {
                self.close_epoch(t);
            }
        }
        Ok(())
    }

    /// Snapshot the counters a detail window is measured against. Pair
    /// with [`Simulator::measure_end`]; the scalar slice runner and the
    /// batched lockstep engine share this math.
    pub fn measure_begin(&self) -> SliceMeasure {
        SliceMeasure { sim: self.stats, frontend: *self.frontend.stats(), mem: self.memsys.stats() }
    }

    /// The [`SliceResult`] of everything stepped since the paired
    /// [`Simulator::measure_begin`].
    pub fn measure_end(&self, m: &SliceMeasure) -> SliceResult {
        let SliceMeasure { sim, frontend, mem } = self.measure_begin().delta(m);
        SliceResult {
            ipc: sim.ipc(),
            mpki: frontend.mpki(),
            avg_load_latency: mem.avg_load_latency(),
            sim,
            frontend,
            mem,
        }
    }

    /// Step every record of a decoded block in order — the per-member
    /// inner loop of the batched lockstep engine. Equivalent to calling
    /// [`Simulator::step`] once per record, so a batch that feeds each
    /// member the same chunk sequence it would have generated itself
    /// produces byte-identical state.
    pub fn run_block(&mut self, block: &[Inst]) -> Result<(), SimError> {
        for inst in block {
            self.step(inst)?;
        }
        Ok(())
    }

    /// Sample the machine into `tel` and close an epoch row at the
    /// current instruction count — unless the last row already stands
    /// there, so a run that ends on an epoch boundary gets no duplicate
    /// trailing row.
    pub fn close_epoch(&self, tel: &mut Telemetry) {
        let series = tel.series();
        let last = series.len().checked_sub(1).and_then(|i| series.mark(i));
        if last.is_some_and(|m| m.instructions == self.stats.instructions) {
            return;
        }
        self.sample_telemetry(tel);
        tel.end_epoch(self.stats.instructions, self.stats.last_retire);
    }

    /// Snapshot every statistics producer in the machine into `tel`'s
    /// metrics registry. Multi-instance producers (cache levels, TLBs)
    /// register under per-instance component paths.
    pub fn sample_telemetry(&self, tel: &mut Telemetry) {
        tel.sample(&self.stats);
        tel.sample(&self.memsys.stats());
        // Branch front end.
        tel.sample(self.frontend.stats());
        tel.sample(&self.frontend.ras_stats());
        tel.sample(&self.frontend.mrb_stats());
        tel.sample(&self.frontend.ubtb_stats());
        tel.sample(&self.frontend.btb_stats());
        tel.sample(&self.frontend.indirect_stats());
        tel.gauge("branch.ubtb", "built_fraction", self.frontend.ubtb().built_fraction());
        // Memory hierarchy, one instance per level.
        tel.sample_named("mem.cache.l1d", &self.memsys.l1d_stats());
        tel.sample_named("mem.cache.l2", &self.memsys.l2_stats());
        tel.sample_named("mem.cache.l3", &self.memsys.l3_stats());
        let tlb = self.memsys.tlb();
        tel.sample_named("mem.tlb.itlb", &tlb.itlb.stats());
        tel.sample_named("mem.tlb.dtlb", &tlb.dtlb.stats());
        if let Some(d15) = &tlb.dtlb15 {
            tel.sample_named("mem.tlb.dtlb15", &d15.stats());
        }
        tel.sample_named("mem.tlb.l2tlb", &tlb.l2tlb.stats());
        tel.sample_named("mem.mshr.mab", &self.memsys.mab_stats());
        // Prefetch engines.
        tel.sample(&self.memsys.l1_prefetcher().stride_stats());
        tel.sample(&self.memsys.l1_prefetcher().sms_stats());
        tel.sample(&self.memsys.l1_prefetcher().reorder_stats());
        tel.sample(&self.memsys.twopass().stats());
        tel.sample(&self.memsys.buddy_stats());
        tel.sample(&self.memsys.standalone_stats());
        // DRAM path.
        tel.sample(&self.memsys.dram_stats());
        tel.sample(&self.memsys.spec_stats());
        // UOC (M5+ generations only).
        if let Some(uoc) = &self.uoc {
            tel.sample(&uoc.stats());
            tel.gauge("uoc.cache", "occupancy", uoc.occupancy() as f64);
        }
        if let Some(fs) = self.fault_stats() {
            tel.sample(&fs);
        }
    }
}

mod snapshot_impl {
    use super::*;
    use crate::config::Generation;
    use exynos_snapshot::layout::Codec;
    use exynos_snapshot::{codes, layout, tags, Decoder, Encoder, Snapshot, SnapshotError};

    codes! {
        /// The header `meta` word: which generation the image is from.
        GenCode: Generation as u16, "generation tag" {
            M1 = 1, M2 = 2, M3 = 3, M4 = 4, M5 = 5, M6 = 6,
        }
    }

    layout! {
        Watchdog [tags::WATCHDOG] { threshold, max_recoveries, recoveries, progress_streak }
            then check_threshold
    }

    impl Watchdog {
        /// The check [`Simulator::set_watchdog`] applies: a zero
        /// threshold would trip on every retirement.
        fn check_threshold(&mut self) -> Result<(), SnapshotError> {
            if self.threshold == 0 {
                return Err(SnapshotError::Corrupt { what: "watchdog threshold" });
            }
            Ok(())
        }
    }
    layout! {
        Simulator [tags::SIM] |s| {
            frontend,
            uoc: Present("uoc presence"),
            memsys, ports, fetch_cycle, fetch_slots, cur_fetch_line, reg_ready, reg_by_load,
            rob: Bounded(s.rob_cap, "rob occupancy"),
            int_inflight: Bounded(s.int_prf_cap, "int prf occupancy"),
            fp_inflight: Bounded(s.fp_prf_cap, "fp prf occupancy"),
            last_retire, retire_in_cycle, stats, injector, watchdog, strict_decode,
            consecutive_corruptions,
        }
    }

    impl Simulator {
        /// Serialize the complete microarchitectural state into the
        /// versioned checkpoint format (see DESIGN.md "Snapshot format").
        /// The image is self-contained: it records the generation, the
        /// fault-injection plan, and the watchdog configuration, so
        /// [`Simulator::resume`] needs nothing but the bytes.
        pub fn checkpoint(&self) -> Vec<u8> {
            let mut enc = Encoder::with_header(GenCode::encode(&self.cfg.gen));
            self.save(&mut enc);
            enc.finish()
        }

        /// Rebuild a simulator from a checkpoint image produced by
        /// [`Simulator::checkpoint`]. The generation is read from the
        /// image header and the stock configuration for that generation is
        /// used; see [`Simulator::resume_with_config`] for customized
        /// configurations.
        pub fn resume(bytes: &[u8]) -> Result<Simulator, SimError> {
            let mut dec = Decoder::new(bytes);
            let meta = dec.header()?;
            let gen = GenCode::decode(meta)?;
            Simulator::resume_into(CoreConfig::for_generation(gen), dec)
        }

        /// [`resume`](Simulator::resume) against a caller-supplied
        /// configuration (for non-stock geometries). The configuration
        /// must match the one the checkpoint was taken from: every
        /// geometry mismatch (table sizes, optional-component presence,
        /// generation tag) is a typed [`SimError::SnapshotDecode`], and a
        /// configuration [`CoreConfig::validate`] rejects is its error.
        pub fn resume_with_config(cfg: CoreConfig, bytes: &[u8]) -> Result<Simulator, SimError> {
            let mut dec = Decoder::new(bytes);
            let meta = dec.header()?;
            let want = GenCode::encode(&cfg.gen);
            if meta != want {
                return Err(SnapshotError::Geometry {
                    what: "generation tag",
                    expected: u64::from(want),
                    found: u64::from(meta),
                }
                .into());
            }
            Simulator::resume_into(cfg, dec)
        }

        fn resume_into(cfg: CoreConfig, mut dec: Decoder<'_>) -> Result<Simulator, SimError> {
            let mut sim = Simulator::construct(cfg)?;
            sim.restore(&mut dec)?;
            dec.finish()?;
            Ok(sim)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::builder::SimBuilder;

        /// Live stepping frees the oldest entry before it books a new
        /// one, so no run leaves more than the cap in flight: an image
        /// that does would resume into an unreachable state and must be
        /// rejected as geometry, while one at the cap resumes.
        #[test]
        fn over_capacity_inflight_queues_do_not_resume() {
            let cfg = CoreConfig::m1();
            for fp in [false, true] {
                for extra in [0u64, 1] {
                    let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
                    let (queue, cap, what) = if fp {
                        (&mut sim.fp_inflight, sim.fp_prf_cap, "fp prf occupancy")
                    } else {
                        (&mut sim.int_inflight, sim.int_prf_cap, "int prf occupancy")
                    };
                    let n = cap as u64 + extra;
                    queue.extend(0..n);
                    let image = sim.checkpoint();
                    match Simulator::resume_with_config(cfg.clone(), &image) {
                        Ok(_) => assert_eq!(extra, 0, "{what}: {n} entries resumed"),
                        Err(SimError::SnapshotDecode { detail }) => {
                            assert_eq!(extra, 1, "{what}: {detail}");
                            let want = SnapshotError::Geometry {
                                what,
                                expected: cap as u64,
                                found: n,
                            };
                            assert_eq!(detail, want.to_string());
                        }
                        Err(e) => panic!("{what}: unexpected {e}"),
                    }
                }
            }
        }
    }
}
