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
use exynos_telemetry::{
    BranchClass, FaultClass, PipelineEvent, PrefetchKind, Telemetry, UocModeTag,
};
use exynos_trace::{BranchKind, Inst, InstKind, Reg, SlicePlan, TraceGen};
use exynos_uoc::{Uoc, UocMode};
use std::collections::VecDeque;

/// Cumulative simulation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
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
    /// UOC block-state losses recovered by demotion to FilterMode.
    pub uoc_recoveries: u64,
    /// Retirement gaps beyond the watchdog threshold.
    pub watchdog_events: u64,
    /// Graceful-degradation rungs executed by the watchdog.
    pub watchdog_recoveries: u64,
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
    fe: FrontendStats,
    ubtb_locks: u64,
    ubtb_unlocks: u64,
    uoc_mode: Option<UocMode>,
    tp_first: u64,
    tp_dropped: u64,
    buddy_issued: u64,
    standalone_issued: u64,
    mem: MemStats,
    malformed: u64,
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

/// Measurement baseline captured at the start of a detail window by
/// [`Simulator::measure_begin`]. The batched lockstep engine and the
/// scalar [`Simulator::run_slice`] path both derive their
/// [`SliceResult`]s through this one pair of helpers, so batched stats
/// are byte-equal to serial stats by construction.
#[derive(Debug, Clone, Copy)]
pub struct SliceMeasure {
    start_insts: u64,
    start_cycle: u64,
    fe0: FrontendStats,
    mem0: MemStats,
}

/// Results of one measured slice.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// Instructions measured.
    pub instructions: u64,
    /// Cycles elapsed over the detail window.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Branch mispredicts per kilo-instruction.
    pub mpki: f64,
    /// Average demand-load latency in cycles.
    pub avg_load_latency: f64,
    /// Front-end statistics over the whole run (warmup + detail).
    pub frontend: FrontendStats,
    /// Memory statistics over the whole run.
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
    int_prf_cap: usize,
    fp_prf_cap: usize,
    lat_mispredict: u64,
    load_cascade: bool,
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
    /// Construction without validation — the builder's backend and the
    /// resume path. Callers outside the crate go through
    /// [`SimBuilder`](crate::builder::SimBuilder).
    pub(crate) fn construct(cfg: CoreConfig) -> Simulator {
        let decode_depth = cfg.lat.mispredict as u64 - 5;
        Simulator {
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
            int_prf_cap: cfg.int_prf.saturating_sub(32),
            fp_prf_cap: cfg.fp_prf.saturating_sub(32),
            lat_mispredict: cfg.lat.mispredict as u64,
            load_cascade: cfg.mem.load_cascade,
            stats: SimStats::default(),
            injector: None,
            watchdog: Watchdog::default(),
            strict_decode: false,
            consecutive_corruptions: 0,
            cancel: None,
            cfg,
        }
    }

    /// Attach a deterministic fault injector executing `plan`. Replaces
    /// any previously attached injector.
    pub fn attach_fault_injector(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Injection counters (`None` when no injector is attached).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Reconfigure the forward-progress watchdog: a retirement gap beyond
    /// `threshold` cycles triggers the degradation ladder, and after
    /// `max_recoveries` exhausted rungs the run ends with
    /// [`SimError::ForwardProgressStall`].
    pub fn set_watchdog(&mut self, threshold: u64, max_recoveries: u32) {
        self.watchdog.threshold = threshold.max(1);
        self.watchdog.max_recoveries = max_recoveries;
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

    /// Apply the state-corruption components of one injector firing.
    fn apply_state_faults(&mut self, fired: &FaultFiring) {
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
    }

    /// Mutate a trace record per the injector firing: a warped PC makes a
    /// discontinuity gap; a stripped operand makes a malformed memory op.
    fn mutate_inst(inst: &mut Inst, fired: &FaultFiring) {
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

    fn step_impl(&mut self, inst: &Inst, tel: Option<&mut Telemetry>) -> Result<u64, SimError> {
        // Cooperative cancellation: one relaxed-load poll per
        // CANCEL_POLL_PERIOD instructions keeps deadline enforcement off
        // the per-step critical path.
        if let Some(tok) = &self.cancel {
            if self.stats.instructions & (crate::cancel::CANCEL_POLL_PERIOD - 1) == 0 {
                if let Some(deadline) = tok.should_stop() {
                    return Err(SimError::Cancelled {
                        instructions: self.stats.instructions,
                        deadline,
                    });
                }
            }
        }
        // Snapshot stat counters so post-step deltas become events. Only
        // paid when a sink is attached.
        let probe = tel.as_ref().map(|_| self.capture_probe());
        let mut corruption_recovered = false;
        let mut uoc_loss = false;
        let mut watchdog_trip: Option<(u64, u64)> = None;
        let width = self.width;
        // ---------------- Fault injection ----------------
        let mut inst = *inst;
        let fired = match self.injector.as_mut() {
            Some(inj) => inj.tick(),
            None => FaultFiring::default(),
        };
        self.apply_state_faults(&fired);
        Self::mutate_inst(&mut inst, &fired);
        let inst = &inst;
        // ---------------- Front end ----------------
        let fb = match self.frontend.on_inst(inst) {
            Ok(fb) => {
                self.consecutive_corruptions = 0;
                fb
            }
            Err(e) => {
                // Detected predictor-state corruption (the parity-error
                // analog): flush the front end and restart fetch. A
                // genuine soft error clears on the first rebuild, so
                // back-to-back detections mean the source is live and the
                // error escalates.
                self.stats.predictor_corruptions += 1;
                self.consecutive_corruptions += 1;
                if self.consecutive_corruptions > CORRUPTION_ESCALATION_LIMIT {
                    return Err(e.into());
                }
                corruption_recovered = true;
                self.frontend.flush_predictors();
                self.fetch_cycle += self.lat_mispredict;
                self.fetch_slots = 0;
                self.cur_fetch_line = u64::MAX;
                FetchFeedback::NONE
            }
        };
        // UOC mode machine (M5+): feed block structure; FetchMode gates the
        // instruction cache and decoders.
        let mut uoc_supply = false;
        if let Some(uoc) = &mut self.uoc {
            let broken = fb.redirect.is_some();
            let taken = inst.is_taken_branch();
            if uoc
                .on_inst(inst.pc, inst.branch.is_some(), taken, broken, self.frontend.ubtb_mut())
                .is_err()
            {
                // Lost block state: surrender the µop supply and rebuild
                // from FilterMode rather than serving a stale block.
                uoc.demote_to_filter();
                self.stats.uoc_recoveries += 1;
                uoc_loss = true;
            }
            uoc_supply = uoc.mode() == UocMode::Fetch;
            if uoc_supply {
                self.stats.uoc_supplied += 1;
            }
        }
        // Trace gaps delay THIS instruction's fetch.
        if fb.redirect == Some(Redirect::TraceGap) {
            self.fetch_cycle += self.lat_mispredict;
            self.fetch_slots = 0;
        }
        // Prediction-pipe bubbles precede this instruction.
        if fb.bubbles > 0 {
            self.fetch_cycle += fb.bubbles as u64;
            self.fetch_slots = 0;
        }
        // Instruction cache (skipped while the UOC supplies µops).
        let line = inst.pc >> 6;
        if line != self.cur_fetch_line {
            self.cur_fetch_line = line;
            if !uoc_supply {
                let lat = self.memsys.ifetch(inst.pc, self.fetch_cycle)?;
                if lat > 0 {
                    self.fetch_cycle += lat;
                    self.fetch_slots = 0;
                }
            }
        }
        // Fetch-width slotting.
        if self.fetch_slots >= width {
            self.fetch_cycle += 1;
            self.fetch_slots = 0;
        }
        let fetch_time = self.fetch_cycle;
        self.fetch_slots += 1;
        // A taken branch redirects fetch: it closes the current fetch
        // group, so at most one taken branch is consumed per cycle (the
        // "zero-bubble" paths still deliver one redirect per cycle).
        if inst.is_taken_branch() {
            self.fetch_slots = width;
        }

        // ---------------- Dispatch (ROB / PRF limits) ----------------
        let mut dispatch = fetch_time + self.decode_depth;
        if self.rob.len() >= self.rob_cap {
            debug_assert!(!self.rob.is_empty(), "a full ROB cannot be empty");
            if let Some(oldest) = self.rob.pop_front() {
                dispatch = dispatch.max(oldest);
            }
        }
        if let Some(dst) = inst.dst {
            let (q, cap) = if dst.is_int() {
                (&mut self.int_inflight, self.int_prf_cap)
            } else {
                (&mut self.fp_inflight, self.fp_prf_cap)
            };
            if q.len() >= cap.max(8) {
                debug_assert!(!q.is_empty(), "a full PRF queue cannot be empty");
                if let Some(freed) = q.pop_front() {
                    dispatch = dispatch.max(freed);
                }
            }
        }

        // ---------------- Ready / issue ----------------
        let mut ready = dispatch;
        for src in inst.srcs.iter().flatten() {
            if !src.is_zero() {
                ready = ready.max(self.reg_ready[src.index()]);
            }
        }
        let eligible = Self::resources_for(inst.kind, inst.branch.map(|b| b.kind));
        let issue = self.ports.book(eligible, ready);

        // ---------------- Execute ----------------
        let complete = match inst.kind {
            InstKind::Load => match inst.mem {
                Some(m) => {
                    self.stats.loads += 1;
                    let cascade = self.load_cascade
                        && inst
                            .srcs
                            .iter()
                            .flatten()
                            .any(|s| !s.is_zero() && self.reg_by_load[s.index()]);
                    self.memsys.load(inst.pc, m.vaddr, issue, cascade)?
                }
                None => self.skip_malformed(inst, issue)?,
            },
            InstKind::Store => match inst.mem {
                Some(m) => self.memsys.store(inst.pc, m.vaddr, issue)?,
                None => self.skip_malformed(inst, issue)?,
            },
            _ => issue + self.exec_latency(inst.kind),
        };
        // Injected completion stall (wedges retirement; the watchdog's
        // job is to notice).
        let complete = complete + fired.stall_cycles;

        // ---------------- Redirect resolution ----------------
        match fb.redirect {
            Some(Redirect::Mispredict) | Some(Redirect::Discovery) => {
                // The front end restarts once this branch resolves.
                self.fetch_cycle = self.fetch_cycle.max(complete + self.fe_restart);
                self.fetch_slots = 0;
                self.cur_fetch_line = u64::MAX;
            }
            _ => {}
        }

        // ---------------- Writeback ----------------
        if let Some(dst) = inst.dst {
            self.reg_ready[dst.index()] = complete;
            self.reg_by_load[dst.index()] = inst.kind == InstKind::Load;
        }

        // ---------------- In-order retire ----------------
        let mut rt = complete.max(self.last_retire);
        if rt == self.last_retire {
            if self.retire_in_cycle >= width {
                rt += 1;
                self.retire_in_cycle = 0;
            }
        } else {
            self.retire_in_cycle = 0;
        }
        // ---------------- Forward-progress watchdog ----------------
        // In this instruction-stepped model "N cycles without retirement"
        // is a gap between consecutive retire timestamps.
        let gap = rt - self.last_retire;
        if gap > self.watchdog.threshold {
            self.stats.watchdog_events += 1;
            self.watchdog.progress_streak = 0;
            self.watchdog.last_trip = Some(WatchdogTrip {
                cycle: rt,
                gap,
                rung: self.watchdog.recoveries,
            });
            if self.watchdog.recoveries >= self.watchdog.max_recoveries {
                return Err(SimError::ForwardProgressStall {
                    cycle: rt,
                    stalled_cycles: gap,
                    recoveries: self.watchdog.recoveries,
                    snapshot: self.occupancy_snapshot(),
                });
            }
            // Graceful degradation, one rung per event: flush the front
            // end; then also surrender the UOC; then also re-key the
            // context cipher in case an encrypted structure went bad.
            match self.watchdog.recoveries {
                0 => self.frontend.flush_predictors(),
                1 => {
                    if let Some(uoc) = &mut self.uoc {
                        uoc.demote_to_filter();
                    }
                    self.frontend.flush_predictors();
                }
                _ => {
                    self.frontend.rekey(0x5EED_F00D ^ rt);
                    if let Some(uoc) = &mut self.uoc {
                        uoc.demote_to_filter();
                    }
                    self.frontend.flush_predictors();
                }
            }
            watchdog_trip = Some((gap, self.watchdog.recoveries as u64));
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
        if let Some(dst) = inst.dst {
            if dst.is_int() {
                self.int_inflight.push_back(rt);
            } else {
                self.fp_inflight.push_back(rt);
            }
        }
        self.stats.instructions += 1;
        self.stats.last_retire = rt;
        if let (Some(tel), Some(p)) = (tel, probe) {
            self.emit_step_events(
                tel,
                &p,
                inst,
                &fired,
                fb,
                corruption_recovered,
                uoc_loss,
                watchdog_trip,
                complete,
                gap,
                rt,
            );
        }
        Ok(rt)
    }

    /// Snapshot the counters `emit_step_events` diffs against.
    fn capture_probe(&self) -> StepProbe {
        let ubtb = self.frontend.ubtb_stats();
        let tp = self.memsys.twopass().stats();
        StepProbe {
            fe: *self.frontend.stats(),
            ubtb_locks: ubtb.locks,
            ubtb_unlocks: ubtb.unlocks,
            uoc_mode: self.uoc.as_ref().map(|u| u.mode()),
            tp_first: tp.first_passes,
            tp_dropped: tp.dropped,
            buddy_issued: self.memsys.buddy_stats().issued,
            standalone_issued: self.memsys.standalone_stats().issued,
            mem: self.memsys.stats(),
            malformed: self.stats.malformed_insts,
        }
    }

    /// Turn one step's stat deltas into pipeline events. Every event is
    /// stamped at the retirement cycle `rt`; retirement never moves
    /// backwards, so the trace stays cycle-monotone by construction.
    #[allow(clippy::too_many_arguments)]
    fn emit_step_events(
        &self,
        tel: &mut Telemetry,
        p: &StepProbe,
        inst: &Inst,
        fired: &FaultFiring,
        fb: FetchFeedback,
        corruption_recovered: bool,
        uoc_loss: bool,
        watchdog_trip: Option<(u64, u64)>,
        resolve_cycle: u64,
        gap: u64,
        rt: u64,
    ) {
        let n = self.stats.instructions;
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
            if hit {
                tel.record(rt, n, PipelineEvent::FaultInjected { class });
            }
        }
        if corruption_recovered {
            tel.record(
                rt,
                n,
                PipelineEvent::CorruptionRecovered {
                    consecutive: self.consecutive_corruptions as u64,
                },
            );
        }
        match fb.redirect {
            Some(Redirect::Mispredict) => tel.record(
                rt,
                n,
                PipelineEvent::Mispredict {
                    pc: inst.pc,
                    class: branch_class(inst.branch.map(|b| b.kind)),
                    resolve_cycle,
                },
            ),
            Some(Redirect::Discovery) => {
                tel.record(rt, n, PipelineEvent::BranchDiscovery { pc: inst.pc });
            }
            Some(Redirect::TraceGap) => {
                tel.record(rt, n, PipelineEvent::TraceGap { pc: inst.pc });
            }
            None => {}
        }
        let fe = self.frontend.stats();
        if fe.conf_flips_to_low > p.fe.conf_flips_to_low {
            tel.record(rt, n, PipelineEvent::ShpConfFlip { to_low: true });
        }
        if fe.conf_flips_to_high > p.fe.conf_flips_to_high {
            tel.record(rt, n, PipelineEvent::ShpConfFlip { to_low: false });
        }
        let ubtb = self.frontend.ubtb_stats();
        if ubtb.locks > p.ubtb_locks {
            tel.record(rt, n, PipelineEvent::UbtbLock);
        }
        if ubtb.unlocks > p.ubtb_unlocks {
            tel.record(rt, n, PipelineEvent::UbtbUnlock);
        }
        let mode = self.uoc.as_ref().map(|u| u.mode());
        if let (Some(from), Some(to)) = (p.uoc_mode, mode) {
            if from != to {
                tel.record(
                    rt,
                    n,
                    PipelineEvent::UocTransition { from: uoc_tag(from), to: uoc_tag(to) },
                );
            }
        }
        if uoc_loss {
            tel.record(rt, n, PipelineEvent::UocStateLoss);
        }
        // Prefetch activity: launches from the engines, fills and drops
        // from the memory system.
        let tp = self.memsys.twopass().stats();
        let mem = self.memsys.stats();
        let flows = [
            (tp.first_passes - p.tp_first, PrefetchKind::L1, 0u8),
            (self.memsys.buddy_stats().issued - p.buddy_issued, PrefetchKind::Buddy, 0),
            (
                self.memsys.standalone_stats().issued - p.standalone_issued,
                PrefetchKind::Standalone,
                0,
            ),
            (mem.l1_prefetch_fills - p.mem.l1_prefetch_fills, PrefetchKind::L1, 1),
            (mem.buddy_fills - p.mem.buddy_fills, PrefetchKind::Buddy, 1),
            (mem.standalone_fills - p.mem.standalone_fills, PrefetchKind::Standalone, 1),
            (tp.dropped - p.tp_dropped, PrefetchKind::L1, 2),
        ];
        for (count, kind, stage) in flows {
            if count > 0 {
                let event = match stage {
                    0 => PipelineEvent::PrefetchLaunch { kind, count },
                    1 => PipelineEvent::PrefetchFill { kind, count },
                    _ => PipelineEvent::PrefetchDrop { kind, count },
                };
                tel.record(rt, n, event);
            }
        }
        if self.stats.malformed_insts > p.malformed {
            tel.record(rt, n, PipelineEvent::MalformedInst { pc: inst.pc });
        }
        if let Some((stall_gap, rung)) = watchdog_trip {
            tel.record(rt, n, PipelineEvent::WatchdogTrip { gap: stall_gap, rung });
        }
        // Histograms: every retirement gap, and demand-load latency when
        // this step performed a load.
        tel.observe_retire_gap(gap);
        if mem.loads > p.mem.loads {
            tel.observe_load_latency(mem.total_load_latency - p.mem.total_load_latency);
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
        for _ in 0..plan.warmup {
            let inst = gen.next_inst();
            match tel.as_deref_mut() {
                Some(t) => {
                    self.step_impl(&inst, Some(t))?;
                    self.maybe_epoch(t);
                }
                None => {
                    self.step(&inst)?;
                }
            }
        }
        let measure = self.measure_begin();
        for _ in 0..plan.detail {
            let inst = gen.next_inst();
            match tel.as_deref_mut() {
                Some(t) => {
                    self.step_impl(&inst, Some(t))?;
                    self.maybe_epoch(t);
                }
                None => {
                    self.step(&inst)?;
                }
            }
        }
        Ok(self.measure_end(&measure))
    }

    /// Snapshot the counters a detail window is measured against. Pair
    /// with [`Simulator::measure_end`]; the scalar slice runner and the
    /// batched lockstep engine share this math.
    pub fn measure_begin(&self) -> SliceMeasure {
        SliceMeasure {
            start_insts: self.stats.instructions,
            start_cycle: self.stats.last_retire,
            fe0: *self.frontend.stats(),
            mem0: self.memsys.stats(),
        }
    }

    /// Derive the [`SliceResult`] for everything stepped since the
    /// paired [`Simulator::measure_begin`].
    pub fn measure_end(&self, m: &SliceMeasure) -> SliceResult {
        let instructions = self.stats.instructions - m.start_insts;
        let cycles = (self.stats.last_retire - m.start_cycle).max(1);
        let fe1 = *self.frontend.stats();
        let mem1 = self.memsys.stats();
        let mpki = (fe1.total_mispredicts() - m.fe0.total_mispredicts()) as f64 * 1000.0
            / instructions.max(1) as f64;
        let lat_num = mem1.total_load_latency - m.mem0.total_load_latency;
        let lat_den = (mem1.loads - m.mem0.loads).max(1);
        SliceResult {
            instructions,
            cycles,
            ipc: instructions as f64 / cycles as f64,
            mpki,
            avg_load_latency: lat_num as f64 / lat_den as f64,
            frontend: fe1,
            mem: mem1,
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

    /// Close the current epoch if the instruction count says it is due.
    fn maybe_epoch(&self, tel: &mut Telemetry) {
        if tel.epoch_due(self.stats.instructions) {
            self.sample_telemetry(tel);
            tel.end_epoch(self.stats.instructions, self.stats.last_retire);
        }
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
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn gen_to_u16(g: Generation) -> u16 {
        match g {
            Generation::M1 => 1,
            Generation::M2 => 2,
            Generation::M3 => 3,
            Generation::M4 => 4,
            Generation::M5 => 5,
            Generation::M6 => 6,
        }
    }

    fn gen_from_u16(v: u16) -> Result<Generation, SnapshotError> {
        Ok(match v {
            1 => Generation::M1,
            2 => Generation::M2,
            3 => Generation::M3,
            4 => Generation::M4,
            5 => Generation::M5,
            6 => Generation::M6,
            _ => return Err(SnapshotError::Corrupt { what: "generation tag" }),
        })
    }

    impl Snapshot for Watchdog {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::WATCHDOG);
            enc.u64(self.threshold);
            enc.u32(self.max_recoveries);
            enc.u32(self.recoveries);
            enc.u32(self.progress_streak);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::WATCHDOG)?;
            self.threshold = dec.u64()?;
            self.max_recoveries = dec.u32()?;
            self.recoveries = dec.u32()?;
            self.progress_streak = dec.u32()?;
            dec.end_section()
        }
    }

    impl Snapshot for SimStats {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::SIM_STATS);
            enc.u64(self.instructions);
            enc.u64(self.last_retire);
            enc.u64(self.loads);
            enc.u64(self.uoc_supplied);
            enc.u64(self.malformed_insts);
            enc.u64(self.predictor_corruptions);
            enc.u64(self.uoc_recoveries);
            enc.u64(self.watchdog_events);
            enc.u64(self.watchdog_recoveries);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::SIM_STATS)?;
            self.instructions = dec.u64()?;
            self.last_retire = dec.u64()?;
            self.loads = dec.u64()?;
            self.uoc_supplied = dec.u64()?;
            self.malformed_insts = dec.u64()?;
            self.predictor_corruptions = dec.u64()?;
            self.uoc_recoveries = dec.u64()?;
            self.watchdog_events = dec.u64()?;
            self.watchdog_recoveries = dec.u64()?;
            dec.end_section()
        }
    }

    impl Snapshot for Simulator {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::SIM);
            self.frontend.save(enc);
            match &self.uoc {
                Some(u) => {
                    enc.u8(1);
                    u.save(enc);
                }
                None => enc.u8(0),
            }
            self.memsys.save(enc);
            self.ports.save(enc);
            enc.u64(self.fetch_cycle);
            enc.u32(self.fetch_slots);
            enc.u64(self.cur_fetch_line);
            for r in &self.reg_ready {
                enc.u64(*r);
            }
            for b in &self.reg_by_load {
                enc.bool(*b);
            }
            enc.seq(self.rob.len());
            for c in &self.rob {
                enc.u64(*c);
            }
            enc.seq(self.int_inflight.len());
            for c in &self.int_inflight {
                enc.u64(*c);
            }
            enc.seq(self.fp_inflight.len());
            for c in &self.fp_inflight {
                enc.u64(*c);
            }
            enc.u64(self.last_retire);
            enc.u32(self.retire_in_cycle);
            self.stats.save(enc);
            match &self.injector {
                Some(i) => {
                    enc.u8(1);
                    i.save(enc);
                }
                None => enc.u8(0),
            }
            self.watchdog.save(enc);
            enc.bool(self.strict_decode);
            enc.u32(self.consecutive_corruptions);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::SIM)?;
            self.frontend.restore(dec)?;
            let has_uoc = match dec.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt { what: "uoc presence flag" }),
            };
            match (&mut self.uoc, has_uoc) {
                (Some(u), true) => u.restore(dec)?,
                (None, false) => {}
                (mine, _) => {
                    return Err(SnapshotError::Geometry {
                        what: "uoc presence",
                        expected: u64::from(mine.is_some()),
                        found: u64::from(has_uoc),
                    })
                }
            }
            self.memsys.restore(dec)?;
            self.ports.restore(dec)?;
            self.fetch_cycle = dec.u64()?;
            self.fetch_slots = dec.u32()?;
            self.cur_fetch_line = dec.u64()?;
            for r in &mut self.reg_ready {
                *r = dec.u64()?;
            }
            for b in &mut self.reg_by_load {
                *b = dec.bool()?;
            }
            let nr = dec.seq(8)?;
            if nr > self.rob_cap {
                return Err(SnapshotError::Geometry {
                    what: "rob occupancy",
                    expected: self.rob_cap as u64,
                    found: nr as u64,
                });
            }
            self.rob.clear();
            for _ in 0..nr {
                self.rob.push_back(dec.u64()?);
            }
            let ni = dec.seq(8)?;
            self.int_inflight.clear();
            for _ in 0..ni {
                self.int_inflight.push_back(dec.u64()?);
            }
            let nf = dec.seq(8)?;
            self.fp_inflight.clear();
            for _ in 0..nf {
                self.fp_inflight.push_back(dec.u64()?);
            }
            self.last_retire = dec.u64()?;
            self.retire_in_cycle = dec.u32()?;
            self.stats.restore(dec)?;
            let has_injector = match dec.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt { what: "injector presence flag" }),
            };
            if has_injector {
                // The serialized image carries the full plan, so a fresh
                // injector is a valid restore target regardless of what the
                // target simulator had attached.
                let mut inj = FaultInjector::new(FaultPlan::none());
                inj.restore(dec)?;
                self.injector = Some(inj);
            } else {
                self.injector = None;
            }
            self.watchdog.restore(dec)?;
            self.strict_decode = dec.bool()?;
            self.consecutive_corruptions = dec.u32()?;
            dec.end_section()
        }
    }

    impl Simulator {
        /// Serialize the complete microarchitectural state into the
        /// versioned checkpoint format (see DESIGN.md "Snapshot format").
        /// The image is self-contained: it records the generation, the
        /// fault-injection plan, and the watchdog configuration, so
        /// [`Simulator::resume`] needs nothing but the bytes.
        pub fn checkpoint(&self) -> Vec<u8> {
            let mut enc = Encoder::with_header(gen_to_u16(self.cfg.gen));
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
            let gen = gen_from_u16(meta)?;
            Simulator::resume_into(CoreConfig::for_generation(gen), dec)
        }

        /// [`resume`](Simulator::resume) against a caller-supplied
        /// configuration (for non-stock geometries). The configuration
        /// must match the one the checkpoint was taken from: every
        /// geometry mismatch (table sizes, optional-component presence,
        /// generation tag) is a typed [`SimError::SnapshotDecode`].
        pub fn resume_with_config(cfg: CoreConfig, bytes: &[u8]) -> Result<Simulator, SimError> {
            let mut dec = Decoder::new(bytes);
            let meta = dec.header()?;
            if meta != gen_to_u16(cfg.gen) {
                return Err(SnapshotError::Geometry {
                    what: "generation tag",
                    expected: u64::from(gen_to_u16(cfg.gen)),
                    found: u64::from(meta),
                }
                .into());
            }
            Simulator::resume_into(cfg, dec)
        }

        fn resume_into(cfg: CoreConfig, mut dec: Decoder<'_>) -> Result<Simulator, SimError> {
            let mut sim = Simulator::construct(cfg);
            sim.restore(&mut dec)?;
            dec.finish()?;
            Ok(sim)
        }

        /// Step the simulator through `n` instructions from `gen` without
        /// measuring a detail window — the warm-up half of a
        /// checkpoint-then-fork workflow.
        pub fn run_warmup(&mut self, gen: &mut dyn TraceGen, n: u64) -> Result<(), SimError> {
            for _ in 0..n {
                let inst = gen.next_inst();
                self.step(&inst)?;
            }
            Ok(())
        }
    }
}
