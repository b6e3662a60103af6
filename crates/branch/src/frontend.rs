//! The per-generation front-end prediction pipeline.
//!
//! Consumes the architectural instruction stream (trace-driven, like the
//! paper's model, §II) and produces per-instruction fetch-timing feedback:
//! how many prediction-pipe bubbles precede the instruction, and whether a
//! pipeline-refilling redirect (mispredict / branch discovery / trace gap)
//! occurs at it. The out-of-order core model turns that feedback into fetch
//! cycles.
//!
//! Bubble accounting per predicted-taken branch:
//!
//! * µBTB locked hit — 0 bubbles (§IV.B), with the mBTB/SHP clock-gated;
//! * ZAT/ZOT replicated target — 0 bubbles (M5+, §IV.E);
//! * 1AT always-taken mBTB hit — 1 bubble (M3+, §IV.C);
//! * ordinary mBTB hit — 2 bubbles;
//! * vBTB hit — 3 bubbles (extra access latency, §IV.A);
//! * L2BTB fill — `l2_fill_latency` bubbles (§IV.D);
//! * VPC iterations / indirect-hash latency add on top (§IV.F);
//! * MRB-covered post-mispredict redirects are free (M5+, §IV.E).

use crate::btb::{BtbEntry, BtbHierarchy, BtbHit};
use crate::config::FrontendConfig;
use crate::confidence::ConfidenceTable;
use crate::error::PredictorError;
use crate::history::ShpHistory;
use crate::indirect::IndirectPredictor;
use crate::mrb::{Mrb, MrbStats};
use crate::ras::{Ras, RasStats};
use crate::shp::{apply_bias_delta, Shp, ShpPrediction};
use crate::ubtb::{MicroBtb, UbtbPrediction};
use exynos_secure::cipher::{decrypt_target, encrypt_target};
use exynos_secure::context::{compute_context_hash, ContextHash, ContextId, EntropySources};
use exynos_trace::{BranchKind, Inst, TraceGen};

/// Why the front end must refill the pipeline at an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redirect {
    /// A branch direction or target mispredict resolved at execute.
    Mispredict,
    /// A taken branch absent from every BTB level (discovery).
    Discovery,
    /// A PC discontinuity in the trace (phase switch / context change).
    TraceGap,
}

/// Per-instruction timing feedback to the core model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchFeedback {
    /// Prediction-pipe bubbles charged before this instruction's fetch
    /// group continues.
    pub bubbles: u32,
    /// Pipeline-refill event at this instruction, if any.
    pub redirect: Option<Redirect>,
}

impl FetchFeedback {
    /// No delay.
    pub const NONE: FetchFeedback = FetchFeedback {
        bubbles: 0,
        redirect: None,
    };
}

exynos_telemetry::counters! {
    /// Aggregate front-end statistics.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FrontendStats in "branch.frontend" {
        /// Instructions observed.
        pub instructions: u64,
        /// Branches observed.
        pub branches: u64,
        /// Conditional branches observed.
        pub cond_branches: u64,
        /// Taken branches observed.
        pub taken_branches: u64,
        /// Conditional direction mispredicts.
        pub cond_mispredicts: u64,
        /// Indirect (non-return) target mispredicts.
        pub indirect_mispredicts: u64,
        /// Return-target mispredicts.
        pub return_mispredicts: u64,
        /// Taken branches discovered missing from all BTBs.
        pub discoveries: u64,
        /// Trace-gap redirects.
        pub trace_gaps: u64,
        /// Total prediction-pipe bubbles charged.
        pub bubbles: u64,
        /// Taken redirects served with zero bubbles by ZAT/ZOT replication.
        pub zat_zot_zero_bubble: u64,
        /// Taken redirects served with one bubble by the 1AT path.
        pub one_bubble_at: u64,
        /// Taken redirects served bubble-free by µBTB lock.
        pub ubtb_zero_bubble: u64,
        /// Redirects whose refill was covered by MRB playback.
        pub mrb_covered: u64,
        /// Branch-pair pattern counts (§IV.A: 60%/24%/16%).
        pub pair_lead_taken: u64,
        /// Pairs where the lead was not-taken and the second was taken.
        pub pair_second_taken: u64,
        /// Pairs where both branches were not-taken.
        pub pair_both_not_taken: u64,
        /// Fetch-line lookups skipped by the Empty Line Optimization (power
        /// proxy, §IV.E).
        pub elo_skipped_lookups: u64,
        /// SHP lookups performed (power proxy; gated under µBTB lock).
        pub shp_lookups: u64,
        /// Confidence-table crossings into low confidence (MRB eligibility).
        pub conf_flips_to_low: u64,
        /// Confidence-table crossings back to high confidence.
        pub conf_flips_to_high: u64,
    } derived(mpki)
}

impl FrontendStats {
    /// Mispredicts per kilo-instruction — the paper's MPKI metric
    /// (direction + target + discovery mispredicts).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.total_mispredicts() as f64 * 1000.0 / self.instructions as f64
    }

    /// Total mispredict-class events.
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_mispredicts
            + self.indirect_mispredicts
            + self.return_mispredicts
            + self.discoveries
    }
}

/// The assembled front end of one generation.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    cfg: FrontendConfig,
    shp: Shp,
    /// GHIST/PHIST with the SHP's folded registers.
    hist: ShpHistory,
    ubtb: MicroBtb,
    btb: BtbHierarchy,
    ras: Ras,
    indirect: IndirectPredictor,
    confidence: ConfidenceTable,
    mrb: Option<Mrb>,
    /// Security machinery (used when `cfg.encrypt_targets`).
    entropy: EntropySources,
    key: ContextHash,
    /// Next expected PC (trace-gap detection).
    expected_pc: Option<u64>,
    /// Previous predicted-taken branch (for ZAT/ZOT replication learning).
    last_taken_branch: Option<(u64, u64)>, // (pc, target)
    /// Pending zero-bubble redirect for the branch at this PC with this
    /// target, granted by the previous branch's replicated_next.
    pending_zero_bubble: Option<(u64, u64)>,
    /// Branch-pair state: true while waiting for the second of a pair.
    pair_pending_second: bool,
    /// Empty Line Optimization: learned "line has no branches" bits.
    elo_bits: Vec<u64>,
    /// Line currently being scanned and whether a branch was seen in it.
    cur_line: u64,
    cur_line_had_branch: bool,
    stats: FrontendStats,
}

impl FrontEnd {
    /// Build a front end for `cfg`, keyed initially to ASID 0.
    pub fn new(cfg: FrontendConfig) -> FrontEnd {
        let entropy = EntropySources::from_seed(0xE5_EC0DE);
        let key = compute_context_hash(&entropy, ContextId::user(0, 0));
        let shp = Shp::new(cfg.shp.clone());
        FrontEnd {
            hist: shp.history(),
            shp,
            ubtb: MicroBtb::new(cfg.ubtb.clone()),
            btb: BtbHierarchy::new(cfg.btb.clone()),
            ras: Ras::new(cfg.ras_entries, key),
            indirect: IndirectPredictor::new(cfg.indirect.clone(), cfg.indirect_chains),
            confidence: ConfidenceTable::m5(),
            mrb: cfg.mrb_entries.map(Mrb::new),
            entropy,
            key,
            expected_pc: None,
            last_taken_branch: None,
            pending_zero_bubble: None,
            pair_pending_second: false,
            elo_bits: vec![0; 4096 / 64],
            cur_line: u64::MAX,
            cur_line_had_branch: false,
            stats: FrontendStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// RAS statistics.
    pub fn ras_stats(&self) -> RasStats {
        self.ras.stats()
    }

    /// MRB statistics (zeroes when the generation has no MRB).
    pub fn mrb_stats(&self) -> MrbStats {
        self.mrb.as_ref().map(|m| m.stats()).unwrap_or_default()
    }

    /// µBTB statistics.
    pub fn ubtb_stats(&self) -> crate::ubtb::UbtbStats {
        self.ubtb.stats()
    }

    /// BTB hierarchy statistics.
    pub fn btb_stats(&self) -> crate::btb::BtbStats {
        self.btb.stats()
    }

    /// Indirect predictor statistics.
    pub fn indirect_stats(&self) -> crate::indirect::IndirectStats {
        self.indirect.stats()
    }

    /// Shared µBTB access (the UOC reads built bits through this).
    pub fn ubtb_mut(&mut self) -> &mut MicroBtb {
        &mut self.ubtb
    }

    /// Read-only µBTB access (telemetry gauges).
    pub fn ubtb(&self) -> &MicroBtb {
        &self.ubtb
    }

    /// The speculative GHIST/PHIST and the SHP's folds over them.
    pub fn shp_history(&self) -> &ShpHistory {
        &self.hist
    }

    /// Switch to a new execution context: recompute CONTEXT_HASH. Stored
    /// indirect/RAS targets trained by the old context now decode to
    /// garbage (the §V property).
    pub fn set_context(&mut self, ctx: ContextId) {
        self.key = compute_context_hash(&self.entropy, ctx);
        self.ras.set_key(self.key);
    }

    /// Switch contexts with the *simple* mitigation the paper rejects for
    /// its cost (§V: "erasing all branch prediction state on a context
    /// change may be necessary in some context transitions, but come at
    /// the cost of having to retrain"): flush every predictor structure.
    pub fn set_context_flushing(&mut self, ctx: ContextId) {
        self.set_context(ctx);
        self.flush_predictors();
    }

    /// Flush every predictor structure without changing the context key.
    /// Clears any corruption (detected or silent) at the cost of a full
    /// retrain — the first rung of the core watchdog's degradation ladder,
    /// and the recovery action after a detected [`PredictorError`].
    pub fn flush_predictors(&mut self) {
        self.shp = Shp::new(self.cfg.shp.clone());
        // The other structures are cleared in place so their cumulative
        // stats survive the flush (they describe the run, not the state).
        self.ubtb.clear();
        self.btb.clear();
        self.ras.clear();
        self.indirect.clear();
        self.hist = self.shp.history();
        if let Some(mrb) = &mut self.mrb {
            mrb.clear();
        }
        self.last_taken_branch = None;
        self.pending_zero_bubble = None;
        self.expected_pc = None;
    }

    /// Rotate the context cipher key in place (CEASER-style re-keying,
    /// §V). Every sealed indirect/RAS target trained under the old key now
    /// decodes to garbage, so poisoned (or corrupted) encrypted state is
    /// neutralized without a structural flush. The final rung of the
    /// watchdog's degradation ladder.
    pub fn rekey(&mut self, salt: u64) {
        self.key = self.key.rotate(salt);
        self.ras.set_key(self.key);
    }

    // ---- fault-injection hooks (driven by exynos-core's FaultInjector) --

    /// Flip bits in one resident mBTB entry's stored target (silent,
    /// recoverable-by-retraining corruption). Returns whether an entry was
    /// hit.
    pub fn corrupt_btb_target(&mut self, salt: u64) -> bool {
        self.btb.corrupt_target(salt)
    }

    /// Corrupt one resident mBTB entry's PC tag out of its line window
    /// (detectable corruption: the next lookup of the line reports a
    /// [`PredictorError::BtbTagMismatch`]). Returns whether an entry was
    /// hit.
    pub fn corrupt_btb_tag(&mut self, salt: u64) -> bool {
        self.btb.corrupt_tag(salt)
    }

    /// Invert one SHP weight (soft error in the weight array).
    pub fn flip_shp_weight(&mut self, salt: u64) {
        self.shp.flip_weight(salt);
    }

    /// Forget all but the newest `keep` RAS entries (models a speculative
    /// repair gone wrong).
    pub fn truncate_ras(&mut self, keep: usize) {
        self.ras.truncate(keep);
    }

    fn seal(&self, kind: BranchKind, target: u64) -> u64 {
        if self.cfg.encrypt_targets && kind.is_indirect() {
            encrypt_target(self.key, target).raw_bits()
        } else {
            target
        }
    }

    fn unseal(&self, kind: BranchKind, stored: u64) -> u64 {
        if self.cfg.encrypt_targets && kind.is_indirect() {
            decrypt_target(self.key, exynos_secure::cipher::EncryptedTarget::from_raw(stored))
        } else {
            stored
        }
    }

    /// ELO bit index for a 128 B line.
    fn elo_index(line: u64) -> (usize, u64) {
        let h = (line ^ (line >> 12)) as usize & 4095;
        (h / 64, 1u64 << (h % 64))
    }

    fn elo_is_empty(&self, line: u64) -> bool {
        let (w, m) = Self::elo_index(line);
        self.elo_bits[w] & m != 0
    }

    fn elo_mark(&mut self, line: u64, empty: bool) {
        let (w, m) = Self::elo_index(line);
        if empty {
            self.elo_bits[w] |= m;
        } else {
            self.elo_bits[w] &= !m;
        }
    }

    /// Track 128 B fetch lines to learn branch-free lines (ELO).
    fn track_line(&mut self, pc: u64, is_branch: bool) {
        let line = pc >> 7;
        if line != self.cur_line {
            if self.cfg.empty_line_opt && self.cur_line != u64::MAX {
                self.elo_mark(self.cur_line, !self.cur_line_had_branch);
            }
            if self.cfg.empty_line_opt && self.elo_is_empty(line) {
                self.stats.elo_skipped_lookups += 1;
            }
            self.cur_line = line;
            self.cur_line_had_branch = false;
        }
        if is_branch {
            self.cur_line_had_branch = true;
            if self.cfg.empty_line_opt {
                self.elo_mark(line, false);
            }
        }
    }

    /// Branch-pair statistics (§IV.A): lead taken / second taken / both NT.
    fn track_pair(&mut self, taken: bool) {
        match (std::mem::take(&mut self.pair_pending_second), taken) {
            (false, true) => self.stats.pair_lead_taken += 1,
            (false, false) => self.pair_pending_second = true,
            (true, true) => self.stats.pair_second_taken += 1,
            (true, false) => self.stats.pair_both_not_taken += 1,
        }
    }

    /// Process one instruction of the architectural stream.
    ///
    /// Detected predictor-state corruption surfaces as a typed
    /// [`PredictorError`]; the caller decides between recovery
    /// ([`FrontEnd::flush_predictors`]) and abort.
    pub fn on_inst(&mut self, inst: &Inst) -> Result<FetchFeedback, PredictorError> {
        self.stats.instructions += 1;
        // Trace-gap detection.
        let gap = self.expected_pc.is_some_and(|e| e != inst.pc);
        self.expected_pc = Some(inst.next_pc());
        self.track_line(inst.pc, inst.branch.is_some());
        if gap {
            self.stats.trace_gaps += 1;
            self.pending_zero_bubble = None;
            self.last_taken_branch = None;
            return Ok(FetchFeedback {
                bubbles: 0,
                redirect: Some(Redirect::TraceGap),
            });
        }
        match inst.branch {
            Some(b) => self.on_branch(inst.pc, b.kind, b.taken, b.target),
            None => Ok(FetchFeedback::NONE),
        }
    }

    /// Process `n` instructions from `gen`, discarding the per-instruction
    /// feedback — the front-end twin of `Simulator::run_warmup`, for runs
    /// that read only [`FrontEnd::stats`]. The first detected corruption
    /// ends the run with its [`PredictorError`].
    pub fn run(&mut self, gen: &mut dyn TraceGen, n: u64) -> Result<(), PredictorError> {
        for _ in 0..n {
            self.on_inst(&gen.next_inst())?;
        }
        Ok(())
    }

    fn on_branch(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
    ) -> Result<FetchFeedback, PredictorError> {
        if self.ras.depth() > self.ras.capacity() {
            return Err(PredictorError::RasDepthInvariant {
                depth: self.ras.depth(),
                capacity: self.ras.capacity(),
            });
        }
        self.stats.branches += 1;
        if kind.is_conditional() {
            self.stats.cond_branches += 1;
            self.track_pair(taken);
        }
        if taken {
            self.stats.taken_branches += 1;
        }
        let mut p = self.predict(pc, kind)?;
        let (redirect, correct) = self.resolve(pc, kind, taken, target, &mut p);
        self.train(pc, kind, taken, target, &p, correct);
        self.stats.bubbles += p.bubbles as u64;
        Ok(FetchFeedback { bubbles: p.bubbles, redirect })
    }

    /// Prediction: the locked µBTB serves the branch when it hits;
    /// otherwise the mBTB hierarchy with the SHP, the RAS and the
    /// indirect predictor does, and the serving structure sets the
    /// taken-redirect bubbles. A branch in no BTB is predicted not-taken.
    #[inline(always)]
    fn predict(&mut self, pc: u64, kind: BranchKind) -> Result<Prediction, PredictorError> {
        let mut p = Prediction::default();
        let locked = self.ubtb.is_locked();
        let upred = self.ubtb.predict(pc);
        if let (true, UbtbPrediction::Hit { taken: t, target: tg }) = (locked, upred) {
            p.used_ubtb = true;
            p.taken = kind != BranchKind::CondDirect || t;
            p.target = Some(match kind {
                BranchKind::Return => {
                    // Returns still use the RAS even under lock.
                    p.ras_popped = true;
                    self.ras.pop().unwrap_or(tg)
                }
                _ => tg,
            });
            if p.taken {
                self.stats.ubtb_zero_bubble += 1;
            }
        } else {
            p.btb_entry = self.btb.lookup(pc)?;
        }
        if let Some((entry, hit)) = p.btb_entry {
            p.taken = match kind {
                BranchKind::CondDirect => {
                    self.stats.shp_lookups += 1;
                    if entry.always_taken {
                        true
                    } else {
                        let shp = self.shp.predict(pc, entry.bias, &self.hist);
                        p.shp = Some(shp);
                        shp.taken
                    }
                }
                _ => true,
            };
            if p.taken {
                p.target = match kind {
                    BranchKind::Return => {
                        p.ras_popped = true;
                        self.ras.pop()
                    }
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        // Chains store CONTEXT_HASH-sealed targets: the raw
                        // (sealed) prediction is kept for training, the
                        // unsealed one drives fetch.
                        let ind = self.indirect.predict(pc, &self.shp, &self.hist);
                        p.bubbles += ind.extra_cycles;
                        p.indirect = ind.target;
                        ind.target.map(|t| self.unseal(kind, t))
                    }
                    _ => Some(self.unseal(kind, entry.target)),
                };
                p.bubbles += match hit {
                    BtbHit::Main => {
                        if self.cfg.zero_bubble_atot
                            && self
                                .pending_zero_bubble
                                .is_some_and(|(zpc, ztg)| zpc == pc && Some(ztg) == p.target)
                        {
                            self.stats.zat_zot_zero_bubble += 1;
                            0
                        } else if self.cfg.one_bubble_at && entry.always_taken {
                            self.stats.one_bubble_at += 1;
                            1
                        } else {
                            self.cfg.taken_bubbles
                        }
                    }
                    BtbHit::Virtual => self.cfg.taken_bubbles + 1,
                    BtbHit::Level2 => self.cfg.btb.l2_fill_latency,
                };
            }
        }
        self.pending_zero_bubble = None;
        Ok(p)
    }

    /// Resolution: count the outcome, let the MRB record or cover the
    /// redirect, update the confidence table. Returns the redirect and
    /// whether the branch was predicted correctly.
    #[inline(always)]
    fn resolve(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
        p: &mut Prediction,
    ) -> (Option<Redirect>, bool) {
        let dir_wrong = p.taken != taken;
        let target_wrong = taken && p.taken && p.target != Some(target);
        let discovered = p.btb_entry.is_none() && !p.used_ubtb && taken;
        let mispredicted = dir_wrong || target_wrong;
        let correct = !mispredicted && !discovered;

        let redirect = if discovered {
            self.stats.discoveries += 1;
            Some(Redirect::Discovery)
        } else if mispredicted {
            match kind {
                BranchKind::CondDirect => self.stats.cond_mispredicts += 1,
                BranchKind::Return => self.stats.return_mispredicts += 1,
                BranchKind::IndirectJump | BranchKind::IndirectCall => {
                    self.stats.indirect_mispredicts += 1
                }
                _ => self.stats.discoveries += 1, // direct target drift
            }
            Some(Redirect::Mispredict)
        } else {
            None
        };
        if let Some(mrb) = &mut self.mrb {
            if redirect == Some(Redirect::Mispredict) {
                if self.confidence.is_low_confidence(pc) {
                    mrb.on_mispredict(pc);
                }
            } else if taken && !mispredicted {
                // Correct-path taken redirect: MRB playback may cover it.
                if mrb.on_correct_path_target(target) {
                    self.stats.mrb_covered += 1;
                    p.bubbles = 0;
                }
            }
        }
        match self.confidence.record(pc, correct) {
            Some(true) => self.stats.conf_flips_to_low += 1,
            Some(false) => self.stats.conf_flips_to_high += 1,
            None => {}
        }
        (redirect, correct)
    }

    /// Training: every structure learns the resolved outcome.
    #[inline(always)]
    fn train(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
        p: &Prediction,
        correct: bool,
    ) {
        // RAS: calls push; a return whose prediction path never consulted
        // the RAS (BTB miss) still pops at decode to stay balanced.
        if kind.is_call() {
            self.ras.push(pc + 4);
        } else if kind.is_return() && !p.ras_popped {
            let _ = self.ras.pop();
        }
        // BTB entry maintenance (discovery, direction counters, targets).
        let sealed_target = self.seal(kind, target);
        match p.btb_entry {
            Some((mut entry, _)) => {
                entry.record_direction(taken);
                if taken {
                    entry.target = sealed_target;
                }
                // SHP for conditionals (with always-taken filtering).
                if kind.is_conditional() {
                    let filtered = entry.always_taken && self.cfg.at_filter;
                    let shp = p.shp.unwrap_or_else(|| self.shp.predict(pc, entry.bias, &self.hist));
                    let d = self.shp.update(&shp, taken, filtered);
                    entry.bias = apply_bias_delta(entry.bias, d);
                }
                self.btb.update_entry(entry);
            }
            None if !p.used_ubtb => {
                // Allocate discovered branches (taken, or conditional NT so
                // the direction predictor owns it next time).
                if taken || kind.is_conditional() {
                    self.btb.install(BtbEntry::discover(pc, sealed_target, kind, taken));
                }
            }
            _ => {
                // µBTB-covered: the mBTB is clock-gated; keep its direction
                // counters loosely in sync without timing side effects.
                if let Some(mut entry) = self.btb.probe(pc) {
                    entry.record_direction(taken);
                    self.btb.update_entry(entry);
                }
            }
        }
        // Indirect chains + hash table (also commits virtual outcomes into
        // the histories). They train in sealed-target space: the stored
        // chain entries and the hash table hold ciphertext under the
        // current context key.
        if kind.is_indirect() && !kind.is_return() && taken {
            self.indirect.update(pc, sealed_target, p.indirect, &mut self.shp, &mut self.hist);
        }
        // Histories.
        if kind.is_conditional() {
            self.hist.push_outcome(taken);
        }
        self.hist.push_path(pc);
        // µBTB graph learning.
        let direct = matches!(kind, BranchKind::UncondDirect | BranchKind::DirectCall);
        self.ubtb.update(pc, taken, target, direct, correct);
        // ZAT/ZOT replication learning: if this branch is always/often
        // taken, replicate its target into the previous taken branch's
        // entry; and arm the zero-bubble grant for the *next* occurrence.
        // Replication applies to direct always/often-taken branches (their
        // targets are stored in plaintext; indirect targets stay sealed).
        // The two probes of `pc` stay separate: when `prev_pc == pc` the
        // first `update_entry` changes what the second probe reads.
        if self.cfg.zero_bubble_atot && taken && !kind.is_indirect() {
            if let Some((prev_pc, _)) = self.last_taken_branch {
                if let Some(mut prev_entry) = self.btb.probe(prev_pc) {
                    if let Some(cur_entry) = self.btb.probe(pc) {
                        if cur_entry.always_taken || cur_entry.is_often_taken() {
                            prev_entry.replicated_next = Some((pc, cur_entry.target));
                            self.btb.update_entry(prev_entry);
                        }
                    }
                }
            }
        }
        // Arm the pending zero-bubble grant from this branch's replication.
        if self.cfg.zero_bubble_atot && taken {
            if let Some(entry) = self.btb.probe(pc) {
                if let Some((npc, ntg)) = entry.replicated_next {
                    self.pending_zero_bubble = Some((npc, ntg));
                }
            }
        }
        if taken {
            self.last_taken_branch = Some((pc, target));
        }
    }
}

/// What [`FrontEnd::predict`] decided for one branch, handed on to
/// resolution and training.
#[derive(Default)]
struct Prediction {
    taken: bool,
    /// Unsealed target of a predicted-taken branch.
    target: Option<u64>,
    bubbles: u32,
    /// The locked µBTB served the prediction (the mBTB was gated).
    used_ubtb: bool,
    /// The mBTB-hierarchy hit, if looked up and found.
    btb_entry: Option<(BtbEntry, BtbHit)>,
    /// The indirect predictor's raw (sealed) target, when consulted.
    indirect: Option<u64>,
    /// The SHP lookup, reused at training time: nothing between the two
    /// points touches the SHP tables, the histories, or the entry bias,
    /// so recomputing it would return the same rows.
    shp: Option<ShpPrediction>,
    ras_popped: bool,
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        FrontEnd [tags::FRONTEND] {
            shp, hist, ubtb, btb, ras, indirect, confidence,
            mrb: Present("frontend mrb presence"),
            entropy, key, expected_pc, last_taken_branch, pending_zero_bubble, pair_pending_second,
            elo_bits: Fixed("frontend elo bitmap"),
            cur_line, cur_line_had_branch, stats,
        } then sync_ras_key
    }

    impl FrontEnd {
        /// The restored RAS carries the snapshot's key; keep the
        /// front-end copy (used for re-keying) in sync with it.
        fn sync_ras_key(&mut self) -> Result<(), SnapshotError> {
            self.ras.set_key(self.key);
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::config::FrontendConfig;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};
        use exynos_trace::gen::web::{WebParams, WebWorkload};

        fn warmed_frontend(cfg: FrontendConfig) -> FrontEnd {
            let mut fe = FrontEnd::new(cfg);
            let mut gen = WebWorkload::new(&WebParams::default(), 30, 11);
            fe.run(&mut gen, 5_000).unwrap();
            fe
        }

        #[test]
        fn frontend_roundtrip_is_bit_identical() {
            for (g, cfg) in FrontendConfig::all_generations().into_iter().enumerate() {
                let fe = warmed_frontend(cfg.clone());
                let mut enc = Encoder::new();
                fe.save(&mut enc);
                let bytes = enc.finish();

                let mut fe2 = FrontEnd::new(cfg.clone());
                let mut dec = Decoder::new(&bytes);
                fe2.restore(&mut dec).unwrap();
                dec.finish().unwrap();

                // Re-encoding the restored front end must reproduce the
                // exact snapshot bytes: every field round-tripped.
                let mut enc2 = Encoder::new();
                fe2.save(&mut enc2);
                assert_eq!(enc2.finish(), bytes, "gen M{}", g + 1);
            }
        }

        #[test]
        fn wrong_generation_image_is_a_typed_error() {
            let cfgs = FrontendConfig::all_generations();
            let fe = warmed_frontend(cfgs[5].clone());
            let mut enc = Encoder::new();
            fe.save(&mut enc);
            let bytes = enc.finish();
            let mut fe1 = FrontEnd::new(cfgs[0].clone());
            let mut dec = Decoder::new(&bytes);
            assert!(fe1.restore(&mut dec).is_err());
        }
    }
}
