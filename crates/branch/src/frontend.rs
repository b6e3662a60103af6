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
use crate::history::{GlobalHistory, PathHistory};
use crate::indirect::IndirectPredictor;
use crate::mrb::{Mrb, MrbStats};
use crate::ras::{Ras, RasStats};
use crate::shp::{apply_bias_delta, Shp, ShpPrediction};
use crate::ubtb::{MicroBtb, UbtbPrediction};
use exynos_secure::cipher::{decrypt_target, encrypt_target};
use exynos_secure::context::{compute_context_hash, ContextHash, ContextId, EntropySources};
use exynos_trace::{BranchKind, Inst};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Aggregate front-end statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendStats {
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
}

impl FrontendStats {
    /// Mispredicts per kilo-instruction — the paper's MPKI metric
    /// (direction + target + discovery mispredicts).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let miss = self.cond_mispredicts
            + self.indirect_mispredicts
            + self.return_mispredicts
            + self.discoveries;
        miss as f64 * 1000.0 / self.instructions as f64
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
    ghist: GlobalHistory,
    phist: PathHistory,
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
        FrontEnd {
            shp: Shp::new(cfg.shp.clone()),
            ghist: GlobalHistory::new(),
            phist: PathHistory::new(),
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
        self.ubtb = MicroBtb::new(self.cfg.ubtb.clone());
        self.btb = BtbHierarchy::new(self.cfg.btb.clone());
        // The RAS is cleared in place so its cumulative overflow/underflow
        // stats survive the flush (they describe the run, not the state).
        self.ras.clear();
        self.indirect = IndirectPredictor::new(self.cfg.indirect.clone(), self.cfg.indirect_chains);
        self.ghist = GlobalHistory::new();
        self.phist = PathHistory::new();
        self.mrb = self.cfg.mrb_entries.map(Mrb::new);
        self.last_taken_branch = None;
        self.pending_zero_bubble = None;
        self.expected_pc = None;
    }

    /// Reset every dynamic structure — predictors, history, confidence,
    /// line-scan transients — while keeping the cumulative [`stats`]
    /// (they describe the run so far, not the state). Part of the
    /// `stats()/clear()/snapshot` surface every stateful component
    /// exposes.
    ///
    /// [`stats`]: FrontEnd::stats
    pub fn clear(&mut self) {
        self.flush_predictors();
        self.confidence.clear();
        self.pair_pending_second = false;
        self.elo_bits.fill(0);
        self.cur_line = u64::MAX;
        self.cur_line_had_branch = false;
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
        if !self.pair_pending_second {
            if taken {
                self.stats.pair_lead_taken += 1;
            } else {
                self.pair_pending_second = true;
            }
        } else {
            self.pair_pending_second = false;
            if taken {
                self.stats.pair_second_taken += 1;
            } else {
                self.stats.pair_both_not_taken += 1;
            }
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
        let gap = match self.expected_pc {
            Some(e) if e != inst.pc => true,
            _ => false,
        };
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

        // ---------------- Prediction ----------------
        let locked = self.ubtb.is_locked();
        let upred = self.ubtb.predict(pc);
        let mut used_ubtb = false;
        let mut pred_taken;
        let mut pred_target: Option<u64>;
        let mut bubbles: u32 = 0;
        let mut btb_entry: Option<(BtbEntry, BtbHit)> = None;
        let mut indirect_pred: Option<Option<u64>> = None;
        // SHP lookup made on the prediction path, reused at training time:
        // nothing between the two points touches the SHP tables, the
        // histories, or the entry bias, so recomputing it would return the
        // same rows.
        let mut shp_pred: Option<ShpPrediction> = None;
        let mut ras_popped = false;

        if locked {
            if let UbtbPrediction::Hit { taken: t, target: tg } = upred {
                used_ubtb = true;
                pred_taken = match kind {
                    BranchKind::CondDirect => t,
                    _ => true,
                };
                pred_target = Some(match kind {
                    BranchKind::Return => {
                        // Returns still use the RAS even under lock.
                        ras_popped = true;
                        self.ras.pop().unwrap_or(tg)
                    }
                    _ => tg,
                });
                if pred_taken {
                    self.stats.ubtb_zero_bubble += 1;
                }
            } else {
                pred_taken = false;
                pred_target = None;
            }
        } else {
            pred_taken = false;
            pred_target = None;
        }

        if !used_ubtb {
            // Main predictor path.
            btb_entry = self.btb.lookup(pc)?;
            match btb_entry {
                Some((entry, hit)) => {
                    // Direction.
                    pred_taken = match kind {
                        BranchKind::CondDirect => {
                            self.stats.shp_lookups += 1;
                            if entry.always_taken {
                                true
                            } else {
                                let p =
                                    self.shp.predict(pc, entry.bias, &self.ghist, &self.phist);
                                shp_pred = Some(p);
                                p.taken
                            }
                        }
                        _ => true,
                    };
                    // Target.
                    pred_target = if pred_taken {
                        match kind {
                            BranchKind::Return => {
                                ras_popped = true;
                                self.ras.pop()
                            }
                            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                                // Chains store CONTEXT_HASH-sealed targets;
                                // the raw (sealed) prediction is kept for
                                // training, the unsealed one drives fetch.
                                let p = self
                                    .indirect
                                    .predict(pc, &self.shp, &self.ghist, &self.phist);
                                bubbles += p.extra_cycles;
                                indirect_pred = Some(p.target);
                                p.target.map(|t| self.unseal(kind, t))
                            }
                            _ => Some(self.unseal(kind, entry.target)),
                        }
                    } else {
                        None
                    };
                    // Taken-redirect bubbles by serving structure.
                    if pred_taken {
                        let base = match hit {
                            BtbHit::Main => {
                                if self.cfg.zero_bubble_atot
                                    && self
                                        .pending_zero_bubble
                                        .map(|(zpc, ztg)| {
                                            zpc == pc && Some(ztg) == pred_target
                                        })
                                        .unwrap_or(false)
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
                        bubbles += base;
                    }
                }
                None => {
                    // Not in any BTB: implicitly predicted not-taken.
                    pred_taken = false;
                    pred_target = None;
                }
            }
        }
        self.pending_zero_bubble = None;

        // ---------------- Resolution ----------------
        let dir_wrong = pred_taken != taken;
        let target_wrong = taken && pred_taken && pred_target != Some(target);
        let discovered = btb_entry.is_none() && !used_ubtb && taken;
        let mispredicted = dir_wrong || target_wrong;
        let correct = !mispredicted && !discovered;

        let mut redirect = None;
        if discovered {
            self.stats.discoveries += 1;
            redirect = Some(Redirect::Discovery);
        } else if mispredicted {
            match kind {
                BranchKind::CondDirect => self.stats.cond_mispredicts += 1,
                BranchKind::Return => self.stats.return_mispredicts += 1,
                BranchKind::IndirectJump | BranchKind::IndirectCall => {
                    self.stats.indirect_mispredicts += 1
                }
                _ => self.stats.discoveries += 1, // direct target drift
            }
            redirect = Some(Redirect::Mispredict);
        }

        // ---------------- MRB ----------------
        if let Some(mrb) = &mut self.mrb {
            if redirect == Some(Redirect::Mispredict) {
                if self.confidence.is_low_confidence(pc) {
                    mrb.on_mispredict(pc);
                }
            } else if taken && !mispredicted {
                // Correct-path taken redirect: MRB playback may cover it.
                if mrb.on_correct_path_target(target) {
                    self.stats.mrb_covered += 1;
                    bubbles = 0;
                }
            }
        }
        match self.confidence.record(pc, correct) {
            Some(true) => self.stats.conf_flips_to_low += 1,
            Some(false) => self.stats.conf_flips_to_high += 1,
            None => {}
        }

        // ---------------- Training ----------------
        // RAS: calls push; a return whose prediction path never consulted
        // the RAS (BTB miss) still pops at decode to stay balanced.
        if kind.is_call() {
            self.ras.push(pc + 4);
        } else if kind.is_return() && !ras_popped {
            let _ = self.ras.pop();
        }
        // BTB entry maintenance (discovery, direction counters, targets).
        let sealed_target = self.seal(kind, target);
        match btb_entry {
            Some((mut entry, _)) => {
                entry.record_direction(taken);
                if taken {
                    entry.target = sealed_target;
                }
                // SHP for conditionals (with always-taken filtering).
                if kind.is_conditional() {
                    let filtered = entry.always_taken && self.cfg.at_filter;
                    let p = shp_pred.unwrap_or_else(|| {
                        self.shp.predict(pc, entry.bias, &self.ghist, &self.phist)
                    });
                    let d = self.shp.update(&p, taken, filtered);
                    entry.bias = apply_bias_delta(entry.bias, d);
                }
                self.btb.update_entry(entry);
            }
            None if !used_ubtb => {
                // Allocate discovered branches (taken, or conditional NT so
                // the direction predictor owns it next time).
                if taken || kind.is_conditional() {
                    self.btb
                        .install(BtbEntry::discover(pc, sealed_target, kind, taken));
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
        // the histories).
        if kind.is_indirect() && !kind.is_return() && taken {
            // Train in sealed-target space: the stored chain entries and
            // the hash table hold ciphertext under the current context key.
            let predicted_sealed = indirect_pred.unwrap_or(None);
            self.indirect.update(
                pc,
                self.seal(kind, target),
                predicted_sealed,
                &mut self.shp,
                &mut self.ghist,
                &mut self.phist,
            );
        }
        // Histories.
        if kind.is_conditional() {
            self.ghist.push(taken);
        }
        self.phist.push(pc);
        // µBTB graph learning.
        let predicted_correctly = !mispredicted && !discovered;
        self.ubtb.update(
            pc,
            taken,
            target,
            matches!(kind, BranchKind::UncondDirect | BranchKind::DirectCall),
            predicted_correctly,
        );
        // ZAT/ZOT replication learning: if this branch is always/often
        // taken, replicate its target into the previous taken branch's
        // entry; and arm the zero-bubble grant for the *next* occurrence.
        // Replication applies to direct always/often-taken branches (their
        // targets are stored in plaintext; indirect targets stay sealed).
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

        self.stats.bubbles += bubbles as u64;
        Ok(FetchFeedback { bubbles, redirect })
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    fn save_opt_pair(enc: &mut Encoder, v: Option<(u64, u64)>) {
        match v {
            Some((a, b)) => {
                enc.u8(1);
                enc.u64(a);
                enc.u64(b);
            }
            None => enc.u8(0),
        }
    }

    fn load_opt_pair(dec: &mut Decoder<'_>) -> Result<Option<(u64, u64)>, SnapshotError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some((dec.u64()?, dec.u64()?))),
            _ => Err(SnapshotError::Corrupt { what: "frontend option flag" }),
        }
    }

    fn save_stats(enc: &mut Encoder, s: &FrontendStats) {
        for v in [
            s.instructions,
            s.branches,
            s.cond_branches,
            s.taken_branches,
            s.cond_mispredicts,
            s.indirect_mispredicts,
            s.return_mispredicts,
            s.discoveries,
            s.trace_gaps,
            s.bubbles,
            s.zat_zot_zero_bubble,
            s.one_bubble_at,
            s.ubtb_zero_bubble,
            s.mrb_covered,
            s.pair_lead_taken,
            s.pair_second_taken,
            s.pair_both_not_taken,
            s.elo_skipped_lookups,
            s.shp_lookups,
            s.conf_flips_to_low,
            s.conf_flips_to_high,
        ] {
            enc.u64(v);
        }
    }

    fn load_stats(dec: &mut Decoder<'_>, s: &mut FrontendStats) -> Result<(), SnapshotError> {
        for v in [
            &mut s.instructions,
            &mut s.branches,
            &mut s.cond_branches,
            &mut s.taken_branches,
            &mut s.cond_mispredicts,
            &mut s.indirect_mispredicts,
            &mut s.return_mispredicts,
            &mut s.discoveries,
            &mut s.trace_gaps,
            &mut s.bubbles,
            &mut s.zat_zot_zero_bubble,
            &mut s.one_bubble_at,
            &mut s.ubtb_zero_bubble,
            &mut s.mrb_covered,
            &mut s.pair_lead_taken,
            &mut s.pair_second_taken,
            &mut s.pair_both_not_taken,
            &mut s.elo_skipped_lookups,
            &mut s.shp_lookups,
            &mut s.conf_flips_to_low,
            &mut s.conf_flips_to_high,
        ] {
            *v = dec.u64()?;
        }
        Ok(())
    }

    impl Snapshot for FrontEnd {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::FRONTEND);
            self.shp.save(enc);
            self.ghist.save(enc);
            self.phist.save(enc);
            self.ubtb.save(enc);
            self.btb.save(enc);
            self.ras.save(enc);
            self.indirect.save(enc);
            self.confidence.save(enc);
            match &self.mrb {
                Some(m) => {
                    enc.u8(1);
                    m.save(enc);
                }
                None => enc.u8(0),
            }
            self.entropy.save(enc);
            self.key.save(enc);
            match self.expected_pc {
                Some(pc) => {
                    enc.u8(1);
                    enc.u64(pc);
                }
                None => enc.u8(0),
            }
            save_opt_pair(enc, self.last_taken_branch);
            save_opt_pair(enc, self.pending_zero_bubble);
            enc.bool(self.pair_pending_second);
            enc.seq(self.elo_bits.len());
            for w in &self.elo_bits {
                enc.u64(*w);
            }
            enc.u64(self.cur_line);
            enc.bool(self.cur_line_had_branch);
            save_stats(enc, &self.stats);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::FRONTEND)?;
            self.shp.restore(dec)?;
            self.ghist.restore(dec)?;
            self.phist.restore(dec)?;
            self.ubtb.restore(dec)?;
            self.btb.restore(dec)?;
            self.ras.restore(dec)?;
            self.indirect.restore(dec)?;
            self.confidence.restore(dec)?;
            let has_mrb = match dec.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Corrupt { what: "frontend mrb flag" }),
            };
            match (&mut self.mrb, has_mrb) {
                (Some(m), true) => m.restore(dec)?,
                (None, false) => {}
                (mine, _) => {
                    return Err(SnapshotError::Geometry {
                        what: "frontend mrb presence",
                        expected: u64::from(mine.is_some()),
                        found: u64::from(has_mrb),
                    })
                }
            }
            self.entropy.restore(dec)?;
            self.key.restore(dec)?;
            self.expected_pc = match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()?),
                _ => return Err(SnapshotError::Corrupt { what: "frontend expected-pc flag" }),
            };
            self.last_taken_branch = load_opt_pair(dec)?;
            self.pending_zero_bubble = load_opt_pair(dec)?;
            self.pair_pending_second = dec.bool()?;
            let n = dec.seq(8)?;
            if n != self.elo_bits.len() {
                return Err(SnapshotError::Geometry {
                    what: "frontend elo bitmap",
                    expected: self.elo_bits.len() as u64,
                    found: n as u64,
                });
            }
            for w in &mut self.elo_bits {
                *w = dec.u64()?;
            }
            self.cur_line = dec.u64()?;
            self.cur_line_had_branch = dec.bool()?;
            load_stats(dec, &mut self.stats)?;
            // The restored RAS carries the snapshot's key; keep the
            // front-end copy (used for re-keying) in sync with it.
            self.ras.set_key(self.key);
            dec.end_section()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::config::FrontendConfig;
        use exynos_trace::{BranchInfo, BranchKind, Inst, Reg};

        fn warmed_frontend(cfg: FrontendConfig) -> FrontEnd {
            let mut fe = FrontEnd::new(cfg);
            for i in 0..5_000u64 {
                let pc = 0x1000 + (i % 97) * 4;
                let inst = if i % 7 == 0 {
                    let info = BranchInfo {
                        kind: BranchKind::CondDirect,
                        taken: i % 3 != 0,
                        target: pc + 64,
                    };
                    Inst::branch(pc, info, [None, None])
                } else if i % 31 == 0 {
                    Inst::load(pc, Reg::int(1), None, 0x10_0000 + i * 8)
                } else {
                    Inst::alu(pc, Reg::int(2), [None, None])
                };
                let _ = fe.on_inst(&inst);
            }
            fe
        }

        #[test]
        fn frontend_roundtrip_is_bit_identical() {
            for cfg in FrontendConfig::all_generations() {
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
                assert_eq!(enc2.finish(), bytes, "gen {}", cfg.name);
            }
        }

        #[test]
        fn restore_into_wrong_generation_is_a_typed_error() {
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
