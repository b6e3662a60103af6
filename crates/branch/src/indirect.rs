//! Indirect-branch target prediction: VPC chains, and the M6 hybrid of a
//! length-limited VPC with a dedicated indirect target hash table.
//!
//! §IV.A/Fig. 3: the indirect predictor is based on the VPC approach —
//! an indirect prediction becomes a sequence of conditional predictions of
//! "virtual PCs" that each consult the SHP, with each unique target (up to
//! a design maximum of 16 per chain) stored in BTB program order.
//!
//! §IV.F/Fig. 8: JavaScript allocates "in some cases hundreds of unique
//! indirect targets for a given indirect branch"; VPC needs O(n) cycles to
//! train/predict n targets and floods the vBTB. M6 therefore keeps a
//! 5-target VPC *in parallel with* the launch of a dedicated hash-table
//! lookup; the hash "based on the history of recent indirect branch
//! targets" (not the SHP's GHIST/PHIST/PC hash, which "did not perform
//! well, as the precursor conditional branches do not highly correlate
//! with the indirect targets").

use crate::history::ShpHistory;
use crate::shp::{apply_bias_delta, Shp};

/// Geometry/behaviour of the indirect predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectConfig {
    /// Maximum VPC chain positions consulted per prediction.
    pub max_vpc: usize,
    /// Maximum targets retained per branch (chain storage bound).
    pub max_chain: usize,
    /// Dedicated indirect target hash table (M6); `None` = full VPC only.
    pub hash_table: Option<IndirectHashConfig>,
}

/// The M6 dedicated indirect-target table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectHashConfig {
    /// Entries (power of two).
    pub entries: usize,
    /// Access latency in prediction-pipe cycles (it is "large dedicated
    /// storage \[that\] takes a few cycles to access").
    pub latency: u32,
    /// Bits of recent-target history folded into the index.
    pub target_history_bits: u32,
}

impl IndirectConfig {
    /// M1–M5: full VPC with a 16-target chain maximum.
    pub fn full_vpc() -> IndirectConfig {
        IndirectConfig {
            max_vpc: 16,
            max_chain: 16,
            hash_table: None,
        }
    }

    /// M6 hybrid: VPC cut to 5 targets, hash table launched in parallel.
    pub fn m6_hybrid() -> IndirectConfig {
        IndirectConfig {
            max_vpc: 5,
            max_chain: 16,
            hash_table: Some(IndirectHashConfig {
                entries: 2048,
                latency: 3,
                target_history_bits: 10,
            }),
        }
    }
}

/// One indirect branch's learned target chain.
#[derive(Debug, Clone, Default)]
struct Chain {
    pc: u64,
    /// (target, per-virtual-branch bias weight), program order.
    targets: Vec<(u64, i8)>,
    lru: u64,
}

/// A produced indirect prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectPrediction {
    /// Predicted target, if any structure produced one.
    pub target: Option<u64>,
    /// Extra prediction-pipe cycles spent (VPC iterations or hash-table
    /// latency) beyond a normal taken-branch redirect.
    pub extra_cycles: u32,
    /// Whether the hash table (rather than the VPC) supplied the target.
    pub from_hash_table: bool,
}

exynos_telemetry::counters! {
    /// Statistics for the indirect predictor.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IndirectStats in "branch.indirect" {
        /// Predictions attempted.
        pub lookups: u64,
        /// Correct target predictions.
        pub correct: u64,
        /// Predictions supplied by the hash table.
        pub hash_hits: u64,
        /// Total extra cycles spent in VPC iteration / table latency.
        pub extra_cycles: u64,
    }
}

/// The indirect target predictor (VPC + optional hash table).
#[derive(Debug, Clone)]
pub struct IndirectPredictor {
    cfg: IndirectConfig,
    chains: Vec<Chain>,
    chain_capacity: usize,
    /// M6 hash table: (tag, target).
    table: Vec<Option<(u32, u64)>>,
    /// Folded history of recent indirect targets.
    target_hist: u32,
    stamp: u64,
    stats: IndirectStats,
}

impl IndirectPredictor {
    /// Why [`IndirectPredictor::new`] would reject `cfg` with
    /// `chain_capacity` chains, if it would: no chain storage, a chain
    /// that holds no target, a hash table whose size is not a power of
    /// two, or a target history wider than its 32-bit register.
    pub fn defect(cfg: &IndirectConfig, chain_capacity: usize) -> Option<String> {
        if chain_capacity == 0 || cfg.max_chain == 0 {
            return Some(format!("{chain_capacity} chains of {} targets (both nonzero)", cfg.max_chain));
        }
        let h = cfg.hash_table.as_ref()?;
        (!h.entries.is_power_of_two() || h.target_history_bits > 31).then(|| {
            format!(
                "hash table of {} entries, {} history bits (a power of two, at most 31 bits)",
                h.entries, h.target_history_bits
            )
        })
    }

    /// Build an indirect predictor; `chain_capacity` bounds how many
    /// distinct indirect branches can hold chains (vBTB pressure model).
    ///
    /// # Panics
    /// Panics if [`IndirectPredictor::defect`] rejects the geometry.
    pub fn new(cfg: IndirectConfig, chain_capacity: usize) -> IndirectPredictor {
        let defect = IndirectPredictor::defect(&cfg, chain_capacity);
        assert!(defect.is_none(), "indirect predictor: {defect:?}");
        let table = cfg.hash_table.as_ref().map_or_else(Vec::new, |h| vec![None; h.entries]);
        IndirectPredictor {
            cfg,
            chains: Vec::new(),
            chain_capacity,
            table,
            target_hist: 0,
            stamp: 0,
            stats: IndirectStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IndirectConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IndirectStats {
        self.stats
    }

    /// Flush every entry (pipeline-flush recovery) while keeping the
    /// cumulative statistics.
    pub fn clear(&mut self) {
        let fresh = IndirectPredictor::new(self.cfg.clone(), self.chain_capacity);
        *self = IndirectPredictor { stats: self.stats, ..fresh };
    }

    /// The virtual PC for chain position `i` of branch `pc` (Fig. 3).
    fn virtual_pc(pc: u64, i: usize) -> u64 {
        pc ^ ((i as u64 + 1).wrapping_mul(0x1F3_5151) << 2)
    }

    fn table_index(&self, pc: u64) -> Option<usize> {
        let h = self.cfg.hash_table.as_ref()?;
        let hist = self.target_hist & ((1u32 << h.target_history_bits) - 1);
        let x = (pc >> 2) as u32 ^ hist.wrapping_mul(0x9E37_79B9);
        Some((x ^ (x >> 13)) as usize & (h.entries - 1))
    }

    fn table_tag(&self, pc: u64) -> u32 {
        ((pc >> 2) as u32).wrapping_mul(0x85EB_CA6B) >> 18
    }

    /// Predict the target of the indirect branch at `pc`, consulting the
    /// SHP through virtual PCs and (M6) the hash table in parallel.
    ///
    /// As in the VPC paper, each virtual conditional consults the SHP with
    /// the history state *as of that iteration*: not-taken virtual outcomes
    /// are speculatively shifted into a cloned history between
    /// iterations, mirroring what [`IndirectPredictor::update`] commits.
    pub fn predict(&mut self, pc: u64, shp: &Shp, hist: &ShpHistory) -> IndirectPrediction {
        self.stamp += 1;
        self.stats.lookups += 1;
        let chain = self.chains.iter_mut().find(|c| c.pc == pc);
        let mut vpc_result: Option<(u64, u32)> = None;
        let mut chain_len = 0;
        if let Some(c) = chain {
            c.lru = self.stamp;
            chain_len = c.targets.len();
            let mut h = hist.clone();
            for (i, (target, bias)) in c.targets.iter().enumerate().take(self.cfg.max_vpc) {
                let vp = Self::virtual_pc(pc, i);
                let pr = shp.predict(vp, *bias, &h);
                if pr.taken {
                    vpc_result = Some((*target, i as u32));
                    break;
                }
                h.push_outcome(false);
                h.push_path(vp);
            }
        }
        // Arbitration (§IV.F): "the accuracy of SHP+VPC+hash-table lookups
        // still proves superior to a pure hash-table lookup for small
        // numbers of targets" — so branches whose chain fits in the VPC
        // window use the VPC result; branches with many targets (chain at
        // or beyond the window) trust the hash table launched in parallel,
        // falling back to the VPC's pick when the table misses.
        let many_targets = chain_len >= self.cfg.max_vpc && self.cfg.hash_table.is_some();
        let hash_hit: Option<(u64, u32)> = match &self.cfg.hash_table {
            Some(h) if !self.table.is_empty() => {
                let tag = self.table_tag(pc);
                self.table_index(pc).and_then(|idx| {
                    self.table[idx]
                        .filter(|(t, _)| *t == tag)
                        .map(|(_, tgt)| (tgt, h.latency))
                })
            }
            _ => None,
        };
        let pred = if many_targets {
            match (hash_hit, vpc_result) {
                (Some((t, lat)), vpc) => {
                    self.stats.hash_hits += 1;
                    IndirectPrediction {
                        target: Some(t),
                        extra_cycles: lat.max(vpc.map(|(_, c)| c).unwrap_or(0)),
                        from_hash_table: true,
                    }
                }
                (None, Some((t, cyc))) => IndirectPrediction {
                    target: Some(t),
                    extra_cycles: cyc,
                    from_hash_table: false,
                },
                (None, None) => IndirectPrediction {
                    target: None,
                    extra_cycles: self.cfg.max_vpc.min(chain_len) as u32,
                    from_hash_table: false,
                },
            }
        } else {
            match (vpc_result, hash_hit) {
                (Some((t, cyc)), _) => IndirectPrediction {
                    target: Some(t),
                    extra_cycles: cyc,
                    from_hash_table: false,
                },
                (None, Some((t, lat))) => {
                    self.stats.hash_hits += 1;
                    IndirectPrediction {
                        target: Some(t),
                        extra_cycles: lat.max(self.cfg.max_vpc.min(chain_len) as u32),
                        from_hash_table: true,
                    }
                }
                (None, None) => IndirectPrediction {
                    target: None,
                    extra_cycles: self.cfg.max_vpc.min(chain_len) as u32,
                    from_hash_table: false,
                },
            }
        };
        self.stats.extra_cycles += pred.extra_cycles as u64;
        pred
    }

    /// Train on the architectural `target`, updating the VPC chain (and
    /// its virtual conditional branches in the SHP), the hash table, and
    /// the recent-target history. The virtual-branch outcomes are committed
    /// into `hist` (they are conditional branches from the SHP's
    /// point of view), which is also how an indirect branch becomes visible
    /// to later history-based predictions. Returns whether the earlier
    /// prediction `predicted` was correct.
    pub fn update(
        &mut self,
        pc: u64,
        target: u64,
        predicted: Option<u64>,
        shp: &mut Shp,
        hist: &mut ShpHistory,
    ) -> bool {
        self.stamp += 1;
        let correct = predicted == Some(target);
        if correct {
            self.stats.correct += 1;
        }
        // --- VPC chain maintenance + virtual-branch SHP training. ---------
        let stamp = self.stamp;
        let max_chain = self.cfg.max_chain;
        let max_vpc = self.cfg.max_vpc;
        let chain = match self.chains.iter_mut().find(|c| c.pc == pc) {
            Some(c) => c,
            None => {
                if self.chains.len() >= self.chain_capacity {
                    let victim = self
                        .chains
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.lru)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    self.chains.remove(victim);
                }
                self.chains.push(Chain {
                    pc,
                    targets: Vec::new(),
                    lru: stamp,
                });
                // Just pushed, so the vec is non-empty; fall back to index
                // 0 rather than abort if that ever changes.
                let last = self.chains.len() - 1;
                &mut self.chains[last]
            }
        };
        chain.lru = stamp;
        let pos = chain.targets.iter().position(|(t, _)| *t == target);
        let pos = match pos {
            Some(p) => p,
            None => {
                if chain.targets.len() < max_chain {
                    chain.targets.push((target, 0));
                    chain.targets.len() - 1
                } else {
                    // Chain full: replace the last slot (the coldest in
                    // program-order training).
                    let last = chain.targets.len() - 1;
                    chain.targets[last] = (target, 0);
                    last
                }
            }
        };
        // Train virtual branches: positions before `pos` resolve NOT-TAKEN,
        // position `pos` resolves TAKEN (classic VPC training), limited to
        // the VPC window; outcomes are committed into the real histories
        // exactly as `predict` walked them.
        for i in 0..=pos.min(max_vpc.saturating_sub(1)) {
            let is_hit = i == pos;
            let (_, bias) = &mut chain.targets[i];
            let vp = Self::virtual_pc(pc, i);
            let p = shp.predict(vp, *bias, hist);
            let d = shp.update(&p, is_hit, false);
            *bias = apply_bias_delta(*bias, d);
            hist.push_outcome(is_hit);
            hist.push_path(vp);
        }
        // --- Hash table training. -----------------------------------------
        if let Some(idx) = self.table_index(pc) {
            let tag = self.table_tag(pc);
            self.table[idx] = Some((tag, target));
        }
        // --- Recent-target history. ----------------------------------------
        // Sliding window of recent target chunks: old targets age out
        // completely after window_bits/5 branches, so a single anomalous
        // target only briefly desynchronizes the table index. The chunk is
        // an XOR-fold of the *whole* stored value — targets may be
        // CONTEXT_HASH ciphertext whose entropy sits in arbitrary bit
        // positions (§V).
        let mut t = target ^ (target >> 32);
        t ^= t >> 16;
        t ^= t >> 8;
        let tbits = ((t ^ (t >> 5)) & 0x1F) as u32;
        let window_bits = self
            .cfg
            .hash_table
            .as_ref()
            .map(|h| h.target_history_bits)
            .unwrap_or(10);
        let mask = (1u32 << window_bits) - 1;
        self.target_hist = ((self.target_hist << 5) | tbits) & mask;
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shp::ShpConfig;

    struct Rig {
        shp: Shp,
        h: ShpHistory,
        pred: IndirectPredictor,
    }

    fn rig(cfg: IndirectConfig) -> Rig {
        let shp = Shp::new(ShpConfig::m1());
        Rig {
            h: shp.history(),
            shp,
            pred: IndirectPredictor::new(cfg, 64),
        }
    }

    fn step(r: &mut Rig, pc: u64, target: u64) -> bool {
        let pr = r.pred.predict(pc, &r.shp, &r.h);
        // update() commits the virtual-branch outcomes into the history.
        r.pred.update(pc, target, pr.target, &mut r.shp, &mut r.h)
    }

    #[test]
    fn single_target_learned_immediately() {
        let mut r = rig(IndirectConfig::full_vpc());
        let mut correct = 0;
        for _ in 0..100 {
            if step(&mut r, 0x4000, 0x9000) {
                correct += 1;
            }
        }
        assert!(correct >= 98, "monomorphic indirect must be near-perfect, got {correct}");
    }

    #[test]
    fn two_targets_with_regular_alternation_learned() {
        let mut r = rig(IndirectConfig::full_vpc());
        let mut correct = 0;
        for i in 0..600 {
            let t = if i % 2 == 0 { 0x9000 } else { 0xA000 };
            if step(&mut r, 0x4000, t) && i >= 200 {
                correct += 1;
            }
        }
        assert!(
            correct > 320,
            "alternating 2-target indirect should be learnable via GHIST, got {correct}/400"
        );
    }

    #[test]
    fn vpc_cost_grows_with_target_position() {
        let mut r = rig(IndirectConfig::full_vpc());
        // Train 8 targets round-robin; measure extra cycles.
        for i in 0..800u64 {
            let t = 0x9000 + (i % 8) * 0x100;
            step(&mut r, 0x4000, t);
        }
        let stats = r.pred.stats();
        let avg_cycles = stats.extra_cycles as f64 / stats.lookups as f64;
        assert!(
            avg_cycles > 1.0,
            "deep chains must cost VPC iterations, got {avg_cycles}"
        );
    }

    #[test]
    fn m6_hash_table_covers_many_targets() {
        // A 64-target Markov-sequenced indirect branch: full VPC (16-max)
        // cannot even store all targets; the M6 hash table keyed by recent
        // target history can follow a deterministic target walk.
        let run = |cfg: IndirectConfig| -> (u64, u64) {
            let mut r = rig(cfg);
            let mut cur = 0u64;
            for _ in 0..6000 {
                // Deterministic successor walk over 64 targets.
                cur = (cur * 13 + 7) % 64;
                let t = 0x9000 + cur * 0x40;
                step(&mut r, 0x4000, t);
            }
            (r.pred.stats().correct, r.pred.stats().lookups)
        };
        let (full_ok, n) = run(IndirectConfig::full_vpc());
        let (hybrid_ok, _) = run(IndirectConfig::m6_hybrid());
        assert!(
            hybrid_ok > full_ok + n / 10,
            "hybrid must clearly beat full VPC on many-target walks: {hybrid_ok} vs {full_ok} of {n}"
        );
    }

    #[test]
    fn m6_latency_beats_full_vpc_on_deep_chains() {
        // §IV.F: the hybrid "reduced end-to-end prediction latency compared
        // to the full-VPC approach". Round-robin over 60 targets.
        let run = |cfg: IndirectConfig| -> (f64, u64) {
            let mut r = rig(cfg);
            for i in 0..3000u64 {
                let t = 0x9000 + (i % 60) * 0x40;
                step(&mut r, 0x4000, t);
            }
            let s = r.pred.stats();
            (s.extra_cycles as f64 / s.lookups as f64, s.hash_hits)
        };
        let (full_avg, _) = run(IndirectConfig::full_vpc());
        let (hybrid_avg, hash_hits) = run(IndirectConfig::m6_hybrid());
        assert!(
            hybrid_avg < full_avg,
            "hybrid must be faster end-to-end: {hybrid_avg} vs {full_avg}"
        );
        // Bounded by max(vpc window, table latency) = 5.
        assert!(hybrid_avg <= 5.0, "got {hybrid_avg}");
        assert!(hash_hits > 0);
    }

    #[test]
    fn chain_capacity_evicts_lru_branch() {
        let mut r = rig(IndirectConfig::full_vpc());
        r.pred = IndirectPredictor::new(IndirectConfig::full_vpc(), 2);
        step(&mut r, 0x4000, 0x9000);
        step(&mut r, 0x5000, 0x9100);
        step(&mut r, 0x6000, 0x9200); // evicts 0x4000
        let pr = r.pred.predict(0x4000, &r.shp, &r.h);
        assert_eq!(pr.target, None, "evicted chain must not predict");
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        IndirectPredictor [tags::INDIRECT] |s| {
            chains: Bounded(s.chain_capacity, "indirect chains"),
            table: Fixed("indirect hash table"),
            target_hist, stamp, stats,
        } then check_chains
    }
    layout! { Chain { pc, targets, lru } }

    impl IndirectPredictor {
        /// Training replaces the last target of a full chain rather than
        /// growing it, so no live chain exceeds `cfg.max_chain`.
        fn check_chains(&mut self) -> Result<(), SnapshotError> {
            let cap = self.cfg.max_chain;
            match self.chains.iter().find(|c| c.targets.len() > cap) {
                Some(c) => Err(SnapshotError::Geometry {
                    what: "indirect chain targets",
                    expected: cap as u64,
                    found: c.targets.len() as u64,
                }),
                None => Ok(()),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};

        /// Training replaces a full chain's last target, so a chain above
        /// `max_chain` targets cannot come from a run.
        #[test]
        fn over_capacity_chain_targets_is_geometry() {
            let cfg = IndirectConfig::m6_hybrid();
            let cap = cfg.max_chain as u64;
            for extra in [0u64, 1] {
                let mut p = IndirectPredictor::new(cfg.clone(), 4);
                let targets = (0..cap + extra).map(|t| (0x9000 + t, 0)).collect();
                p.chains.push(Chain { pc: 0x4000, targets, lru: 1 });
                let mut enc = Encoder::new();
                p.save(&mut enc);
                let bytes = enc.finish();
                let got = IndirectPredictor::new(cfg.clone(), 4).restore(&mut Decoder::new(&bytes));
                if extra == 0 {
                    assert_eq!(got, Ok(()));
                } else {
                    assert_eq!(
                        got,
                        Err(SnapshotError::Geometry {
                            what: "indirect chain targets",
                            expected: cap,
                            found: cap + 1,
                        })
                    );
                }
            }
        }
    }
}
