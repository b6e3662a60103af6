//! The zero-bubble micro-BTB (µBTB) with its local-history hashed
//! perceptron (LHP).
//!
//! §IV.B (and the Dundas/Zuraski patent the paper cites): the µBTB is
//! graph-based — it filters for common branches with common roots
//! ("seeds"), then learns both TAKEN and NOT-TAKEN edges into a graph over
//! several iterations (Fig. 4). Difficult nodes use a local-history hashed
//! perceptron. "When a small kernel is confirmed as both fully fitting
//! within the µBTB and predictable by the µBTB, the µBTB will *lock* and
//! drive the pipe at 0 bubble throughput until a misprediction", with the
//! mBTB/SHP checking (and, at high confidence, clock-gated). After a
//! mispredict the µBTB is disabled until the next seed branch (§IV.E,
//! Fig. 6 caption).
//!
//! M3 doubled the graph size with uncond-only entries (§IV.C); M5 shrank
//! the µBTB and let ZAT/ZOT participate more (§IV.E).

/// Geometry/tuning of the µBTB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UbtbConfig {
    /// Graph nodes usable by any branch.
    pub general_nodes: usize,
    /// Additional nodes restricted to unconditional branches (M3+).
    pub uncond_only_nodes: usize,
    /// Consecutive correct µBTB-covered predictions required to lock.
    pub lock_threshold: u32,
    /// Cycles of startup penalty when the µBTB takes over the pipe.
    pub startup_penalty: u32,
    /// LHP local-history length in bits.
    pub lhp_history: usize,
    /// LHP weight-table rows.
    pub lhp_rows: usize,
}

impl UbtbConfig {
    /// M1/M2 µBTB: 64 general nodes.
    pub fn m1() -> UbtbConfig {
        UbtbConfig {
            general_nodes: 64,
            uncond_only_nodes: 0,
            lock_threshold: 24,
            startup_penalty: 2,
            lhp_history: 10,
            lhp_rows: 256,
        }
    }

    /// M3/M4: graph doubled, but the new entries store only unconditional
    /// branches (area-efficient growth, §IV.C).
    pub fn m3() -> UbtbConfig {
        UbtbConfig {
            general_nodes: 64,
            uncond_only_nodes: 64,
            ..UbtbConfig::m1()
        }
    }

    /// M5/M6: fewer entries — ZAT/ZOT participates more (§IV.E).
    pub fn m5() -> UbtbConfig {
        UbtbConfig {
            general_nodes: 48,
            uncond_only_nodes: 32,
            ..UbtbConfig::m1()
        }
    }

    /// Total node capacity.
    pub fn total_nodes(&self) -> usize {
        self.general_nodes + self.uncond_only_nodes
    }
}

/// One learned branch node in the µBTB graph.
#[derive(Debug, Clone, Copy)]
struct Node {
    pc: u64,
    taken_target: u64,
    is_uncond: bool,
    /// Local outcome history (newest in bit 0).
    local_history: u16,
    /// Edge-learned presence bits: has each successor been observed?
    saw_taken: bool,
    saw_not_taken: bool,
    lru: u64,
    /// "Built" bit used by the micro-op cache's BuildMode (§VI).
    built: bool,
}

/// Outcome of a µBTB prediction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UbtbPrediction {
    /// Node present; predicted direction and (if taken) target.
    Hit {
        /// Predicted direction from the LHP / edge structure.
        taken: bool,
        /// Predicted target when taken.
        target: u64,
    },
    /// Branch not in the graph.
    Miss,
}

/// Statistics for the µBTB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UbtbStats {
    /// Predictions made while locked (zero-bubble).
    pub locked_predictions: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Locks broken by a mispredict or graph miss.
    pub unlocks: u64,
    /// Cycles the mBTB/SHP could be clock-gated (power proxy).
    pub gated_cycles: u64,
}

/// The graph-based micro-BTB.
#[derive(Debug, Clone)]
pub struct MicroBtb {
    cfg: UbtbConfig,
    nodes: Vec<Node>,
    /// LHP weight table shared across nodes: indexed by
    /// `hash(pc, local_history)`.
    lhp: Vec<i8>,
    /// Seed filter: recently seen taken-branch PCs awaiting a second
    /// occurrence before allocation.
    seed_filter: Vec<(u64, u64)>,
    stamp: u64,
    /// Consecutive correct graph-covered predictions.
    streak: u32,
    locked: bool,
    /// Disabled until the next seed after a mispredict.
    disabled: bool,
    stats: UbtbStats,
}

impl MicroBtb {
    /// Build a µBTB from `cfg`.
    ///
    /// # Panics
    /// Panics if `general_nodes` is zero or `lhp_rows` is not a power of
    /// two.
    pub fn new(cfg: UbtbConfig) -> MicroBtb {
        assert!(cfg.general_nodes > 0, "need general nodes");
        assert!(cfg.lhp_rows.is_power_of_two(), "lhp_rows must be a power of two");
        MicroBtb {
            lhp: vec![0; cfg.lhp_rows],
            nodes: Vec::with_capacity(cfg.total_nodes()),
            seed_filter: Vec::new(),
            stamp: 0,
            streak: 0,
            locked: false,
            disabled: false,
            stats: UbtbStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UbtbConfig {
        &self.cfg
    }

    /// Whether the µBTB currently drives the pipe at zero bubbles.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> UbtbStats {
        self.stats
    }

    fn lhp_index(&self, pc: u64, hist: u16) -> usize {
        let h = (pc >> 2) as u32 ^ ((hist as u32) << 3).wrapping_mul(0x9E37_79B9);
        (h as usize ^ (h >> 13) as usize) & (self.cfg.lhp_rows - 1)
    }

    fn find(&self, pc: u64) -> Option<usize> {
        self.nodes.iter().position(|n| n.pc == pc)
    }

    /// Predict the branch at `pc` (direction + target) from the graph.
    pub fn predict(&mut self, pc: u64) -> UbtbPrediction {
        self.stamp += 1;
        let Some(i) = self.find(pc) else {
            return UbtbPrediction::Miss;
        };
        self.nodes[i].lru = self.stamp;
        let n = self.nodes[i];
        let taken = if n.is_uncond || !n.saw_not_taken {
            true
        } else if !n.saw_taken {
            false
        } else {
            // Difficult node: consult the LHP.
            let w = self.lhp[self.lhp_index(pc, n.local_history)];
            w >= 0
        };
        UbtbPrediction::Hit {
            taken,
            target: n.taken_target,
        }
    }

    /// Record the architectural outcome of the branch at `pc`, learning
    /// graph edges, training the LHP, maintaining lock state, and (when the
    /// branch was not yet a node) passing it through the seed filter.
    ///
    /// `predicted_correctly` refers to the *overall* front-end prediction
    /// of this branch (lock policy listens to the checking predictors too).
    pub fn update(
        &mut self,
        pc: u64,
        taken: bool,
        target: u64,
        is_uncond: bool,
        predicted_correctly: bool,
    ) {
        self.stamp += 1;
        match self.find(pc) {
            Some(i) => {
                // Train the LHP before updating local history.
                let hist = self.nodes[i].local_history;
                let li = self.lhp_index(pc, hist);
                {
                    let n = &mut self.nodes[i];
                    if taken {
                        n.saw_taken = true;
                        n.taken_target = target;
                    } else {
                        n.saw_not_taken = true;
                    }
                    n.local_history = (n.local_history << 1) | taken as u16;
                    let mask = (1u16 << self.cfg.lhp_history.min(15)) - 1;
                    n.local_history &= mask;
                    n.lru = self.stamp;
                }
                let w = &mut self.lhp[li];
                let nv = (*w as i32 + if taken { 1 } else { -1 }).clamp(-31, 31);
                *w = nv as i8;
                // Lock bookkeeping. A correctly handled taken graph node
                // acts as the next "seed": it re-enables a µBTB that was
                // disabled by a mispredict (the loop's root branch re-arms
                // the graph on the next iteration).
                if predicted_correctly && taken {
                    self.disabled = false;
                }
                if predicted_correctly {
                    self.streak += 1;
                    if self.locked {
                        self.stats.locked_predictions += 1;
                        self.stats.gated_cycles += 1;
                    } else if self.streak >= self.cfg.lock_threshold && !self.disabled {
                        self.locked = true;
                        self.stats.locks += 1;
                    }
                } else {
                    self.break_lock();
                    self.disabled = true;
                }
            }
            None => {
                self.streak = 0;
                if self.locked {
                    self.break_lock();
                }
                if taken {
                    self.consider_seed(pc, target, is_uncond);
                }
            }
        }
    }

    fn break_lock(&mut self) {
        if self.locked {
            self.locked = false;
            self.stats.unlocks += 1;
        }
        self.streak = 0;
    }

    /// A taken branch missing from the graph: allocate on its second
    /// occurrence (the "filter and identify common branches" step).
    fn consider_seed(&mut self, pc: u64, target: u64, is_uncond: bool) {
        self.disabled = false; // a new seed re-enables the µBTB
        if let Some(pos) = self.seed_filter.iter().position(|&(p, _)| p == pc) {
            self.seed_filter.remove(pos);
            self.allocate(pc, target, is_uncond);
        } else {
            if self.seed_filter.len() >= 16 {
                self.seed_filter.remove(0);
            }
            self.seed_filter.push((pc, target));
        }
    }

    fn allocate(&mut self, pc: u64, target: u64, is_uncond: bool) {
        let node = Node {
            pc,
            taken_target: target,
            is_uncond,
            local_history: 0,
            saw_taken: true,
            saw_not_taken: false,
            lru: self.stamp,
            built: false,
        };
        // Capacity accounting: unconditional branches may use either pool;
        // conditionals only the general pool.
        let uncond_used = self.nodes.iter().filter(|n| n.is_uncond).count();
        let cond_used = self.nodes.len() - uncond_used;
        let fits = if is_uncond {
            self.nodes.len() < self.cfg.total_nodes()
        } else {
            cond_used < self.cfg.general_nodes
        };
        if fits {
            self.nodes.push(node);
            return;
        }
        // Evict the LRU node this class may replace.
        let victim = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| if is_uncond { true } else { !n.is_uncond || uncond_used <= self.cfg.uncond_only_nodes })
            .min_by_key(|(_, n)| n.lru)
            .map(|(i, _)| i);
        if let Some(i) = victim {
            self.nodes[i] = node;
        }
    }

    /// Whether the working set currently fits (used by the UOC FilterMode).
    pub fn occupancy(&self) -> usize {
        self.nodes.len()
    }

    /// Fraction of resident nodes with their "built" bit set — the
    /// paper's µBTB built-bit coverage metric (0.0 when empty).
    pub fn built_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let built = self.nodes.iter().filter(|n| n.built).count();
        built as f64 / self.nodes.len() as f64
    }

    /// Read the "built" bit of the node at `pc` (UOC BuildMode support).
    pub fn built_bit(&self, pc: u64) -> Option<bool> {
        self.find(pc).map(|i| self.nodes[i].built)
    }

    /// Set the "built" bit back-propagated from the UOC.
    pub fn set_built(&mut self, pc: u64, built: bool) {
        if let Some(i) = self.find(pc) {
            self.nodes[i].built = built;
        }
    }

    /// Clear all built bits (UOC flush).
    pub fn clear_built(&mut self) {
        for n in &mut self.nodes {
            n.built = false;
        }
    }

    /// Snapshot of the learned branch graph: `(pc, taken_target,
    /// saw_taken, saw_not_taken, is_uncond)` per node (Fig. 4 dump).
    pub fn graph_snapshot(&self) -> Vec<(u64, u64, bool, bool, bool)> {
        self.nodes
            .iter()
            .map(|n| (n.pc, n.taken_target, n.saw_taken, n.saw_not_taken, n.is_uncond))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_loop(u: &mut MicroBtb, pc: u64, target: u64, iters: usize) -> usize {
        // A single always-taken loop branch; count correct µBTB predictions.
        let mut correct = 0;
        for _ in 0..iters {
            let pred = u.predict(pc);
            let ok = matches!(pred, UbtbPrediction::Hit { taken: true, target: t } if t == target);
            if ok {
                correct += 1;
            }
            u.update(pc, true, target, false, ok);
        }
        correct
    }

    #[test]
    fn seed_filter_requires_two_occurrences() {
        let mut u = MicroBtb::new(UbtbConfig::m1());
        u.update(0x4000, true, 0x5000, false, false);
        assert_eq!(u.occupancy(), 0, "first occurrence only seeds the filter");
        u.update(0x4000, true, 0x5000, false, false);
        assert_eq!(u.occupancy(), 1, "second occurrence allocates");
    }

    #[test]
    fn locks_on_predictable_kernel() {
        let mut u = MicroBtb::new(UbtbConfig::m1());
        let correct = run_loop(&mut u, 0x4000, 0x3f00, 100);
        assert!(u.is_locked(), "steady loop must lock the µBTB");
        assert!(correct > 60);
        assert!(u.stats().locked_predictions > 0);
    }

    #[test]
    fn mispredict_breaks_lock_and_disables() {
        let mut u = MicroBtb::new(UbtbConfig::m1());
        run_loop(&mut u, 0x4000, 0x3f00, 100);
        assert!(u.is_locked());
        // Now the branch goes the other way and the front end mispredicts.
        u.update(0x4000, false, 0x3f00, false, false);
        assert!(!u.is_locked());
        assert_eq!(u.stats().unlocks, 1);
        // While the front end keeps mispredicting, the µBTB must not lock.
        for _ in 0..50 {
            let _ = u.predict(0x4000);
            u.update(0x4000, true, 0x3f00, false, false);
        }
        assert!(!u.is_locked(), "no lock without correct predictions");
        // A correctly handled taken node acts as the next seed: the µBTB
        // re-enables and re-locks once the streak rebuilds (the loop's
        // root branch re-arms the graph on the next iteration).
        for _ in 0..50 {
            let _ = u.predict(0x4000);
            u.update(0x4000, true, 0x3f00, false, true);
        }
        assert!(u.is_locked(), "re-enabled by a correct taken seed");
        assert!(u.stats().locks >= 2);
    }

    #[test]
    fn lhp_learns_alternating_branch() {
        let mut u = MicroBtb::new(UbtbConfig::m1());
        let pc = 0x4000;
        // Allocate.
        u.update(pc, true, 0x5000, false, false);
        u.update(pc, true, 0x5000, false, false);
        // Make it a difficult node (both edges seen), alternating.
        let mut correct = 0;
        for i in 0..400 {
            let t = i % 2 == 0;
            let pred = u.predict(pc);
            let ok = matches!(pred, UbtbPrediction::Hit { taken, .. } if taken == t);
            if i > 100 && ok {
                correct += 1;
            }
            u.update(pc, t, 0x5000, false, ok);
        }
        assert!(
            correct > 250,
            "LHP must learn a 2-periodic local pattern, got {correct}/299"
        );
    }

    #[test]
    fn conditional_cannot_use_uncond_only_pool() {
        let mut cfg = UbtbConfig::m3();
        cfg.general_nodes = 2;
        cfg.uncond_only_nodes = 8;
        let mut u = MicroBtb::new(cfg);
        // Allocate 4 conditional branches (each needs two occurrences).
        for i in 0..4u64 {
            let pc = 0x4000 + i * 16;
            u.update(pc, true, pc + 0x100, false, false);
            u.update(pc, true, pc + 0x100, false, false);
        }
        let cond_nodes = u.nodes.iter().filter(|n| !n.is_uncond).count();
        assert!(cond_nodes <= 2, "conditionals capped by the general pool");
        // Unconditionals can fill the rest.
        for i in 0..8u64 {
            let pc = 0x8000 + i * 16;
            u.update(pc, true, pc + 0x100, true, false);
            u.update(pc, true, pc + 0x100, true, false);
        }
        assert!(u.occupancy() > 2);
    }

    #[test]
    fn built_bits_roundtrip() {
        let mut u = MicroBtb::new(UbtbConfig::m5());
        u.update(0x4000, true, 0x5000, false, false);
        u.update(0x4000, true, 0x5000, false, false);
        assert_eq!(u.built_bit(0x4000), Some(false));
        u.set_built(0x4000, true);
        assert_eq!(u.built_bit(0x4000), Some(true));
        u.clear_built();
        assert_eq!(u.built_bit(0x4000), Some(false));
        assert_eq!(u.built_bit(0x9999), None);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{tags, Decoder, Encoder, Snapshot, SnapshotError};

    impl Snapshot for MicroBtb {
        fn save(&self, enc: &mut Encoder) {
            enc.begin_section(tags::UBTB);
            enc.seq(self.nodes.len());
            for n in &self.nodes {
                enc.u64(n.pc);
                enc.u64(n.taken_target);
                enc.bool(n.is_uncond);
                enc.u16(n.local_history);
                enc.bool(n.saw_taken);
                enc.bool(n.saw_not_taken);
                enc.u64(n.lru);
                enc.bool(n.built);
            }
            enc.seq(self.lhp.len());
            for w in &self.lhp {
                enc.i8(*w);
            }
            enc.seq(self.seed_filter.len());
            for (a, b) in &self.seed_filter {
                enc.u64(*a);
                enc.u64(*b);
            }
            enc.u64(self.stamp);
            enc.u32(self.streak);
            enc.bool(self.locked);
            enc.bool(self.disabled);
            enc.u64(self.stats.locked_predictions);
            enc.u64(self.stats.locks);
            enc.u64(self.stats.unlocks);
            enc.u64(self.stats.gated_cycles);
            enc.end_section();
        }

        fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            dec.begin_section(tags::UBTB)?;
            let n = dec.seq(8)?;
            // `allocate` bounds the pools separately (conditionals by the
            // general pool, unconditionals by the whole arena), so the
            // arena can legitimately hold up to total + general nodes.
            let cap = self.cfg.total_nodes() + self.cfg.general_nodes;
            if n > cap {
                return Err(SnapshotError::Geometry {
                    what: "ubtb nodes",
                    expected: cap as u64,
                    found: n as u64,
                });
            }
            self.nodes.clear();
            for _ in 0..n {
                self.nodes.push(Node {
                    pc: dec.u64()?,
                    taken_target: dec.u64()?,
                    is_uncond: dec.bool()?,
                    local_history: dec.u16()?,
                    saw_taken: dec.bool()?,
                    saw_not_taken: dec.bool()?,
                    lru: dec.u64()?,
                    built: dec.bool()?,
                });
            }
            let l = dec.seq(1)?;
            if l != self.lhp.len() {
                return Err(SnapshotError::Geometry {
                    what: "ubtb loop-history table",
                    expected: self.lhp.len() as u64,
                    found: l as u64,
                });
            }
            for w in &mut self.lhp {
                *w = dec.i8()?;
            }
            let f = dec.seq(16)?;
            self.seed_filter.clear();
            for _ in 0..f {
                self.seed_filter.push((dec.u64()?, dec.u64()?));
            }
            self.stamp = dec.u64()?;
            self.streak = dec.u32()?;
            self.locked = dec.bool()?;
            self.disabled = dec.bool()?;
            self.stats.locked_predictions = dec.u64()?;
            self.stats.locks = dec.u64()?;
            self.stats.unlocks = dec.u64()?;
            self.stats.gated_cycles = dec.u64()?;
            dec.end_section()
        }
    }
}
