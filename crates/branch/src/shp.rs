//! The Scaled Hashed Perceptron (SHP) conditional predictor (§IV.A).
//!
//! * N weight tables (8×1024 in M1, doubled rows in M3, 16×2048 in M5/M6)
//!   of 8-bit sign/magnitude weights;
//! * each table indexed by `hash(PC) ^ fold(GHIST, interval_i) ^
//!   fold(PHIST, interval_i)`;
//! * prediction = `2*bias + Σ table weights ≥ 0` where the local BIAS
//!   weight lives in the branch's BTB entry (the "scaled" part — the bias
//!   is doubled, after Jiménez's optimized scaled neural predictor);
//! * update on a mispredict, or on a correct prediction whose |sum| fails
//!   to exceed an O-GEHL-style adaptively trained threshold;
//! * always-taken branches do not update the weight tables (anti-aliasing,
//!   §IV.A).

use crate::history::{ShpHistory, MAX_TABLES};

/// Saturating sign/magnitude 8-bit weight: −127..=127.
pub const WEIGHT_MAX: i32 = 127;
/// Minimum weight value.
pub const WEIGHT_MIN: i32 = -127;

/// Geometry and tuning of an SHP instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ShpConfig {
    /// Number of weight tables.
    pub tables: usize,
    /// Rows per table (power of two).
    pub rows: usize,
    /// Total GHIST length the longest table sees (165 in M1, 206 in M5).
    pub ghist_len: usize,
    /// Total PHIST entries the longest table sees (80 in M1).
    pub phist_len: usize,
    /// Initial training threshold (O-GEHL adapts it at runtime).
    pub initial_theta: i32,
    /// Multiplier applied to the BTB bias weight in the sum (the paper
    /// doubles it, after Jiménez's scaled neural predictor; 1 disables
    /// the scaling for ablation).
    pub bias_scale: i32,
}

impl ShpConfig {
    /// M1/M2 geometry: 8 tables × 1024 weights, 165-bit GHIST, 80-entry
    /// PHIST (8.0 KB of weights — Table II).
    pub fn m1() -> ShpConfig {
        ShpConfig {
            tables: 8,
            rows: 1024,
            ghist_len: 165,
            phist_len: 80,
            initial_theta: 18,
            bias_scale: 2,
        }
    }

    /// M3/M4 geometry: rows doubled to reduce aliasing (16.0 KB).
    pub fn m3() -> ShpConfig {
        ShpConfig {
            rows: 2048,
            ..ShpConfig::m1()
        }
    }

    /// M5/M6 geometry: 16 tables × 2048 weights, GHIST +25% and intervals
    /// rebalanced (32.0 KB).
    pub fn m5() -> ShpConfig {
        ShpConfig {
            tables: 16,
            rows: 2048,
            ghist_len: 206,
            phist_len: 100,
            initial_theta: 24,
            bias_scale: 2,
        }
    }

    /// Per-table GHIST interval lengths: a geometric series from 0 to
    /// `ghist_len` (table 0 sees no history — pure PC/bias — like O-GEHL).
    pub fn intervals(&self) -> Vec<usize> {
        let n = self.tables;
        (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    let ratio = (self.ghist_len as f64).powf(i as f64 / (n - 1) as f64);
                    ratio.round() as usize
                }
            })
            .collect()
    }

    /// Storage footprint of the weight tables in bytes (Table II's "SHP"
    /// column counts exactly this).
    pub fn storage_bytes(&self) -> usize {
        self.tables * self.rows
    }
}

/// The sum and metadata produced by a prediction, consumed by the update.
#[derive(Debug, Clone, Copy)]
pub struct ShpPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// The perceptron output (2*bias + Σ weights).
    pub sum: i32,
    /// Row index used in each table (recorded for the update).
    indices: [u16; MAX_TABLES],
    /// Number of valid entries in `indices`.
    n: u8,
}

/// The Scaled Hashed Perceptron predictor.
#[derive(Debug, Clone)]
pub struct Shp {
    cfg: ShpConfig,
    intervals: Vec<usize>,
    /// Per-table PHIST interval lengths, derived from `intervals` at
    /// construction.
    plens: Vec<usize>,
    /// `tables × rows` weights, row-major.
    weights: Vec<i8>,
    /// Adaptive threshold (O-GEHL).
    theta: i32,
    /// Saturating counter steering threshold adaptation.
    theta_ctr: i32,
    idx_bits: u32,
}

impl Shp {
    /// Why [`Shp::new`] would reject `cfg`, if it would. The rows bound
    /// also keeps the history folds ([`ShpHistory`]) at 3..=16 bits.
    pub fn defect(cfg: &ShpConfig) -> Option<String> {
        if !cfg.rows.is_power_of_two() || !(8..=1 << 16).contains(&cfg.rows) {
            Some(format!("{} rows (a power of two in 8..=65536)", cfg.rows))
        } else if !(1..=MAX_TABLES).contains(&cfg.tables) {
            Some(format!("{} tables (1..={MAX_TABLES})", cfg.tables))
        } else {
            None
        }
    }

    /// Build an SHP from `cfg`.
    ///
    /// # Panics
    /// Panics if [`Shp::defect`] rejects `cfg`.
    pub fn new(cfg: ShpConfig) -> Shp {
        let defect = Shp::defect(&cfg);
        assert!(defect.is_none(), "SHP geometry: {defect:?}");
        let intervals = cfg.intervals();
        let plens = intervals
            .iter()
            .map(|&glen| {
                (glen.min(cfg.phist_len) * cfg.phist_len / cfg.ghist_len.max(1))
                    .min(cfg.phist_len)
            })
            .collect();
        let idx_bits = cfg.rows.trailing_zeros();
        Shp {
            weights: vec![0; cfg.tables * cfg.rows],
            intervals,
            plens,
            theta: cfg.initial_theta,
            theta_ctr: 0,
            cfg,
            idx_bits,
        }
    }

    /// Empty speculative histories carrying this SHP's per-table folds:
    /// the only way to build the [`ShpHistory`] that [`Shp::predict`]
    /// reads.
    pub fn history(&self) -> ShpHistory {
        ShpHistory::new(&self.intervals, &self.plens, self.idx_bits)
    }

    /// GHIST interval length per table (table 0 sees none).
    pub fn intervals(&self) -> &[usize] {
        &self.intervals
    }

    /// PHIST interval length per table.
    pub fn phist_lens(&self) -> &[usize] {
        &self.plens
    }

    /// Width of every fold and row index, in bits.
    pub fn index_bits(&self) -> u32 {
        self.idx_bits
    }

    /// The configuration this SHP was built with.
    pub fn config(&self) -> &ShpConfig {
        &self.cfg
    }

    /// Current adaptive threshold.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Fault-injection hook: invert one weight, chosen deterministically
    /// from `salt` (a zero weight flips to full magnitude). A soft error
    /// in the weight array — never detectable, only trainable-away.
    pub fn flip_weight(&mut self, salt: u64) {
        if self.weights.is_empty() {
            return;
        }
        let i = salt as usize % self.weights.len();
        let w = self.weights[i] as i32;
        self.weights[i] = if w == 0 {
            WEIGHT_MAX as i8
        } else {
            (-w).clamp(WEIGHT_MIN, WEIGHT_MAX) as i8
        };
    }

    #[inline]
    fn pc_hash(&self, pc: u64, table: usize) -> u32 {
        // Cheap PC mix, diversified per table.
        let x = (pc >> 2) as u32;
        let t = table as u32;
        (x ^ (x >> self.idx_bits) ^ (x >> (2 * self.idx_bits)))
            .wrapping_mul(0x9E37_79B9)
            .rotate_left(t * 3)
    }

    /// Fill `out[..tables]` with the per-table row indices for `pc`
    /// from the history's folded registers, returning the table count.
    /// Branchless: a zero-length interval folds to 0, so table 0's
    /// pure-PC index needs no special case.
    #[inline]
    fn row_set(&self, pc: u64, hist: &ShpHistory, out: &mut [u16; MAX_TABLES]) -> usize {
        let mask = (self.cfg.rows - 1) as u32;
        let folds = hist.ghist_folds().iter().zip(hist.phist_folds());
        for (t, (slot, (g, p))) in out.iter_mut().zip(folds).enumerate() {
            let h = self.pc_hash(pc, t) ^ u32::from(*g) ^ u32::from(*p).rotate_left(1);
            *slot = (h & mask) as u16;
        }
        self.cfg.tables
    }

    /// Branchless dot product over pre-computed row indices: the
    /// pow2-masked rows make every access `t * rows + idx`, so the
    /// per-table loop is a straight-line gather-and-add the compiler can
    /// unroll and vectorize.
    #[inline]
    fn dot(&self, indices: &[u16; MAX_TABLES], n: usize) -> i32 {
        let rows = self.cfg.rows;
        let mut sum = 0i32;
        for t in 0..n {
            sum += self.weights[t * rows + indices[t] as usize] as i32;
        }
        sum
    }

    /// Predict the direction of the conditional branch at `pc` given the
    /// speculative histories (built by [`Shp::history`]) and the branch's
    /// BTB `bias` weight.
    #[inline]
    pub fn predict(&self, pc: u64, bias: i8, hist: &ShpHistory) -> ShpPrediction {
        debug_assert!(
            hist.built_for(&self.intervals, &self.plens, self.idx_bits),
            "history built for a different SHP geometry"
        );
        let mut indices = [0u16; MAX_TABLES];
        let n = self.row_set(pc, hist, &mut indices);
        let sum = self.cfg.bias_scale * bias as i32 + self.dot(&indices, n);
        ShpPrediction {
            taken: sum >= 0,
            sum,
            indices,
            n: n as u8,
        }
    }

    /// Whether the predictor wants a weight update given the outcome:
    /// update on a mispredict, or when |sum| fails the threshold.
    #[inline]
    pub fn needs_update(&self, pred: &ShpPrediction, taken: bool) -> bool {
        pred.taken != taken || pred.sum.abs() <= self.theta
    }

    /// Train the weight tables toward `taken`, also adapting the threshold
    /// (O-GEHL threshold-fitting), and return the bias adjustment the
    /// caller must apply to the branch's BTB bias weight.
    ///
    /// `always_taken_filtered` implements §IV.A's anti-aliasing rule: when
    /// true (unconditional or so-far-always-taken branches), the weight
    /// tables are left untouched and only the threshold logic runs.
    pub fn update(
        &mut self,
        pred: &ShpPrediction,
        taken: bool,
        always_taken_filtered: bool,
    ) -> i8 {
        let mispredict = pred.taken != taken;
        // O-GEHL adaptive threshold: mispredicts push theta up, low-margin
        // correct predictions push it down.
        if mispredict {
            self.theta_ctr += 1;
            if self.theta_ctr >= 7 {
                self.theta_ctr = 0;
                self.theta = (self.theta + 1).min(255);
            }
        } else if pred.sum.abs() <= self.theta {
            self.theta_ctr -= 1;
            if self.theta_ctr <= -7 {
                self.theta_ctr = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
        if !self.needs_update(pred, taken) {
            return 0;
        }
        let delta: i32 = if taken { 1 } else { -1 };
        if !always_taken_filtered {
            for t in 0..pred.n as usize {
                let w = &mut self.weights[t * self.cfg.rows + pred.indices[t] as usize];
                let nv = (*w as i32 + delta).clamp(WEIGHT_MIN, WEIGHT_MAX);
                *w = nv as i8;
            }
        }
        delta as i8
    }
}

/// Clamp-add a bias delta into a stored i8 bias weight.
#[inline]
pub fn apply_bias_delta(bias: i8, delta: i8) -> i8 {
    (bias as i32 + delta as i32).clamp(WEIGHT_MIN, WEIGHT_MAX) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one branch through the predictor `n` times with a fixed
    /// outcome function; return the mispredict count.
    fn train_run(
        shp: &mut Shp,
        pc: u64,
        n: usize,
        mut outcome: impl FnMut(usize) -> bool,
    ) -> usize {
        let mut h = shp.history();
        let mut bias = 0i8;
        let mut miss = 0;
        for i in 0..n {
            let pred = shp.predict(pc, bias, &h);
            let t = outcome(i);
            if pred.taken != t {
                miss += 1;
            }
            let d = shp.update(&pred, t, false);
            bias = apply_bias_delta(bias, d);
            h.push_outcome(t);
            h.push_path(pc);
        }
        miss
    }

    #[test]
    fn learns_always_taken_quickly() {
        let mut shp = Shp::new(ShpConfig::m1());
        let miss = train_run(&mut shp, 0x4000, 200, |_| true);
        assert!(miss <= 2, "got {miss} mispredicts");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut shp = Shp::new(ShpConfig::m1());
        let miss = train_run(&mut shp, 0x4000, 500, |i| i % 2 == 0);
        assert!(miss < 30, "alternating should be learned, got {miss}");
    }

    #[test]
    fn learns_history_correlated_branch() {
        // Outcome = outcome 4 branches ago: learnable with GHIST >= 4.
        let mut shp = Shp::new(ShpConfig::m1());
        let mut past = vec![true; 8];
        let miss = train_run(&mut shp, 0x4000, 2000, move |i| {
            let t = if i < 4 { i % 3 == 0 } else { past[(i - 4) % 8] };
            past[i % 8] = t;
            t
        });
        assert!(
            (miss as f64) < 2000.0 * 0.10,
            "history-correlated branch should be <10% mispredicted, got {miss}"
        );
    }

    #[test]
    fn random_branch_is_hard() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut shp = Shp::new(ShpConfig::m1());
        let miss = train_run(&mut shp, 0x4000, 2000, move |_| rng.gen_bool(0.5));
        assert!(
            miss > 600,
            "random outcomes can't be predicted well, got {miss}/2000"
        );
    }

    #[test]
    fn m5_config_has_more_storage() {
        assert_eq!(ShpConfig::m1().storage_bytes(), 8 * 1024);
        assert_eq!(ShpConfig::m3().storage_bytes(), 16 * 1024);
        assert_eq!(ShpConfig::m5().storage_bytes(), 32 * 1024);
    }

    #[test]
    fn intervals_are_monotone_and_span_full_history() {
        for cfg in [ShpConfig::m1(), ShpConfig::m3(), ShpConfig::m5()] {
            let iv = cfg.intervals();
            assert_eq!(iv[0], 0);
            assert_eq!(*iv.last().unwrap(), cfg.ghist_len);
            for w in iv.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn threshold_adapts_upward_under_mispredicts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut shp = Shp::new(ShpConfig::m1());
        let theta0 = shp.theta();
        let _ = train_run(&mut shp, 0x4000, 3000, move |_| rng.gen_bool(0.5));
        assert!(shp.theta() > theta0, "theta should rise on noisy branches");
    }

    #[test]
    fn always_taken_filter_leaves_weights_untouched() {
        let mut shp = Shp::new(ShpConfig::m1());
        let h = shp.history();
        let before = shp.weights.clone();
        let pred = shp.predict(0x4000, 0, &h);
        let d = shp.update(&pred, true, true);
        assert_eq!(shp.weights, before);
        // Bias still trains.
        assert_eq!(d, 1);
    }

    #[test]
    fn bias_scaling_doubles_bias_contribution() {
        let shp = Shp::new(ShpConfig::m1());
        let h = shp.history();
        let a = shp.predict(0x4000, 10, &h);
        let b = shp.predict(0x4000, 11, &h);
        assert_eq!(b.sum - a.sum, 2);
    }

    #[test]
    fn weights_saturate() {
        let mut shp = Shp::new(ShpConfig::m1());
        let _ = train_run(&mut shp, 0x4000, 2000, |_| true);
        assert!(shp.weights.iter().all(|&w| (w as i32) <= WEIGHT_MAX));
        assert_eq!(apply_bias_delta(127, 1), 127);
        assert_eq!(apply_bias_delta(-127, -1), -127);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { Shp [tags::SHP] { weights: Fixed("shp weight table"), theta, theta_ctr } }
}
