//! Branch-predictor storage accounting (Table II).
//!
//! Computes the bit budget of the SHP, L1 BTBs (µBTB + mBTB + vBTB + RAS)
//! and L2BTB from the actual structure geometry of each generation's
//! [`FrontendConfig`]. The paper's Table II (in KB):
//!
//! | Gen   | SHP  | L1BTBs | L2BTB | Total |
//! |-------|------|--------|-------|-------|
//! | M1/M2 | 8.0  | 32.5   | 58.4  | 98.9  |
//! | M3    | 16.0 | 49.0   | 110.8 | 175.8 |
//! | M4    | 16.0 | 50.5   | 221.5 | 288.0 |
//! | M5    | 32.0 | 53.3   | 225.5 | 310.8 |
//! | M6    | 32.0 | 78.5   | 451.0 | 561.5 |

use crate::btb::BtbConfig;
use crate::config::FrontendConfig;

/// Bits per mBTB/vBTB entry: partial tag(10) + target offset(25) + bias(8)
/// + kind(3) + AT/OT(5) + valid(1).
pub const L1_ENTRY_BITS: usize = 52;
/// Bits per L2BTB entry: the L2BTB "uses a slower denser macro as part of a
/// latency/area tradeoff" and stores a compressed payload.
pub const L2_ENTRY_BITS: usize = 56;
/// Bits per µBTB node: tag + target + edges + local history + LHP metadata.
pub const UBTB_NODE_BITS: usize = 96;
/// Bits per RAS entry (48-bit VA + metadata).
pub const RAS_ENTRY_BITS: usize = 49;

/// One generation's storage budget in KiB, by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageBudget {
    /// SHP weight tables.
    pub shp_kb: f64,
    /// L1 BTB structures (µBTB + mBTB + vBTB + RAS + replication state).
    pub l1btb_kb: f64,
    /// L2BTB.
    pub l2btb_kb: f64,
}

impl StorageBudget {
    /// Total KiB.
    pub fn total_kb(&self) -> f64 {
        self.shp_kb + self.l1btb_kb + self.l2btb_kb
    }
}

/// Compute the storage budget of a generation from its geometry.
pub fn storage_budget(cfg: &FrontendConfig) -> StorageBudget {
    let kb = |bits: usize| bits as f64 / 8.0 / 1024.0;
    let shp_kb = kb(cfg.shp.storage_bytes() * 8);
    let mbtb_bits = cfg.btb.mbtb_lines * BtbConfig::SLOTS_PER_LINE * L1_ENTRY_BITS;
    let vbtb_bits = cfg.btb.vbtb_entries * L1_ENTRY_BITS;
    let ubtb_bits = cfg.ubtb.total_nodes() * UBTB_NODE_BITS + cfg.ubtb.lhp_rows * 8;
    let ras_bits = cfg.ras_entries * RAS_ENTRY_BITS;
    // ZAT/ZOT replication adds a (pc, target) pair to a fraction of mBTB
    // entries; MRB adds 3 addresses per entry.
    let replication_bits = if cfg.zero_bubble_atot {
        cfg.btb.mbtb_lines * BtbConfig::SLOTS_PER_LINE / 8 * 76
    } else {
        0
    };
    let mrb_bits = cfg.mrb_entries.unwrap_or(0) * (48 + 3 * 48);
    let elo_bits = if cfg.empty_line_opt { 4096 } else { 0 };
    // M6's dedicated indirect hash table is part of the L1 budget.
    let ihash_bits = cfg
        .indirect
        .hash_table
        .as_ref()
        .map(|h| h.entries * (14 + 28))
        .unwrap_or(0);
    let l1btb_kb = kb(mbtb_bits + vbtb_bits + ubtb_bits + ras_bits + replication_bits + mrb_bits + elo_bits + ihash_bits);
    let l2btb_kb = kb(cfg.btb.l2btb_entries * L2_ENTRY_BITS);
    StorageBudget {
        shp_kb,
        l1btb_kb,
        l2btb_kb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table II values (KB), by generation index (0 = M1); M2
    /// shares M1's predictor and is not a row of its own.
    const PAPER: [(usize, f64, f64, f64); 5] = [
        (0, 8.0, 32.5, 58.4),
        (2, 16.0, 49.0, 110.8),
        (3, 16.0, 50.5, 221.5),
        (4, 32.0, 53.3, 225.5),
        (5, 32.0, 78.5, 451.0),
    ];

    fn budget(gen: usize) -> StorageBudget {
        storage_budget(&FrontendConfig::all_generations()[gen])
    }

    #[test]
    fn shp_storage_matches_paper_exactly() {
        for (g, shp, _, _) in PAPER {
            let b = budget(g);
            assert!((b.shp_kb - shp).abs() < 1e-9, "M{}: shp {} vs paper {shp}", g + 1, b.shp_kb);
        }
    }

    #[test]
    fn l1_and_l2_storage_within_20_percent_of_paper() {
        for (g, _, l1, l2) in PAPER {
            let b = budget(g);
            let l1_err = (b.l1btb_kb - l1).abs() / l1;
            let l2_err = (b.l2btb_kb - l2).abs() / l2;
            assert!(l1_err < 0.20, "M{}: L1 {:.1} vs paper {l1} ({l1_err:.2})", g + 1, b.l1btb_kb);
            assert!(l2_err < 0.20, "M{}: L2 {:.1} vs paper {l2} ({l2_err:.2})", g + 1, b.l2btb_kb);
        }
    }

    /// EXPERIMENTS.md's Table II "total" column (KB), M1..M6, which
    /// `harness table2` prints to one decimal.
    #[test]
    fn totals_match_experiments_table() {
        for (g, total) in [97.7, 97.7, 175.4, 287.4, 311.3, 568.8].into_iter().enumerate() {
            let b = budget(g);
            assert!((b.total_kb() - total).abs() <= 0.05, "M{}: total {:.3} vs table {total}", g + 1, b.total_kb());
        }
    }

    #[test]
    fn totals_grow_monotonically() {
        let gens = FrontendConfig::all_generations();
        let totals: Vec<f64> = gens.iter().map(|c| storage_budget(c).total_kb()).collect();
        for w in totals.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "storage must grow: {w:?}");
        }
    }
}
