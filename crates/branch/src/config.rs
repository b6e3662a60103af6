//! Per-generation front-end configurations (M1–M6).
//!
//! Geometry follows Table I/II and the §IV narrative: M3 widened the
//! machine and doubled SHP rows and L2BTB capacity, M4 doubled the L2BTB
//! again with lower fill latency and 2× fill bandwidth, M5 added ZAT/ZOT,
//! the Empty-Line Optimization, the MRB and the 16-table SHP, and M6 grew
//! the mBTB by 50%, doubled the L2BTB and added the indirect hash table.

use crate::btb::{BtbConfig, BtbHierarchy};
use crate::indirect::{IndirectConfig, IndirectPredictor};
use crate::mrb::Mrb;
use crate::ras::Ras;
use crate::shp::{Shp, ShpConfig};
use crate::ubtb::{MicroBtb, UbtbConfig};

/// Complete configuration of one generation's branch-prediction front end.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Conditional predictor geometry.
    pub shp: ShpConfig,
    /// µBTB geometry.
    pub ubtb: UbtbConfig,
    /// BTB hierarchy geometry.
    pub btb: BtbConfig,
    /// Indirect predictor behaviour.
    pub indirect: IndirectConfig,
    /// Indirect chain storage (vBTB share), in branches.
    pub indirect_chains: usize,
    /// RAS entries.
    pub ras_entries: usize,
    /// Bubbles for a taken branch predicted from the mBTB.
    pub taken_bubbles: u32,
    /// M3+: always-taken branches redirect one cycle earlier (1AT).
    pub one_bubble_at: bool,
    /// M5+: zero-bubble always/often-taken via target replication
    /// (ZAT/ZOT).
    pub zero_bubble_atot: bool,
    /// M5+: Empty Line Optimization (power/lookup-skip for branchless
    /// lines).
    pub empty_line_opt: bool,
    /// M5+: Mispredict Recovery Buffer capacity (None = absent).
    pub mrb_entries: Option<usize>,
    /// §V: encrypt indirect/RAS targets with CONTEXT_HASH.
    pub encrypt_targets: bool,
    /// §IV.A anti-aliasing: always-taken branches do not update the SHP
    /// weight tables (true in every shipped generation; ablation knob).
    pub at_filter: bool,
}

impl FrontendConfig {
    /// M1 (14nm, 2016): SHP 8×1K, µBTB, full VPC, 4-wide.
    pub fn m1() -> FrontendConfig {
        FrontendConfig {
            shp: ShpConfig::m1(),
            ubtb: UbtbConfig::m1(),
            btb: BtbConfig {
                mbtb_lines: 512,
                mbtb_ways: 4,
                vbtb_entries: 1024,
                vbtb_ways: 4,
                l2btb_entries: 8192,
                l2btb_ways: 4,
                l2_fill_latency: 5,
                l2_fill_bandwidth: 1,
            },
            indirect: IndirectConfig::full_vpc(),
            indirect_chains: 128,
            ras_entries: 32,
            taken_bubbles: 2,
            one_bubble_at: false,
            zero_bubble_atot: false,
            empty_line_opt: false,
            mrb_entries: None,
            encrypt_targets: false,
            at_filter: true,
        }
    }

    /// M2 (10nm): no significant branch-prediction changes over M1 (§IV.B).
    pub fn m2() -> FrontendConfig {
        FrontendConfig::m1()
    }

    /// M3 (10nm, 6-wide): µBTB doubled (uncond-only entries), 1AT early
    /// redirect, SHP rows doubled, L2BTB doubled.
    pub fn m3() -> FrontendConfig {
        FrontendConfig {
            shp: ShpConfig::m3(),
            ubtb: UbtbConfig::m3(),
            btb: BtbConfig {
                mbtb_lines: 768,
                mbtb_ways: 4,
                vbtb_entries: 1024,
                vbtb_ways: 4,
                l2btb_entries: 16384,
                l2btb_ways: 4,
                l2_fill_latency: 5,
                l2_fill_bandwidth: 1,
            },
            one_bubble_at: true,
            ..FrontendConfig::m1()
        }
    }

    /// M4 (8nm): L2BTB doubled again, fill latency reduced, fill bandwidth
    /// doubled (§IV.D); Spectre mitigations productized (§V).
    pub fn m4() -> FrontendConfig {
        let mut c = FrontendConfig::m3();
        c.btb.l2btb_entries = 32768;
        c.btb.l2_fill_latency = 3;
        c.btb.l2_fill_bandwidth = 2;
        c.encrypt_targets = true;
        c
    }

    /// M5 (7nm): ZAT/ZOT replication, Empty-Line Optimization, smaller
    /// µBTB, 16×2K SHP with 25% longer GHIST, MRB (§IV.E).
    pub fn m5() -> FrontendConfig {
        let mut c = FrontendConfig::m4();
        c.shp = ShpConfig::m5();
        c.ubtb = UbtbConfig::m5();
        c.zero_bubble_atot = true;
        c.empty_line_opt = true;
        c.mrb_entries = Some(32);
        c
    }

    /// M6 (5nm, 8-wide): mBTB +50%, L2BTB doubled, hybrid VPC + indirect
    /// hash table (§IV.F).
    pub fn m6() -> FrontendConfig {
        let mut c = FrontendConfig::m5();
        c.btb.mbtb_lines = 1152;
        c.btb.l2btb_entries = 65536;
        c.indirect = IndirectConfig::m6_hybrid();
        c.indirect_chains = 192;
        c
    }

    /// The first field whose geometry a component constructor would
    /// reject, named as a `frontend.*` path, with the reason. `None` means
    /// [`crate::FrontEnd::new`] builds without panicking.
    pub fn defect(&self) -> Option<(&'static str, String)> {
        let checks = [
            ("frontend.shp", Shp::defect(&self.shp)),
            ("frontend.ubtb", MicroBtb::defect(&self.ubtb)),
            ("frontend.btb", BtbHierarchy::defect(&self.btb)),
            ("frontend.indirect", IndirectPredictor::defect(&self.indirect, self.indirect_chains)),
            ("frontend.ras_entries", Ras::defect(self.ras_entries)),
            ("frontend.mrb_entries", self.mrb_entries.and_then(Mrb::defect)),
        ];
        checks.into_iter().find_map(|(param, defect)| Some((param, defect?)))
    }

    /// All six generations in order.
    pub fn all_generations() -> Vec<FrontendConfig> {
        vec![
            FrontendConfig::m1(),
            FrontendConfig::m2(),
            FrontendConfig::m3(),
            FrontendConfig::m4(),
            FrontendConfig::m5(),
            FrontendConfig::m6(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_monotone_in_l2btb() {
        let gens = FrontendConfig::all_generations();
        for w in gens.windows(2) {
            assert!(w[0].btb.l2btb_entries <= w[1].btb.l2btb_entries);
        }
    }

    #[test]
    fn m2_matches_m1() {
        assert_eq!(FrontendConfig::m2(), FrontendConfig::m1());
    }

    #[test]
    fn feature_introduction_order() {
        assert!(!FrontendConfig::m1().one_bubble_at);
        assert!(FrontendConfig::m3().one_bubble_at);
        assert!(!FrontendConfig::m4().zero_bubble_atot);
        assert!(FrontendConfig::m5().zero_bubble_atot);
        assert!(FrontendConfig::m5().mrb_entries.is_some());
        assert!(FrontendConfig::m6().indirect.hash_table.is_some());
        assert!(FrontendConfig::m5().indirect.hash_table.is_none());
    }

    #[test]
    fn m6_mbtb_is_50_percent_larger() {
        assert_eq!(
            FrontendConfig::m6().btb.mbtb_lines,
            FrontendConfig::m5().btb.mbtb_lines * 3 / 2
        );
    }
}
