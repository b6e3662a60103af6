//! Property tests over the branch-prediction structures.

use exynos_branch::btb::{BtbConfig, BtbEntry, BtbHierarchy};
use exynos_branch::config::FrontendConfig;
use exynos_branch::frontend::FrontEnd;
use exynos_branch::history::{GlobalHistory, ShpHistory};
use exynos_branch::ras::Ras;
use exynos_branch::shp::{apply_bias_delta, Shp, ShpConfig, WEIGHT_MAX, WEIGHT_MIN};
use exynos_secure::context::{compute_context_hash, ContextId, EntropySources};
use exynos_snapshot::{Decoder, Encoder, Snapshot};
use exynos_trace::gen::web::{WebParams, WebWorkload};
use exynos_trace::{BranchKind, TraceGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SHP predictions stay within the mathematically possible sum range
    /// and bias deltas never overflow, under arbitrary training.
    #[test]
    fn shp_sum_bounded_under_random_training(
        outcomes in prop::collection::vec(any::<bool>(), 200),
        pcs in prop::collection::vec(0u64..4096, 200),
    ) {
        let mut shp = Shp::new(ShpConfig::m1());
        let h = shp.history();
        let mut bias = 0i8;
        let bound = 2 * 127 + 8 * 127; // bias_scale*|bias|max + tables*|w|max
        for (t, pc) in outcomes.iter().zip(&pcs) {
            let pred = shp.predict(*pc * 4, bias, &h);
            prop_assert!(pred.sum.abs() <= bound, "sum {} out of range", pred.sum);
            let d = shp.update(&pred, *t, false);
            bias = apply_bias_delta(bias, d);
            prop_assert!((WEIGHT_MIN..=WEIGHT_MAX).contains(&(bias as i32)));
        }
    }

    /// A RAS with capacity >= depth of nesting behaves exactly like a
    /// software stack (LIFO), including across arbitrary push/pop mixes.
    #[test]
    fn ras_matches_reference_stack(ops in prop::collection::vec(any::<Option<u16>>(), 120)) {
        let sources = EntropySources::from_seed(5);
        let key = compute_context_hash(&sources, ContextId::user(1, 0));
        let mut ras = Ras::new(256, key);
        let mut reference: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(addr) => {
                    let a = addr as u64 * 4;
                    ras.push(a);
                    reference.push(a);
                }
                None => {
                    let got = ras.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(ras.depth(), reference.len());
        prop_assert_eq!(ras.stats().overflows, 0);
    }

    /// The BTB hierarchy never stores duplicate PCs within a level and its
    /// occupancy never exceeds the configured capacities.
    #[test]
    fn btb_occupancy_bounded(pcs in prop::collection::vec(0u64..100_000, 400)) {
        let cfg = BtbConfig {
            mbtb_lines: 32,
            mbtb_ways: 4,
            vbtb_entries: 32,
            vbtb_ways: 4,
            l2btb_entries: 256,
            l2btb_ways: 4,
            l2_fill_latency: 4,
            l2_fill_bandwidth: 1,
        };
        let mut b = BtbHierarchy::new(cfg);
        for pc in pcs {
            let pc = pc * 4;
            let _ = b.lookup(pc);
            b.install(BtbEntry::discover(pc, pc + 64, BranchKind::CondDirect, true));
            let (m, v, l2) = b.occupancy();
            prop_assert!(m <= 32 * 8, "mBTB overflow: {m}");
            prop_assert!(v <= 32, "vBTB overflow: {v}");
            prop_assert!(l2 <= 256, "L2BTB overflow: {l2}");
        }
    }

    /// After installing a branch, looking it up immediately returns the
    /// installed target (through any level).
    #[test]
    fn btb_install_then_lookup(pcs in prop::collection::vec(0u64..10_000, 100)) {
        let cfg = BtbConfig {
            mbtb_lines: 64,
            mbtb_ways: 4,
            vbtb_entries: 64,
            vbtb_ways: 4,
            l2btb_entries: 1024,
            l2btb_ways: 4,
            l2_fill_latency: 4,
            l2_fill_bandwidth: 1,
        };
        let mut b = BtbHierarchy::new(cfg);
        for pc in &pcs {
            let pc = pc * 4;
            b.install(BtbEntry::discover(pc, pc ^ 0xF00, BranchKind::CondDirect, true));
            let got = b.lookup(pc).unwrap();
            prop_assert!(got.is_some(), "freshly installed branch must be found");
            prop_assert_eq!(got.unwrap().0.target, pc ^ 0xF00);
        }
    }

    /// The assembled front end never panics and keeps its statistics
    /// internally consistent on arbitrary web workloads.
    #[test]
    fn frontend_stats_consistent(seed in 0u64..500, functions in 3usize..60) {
        let mut fe = FrontEnd::new(FrontendConfig::m5());
        let mut gen = WebWorkload::new(
            &WebParams {
                functions,
                dispatch_targets: (functions - 1).min(8),
                ..Default::default()
            },
            30,
            seed,
        );
        prop_assert!(fe.run(&mut gen, 5_000).is_ok());
        let s = fe.stats();
        prop_assert!(s.branches <= s.instructions);
        prop_assert!(s.cond_branches <= s.branches);
        prop_assert!(s.taken_branches <= s.branches);
        prop_assert!(s.cond_mispredicts <= s.cond_branches);
        prop_assert!(s.total_mispredicts() <= s.branches + s.discoveries);
        prop_assert!(s.mpki() >= 0.0 && s.mpki() <= 1000.0);
    }

    /// Global-history folding is a pure function of the covered interval.
    #[test]
    fn ghist_fold_pure(bits in prop::collection::vec(any::<bool>(), 64), len in 1usize..64, out in 1u32..20) {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        // b gets extra old history first.
        b.push(true);
        b.push(false);
        b.push(true);
        for &x in &bits {
            a.push(x);
            b.push(x);
        }
        let la = a.fold(len.min(bits.len()), out);
        let lb = b.fold(len.min(bits.len()), out);
        prop_assert_eq!(la, lb, "fold must depend only on the newest `len` bits");
        prop_assert!(la < (1 << out));
    }

    /// Every incremental fold equals the from-scratch `fold()` of its
    /// interval after every push, on the M1, M3 and M5 geometries, the
    /// Fig. 1 GHIST-length sweep and three more index widths, under
    /// interleaved outcome and path pushes and VPC-style clone-then-push
    /// walks.
    #[test]
    fn incremental_folds_match_refold(ops in prop::collection::vec((0u8..4, 0u64..1 << 20), 400)) {
        for cfg in fold_geometries() {
            let shp = Shp::new(cfg);
            let mut h = shp.history();
            for &(op, x) in &ops {
                match op {
                    0 => {
                        h.push_outcome(x & 1 == 1);
                        check_folds(&shp, &h)?;
                    }
                    1 => {
                        h.push_path(x);
                        check_folds(&shp, &h)?;
                    }
                    2 => {
                        h.push_outcome(x & 2 == 2);
                        h.push_path(x);
                        check_folds(&shp, &h)?;
                    }
                    _ => {
                        // The indirect predictor's walk: pushes into a
                        // clone never disturb the history it came from.
                        let before = h.clone();
                        let mut v = h.clone();
                        for i in 0..x % 6 {
                            v.push_outcome(false);
                            check_folds(&shp, &v)?;
                            v.push_path(x ^ (i << 2));
                            check_folds(&shp, &v)?;
                        }
                        prop_assert_eq!(&h, &before);
                        h = v;
                    }
                }
            }
        }
    }
}

/// SHP geometries whose folds the property above checks.
fn fold_geometries() -> Vec<ShpConfig> {
    let mut cfgs = vec![ShpConfig::m1(), ShpConfig::m3(), ShpConfig::m5()];
    // The Fig. 1 sweep (its 0-bit point builds a 1-bit SHP).
    for len in [0usize, 8, 16, 32, 48, 64, 96, 128, 165, 206] {
        cfgs.push(ShpConfig { ghist_len: len.max(1), ..ShpConfig::m1() });
    }
    // The aliasing ablation's 256 rows, and the narrowest and widest
    // index widths an SHP accepts (3 and 16 bits).
    for rows in [256, 8, 1 << 16] {
        cfgs.push(ShpConfig { rows, ..ShpConfig::m1() });
    }
    cfgs
}

/// Each table's folds against a from-scratch fold of its intervals.
fn check_folds(shp: &Shp, h: &ShpHistory) -> Result<(), TestCaseError> {
    let w = shp.index_bits();
    prop_assert_eq!(h.ghist_folds().len(), shp.intervals().len());
    for (t, (&glen, &plen)) in shp.intervals().iter().zip(shp.phist_lens()).enumerate() {
        prop_assert_eq!(u32::from(h.ghist_folds()[t]), h.ghist().fold(glen, w), "ghist fold, table {}", t);
        prop_assert_eq!(u32::from(h.phist_folds()[t]), h.phist().fold(plen, w), "phist fold, table {}", t);
    }
    Ok(())
}

/// A front end restored from a mid-stream snapshot carries the live one's
/// folds and steps on bit-identically.
#[test]
fn restored_frontend_carries_the_live_folds() {
    for (g, cfg) in FrontendConfig::all_generations().into_iter().enumerate() {
        let name = format!("M{}", g + 1);
        let mut gen = WebWorkload::new(&WebParams::default(), 30, 11);
        let mut live = FrontEnd::new(cfg.clone());
        live.run(&mut gen, 20_000).unwrap();
        let mut enc = Encoder::new();
        live.save(&mut enc);
        let image = enc.finish();
        let mut restored = FrontEnd::new(cfg.clone());
        let mut dec = Decoder::new(&image);
        restored.restore(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored.shp_history(), live.shp_history(), "gen {name}");
        let shp = Shp::new(cfg.shp.clone());
        check_folds(&shp, restored.shp_history()).unwrap();
        for i in 0..20_000 {
            let inst = gen.next_inst();
            let a = live.on_inst(&inst).unwrap();
            let b = restored.on_inst(&inst).unwrap();
            assert_eq!(a, b, "gen {name} diverged at instruction {i}");
        }
        assert_eq!(restored.shp_history(), live.shp_history(), "gen {name}");
        let (mut ea, mut eb) = (Encoder::new(), Encoder::new());
        live.save(&mut ea);
        restored.save(&mut eb);
        assert!(ea.finish() == eb.finish(), "gen {name}: states differ after stepping");
    }
}
