//! Cross-generation front-end integration tests: the properties Fig. 9 and
//! §IV of the paper claim must emerge from the assembled predictor.

use exynos_branch::config::FrontendConfig;
use exynos_branch::frontend::{FrontEnd, Redirect};
use exynos_branch::PredictorError;
use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
use exynos_trace::gen::markov::{MarkovBranches, MarkovParams};
use exynos_trace::gen::web::{WebParams, WebWorkload};
use exynos_trace::{BoxedGen, TraceGen};

fn mpki_on(cfg: FrontendConfig, mut gen: BoxedGen, warmup: u64, detail: u64) -> f64 {
    let mut fe = FrontEnd::new(cfg);
    fe.run(&mut *gen, warmup).unwrap();
    let before = *fe.stats();
    fe.run(&mut *gen, detail).unwrap();
    fe.stats().delta(&before).mpki()
}

fn web_gen(seed: u64) -> BoxedGen {
    Box::new(WebWorkload::new(
        &WebParams {
            functions: 300,
            dispatch_targets: 64,
            ..Default::default()
        },
        40,
        seed,
    ))
}

fn markov_gen(depth: u32, seed: u64) -> BoxedGen {
    Box::new(MarkovBranches::new(
        &MarkovParams {
            sites: 96,
            history_depth: depth,
            noise: 0.01,
            ..Default::default()
        },
        41,
        seed,
    ))
}

#[test]
fn loop_kernel_is_near_perfect_on_every_generation() {
    for (g, cfg) in FrontendConfig::all_generations().into_iter().enumerate() {
        let gen: BoxedGen = Box::new(LoopNest::new(&LoopNestParams::default(), 42, 7));
        let mpki = mpki_on(cfg, gen, 5_000, 30_000);
        assert!(mpki < 2.0, "M{}: loop kernel MPKI {mpki}", g + 1);
    }
}

#[test]
fn flush_keeps_every_components_stats() {
    let mut fe = FrontEnd::new(FrontendConfig::m6());
    // Web code trains the BTB, the indirect predictor and the MRB; a
    // loop kernel then locks the µBTB.
    fe.run(&mut *web_gen(3), 20_000).unwrap();
    fe.run(&mut LoopNest::new(&LoopNestParams::default(), 42, 7), 9_000).unwrap();
    let stats = |fe: &FrontEnd| {
        let s = (fe.ubtb_stats(), fe.btb_stats(), fe.ras_stats(), fe.indirect_stats(), fe.mrb_stats());
        (format!("{:?}", fe.stats()), s)
    };
    let before = stats(&fe);
    let (_, (ubtb, btb, _, indirect, mrb)) = before;
    assert!(ubtb.locked_predictions > 0 && btb.main_hits > 0, "{before:?}");
    assert!(indirect.lookups > 0 && mrb.hits + mrb.misses > 0, "{before:?}");
    fe.flush_predictors();
    assert_eq!(stats(&fe), before, "a flush must not reset a component's run counters");
}

#[test]
fn m6_beats_m1_on_web_workload() {
    let m1 = mpki_on(FrontendConfig::m1(), web_gen(3), 30_000, 120_000);
    let m6 = mpki_on(FrontendConfig::m6(), web_gen(3), 30_000, 120_000);
    assert!(
        m6 < m1 * 0.9,
        "M6 must clearly beat M1 on web-like code: {m6:.2} vs {m1:.2}"
    );
}

#[test]
fn m5_beats_m1_on_deep_history_branches() {
    // History depth 40 exceeds nothing (both cover it), but the 16-table
    // SHP with longer GHIST should still win via less aliasing.
    let m1 = mpki_on(FrontendConfig::m1(), markov_gen(48, 5), 30_000, 120_000);
    let m5 = mpki_on(FrontendConfig::m5(), markov_gen(48, 5), 30_000, 120_000);
    assert!(
        m5 < m1,
        "M5 SHP must beat M1 on deep-history branches: {m5:.2} vs {m1:.2}"
    );
}

#[test]
fn generational_mpki_is_monotone_down_on_mixed_suite() {
    // Average over three behaviour classes; the cross-generation trend of
    // Fig. 9 (3.62 -> 2.54 average MPKI) must be monotone non-increasing
    // modulo small noise.
    let gens = FrontendConfig::all_generations();
    let mut avgs = Vec::new();
    for (g, cfg) in gens.into_iter().enumerate() {
        let name = format!("M{}", g + 1);
        let mut total = 0.0;
        total += mpki_on(cfg.clone(), web_gen(11), 20_000, 80_000);
        total += mpki_on(cfg.clone(), markov_gen(32, 13), 20_000, 80_000);
        total += mpki_on(
            cfg,
            Box::new(LoopNest::new(&LoopNestParams::default(), 42, 7)),
            20_000,
            80_000,
        );
        avgs.push((name, total / 3.0));
    }
    let m1 = avgs[0].1;
    let m6 = avgs[5].1;
    assert!(
        m6 < m1 * 0.85,
        "M6 must reduce average MPKI over M1 by >15%: {avgs:?}"
    );
    // Every generation at least doesn't regress badly vs its predecessor.
    for w in avgs.windows(2) {
        assert!(
            w[1].1 <= w[0].1 * 1.10,
            "{} regressed vs {}: {avgs:?}",
            w[1].0,
            w[0].0
        );
    }
}

#[test]
fn trace_gap_reports_redirect() {
    let mut fe = FrontEnd::new(FrontendConfig::m3());
    let mut gen = LoopNest::new(&LoopNestParams::default(), 42, 7);
    let first = gen.next_inst();
    fe.on_inst(&first).unwrap();
    // Jump to a wildly different PC without a branch.
    let mut far = gen.next_inst();
    far.pc += 0x100_0000;
    let fb = fe.on_inst(&far).unwrap();
    assert_eq!(fb.redirect, Some(Redirect::TraceGap));
}

#[test]
fn zat_zot_produces_zero_bubble_redirects_on_m5() {
    // Small basic blocks with always-taken branches: M5's replication must
    // fire; M4 (no ZAT/ZOT) must not.
    let mk = || -> BoxedGen {
        Box::new(LoopNest::new(
            &LoopNestParams {
                depth: 3,
                trip_counts: vec![4, 4, 4096],
                body_len: 3,
                loads_per_body: 0,
                stores_per_body: 0,
                ..Default::default()
            },
            43,
            9,
        ))
    };
    let mut m5 = FrontEnd::new(FrontendConfig::m5());
    m5.run(&mut *mk(), 60_000).unwrap();
    assert!(
        m5.stats().zat_zot_zero_bubble > 0 || m5.stats().ubtb_zero_bubble > 0,
        "M5 must serve zero-bubble taken redirects"
    );
    let mut m4 = FrontEnd::new(FrontendConfig::m4());
    m4.run(&mut *mk(), 60_000).unwrap();
    assert_eq!(m4.stats().zat_zot_zero_bubble, 0);
}

#[test]
fn m5_taken_bubbles_not_worse_than_m3() {
    // ZAT/ZOT + µBTB should give M5 no more bubbles per taken branch than
    // M3 on branchy code.
    let bubbles_per_taken = |cfg: FrontendConfig| -> f64 {
        let mut fe = FrontEnd::new(cfg);
        let mut g = web_gen(17);
        fe.run(&mut *g, 150_000).unwrap();
        fe.stats().bubbles as f64 / fe.stats().taken_branches as f64
    };
    let m3 = bubbles_per_taken(FrontendConfig::m3());
    let m5 = bubbles_per_taken(FrontendConfig::m5());
    assert!(m5 <= m3 * 1.05, "M5 {m5:.3} vs M3 {m3:.3} bubbles/taken");
}

#[test]
fn branch_pair_stats_have_all_three_classes() {
    let mut fe = FrontEnd::new(FrontendConfig::m1());
    let mut g = web_gen(23);
    fe.run(&mut *g, 100_000).unwrap();
    let s = fe.stats();
    assert!(s.pair_lead_taken > 0);
    assert!(s.pair_second_taken > 0);
    assert!(s.pair_both_not_taken > 0);
    // Lead-taken must dominate, as in the paper's 60/24/16 split.
    assert!(s.pair_lead_taken > s.pair_second_taken);
}

#[test]
fn mrb_covers_refills_on_m5() {
    // Low-confidence branch followed by a run of small taken blocks: the
    // MRB should cover some post-mispredict redirects.
    let mut fe = FrontEnd::new(FrontendConfig::m5());
    let mut g = markov_gen(8, 29);
    fe.run(&mut *g, 200_000).unwrap();
    assert!(
        fe.stats().mrb_covered > 0,
        "MRB must cover some post-mispredict refills: {:?}",
        fe.mrb_stats()
    );
}

#[test]
fn empty_line_optimization_only_on_m5_plus() {
    let mk = || -> BoxedGen {
        Box::new(LoopNest::new(
            &LoopNestParams {
                depth: 1,
                trip_counts: vec![1_000_000],
                body_len: 96, // several branch-free 128 B lines per iteration
                loads_per_body: 4,
                stores_per_body: 0,
                ..Default::default()
            },
            44,
            3,
        ))
    };
    let mut m5 = FrontEnd::new(FrontendConfig::m5());
    m5.run(&mut *mk(), 50_000).unwrap();
    assert!(m5.stats().elo_skipped_lookups > 0, "ELO must kick in on M5");
    let mut m4 = FrontEnd::new(FrontendConfig::m4());
    m4.run(&mut *mk(), 50_000).unwrap();
    assert_eq!(m4.stats().elo_skipped_lookups, 0);
}

#[test]
fn shp_gated_under_ubtb_lock() {
    // On a tiny lockable kernel, SHP lookups must be far fewer than
    // conditional branches (power saving under lock).
    let mut fe = FrontEnd::new(FrontendConfig::m1());
    let mut g = LoopNest::new(
        &LoopNestParams {
            depth: 1,
            trip_counts: vec![64],
            body_len: 4,
            loads_per_body: 1,
            stores_per_body: 0,
            ..Default::default()
        },
        45,
        5,
    );
    fe.run(&mut g, 100_000).unwrap();
    let s = fe.stats();
    assert!(
        s.shp_lookups < s.cond_branches / 2,
        "lock must gate most SHP lookups: {} of {}",
        s.shp_lookups,
        s.cond_branches
    );
}

#[test]
fn run_returns_the_first_predictor_error() {
    let mut fe = FrontEnd::new(FrontendConfig::m1());
    let mut g = markov_gen(8, 31);
    fe.run(&mut *g, 20_000).unwrap();
    assert!(fe.corrupt_btb_tag(3), "a trained mBTB holds entries");
    let err = fe.run(&mut *g, 100_000).unwrap_err();
    assert!(matches!(err, PredictorError::BtbTagMismatch { .. }), "{err}");
    // The run stops at the failing record instead of stepping past it.
    assert!(fe.stats().instructions < 120_000, "{}", fe.stats().instructions);
}
