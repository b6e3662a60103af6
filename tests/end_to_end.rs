//! End-to-end integration tests spanning every crate through the facade.

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::core::fault::FaultPlan;
use exynos::secure::context::ContextId;
use exynos::trace::gen::web::{WebParams, WebWorkload};
use exynos::trace::{standard_suite, SlicePlan};

#[test]
fn slice_result_covers_the_detail_window_only() {
    // Every counter block of the record excludes the warmup, so the front
    // end and the core agree on the window's instruction count, also
    // when injected corruption flushes the predictors mid-window.
    let slice = &standard_suite(1)[0];
    for (faults, flushes) in [(FaultPlan::none(), 0), (FaultPlan::chaos(7), 7)] {
        let mut sim = SimBuilder::config(CoreConfig::m6()).fault_profile(faults).build().unwrap();
        let r = sim.run_slice(&mut *slice.build().unwrap(), SlicePlan::new(4_000, 25_000)).unwrap();
        assert_eq!(r.sim.instructions, 25_000, "{}", slice.name);
        assert_eq!(r.frontend.instructions, r.sim.instructions, "{}", slice.name);
        assert_eq!(r.ipc.to_bits(), r.sim.ipc().to_bits());
        assert_eq!(r.mpki.to_bits(), r.frontend.mpki().to_bits());
        assert_eq!(r.avg_load_latency.to_bits(), r.mem.avg_load_latency().to_bits());
        assert_eq!(r.sim.predictor_corruptions, flushes, "{}", slice.name);
    }
}

#[test]
fn context_switch_costs_follow_the_mitigation() {
    // §V on the full simulator: train a web workload on M4 (CONTEXT_HASH
    // target encryption), then run the same next window three ways. An
    // encrypted switch loses only the sealed indirect/RAS targets, so it
    // costs about what no switch costs; flushing every predictor retrains
    // the direction state too and more than doubles the MPKI.
    let mut sim = SimBuilder::config(CoreConfig::m4()).build().unwrap();
    let mut gen = WebWorkload::new(&WebParams::default(), 60, 3);
    sim.run_slice(&mut gen, SlicePlan::new(0, 60_000)).unwrap();
    let window = |switch: &dyn Fn(&mut exynos::branch::FrontEnd)| {
        let (mut sim, mut gen) = (sim.clone(), gen.clone());
        switch(sim.frontend_mut());
        sim.run_slice(&mut gen, SlicePlan::new(0, 5_000)).unwrap().mpki
    };
    let none = window(&|_| {});
    let encrypted = window(&|fe| fe.set_context(ContextId::user(99, 0)));
    let flushing = window(&|fe| fe.set_context_flushing(ContextId::user(99, 0)));
    assert!(
        (encrypted - none).abs() <= 0.1 * none,
        "an encrypted switch must cost within 10% of no switch: {encrypted:.1} vs {none:.1}"
    );
    assert!(flushing > 2.0 * none, "a flushing switch must cost over 2x: {flushing:.1} vs {none:.1}");
}

#[test]
fn mpki_and_ipc_improve_together_on_branchy_code() {
    // Fig. 9 (MPKI down) and Fig. 17 (IPC up) on the same workload.
    let suite = standard_suite(1);
    // mk2: 128 branch sites, 16-deep patterns, 5% noise — learnable but
    // not trivial, so generational predictor growth shows.
    let slice = suite
        .iter()
        .find(|s| s.name.starts_with("specint/mk2"))
        .unwrap();
    let run = |cfg: CoreConfig| {
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut gen = slice.build().unwrap();
        let r = sim.run_slice(&mut *gen, SlicePlan::new(4_000, 25_000)).unwrap();
        (r.mpki, r.ipc)
    };
    let (mpki1, ipc1) = run(CoreConfig::m1());
    let (mpki6, ipc6) = run(CoreConfig::m6());
    assert!(mpki6 < mpki1, "MPKI: {mpki1:.2} -> {mpki6:.2}");
    assert!(ipc6 > ipc1, "IPC: {ipc1:.2} -> {ipc6:.2}");
}

#[test]
fn facade_reexports_are_usable() {
    // The top-level re-exports compile and agree with the module paths.
    let cfg: exynos::CoreConfig = exynos::CoreConfig::m2();
    assert_eq!(cfg.gen, exynos::Generation::M2);
    let plan: exynos::SlicePlan = exynos::SlicePlan::default();
    assert_eq!(plan.detail, 200_000);
    assert!(exynos::standard_suite(1).len() >= 20);
}
