//! Cross-generation properties the paper's evaluation claims (Figs. 16–17,
//! Tables I/IV): IPC grows every generation, load latency falls.

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{standard_suite, SlicePlan};

/// Simulate a subset of the catalog on one generation; returns
/// (geo-ish mean IPC, mean load latency).
fn run_suite(cfg: &CoreConfig, max_slices: usize) -> (f64, f64) {
    let suite = standard_suite(1);
    let mut ipcs = Vec::new();
    let mut lats = Vec::new();
    for slice in suite.iter().take(max_slices) {
        let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
        let mut g = slice.build().unwrap();
        let r = sim.run_slice(&mut *g, SlicePlan::new(4_000, 25_000)).unwrap();
        ipcs.push(r.ipc);
        lats.push(r.avg_load_latency);
    }
    let mean_ipc = ipcs.iter().sum::<f64>() / ipcs.len() as f64;
    let mean_lat = lats.iter().sum::<f64>() / lats.len() as f64;
    (mean_ipc, mean_lat)
}

#[test]
fn ipc_improves_m1_to_m6() {
    let (m1, _) = run_suite(&CoreConfig::m1(), 14);
    let (m6, _) = run_suite(&CoreConfig::m6(), 14);
    assert!(
        m6 > m1 * 1.5,
        "M6 must deliver a large frequency-neutral IPC gain over M1: {m1:.2} -> {m6:.2}"
    );
}

#[test]
fn ipc_never_regresses_badly_across_generations() {
    let mut prev = 0.0;
    let mut prev_name = "";
    for cfg in CoreConfig::all_generations() {
        let name = cfg.gen.name();
        let (ipc, _) = run_suite(&cfg, 12);
        assert!(
            ipc >= prev * 0.97,
            "{name} regressed vs {prev_name}: {ipc:.2} vs {prev:.2}"
        );
        prev = ipc;
        prev_name = name;
    }
}

#[test]
fn load_latency_falls_m1_to_m6() {
    let (_, l1) = run_suite(&CoreConfig::m1(), 14);
    let (_, l6) = run_suite(&CoreConfig::m6(), 14);
    assert!(
        l6 < l1 * 0.75,
        "average load latency must fall substantially: {l1:.1} -> {l6:.1}"
    );
}

#[test]
fn high_ipc_workloads_unlocked_by_width() {
    // §XI: "High-IPC workloads were capped by M1's 4-wide design."
    let suite = standard_suite(1);
    // nest3 has ~30-instruction (unrolled) basic blocks: long enough that
    // fetch width (not the taken-branch redirect rate) is the binding limit.
    let nest = suite
        .iter()
        .find(|s| s.name.starts_with("specfp/nest3"))
        .unwrap();
    let run = |cfg: CoreConfig| {
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut g = nest.build().unwrap();
        sim.run_slice(&mut *g, SlicePlan::new(4_000, 25_000)).unwrap().ipc
    };
    let m1 = run(CoreConfig::m1());
    let m3 = run(CoreConfig::m3());
    let m6 = run(CoreConfig::m6());
    assert!(m1 <= 4.0 + 1e-9, "M1 is 4-wide");
    assert!(m3 > m1 * 1.2, "6-wide M3 must lift the cap: {m1:.2} -> {m3:.2}");
    assert!(m6 >= m3, "8-wide M6 at least holds: {m3:.2} -> {m6:.2}");
}

#[test]
fn low_ipc_workloads_improved_by_memory_path() {
    // §XI: "Low-IPC workloads were greatly improved by more sophisticated,
    // coordinated prefetching" and the §IX latency features.
    let suite = standard_suite(1);
    let chase = suite
        .iter()
        .find(|s| s.name.starts_with("game/chase"))
        .unwrap();
    let run = |cfg: CoreConfig| {
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut g = chase.build().unwrap();
        let r = sim.run_slice(&mut *g, SlicePlan::new(4_000, 25_000)).unwrap();
        (r.ipc, r.avg_load_latency)
    };
    let (i1, l1) = run(CoreConfig::m1());
    let (i6, l6) = run(CoreConfig::m6());
    assert!(i6 > i1 * 1.5, "chase IPC: {i1:.3} -> {i6:.3}");
    assert!(l6 < l1, "chase latency: {l1:.1} -> {l6:.1}");
}

#[test]
fn uoc_supplies_uops_on_m5_loop_kernels() {
    let suite = standard_suite(1);
    let nest = suite.iter().find(|s| s.name.starts_with("specfp/")).unwrap();
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    let mut g = nest.build().unwrap();
    sim.run_slice(&mut *g, SlicePlan::new(4_000, 25_000)).unwrap();
    assert!(
        sim.stats().uoc_supplied > 0,
        "UOC must supply µops on a lockable kernel: {:?}",
        sim.uoc_stats()
    );
    // M4 has no UOC.
    let mut sim4 = SimBuilder::config(CoreConfig::m4()).build().unwrap();
    let mut g4 = nest.build().unwrap();
    sim4.run_slice(&mut *g4, SlicePlan::new(4_000, 25_000)).unwrap();
    assert_eq!(sim4.stats().uoc_supplied, 0);
}

#[test]
fn deterministic_replay() {
    let suite = standard_suite(1);
    let s = &suite[5];
    let run = || {
        let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
        let mut g = s.build().unwrap();
        let r = sim.run_slice(&mut *g, SlicePlan::new(2_000, 10_000)).unwrap();
        (r.sim.last_retire, r.mpki.to_bits(), r.avg_load_latency.to_bits())
    };
    assert_eq!(run(), run(), "simulation must be fully deterministic");
}
