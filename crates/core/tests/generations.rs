//! Cross-generation mechanisms of the paper's §XI, each on one
//! purpose-built workload. The population claims (Figs. 9, 16, 17) are
//! checked on the whole sweep by `crates/bench/tests/population.rs`.

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{standard_suite, SlicePlan};

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
