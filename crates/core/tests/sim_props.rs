//! Property tests on the composed simulator: physical sanity of the
//! timing model across arbitrary workloads and generations.

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{standard_suite, SlicePlan, TraceGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// IPC can never exceed the machine width, retirement is monotone,
    /// and the exclusive-hierarchy invariant holds at the end of any run.
    #[test]
    fn simulator_physical_sanity(slice_idx in 0usize..20, gen_idx in 0usize..6, seed in 0u64..50) {
        let suite = standard_suite(1);
        let slice = &suite[slice_idx % suite.len()];
        let cfg = CoreConfig::all_generations()[gen_idx].clone();
        let width = cfg.width;
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut gen = slice.spec.build(slice.region, slice.seed ^ seed).unwrap();
        let mut last_rt = 0u64;
        let mut touched = Vec::new();
        for _ in 0..4_000 {
            let inst = gen.next_inst();
            if let Some(m) = inst.mem {
                if touched.len() < 64 {
                    touched.push(m.vaddr);
                }
            }
            let rt = sim.step(&inst).unwrap();
            prop_assert!(rt >= last_rt, "retirement must be monotone");
            last_rt = rt;
        }
        let s = sim.stats();
        let ipc = s.instructions as f64 / s.last_retire.max(1) as f64;
        prop_assert!(ipc <= width as f64 + 1e-9, "IPC {ipc} exceeds width {width}");
        // Exclusive hierarchy: no line resident in both L2 and L3.
        for addr in touched {
            let (_, l2, l3) = sim.memsys().line_residency(addr);
            prop_assert!(!(l2 && l3), "line {addr:#x} in both L2 and L3");
        }
    }

    /// Two simulators fed the same stream produce identical cycle counts
    /// (full determinism), for any slice and generation.
    #[test]
    fn simulator_determinism(slice_idx in 0usize..20, gen_idx in 0usize..6) {
        let suite = standard_suite(1);
        let slice = &suite[slice_idx % suite.len()];
        let cfg = CoreConfig::all_generations()[gen_idx].clone();
        let run = || {
            let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
            let mut gen = slice.build().unwrap();
            let r = sim.run_slice(&mut *gen, SlicePlan::new(500, 2_500)).unwrap();
            (r.cycles, r.mpki.to_bits())
        };
        prop_assert_eq!(run(), run());
    }
}
