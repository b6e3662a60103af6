//! Prefetch explorer: watch the §VII/§VIII engines work on their home
//! workloads — the multi-stride engine locking the paper's `+2×2, +5×1`
//! pattern, the SMS engine learning region signatures, the two-pass
//! controller switching modes, and the standalone prefetcher's adaptive
//! confidence.
//!
//! ```text
//! cargo run --release --example prefetch_explorer
//! ```

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::trace::gen::pointer_chase::{PointerChase, PointerChaseParams};
use exynos::trace::gen::spatial::{SpatialParams, SpatialRegions};
use exynos::trace::gen::streaming::{MultiStride, MultiStrideParams, StrideComponent};
use exynos::trace::SlicePlan;

fn main() {
    println!("=== Multi-stride engine on the paper's +2x2,+5x1 stream (M3) ===\n");
    let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
    let mut gen = MultiStride::new(&MultiStrideParams::default(), 0, 1);
    let r = sim.run_slice(&mut gen, SlicePlan::new(5_000, 50_000)).expect("clean example slice");
    let st = sim.memsys().l1_prefetcher().stride_stats();
    println!("pattern locks    : {}", st.locks);
    println!("prefetches issued: {}", st.issued);
    println!("confirmations    : {}", st.confirms);
    println!("skip-aheads      : {}", st.skip_aheads);
    println!("two-pass         : {:?}", sim.memsys().twopass().stats());
    println!("L1 hit rate      : {:.1}%  avg load latency {:.1}",
        100.0 * r.mem.l1_hits as f64 / r.mem.loads.max(1) as f64,
        r.avg_load_latency);

    println!("\n=== SMS engine on irregular region signatures (M3) ===\n");
    let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
    let mut gen = SpatialRegions::new(&SpatialParams::default(), 1, 2);
    let r = sim.run_slice(&mut gen, SlicePlan::new(10_000, 50_000)).expect("clean example slice");
    let sms = sim.memsys().l1_prefetcher().sms_stats();
    println!("region generations: {}", sms.generations);
    println!("L1 prefetches     : {}", sms.l1_prefetches);
    println!("L2-only (low-conf): {}", sms.l2_prefetches);
    println!("stride-suppressed : {}", sms.suppressed);
    println!("L1 hit rate       : {:.1}%  avg load latency {:.1}",
        100.0 * r.mem.l1_hits as f64 / r.mem.loads.max(1) as f64,
        r.avg_load_latency);

    println!("\n=== M1 (stride only) vs M3 (+SMS) on the same spatial workload ===\n");
    for cfg in [CoreConfig::m1(), CoreConfig::m3()] {
        let name = cfg.gen;
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut gen = SpatialRegions::new(&SpatialParams::default(), 1, 2);
        let r = sim.run_slice(&mut gen, SlicePlan::new(10_000, 50_000)).expect("clean example slice");
        println!(
            "{name}: IPC {:.2}, avg load latency {:.1} cycles",
            r.ipc, r.avg_load_latency
        );
    }

    println!("\n=== Standalone L2/L3 prefetcher on a unit-stride stream (M5) ===\n");
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    let mut gen = MultiStride::new(
        &MultiStrideParams {
            components: vec![StrideComponent { stride: 1, repeat: 1 }],
            working_set: 256 << 20,
            ..Default::default()
        },
        2,
        3,
    );
    let _ = sim.run_slice(&mut gen, SlicePlan::new(5_000, 50_000));
    println!("standalone: {:?}", sim.memsys().standalone_stats());

    println!("\n=== Speculative DRAM reads on a cache-hostile pointer chase (M5) ===\n");
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    let mut gen = PointerChase::new(
        &PointerChaseParams {
            working_set: 64 << 20,
            chains: 4,
            ..Default::default()
        },
        3,
        4,
    );
    let r = sim.run_slice(&mut gen, SlicePlan::new(5_000, 50_000)).expect("clean example slice");
    println!("spec reads: {:?}", sim.memsys().spec_stats());
    println!("dram      : {:?}", sim.memsys().dram_stats());
    println!("avg load latency {:.1} cycles", r.avg_load_latency);
}
