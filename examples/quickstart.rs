//! Quickstart: simulate one workload on one generation and print the
//! headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::trace::gen::loops::{LoopNest, LoopNestParams};
use exynos::trace::SlicePlan;

fn main() {
    // An M5 core (7nm generation: ZAT/ZOT front end, UOC, standalone
    // prefetcher, speculative DRAM reads).
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();

    // A small, predictable loop kernel — the kind of code the µBTB locks
    // onto and the UOC then supplies without the instruction cache.
    let mut workload = LoopNest::new(&LoopNestParams::default(), /*region=*/ 0, /*seed=*/ 1);

    let result = sim.run_slice(&mut workload, SlicePlan::new(10_000, 100_000)).expect("clean example slice");

    println!("=== Exynos M5, loop-nest kernel ===");
    println!("instructions     : {}", result.instructions);
    println!("cycles           : {}", result.cycles);
    println!("IPC              : {:.2}", result.ipc);
    println!("MPKI             : {:.2}", result.mpki);
    println!("avg load latency : {:.1} cycles", result.avg_load_latency);
    println!();
    println!("front end:");
    println!("  taken branches         : {}", result.frontend.taken_branches);
    println!("  µBTB zero-bubble       : {}", result.frontend.ubtb_zero_bubble);
    println!("  ZAT/ZOT zero-bubble    : {}", result.frontend.zat_zot_zero_bubble);
    println!("  SHP lookups (gated)    : {}", result.frontend.shp_lookups);
    println!("µop cache:");
    println!("  µops supplied by UOC   : {}", sim.stats().uoc_supplied);
    println!("memory:");
    println!("  L1 hit rate            : {:.1}%", 100.0 * result.mem.l1_hits as f64 / result.mem.loads.max(1) as f64);
    println!("  L1 prefetch fills      : {}", result.mem.l1_prefetch_fills);
}
