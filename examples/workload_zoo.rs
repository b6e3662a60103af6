//! Workload zoo: characterize every slice of the synthetic population on
//! one generation — the tool for understanding what the suite contains
//! before running cross-generation sweeps.
//!
//! ```text
//! cargo run --release --example workload_zoo [M1..M6]
//! ```

use exynos::core::builder::SimBuilder;
use exynos::core::config::{CoreConfig, Generation};
use exynos::trace::{standard_suite, SlicePlan};

fn main() {
    let gen_name = std::env::args().nth(1).unwrap_or_else(|| "M3".into());
    let gen = Generation::ALL
        .into_iter()
        .find(|g| g.name().eq_ignore_ascii_case(&gen_name))
        .unwrap_or(Generation::M3);
    let cfg = CoreConfig::for_generation(gen);
    println!(
        "{:<26} {:>6} {:>7} {:>9} {:>8} {:>8}",
        format!("slice (on {gen})"),
        "IPC",
        "MPKI",
        "load lat",
        "L1 hit%",
        "DRAM/kI"
    );
    for slice in standard_suite(1) {
        let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
        let mut g = slice.build().unwrap();
        let r = sim.run_slice(&mut *g, SlicePlan::new(4_000, 25_000)).expect("clean example slice");
        let l1 = 100.0 * r.mem.l1_hits as f64 / r.mem.loads.max(1) as f64;
        let dram_ki = r.mem.dram_loads as f64 * 1000.0 / r.sim.instructions.max(1) as f64;
        println!(
            "{:<26} {:>6.2} {:>7.2} {:>9.1} {:>8.1} {:>8.2}",
            slice.name, r.ipc, r.mpki, r.avg_load_latency, l1, dram_ki
        );
    }
    println!("\nColumns: IPC, branch MPKI, average load latency (cycles), L1D hit");
    println!("rate, demand DRAM accesses per kilo-instruction, all over the");
    println!("25k-instruction detail window (warmup excluded).");
}
