//! Generation sweep: the paper's headline experiment in miniature — run a
//! cross-section of the workload suite on all six generations and print
//! the per-generation IPC / MPKI / load-latency trend (Figs. 9, 16, 17).
//!
//! ```text
//! cargo run --release --example generation_sweep
//! ```

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::trace::{standard_suite, SlicePlan};

fn main() {
    let suite = standard_suite(1);
    let slices: Vec<_> = suite.iter().take(16).collect();
    println!(
        "{} slices x 6 generations (warmup 4k, detail 25k each)\n",
        slices.len()
    );
    println!("{:<4} {:>8} {:>8} {:>10}", "gen", "IPC", "MPKI", "load lat");
    let mut first_ipc = None;
    for cfg in CoreConfig::all_generations() {
        let mut ipc = 0.0;
        let mut mpki = 0.0;
        let mut lat = 0.0;
        for slice in &slices {
            let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
            let mut gen = slice.build().unwrap();
            let r = sim.run_slice(&mut *gen, SlicePlan::new(4_000, 25_000)).expect("clean example slice");
            ipc += r.ipc;
            mpki += r.mpki;
            lat += r.avg_load_latency;
        }
        let n = slices.len() as f64;
        let (ipc, mpki, lat) = (ipc / n, mpki / n, lat / n);
        first_ipc.get_or_insert(ipc);
        println!(
            "{:<4} {:>8.2} {:>8.2} {:>10.1}   ({:+.0}% IPC vs M1)",
            cfg.gen,
            ipc,
            mpki,
            lat,
            100.0 * (ipc / first_ipc.unwrap() - 1.0)
        );
    }
    println!("\nPaper (Table IV / §XI): IPC 1.06 -> 2.71, load latency 14.9 -> 8.3.");
    println!("Absolute values differ (synthetic traces, simpler substrate); the");
    println!("monotone improvement across generations is the reproduced result.");
}
