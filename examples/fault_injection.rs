//! Demonstrates the fault-injection harness and forward-progress watchdog:
//! seeded chaos runs across every generation, a forced retirement wedge
//! surfacing a typed `SimError` with an occupancy snapshot, and the
//! determinism of the injected fault stream.
//!
//! Run with: `cargo run --release --example fault_injection`

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::trace::gen::markov::{MarkovBranches, MarkovParams};
use exynos::trace::SlicePlan;
use exynos::{FaultPlan, SimError};

fn main() {
    println!("== chaos injection across generations (seed 0xC0FFEE) ==");
    for (i, cfg) in CoreConfig::all_generations().into_iter().enumerate() {
        let name = cfg.gen;
        let mut sim = SimBuilder::config(cfg)
            .fault_profile(FaultPlan::chaos(0xC0FFEE + i as u64))
            .build()
            .unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 90, 7 + i as u64);
        match sim.run_slice(&mut gen, SlicePlan::new(2_000, 40_000)) {
            Ok(r) => {
                let s = sim.stats();
                let f = sim.fault_stats().unwrap_or_default();
                println!(
                    "{name}: Ok  ipc {:.2}  mpki {:.1}  faults {} (malformed {}, \
                     corruptions detected {}, watchdog events {})",
                    r.ipc,
                    r.mpki,
                    f.total(),
                    s.malformed_insts,
                    s.predictor_corruptions,
                    s.watchdog_events
                );
            }
            Err(e) => println!("{name}: typed error — {e}"),
        }
    }

    println!("\n== forced retirement wedge (watchdog demonstration) ==");
    let mut plan = FaultPlan::none();
    plan.stall_every = 50;
    plan.stall_cycles = 80_000;
    let mut sim = SimBuilder::config(CoreConfig::m5())
        .fault_profile(plan)
        .build()
        .unwrap();
    let mut gen = MarkovBranches::new(&MarkovParams::default(), 91, 11);
    match sim.run_slice(&mut gen, SlicePlan::new(0, 10_000)) {
        Ok(_) => println!("unexpected: wedge survived"),
        Err(SimError::ForwardProgressStall { cycle, stalled_cycles, recoveries, snapshot }) => {
            println!("watchdog tripped at cycle {cycle} after {stalled_cycles} stalled cycles");
            println!("degradation ladder spent: {recoveries} recoveries");
            println!("occupancy at stall: {snapshot}");
        }
        Err(e) => println!("unexpected error class: {e}"),
    }

    println!("\n== determinism: same seed, same outcome ==");
    let fingerprint = |seed: u64| {
        let mut sim = SimBuilder::config(CoreConfig::m4())
            .fault_profile(FaultPlan::chaos(seed))
            .build()
            .unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 92, 13);
        let r = sim.run_slice(&mut gen, SlicePlan::new(1_000, 20_000));
        let f = sim.fault_stats().unwrap_or_default();
        (r.map(|r| r.sim.last_retire).map_err(|e| e.to_string()), f.total())
    };
    let (a, b, c) = (fingerprint(42), fingerprint(42), fingerprint(43));
    println!("seed 42 run 1: {a:?}");
    println!("seed 42 run 2: {b:?}  (identical: {})", a == b);
    println!("seed 43      : {c:?}  (differs:   {})", a != c);
}
