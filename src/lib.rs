//! # exynos — a reproduction of the Samsung Exynos M1–M6 microarchitecture
//!
//! This crate is the facade over a workspace that reproduces, as a
//! trace-driven simulator library, the systems described in *Evolution of
//! the Samsung Exynos CPU Microarchitecture* (ISCA 2020, Industry Track):
//!
//! * [`trace`] — the instruction/trace model and the synthetic workload
//!   population standing in for the paper's 4,026 proprietary slices;
//! * [`asm`] — the `exynos-asm` frontend: a two-pass assembler and
//!   functional executor turning small ARM-ish programs into trace
//!   streams behind the same [`trace::TraceSource`] API the synthetic
//!   generators use (`harness asm` inspects a program; the embedded
//!   corpus under `asm/` joins the catalog as `program/*` slices);
//! * [`branch`] — the SHP/µBTB/mBTB/vBTB/L2BTB/VPC/MRB prediction stack
//!   (§IV) with per-generation configurations;
//! * [`secure`] — CONTEXT_HASH keys and the target cipher the front end
//!   seals its shared predictor targets with (§V);
//! * [`uoc`] — the M5 micro-operation cache (§VI);
//! * [`mem`] — caches (sectored L2 tags, reuse metadata), TLBs and miss
//!   buffers (§III, §VIII);
//! * [`prefetch`] — multi-stride, SMS, Buddy and standalone prefetch
//!   engines with dynamic degree and one/two-pass delivery (§VII–§VIII);
//! * [`dram`] — DRAM banks, domain crossings, the data fast path,
//!   speculative reads and early page activate (§IX);
//! * [`core`] — the composed out-of-order core model and slice runner;
//! * [`telemetry`] — the metrics registry, epoch time-series and pipeline
//!   event trace behind `Simulator::run_slice_with` and the harness's
//!   `metrics`/`trace` subcommands;
//! * [`service`] — the resilient sweep-as-a-service job tier behind
//!   `harness serve`: deadlines, retry/backoff, backpressure, circuit
//!   breaking and write-ahead-journal crash recovery (see DESIGN.md,
//!   "Service tier & failure model").
//!
//! ## Quickstart
//!
//! ```
//! use exynos::core::builder::SimBuilder;
//! use exynos::core::config::Generation;
//! use exynos::trace::gen::loops::{LoopNest, LoopNestParams};
//! use exynos::trace::SlicePlan;
//!
//! let mut sim = SimBuilder::generation(Generation::M5).build().unwrap();
//! let mut workload = LoopNest::new(&LoopNestParams::default(), 0, 1);
//! let result = sim
//!     .run_slice(&mut workload, SlicePlan::new(2_000, 10_000))
//!     .expect("clean trace, no injected faults");
//! println!("IPC {:.2}, MPKI {:.2}", result.ipc, result.mpki);
//! # assert!(result.ipc > 0.5);
//! ```

#![warn(missing_docs)]

pub use exynos_asm as asm;
pub use exynos_branch as branch;
pub use exynos_core as core;
pub use exynos_dram as dram;
pub use exynos_mem as mem;
pub use exynos_prefetch as prefetch;
pub use exynos_secure as secure;
pub use exynos_service as service;
pub use exynos_telemetry as telemetry;
pub use exynos_trace as trace;
pub use exynos_uoc as uoc;

pub use exynos_core::{
    CoreConfig, FaultPlan, Generation, OccupancySnapshot, SimError, SliceResult, Simulator,
};
pub use exynos_trace::{standard_suite, SlicePlan};
