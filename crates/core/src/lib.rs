//! # exynos-core — the six-generation Exynos core timing model
//!
//! Composes every subsystem of the reproduction into a runnable,
//! trace-driven simulator:
//!
//! * [`config`] — Table I per-generation configurations (M1–M6);
//! * [`memsys`] — L1/L2/exclusive-L3/DRAM with all prefetchers (§VII–IX);
//! * [`ports`] — execution-port scheduling;
//! * [`sim`] — the out-of-order timing model and slice runner;
//! * [`batch`] — shared decoded-trace chunks for batched lockstep
//!   sweeps ([`InstChunk`]);
//! * [`builder`] — [`SimBuilder`], the validated construction path, plus
//!   checkpoint/resume via [`Simulator::checkpoint`] /
//!   [`Simulator::resume`];
//! * [`error`] — the typed failure model ([`SimError`], occupancy
//!   snapshots) shared by every layer;
//! * [`fault`] — the deterministic fault-injection harness;
//! * [`cancel`] — cooperative cancellation tokens (deadlines) polled by
//!   the step loop.
//!
//! ## Example
//!
//! ```
//! use exynos_core::builder::SimBuilder;
//! use exynos_core::config::Generation;
//! use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
//! use exynos_trace::SlicePlan;
//!
//! let mut sim = SimBuilder::generation(Generation::M5).build().unwrap();
//! let mut gen = LoopNest::new(&LoopNestParams::default(), 0, 1);
//! let result = sim
//!     .run_slice(&mut gen, SlicePlan::new(2_000, 10_000))
//!     .expect("clean trace, no injected faults");
//! assert!(result.ipc > 0.5);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod builder;
pub mod cancel;
pub mod config;
pub mod error;
pub mod fault;
pub mod memsys;
pub mod ports;
pub mod sim;

pub use builder::SimBuilder;
pub use cancel::CancelToken;
pub use config::{CoreConfig, Generation};
pub use error::{OccupancySnapshot, SimError};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use memsys::{MemStats, MemSystem};
pub use batch::{InstChunk, CHUNK_LEN};
pub use sim::{SimStats, Simulator, SliceMeasure, SliceResult, WatchdogTrip};
