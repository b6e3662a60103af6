//! # exynos-dram — DRAM timing and the §IX memory-latency features
//!
//! * [`bank`] — open-page DRAM banks (tRCD/tRP/tCAS) with early-activate
//!   support;
//! * [`controller`] — the memory controller behind the three-domain,
//!   four-crossing path, with the M4 data fast path and M5 early
//!   page-activate sideband;
//! * [`specread`] — the M5 speculative cache-lookup bypass: a
//!   history-based miss predictor plus the interconnect snoop-filter
//!   directory acting as the cancel/"corrector" predictor.

#![warn(missing_docs)]

pub mod bank;
pub mod controller;
pub mod specread;

pub use bank::{Bank, DramTiming};
pub use controller::{DramConfig, DramStats, MemoryController};
pub use specread::{MissPredictor, SnoopFilter, SpecDecision, SpecReadController, SpecReadStats};
