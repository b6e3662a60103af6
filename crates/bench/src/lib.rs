//! # exynos-bench — the benchmark harness regenerating every table/figure
//!
//! [`experiments`] holds one function per table/figure of the paper's
//! evaluation; the `harness` binary prints them, and the Criterion benches
//! under `benches/` time the core kernels. [`experiments::sweep`] is the
//! one catalog sweep engine. See `EXPERIMENTS.md` at the workspace root
//! for the paper-vs-measured record.

#![warn(missing_docs)]

pub mod experiments;
pub mod service_runner;
pub mod sweep;
