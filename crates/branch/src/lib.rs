//! # exynos-branch — the Exynos branch-prediction stack (§IV–§V)
//!
//! Implements all six generations of the paper's branch prediction:
//!
//! * [`shp`] — the Scaled Hashed Perceptron conditional predictor;
//! * [`history`] — GHIST/PHIST registers, interval folding, and the
//!   incrementally folded [`history::ShpHistory`] the SHP indexes with;
//! * [`btb`] — the mBTB (8 branches / 128 B line) + vBTB + L2BTB hierarchy;
//! * [`ubtb`] — the zero-bubble graph-based µBTB with its local-history
//!   hashed perceptron and lock mode;
//! * [`ras`] — the return-address stack (CONTEXT_HASH-encrypted);
//! * [`indirect`] — VPC chains and the M6 hybrid indirect hash table;
//! * [`confidence`] / [`mrb`] — branch confidence and the M5 Mispredict
//!   Recovery Buffer;
//! * [`config`] — per-generation feature/geometry presets (M1–M6);
//! * [`frontend`] — the assembled prediction pipeline with per-branch
//!   bubble/redirect accounting;
//! * [`storage`] — Table II storage-budget accounting.
//!
//! ## Example
//!
//! ```
//! use exynos_branch::config::FrontendConfig;
//! use exynos_branch::frontend::FrontEnd;
//! use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
//!
//! let mut fe = FrontEnd::new(FrontendConfig::m5());
//! let mut gen = LoopNest::new(&LoopNestParams::default(), 0, 1);
//! fe.run(&mut gen, 10_000).expect("predictor state uncorrupted");
//! assert!(fe.stats().mpki() < 5.0);
//! ```

#![warn(missing_docs)]

pub mod btb;
pub mod config;
pub mod confidence;
pub mod error;
pub mod frontend;
pub mod history;
pub mod indirect;
pub mod mrb;
pub mod ras;
pub mod shp;
pub mod storage;
pub mod ubtb;

pub use config::FrontendConfig;
pub use error::PredictorError;
pub use frontend::{FetchFeedback, FrontEnd, FrontendStats, Redirect};
pub use storage::{storage_budget, StorageBudget};
