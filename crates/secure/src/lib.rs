//! # exynos-secure — branch-predictor security hardening (§V)
//!
//! Implements the paper's Spectre-v2 mitigation: a hardware-computed,
//! software-invisible per-context key ([`context::ContextHash`], Fig. 10)
//! used as a fast stream cipher over indirect-branch and return targets
//! stored in shared predictor structures ([`cipher`], Fig. 11). The
//! `exynos-branch` front end seals its BTB, indirect-chain and RAS targets
//! with it; the cross-training and replay attacks that show what the
//! sealing buys run against that front end (`exynos-bench`'s
//! `attack_rate_sweep`, `harness fig10`).
//!
//! ## Example
//!
//! ```
//! use exynos_secure::context::{compute_context_hash, ContextId, EntropySources};
//! use exynos_secure::cipher::{decrypt_target, encrypt_target};
//!
//! let sources = EntropySources::from_seed(1);
//! let key = compute_context_hash(&sources, ContextId::user(42, 0));
//! let stored = encrypt_target(key, 0x4000_1000);
//! assert_eq!(decrypt_target(key, stored), 0x4000_1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cipher;
pub mod context;

pub use cipher::{decrypt_target, encrypt_target, EncryptedTarget};
pub use context::{compute_context_hash, ContextHash, ContextId, EntropySources, PrivilegeLevel, SecurityState};
