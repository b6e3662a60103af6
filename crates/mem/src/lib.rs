//! # exynos-mem — cache arrays, TLBs and miss buffers (§III, §VIII)
//!
//! Provides the storage structures of the Exynos memory hierarchy:
//!
//! * [`cache`] — set-associative caches with 128 B-sectored L2 tags
//!   (§VIII.B), reuse/prefetch metadata and insertion priorities for the
//!   coordinated exclusive-hierarchy policy (§VIII.A);
//! * [`tlb`] — the Table I translation hierarchy including the M3+
//!   "level 1.5" data TLB;
//! * [`mshr`] — fill-buffer / MAB occupancy (8 → 12 → 32 → 40 outstanding
//!   misses across generations, §VII);
//! * [`config`] — per-generation geometry presets.
//!
//! The composition of these into a full load/store path (with prefetchers
//! and DRAM) lives in `exynos-core::memsys`.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod mshr;
pub mod tlb;

pub use cache::{
    AccessKind, Cache, CacheConfig, CacheStats, InsertPriority, LineMeta, Victim, Victims,
    LINE_BYTES,
};
pub use config::MemGenConfig;
pub use mshr::MissBuffers;
pub use tlb::{Tlb, TlbConfig, TlbHierarchy, TlbHierarchyConfig};
