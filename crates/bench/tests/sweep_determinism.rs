//! The parallel sweep executor must be a pure scheduling change: for any
//! thread count, the scalar reference sweep and the sweep engine must
//! return exactly the records the serial scalar sweep returns — same
//! catalog order, and every float identical to the bit.

use exynos_bench::experiments::{scalar_sweep, sweep, SliceRecord, Start};
use exynos_core::batch::ChunkCache;
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_service::job::JobCtx;
use exynos_trace::standard_suite;
use std::sync::Arc;

/// Small windows keep the debug-build run fast; determinism does not
/// depend on the window sizes.
const WARMUP: u64 = 500;
const DETAIL: u64 = 2_000;

fn assert_same(serial: &[SliceRecord], other: &[SliceRecord], label: &str) {
    assert_eq!(serial.len(), other.len(), "{label} returned a different record count");
    for (i, (s, p)) in serial.iter().zip(other).enumerate() {
        assert_eq!(s.name, p.name, "record {i} out of order ({label})");
        assert_eq!(s.gen, p.gen, "record {i} generation mismatch ({label})");
        assert_eq!(
            s.ipc.to_bits(),
            p.ipc.to_bits(),
            "record {i} ({} on {}) ipc differs ({label}): {} vs {}",
            s.name,
            s.gen,
            s.ipc,
            p.ipc
        );
        assert_eq!(
            s.mpki.to_bits(),
            p.mpki.to_bits(),
            "record {i} ({} on {}) mpki differs ({label})",
            s.name,
            s.gen
        );
        assert_eq!(
            s.load_latency.to_bits(),
            p.load_latency.to_bits(),
            "record {i} ({} on {}) load latency differs ({label})",
            s.name,
            s.gen
        );
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let suite = standard_suite(1);
    let serial = scalar_sweep(&suite, WARMUP, DETAIL, 1).unwrap();
    assert!(!serial.is_empty(), "reference sweep produced no records");
    let build = |cfg| SimBuilder::config(cfg).build();
    let start = Start::Cold { suite: &suite, warmup: WARMUP, build: &build };
    let ctx = JobCtx::detached(CancelToken::new());
    for threads in [1usize, 2, 8] {
        if threads > 1 {
            let parallel = scalar_sweep(&suite, WARMUP, DETAIL, threads).unwrap();
            assert_same(&serial, &parallel, &format!("scalar, {threads} threads"));
        }
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let (swept, _) = sweep(start, DETAIL, threads, &cache, &ctx).unwrap();
        assert_same(&serial, &swept, &format!("sweep, {threads} threads"));
    }
}
