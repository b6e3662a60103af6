//! Golden results digest: a quick sweep of one slice per synthetic suite
//! family plus two corpus programs, across M1–M6, must reproduce a
//! recorded digest of every record's floats to the bit. A change meant to
//! be a pure speedup that bends any result fails here, in the ordinary
//! test run, rather than only in a benchmark digest comparison.
//!
//! The constant is regenerated only by a change that is meant to alter
//! the model's results; such a change says so and records the new value.

use exynos_bench::experiments::{sweep, SliceRecord, Start, PROGRAM_REGION_BASE};
use exynos_core::batch::ChunkCache;
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_service::job::JobCtx;
use exynos_snapshot::fnv1a64;
use exynos_trace::{standard_suite, SlicePlan, SliceSpec};
use std::sync::Arc;

const WARMUP: u64 = 2_000;
const DETAIL: u64 = 8_000;

/// FNV-1a-64 over every record's name, generation and the bit patterns
/// of its three floats, in sweep order.
const GOLDEN: u64 = 0xa450_2a8c_c411_3a90;

/// The first slice of each synthetic family, then two corpus programs
/// that exercise the indirect (VPC) and return paths of the front end.
fn golden_suite() -> Vec<SliceSpec> {
    let mut suite: Vec<SliceSpec> = Vec::new();
    for s in standard_suite(1) {
        if !suite.iter().any(|k| k.suite == s.suite) {
            suite.push(s);
        }
    }
    let programs = exynos_asm::corpus_slices(SlicePlan::default(), PROGRAM_REGION_BASE).unwrap();
    for name in ["program/computed_goto", "program/call_tree"] {
        suite.extend(programs.iter().filter(|s| s.name == name).cloned());
    }
    suite
}

fn digest(records: &[SliceRecord]) -> u64 {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(r.name.as_bytes());
        bytes.extend_from_slice(r.gen.as_bytes());
        for x in [r.ipc, r.mpki, r.load_latency] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&[&bytes])
}

#[test]
fn quick_sweep_matches_the_golden_digest() {
    let suite = golden_suite();
    assert_eq!(suite.len(), 8, "six synthetic families plus two programs");
    let build = |cfg| SimBuilder::config(cfg).build();
    let start = Start::Cold { suite: &suite, warmup: WARMUP, build: &build };
    let cache = Arc::new(ChunkCache::with_budget(Some(0)));
    let ctx = JobCtx::detached(CancelToken::new());
    let (records, _) = sweep(start, DETAIL, 1, &cache, &ctx).unwrap();
    assert_eq!(records.len(), 6 * suite.len());
    let got = digest(&records);
    assert_eq!(got, GOLDEN, "results digest moved: {got:#018x}");
}
