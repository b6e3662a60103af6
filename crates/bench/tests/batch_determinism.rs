//! The lockstep engine's hard correctness gate: for every batch width,
//! member mix, fault plan, cache budget and warm-fork shape, stepping N
//! members over one shared decoded stream must produce **byte-equal
//! stats** to each member running alone over its own freshly seeded
//! generator.
//!
//! Stats are compared through their `Debug` rendering of the full
//! [`SliceResult`] — the IPC/MPKI/latency floats and the detail
//! window's simulation, front-end and memory counter blocks — so any
//! divergence in any counter fails, not just the three headline floats.

use exynos_bench::experiments::{self as exp, SliceRecord, Start};
use exynos_core::batch::{lockstep, CachedStream, ChunkCache, CHUNK_LEN};
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_core::config::CoreConfig;
use exynos_core::fault::FaultPlan;
use exynos_core::sim::{Simulator, SliceResult};
use exynos_core::SimError;
use exynos_service::job::JobCtx;
use exynos_trace::{standard_suite, SlicePlan, SliceSpec};
use std::sync::Arc;

/// The [`Start::Cold`] member builder: a stock simulator, no overrides.
fn stock(cfg: CoreConfig) -> Result<Simulator, SimError> {
    SimBuilder::config(cfg).build()
}

/// A job context outside any engine, never cancelled.
fn detached() -> JobCtx {
    JobCtx::detached(CancelToken::new())
}

/// A stall-injection fault plan: deterministic pipeline perturbation
/// with no error paths, so scalar and lockstep runs stay comparable.
fn stall_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.stall_every = 257;
    plan.stall_cycles = 9;
    plan
}

/// Build one simulator for generation-index `g` (cycling m1..m6), with
/// or without the stall fault plan attached.
fn member(g: usize, faults: bool) -> Simulator {
    let gens = CoreConfig::all_generations();
    let cfg = gens[g % gens.len()].clone();
    let mut b = SimBuilder::config(cfg);
    if faults {
        b = b.fault_profile(stall_plan());
    }
    match b.build() {
        Ok(sim) => sim,
        Err(e) => panic!("member {g} failed to build: {e}"),
    }
}

/// Byte-equal digest of a slice result: the full Debug rendering.
fn digest(r: &SliceResult) -> String {
    format!("{r:?}")
}

/// Scalar reference for one member: a private simulator and a private,
/// freshly seeded generator.
fn scalar_reference(g: usize, faults: bool, slice: &SliceSpec, plan: SlicePlan) -> String {
    let mut sim = member(g, faults);
    let mut gen = slice.build().unwrap();
    digest(&sim.run_slice(&mut *gen, plan).unwrap())
}

/// `width` members (generations cycling m1..m6) stepped in lockstep over
/// `slice` through a cache of `budget` bytes.
fn lockstep_group(
    width: usize,
    faults: bool,
    slice: &SliceSpec,
    plan: SlicePlan,
    budget: Option<u64>,
) -> Vec<SliceResult> {
    let mut members: Vec<Simulator> = (0..width).map(|g| member(g, faults)).collect();
    let cache = Arc::new(ChunkCache::with_budget(budget));
    let mut stream = CachedStream::for_slice(cache, slice);
    let results = lockstep(&mut members, &mut stream, plan).unwrap();
    assert_eq!(results.len(), width);
    results
}

fn assert_width_matches(width: usize, faults: bool, slice: &SliceSpec, plan: SlicePlan) {
    for (g, r) in lockstep_group(width, faults, slice, plan, Some(0)).iter().enumerate() {
        assert_eq!(
            scalar_reference(g, faults, slice, plan),
            digest(r),
            "width {width} member {g} (faults: {faults}) on {} diverged from scalar",
            slice.name
        );
    }
}

/// Records equal to the bit, in the same order.
fn assert_records_equal(want: &[SliceRecord], got: &[SliceRecord], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: record count");
    for (a, b) in want.iter().zip(got) {
        assert_eq!(a.name, b.name, "{label}");
        assert_eq!(a.gen, b.gen, "{label}");
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{label} {}/{}", a.name, a.gen);
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits(), "{label} {}/{}", a.name, a.gen);
        assert_eq!(
            a.load_latency.to_bits(),
            b.load_latency.to_bits(),
            "{label} {}/{}",
            a.name,
            a.gen
        );
    }
}

fn pass_through() -> Arc<ChunkCache> {
    Arc::new(ChunkCache::with_budget(Some(0)))
}

#[test]
fn widths_1_2_7_16_match_scalar() {
    let plan = SlicePlan::new(400, 600);
    for width in [1usize, 2, 7, 16] {
        assert_width_matches(width, false, &standard_suite(1)[0], plan);
    }
}

#[test]
fn widths_match_scalar_under_fault_injection() {
    let plan = SlicePlan::new(400, 600);
    for width in [1usize, 2, 7, 16] {
        assert_width_matches(width, true, &standard_suite(1)[1], plan);
    }
}

#[test]
fn all_six_generations_match_on_every_suite_family() {
    // One slice per suite family keeps the runtime bounded while still
    // covering every generator kind the catalog uses.
    let suite = standard_suite(1);
    let mut seen = Vec::new();
    let plan = SlicePlan::new(300, 500);
    for slice in &suite {
        if seen.contains(&slice.suite) {
            continue;
        }
        seen.push(slice.suite);
        assert_width_matches(6, false, slice, plan);
    }
}

#[test]
fn cold_sweep_is_bit_identical_to_scalar_sweep() {
    let suite = standard_suite(1);
    let scalar = exp::scalar_sweep(&suite, 500, 800, 1).unwrap();
    let start = Start::Cold { suite: &suite, warmup: 500, build: &stock };
    let (swept, _) = exp::sweep(start, 800, 1, &pass_through(), &detached()).unwrap();
    assert_records_equal(&scalar, &swept, "cold sweep");
}

#[test]
fn warm_lockstep_forked_from_one_snapshot_matches_scalar_forks() {
    let suite = standard_suite(1);
    let slice = &suite[2];
    let warmup = 1_500u64;
    let detail = 900u64;
    // One warmed snapshot, forked into a width-4 lockstep group.
    let image = {
        let mut sim = member(3, false);
        let mut gen = slice.build().unwrap();
        sim.run_warmup(&mut *gen, warmup).unwrap();
        sim.checkpoint()
    };
    let resume = || match Simulator::resume(&image) {
        Ok(sim) => sim,
        Err(e) => panic!("snapshot failed to resume: {e}"),
    };
    let mut members: Vec<Simulator> = (0..4).map(|_| resume()).collect();
    let mut stream = CachedStream::for_slice(pass_through(), slice);
    stream.skip(warmup);
    let forked = lockstep(&mut members, &mut stream, SlicePlan::new(0, detail)).unwrap();
    // Scalar forks: each resumes the same image with a private stream.
    for (m, b) in forked.iter().enumerate() {
        let mut sim = resume();
        let mut gen = slice.build().unwrap();
        for _ in 0..warmup {
            let _ = gen.next_inst();
        }
        let scalar = sim.run_slice(&mut *gen, SlicePlan::new(0, detail)).unwrap();
        assert_eq!(digest(&scalar), digest(b), "warm fork member {m} diverged");
    }
}

#[test]
fn warm_sweep_matches_scalar_and_cold_sweeps() {
    let (scale, warmup, detail) = (1, 1_000u64, 700u64);
    let suite = standard_suite(scale);
    let pool = exp::try_build_warm_pool(scale, warmup, 1, &CancelToken::new()).unwrap();
    let scalar = exp::scalar_sweep(&suite, warmup, detail, 1).unwrap();
    let start = Start::Cold { suite: &suite, warmup, build: &stock };
    let (cold, _) = exp::sweep(start, detail, 1, &pass_through(), &detached()).unwrap();
    assert_records_equal(&scalar, &cold, "cold");
    for budget in [Some(0), None] {
        let cache = Arc::new(ChunkCache::with_budget(budget));
        let (warm, _) = exp::sweep(Start::Warm(&pool), detail, 1, &cache, &detached()).unwrap();
        assert_records_equal(&scalar, &warm, &format!("warm, budget {budget:?}"));
    }
}

/// The acceptance gate for program-driven traces: every embedded corpus
/// program, built through the unified `TraceSource` API, must run
/// bit-identically through the scalar path and lockstep across all six
/// generations.
#[test]
fn program_slices_match_scalar_across_all_generations() {
    let slices = match exynos_asm::corpus_slices(SlicePlan::default(), 900) {
        Ok(s) => s,
        Err(e) => panic!("corpus failed to assemble: {e}"),
    };
    assert!(slices.len() >= 8, "corpus smaller than expected: {}", slices.len());
    for slice in &slices {
        assert_width_matches(6, false, slice, SlicePlan::new(400, 800));
    }
}

/// The mixed catalog (synthetic families + program slices) through the
/// sweep engine: it must stay bit-identical to the scalar sweep with
/// programs in the population.
#[test]
fn mixed_catalog_sweep_matches_scalar() {
    let suite = exp::catalog_suite(1).unwrap();
    assert!(suite.iter().any(|s| s.name.starts_with("program/")), "corpus missing from catalog");
    let scalar = exp::scalar_sweep(&suite, 300, 500, 1).unwrap();
    let start = Start::Cold { suite: &suite, warmup: 300, build: &stock };
    let (swept, _) = exp::sweep(start, 500, 1, &pass_through(), &detached()).unwrap();
    assert_records_equal(&scalar, &swept, "mixed catalog");
}

/// The chunk-cache acceptance matrix: lockstep must be bit-identical to
/// the scalar reference for every cache budget — zero (pure
/// pass-through), one byte (every insert immediately evicted, so chunks
/// rematerialize constantly), exactly one chunk, and unbounded — with
/// all six generations in the group, with and without fault injection.
/// The plan deliberately crosses a canonical chunk boundary so block
/// splits at the chunk edge and at the warmup/detail boundary are both
/// exercised.
#[test]
fn cache_budgets_match_scalar() {
    let chunk_bytes = (CHUNK_LEN * std::mem::size_of::<exynos_trace::Inst>()) as u64;
    let suite = standard_suite(1);
    let slice = &suite[0];
    let plan = SlicePlan::new(6_000, 4_000); // total 10k > CHUNK_LEN=8192
    for faults in [false, true] {
        let refs: Vec<String> = (0..6).map(|g| scalar_reference(g, faults, slice, plan)).collect();
        for budget in [Some(0), Some(1), Some(chunk_bytes), None] {
            let cache = Arc::new(ChunkCache::with_budget(budget));
            // Two groups through one cache: the second reads whatever the
            // budget let the first leave resident.
            for pass in 0..2 {
                let mut members: Vec<Simulator> = (0..6).map(|g| member(g, faults)).collect();
                let mut stream = CachedStream::for_slice(Arc::clone(&cache), slice);
                let results = lockstep(&mut members, &mut stream, plan).unwrap();
                for (g, r) in results.iter().enumerate() {
                    assert_eq!(
                        refs[g],
                        digest(r),
                        "member {g} diverged (faults {faults}, budget {budget:?}, pass {pass})"
                    );
                }
            }
            let stats = cache.stats();
            if budget == Some(1) {
                assert!(stats.evictions > 0, "1-byte budget must evict: {stats:?}");
            }
            if budget == Some(0) {
                assert_eq!(stats.bytes, 0, "zero budget must hold nothing: {stats:?}");
                assert_eq!(stats.misses, 2 * 10_000u64.div_ceil(CHUNK_LEN as u64), "{stats:?}");
            }
            if budget.is_none() {
                assert!(stats.hits > 0, "the second pass must hit: {stats:?}");
            }
        }
    }
}

/// An instrumented scalar run must still match the (uninstrumented)
/// lockstep path — sampling is observation, not perturbation — for a
/// pass-through and an unbounded cache.
#[test]
fn telemetry_instrumented_scalar_matches_lockstep() {
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    let suite = standard_suite(1);
    let slice = &suite[0];
    let plan = SlicePlan::new(400, 600);
    let instrumented: Vec<String> = (0..6)
        .map(|g| {
            let mut sim = member(g, false);
            let mut gen = slice.build().unwrap();
            let mut tel =
                Telemetry::new(TelemetryConfig { epoch_len: 250, event_capacity: 1 << 12 });
            digest(&sim.run_slice_with(&mut *gen, plan, &mut tel).unwrap())
        })
        .collect();
    for budget in [Some(0), None] {
        let got: Vec<String> =
            lockstep_group(6, false, slice, plan, budget).iter().map(digest).collect();
        assert_eq!(instrumented, got, "budget {budget:?} diverged under the telemetry build");
    }
}
