//! The bench-side [`JobRunner`]: routes service-tier jobs onto the
//! existing sweep machinery.
//!
//! Sweep jobs without robustness overrides share warm checkpoint pools
//! across requests, keyed by `(scale, warmup)` — the first request of a
//! shape pays the warmup, every later one forks the pool's residents.
//! Jobs *with* overrides (chaos plans, stall injection, watchdog or
//! decode knobs) bypass the shared pools: their simulators carry fault
//! injectors that must start from cold state to be reproducible.
//!
//! Every simulator built here carries the job's
//! [`CancelToken`](exynos_core::cancel::CancelToken), so the engine's
//! deadline / cancel machinery reaches into the innermost step loop.
//! Every failure path is a typed [`SimError`]; this runner never
//! panics on job input.

use crate::experiments::{self as exp, end_slice_span, slice_span, SliceRecord, WarmPool};
use exynos_core::batch::{ChunkCache, ChunkCacheStats};
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_core::config::{CoreConfig, Generation};
use exynos_core::error::SimError;
use exynos_core::fault::FaultPlan;
use exynos_core::sim::Simulator;
use exynos_service::job::{JobCtx, JobKind, JobRunner, JobSpec};
use exynos_service::json;
use exynos_telemetry::{Telemetry, TelemetryConfig};
use exynos_trace::{standard_suite, SlicePlan};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Byte budget for the runner's shared chunk cache: enough to keep a
/// whole small-scale sweep's decoded chunks resident across jobs while
/// bounding a long-lived server's footprint.
const SERVICE_CACHE_BYTES: u64 = 64 << 20;

/// Executes service jobs on the bench crate's experiment engine.
#[derive(Debug)]
pub struct BenchRunner {
    /// Warm pools shared across requests, keyed `(scale, warmup)`.
    pools: Mutex<HashMap<(usize, u64), Arc<WarmPool>>>,
    /// Thread count used when building a shared pool.
    pool_threads: usize,
    /// Decoded trace chunks shared across every job this runner serves.
    chunks: Arc<ChunkCache>,
}

fn lock_pools(
    m: &Mutex<HashMap<(usize, u64), Arc<WarmPool>>>,
) -> std::sync::MutexGuard<'_, HashMap<(usize, u64), Arc<WarmPool>>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl BenchRunner {
    /// A runner whose shared warm pools are built on `pool_threads`
    /// worker threads.
    pub fn new(pool_threads: usize) -> BenchRunner {
        BenchRunner {
            pools: Mutex::new(HashMap::new()),
            pool_threads: pool_threads.max(1),
            chunks: Arc::new(ChunkCache::with_budget(Some(SERVICE_CACHE_BYTES))),
        }
    }

    /// Number of warm pools currently cached.
    pub fn pool_count(&self) -> usize {
        lock_pools(&self.pools).len()
    }

    /// The runner's cross-job chunk cache.
    pub fn chunk_cache(&self) -> &Arc<ChunkCache> {
        &self.chunks
    }

    /// Fetch or build the shared pool for `(scale, warmup)`. The build
    /// runs outside the cache lock so a slow warmup cannot block jobs
    /// of other shapes; if two jobs race, the first insert wins and the
    /// loser's identical pool is dropped.
    fn pool(
        &self,
        scale: usize,
        warmup: u64,
        cancel: &CancelToken,
    ) -> Result<Arc<WarmPool>, SimError> {
        if let Some(p) = lock_pools(&self.pools).get(&(scale, warmup)) {
            return Ok(Arc::clone(p));
        }
        let built = Arc::new(exp::try_build_warm_pool(scale, warmup, self.pool_threads, cancel)?);
        let mut pools = lock_pools(&self.pools);
        Ok(Arc::clone(pools.entry((scale, warmup)).or_insert(built)))
    }

    fn run_sweep(
        &self,
        spec: &JobSpec,
        scale: usize,
        warmup: u64,
        detail: u64,
        threads: usize,
        ctx: &JobCtx,
    ) -> Result<String, SimError> {
        let (records, _) = if spec.has_overrides() {
            // Cold path: each member starts from reset with the spec's
            // injectors attached, over a pass-through cache so override
            // jobs keep nothing resident in the shared one. A failure
            // (cancel, deadline, injected fault) short-circuits the
            // remaining slice groups.
            let suite = standard_suite(scale);
            let build = |cfg| build_sim(cfg, spec, &ctx.cancel);
            let start = exp::Start::Cold { suite: &suite, warmup, build: &build };
            let pass_through = Arc::new(ChunkCache::with_budget(Some(0)));
            exp::sweep(start, detail, threads, &pass_through, ctx)?
        } else {
            let pool = {
                let fetch = ctx.spans.start("warm_pool_fetch", Some(ctx.attempt));
                ctx.spans.attr_u64(fetch, "scale", scale as u64);
                ctx.spans.attr_u64(fetch, "warmup", warmup);
                let pool = self.pool(scale, warmup, &ctx.cancel);
                ctx.spans.end(fetch);
                pool?
            };
            // Forks of the pool's residents; detail records come from the
            // shared chunk cache, so the first job of a shape decodes
            // them and every later one hits.
            exp::sweep(exp::Start::Warm(&pool), detail, threads, &self.chunks, ctx)?
        };
        Ok(sweep_payload(scale, warmup, detail, &records))
    }

    fn run_program(
        &self,
        spec: &JobSpec,
        name: &str,
        warmup: u64,
        detail: u64,
        ctx: &JobCtx,
    ) -> Result<String, SimError> {
        // Resolve the program against the embedded corpus; an unknown
        // name or a program that fails to assemble surfaces as a typed
        // `SimError::Config` via `From<TraceError>` — never a panic.
        let slices =
            exynos_asm::corpus_slices(SlicePlan::default(), exp::PROGRAM_REGION_BASE)?;
        let slice = slices
            .iter()
            .find(|s| s.name == format!("program/{name}"))
            .ok_or_else(|| SimError::Config {
                param: "job.program",
                detail: format!(
                    "unknown corpus program {name:?} (available: {})",
                    exynos_asm::CORPUS.map(|(n, _)| n).join(", ")
                ),
            })?;
        // A one-slice sweep. Program records come from the shared chunk
        // cache keyed on the program's content fingerprint, so
        // resubmitting the same program skips re-assembly and re-decode
        // entirely.
        let build = |cfg| build_sim(cfg, spec, &ctx.cancel);
        let start = exp::Start::Cold { suite: std::slice::from_ref(slice), warmup, build: &build };
        let (records, _) = exp::sweep(start, detail, 1, &self.chunks, ctx)?;
        Ok(program_payload(name, warmup, detail, &records))
    }

    fn run_instrumented(
        &self,
        spec: &JobSpec,
        generation: &str,
        (warmup, detail, epoch): (u64, u64, u64),
        trace: bool,
        ctx: &JobCtx,
    ) -> Result<String, SimError> {
        let cfg = CoreConfig::for_generation(parse_generation(generation)?);
        let mut sim = build_sim(cfg, spec, &ctx.cancel)?;
        let event_capacity = if trace { 1 << 18 } else { 1 << 16 };
        let mut tel = Telemetry::new(TelemetryConfig { epoch_len: epoch, event_capacity });
        let suite = standard_suite(1);
        let slice = &suite[0];
        let mut gen = slice.build()?;
        let sspan = slice_span(ctx, 0, &slice.name, generation);
        let r = sim.run_slice_with(&mut *gen, SlicePlan::new(warmup, detail), &mut tel);
        end_slice_span(ctx, sspan, Some(&sim));
        r?;
        sim.sample_telemetry(&mut tel);
        tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
        Ok(if trace { tel.events_jsonl() } else { tel.metrics_jsonl() })
    }

    fn run_checkpoint(
        &self,
        spec: &JobSpec,
        generation: &str,
        warmup: u64,
        ctx: &JobCtx,
    ) -> Result<String, SimError> {
        let cfg = CoreConfig::for_generation(parse_generation(generation)?);
        let mut sim = build_sim(cfg, spec, &ctx.cancel)?;
        let suite = standard_suite(1);
        let slice = &suite[0];
        let mut gen = slice.build()?;
        let sspan = slice_span(ctx, 0, &slice.name, generation);
        let r = sim.run_warmup(&mut *gen, warmup);
        end_slice_span(ctx, sspan, Some(&sim));
        r?;
        let image = sim.checkpoint();
        let mut out = String::from("{");
        json::push_key(&mut out, true, "kind");
        json::push_str(&mut out, "checkpoint");
        json::push_key(&mut out, false, "gen");
        json::push_str(&mut out, generation);
        json::push_key(&mut out, false, "warmup");
        json::push_u64(&mut out, warmup);
        json::push_key(&mut out, false, "instructions");
        json::push_u64(&mut out, sim.stats().instructions);
        json::push_key(&mut out, false, "bytes");
        json::push_u64(&mut out, image.len() as u64);
        json::push_key(&mut out, false, "fnv");
        json::push_str(&mut out, &format!("{:016x}", fnv1a(&image)));
        out.push('}');
        Ok(out)
    }
}

impl JobRunner for BenchRunner {
    fn run(&self, spec: &JobSpec, ctx: &JobCtx) -> Result<String, SimError> {
        spec.validate()?;
        match &spec.kind {
            JobKind::Sweep { scale, warmup, detail, threads } => {
                self.run_sweep(spec, *scale, *warmup, *detail, *threads, ctx)
            }
            JobKind::Metrics { generation, warmup, detail, epoch } => {
                self.run_instrumented(spec, generation, (*warmup, *detail, *epoch), false, ctx)
            }
            JobKind::Trace { generation, warmup, detail, epoch } => {
                self.run_instrumented(spec, generation, (*warmup, *detail, *epoch), true, ctx)
            }
            JobKind::Checkpoint { generation, warmup } => {
                self.run_checkpoint(spec, generation, *warmup, ctx)
            }
            JobKind::Program { program, warmup, detail } => {
                self.run_program(spec, program, *warmup, *detail, ctx)
            }
        }
    }

    fn chunk_cache_stats(&self) -> ChunkCacheStats {
        self.chunks.stats()
    }
}

/// Parse a protocol generation name (`"m1"`..`"m6"`, case-insensitive)
/// into a [`Generation`], rejecting anything else with a typed error.
pub fn parse_generation(name: &str) -> Result<Generation, SimError> {
    match name.to_ascii_lowercase().as_str() {
        "m1" => Ok(Generation::M1),
        "m2" => Ok(Generation::M2),
        "m3" => Ok(Generation::M3),
        "m4" => Ok(Generation::M4),
        "m5" => Ok(Generation::M5),
        "m6" => Ok(Generation::M6),
        _ => Err(SimError::Config {
            param: "job.gen",
            detail: format!("unknown generation {name:?} (expected m1..m6)"),
        }),
    }
}

/// The spec's fault plan, if any knob is set. A chaos seed selects the
/// full chaos plan; stall knobs then override its stall schedule (or
/// stand alone on an otherwise-empty plan).
fn fault_plan(spec: &JobSpec) -> Option<FaultPlan> {
    if spec.chaos_seed.is_none() && spec.stall_every == 0 && spec.stall_cycles == 0 {
        return None;
    }
    let mut plan = match spec.chaos_seed {
        Some(seed) => FaultPlan::chaos(seed),
        None => FaultPlan::none(),
    };
    if spec.stall_every != 0 || spec.stall_cycles != 0 {
        plan.stall_every = spec.stall_every;
        plan.stall_cycles = spec.stall_cycles;
    }
    Some(plan)
}

/// One simulator for `cfg` carrying every override in `spec` plus the
/// job's cancel token. Inconsistent knobs (e.g. a stall period with no
/// magnitude) surface as typed `SimError::Config` from the builder.
fn build_sim(cfg: CoreConfig, spec: &JobSpec, cancel: &CancelToken) -> Result<Simulator, SimError> {
    let mut b = SimBuilder::config(cfg).cancel_token(cancel.clone());
    if let Some(plan) = fault_plan(spec) {
        b = b.fault_profile(plan);
    }
    if let Some((threshold, recoveries)) = spec.watchdog {
        b = b.watchdog(threshold, recoveries);
    }
    if spec.strict_decode {
        b = b.strict_decode(true);
    }
    b.build()
}

/// Deterministic sweep payload: job shape plus one record per
/// (generation, slice), floats in shortest-round-trip form so a re-run
/// after crash recovery is byte-identical.
fn sweep_payload(scale: usize, warmup: u64, detail: u64, records: &[SliceRecord]) -> String {
    let mut out = String::from("{");
    json::push_key(&mut out, true, "kind");
    json::push_str(&mut out, "sweep");
    json::push_key(&mut out, false, "scale");
    json::push_u64(&mut out, scale as u64);
    json::push_key(&mut out, false, "warmup");
    json::push_u64(&mut out, warmup);
    json::push_key(&mut out, false, "detail");
    json::push_u64(&mut out, detail);
    json::push_key(&mut out, false, "jobs");
    json::push_u64(&mut out, records.len() as u64);
    json::push_key(&mut out, false, "records");
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json::push_key(&mut out, true, "slice");
        json::push_str(&mut out, &r.name);
        json::push_key(&mut out, false, "gen");
        json::push_str(&mut out, r.gen);
        json::push_key(&mut out, false, "ipc");
        json::push_f64(&mut out, r.ipc);
        json::push_key(&mut out, false, "mpki");
        json::push_f64(&mut out, r.mpki);
        json::push_key(&mut out, false, "load_latency");
        json::push_f64(&mut out, r.load_latency);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Deterministic program-job payload: the job shape plus one record per
/// generation, floats in shortest-round-trip form (same rationale as
/// [`sweep_payload`]).
fn program_payload(name: &str, warmup: u64, detail: u64, records: &[SliceRecord]) -> String {
    let mut out = String::from("{");
    json::push_key(&mut out, true, "kind");
    json::push_str(&mut out, "program");
    json::push_key(&mut out, false, "program");
    json::push_str(&mut out, name);
    json::push_key(&mut out, false, "warmup");
    json::push_u64(&mut out, warmup);
    json::push_key(&mut out, false, "detail");
    json::push_u64(&mut out, detail);
    json::push_key(&mut out, false, "records");
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json::push_key(&mut out, true, "gen");
        json::push_str(&mut out, r.gen);
        json::push_key(&mut out, false, "ipc");
        json::push_f64(&mut out, r.ipc);
        json::push_key(&mut out, false, "mpki");
        json::push_f64(&mut out, r.mpki);
        json::push_key(&mut out, false, "load_latency");
        json::push_f64(&mut out, r.load_latency);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> JobSpec {
        JobSpec::plain(JobKind::Sweep { scale: 1, warmup: 200, detail: 300, threads: 1 })
    }

    #[test]
    fn warm_sweep_matches_cold_reference() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let payload = runner.run(&quick_sweep(), &ctx).unwrap();
        assert_eq!(runner.pool_count(), 1, "plain sweep populates the shared pool");
        // Same spec again: served from the cached pool, byte-identical.
        let again = runner.run(&quick_sweep(), &ctx).unwrap();
        assert_eq!(payload, again);
        // Reference values from the scalar oracle and the cold engine.
        let suite = standard_suite(1);
        let reference = exp::scalar_sweep(&suite, 200, 300, 1).unwrap();
        assert_eq!(payload, sweep_payload(1, 200, 300, &reference));
        let pass_through = Arc::new(ChunkCache::with_budget(Some(0)));
        let build = |cfg| SimBuilder::config(cfg).build();
        let start = exp::Start::Cold { suite: &suite, warmup: 200, build: &build };
        let (cold, _) = exp::sweep(start, 300, 1, &pass_through, &ctx).unwrap();
        assert_eq!(payload, sweep_payload(1, 200, 300, &cold));
    }

    #[test]
    fn stall_plan_override_sweep_matches_scalar_runs() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let mut spec = quick_sweep();
        spec.stall_every = 97;
        spec.stall_cycles = 40;
        let payload = runner.run(&spec, &ctx).unwrap();
        assert_eq!(runner.pool_count(), 0, "override jobs must not share pools");
        // Reference: one `run_slice` per (generation, slice), each
        // simulator built with the same plan.
        let mut reference = Vec::new();
        for cfg in CoreConfig::all_generations() {
            for slice in &standard_suite(1) {
                let mut sim = build_sim(cfg.clone(), &spec, &CancelToken::new()).unwrap();
                let mut gen = slice.build().unwrap();
                let r = sim.run_slice(&mut *gen, SlicePlan::new(200, 300)).unwrap();
                reference.push(SliceRecord::from_result(&slice.name, cfg.gen.name(), &r));
            }
        }
        assert_eq!(payload, sweep_payload(1, 200, 300, &reference));
        let plain = runner.run(&quick_sweep(), &ctx).unwrap();
        assert_ne!(payload, plain, "the stall plan must change the results");
    }

    #[test]
    fn override_sweep_bypasses_the_pool() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let mut spec = quick_sweep();
        spec.chaos_seed = Some(0xC0FFEE);
        runner.run(&spec, &ctx).unwrap();
        assert_eq!(runner.pool_count(), 0, "override jobs must not share pools");
    }

    #[test]
    fn cancelled_job_returns_typed_error() {
        let runner = BenchRunner::new(1);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = JobCtx::detached(cancel);
        let err = runner.run(&quick_sweep(), &ctx).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { deadline: false, .. }), "got {err}");
    }

    #[test]
    fn cancelled_sweep_on_a_built_pool_returns_typed_error() {
        let runner = BenchRunner::new(1);
        runner.run(&quick_sweep(), &JobCtx::detached(CancelToken::new())).unwrap();
        assert_eq!(runner.pool_count(), 1);
        // The pool exists, so the job goes straight to its forks: the
        // token must reach them.
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = runner.run(&quick_sweep(), &JobCtx::detached(cancel)).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { deadline: false, .. }), "got {err}");
    }

    #[test]
    fn bad_generation_is_a_config_error() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let spec = JobSpec::plain(JobKind::Checkpoint { generation: "m9".to_owned(), warmup: 100 });
        let err = runner.run(&spec, &ctx).unwrap_err();
        assert!(matches!(err, SimError::Config { param: "job.gen", .. }), "got {err}");
    }

    #[test]
    fn inconsistent_stall_knobs_are_rejected() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let mut spec = quick_sweep();
        spec.stall_every = 100; // no stall_cycles: period with no magnitude
        let err = runner.run(&spec, &ctx).unwrap_err();
        assert!(matches!(err, SimError::Config { .. }), "got {err}");
    }

    #[test]
    fn program_job_is_deterministic_and_covers_every_generation() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let spec = JobSpec::plain(JobKind::Program {
            program: "nested_loops".to_owned(),
            warmup: 500,
            detail: 1_500,
        });
        let a = runner.run(&spec, &ctx).unwrap();
        let b = runner.run(&spec, &ctx).unwrap();
        assert_eq!(a, b);
        for g in ["M1", "M2", "M3", "M4", "M5", "M6"] {
            assert!(a.contains(&format!("\"gen\":\"{g}\"")), "missing {g}: {a}");
        }
    }

    #[test]
    fn repeated_program_job_hits_the_chunk_cache() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let spec = JobSpec::plain(JobKind::Program {
            program: "nested_loops".to_owned(),
            warmup: 500,
            detail: 1_500,
        });
        let a = runner.run(&spec, &ctx).unwrap();
        let after_first = runner.chunk_cache_stats();
        assert!(after_first.misses > 0, "first job decodes chunks: {after_first:?}");
        let b = runner.run(&spec, &ctx).unwrap();
        let after_second = runner.chunk_cache_stats();
        assert_eq!(a, b, "cache reuse must not perturb the payload");
        assert!(
            after_second.hits > after_first.hits,
            "second identical job must hit the shared cache: {after_first:?} -> {after_second:?}"
        );
    }

    #[test]
    fn unknown_program_is_a_typed_config_error() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let spec = JobSpec::plain(JobKind::Program {
            program: "no_such_kernel".to_owned(),
            warmup: 100,
            detail: 100,
        });
        let err = runner.run(&spec, &ctx).unwrap_err();
        assert!(matches!(err, SimError::Config { .. }), "got {err}");
    }

    #[test]
    fn checkpoint_payload_is_deterministic() {
        let runner = BenchRunner::new(1);
        let ctx = JobCtx::detached(CancelToken::new());
        let spec = JobSpec::plain(JobKind::Checkpoint { generation: "m6".to_owned(), warmup: 500 });
        let a = runner.run(&spec, &ctx).unwrap();
        let b = runner.run(&spec, &ctx).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"bytes\":"), "payload reports the image size: {a}");
    }
}
