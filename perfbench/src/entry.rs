//! Every call the benchmark makes into the repository's public API.
//!
//! The benchmark measures each layer from outside, through the same entry
//! points a user calls, and only from this file. A change that renames or
//! removes one of them adapts this file alone, as a change of its own that
//! claims no gain, before any change that claims a gain is measured.
//!
//! Entry points that panic on a simulation error are called under
//! `catch_unwind`, so a failure becomes a counted, failed operation.

use exynos_bench::experiments as exp;
use exynos_bench::service_runner::BenchRunner;
use exynos_core::batch::{ChunkCache, ChunkCacheStats, InstChunk};
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_core::config::CoreConfig;
use exynos_core::sim::SliceResult;
use exynos_service::job::{JobCtx, JobKind, JobRunner, JobSpec};
use exynos_service::json::Json;
use exynos_service::{Engine, JobState, ServiceConfig};
use exynos_trace::{Inst, SlicePlan, SliceSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

pub use exp::{SliceRecord, WarmPool, WarmTiming};
pub use exynos_core::sim::Simulator;
pub use exynos_service::job::JobId;
pub use exynos_telemetry::{SharedSpans, SpanId};

/// Worker threads of every sweep: one, so a run's wall time does not
/// depend on how busy the host's other core is.
const SWEEP_THREADS: usize = 1;

fn caught<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

// ---------------------------------------------------------------- trace

/// The synthetic standard suite at scale 1 (26 slices).
pub fn standard_catalog() -> Vec<SliceSpec> {
    exynos_trace::standard_suite(1)
}

/// The embedded assembler corpus as catalog slices (8 programs).
pub fn program_catalog() -> Result<Vec<SliceSpec>, String> {
    exynos_asm::corpus_slices(SlicePlan::default(), exp::PROGRAM_REGION_BASE)
        .map_err(|e| format!("corpus_slices: {e}"))
}

/// Records per lockstep chunk.
pub const CHUNK_LEN: usize = exynos_core::batch::CHUNK_LEN;

/// Decode `slice`'s stream through the lockstep engine's chunk buffer:
/// drop the first `skip` records, then return each segment's records
/// (lengths from `segments`) in chunks of at most [`CHUNK_LEN`].
pub fn materialize(
    slice: &SliceSpec,
    skip: u64,
    segments: &[u64],
) -> Result<Vec<Vec<Vec<Inst>>>, String> {
    let mut gen = slice.build().map_err(|e| format!("{}: {e}", slice.name))?;
    let mut chunk = InstChunk::new();
    let mut chunks = |n: u64, keep: bool| {
        let mut out = Vec::new();
        let mut rem = n;
        while rem > 0 {
            let take = rem.min(CHUNK_LEN as u64);
            let block = chunk.refill(&mut *gen, take as usize);
            if keep {
                out.push(block.to_vec());
            }
            rem -= take;
        }
        out
    };
    chunks(skip, false);
    Ok(segments.iter().map(|&n| chunks(n, true)).collect())
}

// ----------------------------------------------------------------- core

/// The six generation configurations, M1 first.
pub fn generations() -> Vec<CoreConfig> {
    CoreConfig::all_generations()
}

/// The generation's display name (`"M1"`..`"M6"`).
pub fn gen_name(cfg: &CoreConfig) -> &'static str {
    cfg.gen.name()
}

/// A cold simulator for `cfg`.
pub fn new_sim(cfg: &CoreConfig) -> Result<Simulator, String> {
    SimBuilder::config(cfg.clone())
        .build()
        .map_err(|e| e.to_string())
}

/// Step every record of `block` (the lockstep engine's per-member loop).
pub fn step(sim: &mut Simulator, block: &[Inst]) -> Result<(), String> {
    sim.run_block(block).map_err(|e| e.to_string())
}

/// The scalar reference: one cold simulator running `slice` alone.
pub fn scalar_slice(
    cfg: &CoreConfig,
    slice: &SliceSpec,
    plan: SlicePlan,
) -> Result<SliceResult, String> {
    let mut sim = new_sim(cfg)?;
    let mut gen = slice.build().map_err(|e| format!("{}: {e}", slice.name))?;
    sim.run_slice(&mut *gen, plan).map_err(|e| e.to_string())
}

/// Cumulative simulated event counts of one simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub insts: u64,
    pub cycles: u64,
    pub mispredicts: u64,
    pub bubbles: u64,
    pub loads: u64,
    pub l1_hits: u64,
    pub dram_loads: u64,
    pub prefetch_fills: u64,
    pub uoc_supplied: u64,
}

impl Counts {
    /// Events between `self` (earlier) and `later`.
    pub fn until(&self, later: &Counts) -> Counts {
        Counts {
            insts: later.insts - self.insts,
            cycles: later.cycles - self.cycles,
            mispredicts: later.mispredicts - self.mispredicts,
            bubbles: later.bubbles - self.bubbles,
            loads: later.loads - self.loads,
            l1_hits: later.l1_hits - self.l1_hits,
            dram_loads: later.dram_loads - self.dram_loads,
            prefetch_fills: later.prefetch_fills - self.prefetch_fills,
            uoc_supplied: later.uoc_supplied - self.uoc_supplied,
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.insts += o.insts;
        self.cycles += o.cycles;
        self.mispredicts += o.mispredicts;
        self.bubbles += o.bubbles;
        self.loads += o.loads;
        self.l1_hits += o.l1_hits;
        self.dram_loads += o.dram_loads;
        self.prefetch_fills += o.prefetch_fills;
        self.uoc_supplied += o.uoc_supplied;
    }
}

/// Read `sim`'s public statistics.
pub fn counts(sim: &Simulator) -> Counts {
    let s = sim.stats();
    let fe = sim.frontend().stats();
    let mem = sim.memsys().stats();
    Counts {
        insts: s.instructions,
        cycles: s.last_retire,
        mispredicts: fe.total_mispredicts(),
        bubbles: fe.bubbles,
        loads: mem.loads,
        l1_hits: mem.l1_hits,
        dram_loads: mem.dram_loads,
        prefetch_fills: mem.l1_prefetch_fills + mem.buddy_fills + mem.standalone_fills,
        uoc_supplied: s.uoc_supplied,
    }
}

/// The record a sweep reports for `sim`'s detail window since `begin`.
pub fn record_since(sim: &Simulator, begin: &exynos_core::sim::SliceMeasure) -> SliceResult {
    sim.measure_end(begin)
}

/// The measurement baseline at the start of a detail window.
pub fn measure_begin(sim: &Simulator) -> exynos_core::sim::SliceMeasure {
    sim.measure_begin()
}

// ------------------------------------------------------------- snapshot

/// Encode `sim` into a checkpoint image.
pub fn checkpoint(sim: &Simulator) -> Vec<u8> {
    sim.checkpoint()
}

/// Decode a checkpoint image against `cfg`.
pub fn resume(cfg: &CoreConfig, image: &[u8]) -> Result<Simulator, String> {
    Simulator::resume_with_config(cfg.clone(), image).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- bench

/// The Fig. 9/16/17 sweep: every slice across all six generations
/// through the batched lockstep engine, records generation-major.
pub fn sweep(suite: &[SliceSpec], plan: SlicePlan) -> Result<Vec<SliceRecord>, String> {
    caught("run_suite_batched", || {
        exp::run_suite_batched(suite, plan.warmup, plan.detail, SWEEP_THREADS)
    })
}

/// Warm every (generation, standard-suite slice) pair for `warmup`
/// instructions into a pool of resident simulators and images.
pub fn build_warm_pool(warmup: u64) -> Result<WarmPool, String> {
    exp::try_build_warm_pool(1, warmup, SWEEP_THREADS, &CancelToken::new())
        .map_err(|e| e.to_string())
}

/// One warm sweep forked from `pool`: `detail` measured instructions per
/// job, through a fresh chunk cache as `run_population_warm` does.
pub fn warm_sweep(pool: &WarmPool, detail: u64) -> Result<(Vec<SliceRecord>, WarmTiming), String> {
    let cache = Arc::new(ChunkCache::unbounded());
    caught("run_population_warm_resident", || {
        exp::run_population_warm_resident(pool, detail, SWEEP_THREADS, &cache, false)
    })
}

/// Fork job `i`'s warmed simulator from the pool.
pub fn fork(pool: &WarmPool, i: usize) -> Simulator {
    pool.resident(i)
}

/// Bytes held by the pool's checkpoint images.
pub fn pool_image_bytes(pool: &WarmPool) -> usize {
    pool.bytes()
}

// -------------------------------------------------------------- service

pub fn program_job(program: &str, warmup: u64, detail: u64) -> JobSpec {
    JobSpec::plain(JobKind::Program {
        program: program.to_owned(),
        warmup,
        detail,
    })
}

pub fn sweep_job(warmup: u64, detail: u64) -> JobSpec {
    JobSpec::plain(JobKind::Sweep {
        scale: 1,
        warmup,
        detail,
        threads: SWEEP_THREADS,
    })
}

pub fn checkpoint_job(generation: &str, warmup: u64) -> JobSpec {
    JobSpec::plain(JobKind::Checkpoint {
        generation: generation.to_owned(),
        warmup,
    })
}

/// The job's kind label (`"program"`, `"sweep"`, `"checkpoint"`).
pub fn job_kind(spec: &JobSpec) -> &'static str {
    spec.kind.label()
}

/// The job's canonical encoding (its identity for payload checks).
pub fn job_key(spec: &JobSpec) -> String {
    spec.canonical()
}

/// Names of the corpus programs.
pub fn corpus_programs() -> Vec<&'static str> {
    exynos_asm::CORPUS.iter().map(|(n, _)| *n).collect()
}

/// A `JobRunner` that forwards every call to the service's
/// `BenchRunner` and reports how long each `run` took.
struct TimedRunner<F: Fn(&JobSpec, Duration) + Send + Sync + 'static> {
    inner: BenchRunner,
    on_run: F,
}

impl<F: Fn(&JobSpec, Duration) + Send + Sync + 'static> JobRunner for TimedRunner<F> {
    fn run(&self, spec: &JobSpec, ctx: &JobCtx) -> Result<String, exynos_core::SimError> {
        let t = std::time::Instant::now();
        let r = self.inner.run(spec, ctx);
        (self.on_run)(spec, t.elapsed());
        r
    }

    fn chunk_cache_stats(&self) -> ChunkCacheStats {
        self.inner.chunk_cache_stats()
    }

    fn take_pipeline_stalls(&self) -> Vec<u64> {
        self.inner.take_pipeline_stalls()
    }
}

/// An in-process engine with `workers` workers and no journal, running
/// jobs on a fresh `BenchRunner` wrapped to report each run's duration
/// to `on_run`. Returns the engine and the runner's chunk cache.
pub fn start_engine<F>(workers: usize, on_run: F) -> Result<(Engine, Arc<ChunkCache>), String>
where
    F: Fn(&JobSpec, Duration) + Send + Sync + 'static,
{
    let inner = BenchRunner::new(SWEEP_THREADS);
    let cache = Arc::clone(inner.chunk_cache());
    let runner = TimedRunner { inner, on_run };
    let cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let engine = Engine::start(Box::new(runner), cfg).map_err(|e| format!("engine start: {e}"))?;
    Ok((engine, cache))
}

pub fn submit(engine: &Engine, spec: JobSpec) -> Result<JobId, String> {
    engine
        .submit(spec, None, None)
        .map_err(|e| format!("submit refused: {e:?}"))
}

/// A job's outcome once terminal: `Some(Ok(payload))`, `Some(Err(why))`,
/// or `None` while it is still queued or running.
pub fn outcome(engine: &Engine, id: JobId) -> Option<Result<String, String>> {
    let st = engine.status(id)?;
    match st.state {
        JobState::Completed => Some(
            st.payload
                .ok_or_else(|| "completed without payload".to_owned()),
        ),
        JobState::Failed => Some(Err(format!(
            "{}: {}",
            st.error_kind.unwrap_or_default(),
            st.error.unwrap_or_default()
        ))),
        JobState::Queued | JobState::Running => None,
    }
}

/// Drain and stop the engine's workers.
pub fn stop_engine(engine: &Engine) -> bool {
    engine.drain(Duration::from_secs(120))
}

/// `(stage, duration_us)` of every closed span the engine recorded for
/// job `id` (`submit`, `queue_wait`, `attempt[n]`, `result_encode`, `job`).
pub fn job_stage_durations(engine: &Engine, id: JobId) -> Vec<(String, u64)> {
    let Some(jsonl) = engine.job_spans(id) else {
        return Vec::new();
    };
    jsonl
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| {
            let name = v.get("name")?.as_str()?.to_owned();
            let dur = v.get("dur_us")?.as_u64()?;
            Some((name, dur))
        })
        .collect()
}

/// The engine's `retries` and `sheds` counters.
pub fn retries_and_sheds(engine: &Engine) -> (u64, u64) {
    let stats = Json::parse(&engine.stats_json()).ok();
    let get = |k: &str| {
        stats
            .as_ref()
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (get("retries"), get("sheds"))
}

/// Run `spec` on a fresh runner outside any engine (the payload oracle).
pub fn run_detached(spec: &JobSpec) -> Result<String, String> {
    BenchRunner::new(SWEEP_THREADS)
        .run(spec, &JobCtx::detached(CancelToken::new()))
        .map_err(|e| e.to_string())
}

/// Parse a JSON document (the tests read `BENCHMARK.json` with it).
#[cfg(test)]
pub fn parse_json(text: &str) -> Result<Json, String> {
    Json::parse(text)
}
