//! The job engine: queue, workers, robustness envelope, journal.
//!
//! Every job admitted by [`Engine::submit`] travels one path:
//!
//! 1. **Admission** — refused typed (`ShuttingDown`, `Quarantined`,
//!    `Overloaded`) before any work is spent.
//! 2. **Write-ahead journal** — the spec is durable before the job can
//!    run, so a `kill -9` at any later point is recoverable.
//! 3. **Execution** — a worker runs the spec with a [`CancelToken`]
//!    armed with the job's deadline; the core step loop polls it.
//! 4. **Retry** — a retryable [`SimError`] re-queues the job after
//!    exponential backoff, up to the envelope's `max_retries`.
//! 5. **Terminal record** — completion payload or typed failure is
//!    journaled, making results durable across restarts too.
//!
//! Recovery ([`Engine::start`] with a journal path) replays the clean
//! prefix: jobs with terminal records come back queryable, jobs without
//! re-enqueue in submission order. Because every job is deterministic,
//! the re-run payloads are byte-identical to what the crashed server
//! would have produced.

use crate::breaker::{CircuitBreaker, Quarantined};
use crate::job::{JobCtx, JobId, JobRunner, JobSpec, JobState};
use crate::json::{self, Json};
use crate::queue::BoundedQueue;
use exynos_core::cancel::CancelToken;
use exynos_snapshot::journal::{self, JournalWriter};
use exynos_telemetry::{
    FlightRecorder, MetricId, MetricsRegistry, SharedSpans, SpanId, DEFAULT_FLIGHT_CAPACITY,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Journal record kind: a job submission (write-ahead).
const REC_SUBMIT: u8 = 1;
/// Journal record kind: a terminal outcome.
const REC_TERMINAL: u8 = 2;

/// Canonical latency-stage names; every span name maps onto one of
/// these (or is dropped) when job spans are folded into the per-stage
/// quantile histograms at `service.latency.<stage>`.
const STAGES: [&str; 7] = [
    "job_total",
    "submit",
    "queue_wait",
    "attempt",
    "warm_pool_fetch",
    "slice",
    "result_encode",
];

/// Map a span name to its latency stage: the root `job` span becomes
/// `job_total`, indexed spans (`attempt[2]`, `slice[m3/0]`) fold onto
/// their base name, unknown names are skipped.
fn base_stage(name: &str) -> Option<&'static str> {
    let base = name.split('[').next().unwrap_or(name);
    if base == "job" {
        return Some("job_total");
    }
    STAGES.iter().find(|s| **s == base).copied()
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (0 = accept/journal only, used by
    /// crash-recovery tests to model a server that dies before running).
    pub workers: usize,
    /// Bounded queue capacity; beyond it submissions shed with
    /// `Overloaded`.
    pub queue_capacity: usize,
    /// Default retry budget for retryable errors.
    pub default_max_retries: u32,
    /// First retry backoff in ms (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in ms.
    pub backoff_cap_ms: u64,
    /// Consecutive watchdog failures before a config is quarantined.
    pub breaker_threshold: u32,
    /// Completions after a trip before a half-open probe is admitted.
    pub breaker_cooldown_jobs: u64,
    /// Write-ahead journal path (`None` = volatile engine).
    pub journal_path: Option<PathBuf>,
    /// Directory receiving flight-recorder post-mortem dumps
    /// (`postmortem-N.jsonl`); `None` keeps dumps in memory only.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_max_retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            breaker_threshold: 3,
            breaker_cooldown_jobs: 8,
            journal_path: None,
            postmortem_dir: None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; carries its depth.
    Overloaded {
        /// Queue depth at rejection.
        depth: usize,
    },
    /// The configuration is quarantined by the circuit breaker.
    Quarantined {
        /// Consecutive watchdog failures that opened the breaker.
        failures: u32,
    },
    /// The engine is draining for shutdown.
    ShuttingDown,
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Execution attempts so far.
    pub attempts: u32,
    /// Terminal error kind (stable label), if failed.
    pub error_kind: Option<String>,
    /// Terminal error message, if failed.
    pub error: Option<String>,
    /// Result payload, if completed.
    pub payload: Option<String>,
    /// Whether the job was re-enqueued by journal recovery.
    pub recovered: bool,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    deadline_ms: u64,
    max_retries: u32,
    state: JobState,
    attempts: u32,
    error_kind: Option<String>,
    error: Option<String>,
    payload: Option<String>,
    cancel: CancelToken,
    deadline_armed: bool,
    recovered: bool,
    /// The job's span trace.
    spans: SharedSpans,
    /// Root `job` span covering submit through terminal.
    root_span: SpanId,
    /// The currently open `queue_wait` span, closed at dequeue.
    queue_span: Option<SpanId>,
}

impl JobEntry {
    fn new(spec: JobSpec, deadline_ms: u64, max_retries: u32) -> JobEntry {
        JobEntry {
            spec,
            deadline_ms,
            max_retries,
            state: JobState::Queued,
            attempts: 0,
            error_kind: None,
            error: None,
            payload: None,
            cancel: CancelToken::new(),
            deadline_armed: false,
            recovered: false,
            spans: SharedSpans::new(),
            root_span: SpanId::default(),
            queue_span: None,
        }
    }
}

/// The engine's persistent ops registry, the one home of every service
/// counter: the job and queue counters, the queue-depth gauge sampled on
/// every queue transition, and the per-stage latency quantiles. One
/// instance lives for the life of the engine (unlike the point-in-time
/// snapshot [`Engine::metrics_registry`] hands out), which is what lets
/// the counters and quantile histograms accumulate.
struct Ops {
    registry: MetricsRegistry,
    queue_depth: MetricId,
    /// Submissions shed by backpressure.
    shed_total: MetricId,
    /// Retry attempts performed.
    retry_total: MetricId,
    /// Jobs admitted (including journal recoveries).
    submitted: MetricId,
    /// Jobs completed with a payload.
    completed: MetricId,
    /// Jobs ending in a typed failure.
    failed: MetricId,
    /// Submissions refused by the circuit breaker.
    quarantined: MetricId,
    /// Jobs failed because their deadline expired.
    deadline_misses: MetricId,
    /// Jobs cancelled explicitly.
    cancelled: MetricId,
    /// Incomplete jobs re-enqueued by journal recovery.
    recovered: MetricId,
    /// Flight-recorder post-mortem dumps taken.
    postmortems: MetricId,
    cache_hit_total: MetricId,
    cache_miss_total: MetricId,
    cache_eviction_total: MetricId,
    cache_bytes: MetricId,
    /// Runner cache stats at the last sample, so each job folds in only
    /// its own delta (the runner counters are cumulative).
    last_cache: exynos_core::batch::ChunkCacheStats,
}

impl Ops {
    fn new() -> Ops {
        let mut registry = MetricsRegistry::new();
        let queue_depth = registry.gauge("service.queue", "depth");
        let shed_total = registry.counter("service.queue", "shed_total");
        let retry_total = registry.counter("service.queue", "retry_total");
        let submitted = registry.counter("service.jobs", "submitted");
        let completed = registry.counter("service.jobs", "completed");
        let failed = registry.counter("service.jobs", "failed");
        let quarantined = registry.counter("service.jobs", "quarantined");
        let deadline_misses = registry.counter("service.jobs", "deadline_misses");
        let cancelled = registry.counter("service.jobs", "cancelled");
        let recovered = registry.counter("service.jobs", "recovered");
        let postmortems = registry.counter("service.flight", "postmortems");
        let cache_hit_total = registry.counter("chunk_cache", "hit_total");
        let cache_miss_total = registry.counter("chunk_cache", "miss_total");
        let cache_eviction_total = registry.counter("chunk_cache", "eviction_total");
        let cache_bytes = registry.gauge("chunk_cache", "bytes");
        for stage in STAGES {
            registry.quantile_histogram("service.latency", stage);
        }
        Ops {
            registry,
            queue_depth,
            shed_total,
            retry_total,
            submitted,
            completed,
            failed,
            quarantined,
            deadline_misses,
            cancelled,
            recovered,
            postmortems,
            cache_hit_total,
            cache_miss_total,
            cache_eviction_total,
            cache_bytes,
            last_cache: exynos_core::batch::ChunkCacheStats::default(),
        }
    }
}

struct Inner {
    runner: Box<dyn JobRunner>,
    cfg: ServiceConfig,
    queue: BoundedQueue<JobId>,
    jobs: Mutex<HashMap<JobId, JobEntry>>,
    next_id: AtomicU64,
    journal: Mutex<Option<JournalWriter>>,
    journal_seq: AtomicU64,
    breaker: CircuitBreaker,
    draining: AtomicBool,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    running: AtomicUsize,
    journal_torn: AtomicBool,
    ops: Mutex<Ops>,
    flight: Mutex<FlightRecorder>,
    last_postmortem: Mutex<Option<String>>,
    /// Wall anchor for flight-recorder event timestamps.
    epoch: Instant,
}

fn lock_ops(m: &Mutex<Ops>) -> MutexGuard<'_, Ops> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Add `n` to the ops counter `pick` selects. Never called with the jobs
/// lock held.
fn ops_count(inner: &Inner, pick: fn(&Ops) -> MetricId, n: u64) {
    let mut ops = lock_ops(&inner.ops);
    let id = pick(&ops);
    ops.registry.add(id, n);
}

/// Refresh the queue-depth gauge; call after every queue transition.
fn ops_queue_depth(inner: &Inner) {
    let depth = inner.queue.len() as f64;
    let mut ops = lock_ops(&inner.ops);
    let id = ops.queue_depth;
    ops.registry.set_gauge(id, depth);
}

/// Fold one closed span duration into its stage's quantile histogram.
fn ops_observe_stage(inner: &Inner, stage: &'static str, dur_us: u64) {
    let mut ops = lock_ops(&inner.ops);
    let id = ops.registry.quantile_histogram("service.latency", stage);
    ops.registry.observe(id, dur_us);
}

/// Sample the runner's cumulative chunk-cache stats and fold the delta
/// since the previous sample into the ops registry. Called once per
/// finished job so the counters track job-attributable work.
fn ops_sample_chunk_cache(inner: &Inner) {
    let now = inner.runner.chunk_cache_stats();
    let mut ops = lock_ops(&inner.ops);
    let prev = ops.last_cache;
    ops.last_cache = now;
    let (hit, miss, evict, bytes) = (
        ops.cache_hit_total,
        ops.cache_miss_total,
        ops.cache_eviction_total,
        ops.cache_bytes,
    );
    ops.registry.add(hit, now.hits.saturating_sub(prev.hits));
    ops.registry.add(miss, now.misses.saturating_sub(prev.misses));
    ops.registry.add(evict, now.evictions.saturating_sub(prev.evictions));
    ops.registry.set_gauge(bytes, now.bytes as f64);
}

/// Append one `{"type":"event",...}` line to the flight ring.
fn flight_note(inner: &Inner, event: &str, id: JobId, extra: &[(&str, u64)]) {
    let mut line = String::from("{");
    json::push_key(&mut line, true, "type");
    json::push_str(&mut line, "event");
    json::push_key(&mut line, false, "t_us");
    json::push_u64(&mut line, inner.epoch.elapsed().as_micros() as u64);
    json::push_key(&mut line, false, "event");
    json::push_str(&mut line, event);
    json::push_key(&mut line, false, "id");
    json::push_u64(&mut line, id);
    for (k, v) in extra {
        json::push_key(&mut line, false, k);
        json::push_u64(&mut line, *v);
    }
    line.push('}');
    match inner.flight.lock() {
        Ok(mut fr) => fr.note(line),
        Err(p) => p.into_inner().note(line),
    }
}

/// Feed a terminating job's rendered spans into the flight ring so a
/// post-mortem carries the traces of the jobs leading up to the trigger.
fn flight_note_spans(inner: &Inner, spans: &SharedSpans) {
    let jsonl = spans.to_jsonl();
    let mut fr = match inner.flight.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    for line in jsonl.lines() {
        fr.note(line.to_string());
    }
}

/// Take a post-mortem dump: snapshot the flight ring, stash it as the
/// latest dump, and (when configured) persist it to
/// `postmortem_dir/postmortem-N.jsonl`.
fn flight_dump(inner: &Inner, reason: &str) {
    let dump = match inner.flight.lock() {
        Ok(mut fr) => fr.dump(reason),
        Err(p) => p.into_inner().dump(reason),
    };
    let n = {
        let mut ops = lock_ops(&inner.ops);
        let id = ops.postmortems;
        ops.registry.add(id, 1);
        ops.registry.scalar(id) as u64
    };
    if let Some(dir) = &inner.cfg.postmortem_dir {
        // A failed dump write is survivable: the in-memory copy below
        // still serves the `postmortem` protocol command.
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("postmortem-{n}.jsonl")), &dump);
    }
    match inner.last_postmortem.lock() {
        Ok(mut g) => *g = Some(dump),
        Err(p) => *p.into_inner() = Some(dump),
    }
}

/// The long-lived job tier; see the [module docs](self).
pub struct Engine {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn lock_jobs(m: &Mutex<HashMap<JobId, JobEntry>>) -> MutexGuard<'_, HashMap<JobId, JobEntry>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Engine {
    /// Start an engine: open/replay the journal, then spawn workers.
    pub fn start(
        runner: Box<dyn JobRunner>,
        cfg: ServiceConfig,
    ) -> Result<Engine, journal::JournalError> {
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(cfg.queue_capacity),
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_jobs),
            runner,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            journal: Mutex::new(None),
            journal_seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            journal_torn: AtomicBool::new(false),
            ops: Mutex::new(Ops::new()),
            flight: Mutex::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
            last_postmortem: Mutex::new(None),
            epoch: Instant::now(),
            cfg,
        });
        if let Some(path) = inner.cfg.journal_path.clone() {
            recover(&inner, &path)?;
            if let Ok(mut j) = inner.journal.lock() {
                *j = Some(JournalWriter::open(&path)?);
            }
        }
        let mut workers = Vec::new();
        for _ in 0..inner.cfg.workers {
            let w = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&w)));
        }
        Ok(Engine { inner, workers: Mutex::new(workers) })
    }

    /// Submit a job. A `deadline_ms` of `None` (or 0) sets no deadline;
    /// a `max_retries` of `None` takes the engine default.
    pub fn submit(
        &self,
        spec: JobSpec,
        deadline_ms: Option<u64>,
        max_retries: Option<u32>,
    ) -> Result<JobId, SubmitError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        if let Err(Quarantined { failures, .. }) = inner.breaker.admit(spec.config_key()) {
            ops_count(inner, |o| o.quarantined, 1);
            return Err(SubmitError::Quarantined { failures });
        }
        let deadline_ms = deadline_ms.unwrap_or(0);
        let max_retries = max_retries.unwrap_or(inner.cfg.default_max_retries);
        let id = inner.next_id.fetch_add(1, Ordering::AcqRel) + 1;
        let mut entry = JobEntry::new(spec, deadline_ms, max_retries);
        entry.root_span = entry.spans.start("job", None);
        entry.spans.attr_u64(entry.root_span, "id", id);
        entry.spans.attr_str(entry.root_span, "kind", entry.spec.kind.label());
        entry.spans.attr_u64(entry.root_span, "config_key", entry.spec.config_key());
        let submit_span = entry.spans.start("submit", Some(entry.root_span));
        // Write-ahead: the submission is durable before the job becomes
        // runnable, so no admitted job can be lost to a crash.
        journal_submit(inner, id, &entry.spec, deadline_ms, max_retries);
        entry.spans.end(submit_span);
        entry.queue_span = Some(entry.spans.start("queue_wait", Some(entry.root_span)));
        let key = entry.spec.config_key();
        {
            let mut jobs = lock_jobs(&inner.jobs);
            jobs.insert(id, entry);
        }
        flight_note(inner, "submitted", id, &[("config_key", key)]);
        if let Err(full) = inner.queue.try_push(id) {
            ops_count(inner, |o| o.shed_total, 1);
            ops_queue_depth(inner);
            flight_note(inner, "shed", id, &[("depth", full.depth as u64)]);
            finish_job(inner, id, Err(("overloaded".into(), "queue full at submission".into())));
            return Err(SubmitError::Overloaded { depth: full.depth });
        }
        ops_queue_depth(inner);
        ops_count(inner, |o| o.submitted, 1);
        Ok(id)
    }

    /// Cooperatively cancel a job. Returns `false` for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let cancelled = match lock_jobs(&self.inner.jobs).get(&id) {
            Some(e) if !e.state.is_terminal() => {
                e.cancel.cancel();
                true
            }
            _ => false,
        };
        if cancelled {
            ops_count(&self.inner, |o| o.cancelled, 1);
        }
        cancelled
    }

    /// Point-in-time status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let jobs = lock_jobs(&self.inner.jobs);
        jobs.get(&id).map(|e| JobStatus {
            id,
            state: e.state,
            attempts: e.attempts,
            error_kind: e.error_kind.clone(),
            error: e.error.clone(),
            payload: e.payload.clone(),
            recovered: e.recovered,
        })
    }

    /// Ops snapshot as a one-line JSON object.
    pub fn stats_json(&self) -> String {
        let inner = &self.inner;
        let ops = lock_ops(&inner.ops);
        // Counts stay far below 2^53, so the f64 slot value is exact.
        let count = |pick: fn(&Ops) -> MetricId| ops.registry.scalar(pick(&ops)) as u64;
        let mut out = String::from("{");
        let mut field = |first: bool, key: &str, v: u64| {
            json::push_key(&mut out, first, key);
            json::push_u64(&mut out, v);
        };
        field(true, "queue_depth", inner.queue.len() as u64);
        field(false, "running", inner.running.load(Ordering::Acquire) as u64);
        field(false, "submitted", count(|o| o.submitted));
        field(false, "completed", count(|o| o.completed));
        field(false, "failed", count(|o| o.failed));
        field(false, "retries", count(|o| o.retry_total));
        field(false, "sheds", count(|o| o.shed_total));
        field(false, "quarantined", count(|o| o.quarantined));
        field(false, "deadline_misses", count(|o| o.deadline_misses));
        field(false, "cancelled", count(|o| o.cancelled));
        field(false, "recovered", count(|o| o.recovered));
        field(false, "breaker_open", inner.breaker.open_count() as u64);
        json::push_key(&mut out, false, "journal_torn");
        out.push_str(if inner.journal_torn.load(Ordering::Relaxed) { "true" } else { "false" });
        json::push_key(&mut out, false, "draining");
        out.push_str(if inner.draining.load(Ordering::Relaxed) { "true" } else { "false" });
        out.push('}');
        out
    }

    /// A point-in-time snapshot of the engine's persistent ops registry
    /// (job and queue counters, per-stage latency quantiles), with the
    /// queue-depth, running-worker and open-breaker gauges refreshed.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let inner = &self.inner;
        let mut r = lock_ops(&inner.ops).registry.clone();
        let depth = r.gauge("service.queue", "depth");
        r.set_gauge(depth, inner.queue.len() as f64);
        let running = r.gauge("service.workers", "running");
        r.set_gauge(running, inner.running.load(Ordering::Acquire) as f64);
        let open = r.gauge("service.breaker", "open");
        r.set_gauge(open, inner.breaker.open_count() as f64);
        r
    }

    /// The ops registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics_registry().render_prometheus()
    }

    /// Per-stage latency summaries as one JSON object keyed
    /// `service.latency.<stage>`, each value a
    /// [`QuantileHistogram::push_summary_json`](exynos_telemetry::QuantileHistogram::push_summary_json)
    /// digest.
    pub fn quantiles_json(&self) -> String {
        let ops = lock_ops(&self.inner.ops);
        let mut out = String::from("{");
        let mut first = true;
        ops.registry.for_each_quantile(&mut |component, name, q| {
            json::push_key(&mut out, first, &format!("{component}.{name}"));
            q.push_summary_json(&mut out);
            first = false;
        });
        out.push('}');
        out
    }

    /// One job's span trace as JSON Lines (`None` for an unknown job).
    pub fn job_spans(&self, id: JobId) -> Option<String> {
        let jobs = lock_jobs(&self.inner.jobs);
        jobs.get(&id).map(|e| e.spans.to_jsonl())
    }

    /// Post-mortem dumps taken since start.
    pub fn postmortem_count(&self) -> u64 {
        let ops = lock_ops(&self.inner.ops);
        ops.registry.scalar(ops.postmortems) as u64
    }

    /// The most recent post-mortem dump (JSONL), if any.
    pub fn last_postmortem(&self) -> Option<String> {
        match self.inner.last_postmortem.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Metrics registry rendered as one JSON object
    /// (`{"component.name":scalar}`).
    pub fn metrics_json(&self) -> String {
        let r = self.metrics_registry();
        let mut out = String::from("{");
        let mut first = true;
        r.for_each(&mut |component, name, _kind, scalar| {
            json::push_key(&mut out, first, &format!("{component}.{name}"));
            json::push_f64(&mut out, scalar);
            first = false;
        });
        out.push('}');
        out
    }

    /// Flag a client-requested shutdown (starts draining; the socket
    /// accept loop observes this and exits after the drain).
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::Release);
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Whether a client requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admissions, wait up to `timeout` for the
    /// queue and in-flight jobs to drain, then stop and join the
    /// workers. Returns `true` when everything drained in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + timeout;
        let mut drained = false;
        while Instant::now() < deadline {
            if inner.queue.is_empty() && inner.running.load(Ordering::Acquire) == 0 {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        inner.stop.store(true, Ordering::Release);
        let handles = match self.workers.lock() {
            Ok(mut w) => std::mem::take(&mut *w),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
        drained
    }

    /// Hard stop for crash-style tests: workers are told to exit at the
    /// next poll, *without* draining the queue. Queued jobs keep only
    /// their journal submit records — exactly the state a `kill -9`
    /// leaves behind.
    pub fn abort(&self) {
        self.inner.stop.store(true, Ordering::Release);
        let handles = match self.workers.lock() {
            Ok(mut w) => std::mem::take(&mut *w),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Current queue depth (tests and ops).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }
}

// ---------------- journal ----------------

fn journal_append(inner: &Inner, kind: u8, payload: &str) {
    let mut guard = match inner.journal.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(writer) = guard.as_mut() {
        let seq = inner.journal_seq.fetch_add(1, Ordering::AcqRel) + 1;
        // A failed journal write is survivable for the live engine (the
        // in-memory state is authoritative); it only narrows what a
        // restart can recover.
        let _ = writer.append(kind, seq, payload.as_bytes());
    }
}

fn journal_submit(inner: &Inner, id: JobId, spec: &JobSpec, deadline_ms: u64, max_retries: u32) {
    let mut p = String::from("{");
    json::push_key(&mut p, true, "id");
    json::push_u64(&mut p, id);
    json::push_key(&mut p, false, "deadline_ms");
    json::push_u64(&mut p, deadline_ms);
    json::push_key(&mut p, false, "max_retries");
    json::push_u64(&mut p, max_retries as u64);
    json::push_key(&mut p, false, "spec");
    p.push_str(&spec.canonical());
    p.push('}');
    journal_append(inner, REC_SUBMIT, &p);
}

fn journal_terminal(inner: &Inner, id: JobId, outcome: &Result<String, (String, String)>) {
    let mut p = String::from("{");
    json::push_key(&mut p, true, "id");
    json::push_u64(&mut p, id);
    match outcome {
        Ok(payload) => {
            json::push_key(&mut p, false, "state");
            json::push_str(&mut p, "completed");
            json::push_key(&mut p, false, "payload");
            json::push_str(&mut p, payload);
        }
        Err((kind, msg)) => {
            json::push_key(&mut p, false, "state");
            json::push_str(&mut p, "failed");
            json::push_key(&mut p, false, "kind");
            json::push_str(&mut p, kind);
            json::push_key(&mut p, false, "error");
            json::push_str(&mut p, msg);
        }
    }
    p.push('}');
    journal_append(inner, REC_TERMINAL, &p);
}

/// Replay the clean journal prefix into the engine's job table.
fn recover(inner: &Arc<Inner>, path: &std::path::Path) -> Result<(), journal::JournalError> {
    let scan = journal::scan(path)?;
    if scan.torn_tail {
        inner.journal_torn.store(true, Ordering::Relaxed);
    }
    let mut max_id = 0u64;
    let mut max_seq = 0u64;
    // id → (spec, deadline, retries), in submission order via sorted replay.
    let mut submits: Vec<(JobId, JobSpec, u64, u32)> = Vec::new();
    let mut terminals: HashMap<JobId, Result<String, (String, String)>> = HashMap::new();
    for rec in &scan.records {
        max_seq = rec.seq;
        let Ok(text) = std::str::from_utf8(&rec.payload) else { continue };
        let Ok(v) = Json::parse(text) else { continue };
        let Some(id) = v.get("id").and_then(Json::as_u64) else { continue };
        max_id = max_id.max(id);
        match rec.kind {
            REC_SUBMIT => {
                let Some(spec_v) = v.get("spec") else { continue };
                let Ok(spec) = JobSpec::from_json(spec_v) else { continue };
                let dl = v.get("deadline_ms").and_then(Json::as_u64).unwrap_or(0);
                let mr = v.get("max_retries").and_then(Json::as_u32).unwrap_or(0);
                submits.push((id, spec, dl, mr));
            }
            REC_TERMINAL => {
                let outcome = match v.get("state").and_then(Json::as_str) {
                    Some("completed") => Ok(v
                        .get("payload")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()),
                    _ => Err((
                        v.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_owned(),
                        v.get("error").and_then(Json::as_str).unwrap_or_default().to_owned(),
                    )),
                };
                terminals.insert(id, outcome);
            }
            _ => {}
        }
    }
    submits.sort_by_key(|(id, ..)| *id);
    let mut requeued = 0;
    let mut jobs = lock_jobs(&inner.jobs);
    for (id, spec, deadline_ms, max_retries) in submits {
        let terminal = terminals.remove(&id);
        let incomplete = terminal.is_none();
        let (state, payload, error_kind, error) = match terminal {
            Some(Ok(payload)) => (JobState::Completed, Some(payload), None, None),
            Some(Err((kind, msg))) => (JobState::Failed, None, Some(kind), Some(msg)),
            None => (JobState::Queued, None, None, None),
        };
        let mut entry = JobEntry::new(spec, deadline_ms, max_retries);
        entry.state = state;
        entry.payload = payload;
        entry.error_kind = error_kind;
        entry.error = error;
        entry.recovered = incomplete;
        // Recovered traces start at replay time: the original timings
        // died with the previous incarnation.
        entry.root_span = entry.spans.start("job", None);
        entry.spans.attr_u64(entry.root_span, "id", id);
        entry.spans.attr_str(entry.root_span, "kind", entry.spec.kind.label());
        entry.spans.attr_u64(entry.root_span, "recovered", 1);
        if incomplete {
            entry.queue_span = Some(entry.spans.start("queue_wait", Some(entry.root_span)));
        } else {
            entry.spans.end(entry.root_span);
        }
        jobs.insert(id, entry);
        if incomplete {
            // Recovery bypasses admission control: these jobs were
            // already admitted by the previous incarnation.
            inner.queue.push_force(id);
            flight_note(inner, "recovered", id, &[]);
            requeued += 1;
        }
    }
    drop(jobs);
    ops_count(inner, |o| o.recovered, requeued);
    ops_count(inner, |o| o.submitted, requeued);
    ops_queue_depth(inner);
    inner.next_id.store(max_id, Ordering::Release);
    inner.journal_seq.store(max_seq, Ordering::Release);
    if scan.torn_tail {
        // A torn tail means the previous incarnation died mid-write:
        // leave a post-mortem trail for the operator who asks why.
        flight_note(inner, "torn_journal", 0, &[("records", scan.records.len() as u64)]);
        flight_dump(inner, "torn_journal");
    }
    Ok(())
}

// ---------------- workers ----------------

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let Some(id) = inner.queue.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        ops_queue_depth(inner);
        inner.running.fetch_add(1, Ordering::AcqRel);
        run_one(inner, id);
        inner.running.fetch_sub(1, Ordering::AcqRel);
    }
}

fn run_one(inner: &Arc<Inner>, id: JobId) {
    let (spec, cancel, attempt, max_retries, spans, attempt_span) = {
        let mut jobs = lock_jobs(&inner.jobs);
        let Some(e) = jobs.get_mut(&id) else { return };
        if e.state.is_terminal() {
            return;
        }
        e.state = JobState::Running;
        e.attempts += 1;
        if e.deadline_ms > 0 && !e.deadline_armed {
            // The deadline covers the whole envelope — every retry and
            // its backoff — measured from first execution.
            e.cancel.set_deadline(Instant::now() + Duration::from_millis(e.deadline_ms));
            e.deadline_armed = true;
        }
        if let Some(q) = e.queue_span.take() {
            e.spans.end(q);
        }
        let attempt_span = e.spans.start(&format!("attempt[{}]", e.attempts), Some(e.root_span));
        e.spans.attr_u64(attempt_span, "attempt", e.attempts as u64);
        (e.spec.clone(), e.cancel.clone(), e.attempts, e.max_retries, e.spans.clone(), attempt_span)
    };
    let key = spec.config_key();
    flight_note(inner, "attempt", id, &[("n", attempt as u64)]);
    let ctx = JobCtx { cancel, spans: spans.clone(), attempt: attempt_span };
    match inner.runner.run(&spec, &ctx) {
        Ok(payload) => {
            spans.end(attempt_span);
            inner.breaker.record_success(key);
            finish_job(inner, id, Ok(payload));
        }
        Err(err) => {
            let kind = err.kind();
            spans.attr_str(attempt_span, "error_kind", kind);
            spans.end(attempt_span);
            let retryable =
                err.is_retryable() && attempt <= max_retries && !inner.stop.load(Ordering::Acquire);
            if retryable {
                flight_note(inner, "retry", id, &[("after_attempt", attempt as u64)]);
                backoff_sleep(inner, attempt);
                {
                    let mut jobs = lock_jobs(&inner.jobs);
                    if let Some(e) = jobs.get_mut(&id) {
                        e.state = JobState::Queued;
                        e.queue_span = Some(e.spans.start("queue_wait", Some(e.root_span)));
                    }
                }
                // Retries bypass admission: the job already holds a slot
                // in the envelope's eyes.
                inner.queue.push_force(id);
                ops_count(inner, |o| o.retry_total, 1);
                ops_queue_depth(inner);
                return;
            }
            if kind == "deadline" {
                ops_count(inner, |o| o.deadline_misses, 1);
            }
            if kind == "forward_progress_stall" {
                if inner.breaker.record_watchdog_failure(key) {
                    flight_note(inner, "breaker_open", id, &[("config_key", key)]);
                    flight_dump(inner, "breaker_open");
                }
            } else {
                inner.breaker.record_other_failure(key);
            }
            finish_job(inner, id, Err((kind.to_owned(), err.to_string())));
        }
    }
}

/// Exponential backoff: `base * 2^(attempt-1)`, capped. Sleeps in short
/// slices so an engine stop is honoured promptly.
fn backoff_sleep(inner: &Inner, attempt: u32) {
    let base = inner.cfg.backoff_base_ms;
    let exp = base.saturating_mul(1u64 << (attempt - 1).min(20));
    let mut remaining = exp.min(inner.cfg.backoff_cap_ms);
    while remaining > 0 && !inner.stop.load(Ordering::Acquire) {
        let slice = remaining.min(20);
        std::thread::sleep(Duration::from_millis(slice));
        remaining -= slice;
    }
}

/// Journal the terminal record, then publish it to the job table.
///
/// This is also where the job's span tree is sealed: a `result_encode`
/// span wraps the journal write and publication, the root closes, closed
/// durations feed the per-stage latency quantiles, and failures dump the
/// flight recorder keyed by error kind.
fn finish_job(inner: &Inner, id: JobId, outcome: Result<String, (String, String)>) {
    let tele = {
        let mut jobs = lock_jobs(&inner.jobs);
        jobs.get_mut(&id).map(|e| {
            if let Some(q) = e.queue_span.take() {
                e.spans.end(q);
            }
            (e.spans.clone(), e.root_span)
        })
    };
    let encode_span = tele.as_ref().map(|(spans, root)| spans.start("result_encode", Some(*root)));
    journal_terminal(inner, id, &outcome);
    let failed_kind = outcome.as_ref().err().map(|(k, _)| k.clone());
    // Counted before the terminal state is published, so a caller that
    // sees the job terminal also sees it counted.
    ops_count(inner, if outcome.is_ok() { |o| o.completed } else { |o| o.failed }, 1);
    {
        let mut jobs = lock_jobs(&inner.jobs);
        if let Some(e) = jobs.get_mut(&id) {
            match outcome {
                Ok(payload) => {
                    e.state = JobState::Completed;
                    e.payload = Some(payload);
                }
                Err((kind, msg)) => {
                    e.state = JobState::Failed;
                    e.error_kind = Some(kind);
                    e.error = Some(msg);
                }
            }
        }
    }
    let Some((spans, root)) = tele else { return };
    if let Some(s) = encode_span {
        spans.end(s);
    }
    spans.end(root);
    for (name, dur_us) in spans.closed_durations() {
        if let Some(stage) = base_stage(&name) {
            ops_observe_stage(inner, stage, dur_us);
        }
    }
    ops_sample_chunk_cache(inner);
    flight_note_spans(inner, &spans);
    match failed_kind {
        None => flight_note(inner, "completed", id, &[]),
        Some(kind) => {
            flight_note(inner, "failed", id, &[]);
            flight_dump(inner, &kind);
        }
    }
}
