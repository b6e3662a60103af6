//! Job specifications, the robustness envelope, and the runner contract.
//!
//! A [`JobSpec`] is everything needed to *deterministically* reproduce a
//! piece of work: the job kind with its windows, plus optional fault /
//! watchdog / decode knobs. Determinism is what makes the write-ahead
//! journal a recovery mechanism rather than a best-effort hint — a
//! journaled spec re-run after a crash produces a byte-identical payload.
//!
//! The spec's canonical JSON encoding (stable field order, defaults
//! omitted) serves three masters: the wire protocol echo, the journal
//! record, and the FNV-1a [`config key`](JobSpec::config_key) the
//! circuit breaker quarantines on.

use crate::json::{self, Json};
use exynos_core::cancel::CancelToken;
use exynos_core::error::SimError;
use exynos_telemetry::{SharedSpans, SpanId};

/// Job identifier, unique per journal lineage.
pub type JobId = u64;

/// What kind of work a job performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A population sweep: the standard suite at `scale` across all six
    /// generations, on `threads` workers.
    Sweep {
        /// Suite scale factor (slices per family).
        scale: usize,
        /// Warm-up instructions per slice.
        warmup: u64,
        /// Measured instructions per slice.
        detail: u64,
        /// Worker threads for the sweep's slice-group fan-out.
        threads: usize,
    },
    /// An instrumented single-generation run returning metrics JSONL.
    Metrics {
        /// Generation name (`"m1"`..`"m6"`).
        generation: String,
        /// Warm-up instructions.
        warmup: u64,
        /// Measured instructions.
        detail: u64,
        /// Epoch length for the time series.
        epoch: u64,
    },
    /// An instrumented run returning pipeline-event JSONL.
    Trace {
        /// Generation name.
        generation: String,
        /// Warm-up instructions.
        warmup: u64,
        /// Measured instructions.
        detail: u64,
        /// Epoch length.
        epoch: u64,
    },
    /// Build a warm checkpoint image and report its size and digest.
    Checkpoint {
        /// Generation name.
        generation: String,
        /// Warm-up instructions before the snapshot.
        warmup: u64,
    },
    /// Run one embedded `exynos-asm` corpus program across all six
    /// generations (batched lockstep over a shared execution stream) and
    /// return per-generation records. The program is referenced by name;
    /// an unknown or malformed program surfaces as a typed
    /// `SimError::Config` from the runner, never a panic.
    Program {
        /// Corpus program name (e.g. `"fib_recursive"`).
        program: String,
        /// Warm-up instructions.
        warmup: u64,
        /// Measured instructions.
        detail: u64,
    },
}

impl JobKind {
    /// Stable wire/span label for the kind.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Sweep { .. } => "sweep",
            JobKind::Metrics { .. } => "metrics",
            JobKind::Trace { .. } => "trace",
            JobKind::Checkpoint { .. } => "checkpoint",
            JobKind::Program { .. } => "program",
        }
    }
}

/// A deterministic unit of work plus its robustness knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The work to perform.
    pub kind: JobKind,
    /// Attach `FaultPlan::chaos(seed)` to every simulator in the job.
    pub chaos_seed: Option<u64>,
    /// Completion-stall injection period (0 = off); exercises the
    /// watchdog ladder.
    pub stall_every: u64,
    /// Stall magnitude in cycles.
    pub stall_cycles: u64,
    /// Watchdog override as `(threshold, max_recoveries)`.
    pub watchdog: Option<(u64, u32)>,
    /// Strict trace decode (malformed records become typed errors).
    pub strict_decode: bool,
}

impl JobSpec {
    /// A plain spec for `kind` with no fault or decode overrides.
    pub fn plain(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            chaos_seed: None,
            stall_every: 0,
            stall_cycles: 0,
            watchdog: None,
            strict_decode: false,
        }
    }

    /// Whether any fault/robustness knob deviates from the defaults
    /// (such jobs bypass shared warm pools — their sims carry injectors).
    pub fn has_overrides(&self) -> bool {
        self.chaos_seed.is_some()
            || self.stall_every != 0
            || self.stall_cycles != 0
            || self.watchdog.is_some()
            || self.strict_decode
    }

    /// Canonical JSON: stable field order, default-valued knobs omitted.
    pub fn canonical(&self) -> String {
        let mut out = String::from("{");
        match &self.kind {
            JobKind::Sweep { scale, warmup, detail, threads } => {
                json::push_key(&mut out, true, "kind");
                json::push_str(&mut out, "sweep");
                json::push_key(&mut out, false, "scale");
                json::push_u64(&mut out, *scale as u64);
                json::push_key(&mut out, false, "warmup");
                json::push_u64(&mut out, *warmup);
                json::push_key(&mut out, false, "detail");
                json::push_u64(&mut out, *detail);
                json::push_key(&mut out, false, "threads");
                json::push_u64(&mut out, *threads as u64);
            }
            JobKind::Metrics { generation, warmup, detail, epoch }
            | JobKind::Trace { generation, warmup, detail, epoch } => {
                json::push_key(&mut out, true, "kind");
                json::push_str(
                    &mut out,
                    if matches!(self.kind, JobKind::Metrics { .. }) { "metrics" } else { "trace" },
                );
                json::push_key(&mut out, false, "gen");
                json::push_str(&mut out, generation);
                json::push_key(&mut out, false, "warmup");
                json::push_u64(&mut out, *warmup);
                json::push_key(&mut out, false, "detail");
                json::push_u64(&mut out, *detail);
                json::push_key(&mut out, false, "epoch");
                json::push_u64(&mut out, *epoch);
            }
            JobKind::Checkpoint { generation, warmup } => {
                json::push_key(&mut out, true, "kind");
                json::push_str(&mut out, "checkpoint");
                json::push_key(&mut out, false, "gen");
                json::push_str(&mut out, generation);
                json::push_key(&mut out, false, "warmup");
                json::push_u64(&mut out, *warmup);
            }
            JobKind::Program { program, warmup, detail } => {
                json::push_key(&mut out, true, "kind");
                json::push_str(&mut out, "program");
                json::push_key(&mut out, false, "program");
                json::push_str(&mut out, program);
                json::push_key(&mut out, false, "warmup");
                json::push_u64(&mut out, *warmup);
                json::push_key(&mut out, false, "detail");
                json::push_u64(&mut out, *detail);
            }
        }
        if let Some(seed) = self.chaos_seed {
            json::push_key(&mut out, false, "chaos_seed");
            json::push_u64(&mut out, seed);
        }
        if self.stall_every != 0 {
            json::push_key(&mut out, false, "stall_every");
            json::push_u64(&mut out, self.stall_every);
        }
        if self.stall_cycles != 0 {
            json::push_key(&mut out, false, "stall_cycles");
            json::push_u64(&mut out, self.stall_cycles);
        }
        if let Some((threshold, recoveries)) = self.watchdog {
            json::push_key(&mut out, false, "watchdog_threshold");
            json::push_u64(&mut out, threshold);
            json::push_key(&mut out, false, "watchdog_recoveries");
            json::push_u64(&mut out, recoveries as u64);
        }
        if self.strict_decode {
            json::push_key(&mut out, false, "strict_decode");
            out.push_str("true");
        }
        out.push('}');
        out
    }

    /// FNV-1a-64 over the canonical encoding: the circuit breaker's
    /// quarantine key. Two submissions of the same configuration share a
    /// key regardless of their deadline/retry envelope.
    pub fn config_key(&self) -> u64 {
        exynos_snapshot::fnv1a64(&[self.canonical().as_bytes()])
    }

    /// Reject values the runner cannot execute: a zero sweep scale, an
    /// empty detail window, or a zero epoch length. Each is a typed
    /// [`SimError::Config`] naming the offending field, so such a job
    /// fails cleanly instead of reaching code that requires a non-empty
    /// window.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |param: &'static str, detail: &str| {
            Err(SimError::Config { param, detail: detail.to_owned() })
        };
        let (detail, epoch) = match &self.kind {
            JobKind::Sweep { scale: 0, .. } => return invalid("job.scale", "sweep scale must be >= 1"),
            JobKind::Sweep { detail, .. } | JobKind::Program { detail, .. } => (*detail, None),
            JobKind::Metrics { detail, epoch, .. } | JobKind::Trace { detail, epoch, .. } => {
                (*detail, Some(*epoch))
            }
            JobKind::Checkpoint { .. } => return Ok(()),
        };
        if detail == 0 {
            return invalid("job.detail", "detail window must be >= 1 instruction");
        }
        if epoch == Some(0) {
            return invalid("job.epoch", "epoch length must be >= 1");
        }
        Ok(())
    }

    /// Parse a spec from a protocol/journal JSON object.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind_name = v.get("kind").and_then(Json::as_str).ok_or("job missing \"kind\"")?;
        let u = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| format!("\"{key}\" must be a u64")),
            }
        };
        let gen = || -> Result<String, String> {
            v.get("gen")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{kind_name} job missing \"gen\""))
        };
        let kind = match kind_name {
            "sweep" => JobKind::Sweep {
                scale: u("scale", 1)? as usize,
                warmup: u("warmup", 2_000)?,
                detail: u("detail", 3_000)?,
                threads: u("threads", 1)? as usize,
            },
            "metrics" => JobKind::Metrics {
                generation: gen()?,
                warmup: u("warmup", 2_000)?,
                detail: u("detail", 10_000)?,
                epoch: u("epoch", 1_000)?,
            },
            "trace" => JobKind::Trace {
                generation: gen()?,
                warmup: u("warmup", 2_000)?,
                detail: u("detail", 10_000)?,
                epoch: u("epoch", 1_000)?,
            },
            "checkpoint" => JobKind::Checkpoint { generation: gen()?, warmup: u("warmup", 10_000)? },
            "program" => JobKind::Program {
                program: v
                    .get("program")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or("program job missing \"program\"")?,
                warmup: u("warmup", 2_000)?,
                detail: u("detail", 10_000)?,
            },
            other => return Err(format!("unknown job kind {other:?}")),
        };
        let watchdog = match (v.get("watchdog_threshold"), v.get("watchdog_recoveries")) {
            (None, None) => None,
            (t, r) => Some((
                t.and_then(Json::as_u64).ok_or("\"watchdog_threshold\" must be a u64")?,
                r.and_then(Json::as_u32).ok_or("\"watchdog_recoveries\" must be a u32")?,
            )),
        };
        Ok(JobSpec {
            kind,
            chaos_seed: match v.get("chaos_seed") {
                None => None,
                Some(j) => Some(j.as_u64().ok_or("\"chaos_seed\" must be a u64")?),
            },
            stall_every: u("stall_every", 0)?,
            stall_cycles: u("stall_cycles", 0)?,
            watchdog,
            strict_decode: v.get("strict_decode").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// Lifecycle of a job inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a payload.
    Completed,
    /// Finished with a typed error.
    Failed,
}

impl JobState {
    /// Stable protocol label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }
}

/// Per-execution context handed to a [`JobRunner`]: the cancellation
/// token plus the job's span trace, so the runner can hang its own
/// stage spans (`warm_pool_fetch`, `slice[k]`) off the current attempt.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Cooperative cancellation (deadline armed by the engine across
    /// the whole retry envelope).
    pub cancel: CancelToken,
    /// The job's shared span recorder.
    pub spans: SharedSpans,
    /// The span of the attempt this execution runs under — the parent
    /// for runner-side stage spans.
    pub attempt: SpanId,
}

impl JobCtx {
    /// A context outside any engine (tests, direct runner invocation):
    /// a fresh recorder whose root doubles as the attempt span.
    pub fn detached(cancel: CancelToken) -> JobCtx {
        let spans = SharedSpans::new();
        let attempt = spans.start("attempt[1]", None);
        JobCtx { cancel, spans, attempt }
    }
}

/// Executes one job spec to a deterministic payload. Implementations
/// must honour `ctx.cancel` (attach it to every simulator they build)
/// and must be panic-free: every failure is a typed [`SimError`].
/// Payloads must not depend on `ctx.spans` — span state is
/// observability, never data.
pub trait JobRunner: Send + Sync + 'static {
    /// Run `spec` to completion or typed failure.
    fn run(&self, spec: &JobSpec, ctx: &JobCtx) -> Result<String, SimError>;

    /// Cumulative counters of the runner's shared trace-chunk cache, if
    /// it has one. The engine samples this after every job and exports
    /// the *deltas* as `chunk_cache_*` ops metrics. The default (no
    /// cache) reports all-zero stats forever.
    fn chunk_cache_stats(&self) -> exynos_core::batch::ChunkCacheStats {
        exynos_core::batch::ChunkCacheStats::default()
    }

    /// Formerly drained chunk-producer stall samples; no runner produces
    /// them any more and the engine never calls this. Kept, with its
    /// empty default, for `perfbench/src/entry.rs`, which overrides it;
    /// it goes with that file's own adaptation.
    fn take_pipeline_stalls(&self) -> Vec<u64> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> JobSpec {
        JobSpec::plain(JobKind::Sweep { scale: 2, warmup: 1_000, detail: 2_000, threads: 4 })
    }

    #[test]
    fn canonical_round_trips_through_the_parser() {
        let mut spec = sweep_spec();
        spec.chaos_seed = Some(7);
        spec.watchdog = Some((10_000, 2));
        spec.strict_decode = true;
        let parsed = JobSpec::from_json(&Json::parse(&spec.canonical()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.canonical(), spec.canonical());
    }

    #[test]
    fn config_key_ignores_nothing_in_the_spec() {
        let a = sweep_spec();
        let mut b = sweep_spec();
        assert_eq!(a.config_key(), b.config_key());
        b.chaos_seed = Some(1);
        assert_ne!(a.config_key(), b.config_key());
    }

    #[test]
    fn program_kind_round_trips() {
        let spec = JobSpec::plain(JobKind::Program {
            program: "fib_recursive".to_owned(),
            warmup: 1_000,
            detail: 5_000,
        });
        assert_eq!(spec.kind.label(), "program");
        let parsed = JobSpec::from_json(&Json::parse(&spec.canonical()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.canonical(), spec.canonical());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            r#"{"scale":1}"#,
            r#"{"kind":"sweeep"}"#,
            r#"{"kind":"metrics"}"#,
            r#"{"kind":"program"}"#,
            r#"{"kind":"sweep","scale":-1}"#,
            r#"{"kind":"sweep","warmup":"many"}"#,
            r#"{"kind":"sweep","watchdog_threshold":5}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn validate_names_the_offending_field() {
        let param = |kind| match JobSpec::plain(kind).validate() {
            Err(SimError::Config { param, .. }) => Some(param),
            _ => None,
        };
        let gen = || "m1".to_owned();
        assert_eq!(param(sweep_spec().kind), None);
        assert_eq!(param(JobKind::Sweep { scale: 0, warmup: 0, detail: 1, threads: 1 }), Some("job.scale"));
        assert_eq!(param(JobKind::Sweep { scale: 1, warmup: 0, detail: 0, threads: 1 }), Some("job.detail"));
        let program = JobKind::Program { program: "matrix".to_owned(), warmup: 0, detail: 0 };
        assert_eq!(param(program), Some("job.detail"));
        let metrics = JobKind::Metrics { generation: gen(), warmup: 0, detail: 0, epoch: 1 };
        assert_eq!(param(metrics), Some("job.detail"));
        let trace = JobKind::Trace { generation: gen(), warmup: 0, detail: 5, epoch: 0 };
        assert_eq!(param(trace), Some("job.epoch"));
        assert_eq!(param(JobKind::Checkpoint { generation: gen(), warmup: 0 }), None);
    }

    #[test]
    fn override_detection_gates_warm_pool_sharing() {
        assert!(!sweep_spec().has_overrides());
        let mut s = sweep_spec();
        s.stall_every = 10;
        assert!(s.has_overrides());
    }
}
