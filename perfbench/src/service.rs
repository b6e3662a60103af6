//! `service_mix`: an in-process job engine under two closed-loop clients.
//!
//! Set-up starts an engine (two workers, no journal) and primes it with
//! every job spec of the mix: the eight corpus programs, the sweep and
//! the six checkpoints. The sweep builds the runner's warm pool and the
//! programs fill its chunk cache, so the timed phase sees the steady
//! state. Each client then submits its next job only after the previous
//! one completes, polling every millisecond. Jobs come from a seeded
//! sequence of shuffled blocks, each holding every program once, four
//! sweeps and four checkpoints, so any prefix keeps the 50/25/25 mix.

use crate::entry::{self, JobId};
use crate::layers::{self, OpCost, Start, Tracer};
use crate::report::{metric, single, Report};
use crate::stats::{median, peak_rss_mib, tail_percentile, Fnv, Rng};
use crate::sweeps::repeated_setup;
use crate::{Opts, Sizes};
use exynos_service::job::JobSpec;
use exynos_service::Engine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine workers and closed-loop clients: one each per host core.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const POLL: Duration = Duration::from_millis(1);
/// Jobs in the generated sequence; far more than any run completes.
const SEQUENCE_LEN: usize = 1 << 14;

/// One distinct job of the mix and what it simulates.
struct MixJob {
    spec: JobSpec,
    kind: &'static str,
    insts: u64,
}

fn mix(sizes: &Sizes) -> Vec<MixJob> {
    let gens = entry::generations();
    let members = gens.len() as u64;
    let suite = entry::standard_catalog().len() as u64;
    let mut jobs = Vec::new();
    let p = sizes.svc_program;
    for name in entry::corpus_programs() {
        jobs.push((
            entry::program_job(name, p.warmup, p.detail),
            members * (p.warmup + p.detail),
        ));
    }
    // A sweep job forks the runner's warm pool and steps the detail only.
    jobs.push((
        entry::sweep_job(sizes.svc_sweep.warmup, sizes.svc_sweep.detail),
        members * suite * sizes.svc_sweep.detail,
    ));
    for cfg in &gens {
        let g = entry::gen_name(cfg).to_ascii_lowercase();
        jobs.push((
            entry::checkpoint_job(&g, sizes.svc_checkpoint_warmup),
            sizes.svc_checkpoint_warmup,
        ));
    }
    jobs.into_iter()
        .map(|(spec, insts)| MixJob {
            kind: entry::job_kind(&spec),
            spec,
            insts,
        })
        .collect()
}

/// The seeded job sequence, as indices into the mix.
fn sequence(jobs: &[MixJob], seed: u64) -> Vec<usize> {
    let by_kind =
        |k: &str| -> Vec<usize> { (0..jobs.len()).filter(|&i| jobs[i].kind == k).collect() };
    let (programs, sweeps, checkpoints) =
        (by_kind("program"), by_kind("sweep"), by_kind("checkpoint"));
    let mut rng = Rng::new(seed ^ 0x5E41_CE00);
    let mut out = Vec::with_capacity(SEQUENCE_LEN);
    while out.len() < SEQUENCE_LEN {
        let mut block = programs.clone();
        for _ in 0..programs.len() / 2 {
            block.push(sweeps[rng.below(sweeps.len())]);
            block.push(checkpoints[rng.below(checkpoints.len())]);
        }
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out
}

fn wait(engine: &Engine, id: JobId) -> Result<String, String> {
    loop {
        if let Some(outcome) = entry::outcome(engine, id) {
            return outcome;
        }
        std::thread::sleep(POLL);
    }
}

/// What a client saw of one job.
struct Sample {
    job: usize,
    /// The job's id once it completed with the reference payload.
    outcome: Result<JobId, String>,
    latency_s: f64,
    submit_s: f64,
    traced: bool,
}

/// Simulated instructions per second the closed loop sustains when every
/// job takes its fastest latency: `CLIENTS` jobs in flight, each job's
/// instructions and fastest latency weighted by its share of the
/// sequence. Host contention only ever slows a job and comes and goes for
/// seconds to minutes, so per-job medians, and the phase's raw
/// instructions over wall time even more, move with it.
fn fastest_minst_per_s(seq: &[usize], jobs: &[MixJob], done: &[&Sample]) -> f64 {
    let (mut insts, mut secs) = (0.0, 0.0);
    for (j, job) in jobs.iter().enumerate() {
        let fastest = done
            .iter()
            .filter(|s| s.job == j)
            .map(|s| s.latency_s)
            .fold(f64::INFINITY, f64::min);
        if fastest.is_finite() {
            let w = seq.iter().filter(|&&k| k == j).count() as f64;
            insts += w * job.insts as f64;
            secs += w * fastest;
        }
    }
    CLIENTS as f64 * insts / secs / 1e6
}

/// Runner durations by job kind, reported by the engine's runner wrapper.
type RunLog = Arc<Mutex<Vec<(&'static str, f64)>>>;

fn lock(log: &RunLog) -> std::sync::MutexGuard<'_, Vec<(&'static str, f64)>> {
    log.lock().unwrap_or_else(|p| p.into_inner())
}

struct Primed {
    engine: Engine,
    cache: Arc<exynos_core::batch::ChunkCache>,
    payloads: Vec<String>,
}

impl Drop for Primed {
    /// Dropping an engine leaves its workers polling; join them.
    fn drop(&mut self) {
        entry::stop_engine(&self.engine);
    }
}

/// Start an engine and run every job of the mix once.
fn prime(jobs: &[MixJob], runs: &RunLog) -> Result<Primed, String> {
    let log = Arc::clone(runs);
    let (engine, cache) = entry::start_engine(WORKERS, move |spec, d| {
        lock(&log).push((entry::job_kind(spec), d.as_secs_f64()))
    })?;
    let ids: Result<Vec<JobId>, String> = jobs
        .iter()
        .map(|j| entry::submit(&engine, j.spec.clone()))
        .collect();
    let payloads = ids.and_then(|ids| {
        ids.into_iter()
            .map(|id| wait(&engine, id))
            .collect::<Result<Vec<_>, _>>()
    });
    match payloads {
        Ok(payloads) => Ok(Primed {
            engine,
            cache,
            payloads,
        }),
        Err(e) => {
            entry::stop_engine(&engine);
            Err(format!("priming: {e}"))
        }
    }
}

pub fn service_mix(opts: &Opts, sizes: &Sizes) -> Report {
    let workload = "service_mix";
    let mut report = Report::new(workload, opts.seed, opts.trace);
    let jobs = mix(sizes);
    let runs: RunLog = Arc::new(Mutex::new(Vec::new()));
    let mut first_payloads: Option<Vec<String>> = None;
    let primed = repeated_setup(sizes.heavy_setup_reps, 0.0, true, || {
        let p = prime(&jobs, &runs)?;
        let same = *first_payloads.get_or_insert_with(|| p.payloads.clone()) == p.payloads;
        report.check(same, jobs.len() as u64, || {
            "primed payloads differ between set-ups".to_owned()
        });
        Ok(p)
    });
    let (primed, setup_s) = match primed {
        Ok(v) => v,
        Err(e) => return report.abort(e),
    };
    let reference = primed.payloads.clone();
    let mut digest = Fnv::default();
    for p in &reference {
        digest.bytes(p.as_bytes());
    }
    report.digest = digest.finish();
    // Detached oracle: a fresh runner outside the engine must produce the
    // same bytes (the sweep is left out: it would build a second pool).
    for (j, want) in jobs
        .iter()
        .zip(&reference)
        .filter(|(j, _)| j.kind != "sweep")
    {
        let got = entry::run_detached(&j.spec);
        report.check(got.as_ref() == Ok(want), 1, || {
            format!(
                "{}: detached run differs from the served payload",
                entry::job_key(&j.spec)
            )
        });
    }

    let tr = opts.trace.then(|| Tracer::new(workload));
    let seq = sequence(&jobs, opts.seed);
    let next = AtomicUsize::new(0);
    lock(&runs).clear();
    let cache0 = primed.cache.stats();
    let engine = &primed.engine;
    let phase_span = tr.as_ref().map(|t| t.open("clients", t.root));
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let now = start.elapsed().as_secs_f64();
                        if now >= opts.seconds {
                            return out;
                        }
                        // A traced run's second half records client spans.
                        let span = match (&tr, phase_span) {
                            (Some(t), Some(parent)) if now >= opts.seconds / 2.0 => {
                                Some((t, t.open("job", parent)))
                            }
                            _ => None,
                        };
                        let job = seq[next.fetch_add(1, Ordering::Relaxed) % seq.len()];
                        let t0 = Instant::now();
                        let id = entry::submit(engine, jobs[job].spec.clone());
                        let submit_s = t0.elapsed().as_secs_f64();
                        let outcome = id.and_then(|id| match wait(engine, id) {
                            Ok(payload) if payload == reference[job] => Ok(id),
                            Ok(_) => Err(format!(
                                "{}: payload differs from the primed one",
                                entry::job_key(&jobs[job].spec)
                            )),
                            Err(e) => Err(e),
                        });
                        let latency_s = t0.elapsed().as_secs_f64();
                        if let Some((t, s)) = span {
                            t.attr(s, "kind", jobs[job].kind);
                            t.close(s);
                        }
                        out.push(Sample {
                            job,
                            outcome,
                            latency_s,
                            submit_s,
                            traced: span.is_some(),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join().unwrap_or_else(|_| {
                    vec![Sample {
                        job: 0,
                        outcome: Err("client panicked".to_owned()),
                        latency_s: 0.0,
                        submit_s: 0.0,
                        traced: false,
                    }]
                })
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    if let (Some(t), Some(s)) = (&tr, phase_span) {
        t.close(s);
    }
    let cache1 = primed.cache.stats();
    let (retries, sheds) = entry::retries_and_sheds(engine);

    for s in &samples {
        report.check(s.outcome.is_ok(), 1, || {
            s.outcome.as_ref().err().cloned().unwrap_or_default()
        });
    }
    let done: Vec<&Sample> = samples.iter().filter(|s| s.outcome.is_ok()).collect();
    if done.is_empty() {
        report.check(false, 1, || "no job completed".to_owned());
    }
    let ms = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        done.iter()
            .filter(|s| f(s))
            .map(|s| s.latency_s * 1e3)
            .collect()
    };
    let all_ms = ms(&|_| true);
    let kind_ms = |k: &str| ms(&|s: &Sample| jobs[s.job].kind == k);

    if !opts.trace {
        report.e2e.extend(metric("setup_s", "s", &setup_s));
        report.e2e.push(single(
            "sim_minst_per_s",
            "Minst/s",
            fastest_minst_per_s(&seq, &jobs, &done),
        ));
        match peak_rss_mib() {
            Ok(v) => report.e2e.push(single("peak_rss_mib", "MiB", v)),
            Err(e) => report.check(false, 1, || e),
        }
        report
            .extras
            .push(single("jobs_per_s", "1/s", done.len() as f64 / wall));
        report.extras.extend(metric("job_ms_p50", "ms", &all_ms));
        match tail_percentile(&all_ms, 0.95) {
            Ok(v) => report.extras.push(single("job_ms_p95", "ms", v)),
            Err(e) => eprintln!("perfbench: job_ms_p95 not reported: {e}"),
        }
        for kind in ["program", "sweep", "checkpoint"] {
            report
                .extras
                .extend(metric(format!("{kind}_job_ms_p50"), "ms", &kind_ms(kind)));
        }
    } else if let Some(tr) = tr {
        service_layers(
            &mut report,
            sizes,
            &tr,
            engine,
            &done,
            &runs,
            (cache0, cache1),
        );
        report
            .extras
            .push(single("service.retries", "count", retries as f64));
        report
            .extras
            .push(single("service.sheds", "count", sheds as f64));
        if let Err(e) = tr.finish(workload) {
            report.check(false, 1, || e);
        }
    }
    if !entry::stop_engine(engine) {
        report.check(false, 1, || "engine did not drain".to_owned());
    }
    report
}

/// The traced run's per-layer view: engine stage spans of every timed
/// job, the runner's own durations, the chunk cache, and a replay of the
/// program jobs' simulation work.
fn service_layers(
    report: &mut Report,
    sizes: &Sizes,
    tr: &Tracer,
    engine: &Engine,
    done: &[&Sample],
    runs: &RunLog,
    (cache0, cache1): (
        exynos_core::batch::ChunkCacheStats,
        exynos_core::batch::ChunkCacheStats,
    ),
) {
    let (mut queue_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    for s in done {
        let Ok(id) = s.outcome else { continue };
        let stages = entry::job_stage_durations(engine, id);
        let stage_us = |p: &str| {
            stages
                .iter()
                .filter(|(n, _)| n.starts_with(p))
                .map(|(_, d)| *d as f64)
                .sum::<f64>()
        };
        let (queue, attempt) = (stage_us("queue_wait"), stage_us("attempt"));
        queue_ms.push(queue / 1e3);
        overhead_ms.push(s.latency_s * 1e3 - (queue + attempt) / 1e3);
    }
    let submit_us: Vec<f64> = done.iter().map(|s| s.submit_s * 1e6).collect();
    report
        .extras
        .extend(metric("service.submit_us_p50", "us", &submit_us));
    report
        .extras
        .extend(metric("service.queue_wait_ms_p50", "ms", &queue_ms));
    match tail_percentile(&queue_ms, 0.95) {
        Ok(v) => report
            .extras
            .push(single("service.queue_wait_ms_p95", "ms", v)),
        Err(e) => eprintln!("perfbench: service.queue_wait_ms_p95 not reported: {e}"),
    }
    for kind in ["program", "sweep", "checkpoint"] {
        let run_ms: Vec<f64> = lock(runs)
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s * 1e3)
            .collect();
        report
            .extras
            .extend(metric(format!("service.run_ms_p50.{kind}"), "ms", &run_ms));
    }
    report
        .extras
        .extend(metric("service.overhead_ms_p50", "ms", &overhead_ms));
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    report
        .extras
        .push(single("chunk_cache.hit_ratio", "frac", hit_ratio));
    report.extras.push(single(
        "chunk_cache.evictions",
        "count",
        (cache1.evictions - cache0.evictions) as f64,
    ));
    report.extras.push(single(
        "chunk_cache.resident_mib",
        "MiB",
        cache1.bytes as f64 / (1024.0 * 1024.0),
    ));

    // The replayed operation is one job of each program (the first jobs
    // of the mix, in corpus order): its wall is the sum of each program's
    // median latency, and it pays materialization only on cache misses.
    let catalog = match entry::program_catalog() {
        Ok(c) => c,
        Err(e) => return report.check(false, 1, || e),
    };
    let program_wall_s: f64 = (0..catalog.len())
        .map(|j| {
            median(
                &done
                    .iter()
                    .filter(|s| s.job == j)
                    .map(|s| s.latency_s)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let replay_span = tr.open("replay", tr.root);
    let replay = layers::replay(tr, replay_span, &catalog, sizes.svc_program, Start::Cold);
    tr.close(replay_span);
    match replay {
        Ok(r) => {
            let all = |traced: bool| -> Vec<f64> {
                done.iter()
                    .filter(|s| s.traced == traced)
                    .map(|s| s.latency_s)
                    .collect()
            };
            report.layers = layers::layer_metrics(
                &r,
                &OpCost {
                    wall_s: program_wall_s,
                    materialize_paid: 1.0 - hit_ratio,
                    trace_overhead_frac: median(&all(true)) / median(&all(false)) - 1.0,
                },
            );
            report.check(true, catalog.len() as u64, String::new);
        }
        Err(e) => report.check(false, catalog.len() as u64, || format!("layer replay: {e}")),
    }
}
