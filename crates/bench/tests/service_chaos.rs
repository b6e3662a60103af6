//! Acceptance soak for the resilient job tier: with chaos fault plans,
//! impossible deadlines, wedged watchdogs, overload and random cancels,
//! every job must reach a terminal state (completed / retried-then-
//! completed / typed error) — zero panics, zero hangs. A killed-and-
//! restarted server must recover journaled jobs byte-identically to an
//! uninterrupted run.

use exynos_bench::service_runner::BenchRunner;
use exynos_service::engine::{Engine, JobStatus, ServiceConfig, SubmitError};
use exynos_service::job::{JobKind, JobSpec, JobState};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound for any single job to terminate. Generous because debug
/// builds on a loaded single-core host are slow; a healthy run finishes
/// orders of magnitude sooner. Hitting it means a hang — a hard failure.
const WAIT: Duration = Duration::from_secs(240);

fn wait_terminal(engine: &Engine, id: u64) -> JobStatus {
    let deadline = Instant::now() + WAIT;
    loop {
        let st = engine.status(id).unwrap_or_else(|| panic!("job {id} vanished"));
        if st.state.is_terminal() {
            return st;
        }
        assert!(Instant::now() < deadline, "job {id} hung (state {:?})", st.state);
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn quick_sweep() -> JobSpec {
    JobSpec::plain(JobKind::Sweep { scale: 1, warmup: 200, detail: 300, threads: 1 })
}

fn quick_checkpoint(generation: &str, warmup: u64) -> JobSpec {
    JobSpec::plain(JobKind::Checkpoint { generation: generation.to_owned(), warmup })
}

/// A spec that wedges retirement hard enough to exhaust a zero-budget
/// watchdog within ~51 instructions — the fast path to a typed
/// `forward_progress_stall` terminal failure.
fn wedge_spec() -> JobSpec {
    let mut spec = quick_checkpoint("m1", 30_000);
    spec.stall_every = 50;
    spec.stall_cycles = 80_000;
    spec.watchdog = Some((10_000, 0));
    spec
}

fn fast_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        default_max_retries: 1,
        backoff_base_ms: 1,
        backoff_cap_ms: 10,
        breaker_threshold: 10,
        breaker_cooldown_jobs: 1_000,
        journal_path: None,
        ..ServiceConfig::default()
    }
}

#[test]
fn chaos_soak_every_job_terminates_typed() {
    let engine = Engine::start(Box::new(BenchRunner::new(1)), fast_cfg()).unwrap();

    // A mixed population: clean work, chaos plans, a strict-decode trap,
    // a watchdog wedge, an impossible deadline, and a random kill.
    let clean = engine.submit(quick_sweep(), None, None).unwrap();
    let mut chaos = quick_sweep();
    chaos.chaos_seed = Some(0xC0FFEE);
    let chaotic = engine.submit(chaos, None, None).unwrap();
    let mut strict = quick_checkpoint("m3", 3_000);
    strict.chaos_seed = Some(7);
    strict.strict_decode = true;
    let strict_id = engine.submit(strict, None, None).unwrap();
    let wedged = engine.submit(wedge_spec(), None, None).unwrap();
    // A warmup no host finishes within the 1 ms deadline, so only the
    // deadline can end this job, however fast the step loop gets.
    let doomed = engine.submit(quick_checkpoint("m6", 1 << 40), Some(1), None).unwrap();
    let killed = engine.submit(quick_sweep(), None, None).unwrap();
    engine.cancel(killed);

    // Every job terminates; no state other than completed/failed exists
    // at rest, and every failure carries a typed kind.
    for id in [clean, chaotic, strict_id, wedged, doomed, killed] {
        let st = wait_terminal(&engine, id);
        if let Some(kind) = &st.error_kind {
            assert!(
                [
                    "malformed_inst",
                    "resource_invariant",
                    "predictor_corruption",
                    "forward_progress_stall",
                    "snapshot_decode",
                    "config",
                    "deadline",
                    "cancelled",
                    "overloaded",
                ]
                .contains(&kind.as_str()),
                "job {id}: untyped failure kind {kind:?}"
            );
        }
    }

    // Per-job expectations.
    let st = wait_terminal(&engine, clean);
    assert!(st.payload.is_some(), "clean sweep completes: {:?}", st.error);
    let st = wait_terminal(&engine, strict_id);
    assert_eq!(st.error_kind.as_deref(), Some("malformed_inst"), "{:?}", st.error);
    let st = wait_terminal(&engine, wedged);
    assert_eq!(st.error_kind.as_deref(), Some("forward_progress_stall"), "{:?}", st.error);
    assert_eq!(st.attempts, 2, "a retryable wedge gets its one retry before failing");
    let st = wait_terminal(&engine, doomed);
    assert_eq!(st.error_kind.as_deref(), Some("deadline"), "{:?}", st.error);
    let st = wait_terminal(&engine, killed);
    if st.error_kind.is_some() {
        // The cancel won the race; a completed payload means the job
        // finished first — both are legitimate terminal states.
        assert_eq!(st.error_kind.as_deref(), Some("cancelled"), "{:?}", st.error);
    }

    let stats = engine.stats_json();
    assert!(stats.contains("\"deadline_misses\":1"), "stats: {stats}");
    assert!(stats.contains("\"retries\":"), "stats: {stats}");
    assert!(engine.drain(WAIT), "drain must settle");
}

#[test]
fn overload_sheds_with_typed_refusal() {
    // workers: 0 — nothing drains the queue, so capacity is hit exactly.
    let cfg = ServiceConfig { workers: 0, queue_capacity: 2, ..fast_cfg() };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg).unwrap();
    engine.submit(quick_sweep(), None, None).unwrap();
    engine.submit(quick_checkpoint("m1", 100), None, None).unwrap();
    match engine.submit(quick_checkpoint("m2", 100), None, None) {
        Err(SubmitError::Overloaded { depth }) => assert_eq!(depth, 2),
        other => panic!("third submission must shed: {other:?}"),
    }
    // The shed job is terminal immediately — nothing to poll, nothing
    // for a restart to resurrect.
    let st = engine.status(3).expect("shed job is recorded");
    assert!(st.state.is_terminal());
    assert_eq!(st.error_kind.as_deref(), Some("overloaded"));
    assert!(engine.stats_json().contains("\"sheds\":1"));
    // One home per counter: the shed is exported once, as the queue
    // counter, with no second `service.jobs` copy.
    let prom = engine.metrics_prometheus();
    assert!(prom.contains("\nservice_queue_shed_total 1\n"), "{prom}");
    assert!(!prom.contains("service_jobs_sheds"), "{prom}");
    engine.abort();
}

#[test]
fn breaker_quarantines_repeat_watchdog_offenders() {
    let cfg = ServiceConfig { workers: 1, breaker_threshold: 2, ..fast_cfg() };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg).unwrap();
    for _ in 0..2 {
        let id = engine.submit(wedge_spec(), None, Some(0)).unwrap();
        let st = wait_terminal(&engine, id);
        assert_eq!(st.error_kind.as_deref(), Some("forward_progress_stall"));
    }
    match engine.submit(wedge_spec(), None, Some(0)) {
        Err(SubmitError::Quarantined { failures }) => assert_eq!(failures, 2),
        other => panic!("third wedge must be quarantined: {other:?}"),
    }
    // Other configurations are unaffected.
    let ok = engine.submit(quick_checkpoint("m4", 200), None, None).unwrap();
    let st = wait_terminal(&engine, ok);
    assert!(st.payload.is_some(), "{:?}", st.error);
    assert!(engine.stats_json().contains("\"breaker_open\":1"));
    assert!(engine.drain(WAIT));
}

/// A job with an empty detail window fails with a typed `config` error
/// naming `job.detail`, and the single worker that ran it goes on to
/// complete the next job (a panic would have killed it).
fn zero_detail_fails_typed(kind: JobKind) {
    let cfg = ServiceConfig { workers: 1, ..fast_cfg() };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg).unwrap();
    let bad = engine.submit(JobSpec::plain(kind), None, None).unwrap();
    let st = wait_terminal(&engine, bad);
    assert_eq!(st.state, JobState::Failed);
    assert_eq!(st.error_kind.as_deref(), Some("config"), "{:?}", st.error);
    assert!(st.error.as_deref().unwrap_or("").contains("job.detail"), "{:?}", st.error);
    let ok = engine.submit(quick_checkpoint("m1", 200), None, None).unwrap();
    let st = wait_terminal(&engine, ok);
    assert!(st.payload.is_some(), "worker must keep serving: {:?}", st.error);
    assert!(engine.drain(WAIT));
}

#[test]
fn zero_detail_sweep_fails_typed() {
    zero_detail_fails_typed(JobKind::Sweep { scale: 1, warmup: 200, detail: 0, threads: 1 });
}

#[test]
fn zero_detail_program_fails_typed() {
    let program = "nested_loops".to_owned();
    zero_detail_fails_typed(JobKind::Program { program, warmup: 200, detail: 0 });
}

#[test]
fn zero_detail_metrics_fails_typed() {
    let generation = "m1".to_owned();
    zero_detail_fails_typed(JobKind::Metrics { generation, warmup: 200, detail: 0, epoch: 100 });
}

#[test]
fn zero_detail_trace_fails_typed() {
    let generation = "m6".to_owned();
    zero_detail_fails_typed(JobKind::Trace { generation, warmup: 200, detail: 0, epoch: 100 });
}

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("exynos-service-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn crash_recovery_is_byte_identical_to_an_uninterrupted_run() {
    let sweep = quick_sweep();
    let ckpt = quick_checkpoint("m6", 400);

    // Reference: an uninterrupted volatile engine.
    let reference = Engine::start(Box::new(BenchRunner::new(1)), fast_cfg()).unwrap();
    let r1 = reference.submit(sweep.clone(), None, None).unwrap();
    let r2 = reference.submit(ckpt.clone(), None, None).unwrap();
    let ref_sweep = wait_terminal(&reference, r1).payload.expect("reference sweep completes");
    let ref_ckpt = wait_terminal(&reference, r2).payload.expect("reference checkpoint completes");
    assert!(reference.drain(WAIT));

    // "Server" that accepts and journals but dies before running
    // anything (workers: 0 models the worst kill -9 window: submissions
    // durable, zero execution progress).
    let journal = temp_journal("crash");
    let doomed_cfg =
        ServiceConfig { workers: 0, journal_path: Some(journal.clone()), ..fast_cfg() };
    let doomed = Engine::start(Box::new(BenchRunner::new(1)), doomed_cfg).unwrap();
    let id1 = doomed.submit(sweep.clone(), None, None).unwrap();
    let id2 = doomed.submit(ckpt.clone(), None, None).unwrap();
    doomed.abort(); // no drain, no terminal records — the crash.

    // Restart on the same journal: both jobs come back, run, and produce
    // byte-identical payloads.
    let restart_cfg = ServiceConfig { journal_path: Some(journal.clone()), ..fast_cfg() };
    let restarted = Engine::start(Box::new(BenchRunner::new(1)), restart_cfg).unwrap();
    let st1 = wait_terminal(&restarted, id1);
    let st2 = wait_terminal(&restarted, id2);
    assert!(st1.recovered && st2.recovered, "recovered jobs are flagged");
    assert_eq!(st1.payload.as_deref(), Some(ref_sweep.as_str()), "sweep byte-identical");
    assert_eq!(st2.payload.as_deref(), Some(ref_ckpt.as_str()), "checkpoint byte-identical");
    assert!(restarted.stats_json().contains("\"recovered\":2"));
    assert!(restarted.drain(WAIT));

    // Second restart: the terminal records themselves are durable — the
    // results are served from the journal without re-running anything.
    let cold_cfg = ServiceConfig {
        workers: 0,
        journal_path: Some(journal.clone()),
        ..fast_cfg()
    };
    let cold = Engine::start(Box::new(BenchRunner::new(1)), cold_cfg).unwrap();
    let st = cold.status(id1).expect("terminal job survives restart");
    assert!(st.state.is_terminal() && !st.recovered);
    assert_eq!(st.payload.as_deref(), Some(ref_sweep.as_str()));
    assert_eq!(cold.queue_depth(), 0, "nothing re-enqueued");
    cold.abort();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn torn_journal_tail_is_tolerated() {
    use std::io::Write;
    let journal = temp_journal("torn");
    let cfg = ServiceConfig { workers: 0, journal_path: Some(journal.clone()), ..fast_cfg() };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg.clone()).unwrap();
    let id = engine.submit(quick_checkpoint("m2", 300), None, None).unwrap();
    engine.abort();
    // The crash tore the last frame mid-write.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(&[0x45, 0x58, 0x4A]).unwrap(); // half a magic
    }
    let cfg2 = ServiceConfig { workers: 1, journal_path: Some(journal.clone()), ..fast_cfg() };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg2).unwrap();
    assert!(engine.stats_json().contains("\"journal_torn\":true"));
    // Torn-tail recovery dumps the flight recorder.
    assert!(engine.postmortem_count() >= 1, "torn tail must trigger a post-mortem");
    let dump = engine.last_postmortem().expect("dump retained");
    assert_postmortem_parses(&dump, "torn_journal");
    let st = wait_terminal(&engine, id);
    assert!(st.recovered && st.payload.is_some(), "clean prefix still recovers: {:?}", st.error);
    assert!(engine.drain(WAIT));
    let _ = std::fs::remove_file(&journal);
}

/// Every line of a post-mortem dump must be standalone-parseable JSON,
/// and the header line must carry the trigger reason.
fn assert_postmortem_parses(dump: &str, reason: &str) {
    use exynos_service::json::Json;
    let mut lines = dump.lines();
    let header = lines.next().expect("dump has a header line");
    let h = Json::parse(header).unwrap_or_else(|e| panic!("unparseable header {header:?}: {e}"));
    assert_eq!(h.get("type").and_then(Json::as_str), Some("postmortem"), "{header}");
    assert_eq!(h.get("reason").and_then(Json::as_str), Some(reason), "{header}");
    let declared = h.get("lines").and_then(Json::as_u64).expect("header declares line count");
    let mut body = 0u64;
    for line in lines {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        assert!(v.get("type").and_then(Json::as_str).is_some(), "untyped line {line}");
        body += 1;
    }
    assert_eq!(body, declared, "header line count matches the body");
}

#[test]
fn watchdog_trip_dumps_a_parseable_postmortem() {
    let dir = std::env::temp_dir().join(format!("exynos-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        postmortem_dir: Some(dir.clone()),
        ..fast_cfg()
    };
    let engine = Engine::start(Box::new(BenchRunner::new(1)), cfg).unwrap();
    let id = engine.submit(wedge_spec(), None, Some(0)).unwrap();
    let st = wait_terminal(&engine, id);
    assert_eq!(st.error_kind.as_deref(), Some("forward_progress_stall"), "{:?}", st.error);

    // The failure dumped the flight recorder, in memory and on disk.
    assert_eq!(engine.postmortem_count(), 1);
    let dump = engine.last_postmortem().expect("dump retained");
    assert_postmortem_parses(&dump, "forward_progress_stall");
    assert!(dump.contains("\"type\":\"span\""), "dump carries the job's spans: {dump}");
    assert!(dump.contains("\"name\":\"attempt[1]\""), "dump names the attempt: {dump}");
    assert!(dump.contains("watchdog_rung"), "slice span carries trip attrs: {dump}");
    let on_disk = std::fs::read_to_string(dir.join("postmortem-1.jsonl"))
        .expect("dump written to --postmortem-dir");
    assert_eq!(on_disk, dump, "disk copy matches the in-memory dump");

    // The job's span tree is queryable and complete, and the latency
    // registry learned a job_total distribution from it.
    let spans = engine.job_spans(id).expect("span tree retained");
    for name in ["\"name\":\"job\"", "\"name\":\"queue_wait\"", "\"name\":\"result_encode\""] {
        assert!(spans.contains(name), "span tree missing {name}: {spans}");
    }
    let q = engine.quantiles_json();
    assert!(q.contains("\"service.latency.job_total\""), "quantiles: {q}");
    assert!(q.contains("\"p99\":"), "quantiles carry p99: {q}");

    assert!(engine.drain(WAIT));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_protocol_round_trips_through_the_engine() {
    use exynos_service::json::Json;
    use exynos_service::protocol::handle_line;
    let engine = Engine::start(Box::new(BenchRunner::new(1)), fast_cfg()).unwrap();

    let pong = handle_line(&engine, r#"{"cmd":"ping"}"#);
    assert_eq!(pong, r#"{"ok":true,"pong":true}"#);

    let resp = handle_line(
        &engine,
        r#"{"cmd":"submit","job":{"kind":"checkpoint","gen":"m5","warmup":300}}"#,
    );
    let v = Json::parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let id = v.get("id").and_then(Json::as_u64).unwrap();

    wait_terminal(&engine, id);
    let resp = handle_line(&engine, &format!(r#"{{"cmd":"result","id":{id}}}"#));
    let v = Json::parse(&resp).unwrap();
    assert_eq!(v.get("state").and_then(Json::as_str), Some("completed"), "{resp}");
    assert!(v.get("payload").and_then(Json::as_str).unwrap().contains("\"fnv\""));

    let resp = handle_line(&engine, r#"{"cmd":"submit","job":{"kind":"nope"}}"#);
    assert!(resp.contains("\"error\":\"bad_request\""), "{resp}");

    let resp = handle_line(&engine, r#"{"cmd":"shutdown"}"#);
    assert!(resp.contains("\"draining\":true"), "{resp}");
    match engine.submit(quick_sweep(), None, None) {
        Err(SubmitError::ShuttingDown) => {}
        other => panic!("post-shutdown submissions must be refused: {other:?}"),
    }
    assert!(engine.drain(WAIT));
}
