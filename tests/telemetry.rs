//! Integration tests for the telemetry layer (ISSUE PR 3):
//!
//! * telemetry must be a pure observer — attaching it changes no
//!   simulated number, bit for bit;
//! * same-seed runs must emit byte-identical JSONL traces;
//! * the event trace must be cycle-monotone;
//! * the registry must cover the whole machine (many metrics, many
//!   crates);
//! * the bounded ring must count what it drops.

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::core::sim::{SimStats, Simulator};
use exynos::telemetry::{Telemetry, TelemetryConfig};
use exynos::trace::gen::loops::{LoopNest, LoopNestParams};
use exynos::trace::SlicePlan;

fn small_tel() -> Telemetry {
    Telemetry::new(TelemetryConfig { epoch_len: 1_000, event_capacity: 1 << 14 })
}

fn run_instrumented(cfg: CoreConfig, seed: u64) -> (Simulator, Telemetry) {
    let mut sim = SimBuilder::config(cfg).build().unwrap();
    let mut tel = small_tel();
    let mut gen = LoopNest::new(&LoopNestParams::default(), 7, seed);
    sim.run_slice_with(&mut gen, SlicePlan::new(2_000, 10_000), &mut tel)
        .expect("clean trace");
    sim.sample_telemetry(&mut tel);
    tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
    (sim, tel)
}

fn assert_stats_bits_equal(a: &SimStats, b: &SimStats) {
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.last_retire, b.last_retire);
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.uoc_supplied, b.uoc_supplied);
    assert_eq!(a.malformed_insts, b.malformed_insts);
    assert_eq!(a.predictor_corruptions, b.predictor_corruptions);
    assert_eq!(a.uoc_recoveries, b.uoc_recoveries);
    assert_eq!(a.watchdog_events, b.watchdog_events);
    assert_eq!(a.watchdog_recoveries, b.watchdog_recoveries);
}

#[test]
fn telemetry_does_not_change_results() {
    let mut plain = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let mut gen = LoopNest::new(&LoopNestParams::default(), 7, 42);
    let r_plain = plain
        .run_slice(&mut gen, SlicePlan::new(2_000, 10_000))
        .expect("clean trace");

    let (instrumented, _tel) = run_instrumented(CoreConfig::m6(), 42);

    assert_stats_bits_equal(&plain.stats(), &instrumented.stats());
    // Every derived f64 must match bit for bit, not approximately.
    let mut i_gen = LoopNest::new(&LoopNestParams::default(), 7, 42);
    let mut i_sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let mut tel = small_tel();
    let r_instr = i_sim
        .run_slice_with(&mut i_gen, SlicePlan::new(2_000, 10_000), &mut tel)
        .expect("clean trace");
    assert_eq!(r_plain.ipc.to_bits(), r_instr.ipc.to_bits());
    assert_eq!(r_plain.mpki.to_bits(), r_instr.mpki.to_bits());
    assert_eq!(
        r_plain.avg_load_latency.to_bits(),
        r_instr.avg_load_latency.to_bits()
    );
    assert_eq!(r_plain.instructions, r_instr.instructions);
    assert_eq!(r_plain.cycles, r_instr.cycles);
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let (_s1, t1) = run_instrumented(CoreConfig::m6(), 1234);
    let (_s2, t2) = run_instrumented(CoreConfig::m6(), 1234);
    assert_eq!(t1.events_jsonl(), t2.events_jsonl());
    assert_eq!(t1.metrics_jsonl(), t2.metrics_jsonl());
    assert_eq!(t1.metrics_csv(), t2.metrics_csv());
}

#[test]
fn different_seeds_diverge() {
    let (_s1, t1) = run_instrumented(CoreConfig::m6(), 1);
    let (_s2, t2) = run_instrumented(CoreConfig::m6(), 2);
    // Sanity: the byte-identity test above isn't vacuous.
    assert_ne!(t1.events_jsonl(), t2.events_jsonl());
}

#[test]
fn event_cycles_are_monotone() {
    let (_sim, tel) = run_instrumented(CoreConfig::m6(), 99);
    let events = tel.events();
    assert!(!events.is_empty(), "an M6 loop run must produce events");
    let mut prev = 0u64;
    let mut prev_seq = None;
    events.for_each(&mut |r| {
        assert!(r.cycle >= prev, "cycle went backwards: {} < {prev}", r.cycle);
        prev = r.cycle;
        if let Some(ps) = prev_seq {
            assert_eq!(r.seq, ps + 1, "seq numbers must be dense");
        }
        prev_seq = Some(r.seq);
    });
}

#[test]
fn registry_covers_the_machine() {
    let (_sim, tel) = run_instrumented(CoreConfig::m6(), 7);
    let reg = tel.registry();
    assert!(
        reg.len() >= 12,
        "expected >= 12 metrics, got {}",
        reg.len()
    );
    let mut crates: Vec<String> = Vec::new();
    reg.for_each(&mut |component, _name, _kind, _value| {
        let first = component.split('.').next().unwrap_or(component).to_string();
        if !crates.contains(&first) {
            crates.push(first);
        }
    });
    for expected in ["core", "branch", "mem", "prefetch", "dram", "uoc"] {
        assert!(
            crates.iter().any(|c| c == expected),
            "missing metrics from crate '{expected}' (have {crates:?})"
        );
    }
    assert!(crates.len() >= 5, "metrics must span >= 5 crates");
}

#[test]
fn epoch_series_grows_with_run_length() {
    let (_sim, tel) = run_instrumented(CoreConfig::m6(), 3);
    // 12k instructions at epoch_len 1k, plus the forced final flush.
    assert!(tel.series().len() >= 12, "got {} epochs", tel.series().len());
    // Epoch marks must be instruction- and cycle-monotone.
    let mut prev = (0u64, 0u64);
    for i in 0..tel.series().len() {
        let mark = tel.series().mark(i).expect("mark in range");
        assert!(mark.instructions >= prev.0);
        assert!(mark.cycle >= prev.1);
        prev = (mark.instructions, mark.cycle);
    }
}

#[test]
fn bounded_ring_counts_drops() {
    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let mut tel = Telemetry::new(TelemetryConfig { epoch_len: 1_000, event_capacity: 8 });
    let mut gen = LoopNest::new(&LoopNestParams::default(), 7, 5);
    sim.run_slice_with(&mut gen, SlicePlan::new(2_000, 10_000), &mut tel)
        .expect("clean trace");
    let events = tel.events();
    assert_eq!(events.len(), 8, "ring must clamp to capacity");
    assert!(events.recorded() > 8, "the run produces more than 8 events");
    assert_eq!(events.dropped(), events.recorded() - 8);
}

// --- Span tracing, quantiles & flight recorder (ISSUE PR 8) ---------

use exynos::telemetry::{
    FlightRecorder, QuantileHistogram, SharedSpans, SpanRecorder, QUANTILE_SUB_BUCKETS,
};

#[test]
fn quantile_bucket_boundary_error_is_bounded() {
    // Log-bucketed with QUANTILE_SUB_BUCKETS sub-buckets per octave: a
    // reported quantile bound must never undershoot the observed value
    // and must overshoot by at most value / QUANTILE_SUB_BUCKETS.
    for &v in &[
        1u64, 7, 8, 9, 15, 16, 17, 100, 1_000, 4_095, 4_096, 65_537, 1 << 30, (1 << 40) + 12_345,
    ] {
        let mut h = QuantileHistogram::new();
        h.observe(v);
        let q = h.quantile(0.99);
        assert!(q >= v, "bound {q} undershoots observed {v}");
        assert!(
            q - v <= v / QUANTILE_SUB_BUCKETS as u64,
            "bound {q} overshoots {v} by more than 1/{QUANTILE_SUB_BUCKETS}"
        );
    }
}

#[test]
fn quantile_merge_is_associative_and_commutative() {
    let fill = |seed: u64, n: u64| {
        let mut h = QuantileHistogram::new();
        let mut x = seed;
        for _ in 0..n {
            // xorshift64: deterministic, covers many octaves.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(x >> (x % 50));
        }
        h
    };
    let (a, b, c) = (fill(1, 500), fill(2, 300), fill(3, 700));

    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);

    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);

    let mut cba = c.clone();
    cba.merge(&b);
    cba.merge(&a);

    assert_eq!(ab_c, a_bc, "merge must be associative");
    assert_eq!(ab_c, cba, "merge must be commutative");
    assert_eq!(ab_c.count(), 1_500);
}

#[test]
fn quantile_summary_json_is_byte_identical_for_same_seed() {
    let run = || {
        let mut h = QuantileHistogram::new();
        let mut x = 0x9E37_79B9_u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(x % 1_000_000);
        }
        h.summary_json()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same observations must render byte-identical JSON");
    assert!(a.contains("\"p50\":"), "summary carries quantile keys: {a}");
    assert!(a.contains("\"p99\":"), "summary carries quantile keys: {a}");
}

#[test]
fn span_tree_under_manual_clock_is_deterministic() {
    let run = || {
        let mut r = SpanRecorder::manual();
        let root = r.start("job", None);
        r.attr_u64(root, "id", 1);
        r.advance(5);
        let queue = r.start("queue_wait", Some(root));
        r.advance(120);
        r.end(queue);
        let attempt = r.start("attempt[1]", Some(root));
        r.advance(10_000);
        r.attr_str(attempt, "gen", "m6");
        r.end(attempt);
        let enc = r.start("result_encode", Some(root));
        r.advance(30);
        r.end(enc);
        r.end(root);
        r.to_jsonl()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert_eq!(a.lines().count(), 4, "four spans, one line each: {a}");
    let first = a.lines().next().unwrap();
    assert!(first.contains("\"type\":\"span\""), "{first}");
    assert!(first.contains("\"parent\":null"), "root has no parent: {first}");
    assert!(a.contains("\"name\":\"queue_wait\""), "{a}");
    assert!(a.contains("\"dur_us\":120"), "queue wait lasted 120us: {a}");
}

#[test]
fn shared_spans_aggregate_closed_durations() {
    let spans = SharedSpans::manual();
    let root = spans.start("job", None);
    let att = spans.start("attempt[1]", Some(root));
    spans.advance(40);
    spans.end(att);
    spans.advance(2);
    spans.end(root);
    let open = spans.start("queue_wait", Some(root));
    let _ = open; // never closed: must not appear below
    let closed = spans.closed_durations();
    assert_eq!(
        closed,
        vec![("job".to_string(), 42), ("attempt[1]".to_string(), 40)],
        "closed spans only, recorder order"
    );
}

#[test]
fn flight_recorder_dump_is_parseable_and_bounded() {
    let mut f = FlightRecorder::new(4);
    for i in 0..9u64 {
        f.note(format!("{{\"type\":\"event\",\"t_us\":{i},\"event\":\"tick\",\"id\":{i}}}"));
    }
    let dump = f.dump("watchdog");
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), 5, "header plus 4 retained lines: {dump}");
    assert!(lines[0].contains("\"type\":\"postmortem\""), "{}", lines[0]);
    assert!(lines[0].contains("\"reason\":\"watchdog\""), "{}", lines[0]);
    assert!(lines[0].contains("\"dropped\":5"), "{}", lines[0]);
    // Oldest retained line is id 5 (0..=4 were evicted).
    assert!(lines[1].contains("\"id\":5"), "{}", lines[1]);
    assert_eq!(f.dumps(), 1);
}
