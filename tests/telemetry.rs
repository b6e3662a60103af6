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
    sim.close_epoch(&mut tel);
    (sim, tel)
}

fn assert_stats_bits_equal(a: &SimStats, b: &SimStats) {
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.last_retire, b.last_retire);
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.uoc_supplied, b.uoc_supplied);
    assert_eq!(a.malformed_insts, b.malformed_insts);
    assert_eq!(a.predictor_corruptions, b.predictor_corruptions);
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
    assert_stats_bits_equal(&r_plain.sim, &r_instr.sim);
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
    let mut pair_lead_taken = None;
    reg.for_each(&mut |component, name, _kind, value| {
        let first = component.split('.').next().unwrap_or(component).to_string();
        if !crates.contains(&first) {
            crates.push(first);
        }
        if (component, name) == ("branch.frontend", "pair_lead_taken") {
            pair_lead_taken = Some(value);
        }
    });
    // The §IV.A branch-pair split reaches the registry with the other
    // front-end counters.
    assert!(
        pair_lead_taken.is_some_and(|v| v > 0.0),
        "branch.frontend.pair_lead_taken missing or zero: {pair_lead_taken:?}"
    );
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
    // 12k instructions at epoch_len 1k.
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

/// `close_epoch` after a run that ends on an epoch boundary adds no
/// second row at the same instruction count; after a run that ends
/// between boundaries it adds the trailing partial row.
#[test]
fn close_epoch_writes_no_duplicate_trailing_row() {
    let rows = |detail: u64| {
        let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
        let mut tel = small_tel();
        let mut gen = LoopNest::new(&LoopNestParams::default(), 7, 3);
        sim.run_slice_with(&mut gen, SlicePlan::new(2_000, detail), &mut tel)
            .expect("clean trace");
        sim.close_epoch(&mut tel);
        sim.close_epoch(&mut tel);
        let series = tel.series();
        (0..series.len()).map(|i| series.mark(i).unwrap().instructions).collect::<Vec<_>>()
    };
    let boundary: Vec<u64> = (1..=12).map(|k| k * 1_000).collect();
    assert_eq!(rows(10_000), boundary, "12k instructions at epoch_len 1k: 12 rows");
    let mut partial = boundary;
    partial.push(12_500);
    assert_eq!(rows(10_500), partial, "the partial 13th epoch gets its row");
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
        let mut json = String::new();
        h.push_summary_json(&mut json);
        json
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same observations must render byte-identical JSON");
    assert!(a.contains("\"p50\":"), "summary carries quantile keys: {a}");
    assert!(a.contains("\"p99\":"), "summary carries quantile keys: {a}");
}

#[test]
fn load_latency_quantiles_are_within_an_eighth_of_exact() {
    // Latencies spread over 520..=600 cycles, plus one tail sample above
    // 1024 so the reported quantiles cannot hide behind the clamp to the
    // observed max.
    let mut samples: Vec<u64> = (0..1_000u64).map(|i| 520 + (i * 37) % 81).collect();
    samples.push(1_853);
    let mut tel = small_tel();
    for &v in &samples {
        tel.observe_load_latency(v);
    }
    samples.sort_unstable();
    let jsonl = tel.metrics_jsonl();
    let line = jsonl
        .lines()
        .find(|l| l.contains("\"metric\":\"core.mem.load_latency\""))
        .expect("load-latency histogram line");
    let field = |key: &str| -> u64 {
        let tag = format!("\"{key}\":");
        let rest = &line[line.find(&tag).expect("field present") + tag.len()..];
        rest[..rest.find([',', '}']).expect("field end")].parse().expect("integer field")
    };
    for (key, q) in [("p50", 0.5), ("p99", 0.99)] {
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        let exact = samples[rank - 1];
        let got = field(key);
        assert!(
            got >= exact && got - exact <= exact / QUANTILE_SUB_BUCKETS,
            "{key}: reported {got}, exact {exact}: {line}"
        );
    }
    assert_eq!(field("min"), 520);
    assert_eq!(field("max"), 1_853);
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

// --- Step event counts ----------------------------------------------

use exynos::core::fault::FaultPlan;

/// Event counts of a fixed clean M6 run: LoopNest seed 11, 2k warmup +
/// 10k detail.
const M6_EVENT_COUNTS: &[(&str, u64)] = &[
    ("prefetch_launch", 281),
    ("prefetch_fill", 193),
    ("branch_discovery", 2),
    ("shp_conf_flip", 42),
    ("ubtb_lock", 21),
    ("uoc_transition", 62),
    ("mispredict", 20),
    ("ubtb_unlock", 20),
];

/// Event counts of a fixed M6 run under `FaultPlan::chaos(42)` plus a
/// 60k-cycle completion stall every 500 instructions, with room for 100
/// watchdog rungs so every rung of the ladder runs: LoopNest seed 17,
/// 1k warmup + 19k detail.
const CHAOS_EVENT_COUNTS: &[(&str, u64)] = &[
    ("prefetch_launch", 302),
    ("prefetch_fill", 117),
    ("branch_discovery", 78),
    ("shp_conf_flip", 151),
    ("ubtb_lock", 40),
    ("uoc_transition", 109),
    ("fault_injected", 155),
    ("watchdog_trip", 40),
    ("mispredict", 50),
    ("malformed_inst", 26),
    ("prefetch_drop", 1),
    ("ubtb_unlock", 17),
    ("trace_gap", 15),
    ("corruption_recovered", 4),
];

fn event_counts(
    sim: &mut Simulator,
    gen: &mut dyn exynos::trace::TraceGen,
    plan: SlicePlan,
) -> Vec<(&'static str, u64)> {
    let mut tel = Telemetry::new(TelemetryConfig { epoch_len: 1_000, event_capacity: 1 << 20 });
    sim.run_slice_with(gen, plan, &mut tel).expect("run completes");
    assert_eq!(tel.events().dropped(), 0, "the ring must hold every event");
    tel.events().counts_by_name()
}

/// The events one step emits, counted by name over two fixed runs and
/// pinned against a checked-in table, so that a rewrite of the step's
/// event derivation that drops, adds or moves an event fails here.
#[test]
fn step_event_counts_are_pinned() {
    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let mut gen = LoopNest::new(&LoopNestParams::default(), 7, 11);
    let clean = event_counts(&mut sim, &mut gen, SlicePlan::new(2_000, 10_000));

    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let plan = FaultPlan { stall_every: 500, stall_cycles: 60_000, ..FaultPlan::chaos(42) };
    sim.attach_fault_injector(plan).unwrap();
    sim.set_watchdog(50_000, 100).unwrap();
    let mut gen = LoopNest::new(&LoopNestParams::default(), 7, 17);
    let chaos = event_counts(&mut sim, &mut gen, SlicePlan::new(1_000, 19_000));
    assert_eq!(clean, M6_EVENT_COUNTS, "clean M6 run");
    assert_eq!(chaos, CHAOS_EVENT_COUNTS, "chaos M6 run");
}
