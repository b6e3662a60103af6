//! Program-driven traces through the full instrumented stack: the
//! executor must be deterministic not just in its record stream but in
//! everything downstream of it — two identical runs must produce
//! byte-identical telemetry JSONL.

use exynos_bench::experiments as exp;
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{SlicePlan, TraceGen, TraceSource};

/// Two executors built from the same (program, region, seed) must emit
/// the same records forever — including across restart boundaries.
#[test]
fn executor_streams_are_deterministic() {
    for (name, _) in exynos_asm::CORPUS {
        let prog = exynos_asm::corpus_program(name).unwrap();
        let source = exynos_asm::AsmSource::new(prog);
        let mut a = source.build(42, 7).unwrap();
        let mut b = source.build(42, 7).unwrap();
        for i in 0..20_000 {
            let x = a.next_inst();
            let y = b.next_inst();
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "{name} diverged at record {i}");
        }
    }
}

/// Changing the seed must change the stream: the seed feeds x27, the
/// corpus kernels' entropy register, so call_tree's indirect-call
/// targets follow a different xorshift walk under a different seed.
#[test]
fn seeds_select_distinct_streams() {
    let prog = exynos_asm::corpus_program("call_tree").unwrap();
    let source = exynos_asm::AsmSource::new(prog);
    let mut a = source.build(42, 1).unwrap();
    let mut b = source.build(42, 2).unwrap();
    let mut differed = false;
    for _ in 0..5_000 {
        if format!("{:?}", a.next_inst()) != format!("{:?}", b.next_inst()) {
            differed = true;
            break;
        }
    }
    assert!(differed, "seeds 1 and 2 produced identical call_tree streams");
}

/// The end-to-end determinism gate: two instrumented simulator runs over
/// a freshly built program stream produce byte-identical metrics and
/// event JSONL.
#[test]
fn program_telemetry_jsonl_is_byte_identical() {
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    let run = || {
        let prog = exynos_asm::corpus_program("nested_loops").unwrap();
        let source = exynos_asm::AsmSource::new(prog);
        let mut gen = source.build(exp::PROGRAM_REGION_BASE, 0xA500).unwrap();
        let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
        let mut tel = Telemetry::new(TelemetryConfig { epoch_len: 500, event_capacity: 1 << 14 });
        sim.run_slice_with(&mut *gen, SlicePlan::new(500, 2_500), &mut tel).unwrap();
        sim.sample_telemetry(&mut tel);
        tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
        (tel.metrics_jsonl(), tel.events_jsonl())
    };
    let (metrics_a, events_a) = run();
    let (metrics_b, events_b) = run();
    assert!(!metrics_a.is_empty());
    assert_eq!(metrics_a, metrics_b, "metrics JSONL diverged between identical runs");
    assert_eq!(events_a, events_b, "event JSONL diverged between identical runs");
}

/// A malformed program surfaces as a typed `TraceError`, and the
/// `From<TraceError> for SimError` bridge turns it into a non-retryable
/// configuration error — the service tier's no-panic contract.
#[test]
fn malformed_program_is_a_typed_non_retryable_error() {
    let err = exynos_asm::Program::assemble("broken", "main:\n    ldr x1\n").unwrap_err();
    assert_eq!(err.kind(), "asm");
    let sim_err = exynos_core::SimError::from(err);
    assert!(matches!(sim_err, exynos_core::SimError::Config { param: "workload", .. }));
    assert!(!sim_err.is_retryable());
}
