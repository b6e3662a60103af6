//! Robustness / failure-injection tests: phase discontinuities, context
//! switches, predictor-hostile inputs, seeded micro-architectural fault
//! injection, and the forward-progress watchdog through the full stack.

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::core::fault::FaultPlan;
use exynos::core::SimError;
use exynos::secure::context::ContextId;
use exynos::trace::gen::markov::{MarkovBranches, MarkovMode, MarkovParams};
use exynos::trace::gen::mixed::PhaseMix;
use exynos::trace::gen::pointer_chase::{PointerChase, PointerChaseParams};
use exynos::trace::gen::streaming::{MultiStride, MultiStrideParams};
use exynos::trace::{BoxedGen, SlicePlan, TraceGen};

#[test]
fn phase_mix_gaps_are_survived_and_counted() {
    // A phase mix switches code regions every 500 instructions — each
    // switch is a PC discontinuity the front end must treat as a redirect.
    let children: Vec<BoxedGen> = vec![
        Box::new(MultiStride::new(&MultiStrideParams::default(), 200, 1)),
        Box::new(PointerChase::new(&PointerChaseParams::default(), 201, 2)),
        Box::new(MarkovBranches::new(&MarkovParams::default(), 202, 3)),
    ];
    let mut mix = PhaseMix::new(children, 500);
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    let r = sim.run_slice(&mut mix, SlicePlan::new(2_000, 30_000)).unwrap();
    let gaps = sim.frontend().stats().trace_gaps;
    assert!(gaps >= 30, "phase switches must register as trace gaps: {gaps}");
    assert!(r.ipc > 0.0 && r.ipc <= 6.0);
}

#[test]
fn rapid_context_switches_never_wedge_the_pipeline() {
    // Re-keying every few thousand instructions (CEASER-style rotation,
    // §V) must degrade gracefully, not break the simulator.
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    let mut gen = MarkovBranches::new(&MarkovParams::default(), 203, 5);
    let mut last = 0;
    for round in 0..20u16 {
        sim.frontend_mut().set_context(ContextId::user(round, 0));
        for _ in 0..3_000 {
            let inst = gen.next_inst();
            let rt = sim.step(&inst).unwrap();
            assert!(rt >= last);
            last = rt;
        }
    }
    let s = sim.stats();
    assert_eq!(s.instructions, 60_000);
    let ipc = s.instructions as f64 / s.last_retire as f64;
    assert!(ipc > 0.05, "pipeline must keep moving across re-keys: {ipc}");
}

#[test]
fn flushing_switches_cost_more_than_rekeying() {
    // End-to-end §V tradeoff: flushing every predictor at each switch
    // yields strictly more mispredicts than CONTEXT_HASH re-keying.
    let run = |flush: bool| -> u64 {
        let mut sim = SimBuilder::config(CoreConfig::m4()).build().unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 204, 7);
        for round in 0..8u16 {
            if flush {
                sim.frontend_mut().set_context_flushing(ContextId::user(round, 0));
            } else {
                sim.frontend_mut().set_context(ContextId::user(round, 0));
            }
            for _ in 0..5_000 {
                let inst = gen.next_inst();
                sim.step(&inst).unwrap();
            }
        }
        sim.frontend().stats().total_mispredicts()
    };
    let flushed = run(true);
    let rekeyed = run(false);
    assert!(
        flushed > rekeyed,
        "flushing must cost retraining: {flushed} vs {rekeyed}"
    );
}

#[test]
fn parity_branches_stay_hard_on_every_generation() {
    // The adversarial (linearly-inseparable) tail of Fig. 9 must not be
    // magically learned by any generation — it pins the right edge of the
    // MPKI curves.
    for cfg in [CoreConfig::m1(), CoreConfig::m6()] {
        let name = cfg.gen;
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut gen = MarkovBranches::new(
            &MarkovParams {
                sites: 32,
                history_depth: 32,
                taps: 5,
                mode: MarkovMode::Parity,
                noise: 0.0,
                ..Default::default()
            },
            205,
            9,
        );
        let r = sim.run_slice(&mut gen, SlicePlan::new(5_000, 25_000)).unwrap();
        assert!(
            r.mpki > 30.0,
            "{name}: parity branches must stay hard, got {:.1}",
            r.mpki
        );
    }
}

#[test]
fn degenerate_workloads_do_not_break_the_model() {
    // Single-line spin (every instruction the same branch).
    use exynos::trace::{BranchInfo, BranchKind, Inst, Reg};
    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let spin = Inst::branch(
        0x4000_0000,
        BranchInfo {
            kind: BranchKind::CondDirect,
            taken: true,
            target: 0x4000_0000,
        },
        [Some(Reg::int(1)), None],
    );
    let mut last = 0;
    for _ in 0..10_000 {
        let rt = sim.step(&spin).unwrap();
        assert!(rt >= last);
        last = rt;
    }
    // One branch per cycle max through a single BR port; IPC <= 2 with
    // M6's 2 BR units but bounded by in-order retire of a 1-inst loop.
    let ipc = sim.stats().instructions as f64 / sim.stats().last_retire as f64;
    assert!(ipc <= 2.0 + 1e-9, "spin IPC {ipc}");
}

#[test]
fn seeded_chaos_injection_survives_every_generation() {
    // Every fault class firing on prime periods, across all six cores:
    // the run must finish (Ok or typed SimError — never a panic/abort),
    // and an Ok run must report sane IPC despite the corruption.
    for (i, cfg) in CoreConfig::all_generations().into_iter().enumerate() {
        let name = cfg.gen;
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        sim.attach_fault_injector(FaultPlan::chaos(0xC0FFEE + i as u64)).unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 210, 11 + i as u64);
        match sim.run_slice(&mut gen, SlicePlan::new(2_000, 40_000)) {
            Ok(r) => {
                assert!(r.ipc > 0.0 && r.ipc <= 6.0, "{name}: chaos IPC {}", r.ipc);
            }
            Err(e) => {
                // A typed error is an acceptable outcome under sustained
                // corruption; an untyped panic is not (it would have
                // aborted this test before reaching here).
                eprintln!("{name}: chaos run ended with typed error: {e}");
            }
        }
        let fs = sim.fault_stats().expect("injector attached");
        assert!(fs.total() > 0, "{name}: injector must actually fire");
        assert!(fs.malformed > 0 && fs.gaps > 0 && fs.btb_targets > 0);
    }
}

#[test]
fn chaos_injection_is_deterministic() {
    // Same seed → bit-identical outcome, including the injected faults.
    let run = || {
        let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
        sim.attach_fault_injector(FaultPlan::chaos(42)).unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 211, 13);
        let r = sim.run_slice(&mut gen, SlicePlan::new(1_000, 20_000));
        let s = sim.stats();
        (
            r.map(|r| (r.sim.last_retire, r.mpki.to_bits())).map_err(|e| e.to_string()),
            s.malformed_insts,
            s.predictor_corruptions,
            sim.fault_stats().map(|f| f.total()),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn malformed_records_are_counted_and_skipped() {
    let mut plan = FaultPlan::none();
    plan.malform_inst_every = 100;
    let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
    sim.attach_fault_injector(plan).unwrap();
    let mut gen = MultiStride::new(&MultiStrideParams::default(), 212, 17);
    let r = sim
        .run_slice(&mut gen, SlicePlan::new(0, 10_000))
        .expect("lenient decode skips malformed records");
    assert_eq!(sim.stats().malformed_insts, 100, "one skip per firing");
    assert!(r.ipc > 0.0);
}

#[test]
fn strict_decode_surfaces_malformed_records_as_typed_errors() {
    let mut plan = FaultPlan::none();
    plan.malform_inst_every = 500;
    let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
    sim.attach_fault_injector(plan).unwrap();
    sim.set_strict_decode(true);
    let mut gen = MultiStride::new(&MultiStrideParams::default(), 212, 17);
    match sim.run_slice(&mut gen, SlicePlan::new(0, 10_000)) {
        Err(SimError::MalformedInst { kind, .. }) => {
            assert!(matches!(
                kind,
                exynos::trace::InstKind::Load | exynos::trace::InstKind::Store
            ));
        }
        other => panic!("strict decode must error on the first malformed record: {other:?}"),
    }
}

#[test]
fn watchdog_detects_wedged_retirement_with_occupancy_snapshot() {
    // Wedge the retire stage: every 50th instruction completes 80k cycles
    // late (beyond the 50k default threshold). The degradation ladder
    // runs its three rungs, then the fourth stall surfaces the typed
    // error carrying an occupancy snapshot.
    let mut plan = FaultPlan::none();
    plan.stall_every = 50;
    plan.stall_cycles = 80_000;
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    sim.attach_fault_injector(plan).unwrap();
    let mut gen = MarkovBranches::new(&MarkovParams::default(), 213, 19);
    let err = sim
        .run_slice(&mut gen, SlicePlan::new(0, 10_000))
        .expect_err("a persistently wedged ROB must trip the watchdog");
    match err {
        SimError::ForwardProgressStall { stalled_cycles, recoveries, snapshot, .. } => {
            assert!(stalled_cycles > 50_000, "gap {stalled_cycles}");
            assert_eq!(recoveries, 3, "full ladder spent before erroring");
            assert_eq!(snapshot.rob_capacity, 228, "M5 ROB capacity in snapshot");
            assert!(snapshot.last_retire > 0, "snapshot captures retire progress");
            assert!(snapshot.mshr_capacity > 0);
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(sim.stats().watchdog_events, 4, "3 recovered + 1 fatal");
    assert_eq!(sim.stats().watchdog_recoveries, 3);
}

#[test]
fn watchdog_recoveries_decay_with_sustained_progress() {
    // Stalls spaced far apart (> the 1024-step decay streak) must each be
    // recovered: the ladder never exhausts, the run completes Ok.
    let mut plan = FaultPlan::none();
    plan.stall_every = 2_000;
    plan.stall_cycles = 80_000;
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    sim.attach_fault_injector(plan).unwrap();
    let mut gen = MarkovBranches::new(&MarkovParams::default(), 214, 23);
    sim.run_slice(&mut gen, SlicePlan::new(0, 20_000))
        .expect("isolated stalls must never abort the run");
    assert_eq!(sim.stats().watchdog_events, 10, "one event per firing");
    assert_eq!(sim.stats().watchdog_recoveries, 10, "every event recovered");
}

#[test]
fn watchdog_ladder_fires_in_order_on_every_generation() {
    // Soak the full degradation ladder across m1–m6: under a sustained
    // retirement wedge the rungs must fire in escalation order (flush
    // predictors → also demote the UOC to FilterMode → also re-key the
    // context cipher), the fourth event must surface the typed error,
    // and with the wedge removed the same simulator must resume forward
    // progress. No panics anywhere.
    use exynos::telemetry::{PipelineEvent, Telemetry, TelemetryConfig};

    for (i, cfg) in CoreConfig::all_generations().into_iter().enumerate() {
        let name = cfg.gen;
        let has_uoc = cfg.uoc.is_some();
        let mut plan = FaultPlan::none();
        plan.stall_every = 50;
        plan.stall_cycles = 80_000;
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        sim.attach_fault_injector(plan).unwrap();
        let mut gen = MarkovBranches::new(&MarkovParams::default(), 216, 31 + i as u64);
        let mut tel = Telemetry::new(TelemetryConfig { epoch_len: 5_000, event_capacity: 1 << 14 });
        let err = sim
            .run_slice_with(&mut gen, SlicePlan::new(0, 10_000), &mut tel)
            .expect_err("a persistent wedge must exhaust the ladder");
        match err {
            SimError::ForwardProgressStall { recoveries, .. } => {
                assert_eq!(recoveries, 3, "{name}: full ladder spent before erroring");
            }
            other => panic!("{name}: wrong error: {other}"),
        }
        assert_eq!(sim.stats().watchdog_events, 4, "{name}: 3 recovered + 1 fatal");
        assert_eq!(sim.stats().watchdog_recoveries, 3, "{name}");
        // The trip events record which rung each recovery applied;
        // they must appear exactly once each, in escalation order.
        let mut rungs = Vec::new();
        tel.events().for_each(&mut |r| {
            if let PipelineEvent::WatchdogTrip { rung, .. } = r.event {
                rungs.push(rung);
            }
        });
        assert_eq!(rungs, vec![0, 1, 2], "{name}: ladder order");
        if has_uoc {
            // Rung 1 demoted the UOC: its state loss is visible as zero
            // further supply only after demotion, which the soak can't
            // observe mid-run — but the demotion must not have broken
            // the machine; checked by the resume below.
            assert!(name == exynos::Generation::M5 || name == exynos::Generation::M6);
        }

        // Remove the wedge, grant fresh recovery budget (the operator
        // move the service tier automates), and keep going on the SAME
        // simulator. Completions stalled before the error are still in
        // flight, so the ladder may fire a few residual times — but it
        // must recover them all and the run must retire every
        // instruction without erroring.
        sim.attach_fault_injector(FaultPlan::none()).unwrap();
        sim.set_watchdog(50_000, 10).unwrap();
        let r = sim
            .run_slice(&mut gen, SlicePlan::new(0, 5_000))
            .unwrap_or_else(|e| panic!("{name}: progress must resume after the wedge clears: {e}"));
        assert!(r.ipc > 0.0, "{name}: resumed IPC {}", r.ipc);
        assert_eq!(r.sim.instructions, 5_000, "{name}: forward progress");
        let residual = r.sim.watchdog_events;
        assert!(residual <= 4, "{name}: only inflight wedges may still trip: {residual}");
    }
}

#[test]
fn watchdog_threshold_is_configurable() {
    // A tiny threshold and zero recovery budget: the first legitimate
    // long-latency event already errors out — proving the knob works.
    let mut sim = SimBuilder::config(CoreConfig::m1()).build().unwrap();
    sim.set_watchdog(10, 0).unwrap();
    let mut gen = PointerChase::new(&PointerChaseParams::default(), 215, 29);
    let err = sim.run_slice(&mut gen, SlicePlan::new(0, 50_000));
    assert!(
        matches!(err, Err(SimError::ForwardProgressStall { .. })),
        "a 10-cycle threshold must trip on any DRAM miss: {err:?}"
    );
}
