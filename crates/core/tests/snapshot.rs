//! The checkpoint/resume hard invariant: resuming a checkpoint taken at
//! instruction N and running to M is bit-identical to a straight run to
//! M — for every generation, with and without fault injection. Verified
//! at the strongest level available: the final re-encoded checkpoint
//! images of the two simulators must be byte-equal, which covers every
//! predictor table, cache tag, prefetcher stream, and counter at once.

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_core::error::SimError;
use exynos_core::fault::FaultPlan;
use exynos_core::sim::Simulator;
use exynos_snapshot::{fnv1a64, Encoder, Snapshot, SnapshotError, FORMAT_VERSION};
use exynos_trace::{standard_suite, SlicePlan, TraceGen};

/// Consume `n` instructions from `g` without simulating them (generator
/// fast-forward for the resumed half of the invariant).
fn fast_forward(g: &mut dyn TraceGen, n: u64) {
    for _ in 0..n {
        let _ = g.next_inst();
    }
}

/// Run the invariant for one configuration: warmup + checkpoint + detail
/// vs straight warmup + detail, comparing final checkpoint images.
fn assert_resume_invariant(cfg: CoreConfig, warmup: u64, detail: u64, fault: Option<FaultPlan>) {
    let slice = &standard_suite(1)[3];

    // Straight run to warmup + detail.
    let mut straight = SimBuilder::config(cfg.clone()).build().unwrap();
    if let Some(plan) = fault {
        straight.attach_fault_injector(plan).unwrap();
    }
    let mut g = slice.build().unwrap();
    straight
        .run_slice(&mut *g, SlicePlan::new(warmup, detail))
        .unwrap();

    // Checkpoint at warmup, resume, run the detail window.
    let mut warm = SimBuilder::config(cfg.clone()).build().unwrap();
    if let Some(plan) = fault {
        warm.attach_fault_injector(plan).unwrap();
    }
    let mut g = slice.build().unwrap();
    warm.run_warmup(&mut *g, warmup).unwrap();
    let image = warm.checkpoint();
    drop(warm);

    let mut resumed = Simulator::resume_with_config(cfg, &image).unwrap();
    let mut g = slice.build().unwrap();
    fast_forward(&mut *g, resumed.stats().instructions);
    resumed
        .run_slice(&mut *g, SlicePlan::new(0, detail))
        .unwrap();

    let a = straight.checkpoint();
    let b = resumed.checkpoint();
    assert_eq!(
        a.len(),
        b.len(),
        "checkpoint image size diverged after resume"
    );
    assert!(a == b, "resumed run diverged from the straight run");
    // Spot-check the headline counters too, for a readable failure mode.
    assert_eq!(straight.stats().instructions, resumed.stats().instructions);
    assert_eq!(straight.stats().last_retire, resumed.stats().last_retire);
}

#[test]
fn resume_is_bit_identical_for_all_generations() {
    for cfg in CoreConfig::all_generations() {
        assert_resume_invariant(cfg, 8_000, 12_000, None);
    }
}

#[test]
fn resume_is_bit_identical_with_random_warmups_and_faults() {
    // Deterministic pseudo-random warmup lengths (splitmix-style walk),
    // alternating fault injection on/off across the cases.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let configs = CoreConfig::all_generations();
    for (i, cfg) in configs.into_iter().enumerate() {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let warmup = 1_000 + (x >> 48); // 1_000 ..= 66_535
        let fault = if i % 2 == 0 {
            Some(FaultPlan::chaos(7 + i as u64))
        } else {
            None
        };
        assert_resume_invariant(cfg, warmup, 6_000, fault);
    }
}

#[test]
fn resume_restores_the_fault_injector_from_the_image() {
    let cfg = CoreConfig::m4();
    let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
    sim.attach_fault_injector(FaultPlan::chaos(11)).unwrap();
    let slice = &standard_suite(1)[0];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 5_000).unwrap();
    let image = sim.checkpoint();

    let resumed = Simulator::resume_with_config(cfg, &image).unwrap();
    assert_eq!(
        sim.fault_stats().unwrap().total(),
        resumed.fault_stats().unwrap().total(),
        "injection counters must survive the round trip"
    );
}

#[test]
fn resume_reads_the_generation_from_the_header() {
    let mut sim = SimBuilder::config(CoreConfig::m2()).build().unwrap();
    let slice = &standard_suite(1)[1];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 3_000).unwrap();
    let image = sim.checkpoint();

    let resumed = Simulator::resume(&image).unwrap();
    assert_eq!(resumed.config().gen, sim.config().gen);
    assert_eq!(resumed.stats().instructions, sim.stats().instructions);
}

#[test]
fn corrupted_images_yield_typed_errors_not_panics() {
    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let slice = &standard_suite(1)[2];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 2_000).unwrap();
    let image = sim.checkpoint();

    // Bad magic.
    let mut bad = image.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Unsupported format version.
    let mut bad = image.clone();
    bad[4] = 0xFF;
    bad[5] = 0xFF;
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Truncation at a sweep of prefix lengths.
    for cut in [9, 64, image.len() / 2, image.len() - 1] {
        assert!(matches!(
            Simulator::resume(&image[..cut]),
            Err(SimError::SnapshotDecode { .. })
        ));
    }

    // Wrong generation geometry: an M6 image into an M1 machine.
    assert!(matches!(
        Simulator::resume_with_config(CoreConfig::m1(), &image),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Trailing garbage.
    let mut bad = image.clone();
    bad.extend_from_slice(&[0u8; 3]);
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Flipped interior bytes must never panic (they may legitimately
    // decode if the flip lands in a counter, but structural damage must
    // surface as the typed error).
    for at in (8..image.len()).step_by(977) {
        let mut bad = image.clone();
        bad[at] ^= 0x55;
        let _ = Simulator::resume(&bad);
    }
}

/// Overwrite the one occurrence of `from` in `image` with `to`.
fn patch(image: &mut [u8], from: &[u8], to: &[u8]) {
    let hits: Vec<usize> = image
        .windows(from.len())
        .enumerate()
        .filter(|(_, w)| *w == from)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits.len(), 1, "the patched bytes must occur exactly once");
    image[hits[0]..hits[0] + to.len()].copy_from_slice(to);
}

/// Resume `image` and expect the typed decode error `want`.
fn assert_resume_rejects(image: &[u8], want: SnapshotError) {
    match Simulator::resume(image) {
        Err(SimError::SnapshotDecode { detail }) => assert_eq!(detail, want.to_string()),
        Err(e) => panic!("unexpected error {e}"),
        Ok(_) => panic!("an image the setters would refuse resumed"),
    }
}

#[test]
fn restored_zero_watchdog_threshold_is_rejected() {
    // A threshold no other field of the image spells out.
    const THRESHOLD: u64 = 0x5EED_7A11_0D06_0001;
    let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
    sim.set_watchdog(THRESHOLD, 3).unwrap();
    let mut image = sim.checkpoint();
    assert!(Simulator::resume(&image).is_ok());
    patch(&mut image, &THRESHOLD.to_le_bytes(), &0u64.to_le_bytes());
    assert_resume_rejects(&image, SnapshotError::Corrupt { what: "watchdog threshold" });
}

#[test]
fn restored_fault_plan_that_validate_rejects_is_rejected() {
    let valid = FaultPlan { seed: 0x5EED_FA17_0D06_0002, ..FaultPlan::none() };
    // A stall period with no magnitude: `FaultPlan::validate` refuses it.
    let invalid = FaultPlan { stall_every: 97, ..valid };
    assert!(invalid.validate().is_err());
    let encode = |plan: &FaultPlan| {
        let mut enc = Encoder::new();
        plan.save(&mut enc);
        enc.finish()
    };
    let mut sim = SimBuilder::config(CoreConfig::m5()).build().unwrap();
    sim.attach_fault_injector(valid).unwrap();
    let mut image = sim.checkpoint();
    assert!(Simulator::resume(&image).is_ok());
    patch(&mut image, &encode(&valid), &encode(&invalid));
    assert_resume_rejects(&image, SnapshotError::Corrupt { what: "fault plan stall knobs" });
}

/// Pins the on-disk checkpoint format byte for byte. Every other image
/// comparison in the suite is between two images from the same build,
/// so a field reordered consistently on both the save and the restore
/// side would pass them all; these digests would change. They may only
/// move together with a `FORMAT_VERSION` bump, so the version they were
/// recorded at is pinned beside them.
#[test]
fn checkpoint_image_bytes_are_pinned() {
    assert_eq!(FORMAT_VERSION, 3, "re-pin GOLDEN when the format version moves");
    // Per generation M1..M6: (digest without faults, digest under
    // FaultPlan::chaos(7)).
    const GOLDEN: [(u64, u64); 6] = [
        (0x50af_a93e_b5f4_6a8d, 0x89ff_c615_e5a1_4f7c),
        (0xbb8b_cba5_dd56_8e0a, 0x7e72_09ac_c634_99cd),
        (0xb654_18ad_befa_03df, 0x8846_2f8a_8a5c_03ed),
        (0xb4c2_e5e3_8fca_1e7f, 0x34b4_cb72_4fc1_b68a),
        (0x1315_f158_13ab_7e68, 0x45b4_c243_0719_cbf6),
        (0xa5b4_b735_109f_14df, 0x81f0_f152_2709_9bc0),
    ];
    let slice = &standard_suite(1)[4];
    let mut got = Vec::new();
    for cfg in CoreConfig::all_generations() {
        let mut pair = [0u64; 2];
        for (k, fault) in [None, Some(FaultPlan::chaos(7))].into_iter().enumerate() {
            let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
            if let Some(plan) = fault {
                sim.attach_fault_injector(plan).unwrap();
            }
            let mut g = slice.build().unwrap();
            sim.run_warmup(&mut *g, 3_000).unwrap();
            pair[k] = fnv1a64(&[&sim.checkpoint()]);
        }
        got.push((pair[0], pair[1]));
    }
    for (i, (g, want)) in got.iter().zip(GOLDEN.iter()).enumerate() {
        assert_eq!(
            g, want,
            "M{} checkpoint image digest moved: got {:#018x}/{:#018x}",
            i + 1, g.0, g.1
        );
    }
}
