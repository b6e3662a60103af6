//! The three sweep workloads: `cold_sweep`, `program_sweep` and
//! `warm_sweep`. Each repeats one whole sweep (a rep) until the run's
//! time is up, timing each slice group of a rep on its own where the
//! sweep allows, checks every rep against the first bit for bit, and
//! checks two seed-chosen slices against the scalar simulator.

use crate::entry::{self, SliceRecord, SpanId};
use crate::layers::{self, OpCost, Start, Tracer};
use crate::report::{metric, single, Report};
use crate::stats::{median, peak_rss_mib, release_freed_memory, remap_seed, Fnv, Rng};
use crate::{Opts, Sizes};
use exynos_trace::{SlicePlan, SliceSpec};
use std::time::Instant;

/// Run `setup` at least `reps` times and until the set-ups have taken
/// `min_secs` in total, so a set-up of microseconds still yields a steady
/// median. Returns the last result and every duration.
///
/// With `release_memory`, freed heap memory goes back to the kernel before
/// each set-up, outside the timer: every set-up then pays for fresh pages
/// as the first one does, and a multi-threaded set-up's peak RSS does not
/// depend on which thread's allocator arena it lands in. Microsecond
/// set-ups leave it off: refaulting a few pages would double their time
/// in some processes and not in others.
pub fn repeated_setup<T>(
    reps: usize,
    min_secs: f64,
    release_memory: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs: Vec<f64> = Vec::with_capacity(reps);
    let mut last = None;
    while secs.len() < reps.max(1) || secs.iter().sum::<f64>() < min_secs {
        // Free the previous result first, so set-ups do not stack memory.
        drop(last.take());
        if release_memory {
            release_freed_memory();
        }
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    last.map(|v| (v, secs))
        .ok_or_else(|| "set-up never ran".to_owned())
}

/// Re-seed every slice of a catalog (seed 0 keeps the catalog's seeds).
pub fn reseed(mut catalog: Vec<SliceSpec>, seed: u64) -> Vec<SliceSpec> {
    for s in &mut catalog {
        s.seed = remap_seed(s.seed, seed);
    }
    catalog
}

/// Digest of a sweep's records, bit patterns included.
pub fn records_digest(records: &[SliceRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.bytes(r.name.as_bytes());
        h.bytes(r.gen.as_bytes());
        h.u64(r.ipc.to_bits());
        h.u64(r.mpki.to_bits());
        h.u64(r.load_latency.to_bits());
    }
    h.finish()
}

/// Holds the first rep's records and counts every later rep against them.
struct Reference {
    groups: u64,
    records: Option<Vec<SliceRecord>>,
}

impl Reference {
    fn accept(&mut self, report: &mut Report, what: &str, got: Result<Vec<SliceRecord>, String>) {
        match (got, &self.records) {
            (Err(e), _) => report.check(false, self.groups, || format!("{what}: {e}")),
            (Ok(records), None) => {
                let want = self.groups as usize * entry::generations().len();
                report.check(records.len() == want, self.groups, || {
                    format!("{what}: {} records, expected {want}", records.len())
                });
                self.records = Some(records);
            }
            (Ok(records), Some(first)) => {
                let ok = layers::records_equal(&records, first);
                report.check(ok, self.groups, || {
                    format!("{what}: records differ from rep 1")
                });
            }
        }
    }
}

/// Two distinct seed-chosen slices, each across all six generations,
/// against the scalar `Simulator::run_slice` reference.
fn scalar_oracle(
    report: &mut Report,
    catalog: &[SliceSpec],
    plan: SlicePlan,
    reference: &[SliceRecord],
    seed: u64,
) {
    let n = catalog.len();
    let mut rng = Rng::new(seed);
    let first = rng.below(n);
    let second = (first + 1 + rng.below(n - 1)) % n;
    for s in [first, second] {
        let mut why = String::new();
        for (g, cfg) in entry::generations().iter().enumerate() {
            let want = &reference[g * n + s];
            match entry::scalar_slice(cfg, &catalog[s], plan) {
                Ok(r)
                    if [r.ipc, r.mpki, r.avg_load_latency].map(f64::to_bits)
                        == [want.ipc, want.mpki, want.load_latency].map(f64::to_bits) => {}
                Ok(_) => {
                    why = format!(
                        "{} {}: sweep record differs from the scalar run",
                        catalog[s].name,
                        entry::gen_name(cfg)
                    )
                }
                Err(e) => {
                    why = format!(
                        "{} {}: scalar run failed: {e}",
                        catalog[s].name,
                        entry::gen_name(cfg)
                    )
                }
            }
        }
        report.check(why.is_empty(), 1, || why);
    }
}

/// Each timed rep's wall, the sum of its group walls.
fn rep_walls(reps: &[Vec<f64>]) -> Vec<f64> {
    reps.iter().map(|groups| groups.iter().sum()).collect()
}

/// The untraced end-to-end metrics every sweep reports. `reps` holds each
/// timed rep's group walls. Host contention only ever slows a group, and
/// on a shared host it comes and goes for seconds to minutes, so a median
/// over reps moves with it. `sim_minst_per_s` therefore takes each group
/// at its fastest rep: the rate of a rep the host did not slow. The
/// per-rep rates, contention included, go on the detail line.
fn sweep_e2e(report: &mut Report, setup_s: &[f64], reps: &[Vec<f64>], insts_per_rep: u64) {
    let groups = reps.iter().map(Vec::len).max().unwrap_or(0);
    let fastest: f64 = (0..groups)
        .map(|g| {
            reps.iter()
                .filter_map(|r| r.get(g).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let rates: Vec<f64> = rep_walls(reps)
        .iter()
        .map(|w| insts_per_rep as f64 / w / 1e6)
        .collect();
    report.e2e.extend(metric("setup_s", "s", setup_s));
    report.e2e.push(single(
        "sim_minst_per_s",
        "Minst/s",
        insts_per_rep as f64 / fastest / 1e6,
    ));
    match peak_rss_mib() {
        Ok(v) => report.e2e.push(single("peak_rss_mib", "MiB", v)),
        Err(e) => report.check(false, 1, || e),
    }
    report
        .extras
        .extend(metric("sim_minst_per_s.per_rep", "Minst/s", &rates));
}

/// Repeat `rep` until `opts.seconds` have passed and at least `min` reps
/// ran; in a traced run, exactly `sizes.baseline_reps`. Returns each
/// rep's group walls.
fn timed_reps(opts: &Opts, sizes: &Sizes, mut rep: impl FnMut() -> Vec<f64>) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let enough = if opts.trace {
            reps.len() >= sizes.baseline_reps
        } else {
            reps.len() >= sizes.min_reps && start.elapsed().as_secs_f64() >= opts.seconds
        };
        if enough {
            return reps;
        }
        reps.push(rep());
    }
}

/// A sweep rep as its layer replay sees it: the untraced median wall and
/// the traced rep's overhead over it.
fn op_cost(reps: &[Vec<f64>], traced_wall: f64) -> OpCost {
    let untraced = median(&rep_walls(reps));
    OpCost {
        wall_s: untraced,
        materialize_paid: 1.0,
        trace_overhead_frac: traced_wall / untraced - 1.0,
    }
}

/// Replay one rep's work layer by layer, check its records against the
/// measured ones, and set the report's per-layer metrics.
fn replay_layers(
    report: &mut Report,
    tr: &Tracer,
    catalog: &[SliceSpec],
    plan: SlicePlan,
    start: Start<'_>,
    records: &[SliceRecord],
    op: OpCost,
) -> Option<layers::Replay> {
    let span = tr.open("replay", tr.root);
    let replay = layers::replay(tr, span, catalog, plan, start);
    tr.close(span);
    let groups = catalog.len() as u64;
    match replay {
        Ok(r) => {
            report.check(layers::records_equal(&r.records, records), groups, || {
                "layer replay diverged from the measured records".to_owned()
            });
            report.layers = layers::layer_metrics(&r, &op);
            Some(r)
        }
        Err(e) => {
            report.check(false, groups, || format!("layer replay: {e}"));
            None
        }
    }
}

/// One rep of a catalog sweep: one `run_suite_batched` call per slice
/// group (with one worker thread, the same work as one call over the
/// whole catalog), so each group's wall is a sample of its own. Returns
/// the records in the whole-catalog call's order and the group walls; a
/// traced rep records one span per group under `trace`'s parent span.
fn grouped_sweep(
    catalog: &[SliceSpec],
    plan: SlicePlan,
    trace: Option<(&Tracer, SpanId)>,
) -> (Result<Vec<SliceRecord>, String>, Vec<f64>) {
    let mut walls = Vec::with_capacity(catalog.len());
    let mut groups = Vec::with_capacity(catalog.len());
    for (s, slice) in catalog.iter().enumerate() {
        let one = || entry::sweep(std::slice::from_ref(slice), plan);
        let (got, wall) = match trace {
            Some((tr, parent)) => tr.time(&format!("group[{s}]"), parent, one),
            None => {
                let t = Instant::now();
                let got = one();
                (got, t.elapsed().as_secs_f64())
            }
        };
        walls.push(wall);
        match got {
            Ok(records) => groups.push(records),
            Err(e) => return (Err(e), walls),
        }
    }
    let gens = entry::generations().len();
    let records = (0..gens)
        .flat_map(|g| groups.iter().filter_map(move |recs| recs.get(g).cloned()))
        .collect();
    (Ok(records), walls)
}

/// `cold_sweep` and `program_sweep`: a catalog swept from cold
/// simulators through `run_suite_batched`.
fn catalog_sweep(
    workload: &'static str,
    opts: &Opts,
    sizes: &Sizes,
    plan: SlicePlan,
    catalog: impl Fn() -> Result<Vec<SliceSpec>, String>,
) -> Report {
    let mut report = Report::new(workload, opts.seed, opts.trace);
    let mut setup_s = Vec::new();
    let mut setup = || {
        let (c, secs) = repeated_setup(sizes.setup_reps, sizes.setup_min_s, false, || {
            catalog().map(|c| reseed(c, opts.seed))
        })?;
        setup_s.extend(secs);
        Ok::<_, String>(c)
    };
    let mut catalog = match setup() {
        Ok(c) => c,
        Err(e) => return report.abort(e),
    };
    let groups = catalog.len() as u64;
    let insts_per_rep = groups * entry::generations().len() as u64 * (plan.warmup + plan.detail);
    let mut reference = Reference {
        groups,
        records: None,
    };
    let reps = timed_reps(opts, sizes, || {
        let (got, walls) = grouped_sweep(&catalog, plan, None);
        reference.accept(&mut report, "rep", got);
        // The set-up takes microseconds, and the host's speed changes from
        // one second to the next: set up again after every rep, so the
        // samples span the run. The old catalog goes first, so two never
        // hold memory at once; the next rep sweeps the new one.
        catalog = Vec::new();
        match setup() {
            Ok(c) => catalog = c,
            Err(e) => report.check(false, 1, || e),
        }
        walls
    });
    let Some(records) = reference.records.clone() else {
        return report;
    };
    if catalog.is_empty() {
        // A set-up after a rep failed; the failure is counted.
        return report;
    }
    report.digest = records_digest(&records);
    scalar_oracle(&mut report, &catalog, plan, &records, opts.seed);
    if !opts.trace {
        sweep_e2e(&mut report, &setup_s, &reps, insts_per_rep);
        return report;
    }

    let tr = Tracer::new(workload);
    // The traced rep: the same sweep, one span per slice group.
    let rep_span = tr.open("rep", tr.root);
    let (got, walls) = grouped_sweep(&catalog, plan, Some((&tr, rep_span)));
    tr.close(rep_span);
    reference.accept(&mut report, "traced rep", got);
    let traced_wall = walls.iter().sum();

    replay_layers(
        &mut report,
        &tr,
        &catalog,
        plan,
        Start::Cold,
        &records,
        op_cost(&reps, traced_wall),
    );
    if workload == "program_sweep" {
        let ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
        report.extras.extend(metric("asm.assemble_ms", "ms", &ms));
    }
    if let Err(e) = tr.finish(workload) {
        report.check(false, 1, || e);
    }
    report
}

/// `cold_sweep`: the 26-slice synthetic suite at the figure windows.
pub fn cold_sweep(opts: &Opts, sizes: &Sizes) -> Report {
    catalog_sweep("cold_sweep", opts, sizes, sizes.cold, || {
        Ok(entry::standard_catalog())
    })
}

/// `program_sweep`: the 8-program assembler corpus.
pub fn program_sweep(opts: &Opts, sizes: &Sizes) -> Report {
    catalog_sweep(
        "program_sweep",
        opts,
        sizes,
        sizes.program,
        entry::program_catalog,
    )
}

/// `warm_sweep`: one pool warmup as set-up, then short detail sweeps
/// forked from it.
pub fn warm_sweep(opts: &Opts, sizes: &Sizes) -> Report {
    let workload = "warm_sweep";
    let mut report = Report::new(workload, opts.seed, opts.trace);
    let (pool, setup_s) = match repeated_setup(sizes.heavy_setup_reps, 0.0, true, || {
        entry::build_warm_pool(sizes.warm.warmup)
    }) {
        Ok(v) => v,
        Err(e) => return report.abort(e),
    };
    let catalog = entry::standard_catalog();
    let plan = sizes.warm;
    let groups = catalog.len() as u64;
    let insts_per_rep = groups * entry::generations().len() as u64 * plan.detail;
    let mut reference = Reference {
        groups,
        records: None,
    };
    let mut prep_frac = Vec::new();
    // A warm sweep is one call over the whole pool: one group per rep.
    let reps = timed_reps(opts, sizes, || {
        let t = Instant::now();
        let got = entry::warm_sweep(&pool, plan.detail);
        let wall = t.elapsed().as_secs_f64();
        let got = got.map(|(records, timing)| {
            prep_frac.push(timing.prep_s / (timing.prep_s + timing.stepping_s));
            records
        });
        reference.accept(&mut report, "rep", got);
        vec![wall]
    });
    let Some(records) = reference.records.clone() else {
        return report;
    };
    report.digest = records_digest(&records);
    // A warm fork must equal the cold run of the same windows.
    scalar_oracle(&mut report, &catalog, plan, &records, opts.seed);
    if !opts.trace {
        sweep_e2e(&mut report, &setup_s, &reps, insts_per_rep);
        return report;
    }

    let tr = Tracer::new(workload);
    let (got, traced_wall) = tr.time("rep", tr.root, || entry::warm_sweep(&pool, plan.detail));
    reference.accept(&mut report, "traced rep", got.map(|(records, _)| records));
    if let Some(r) = replay_layers(
        &mut report,
        &tr,
        &catalog,
        plan,
        Start::Warm(&pool),
        &records,
        op_cost(&reps, traced_wall),
    ) {
        report
            .extras
            .push(single("bench.fork_ms", "ms", r.fork_s * 1e3));
    }
    report
        .extras
        .extend(metric("bench.warm_prep_frac", "frac", &prep_frac));
    report.extras.push(single(
        "bench.pool_image_mib",
        "MiB",
        entry::pool_image_bytes(&pool) as f64 / (1024.0 * 1024.0),
    ));
    if let Err(e) = tr.finish(workload) {
        report.check(false, 1, || e);
    }
    report
}
