//! Experiment functions regenerating every table and figure in the
//! paper's evaluation. Each returns structured data; the `harness` binary
//! prints it, and the Criterion benches time representative kernels.
//! Every catalog sweep, cold or warm, goes through [`sweep`].

use exynos_branch::config::FrontendConfig;
use exynos_branch::frontend::FrontEnd;
use exynos_branch::indirect::{IndirectConfig, IndirectPredictor};
use exynos_branch::shp::{apply_bias_delta, Shp, ShpConfig};
use exynos_branch::storage_budget;
use exynos_branch::ubtb::{MicroBtb, UbtbConfig};
use exynos_core::batch::{lockstep, CachedStream, ChunkCache};
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_core::config::{CoreConfig, Generation};
use exynos_core::sim::{Simulator, SliceResult};
use exynos_core::SimError;
use exynos_service::job::JobCtx;
use exynos_telemetry::SpanId;
use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
use exynos_trace::gen::markov::{MarkovBranches, MarkovParams};
use exynos_trace::gen::streaming::{MultiStride, MultiStrideParams, StrideComponent};
use exynos_trace::{standard_suite, Fingerprint, SlicePlan, SliceSpec, TraceError, TraceGen};
use std::sync::Arc;
use std::time::Instant;

/// Address-region base for program slices in a mixed catalog: far above
/// every synthetic slice (they start at 0, stepping 16) yet below the
/// 1M+ band `WorkloadSpec::Mix` reserves for its children.
pub const PROGRAM_REGION_BASE: u64 = 500_000;

/// The sweep catalog: the synthetic standard suite at `scale`, plus —
/// when `programs` is set — the embedded `exynos-asm` corpus as
/// `program/*` slices. Both populations build through the same fallible
/// [`TraceSource`](exynos_trace::TraceSource) API.
pub fn catalog_suite(scale: usize, programs: bool) -> Result<Vec<SliceSpec>, TraceError> {
    let mut suite = standard_suite(scale);
    if programs {
        suite.extend(exynos_asm::corpus_slices(SlicePlan::default(), PROGRAM_REGION_BASE)?);
    }
    // Collapse any program slices with identical content digests onto one
    // shared source (drops duplicate assemblies; see the trace crate).
    exynos_trace::dedupe_shared_sources(&mut suite);
    Ok(suite)
}

/// A compact per-slice, per-generation result record.
#[derive(Debug, Clone)]
pub struct SliceRecord {
    /// Slice name from the catalog.
    pub name: String,
    /// Generation name.
    pub gen: &'static str,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Mispredicts per kilo-instruction.
    pub mpki: f64,
    /// Average demand-load latency (cycles).
    pub load_latency: f64,
}

impl SliceRecord {
    /// The record of slice `name` on generation `gen` from its detail
    /// window's result.
    pub fn from_result(name: &str, gen: &'static str, r: &SliceResult) -> SliceRecord {
        SliceRecord {
            name: name.to_owned(),
            gen,
            ipc: r.ipc,
            mpki: r.mpki,
            load_latency: r.avg_load_latency,
        }
    }
}

/// A pool of warmed simulators, one per (generation, slice) job of the
/// population sweep over `standard_suite(scale)`, in job order
/// (generation-major, slice-minor). Building the pool pays each slice
/// group's warmup exactly once; every later sweep forks the residents by
/// clone and pays only the detail window — bit-identical to the cold
/// run. The pool holds no checkpoint images: code that needs one encodes
/// its own simulator ([`Simulator::checkpoint`]).
#[derive(Debug)]
pub struct WarmPool {
    /// The warmed simulators, job order.
    residents: Vec<Simulator>,
    /// Catalog scale the pool was built at.
    scale: usize,
    /// Warmup instructions every resident has stepped.
    warmup: u64,
}

impl WarmPool {
    /// Catalog scale the pool was built at.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Warmup instructions every resident has stepped.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Number of warmed simulators (one per job).
    pub fn jobs(&self) -> usize {
        self.residents.len()
    }

    /// Bytes held in checkpoint images: always 0, since the pool holds
    /// none. Kept for `perfbench/src/entry.rs`; it goes with that file's
    /// own adaptation.
    pub fn bytes(&self) -> usize {
        0
    }

    /// Fork job `i`'s warmed simulator (job order: generation-major,
    /// slice-minor) by cloning the resident state. The clone carries no
    /// cancel token (runtime state is not part of the warmed identity);
    /// attach one with [`Simulator::set_cancel_token`] if the job needs
    /// it.
    pub fn resident(&self, i: usize) -> Simulator {
        let mut sim = self.residents[i].clone();
        sim.clear_cancel_token();
        sim
    }
}

/// Warm the six generation members of every slice of
/// `standard_suite(scale)` for `warmup` instructions into a [`WarmPool`],
/// one lockstep slice group per job (the [`sweep`] engine's group job
/// with an empty detail window). Every warming simulator carries
/// `cancel`, so a deadline or an explicit cancel surfaces as a typed
/// [`SimError`] instead of a panic.
pub fn try_build_warm_pool(
    scale: usize,
    warmup: u64,
    threads: usize,
    cancel: &CancelToken,
) -> Result<WarmPool, SimError> {
    let suite = standard_suite(scale);
    let build = |cfg| SimBuilder::config(cfg).cancel_token(cancel.clone()).build();
    let start = Start::Cold { suite: &suite, warmup, build: &build };
    // Warmup records are stepped once and never read again: keep them
    // out of any resident cache.
    let cache = Arc::new(ChunkCache::with_budget(Some(0)));
    let ctx = JobCtx::detached(cancel.clone());
    // A literal plan: `SlicePlan::new` rejects the empty detail window.
    let plan = SlicePlan { warmup, detail: 0 };
    let mut groups = crate::sweep::run_indexed_result(suite.len(), threads, |s| {
        slice_group(start, &suite, s, plan, &cache, &ctx).map(|(members, ..)| members.into_iter())
    })?;
    // Regroup slice-major members into job order. Residents outlive the
    // building job; they must not carry its cancel token (a later
    // deadline on job A canceling job B).
    let mut residents = Vec::with_capacity(Generation::ALL.len() * suite.len());
    for _ in 0..Generation::ALL.len() {
        residents.extend(groups.iter_mut().filter_map(Iterator::next));
    }
    residents.iter_mut().for_each(Simulator::clear_cancel_token);
    Ok(WarmPool { residents, scale, warmup })
}

/// Where the members of a [`sweep`] start.
#[derive(Clone, Copy)]
pub enum Start<'a> {
    /// Simulators from `build` over `suite`, stepped through `warmup`
    /// records before the detail window. `build` attaches whatever the
    /// caller needs (injectors, cancel token).
    Cold {
        /// The slice catalog.
        suite: &'a [SliceSpec],
        /// Warmup records per slice.
        warmup: u64,
        /// Builds each member from its generation's configuration.
        build: &'a (dyn Fn(CoreConfig) -> Result<Simulator, SimError> + Sync),
    },
    /// Clones of a pool's residents over the pool's catalog; each
    /// slice's stream starts where the pool's warmup stopped.
    Warm(&'a WarmPool),
}

/// Wall-clock decomposition of a [`sweep`], summed over its slice groups
/// (aggregate worker-seconds when `threads > 1`, not wall). `prep_s`
/// covers building or forking the members and positioning the stream;
/// `stepping_s` covers the lockstep stepping itself (warmup included on
/// a cold start).
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmTiming {
    /// Seconds spent building or forking members.
    pub prep_s: f64,
    /// Seconds spent stepping.
    pub stepping_s: f64,
}

/// The sweep engine behind Figs. 9, 16 and 17 and every service sweep
/// and program job: every slice of the catalog across all six
/// generations, `detail` measured records each.
///
/// One job per slice runs on the work-stealing executor (see
/// [`slice_group`]): it builds (or forks, attaching `ctx.cancel`) the six
/// generation members and steps them in [`lockstep`] over one
/// [`CachedStream`] through `cache`, so each record is decoded once per
/// group, under a `slice[s]` span of `ctx`. A zero-budget cache is a
/// pure pass-through (the uncached sweep); a shared cache serves
/// repeated sweeps from resident chunks. Records come back in catalog
/// order (generation-major, slice-minor) and are bit-identical to
/// [`scalar_sweep`] for any thread count and any cache budget, warm or
/// cold. The first failing slice group (lowest index) is returned as its
/// typed error; within a group, the first member to fail in lockstep
/// order.
pub fn sweep(
    start: Start<'_>,
    detail: u64,
    threads: usize,
    cache: &Arc<ChunkCache>,
    ctx: &JobCtx,
) -> Result<(Vec<SliceRecord>, WarmTiming), SimError> {
    let pool_suite;
    let (suite, warmup) = match start {
        Start::Cold { suite, warmup, .. } => (suite, warmup),
        Start::Warm(pool) => {
            pool_suite = standard_suite(pool.scale);
            (&pool_suite[..], 0)
        }
    };
    let plan = SlicePlan::new(warmup, detail);
    let groups = crate::sweep::run_indexed_result(suite.len(), threads, |s| {
        slice_group(start, suite, s, plan, cache, ctx).map(|(_, results, timing)| (results, timing))
    })?;
    let mut timing = WarmTiming::default();
    for (_, t) in &groups {
        timing.prep_s += t.prep_s;
        timing.stepping_s += t.stepping_s;
    }
    let mut out = Vec::with_capacity(Generation::ALL.len() * suite.len());
    for (g, cfg) in CoreConfig::all_generations().iter().enumerate() {
        out.extend(suite.iter().zip(&groups).map(|(slice, (results, _))| {
            SliceRecord::from_result(&slice.name, cfg.gen.name(), &results[g])
        }));
    }
    Ok((out, timing))
}

/// One slice group, the unit of every sweep and of the pool build: the
/// six generation members of `suite[s]` (built by `start`'s builder, or
/// forked from its pool with `ctx.cancel` attached) stepped in
/// [`lockstep`] through `plan` over one stream, under a `slice[s]` span.
/// A warm start's `plan` has no warmup (the pool stepped it). Returns
/// the members, their detail-window results in generation order, and
/// the group's timing.
fn slice_group(
    start: Start<'_>,
    suite: &[SliceSpec],
    s: usize,
    plan: SlicePlan,
    cache: &Arc<ChunkCache>,
    ctx: &JobCtx,
) -> Result<(Vec<Simulator>, Vec<SliceResult>, WarmTiming), SimError> {
    let slice = &suite[s];
    let t0 = Instant::now();
    let mut stream = CachedStream::for_slice(Arc::clone(cache), slice);
    let mut members = match start {
        Start::Cold { build, .. } => {
            CoreConfig::all_generations().into_iter().map(build).collect::<Result<Vec<_>, _>>()?
        }
        Start::Warm(pool) => {
            // Cursor-skip the warmup: no records are generated unless
            // a later miss needs the generator fast-forwarded.
            stream.skip(pool.warmup);
            let fork = |g| {
                let mut sim = pool.resident(g * suite.len() + s);
                sim.set_cancel_token(ctx.cancel.clone());
                sim
            };
            (0..Generation::ALL.len()).map(fork).collect()
        }
    };
    let prep_s = t0.elapsed().as_secs_f64();
    let span = slice_span(ctx, s, &slice.name, "all");
    let t1 = Instant::now();
    let results = lockstep(&mut members, &mut stream, plan);
    let stepping_s = t1.elapsed().as_secs_f64();
    end_slice_span(ctx, span, members.first());
    Ok((members, results?, WarmTiming { prep_s, stepping_s }))
}

/// Open a `slice[k]` span under the job's attempt span.
pub(crate) fn slice_span(ctx: &JobCtx, k: usize, slice: &str, gen: &str) -> SpanId {
    let s = ctx.spans.start(&format!("slice[{k}]"), Some(ctx.attempt));
    ctx.spans.attr_str(s, "slice", slice);
    ctx.spans.attr_str(s, "gen", gen);
    s
}

/// Close a slice span, attaching `sim`'s last watchdog trip (if any) so
/// post-mortems carry the cycle/gap/rung that fired.
pub(crate) fn end_slice_span(ctx: &JobCtx, s: SpanId, sim: Option<&Simulator>) {
    if let Some(t) = sim.and_then(Simulator::watchdog_report) {
        ctx.spans.attr_u64(s, "watchdog_cycle", t.cycle);
        ctx.spans.attr_u64(s, "watchdog_gap", t.gap);
        ctx.spans.attr_u64(s, "watchdog_rung", t.rung as u64);
    }
    ctx.spans.end(s);
}

/// The scalar reference sweep, the oracle [`sweep`] is tested against:
/// one job per (generation, slice) pair, each its own simulator running
/// [`Simulator::run_slice`] over its own freshly seeded generator, in
/// catalog order (generation-major, slice-minor) for any `threads`.
pub fn scalar_sweep(
    suite: &[SliceSpec],
    warmup: u64,
    detail: u64,
    threads: usize,
) -> Result<Vec<SliceRecord>, SimError> {
    let gens = CoreConfig::all_generations();
    let per_gen = suite.len();
    crate::sweep::run_indexed_result(gens.len() * per_gen, threads, |i| {
        let cfg = &gens[i / per_gen];
        let slice = &suite[i % per_gen];
        let mut sim = SimBuilder::config(cfg.clone()).build()?;
        let mut gen = slice.build()?;
        let r = sim.run_slice(&mut *gen, SlicePlan::new(warmup, detail))?;
        Ok(SliceRecord::from_result(&slice.name, cfg.gen.name(), &r))
    })
}

/// [`sweep`] from a cold start through a pass-through cache, panicking
/// on a simulation error. Kept for `perfbench/src/entry.rs`; it goes
/// with that file's own adaptation.
pub fn run_suite_batched(
    suite: &[SliceSpec],
    warmup: u64,
    detail: u64,
    threads: usize,
) -> Vec<SliceRecord> {
    let cache = Arc::new(ChunkCache::with_budget(Some(0)));
    let start = Start::Cold { suite, warmup, build: &|cfg| SimBuilder::config(cfg).build() };
    match sweep(start, detail, threads, &cache, &JobCtx::detached(CancelToken::new())) {
        Ok((records, _)) => records,
        // `perfbench/src/entry.rs` expects a plain Vec, not a Result.
        #[allow(clippy::panic)]
        Err(e) => panic!("benchmark simulation failed: {e}"),
    }
}

/// [`sweep`] from `pool` through `cache`, panicking on a simulation
/// error. The last argument has no effect. Kept for
/// `perfbench/src/entry.rs`; it goes with that file's own adaptation.
pub fn run_population_warm_resident(
    pool: &WarmPool,
    detail: u64,
    threads: usize,
    cache: &Arc<ChunkCache>,
    _pipelined: bool,
) -> (Vec<SliceRecord>, WarmTiming) {
    match sweep(Start::Warm(pool), detail, threads, cache, &JobCtx::detached(CancelToken::new())) {
        Ok(r) => r,
        // `perfbench/src/entry.rs` expects a plain tuple, not a Result.
        #[allow(clippy::panic)]
        Err(e) => panic!("benchmark simulation failed: {e}"),
    }
}

/// Mean of a per-generation metric over records.
pub fn gen_mean(records: &[SliceRecord], gen: &str, metric: impl Fn(&SliceRecord) -> f64) -> f64 {
    let vals: Vec<f64> = records.iter().filter(|r| r.gen == gen).map(metric).collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

/// Sorted per-slice values of a metric for one generation (the X axis of
/// the paper's Figs. 9/16/17 "across workload slices" plots).
pub fn gen_curve(records: &[SliceRecord], gen: &str, metric: impl Fn(&SliceRecord) -> f64) -> Vec<f64> {
    let mut vals: Vec<f64> = records.iter().filter(|r| r.gen == gen).map(metric).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals
}

// ---------------------------------------------------------------------
// Fig. 1 — SHP MPKI vs GHIST length
// ---------------------------------------------------------------------

/// Drive a standalone SHP (bias included) over CBP-like history-dependent
/// branch traces with the GHIST length capped at `ghist_len`; returns
/// average MPKI over the trace set.
pub fn fig1_shp_mpki_vs_ghist(ghist_len: usize, branches_per_trace: usize) -> f64 {
    use std::collections::HashMap;
    let mut total_miss = 0u64;
    let mut total_insts = 0u64;
    // A small CBP-like set whose required history spans the sweep axis:
    // phase disambiguation needs roughly sites * log2(pattern) GHIST bits,
    // so these traces need ~12, ~24, ~40, ~60, ~96 and ~144 bits.
    for (depth, sites, seed) in [
        (4u32, 6usize, 11u64),
        (8, 8, 12),
        (16, 10, 13),
        (32, 12, 14),
        (64, 16, 15),
        (64, 24, 16),
    ] {
        let mut gen = MarkovBranches::new(
            &MarkovParams {
                sites,
                history_depth: depth,
                noise: 0.01,
                work_between: 4,
                load_frac: 0.0,
                ..Default::default()
            },
            90,
            seed,
        );
        let mut shp = Shp::new(ShpConfig {
            ghist_len: ghist_len.max(1),
            ..ShpConfig::m1()
        });
        let mut h = shp.history();
        let mut biases: HashMap<u64, i8> = HashMap::new();
        let mut branches = 0usize;
        while branches < branches_per_trace {
            let inst = gen.next_inst();
            total_insts += 1;
            let Some(b) = inst.branch else { continue };
            if !b.kind.is_conditional() {
                continue;
            }
            branches += 1;
            let bias = *biases.get(&inst.pc).unwrap_or(&0);
            let pred = if ghist_len == 0 {
                // Bias-only predictor (leftmost point of the sweep).
                let taken = bias >= 0;
                let d: i8 = if taken != b.taken || bias.unsigned_abs() < 8 {
                    if b.taken { 1 } else { -1 }
                } else {
                    0
                };
                biases.insert(inst.pc, apply_bias_delta(bias, d));
                taken
            } else {
                let pr = shp.predict(inst.pc, bias, &h);
                let d = shp.update(&pr, b.taken, false);
                biases.insert(inst.pc, apply_bias_delta(bias, d));
                pr.taken
            };
            if pred != b.taken {
                total_miss += 1;
            }
            h.push_outcome(b.taken);
            h.push_path(inst.pc);
        }
    }
    total_miss as f64 * 1000.0 / total_insts.max(1) as f64
}

// ---------------------------------------------------------------------
// Fig. 4 — µBTB graph dump
// ---------------------------------------------------------------------

/// Train a µBTB on a loop kernel and return the learned graph snapshot.
pub fn fig4_ubtb_graph() -> (Vec<(u64, u64, bool, bool, bool)>, bool) {
    let mut u = MicroBtb::new(UbtbConfig::m1());
    let mut gen = LoopNest::new(
        &LoopNestParams {
            depth: 2,
            trip_counts: vec![8, 64],
            body_len: 4,
            loads_per_body: 0,
            stores_per_body: 0,
            ..Default::default()
        },
        91,
        5,
    );
    for _ in 0..20_000 {
        let inst = gen.next_inst();
        if let Some(b) = inst.branch {
            let pred = u.predict(inst.pc);
            let ok = matches!(pred, exynos_branch::ubtb::UbtbPrediction::Hit { taken, target }
                if taken == b.taken && (!b.taken || target == b.target));
            u.update(
                inst.pc,
                b.taken,
                b.target,
                matches!(b.kind, exynos_trace::BranchKind::UncondDirect),
                ok,
            );
        }
    }
    (u.graph_snapshot(), u.is_locked())
}

// ---------------------------------------------------------------------
// Fig. 5 / Fig. 7 — taken-branch throughput and MRB refill
// ---------------------------------------------------------------------

/// Bubbles per taken branch on a chain of small always-taken basic blocks
/// *larger than the µBTB* — the mBTB-path scenario of Fig. 5, where the
/// 1AT (M3) and ZAT/ZOT (M5) mechanisms cut 2 bubbles to 1 and then 0.
pub fn fig5_bubbles_per_taken(cfg: FrontendConfig) -> f64 {
    use exynos_trace::{BranchInfo, BranchKind, Inst, Reg};
    let mut fe = FrontEnd::new(cfg);
    // 512 basic blocks of 3 instructions + an always-taken branch, cyclic.
    const BLOCKS: u64 = 512;
    const BLOCK_INSTS: u64 = 4;
    let base = 0x7_0000_0000u64;
    let block_pc = |b: u64| base + b * BLOCK_INSTS * 4;
    let mut b = 0u64;
    for _ in 0..400_000 {
        for k in 0..BLOCK_INSTS {
            let pc = block_pc(b) + k * 4;
            let inst = if k == BLOCK_INSTS - 1 {
                let next = (b + 1) % BLOCKS;
                Inst::branch(
                    pc,
                    BranchInfo {
                        kind: BranchKind::CondDirect,
                        taken: true,
                        target: block_pc(next),
                    },
                    [Some(Reg::int(1)), None],
                )
            } else {
                Inst::alu(pc, Reg::int(2), [Some(Reg::int(1)), None])
            };
            let _ = fe.on_inst(&inst);
        }
        b = (b + 1) % BLOCKS;
    }
    let s = fe.stats();
    s.bubbles as f64 / s.taken_branches.max(1) as f64
}

/// MRB effect (Fig. 7): run a mispredict-prone workload on M5 with and
/// without the MRB; returns (covered redirects with MRB, bubble
/// reduction fraction).
pub fn fig7_mrb_effect() -> (u64, f64) {
    let run = |mrb: bool| -> (u64, u64, u64) {
        let mut cfg = FrontendConfig::m5();
        if !mrb {
            cfg.mrb_entries = None;
        }
        let mut fe = FrontEnd::new(cfg);
        let mut gen = MarkovBranches::new(
            &MarkovParams {
                sites: 64,
                history_depth: 8,
                noise: 0.10,
                work_between: 3,
                load_frac: 0.0,
                ..Default::default()
            },
            93,
            3,
        );
        for _ in 0..300_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        let s = fe.stats();
        (s.mrb_covered, s.bubbles, s.taken_branches)
    };
    let (covered, bubbles_with, _) = run(true);
    let (_, bubbles_without, _) = run(false);
    let reduction = 1.0 - bubbles_with as f64 / bubbles_without.max(1) as f64;
    (covered, reduction)
}

// ---------------------------------------------------------------------
// Fig. 8 — indirect prediction: full VPC vs M6 hybrid
// ---------------------------------------------------------------------

/// For `targets` distinct indirect targets following a noisy Markov walk,
/// returns (accuracy, mean extra prediction cycles) for the given
/// indirect configuration.
pub fn fig8_indirect(targets: usize, cfg: IndirectConfig) -> (f64, f64) {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    let mut perm: Vec<usize> = (0..targets).collect();
    perm.shuffle(&mut rng);
    let mut shp = Shp::new(ShpConfig::m5());
    let mut h = shp.history();
    let mut pred = IndirectPredictor::new(cfg, 64);
    let mut cur = 0usize;
    let n = 8_000;
    for _ in 0..n {
        cur = if rng.gen_bool(0.85) {
            perm[cur]
        } else {
            rng.gen_range(0..targets)
        };
        let t = 0x9000 + cur as u64 * 0x40;
        let pr = pred.predict(0x4000, &shp, &h);
        let _ = pred.update(0x4000, t, pr.target, &mut shp, &mut h);
    }
    let s = pred.stats();
    (
        s.correct as f64 / s.lookups.max(1) as f64,
        s.extra_cycles as f64 / s.lookups.max(1) as f64,
    )
}

// ---------------------------------------------------------------------
// Table II — storage budgets
// ---------------------------------------------------------------------

/// Computed storage budgets per generation: (name, shp KB, l1 KB, l2 KB).
pub fn table2_storage() -> Vec<(&'static str, f64, f64, f64)> {
    FrontendConfig::all_generations()
        .into_iter()
        .map(|c| {
            let b = storage_budget(&c);
            (c.name, b.shp_kb, b.l1btb_kb, b.l2btb_kb)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 14 / Fig. 15 — prefetch delivery and adaptivity
// ---------------------------------------------------------------------

/// One-pass/two-pass behaviour (Fig. 14): run an L2-resident stream and a
/// DRAM-sized stream on M1; returns the two-pass stats for each.
pub fn fig14_twopass(
) -> Result<(exynos_prefetch::twopass::TwoPassStats, exynos_prefetch::twopass::TwoPassStats), SimError> {
    let run = |ws: u64| -> Result<_, SimError> {
        let mut sim = SimBuilder::config(CoreConfig::m1()).build()?;
        let mut gen = MultiStride::new(
            &MultiStrideParams {
                components: vec![StrideComponent { stride: 1, repeat: 1 }],
                working_set: ws,
                work_between: 3,
                ..Default::default()
            },
            94,
            5,
        );
        sim.run_slice(&mut gen, SlicePlan::new(5_000, 60_000))?;
        Ok(sim.memsys().twopass().stats())
    };
    // Resident: wraps within 256 KiB (fits the 2 MB M1 L2 after one lap).
    // Streaming: 256 MiB never fits.
    Ok((run(256 << 10)?, run(256 << 20)?))
}

/// Adaptive standalone prefetcher (Fig. 15): a phase-alternating stream
/// (prefetch-friendly, then random) on M5; returns its stats.
pub fn fig15_adaptive() -> exynos_prefetch::standalone::StandaloneStats {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mut sp = exynos_prefetch::StandalonePrefetcher::new(Default::default());
    for phase in 0..8 {
        if phase % 2 == 0 {
            // Friendly: unit-stride walk.
            let base = (phase as u64 + 1) * (1 << 24) / 64;
            for i in 0..3_000u64 {
                let _ = sp.on_l2_access(base + i, true);
                // Aggressive-mode accuracy feedback: friendly phases
                // confirm.
                if i % 4 == 0 {
                    sp.on_prefetch_outcome(true);
                }
            }
        } else {
            // Hostile: random lines.
            for _ in 0..3_000 {
                let _ = sp.on_l2_access(rng.gen::<u64>() >> 24, true);
                sp.on_prefetch_outcome(false);
            }
        }
    }
    sp.stats()
}

// ---------------------------------------------------------------------
// §IV.D — L2BTB capacity/latency ablation (BBench +2.8% claim)
// ---------------------------------------------------------------------

/// The M4 L2BTB capacity/latency change measured in isolation (§IV.D).
/// Returns ((bubbles/branch, MPKI) with the M3-era L2BTB,
/// (bubbles/branch, MPKI) with the M4 L2BTB).
pub fn btb_ablation_web() -> ((f64, f64), (f64, f64)) {
    // The paper measured the M4 L2BTB change "in isolation" (+2.8% on
    // BBench). We isolate it the same way: a front-end-only run over a
    // branch working set of ~24k sites — between the M3-era capacity
    // (16k entries) and the M4 capacity (32k) — so *retention* is the
    // differentiator. Reported as (bubbles/branch, MPKI) per config,
    // where MPKI includes the discovery redirects a thrashing L2BTB
    // re-pays every lap.
    let run = |cfg: &FrontendConfig| {
        let mut fe = FrontEnd::new(cfg.clone());
        let mut gen = MarkovBranches::new(
            &MarkovParams {
                sites: 24_000,
                history_depth: 4,
                noise: 0.0,
                work_between: 4,
                load_frac: 0.0,
                ..Default::default()
            },
            96,
            5,
        );
        for _ in 0..1_500_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        let s = fe.stats();
        (
            s.bubbles as f64 / s.branches.max(1) as f64,
            s.mpki(),
        )
    };
    let m4 = CoreConfig::m4();
    let mut old = m4.frontend.clone();
    old.btb.l2btb_entries = CoreConfig::m3().frontend.btb.l2btb_entries;
    old.btb.l2_fill_latency = CoreConfig::m3().frontend.btb.l2_fill_latency;
    old.btb.l2_fill_bandwidth = CoreConfig::m3().frontend.btb.l2_fill_bandwidth;
    (run(&old), run(&m4.frontend))
}

// ---------------------------------------------------------------------
// §IV.A — branch-pair statistics (60 / 24 / 16)
// ---------------------------------------------------------------------

/// Lead-taken / second-taken / both-not-taken percentages over the suite.
pub fn branch_pair_stats() -> Result<(f64, f64, f64), SimError> {
    let mut lead = 0u64;
    let mut second = 0u64;
    let mut both_nt = 0u64;
    for slice in standard_suite(1)
        .into_iter()
        .filter(|s| s.name.starts_with("web/") || s.name.starts_with("specint/"))
    {
        let mut fe = FrontEnd::new(FrontendConfig::m1());
        let mut gen = slice.build()?;
        for _ in 0..20_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        let s = fe.stats();
        lead += s.pair_lead_taken;
        second += s.pair_second_taken;
        both_nt += s.pair_both_not_taken;
    }
    let total = (lead + second + both_nt).max(1) as f64;
    Ok((
        100.0 * lead as f64 / total,
        100.0 * second as f64 / total,
        100.0 * both_nt as f64 / total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_longer_ghist_reduces_mpki() {
        let short = fig1_shp_mpki_vs_ghist(4, 3_000);
        let knee = fig1_shp_mpki_vs_ghist(32, 3_000);
        let long = fig1_shp_mpki_vs_ghist(165, 3_000);
        assert!(
            long < short * 0.8,
            "GHIST 165 must clearly beat GHIST 4: {long:.2} vs {short:.2}"
        );
        // Flat tail past the knee. At this scale GHIST 32 reads 30.43
        // MPKI and 165 reads 30.78 (+1.2%); a 5% band leaves ~4x margin
        // while the steep part (4 -> 32) moves 40%.
        assert!(
            (long - knee).abs() <= 0.05 * knee,
            "GHIST 165 must stay within 5% of GHIST 32: {long:.2} vs {knee:.2}"
        );
    }

    #[test]
    fn fig4_graph_learns_both_edge_kinds() {
        let (graph, locked) = fig4_ubtb_graph();
        assert!(locked, "kernel must lock");
        assert!(graph.len() >= 2);
        assert!(graph.iter().any(|&(_, _, t, nt, _)| t && nt), "a node with both edges");
    }

    #[test]
    fn fig5_m5_fewer_bubbles_than_m3() {
        let m3 = fig5_bubbles_per_taken(FrontendConfig::m3());
        let m5 = fig5_bubbles_per_taken(FrontendConfig::m5());
        assert!(m5 < m3, "ZAT/ZOT must cut bubbles/taken: {m5:.3} vs {m3:.3}");
    }

    #[test]
    fn fig8_hybrid_wins_at_high_target_counts() {
        let (acc_full, cyc_full) = fig8_indirect(128, IndirectConfig::full_vpc());
        let (acc_hyb, cyc_hyb) = fig8_indirect(128, IndirectConfig::m6_hybrid());
        assert!(acc_hyb > acc_full, "{acc_hyb:.3} vs {acc_full:.3}");
        assert!(cyc_hyb < cyc_full, "{cyc_hyb:.2} vs {cyc_full:.2}");
    }

    #[test]
    fn fig14_modes_differ_by_working_set() {
        let (resident, streaming) = fig14_twopass().unwrap();
        assert!(resident.to_one_pass >= 1, "L2-resident flips to one-pass: {resident:?}");
        assert!(
            streaming.first_passes > streaming.one_passes,
            "streaming stays two-pass: {streaming:?}"
        );
    }

    #[test]
    fn fig15_adaptive_toggles_modes() {
        let s = fig15_adaptive();
        assert!(s.promotions >= 1, "{s:?}");
        assert!(s.demotions >= 1, "{s:?}");
        assert!(s.phantoms > 0);
    }
}

// ---------------------------------------------------------------------
// Ablations — the design choices the paper calls out, toggled one at a
// time. Each returns (metric with the feature, metric without).
// ---------------------------------------------------------------------

/// One ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Feature name.
    pub name: &'static str,
    /// Metric label ("MPKI", "bubbles/taken", "avg load lat", "IPC").
    pub metric: &'static str,
    /// Metric with the feature enabled (the shipped design).
    pub with_feature: f64,
    /// Metric with the feature disabled.
    pub without_feature: f64,
}

/// Run a with/without config pair in [`lockstep`] over one pass-through
/// stream of `gen()`'s trace, so the trace is generated once for both.
/// Returns (with, without).
fn ablation_pair<G: TraceGen + Send + 'static>(
    with_cfg: CoreConfig,
    without_cfg: CoreConfig,
    gen: impl Fn() -> G + Send + Sync + 'static,
    plan: SlicePlan,
) -> Result<(SliceResult, SliceResult), SimError> {
    let mut members = [SimBuilder::config(with_cfg).build()?, SimBuilder::config(without_cfg).build()?];
    // A zero-budget cache stores nothing, so no lookup can ever hit and
    // the stream's fingerprint is never compared: any constant will do.
    let cache = Arc::new(ChunkCache::with_budget(Some(0)));
    let mut stream = CachedStream::new(cache, Fingerprint(0), move || Ok(Box::new(gen())));
    let r = lockstep(&mut members, &mut stream, plan)?;
    Ok((r[0].clone(), r[1].clone()))
}

fn frontend_mpki(cfg: &FrontendConfig, mk: &MarkovParams, insts: u64) -> f64 {
    let mut fe = FrontEnd::new(cfg.clone());
    let mut gen = MarkovBranches::new(mk, 97, 3);
    for _ in 0..insts {
        let inst = gen.next_inst();
        let _ = fe.on_inst(&inst);
    }
    fe.stats().mpki()
}

/// Run the front-end and memory-side ablation battery on `threads`
/// worker threads. Each ablation is an independent job (it builds its
/// own front-ends / simulators), so the battery runs on the
/// work-stealing executor; results come back in the fixed catalog order
/// below regardless of `threads`.
pub fn ablations_with_threads(threads: usize) -> Result<Vec<Ablation>, SimError> {
    type AblationJob = Box<dyn Fn() -> Result<Ablation, SimError> + Send + Sync>;
    let mut battery: Vec<AblationJob> = Vec::new();
    let mk = MarkovParams {
        sites: 64,
        history_depth: 8,
        noise: 0.02,
        work_between: 3,
        load_frac: 0.0,
        ..Default::default()
    };

    // Bias-weight doubling (§IV.A): scale 2 vs 1.
    battery.push(Box::new(move || {
        let with = frontend_mpki(&FrontendConfig::m1(), &mk, 400_000);
        let mut cfg = FrontendConfig::m1();
        cfg.shp.bias_scale = 1;
        let without = frontend_mpki(&cfg, &mk, 400_000);
        Ok(Ablation { name: "SHP bias doubling", metric: "MPKI", with_feature: with, without_feature: without })
    }));

    // Always-taken filtering (§IV.A anti-aliasing). Mix AT-heavy code with
    // hard branches in a small SHP so aliasing bites.
    battery.push(Box::new(|| {
        let mk_alias = MarkovParams {
            sites: 96,
            history_depth: 8,
            noise: 0.02,
            work_between: 2,
            load_frac: 0.0,
            ..Default::default()
        };
        let mut small = FrontendConfig::m1();
        small.shp.rows = 256; // stress aliasing
        let with = frontend_mpki(&small, &mk_alias, 400_000);
        let mut nofilter = small.clone();
        nofilter.at_filter = false;
        let without = frontend_mpki(&nofilter, &mk_alias, 400_000);
        Ok(Ablation { name: "always-taken SHP filter", metric: "MPKI", with_feature: with, without_feature: without })
    }));

    // ZAT/ZOT (§IV.E): bubbles per taken branch.
    battery.push(Box::new(|| {
        let with = fig5_bubbles_per_taken(FrontendConfig::m5());
        let mut cfg = FrontendConfig::m5();
        cfg.zero_bubble_atot = false;
        let without = fig5_bubbles_per_taken(cfg);
        Ok(Ablation { name: "ZAT/ZOT replication", metric: "bubbles/taken", with_feature: with, without_feature: without })
    }));

    // MRB (§IV.E): front-end bubbles on mispredict-prone code.
    battery.push(Box::new(|| {
        let bubbles = |mrb: bool| {
            let mut cfg = FrontendConfig::m5();
            if !mrb {
                cfg.mrb_entries = None;
            }
            let mut fe = FrontEnd::new(cfg);
            let mut gen = MarkovBranches::new(
                &MarkovParams {
                    sites: 64,
                    history_depth: 8,
                    noise: 0.10,
                    work_between: 3,
                    load_frac: 0.0,
                    ..Default::default()
                },
                93,
                3,
            );
            for _ in 0..300_000 {
                let inst = gen.next_inst();
                let _ = fe.on_inst(&inst);
            }
            fe.stats().bubbles as f64 / fe.stats().taken_branches.max(1) as f64
        };
        Ok(Ablation { name: "Mispredict Recovery Buffer", metric: "bubbles/taken", with_feature: bubbles(true), without_feature: bubbles(false) })
    }));

    // Integrated vs queue confirmation (§VII.D): stride confirmations.
    battery.push(Box::new(|| {
        use exynos_prefetch::{ConfirmScheme, MultiStrideEngine, StrideConfig};
        let confirms = |scheme: ConfirmScheme| {
            let mut e = MultiStrideEngine::new(StrideConfig {
                confirm: scheme,
                ..StrideConfig::m1()
            });
            let mut line = 0u64;
            let mut phase = 0usize;
            let pat = [2u64, 2, 5];
            for _ in 0..20_000 {
                let _ = e.on_demand_line(100_000 + line);
                line += pat[phase];
                phase = (phase + 1) % 3;
            }
            e.stats().confirms as f64
        };
        Ok(Ablation {
            name: "integrated confirmation",
            metric: "confirms (higher=better)",
            with_feature: confirms(ConfirmScheme::Integrated { lookahead: 4 }),
            without_feature: confirms(ConfirmScheme::Queue { depth: 16 }),
        })
    }));

    // Speculative DRAM read (§IX): avg load latency on a pointer chase.
    // Measured with early page activate off — the two features overlap
    // (both hide the leading edge of a DRAM access), so each is ablated
    // in isolation.
    battery.push(Box::new(|| {
        let mut with_cfg = CoreConfig::m5();
        with_cfg.spec_read = true;
        with_cfg.dram.early_activate = false;
        let mut without_cfg = with_cfg.clone();
        without_cfg.spec_read = false;
        let gen = || {
            exynos_trace::gen::pointer_chase::PointerChase::new(
                &exynos_trace::gen::pointer_chase::PointerChaseParams {
                    working_set: 64 << 20,
                    chains: 4,
                    ..Default::default()
                },
                98,
                4,
            )
        };
        let (w, wo) = ablation_pair(with_cfg, without_cfg, gen, SlicePlan::new(5_000, 40_000))?;
        Ok(Ablation {
            name: "speculative DRAM read",
            metric: "avg load lat",
            with_feature: w.avg_load_latency,
            without_feature: wo.avg_load_latency,
        })
    }));

    // Data fast path (§IX, M4): avg load latency on a DRAM-bound chase.
    battery.push(Box::new(|| {
        let mut with_cfg = CoreConfig::m4();
        with_cfg.dram.fast_path = true;
        let mut without_cfg = with_cfg.clone();
        without_cfg.dram.fast_path = false;
        let gen = || {
            exynos_trace::gen::pointer_chase::PointerChase::new(
                &exynos_trace::gen::pointer_chase::PointerChaseParams {
                    working_set: 64 << 20,
                    chains: 2,
                    ..Default::default()
                },
                99,
                4,
            )
        };
        let (w, wo) = ablation_pair(with_cfg, without_cfg, gen, SlicePlan::new(5_000, 40_000))?;
        Ok(Ablation {
            name: "DRAM data fast path",
            metric: "avg load lat",
            with_feature: w.avg_load_latency,
            without_feature: wo.avg_load_latency,
        })
    }));

    // Early page activate (§IX, M5).
    battery.push(Box::new(|| {
        let mut with_cfg = CoreConfig::m5();
        with_cfg.dram.early_activate = true;
        let mut without_cfg = with_cfg.clone();
        without_cfg.dram.early_activate = false;
        let gen = || {
            exynos_trace::gen::pointer_chase::PointerChase::new(
                &exynos_trace::gen::pointer_chase::PointerChaseParams {
                    working_set: 64 << 20,
                    chains: 2,
                    ..Default::default()
                },
                100,
                4,
            )
        };
        let (w, wo) = ablation_pair(with_cfg, without_cfg, gen, SlicePlan::new(5_000, 40_000))?;
        Ok(Ablation {
            name: "early page activate",
            metric: "avg load lat",
            with_feature: w.avg_load_latency,
            without_feature: wo.avg_load_latency,
        })
    }));

    // Buddy prefetcher (§VIII.B, M4): IPC on a 128 B-correlated workload.
    battery.push(Box::new(|| {
        let mut with_cfg = CoreConfig::m4();
        with_cfg.buddy = true;
        let mut without_cfg = with_cfg.clone();
        without_cfg.buddy = false;
        // Spatial payloads touch the second sector of each chased line's
        // 128 B granule.
        let gen = || {
            exynos_trace::gen::pointer_chase::PointerChase::new(
                &exynos_trace::gen::pointer_chase::PointerChaseParams {
                    working_set: 32 << 20,
                    chains: 4,
                    spatial_payload: true,
                    ..Default::default()
                },
                101,
                4,
            )
        };
        let (w, wo) = ablation_pair(with_cfg, without_cfg, gen, SlicePlan::new(5_000, 40_000))?;
        Ok(Ablation {
            name: "Buddy prefetcher",
            metric: "IPC (higher=better)",
            with_feature: w.ipc,
            without_feature: wo.ipc,
        })
    }));

    // Standalone prefetcher (§VIII.C, M5): it observes "a global view of
    // both the instruction and data accesses at the lower cache level" —
    // unlike the L1 engines, it covers the *instruction* stream. Measure
    // IPC on a straight-line code loop far larger than the L1I.
    battery.push(Box::new(|| {
        let with_cfg = CoreConfig::m5();
        let mut without_cfg = with_cfg.clone();
        without_cfg.standalone = None;
        // ~700 KB of code walked sequentially: every line is an L1I
        // miss; only an L2-level prefetcher can stay ahead of fetch.
        let gen = || {
            MarkovBranches::new(
                &MarkovParams {
                    sites: 20_000,
                    history_depth: 4,
                    noise: 0.0,
                    work_between: 4,
                    load_frac: 0.0,
                    ..Default::default()
                },
                102,
                4,
            )
        };
        let (w, wo) =
            ablation_pair(with_cfg, without_cfg, gen, SlicePlan::new(10_000, 60_000))?;
        Ok(Ablation {
            name: "standalone L2/L3 prefetcher",
            metric: "IPC (higher=better)",
            with_feature: w.ipc,
            without_feature: wo.ipc,
        })
    }));

    crate::sweep::run_indexed_result(battery.len(), threads, |i| battery[i]())
}

// ---------------------------------------------------------------------
// Fig. 10 — cross-context attack success rate
// ---------------------------------------------------------------------

/// The Fig. 10 attack-rate sweep: cross-context BTB training success with
/// and without CONTEXT_HASH target encryption, `trials` trials each.
/// Returns `(encrypted, hits, trials)` per setting in catalog order
/// (plain first); the two settings run as independent jobs on the
/// work-stealing executor.
pub fn attack_rate_sweep(trials: u32, threads: usize) -> Vec<(bool, u32, u32)> {
    let settings = [false, true];
    let Ok(rates) = crate::sweep::run_indexed_result(settings.len(), threads, |i| {
        let encrypt = settings[i];
        let (hits, total) = exynos_secure::attack::cross_training_rate(encrypt, trials);
        Ok::<_, std::convert::Infallible>((encrypt, hits, total))
    });
    rates
}

// ---------------------------------------------------------------------
// §V design space — flush-on-switch vs CONTEXT_HASH encryption
// ---------------------------------------------------------------------

/// Compare the §V mitigation options on a context-switch-heavy web
/// workload: returns `(policy name, post-switch MPKI over the recovery
/// window)` for (a) no protection, (b) full predictor flush, and (c)
/// CONTEXT_HASH target encryption. The paper's claim: encryption gives
/// "improved security with minimal performance impact" because only
/// indirect/RAS targets are lost, while a flush retrains everything.
pub fn security_policy_costs() -> Vec<(&'static str, f64)> {
    use exynos_secure::context::ContextId;
    use exynos_trace::gen::web::{WebParams, WebWorkload};
    #[derive(Clone, Copy, PartialEq)]
    enum Policy {
        None,
        Flush,
        Encrypt,
    }
    let run = |policy: Policy| -> f64 {
        let mut cfg = FrontendConfig::m4();
        cfg.encrypt_targets = policy == Policy::Encrypt;
        let mut fe = FrontEnd::new(cfg);
        let mut gen = WebWorkload::new(
            &WebParams {
                functions: 300,
                dispatch_targets: 32,
                ..Default::default()
            },
            103,
            9,
        );
        // Train in context 0.
        for _ in 0..150_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        // Context switch (same program resumes — e.g. returning from
        // another process's timeslice).
        match policy {
            Policy::Flush => fe.set_context_flushing(ContextId::user(7, 0)),
            _ => fe.set_context(ContextId::user(7, 0)),
        }
        let before = *fe.stats();
        for _ in 0..30_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        let after = fe.stats();
        (after.total_mispredicts() - before.total_mispredicts()) as f64 * 1000.0
            / (after.instructions - before.instructions) as f64
    };
    vec![
        ("no protection (vulnerable)", run(Policy::None)),
        ("flush all predictors", run(Policy::Flush)),
        ("CONTEXT_HASH encryption", run(Policy::Encrypt)),
    ]
}
