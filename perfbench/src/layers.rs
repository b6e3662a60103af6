//! Per-layer measurement for traced runs.
//!
//! The replay re-runs one operation's simulation work with its layers
//! pulled apart, through public entry points only: each slice's records
//! are materialized first (the `trace`/`asm` layer), then every
//! generation steps them chunk by chunk in lockstep order (the `core`
//! layer with the components inside its step), each call timed on its
//! own. The replay's records must equal the operation's bit for bit, so
//! the decomposition is of the very work the workload measures. Spans go
//! to one in-memory recorder per run, written out once at exit.

use crate::entry::{self, Counts, SharedSpans, SliceRecord, SpanId, WarmPool};
use crate::report::{single, Metric};
use crate::stats::summarize;
use exynos_core::config::CoreConfig;
use exynos_trace::{SlicePlan, SliceSpec};
use std::time::Instant;

/// The run's span recorder: workload → phase → rep, slice group or job →
/// layer call.
pub struct Tracer {
    spans: SharedSpans,
    pub root: SpanId,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        let spans = SharedSpans::new();
        let root = spans.start("workload", None);
        spans.attr_str(root, "workload", workload);
        Tracer { spans, root }
    }

    pub fn open(&self, name: &str, parent: SpanId) -> SpanId {
        self.spans.start(name, Some(parent))
    }

    pub fn attr(&self, span: SpanId, key: &'static str, value: &str) {
        self.spans.attr_str(span, key, value);
    }

    pub fn close(&self, span: SpanId) {
        self.spans.end(span);
    }

    /// Run `f` inside a span; returns its result and wall seconds.
    pub fn time<T>(&self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(span);
        (out, secs)
    }

    /// Close the root and write every span as JSON Lines to
    /// `<target dir>/perfbench/spans-<workload>.jsonl`.
    pub fn finish(self, workload: &str) -> Result<std::path::PathBuf, String> {
        self.spans.end(self.root);
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = std::path::Path::new(&target).join("perfbench");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{workload}.jsonl"));
        std::fs::write(&path, self.spans.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Where the replayed simulators start.
pub enum Start<'a> {
    /// Cold simulators stepping the plan's warmup, then its detail.
    Cold,
    /// Simulators forked from the pool, whose warmup the stream skips.
    Warm(&'a WarmPool),
}

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Seconds each generation spent stepping, M1 first.
    pub step_s: Vec<f64>,
    /// Instructions each generation stepped.
    pub stepped: Vec<u64>,
    pub materialize_s: f64,
    /// Records materialized, skipped warmup records included.
    pub materialized: u64,
    pub fork_s: f64,
    /// Simulated events of each generation's detail windows.
    pub detail: Vec<Counts>,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    /// Records in sweep order (generation-major, slice-minor).
    pub records: Vec<SliceRecord>,
}

/// Replay `slices` under `plan` across every generation.
pub fn replay(
    tr: &Tracer,
    parent: SpanId,
    slices: &[SliceSpec],
    plan: SlicePlan,
    start: Start<'_>,
) -> Result<Replay, String> {
    let gens = entry::generations();
    let per_gen = slices.len();
    let mut out = Replay {
        step_s: vec![0.0; gens.len()],
        stepped: vec![0; gens.len()],
        detail: vec![Counts::default(); gens.len()],
        ..Replay::default()
    };
    let mut by_slice: Vec<Vec<SliceRecord>> = Vec::with_capacity(per_gen);
    for (s, slice) in slices.iter().enumerate() {
        let group = tr.open(&format!("group[{s}]"), parent);
        tr.attr(group, "slice", &slice.name);
        let (skip, warmup) = match start {
            Start::Cold => (0, plan.warmup),
            Start::Warm(_) => (plan.warmup, 0),
        };
        let (segments, secs) = tr.time("materialize", group, || {
            entry::materialize(slice, skip, &[warmup, plan.detail])
        });
        let segments = segments?;
        out.materialize_s += secs;
        out.materialized += skip + warmup + plan.detail;
        let mut sims = Vec::with_capacity(gens.len());
        for (g, cfg) in gens.iter().enumerate() {
            sims.push(match start {
                Start::Cold => entry::new_sim(cfg)?,
                Start::Warm(pool) => {
                    let (sim, secs) = tr.time("fork", group, || entry::fork(pool, g * per_gen + s));
                    out.fork_s += secs;
                    sim
                }
            });
        }
        let mut begin = Vec::new();
        let mut counts0 = Vec::new();
        for (k, segment) in segments.iter().enumerate() {
            if k == 1 {
                begin = sims.iter().map(entry::measure_begin).collect();
                counts0 = sims.iter().map(entry::counts).collect();
            }
            for chunk in segment {
                for (g, sim) in sims.iter_mut().enumerate() {
                    let span = tr.open("step", group);
                    tr.attr(span, "gen", entry::gen_name(&gens[g]));
                    let t = Instant::now();
                    let r = entry::step(sim, chunk);
                    out.step_s[g] += t.elapsed().as_secs_f64();
                    tr.close(span);
                    r?;
                    out.stepped[g] += chunk.len() as u64;
                }
            }
        }
        let mut records = Vec::with_capacity(gens.len());
        for (g, sim) in sims.iter().enumerate() {
            let r = entry::record_since(sim, &begin[g]);
            records.push(SliceRecord {
                name: slice.name.clone(),
                gen: entry::gen_name(&gens[g]),
                ipc: r.ipc,
                mpki: r.mpki,
                load_latency: r.avg_load_latency,
            });
            out.detail[g].add(&counts0[g].until(&entry::counts(sim)));
        }
        if s == 0 {
            for (g, sim) in sims.iter().enumerate() {
                let (image, enc) = tr.time("checkpoint", group, || entry::checkpoint(sim));
                let (back, dec) = tr.time("resume", group, || entry::resume(&gens[g], &image));
                if entry::counts(&back?) != entry::counts(sim) {
                    return Err(format!(
                        "{} {}: resumed simulator differs from its checkpoint",
                        slice.name,
                        entry::gen_name(&gens[g])
                    ));
                }
                out.encode_ms.push(enc * 1e3);
                out.decode_ms.push(dec * 1e3);
            }
        }
        by_slice.push(records);
        tr.close(group);
    }
    for g in 0..gens.len() {
        for slice_records in &by_slice {
            out.records.push(slice_records[g].clone());
        }
    }
    Ok(out)
}

/// The operation a replay re-runs, as the workload measured it.
pub struct OpCost {
    /// Untraced wall seconds of the replayed work (a sweep rep's median).
    pub wall_s: f64,
    /// Share of the replay's materialization the operation really pays
    /// (1 for sweeps; the chunk-cache miss ratio for service jobs).
    pub materialize_paid: f64,
    /// Traced operation wall over the untraced median, less one.
    pub trace_overhead_frac: f64,
}

fn gen_key(cfg: &CoreConfig) -> String {
    entry::gen_name(cfg).to_ascii_lowercase()
}

fn per_k(n: u64, insts: u64) -> f64 {
    n as f64 * 1000.0 / insts.max(1) as f64
}

/// The declared per-layer metrics from a replay and its operation.
pub fn layer_metrics(r: &Replay, op: &OpCost) -> Vec<Metric> {
    let gens = entry::generations();
    let mut m = Vec::new();
    for (g, cfg) in gens.iter().enumerate() {
        m.push(single(
            format!("core.step_ns_per_inst.{}", gen_key(cfg)),
            "ns/inst",
            r.step_s[g] * 1e9 / r.stepped[g].max(1) as f64,
        ));
    }
    let step = r.step_s.iter().sum::<f64>();
    m.push(single("core.step_share", "frac", step / op.wall_s));
    m.push(single(
        "trace.materialize_ns_per_inst",
        "ns/inst",
        r.materialize_s * 1e9 / r.materialized.max(1) as f64,
    ));
    let paid = step + r.materialize_s * op.materialize_paid + r.fork_s;
    m.push(single(
        "bench.lockstep_residual_frac",
        "frac",
        1.0 - paid / op.wall_s,
    ));
    if let (Some(enc), Some(dec)) = (summarize(&r.encode_ms), summarize(&r.decode_ms)) {
        m.push(Metric {
            name: "snapshot.encode_ms".into(),
            unit: "ms",
            s: enc,
        });
        m.push(Metric {
            name: "snapshot.decode_ms".into(),
            unit: "ms",
            s: dec,
        });
    }
    for (g, cfg) in gens.iter().enumerate() {
        let c = &r.detail[g];
        let k = gen_key(cfg);
        m.push(single(
            format!("core.ipc.{k}"),
            "inst/cycle",
            c.insts as f64 / c.cycles.max(1) as f64,
        ));
        m.push(single(
            format!("branch.mpki.{k}"),
            "1/kinst",
            per_k(c.mispredicts, c.insts),
        ));
        m.push(single(
            format!("branch.bubbles_pki.{k}"),
            "1/kinst",
            per_k(c.bubbles, c.insts),
        ));
        m.push(single(
            format!("mem.l1d_hit_ratio.{k}"),
            "frac",
            c.l1_hits as f64 / c.loads.max(1) as f64,
        ));
        m.push(single(
            format!("dram.loads_pki.{k}"),
            "1/kinst",
            per_k(c.dram_loads, c.insts),
        ));
        m.push(single(
            format!("prefetch.fills_pki.{k}"),
            "1/kinst",
            per_k(c.prefetch_fills, c.insts),
        ));
        if k == "m5" || k == "m6" {
            m.push(single(
                format!("uoc.supply_frac.{k}"),
                "frac",
                c.uoc_supplied as f64 / c.insts.max(1) as f64,
            ));
        }
    }
    m.push(single(
        "trace_overhead_frac",
        "frac",
        op.trace_overhead_frac,
    ));
    m
}

/// Bit-for-bit record equality (`f64::to_bits`).
pub fn records_equal(a: &[SliceRecord], b: &[SliceRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.gen == y.gen
                && x.ipc.to_bits() == y.ipc.to_bits()
                && x.mpki.to_bits() == y.mpki.to_bits()
                && x.load_latency.to_bits() == y.load_latency.to_bits()
        })
}
