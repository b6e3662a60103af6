//! The table/figure harness: regenerates every table and figure of the
//! paper's evaluation from the simulator.
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- all
//! cargo run --release -p exynos-bench --bin harness -- fig9 --scale 4 --threads 8
//! cargo run --release -p exynos-bench --bin harness -- fig17 --csv fig17.csv
//! ```
//!
//! Subcommands: table1 table2 table3 table4 fig1 fig4 fig5 fig7 fig8 fig9
//! fig10 fig14 fig15 fig16 fig17 uoc btb_ablation branchstats ablations
//! security_policies metrics trace checkpoint resume serve call spans
//! asm run all
//!
//! A simulation error ends the harness with exit status 1 and the
//! error's message on stderr; a usage or input error with status 2.
//!
//! Program-driven traces (see DESIGN.md, "Assembler frontend &
//! program-driven traces"): `asm` inspects a program, `run` executes one
//! across the generations, and `--programs` mixes the embedded corpus
//! into the population sweep as `program/*` slices.
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- asm fib_recursive
//! cargo run --release -p exynos-bench --bin harness -- asm path/to/kernel.s
//! cargo run --release -p exynos-bench --bin harness -- run --program computed_goto --quick
//! cargo run --release -p exynos-bench --bin harness -- run --program kernel.s --gen m5
//! cargo run --release -p exynos-bench --bin harness -- fig9 --programs
//! ```
//!
//! Sweep-as-a-service (see DESIGN.md, "Service tier & failure model"):
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- serve --socket /tmp/ex.sock --journal jobs.wal &
//! cargo run --release -p exynos-bench --bin harness -- call '{"cmd":"submit","job":{"kind":"sweep"}}' --socket /tmp/ex.sock
//! cargo run --release -p exynos-bench --bin harness -- call '{"cmd":"result","id":1}' --socket /tmp/ex.sock
//! cargo run --release -p exynos-bench --bin harness -- call '{"cmd":"shutdown"}' --socket /tmp/ex.sock
//! ```
//!
//! Service observability (see DESIGN.md, "Span tracing & flight
//! recorder"): `spans ID` prints a served job's span tree as JSONL,
//! `spans` with no id prints the per-stage latency quantiles, and
//! `call metrics --prom` prints the ops registry in Prometheus text
//! exposition format. `serve --postmortem-dir DIR` makes the flight
//! recorder write post-mortem dumps there.
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- spans 1 --socket /tmp/ex.sock
//! cargo run --release -p exynos-bench --bin harness -- spans --socket /tmp/ex.sock
//! cargo run --release -p exynos-bench --bin harness -- call metrics --prom --socket /tmp/ex.sock
//! ```
//!
//! Checkpoint round trip (byte-identical telemetry across the two runs):
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- checkpoint warm.ckpt > a.jsonl
//! cargo run --release -p exynos-bench --bin harness -- resume warm.ckpt > b.jsonl
//! cmp a.jsonl b.jsonl
//! ```
//!
//! Telemetry:
//!
//! ```text
//! cargo run --release -p exynos-bench --bin harness -- metrics --epoch 10000
//! cargo run --release -p exynos-bench --bin harness -- trace > events.jsonl
//! ```

use exynos_bench::experiments as exp;
use exynos_bench::sweep;
use exynos_branch::config::FrontendConfig;
use exynos_branch::indirect::IndirectConfig;
use exynos_core::batch::ChunkCache;
use exynos_core::builder::SimBuilder;
use exynos_core::cancel::CancelToken;
use exynos_core::config::CoreConfig;
use exynos_service::job::JobCtx;

/// Every recognized subcommand; anything else is a usage error.
const SUBCOMMANDS: &[&str] = &[
    "all", "table1", "table2", "table3", "table4", "fig1", "fig4", "fig5", "fig7", "fig8", "fig9",
    "fig10", "fig14", "fig15", "fig16", "fig17", "uoc", "btb_ablation", "branchstats", "ablations",
    "security_policies", "metrics", "trace", "checkpoint", "resume", "serve", "call",
    "spans", "asm", "run",
];

fn usage_error(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!(
        "usage: harness [SUBCOMMAND] [FILE] [--scale N] [--csv PATH] [--threads N] [--epoch N] [--quick]"
    );
    eprintln!("               [--socket PATH] [--journal PATH] [--workers N] [--queue N]");
    eprintln!("               [--postmortem-dir DIR] [--prom] [--programs]");
    eprintln!("               [--program FILE|NAME] [--gen mN]");
    eprintln!("subcommands: {}", SUBCOMMANDS.join(" "));
    eprintln!("FILE is required by checkpoint/resume (the on-disk image path),");
    eprintln!("by call (the JSON request line, e.g. '{{\"cmd\":\"ping\"}}') and by asm");
    eprintln!("(an assembly file path or embedded corpus program name);");
    eprintln!("spans takes an optional job id (no id: latency quantiles);");
    eprintln!("run needs --program FILE|NAME (all generations; --gen mN for one)");
    std::process::exit(2);
}

/// Unwrap a simulation result, or end the harness with exit status 1
/// and the error's message.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(1);
        }
    }
}

/// Parsed command line: the subcommand plus its options, every value
/// validated up front (a malformed value is a hard usage error, never a
/// silent fallback).
struct Options {
    cmd: String,
    file: Option<String>,
    scale: usize,
    csv_path: Option<String>,
    threads: Option<usize>,
    epoch: u64,
    quick: bool,
    socket: String,
    journal: Option<String>,
    workers: usize,
    queue_cap: usize,
    postmortem_dir: Option<String>,
    prom: bool,
    program: Option<String>,
    gen: Option<String>,
    programs: bool,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        cmd: "all".to_string(),
        file: None,
        scale: 1,
        csv_path: None,
        threads: None,
        epoch: 10_000,
        quick: false,
        socket: "exynos.sock".to_string(),
        journal: None,
        workers: 2,
        queue_cap: 64,
        postmortem_dir: None,
        prom: false,
        program: None,
        gen: None,
        programs: false,
    };
    let mut saw_cmd = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.scale = n,
                Some(_) => usage_error("--scale expects a positive integer"),
                None => usage_error("--scale is missing its value"),
            },
            "--csv" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.csv_path = Some(v.clone()),
                _ => usage_error("--csv is missing its path"),
            },
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.threads = Some(n),
                Some(_) => usage_error("--threads expects a positive integer"),
                None => usage_error("--threads is missing its value"),
            },
            "--epoch" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => opts.epoch = n,
                Some(_) => usage_error("--epoch expects a positive integer"),
                None => usage_error("--epoch is missing its value"),
            },
            "--quick" => opts.quick = true,
            "--socket" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.socket = v.clone(),
                _ => usage_error("--socket is missing its path"),
            },
            "--journal" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.journal = Some(v.clone()),
                _ => usage_error("--journal is missing its path"),
            },
            "--workers" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => opts.workers = n,
                Some(_) => usage_error("--workers expects a non-negative integer"),
                None => usage_error("--workers is missing its value"),
            },
            "--queue" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.queue_cap = n,
                Some(_) => usage_error("--queue expects a positive integer"),
                None => usage_error("--queue is missing its value"),
            },
            "--postmortem-dir" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.postmortem_dir = Some(v.clone()),
                _ => usage_error("--postmortem-dir is missing its path"),
            },
            "--prom" => opts.prom = true,
            "--program" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.program = Some(v.clone()),
                _ => usage_error("--program is missing its file path or corpus name"),
            },
            "--gen" => match it.next() {
                Some(v) if !v.starts_with("--") => opts.gen = Some(v.clone()),
                _ => usage_error("--gen is missing its generation name (m1..m6)"),
            },
            "--programs" => opts.programs = true,
            "--help" | "-h" => {
                println!(
                    "usage: harness [SUBCOMMAND] [--scale N] [--csv PATH] [--threads N] [--epoch N] [--quick]"
                );
                println!("subcommands: {}", SUBCOMMANDS.join(" "));
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown option '{flag}'"));
            }
            cmd if !saw_cmd => {
                if !SUBCOMMANDS.contains(&cmd) {
                    usage_error(&format!("unknown subcommand '{cmd}'"));
                }
                opts.cmd = cmd.to_string();
                saw_cmd = true;
            }
            path if matches!(opts.cmd.as_str(), "checkpoint" | "resume" | "call" | "spans" | "asm")
                && opts.file.is_none() =>
            {
                opts.file = Some(path.to_string());
            }
            extra => usage_error(&format!("unexpected argument '{extra}'")),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);
    let Options {
        cmd,
        file,
        scale,
        csv_path,
        threads,
        epoch,
        quick,
        socket,
        journal,
        workers,
        queue_cap,
        postmortem_dir,
        prom,
        program,
        gen,
        programs,
    } = opts;
    if cmd == "asm" {
        let Some(target) = file else {
            usage_error("'asm' needs an assembly file path or corpus program name");
        };
        asm_cmd(&target);
        return;
    }
    if cmd == "run" {
        let Some(target) = program else {
            usage_error("'run' needs --program FILE (or an embedded corpus name)");
        };
        run_program_cmd(&target, gen.as_deref(), quick);
        return;
    }
    if cmd == "serve" {
        serve_cmd(
            &socket,
            journal.as_deref(),
            workers,
            queue_cap,
            threads,
            postmortem_dir.as_deref(),
        );
        return;
    }
    if cmd == "call" {
        if prom {
            prom_cmd(&socket);
            return;
        }
        let Some(request) = file else {
            usage_error("'call' needs the JSON request line as an argument");
        };
        call_cmd(&socket, &request);
        return;
    }
    if cmd == "spans" {
        let id = file.map(|v| match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => usage_error("'spans' takes a numeric job id"),
        });
        spans_cmd(&socket, id);
        return;
    }
    if cmd == "checkpoint" || cmd == "resume" {
        let Some(path) = file else {
            usage_error(&format!("'{cmd}' needs the image file path"));
        };
        if cmd == "checkpoint" {
            checkpoint_cmd(&path, epoch, quick);
        } else {
            resume_cmd(&path, epoch, quick);
        }
        return;
    }
    if cmd == "metrics" {
        telemetry_metrics(epoch, quick, csv_path.as_deref());
        return;
    }
    if cmd == "trace" {
        telemetry_trace(epoch, quick);
        return;
    }
    let run_all = cmd == "all";
    let want = |name: &str| run_all || cmd == name;
    let sweep_threads = threads.unwrap_or_else(sweep::default_threads);

    // Population-based figures share one (expensive) sweep. With
    // --programs the embedded exynos-asm corpus joins the catalog as
    // program/* slices alongside the synthetic families.
    let population = if want("fig9") || want("fig16") || want("fig17") || want("table4") {
        let suite = or_exit(exp::catalog_suite(scale, programs));
        println!(
            "# running population sweep (scale {scale}; {} slices x 6 generations; {sweep_threads} threads)...",
            suite.len()
        );
        let cache = std::sync::Arc::new(ChunkCache::with_budget(Some(0)));
        let build = |cfg| SimBuilder::config(cfg).build();
        let start = exp::Start::Cold { suite: &suite, warmup: 5_000, build: &build };
        let ctx = JobCtx::detached(CancelToken::new());
        let (pop, _) = or_exit(exp::sweep(start, 30_000, sweep_threads, &cache, &ctx));
        if let Some(path) = &csv_path {
            let mut out = String::from("slice,generation,ipc,mpki,load_latency\n");
            for r in &pop {
                out.push_str(&format!(
                    "{},{},{:.4},{:.4},{:.2}\n",
                    r.name, r.gen, r.ipc, r.mpki, r.load_latency
                ));
            }
            match std::fs::write(path, out) {
                Ok(()) => println!("# wrote per-slice results to {path}"),
                Err(e) => eprintln!("# failed to write {path}: {e}"),
            }
        }
        Some(pop)
    } else {
        None
    };

    if want("table1") {
        table1();
    }
    if want("fig1") {
        fig1();
    }
    if want("fig4") {
        fig4();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig7") {
        fig7();
    }
    if want("fig8") {
        fig8();
    }
    if want("table2") {
        table2();
    }
    if let Some(pop) = &population {
        if want("fig9") {
            fig9(pop);
        }
    }
    if want("fig10") {
        fig10(sweep_threads);
    }
    if want("uoc") {
        uoc();
    }
    if want("fig14") {
        fig14();
    }
    if want("fig15") {
        fig15();
    }
    if want("table3") {
        table3();
    }
    if let Some(pop) = &population {
        if want("fig16") || want("table4") {
            fig16(pop);
        }
        if want("fig17") {
            fig17(pop);
        }
    }
    if want("btb_ablation") {
        btb_ablation();
    }
    if want("branchstats") {
        branchstats();
    }
    if want("ablations") {
        ablations(sweep_threads);
    }
    if want("security_policies") {
        security_policies();
    }
}

/// Resolve `target` to an assembled program: a readable file path wins
/// (program name = file stem), otherwise the embedded corpus is tried by
/// name. Every failure — unreadable path, unknown name, assembly error —
/// is a typed [`exynos_asm::Program`]-level error printed to stderr with
/// exit status 2 (a usage/input problem, never a panic).
fn load_program(target: &str) -> exynos_asm::Program {
    let assembled = match std::fs::read_to_string(target) {
        Ok(src) => {
            let name = std::path::Path::new(target)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(target)
                .to_owned();
            exynos_asm::Program::assemble(&name, &src)
        }
        Err(io) => match exynos_asm::corpus_source(target) {
            Some(src) => exynos_asm::Program::assemble(target, src),
            None => {
                eprintln!("harness: cannot read '{target}' ({io})");
                eprintln!(
                    "harness: and it names no embedded corpus program (available: {})",
                    exynos_asm::CORPUS.map(|(n, _)| n).join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    match assembled {
        Ok(p) => p,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(2);
        }
    }
}

/// `harness -- asm FILE|NAME`: assemble a program and print its
/// disassembly (with resolved labels and the entry marker) plus the
/// one-line static summary.
fn asm_cmd(target: &str) {
    let prog = load_program(target);
    print!("{}", prog.disasm());
    println!();
    println!("{}", prog.summary());
}

/// `harness -- run --program FILE|NAME [--gen mN] [--quick]`: execute a
/// program workload on every generation, or on one with `--gen`.
fn run_program_cmd(target: &str, gen: Option<&str>, quick: bool) {
    use exynos_bench::service_runner::parse_generation;
    use exynos_core::batch::{lockstep, CachedStream};
    use exynos_trace::{SlicePlan, SliceSpec, SuiteKind, WorkloadSpec};
    use std::sync::Arc;

    let prog = load_program(target);
    let name = prog.name().to_owned();
    println!("# {}", prog.summary());
    let (warmup, detail) = if quick { (1_000, 5_000) } else { (5_000, 30_000) };
    let plan = SlicePlan::new(warmup, detail);
    let slice = SliceSpec {
        name: format!("program/{name}"),
        suite: SuiteKind::ProgramLike,
        spec: WorkloadSpec::Program(Arc::new(exynos_asm::AsmSource::new(prog))),
        seed: 0xA500,
        region: exp::PROGRAM_REGION_BASE,
        plan,
    };
    let gens = match gen {
        Some(g) => match parse_generation(g) {
            Ok(v) => vec![CoreConfig::for_generation(v)],
            Err(e) => usage_error(&e.to_string()),
        },
        None => CoreConfig::all_generations(),
    };
    // Every generation steps over one pass-through stream, so the
    // program executes once however many generations run.
    let mut members: Vec<_> =
        gens.iter().map(|cfg| or_exit(SimBuilder::config(cfg.clone()).build())).collect();
    let mut stream = CachedStream::for_slice(Arc::new(ChunkCache::with_budget(Some(0))), &slice);
    let results = or_exit(lockstep(&mut members, &mut stream, plan));
    println!(
        "# program {name} ({warmup} warmup + {detail} measured instructions)"
    );
    println!("{:<6} {:>8} {:>8} {:>12}", "gen", "IPC", "MPKI", "load lat");
    for (cfg, r) in gens.iter().zip(&results) {
        let g = cfg.gen.name();
        println!("{g:<6} {:>8.3} {:>8.3} {:>12.2}", r.ipc, r.mpki, r.avg_load_latency);
    }
}

fn security_policies() {
    hr("§V design space — mitigation cost after a context switch");
    for (name, mpki) in exp::security_policy_costs() {
        println!("{name:<30} post-switch MPKI {mpki:>7.2}");
    }
    println!("(paper: erasing all state costs retraining; per-context tagging costs");
    println!(" area; CONTEXT_HASH encryption keeps direction state and only re-trains");
    println!(" indirect/return targets — 'minimal performance, timing, and area impact')");
}

fn ablations(threads: usize) {
    hr("Ablations — the design choices of DESIGN.md, toggled one at a time");
    println!(
        "{:<30} {:<26} {:>10} {:>10} {:>8}",
        "feature", "metric", "with", "without", "delta"
    );
    for a in or_exit(exp::ablations_with_threads(threads)) {
        let delta = if a.without_feature.abs() > 1e-9 {
            100.0 * (a.with_feature / a.without_feature - 1.0)
        } else {
            0.0
        };
        println!(
            "{:<30} {:<26} {:>10.3} {:>10.3} {:>7.1}%",
            a.name, a.metric, a.with_feature, a.without_feature, delta
        );
    }
}

fn hr(title: &str) {
    println!("\n================ {title} ================");
}

fn table1() {
    hr("Table I — microarchitectural feature comparison");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "feature", "M1", "M2", "M3", "M4", "M5", "M6"
    );
    let gens = CoreConfig::all_generations();
    let row = |name: &str, f: &dyn Fn(&CoreConfig) -> String| {
        print!("{name:<22}");
        for g in &gens {
            print!(" {:>7}", f(g));
        }
        println!();
    };
    row("width", &|c| c.width.to_string());
    row("ROB", &|c| c.rob.to_string());
    row("int PRF", &|c| c.int_prf.to_string());
    row("fp PRF", &|c| c.fp_prf.to_string());
    row("L1D KB", &|c| (c.mem.l1d.size_bytes >> 10).to_string());
    row("L2 KB", &|c| (c.mem.l2.size_bytes >> 10).to_string());
    row("L3 KB", &|c| {
        c.mem
            .l3
            .map(|x| (x.size_bytes >> 10).to_string())
            .unwrap_or_else(|| "-".into())
    });
    row("miss buffers", &|c| c.mem.miss_buffers.to_string());
    row("mispredict", &|c| c.lat.mispredict.to_string());
    row("L1 hit (cascade)", &|c| format!("{}({})", c.lat.l1_hit, c.lat.l1_cascade));
    row("FP mac/mul/add", &|c| {
        format!("{}/{}/{}", c.lat.fmac, c.lat.fmul, c.lat.fadd)
    });
}

fn fig1() {
    hr("Fig. 1 — SHP MPKI vs GHIST length (CBP-like traces)");
    println!("{:>6} {:>8}", "GHIST", "MPKI");
    for len in [0usize, 8, 16, 32, 48, 64, 96, 128, 165, 206] {
        let mpki = exp::fig1_shp_mpki_vs_ghist(len, 24_000);
        println!("{len:>6} {mpki:>8.2}");
    }
    println!("(paper: diminishing returns with longer GHIST; M1 chose 165 bits)");
}

fn fig4() {
    hr("Fig. 4 — learned µBTB branch graph");
    let (graph, locked) = exp::fig4_ubtb_graph();
    println!("locked: {locked}; {} nodes", graph.len());
    for (pc, target, t, nt, uncond) in graph {
        println!(
            "  node {pc:#x} -> {target:#x}  edges: T={} NT={}  {}",
            t as u8,
            nt as u8,
            if uncond { "uncond" } else { "cond" }
        );
    }
}

fn fig5() {
    hr("Fig. 5 — taken-branch bubbles (1AT / ZAT / ZOT evolution)");
    println!("{:>4} {:>16}", "gen", "bubbles/taken");
    for cfg in FrontendConfig::all_generations() {
        let b = exp::fig5_bubbles_per_taken(cfg.clone());
        println!("{:>4} {:>16.3}", cfg.name, b);
    }
    println!("(paper: M3 adds 1-bubble always-taken; M5 reaches zero via replication)");
}

fn fig7() {
    hr("Fig. 7 — Mispredict Recovery Buffer effect (M5)");
    let (covered, reduction) = exp::fig7_mrb_effect();
    println!("MRB-covered post-mispredict redirects : {covered}");
    println!(
        "front-end bubble reduction            : {:.1}%",
        reduction * 100.0
    );
}

fn fig8() {
    hr("Fig. 8 — indirect prediction: full VPC vs M6 hybrid");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "targets", "VPC acc", "VPC cycles", "hybrid acc", "hybrid cyc"
    );
    for targets in [2usize, 4, 8, 16, 64, 128, 256] {
        let (a1, c1) = exp::fig8_indirect(targets, IndirectConfig::full_vpc());
        let (a2, c2) = exp::fig8_indirect(targets, IndirectConfig::m6_hybrid());
        println!("{targets:>8} {a1:>12.3} {c1:>12.2} {a2:>12.3} {c2:>12.2}");
    }
    println!("(paper: VPC superior at small target counts; hybrid wins as counts grow)");
}

fn table2() {
    hr("Table II — branch predictor storage (KB), computed vs paper");
    let paper = [
        ("M1", 8.0, 32.5, 58.4),
        ("M2", 8.0, 32.5, 58.4),
        ("M3", 16.0, 49.0, 110.8),
        ("M4", 16.0, 50.5, 221.5),
        ("M5", 32.0, 53.3, 225.5),
        ("M6", 32.0, 78.5, 451.0),
    ];
    println!(
        "{:>4} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "gen", "SHP", "L1BTBs", "L2BTB", "total", "p.SHP", "p.L1", "p.L2", "p.tot"
    );
    for ((name, shp, l1, l2), (pn, ps, pl1, pl2)) in exp::table2_storage().into_iter().zip(paper) {
        assert_eq!(name, pn);
        println!(
            "{:>4} | {:>8.1} {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            name,
            shp,
            l1,
            l2,
            shp + l1 + l2,
            ps,
            pl1,
            pl2,
            ps + pl1 + pl2
        );
    }
}

fn fig9(pop: &[exp::SliceRecord]) {
    hr("Fig. 9 — MPKI across workload slices, by generation");
    // The paper omits M2 (identical predictor to M1).
    for gen in ["M1", "M3", "M4", "M5", "M6"] {
        let curve = exp::gen_curve(pop, gen, |r| r.mpki);
        let n = curve.len();
        let pick = |q: f64| curve[((n - 1) as f64 * q) as usize];
        println!(
            "{gen}: p10 {:>6.2}  p50 {:>6.2}  p90 {:>6.2}  max {:>6.2}  avg {:>6.2}",
            pick(0.10),
            pick(0.50),
            pick(0.90),
            curve[n - 1],
            exp::gen_mean(pop, gen, |r| r.mpki)
        );
    }
    let m1 = exp::gen_mean(pop, "M1", |r| r.mpki);
    let m6 = exp::gen_mean(pop, "M6", |r| r.mpki);
    println!(
        "average MPKI M1 -> M6: {m1:.2} -> {m6:.2} ({:+.1}%)   [paper: 3.62 -> 2.54, -29.8%]",
        100.0 * (m6 / m1 - 1.0)
    );
    // SPECint-like subset (the paper's -25.6% M1 -> M6 claim).
    let subset = |gen: &str| {
        let v: Vec<f64> = pop
            .iter()
            .filter(|r| r.gen == gen && r.name.starts_with("specint/"))
            .map(|r| r.mpki)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let (s1, s6) = (subset("M1"), subset("M6"));
    println!(
        "SPECint-like MPKI M1 -> M6: {s1:.2} -> {s6:.2} ({:+.1}%)   [paper: -25.6%]",
        100.0 * (s6 / s1 - 1.0)
    );
}

fn fig10(threads: usize) {
    hr("Figs. 10-11 — CONTEXT_HASH target encryption (Spectre v2)");
    for (enc, h, n) in exp::attack_rate_sweep(256, threads) {
        println!(
            "encryption {}: cross-training hijacks {h}/{n}",
            if enc { "ON " } else { "OFF" }
        );
    }
}

fn uoc() {
    hr("Figs. 12-13 — micro-op cache modes (M5 loop kernel)");
    use exynos_trace::gen::loops::{LoopNest, LoopNestParams};
    use exynos_trace::SlicePlan;
    let mut sim = or_exit(SimBuilder::config(CoreConfig::m5()).build());
    let mut gen = LoopNest::new(&LoopNestParams::default(), 95, 5);
    let r = or_exit(sim.run_slice(&mut gen, SlicePlan::new(10_000, 100_000)));
    println!("UOC stats: {:?}", sim.uoc_stats());
    println!(
        "µops supplied by UOC: {} of {} instructions ({:.1}%)",
        sim.stats().uoc_supplied,
        r.instructions,
        100.0 * sim.stats().uoc_supplied as f64 / r.instructions as f64
    );
}

fn fig14() {
    hr("Fig. 14 — one-pass / two-pass prefetching (M1)");
    let (resident, streaming) = or_exit(exp::fig14_twopass());
    println!("L2-resident stream : {resident:?}");
    println!("DRAM-sized stream  : {streaming:?}");
    println!("(paper: first-pass L2 hits reach a watermark and flip to one-pass)");
}

fn fig15() {
    hr("Fig. 15 — adaptive standalone prefetcher state transitions (M5)");
    let s = exp::fig15_adaptive();
    println!("{s:?}");
    println!("(low-confidence phantoms promote on filter hits; inaccuracy demotes)");
}

fn table3() {
    hr("Table III — cache hierarchy sizes");
    println!("{:>4} {:>8} {:>8}", "gen", "L2", "L3");
    for cfg in CoreConfig::all_generations() {
        println!(
            "{:>4} {:>7}K {:>8}",
            cfg.gen,
            cfg.mem.l2.size_bytes >> 10,
            cfg.mem
                .l3
                .map(|c| format!("{}K", c.size_bytes >> 10))
                .unwrap_or_else(|| "-".into())
        );
    }
}

fn fig16(pop: &[exp::SliceRecord]) {
    hr("Fig. 16 / Table IV — average load latency by generation");
    println!("{:>4} {:>10} {:>10} {:>10} {:>10}", "gen", "p25", "p50", "p90", "avg");
    let mut avgs = Vec::new();
    for gen in ["M1", "M2", "M3", "M4", "M5", "M6"] {
        let curve = exp::gen_curve(pop, gen, |r| r.load_latency);
        let n = curve.len();
        let pick = |q: f64| curve[((n - 1) as f64 * q) as usize];
        let avg = exp::gen_mean(pop, gen, |r| r.load_latency);
        avgs.push(avg);
        println!(
            "{gen:>4} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            pick(0.25),
            pick(0.50),
            pick(0.90),
            avg
        );
    }
    println!(
        "avg load latency M1 -> M6: {:.1} -> {:.1} ({:+.1}%)   [paper Table IV: 14.9 -> 8.3, -44%]",
        avgs[0],
        avgs[5],
        100.0 * (avgs[5] / avgs[0] - 1.0)
    );
}

fn fig17(pop: &[exp::SliceRecord]) {
    hr("Fig. 17 — IPC across workload slices, by generation");
    let mut m1_avg = 0.0;
    for gen in ["M1", "M2", "M3", "M4", "M5", "M6"] {
        let curve = exp::gen_curve(pop, gen, |r| r.ipc);
        let n = curve.len();
        let pick = |q: f64| curve[((n - 1) as f64 * q) as usize];
        let avg = exp::gen_mean(pop, gen, |r| r.ipc);
        if gen == "M1" {
            m1_avg = avg;
        }
        println!(
            "{gen}: p10 {:>5.2}  p50 {:>5.2}  p90 {:>5.2}  max {:>5.2}  avg {:>5.2}  ({:+.0}% vs M1)",
            pick(0.10),
            pick(0.50),
            pick(0.90),
            curve[n - 1],
            avg,
            100.0 * (avg / m1_avg - 1.0)
        );
    }
    let m6 = exp::gen_mean(pop, "M6", |r| r.ipc);
    let cagr = ((m6 / m1_avg).powf(1.0 / 5.0) - 1.0) * 100.0;
    println!(
        "IPC M1 -> M6: {m1_avg:.2} -> {m6:.2}; compounded {cagr:.1}%/generation   [paper: 1.06 -> 2.71, 20.6%/yr]"
    );
    // §XI's three regimes: classify slices by their M1 IPC tercile and
    // report each regime's M6 gain — low-IPC moves with the memory path,
    // the middle with MPKI/resources, high-IPC with machine width.
    let mut m1_slices: Vec<(&str, f64)> = pop
        .iter()
        .filter(|r| r.gen == "M1")
        .map(|r| (r.name.as_str(), r.ipc))
        .collect();
    m1_slices.sort_by(|a, b| a.1.total_cmp(&b.1));
    let n = m1_slices.len();
    let tercile = |range: std::ops::Range<usize>| -> (f64, f64) {
        let names: Vec<&str> = m1_slices[range].iter().map(|(n, _)| *n).collect();
        let mean = |gen: &str| {
            let v: Vec<f64> = pop
                .iter()
                .filter(|r| r.gen == gen && names.contains(&r.name.as_str()))
                .map(|r| r.ipc)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        (mean("M1"), mean("M6"))
    };
    println!("\n§XI regimes (by M1 IPC tercile):");
    for (label, range) in [
        ("low-IPC (memory-bound)", 0..n / 3),
        ("medium-IPC", n / 3..2 * n / 3),
        ("high-IPC (width-capped)", 2 * n / 3..n),
    ] {
        let (a, b) = tercile(range);
        println!("  {label:<26} M1 {a:>5.2} -> M6 {b:>5.2}  ({:+.0}%)", 100.0 * (b / a - 1.0));
    }
}

fn btb_ablation() {
    hr("§IV.D — M4 L2BTB capacity/latency ablation (24k-branch working set)");
    let ((old_bub, old_mpki), (new_bub, new_mpki)) = exp::btb_ablation_web();
    println!("M4 with M3-era L2BTB     : bubbles/branch {old_bub:.3}  MPKI {old_mpki:.2}");
    println!("M4 (2x L2BTB, fast fills): bubbles/branch {new_bub:.3}  MPKI {new_mpki:.2}");
    println!(
        "front-end stall reduction: {:.1}%  (paper: +2.8% BBench IPC in isolation)",
        100.0 * (1.0 - new_bub / old_bub.max(1e-9))
    );
}

fn branchstats() {
    hr("§IV.A — branch-pair statistics");
    let (lead, second, both) = or_exit(exp::branch_pair_stats());
    println!("lead taken      : {lead:.1}%   [paper: 60%]");
    println!("second taken    : {second:.1}%   [paper: 24%]");
    println!("both not-taken  : {both:.1}%   [paper: 16%]");
}

/// `harness -- serve [--socket PATH] [--journal PATH] [--workers N]
/// [--queue N] [--threads N] [--postmortem-dir DIR]`: run the resilient
/// job tier on a unix socket until a client sends `shutdown`.
/// `--journal` arms the write-ahead job journal, so a killed server
/// recovers incomplete jobs on restart; `--threads` sets the warm-pool
/// build parallelism; `--postmortem-dir` makes the flight recorder
/// write its post-mortem JSONL dumps there.
fn serve_cmd(
    socket: &str,
    journal: Option<&str>,
    workers: usize,
    queue_cap: usize,
    threads: Option<usize>,
    postmortem_dir: Option<&str>,
) {
    use exynos_bench::service_runner::BenchRunner;
    use exynos_service::{Engine, ServiceConfig};
    let pool_threads = threads.unwrap_or_else(sweep::default_threads);
    let cfg = ServiceConfig {
        workers,
        queue_capacity: queue_cap,
        journal_path: journal.map(std::path::PathBuf::from),
        postmortem_dir: postmortem_dir.map(std::path::PathBuf::from),
        ..ServiceConfig::default()
    };
    let engine = match Engine::start(Box::new(BenchRunner::new(pool_threads)), cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("harness: failed to start the service engine: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# serving on {socket}: {workers} workers, queue capacity {queue_cap}{}",
        journal.map(|j| format!(", journal {j}")).unwrap_or_default()
    );
    match exynos_service::socket::serve(engine, std::path::Path::new(socket)) {
        Ok(true) => eprintln!("# drained and stopped"),
        Ok(false) => {
            eprintln!("harness: drain timed out; in-flight jobs were aborted");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("harness: socket error: {e}");
            std::process::exit(1);
        }
    }
}

/// `harness -- call REQUEST [--socket PATH]`: send one protocol request
/// line, print the one-line response on stdout. Exits non-zero when the
/// server refuses (`"ok":false`) or cannot be reached, so shell scripts
/// can branch on the exit code alone.
fn call_cmd(socket: &str, request: &str) {
    use exynos_service::json::Json;
    let resp = match exynos_service::socket::call(
        std::path::Path::new(socket),
        request,
        std::time::Duration::from_secs(60),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harness: call to {socket} failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{resp}");
    let ok = Json::parse(&resp)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        std::process::exit(1);
    }
}

/// One protocol round trip, exiting on transport or server refusal, so
/// the observability subcommands share error handling. Returns the
/// parsed response plus the raw line.
fn call_checked(socket: &str, request: &str) -> (exynos_service::json::Json, String) {
    use exynos_service::json::Json;
    let resp = match exynos_service::socket::call(
        std::path::Path::new(socket),
        request,
        std::time::Duration::from_secs(60),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harness: call to {socket} failed: {e}");
            std::process::exit(1);
        }
    };
    let v = match Json::parse(&resp) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("harness: unparseable response {resp:?}: {e}");
            std::process::exit(1);
        }
    };
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("harness: server refused: {resp}");
        std::process::exit(1);
    }
    (v, resp)
}

/// `harness -- call metrics --prom [--socket PATH]`: fetch the ops
/// metrics registry in Prometheus text exposition format and print the
/// raw text, ready for a scrape endpoint or promtool.
fn prom_cmd(socket: &str) {
    use exynos_service::json::Json;
    let (v, _) = call_checked(socket, "{\"cmd\":\"metrics\",\"format\":\"prom\"}");
    let Some(text) = v.get("metrics").and_then(Json::as_str) else {
        eprintln!("harness: response carried no \"metrics\" text");
        std::process::exit(1);
    };
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
}

/// `harness -- spans [ID] [--socket PATH]`: with a job id, print the
/// job's span tree as JSONL (`trace-job`); with no id, print the
/// per-stage latency quantile summaries (`quantiles`) as one JSON line.
fn spans_cmd(socket: &str, id: Option<u64>) {
    use exynos_service::json::Json;
    match id {
        Some(id) => {
            let (v, _) = call_checked(socket, &format!("{{\"cmd\":\"trace-job\",\"id\":{id}}}"));
            let Some(spans) = v.get("spans").and_then(Json::as_str) else {
                eprintln!("harness: response carried no \"spans\" payload");
                std::process::exit(1);
            };
            print!("{spans}");
            if !spans.is_empty() && !spans.ends_with('\n') {
                println!();
            }
        }
        None => {
            let (_, resp) = call_checked(socket, "{\"cmd\":\"quantiles\"}");
            println!("{resp}");
        }
    }
}

/// Drive an instrumented M6 through one representative slice per suite
/// family; the shared body behind `metrics` and `trace`.
///
/// Every slice runs on the SAME simulator so the telemetry stream spans
/// workload phase changes (the inter-slice PC discontinuities surface as
/// trace-gap events, like context switches would).
fn telemetry_run(epoch_len: u64, quick: bool, event_capacity: usize) -> exynos_telemetry::Telemetry {
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    use exynos_trace::SlicePlan;

    let mut tel = Telemetry::new(TelemetryConfig { epoch_len, event_capacity });
    let mut sim = or_exit(SimBuilder::config(CoreConfig::m6()).build());
    let (warmup, detail) = if quick { (1_000, 4_000) } else { (5_000, 30_000) };
    let suite = exynos_trace::standard_suite(1);
    let mut seen = Vec::new();
    for slice in &suite {
        if seen.contains(&slice.suite) {
            continue;
        }
        seen.push(slice.suite);
        eprintln!("# slice {} ({} + {} instructions)", slice.name, warmup, detail);
        let mut gen = or_exit(slice.build());
        or_exit(sim.run_slice_with(&mut *gen, SlicePlan::new(warmup, detail), &mut tel));
    }
    // Close the trailing partial epoch so short runs still emit rows.
    sim.sample_telemetry(&mut tel);
    tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
    tel
}

/// `harness -- metrics [--epoch N] [--quick] [--csv PATH]`: epoch
/// time-series and histograms as JSON Lines on stdout, the summary table
/// on stderr.
fn telemetry_metrics(epoch_len: u64, quick: bool, csv_path: Option<&str>) {
    let tel = telemetry_run(epoch_len, quick, 1 << 16);
    print!("{}", tel.metrics_jsonl());
    if let Some(path) = csv_path {
        match std::fs::write(path, tel.metrics_csv()) {
            Ok(()) => eprintln!("# wrote epoch series to {path}"),
            Err(e) => {
                eprintln!("harness: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprint!("{}", tel.summary());
}

/// `harness -- trace [--epoch N] [--quick]`: the pipeline event trace as
/// JSON Lines on stdout, event counts on stderr.
fn telemetry_trace(epoch_len: u64, quick: bool) {
    let tel = telemetry_run(epoch_len, quick, 1 << 18);
    print!("{}", tel.events_jsonl());
    let events = tel.events();
    eprintln!("# {} events recorded, {} dropped", events.recorded(), events.dropped());
    for (name, count) in events.counts_by_name() {
        eprintln!("# {name:<22} {count}");
    }
}

/// The fixed workload protocol the checkpoint/resume pair shares: the
/// first catalog slice, with window sizes keyed off `--quick`.
fn roundtrip_windows(quick: bool) -> (u64, u64) {
    if quick {
        (2_000, 6_000)
    } else {
        (10_000, 40_000)
    }
}

/// `harness -- checkpoint FILE [--epoch N] [--quick]`: warm an M6 core
/// on the reference slice (silently), write the checkpoint image to
/// FILE, then continue through the detail window with telemetry JSONL
/// on stdout. `harness -- resume FILE` replays the same detail window
/// from the image; the two stdout streams are byte-identical.
fn checkpoint_cmd(path: &str, epoch_len: u64, quick: bool) {
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    use exynos_trace::SlicePlan;
    let (warmup, detail) = roundtrip_windows(quick);
    let mut sim = or_exit(SimBuilder::generation(exynos_core::config::Generation::M6).build());
    let suite = exynos_trace::standard_suite(1);
    let slice = &suite[0];
    let mut gen = or_exit(slice.build());
    or_exit(sim.run_warmup(&mut *gen, warmup));
    let image = sim.checkpoint();
    if let Err(e) = std::fs::write(path, &image) {
        eprintln!("harness: failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "# checkpoint: {} bytes at instruction {} ({})",
        image.len(),
        sim.stats().instructions,
        slice.name
    );
    let mut tel = Telemetry::new(TelemetryConfig { epoch_len, event_capacity: 1 << 16 });
    or_exit(sim.run_slice_with(&mut *gen, SlicePlan::new(0, detail), &mut tel));
    sim.sample_telemetry(&mut tel);
    tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
    print!("{}", tel.metrics_jsonl());
}

/// `harness -- resume FILE [--epoch N] [--quick]`: load the checkpoint
/// image, fast-forward the reference generator to the saved position,
/// and run the same detail window as `checkpoint`, telemetry JSONL on
/// stdout.
fn resume_cmd(path: &str, epoch_len: u64, quick: bool) {
    use exynos_core::sim::Simulator;
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    use exynos_trace::SlicePlan;
    let (_, detail) = roundtrip_windows(quick);
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("harness: failed to read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut sim = match Simulator::resume(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(1);
        }
    };
    let suite = exynos_trace::standard_suite(1);
    let slice = &suite[0];
    let mut gen = or_exit(slice.build());
    for _ in 0..sim.stats().instructions {
        let _ = gen.next_inst();
    }
    eprintln!(
        "# resumed at instruction {} ({})",
        sim.stats().instructions,
        slice.name
    );
    let mut tel = Telemetry::new(TelemetryConfig { epoch_len, event_capacity: 1 << 16 });
    or_exit(sim.run_slice_with(&mut *gen, SlicePlan::new(0, detail), &mut tel));
    sim.sample_telemetry(&mut tel);
    tel.end_epoch(sim.stats().instructions, sim.stats().last_retire);
    print!("{}", tel.metrics_jsonl());
}
