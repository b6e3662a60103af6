//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <cold_sweep|program_sweep|warm_sweep|service_mix|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints one detail object (every metric with its sample count and
//! quartiles, the results digest, failure messages) and, as its last line,
//! the result object `{"correct","attempted","failed","metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! It exits 1 when any operation failed or produced a wrong result. See
//! `README.md` beside this package for the metrics and workloads.

mod entry;
mod layers;
mod report;
mod service;
mod stats;
mod sweeps;

use exynos_trace::SlicePlan;
use report::Report;

const WORKLOADS: [&str; 4] = ["cold_sweep", "program_sweep", "warm_sweep", "service_mix"];

const USAGE: &str = "usage: perfbench --workload <cold_sweep|program_sweep|warm_sweep|service_mix|all> [--seed N] [--seconds S] [--trace 0|1]";

/// What one run measures and how long.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Seconds of timed operations (untraced runs).
    pub seconds: f64,
    pub trace: bool,
}

/// Every workload's fixed amount of work per operation.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `cold_sweep` windows per slice.
    pub cold: SlicePlan,
    /// `program_sweep` windows per program.
    pub program: SlicePlan,
    /// `warm_sweep`: the pool's warmup and each sweep's detail.
    pub warm: SlicePlan,
    /// `service_mix` job windows.
    pub svc_program: SlicePlan,
    pub svc_sweep: SlicePlan,
    pub svc_checkpoint_warmup: u64,
    /// Set-ups per run for cheap and for expensive set-ups; cheap ones
    /// also repeat until they have taken `setup_min_s` seconds in total.
    pub setup_reps: usize,
    pub heavy_setup_reps: usize,
    pub setup_min_s: f64,
    /// Fewest timed reps of an untraced sweep run.
    pub min_reps: usize,
    /// Untraced reps a traced sweep run measures its overhead against.
    pub baseline_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            cold: SlicePlan::new(5_000, 30_000),
            program: SlicePlan::new(20_000, 200_000),
            warm: SlicePlan::new(40_000, 10_000),
            svc_program: SlicePlan::new(20_000, 60_000),
            svc_sweep: SlicePlan::new(20_000, 5_000),
            svc_checkpoint_warmup: 20_000,
            setup_reps: 5,
            heavy_setup_reps: 3,
            setup_min_s: 0.05,
            min_reps: 5,
            baseline_reps: 3,
        }
    }
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| bad("expected a number of seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number of seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, opts))
}

pub fn run(workload: &str, opts: &Opts, sizes: &Sizes) -> Report {
    match workload {
        "cold_sweep" => sweeps::cold_sweep(opts, sizes),
        "program_sweep" => sweeps::program_sweep(opts, sizes),
        "warm_sweep" => sweeps::warm_sweep(opts, sizes),
        "service_mix" => service::service_mix(opts, sizes),
        other => Report::new("unknown", opts.seed, opts.trace)
            .abort(format!("unknown workload {other:?}")),
    }
}

/// `--workload all`: each workload in a child process of its own, so
/// each one's peak RSS is its own. Returns the worst exit code.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return 2;
        }
    };
    let mut worst = 0;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.to_owned();
        }
        let code = match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(s) => s.code().unwrap_or(2),
            Err(e) => {
                eprintln!("perfbench: running {w}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    worst
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if workload == "all" {
        std::process::exit(run_all(&args));
    }
    let report = run(&workload, &opts, &Sizes::full());
    println!("{}", report.detail_json());
    println!("{}", report.result_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The `name` of every entry of one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<String> {
        let doc = entry::parse_json(BENCHMARK).expect("BENCHMARK.json parses");
        let Some(exynos_service::json::Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list")
        };
        items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named entry")
                    .to_owned()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    impl Sizes {
        /// Tiny windows: every code path in a few seconds of work.
        fn smoke() -> Sizes {
            Sizes {
                cold: SlicePlan::new(300, 500),
                program: SlicePlan::new(300, 700),
                warm: SlicePlan::new(400, 300),
                svc_program: SlicePlan::new(300, 500),
                svc_sweep: SlicePlan::new(300, 200),
                svc_checkpoint_warmup: 300,
                setup_reps: 2,
                heavy_setup_reps: 2,
                setup_min_s: 0.0,
                min_reps: 2,
                baseline_reps: 1,
            }
        }
    }

    #[test]
    fn declared_names_are_well_formed_and_workloads_match() {
        for section in ["workloads", "end_to_end", "per_layer"] {
            for name in declared(section) {
                assert!(
                    well_formed(&name),
                    "{section} name {name:?} must match [A-Za-z0-9_.-]+"
                );
            }
        }
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let (w, o) = parse_args(&args(
            "--workload warm_sweep --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds, o.trace),
            ("warm_sweep", 7, 2.5, true)
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload all --trace yes",
            "--workload all --seconds -1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload, untraced and traced, at tiny sizes: correct, and
    /// emitting exactly the declared metrics as finite numbers.
    #[test]
    fn smoke_run_emits_every_declared_metric() {
        let (e2e, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for w in WORKLOADS {
            for trace in [false, true] {
                // The service needs time for a job of every program in each
                // half of a traced run; the sweeps stop after their
                // minimum reps.
                let seconds = if w == "service_mix" { 2.0 } else { 0.0 };
                let opts = Opts {
                    seed: 3,
                    seconds,
                    trace,
                };
                let report = run(w, &opts, &Sizes::smoke());
                assert!(report.correct(), "{w} trace={trace}: {:?}", report.failures);
                let got: Vec<String> = report.declared().iter().map(|m| m.name.clone()).collect();
                assert_eq!(
                    &got,
                    if trace { &per_layer } else { &e2e },
                    "{w} trace={trace}"
                );
                for m in report.declared().iter().chain(&report.extras) {
                    assert!(well_formed(&m.name), "{w}: {}", m.name);
                    assert!(m.s.median.is_finite(), "{w}: {} = {}", m.name, m.s.median);
                }
            }
        }
    }
}
