//! The population behind Figs. 9, 16 and 17, swept once and checked three
//! ways: every record against the checked-in `population.csv`, every
//! rendered table and claim row against EXPERIMENTS.md, and every paper
//! claim against its floor.
//!
//! A change that means to move results copies the table this test writes
//! over `population.csv`, pastes the tables and claim rows `harness fig9`,
//! `fig16` and `fig17` print into EXPERIMENTS.md, and quotes the diff
//! summary in CHANGES.md. Nothing regenerates the file on its own.

use exynos_bench::experiments::{self as exp, SliceRecord};
use exynos_core::config::CoreConfig;
use std::sync::OnceLock;

/// The scale EXPERIMENTS.md reports and `harness` runs by default.
const SCALE: usize = 2;
const GOLDEN: &str = include_str!("../../../population.csv");
const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// The one sweep every test here reads.
fn population() -> &'static [SliceRecord] {
    static POP: OnceLock<Vec<SliceRecord>> = OnceLock::new();
    POP.get_or_init(|| exp::population(SCALE, 2).unwrap())
}

#[test]
fn population_matches_the_checked_in_table() {
    let pop = population();
    assert_eq!(pop.len(), 360, "60 slices x 6 generations");
    let got = exp::population_csv(pop);
    if got != GOLDEN {
        let (old, new): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), got.lines().collect());
        let differing: Vec<usize> = (0..old.len().max(new.len())).filter(|&i| old.get(i) != new.get(i)).collect();
        let shown: Vec<String> = differing
            .iter()
            .take(10)
            .map(|&i| format!("  {} -> {}", old.get(i).unwrap_or(&"(none)"), new.get(i).unwrap_or(&"(none)")))
            .collect();
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("population.csv");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "{} of {} lines differ from population.csv; the first, old -> new:\n{}\nthe new table is at {}",
            differing.len(),
            new.len().max(old.len()),
            shown.join("\n"),
            path.display()
        );
    }
    // Each value reads back to the sweep's bits.
    for (line, r) in GOLDEN.lines().skip(1).zip(pop) {
        let floats: Vec<u64> = line.split(',').skip(2).map(|v| v.parse::<f64>().unwrap().to_bits()).collect();
        assert_eq!(floats, [r.ipc.to_bits(), r.mpki.to_bits(), r.load_latency.to_bits()], "{line}");
    }
}

#[test]
fn experiments_md_shows_the_rendered_tables_and_claims() {
    let pop = population();
    for fig in [exp::FIG9, exp::FIG16, exp::FIG17] {
        let table = exp::distribution_table(pop, &fig);
        assert!(DOC.contains(&table), "EXPERIMENTS.md lacks the {} table:\n{table}", fig.id);
    }
    for c in exp::claims(pop) {
        let row = c.row();
        assert!(DOC.contains(&format!("{row}\n")), "EXPERIMENTS.md lacks the claim row:\n{row}");
    }
}

#[test]
fn every_claim_meets_its_floor() {
    for c in exp::claims(population()) {
        assert!(c.holds(), "{} {}: measured {} against floor {} ({:?})", c.figure, c.what, c.measured, c.floor, c.direction);
    }
}

#[test]
fn every_record_is_in_range() {
    let widths: Vec<(&str, f64)> = CoreConfig::all_generations().iter().map(|c| (c.gen.name(), c.width as f64)).collect();
    for r in population() {
        let width = widths.iter().find(|(g, _)| *g == r.gen).unwrap().1;
        assert!(r.ipc > 0.0 && r.ipc <= width + 1e-9, "{} on {}: ipc {}", r.name, r.gen, r.ipc);
        assert!((0.0..300.0).contains(&r.mpki), "{} on {}: mpki {}", r.name, r.gen, r.mpki);
        assert!(r.load_latency < 2_000.0, "{} on {}: lat {}", r.name, r.gen, r.load_latency);
    }
}
