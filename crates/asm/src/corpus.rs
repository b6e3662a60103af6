//! The embedded program corpus and its catalog bindings.
//!
//! The repo ships ~8 hand-written kernels under `asm/` (embedded here via
//! `include_str!` so the corpus travels with the crate). Each covers a
//! behaviour the synthetic generator families cannot express natively:
//! real loop nests, recursion walking the RAS, computed-goto dispatch for
//! the indirect predictor, and history-dependent branches.
//!
//! [`AsmSource`] adapts an assembled [`Program`] to the
//! [`TraceSource`] contract, and [`corpus_slices`] packages the whole
//! corpus as [`SliceSpec`]s (suite [`SuiteKind::ProgramLike`]) ready for
//! the sweep machinery.

use crate::exec::Executor;
use crate::program::{DataCell, Program};
use exynos_trace::sample::SlicePlan;
use exynos_trace::suite::{SliceSpec, SuiteKind, WorkloadSpec};
use exynos_trace::{BoxedGen, FingerprintHasher, TraceError, TraceSource};
use std::sync::Arc;

/// The embedded corpus: `(name, source)` pairs, in catalog order.
pub const CORPUS: [(&str, &str); 8] = [
    ("nested_loops", include_str!("../../../asm/nested_loops.s")),
    ("fib_recursive", include_str!("../../../asm/fib_recursive.s")),
    ("computed_goto", include_str!("../../../asm/computed_goto.s")),
    ("pointer_chase", include_str!("../../../asm/pointer_chase.s")),
    ("stride_copy", include_str!("../../../asm/stride_copy.s")),
    ("parity_history", include_str!("../../../asm/parity_history.s")),
    ("call_tree", include_str!("../../../asm/call_tree.s")),
    ("matrix", include_str!("../../../asm/matrix.s")),
];

/// Look up a corpus program's source text by name.
pub fn corpus_source(name: &str) -> Option<&'static str> {
    CORPUS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Assemble a corpus program by name.
pub fn corpus_program(name: &str) -> Result<Program, TraceError> {
    let src = corpus_source(name).ok_or_else(|| {
        TraceError::program(
            name,
            format!(
                "not in the corpus (available: {})",
                CORPUS.map(|(n, _)| n).join(", ")
            ),
        )
    })?;
    Program::assemble(name, src)
}

/// A [`TraceSource`] backed by an assembled program.
///
/// Assembly happens once, up front (and fallibly); building a generator
/// from the shared [`Program`] afterwards cannot fail except on an empty
/// text section, which assembly already rejects.
#[derive(Debug, Clone)]
pub struct AsmSource {
    prog: Arc<Program>,
    restart_after: Option<u64>,
}

impl AsmSource {
    /// Wrap an assembled program.
    pub fn new(prog: Program) -> AsmSource {
        AsmSource {
            prog: Arc::new(prog),
            restart_after: None,
        }
    }

    /// Assemble `src` and wrap it.
    pub fn assemble(name: &str, src: &str) -> Result<AsmSource, TraceError> {
        Ok(AsmSource::new(Program::assemble(name, src)?))
    }

    /// Bound each pass to `n` emitted records (see
    /// [`Executor::set_restart_after`]).
    pub fn with_restart_after(mut self, n: Option<u64>) -> AsmSource {
        self.restart_after = n;
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }
}

impl TraceSource for AsmSource {
    fn label(&self) -> &str {
        self.prog.name()
    }

    fn build(&self, region: u64, seed: u64) -> Result<BoxedGen, TraceError> {
        let mut ex = Executor::new(self.prog.clone(), region, seed)?;
        ex.set_restart_after(self.restart_after);
        Ok(Box::new(ex))
    }

    /// Hash the assembled *content*, not the program name: two sources
    /// that reuse a file name for different programs must not collide in
    /// the chunk cache, and identical programs under different names may
    /// legitimately share chunks.
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_str("asm");
        h.write_u64(self.prog.entry() as u64);
        h.write_u64(self.prog.ops().len() as u64);
        for op in self.prog.ops() {
            h.write_str(&self.prog.render_op(op));
        }
        h.write_u64(self.prog.data().len() as u64);
        for cell in self.prog.data() {
            let (tag, payload) = match *cell {
                DataCell::Word(w) => (0, w),
                DataCell::TextAddr(idx) => (1, idx as u64),
                DataCell::DataAddr(off) => (2, off),
            };
            h.write_u64(tag);
            h.write_u64(payload);
        }
        match self.restart_after {
            None => h.write_bool(false),
            Some(n) => {
                h.write_bool(true);
                h.write_u64(n);
            }
        }
    }
}

/// Package the whole corpus as catalog slices.
///
/// Slice names are `program/<name>`, suites are
/// [`SuiteKind::ProgramLike`], and regions start at `base_region`
/// (stepping by 16, matching the synthetic catalog's spacing — pass a
/// base above the synthetic population's regions when mixing).
pub fn corpus_slices(plan: SlicePlan, base_region: u64) -> Result<Vec<SliceSpec>, TraceError> {
    let mut slices = Vec::with_capacity(CORPUS.len());
    for (i, (name, src)) in CORPUS.iter().enumerate() {
        let source = AsmSource::assemble(name, src)?;
        slices.push(SliceSpec {
            name: format!("program/{name}"),
            suite: SuiteKind::ProgramLike,
            spec: WorkloadSpec::Program(Arc::new(source)),
            seed: 0xA500 + i as u64,
            region: base_region + (i as u64) * 16,
            plan,
        });
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_trace::TraceGen;

    #[test]
    fn whole_corpus_assembles() {
        for (name, _) in CORPUS {
            let p = corpus_program(name).unwrap();
            assert!(!p.ops().is_empty(), "{name}");
            assert!(!p.disasm().is_empty(), "{name}");
        }
    }

    #[test]
    fn corpus_slices_build_and_stream() {
        let slices = corpus_slices(SlicePlan::default(), 1000).unwrap();
        assert_eq!(slices.len(), CORPUS.len());
        for s in &slices {
            assert!(s.name.starts_with("program/"), "{}", s.name);
            assert_eq!(s.suite.label(), "program");
            let mut g = s.build().unwrap();
            for _ in 0..2_000 {
                let _ = g.next_inst();
            }
        }
    }

    #[test]
    fn unknown_corpus_name_is_typed() {
        let e = corpus_program("nope").unwrap_err();
        assert_eq!(e.kind(), "program");
    }

    #[test]
    fn corpus_regions_do_not_collide() {
        let slices = corpus_slices(SlicePlan::default(), 0).unwrap();
        let mut regions: Vec<u64> = slices.iter().map(|s| s.region).collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), slices.len());
    }

    #[test]
    fn fingerprint_tracks_content_not_name() {
        let fp = |s: &AsmSource| {
            let mut h = FingerprintHasher::new();
            s.fingerprint_into(&mut h);
            h.finish()
        };
        let src = corpus_source("nested_loops").unwrap();
        let a = AsmSource::assemble("nested_loops", src).unwrap();
        let renamed = AsmSource::assemble("other_name", src).unwrap();
        assert_eq!(fp(&a), fp(&renamed), "name must not affect the content digest");
        let other = AsmSource::assemble("nested_loops", corpus_source("matrix").unwrap()).unwrap();
        assert_ne!(fp(&a), fp(&other), "same name, different program must differ");
        let bounded = a.clone().with_restart_after(Some(4_000));
        assert_ne!(fp(&a), fp(&bounded), "restart bound changes the stream");
    }

    #[test]
    fn fingerprint_tracks_every_data_word() {
        let fp = |src: &str| {
            let mut h = FingerprintHasher::new();
            AsmSource::assemble("k", src).unwrap().fingerprint_into(&mut h);
            h.finish()
        };
        let prog = |word: &str| format!(".data\ntab: .word 1, {word}, main\n.text\nmain:\n    b main\n");
        assert_eq!(fp(&prog("2")), fp(&prog("2")));
        assert_ne!(fp(&prog("2")), fp(&prog("3")), "one data word changed");
        assert_ne!(fp(&prog("2")), fp(&prog("tab")), "a word vs a data address");
    }

    #[test]
    fn fib_walks_the_ras() {
        let slices = corpus_slices(SlicePlan::default(), 0).unwrap();
        let fib = slices
            .iter()
            .find(|s| s.name == "program/fib_recursive")
            .unwrap();
        let mut g = fib.build().unwrap();
        let mut depth = 0i64;
        let mut max_depth = 0i64;
        for _ in 0..5_000 {
            let i = g.next_inst();
            if let Some(b) = i.branch {
                if b.kind.is_call() {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                if b.kind.is_return() {
                    depth -= 1;
                }
            }
        }
        assert!(max_depth >= 10, "RAS depth reached: {max_depth}");
    }
}
