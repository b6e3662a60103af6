//! The multi-stride L1 prefetch engine (§VII.A) with confirmation
//! (§VII.A/D) and adaptive degree (§VII.B).
//!
//! The engine detects strided patterns with multiple components — the
//! paper's example stream `A; A+2; A+4; A+9; A+11; A+13; A+18` has deltas
//! `+2,+2,+5` repeating, which the engine locks as `+2×2, +5×1` and then
//! extrapolates (`A+20, A+22, A+27, ...`). It operates on *virtual*
//! cache-line addresses, crosses page boundaries, and (with large degree)
//! doubles as a TLB prefetcher.
//!
//! Confirmation evolved across generations:
//! * **queue** (M1/M2): generated prefetch addresses enter a bounded
//!   confirmation queue; demand accesses matching the queue confirm;
//! * **integrated** (M3+, patent \[34\]): the engine keeps the last
//!   confirmed address and *regenerates* the next few expected addresses
//!   with the locked pattern, independent of what prefetches were actually
//!   issued — smaller storage and confirmations even before prefetches
//!   get ahead of the demand stream.

use crate::degree::DegreeController;
use std::collections::VecDeque;

/// Which confirmation scheme the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmScheme {
    /// M1/M2 bounded queue of issued prefetch addresses.
    Queue {
        /// Queue capacity (addresses).
        depth: usize,
    },
    /// M3+ integrated confirmation: regenerate the next `lookahead`
    /// expected addresses from the locked pattern.
    Integrated {
        /// Expected-address lookahead (N « degree).
        lookahead: usize,
    },
}

/// Engine tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrideConfig {
    /// Concurrent training streams.
    pub streams: usize,
    /// Recent deltas retained per stream.
    pub delta_window: usize,
    /// Maximum pattern period (in deltas) detected.
    pub max_period: usize,
    /// New demand within this many lines of a stream's last address joins
    /// that stream.
    pub match_radius: i64,
    /// Confirmation scheme.
    pub confirm: ConfirmScheme,
}

impl StrideConfig {
    /// M1/M2: queue confirmation.
    pub fn m1() -> StrideConfig {
        StrideConfig {
            streams: 8,
            delta_window: 20,
            max_period: 8,
            match_radius: 64,
            confirm: ConfirmScheme::Queue { depth: 16 },
        }
    }

    /// M3+: integrated confirmation.
    pub fn m3() -> StrideConfig {
        StrideConfig {
            confirm: ConfirmScheme::Integrated { lookahead: 4 },
            ..StrideConfig::m1()
        }
    }
}

/// One training stream.
#[derive(Debug, Clone)]
struct Stream {
    last_line: i64,
    deltas: VecDeque<i64>,
    /// Locked repeating delta pattern and the phase of the *next* delta.
    pattern: Option<(Vec<i64>, usize)>,
    /// Prefetch frontier: the next line to prefetch and its phase.
    frontier: i64,
    frontier_phase: usize,
    /// Pattern-steps the frontier is ahead of the demand stream.
    ahead: u32,
    degree: DegreeController,
    /// Confirmation state.
    queue: VecDeque<i64>,
    expected: VecDeque<i64>,
    lru: u64,
}

impl Stream {
    fn new(line: i64, stamp: u64) -> Stream {
        Stream {
            last_line: line,
            deltas: VecDeque::new(),
            pattern: None,
            frontier: line,
            frontier_phase: 0,
            ahead: 0,
            degree: DegreeController::standard(),
            queue: VecDeque::new(),
            expected: VecDeque::new(),
            lru: stamp,
        }
    }
}

exynos_telemetry::counters! {
    /// Engine statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StrideStats in "prefetch.stride" {
        /// Demand lines trained on.
        pub trained: u64,
        /// Prefetch lines generated.
        pub issued: u64,
        /// Demand confirmations.
        pub confirms: u64,
        /// Pattern locks acquired.
        pub locks: u64,
        /// Pattern locks broken by a mismatching delta.
        pub unlocks: u64,
        /// Frontier skip-aheads (demand overtook the prefetch stream).
        pub skip_aheads: u64,
    }
}

/// The multi-stride prefetch engine. Addresses are 64 B cache lines.
#[derive(Debug, Clone)]
pub struct MultiStrideEngine {
    cfg: StrideConfig,
    streams: Vec<Stream>,
    stamp: u64,
    stats: StrideStats,
}

impl MultiStrideEngine {
    /// Why [`MultiStrideEngine::new`] would reject `cfg`, if it would.
    pub fn defect(cfg: &StrideConfig) -> Option<String> {
        if cfg.streams == 0 {
            Some("no stream to train".into())
        } else if cfg.max_period == 0 {
            Some("a zero-period pattern never repeats".into())
        } else if cfg.delta_window < 2 * cfg.max_period {
            Some(format!("a {}-delta window cannot confirm period {}", cfg.delta_window, cfg.max_period))
        } else {
            None
        }
    }

    /// Build an engine from `cfg`.
    ///
    /// # Panics
    /// Panics if [`MultiStrideEngine::defect`] rejects `cfg`.
    pub fn new(cfg: StrideConfig) -> MultiStrideEngine {
        let defect = MultiStrideEngine::defect(&cfg);
        assert!(defect.is_none(), "stride engine: {defect:?}");
        MultiStrideEngine {
            cfg,
            streams: Vec::new(),
            stamp: 0,
            stats: StrideStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StrideStats {
        self.stats
    }

    /// Whether any stream currently holds a locked pattern (used for SMS
    /// arbitration: "confirmations from the multi-stride engine suppress
    /// training in the SMS engine", §VII.C).
    pub fn any_locked(&self) -> bool {
        self.streams.iter().any(|s| s.pattern.is_some())
    }

    /// Train on a demand-miss cache line (program order, post-filter) and
    /// return the lines to prefetch.
    pub fn on_demand_line(&mut self, line: u64) -> Vec<u64> {
        self.stamp += 1;
        self.stats.trained += 1;
        let line = line as i64;
        // Confirmation check first (the demand may match a predicted
        // address of any stream).
        self.confirm(line);
        let si = self.find_or_alloc(line);
        let s = &mut self.streams[si];
        let delta = line - s.last_line;
        if delta == 0 {
            return Vec::new();
        }
        s.last_line = line;
        s.deltas.push_back(delta);
        if s.deltas.len() > self.cfg.delta_window {
            s.deltas.pop_front();
        }
        // Maintain / detect the locked pattern.
        match &mut s.pattern {
            Some((pat, phase)) => {
                let expect = pat[*phase];
                if delta == expect {
                    *phase = (*phase + 1) % pat.len();
                    if s.ahead > 0 {
                        s.ahead -= 1;
                    }
                } else {
                    // The demand stream may have jumped several pattern
                    // steps at once (late/dropped prefetches, filtered
                    // duplicates): absorb multi-step jumps instead of
                    // unlocking, and skip the frontier ahead (§VII.B).
                    let mut acc = 0i64;
                    let mut ph = *phase;
                    let mut matched = None;
                    for k in 1..=32u32 {
                        acc += pat[ph];
                        ph = (ph + 1) % pat.len();
                        if acc == delta && k > 1 {
                            matched = Some((k, ph));
                            break;
                        }
                    }
                    match matched {
                        Some((k, ph)) => {
                            *phase = ph;
                            s.ahead = s.ahead.saturating_sub(k);
                            self.stats.skip_aheads += 1;
                        }
                        None => {
                            s.pattern = None;
                            s.expected.clear();
                            s.queue.clear();
                            self.stats.unlocks += 1;
                        }
                    }
                }
            }
            None => {}
        }
        if s.pattern.is_none() {
            if let Some(pat) = detect_pattern(s.deltas.make_contiguous(), self.cfg.max_period) {
                // Phase: the next expected delta is pattern[0] rotated so
                // the window's tail aligns with the pattern end.
                s.pattern = Some((pat, 0));
                s.frontier = line;
                s.frontier_phase = 0;
                s.ahead = 0;
                self.stats.locks += 1;
            } else {
                return Vec::new();
            }
        }
        // Skip-ahead: if the demand stream overtook the frontier, jump the
        // frontier to the demand point ("the prefetch issue logic will
        // skip ahead of the demand stream, avoiding redundant late
        // prefetches").
        let Some((pat, phase)) = s.pattern.clone() else {
            return Vec::new();
        };
        let dir: i64 = pat.iter().sum();
        let overtaken = if dir >= 0 { line >= s.frontier } else { line <= s.frontier };
        if overtaken {
            if s.ahead > 0 {
                self.stats.skip_aheads += 1;
            }
            s.frontier = line;
            s.frontier_phase = phase;
            s.ahead = 0;
        }
        // Issue prefetches up to `degree` pattern-steps ahead.
        let mut out = Vec::new();
        while s.ahead < s.degree.degree() {
            let d = pat[s.frontier_phase];
            s.frontier += d;
            s.frontier_phase = (s.frontier_phase + 1) % pat.len();
            s.ahead += 1;
            if s.frontier >= 0 {
                out.push(s.frontier as u64);
                s.degree.on_issue();
                self.stats.issued += 1;
                if let ConfirmScheme::Queue { depth } = self.cfg.confirm {
                    if s.queue.len() == depth {
                        s.queue.pop_front();
                    }
                    s.queue.push_back(s.frontier);
                }
            }
        }
        // Integrated confirmation: regenerate the next few *expected*
        // demand addresses from the last confirmed point.
        if let ConfirmScheme::Integrated { lookahead } = self.cfg.confirm {
            s.expected.clear();
            let mut a = line;
            let mut ph = phase;
            for _ in 0..lookahead {
                a += pat[ph];
                ph = (ph + 1) % pat.len();
                s.expected.push_back(a);
            }
        }
        out
    }

    fn confirm(&mut self, line: i64) {
        for s in &mut self.streams {
            match self.cfg.confirm {
                ConfirmScheme::Queue { .. } => {
                    if let Some(pos) = s.queue.iter().position(|&q| q == line) {
                        s.queue.remove(pos);
                        s.degree.on_confirm();
                        self.stats.confirms += 1;
                        return;
                    }
                }
                ConfirmScheme::Integrated { .. } => {
                    if let Some(pos) = s.expected.iter().position(|&q| q == line) {
                        // The match and everything older is consumed.
                        for _ in 0..=pos {
                            s.expected.pop_front();
                        }
                        s.degree.on_confirm();
                        self.stats.confirms += 1;
                        return;
                    }
                }
            }
        }
    }

    fn find_or_alloc(&mut self, line: i64) -> usize {
        let radius = self.cfg.match_radius;
        if let Some((i, _)) = self
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| (line - s.last_line).abs() <= radius)
            .min_by_key(|(_, s)| (line - s.last_line).abs())
        {
            self.streams[i].lru = self.stamp;
            return i;
        }
        if self.streams.len() < self.cfg.streams {
            self.streams.push(Stream::new(line, self.stamp));
            return self.streams.len() - 1;
        }
        let victim = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.lru)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.streams[victim] = Stream::new(line, self.stamp);
        victim
    }
}

/// Find the shortest repeating delta pattern (period ≤ `max_period`)
/// covering at least two full repetitions at the tail of `deltas`.
fn detect_pattern(deltas: &[i64], max_period: usize) -> Option<Vec<i64>> {
    for period in 1..=max_period {
        if deltas.len() < 2 * period + 1 {
            break;
        }
        let tail = &deltas[deltas.len() - (2 * period + 1)..];
        let ok = (period..tail.len()).all(|i| tail[i] == tail[i - period]);
        if ok {
            // The pattern, phased so index 0 is the *next* expected delta.
            let start = deltas.len() - period;
            let mut pat: Vec<i64> = deltas[start..].to_vec();
            pat.rotate_left(0); // tail already ends at the current point
            if pat.iter().all(|&d| d == 0) {
                continue;
            }
            return Some(pat);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &mut MultiStrideEngine, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            out.extend(engine.on_demand_line(l));
        }
        out
    }

    #[test]
    fn paper_example_locks_and_extrapolates() {
        // A; A+2; A+4; A+9; A+11; A+13; A+18 (line units) → +2×2, +5×1.
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let a = 1000u64;
        let seq: Vec<u64> = vec![0, 2, 4, 9, 11, 13, 18, 20, 22, 27].iter().map(|d| a + d).collect();
        let prefetches = drive(&mut e, &seq);
        assert!(e.stats().locks >= 1, "pattern must lock");
        // The extrapolation continues the pattern: each prefetch line,
        // offset from A, must land on the pattern lattice {0,2,4} mod 9.
        assert!(!prefetches.is_empty());
        for p in &prefetches {
            let off = (p - a) % 9;
            assert!(
                off == 0 || off == 2 || off == 4,
                "prefetch {p} off-pattern (off {off})"
            );
        }
        // And they run ahead of the demand stream.
        assert!(prefetches.iter().max().unwrap() > &(a + 27));
    }

    #[test]
    fn simple_unit_stride() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let seq: Vec<u64> = (0..20).map(|i| 500 + i).collect();
        let prefetches = drive(&mut e, &seq);
        assert!(prefetches.contains(&520));
        assert!(e.stats().confirms > 0, "integrated confirmation fires");
    }

    #[test]
    fn degree_ramps_on_confirmed_stream() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let seq: Vec<u64> = (0..200).map(|i| 10_000 + 2 * i).collect();
        let prefetches = drive(&mut e, &seq);
        // With degree ramping, late prefetches run far ahead.
        let last_demand = 10_000 + 2 * 199;
        let max_pf = *prefetches.iter().max().unwrap();
        assert!(
            max_pf > last_demand + 40,
            "degree must ramp: frontier only {} ahead",
            max_pf as i64 - last_demand as i64
        );
    }

    #[test]
    fn pattern_break_unlocks() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let mut seq: Vec<u64> = (0..12).map(|i| 3_000 + 4 * i).collect();
        seq.push(9_999_000); // far away: new stream, old pattern stays
        seq.push(3_000 + 4 * 12 + 1); // back on the old stream, off-pattern
        drive(&mut e, &seq);
        assert!(e.stats().unlocks >= 1);
    }

    #[test]
    fn negative_strides_supported() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let seq: Vec<u64> = (0..16).map(|i| 8_000 - 3 * i).collect();
        let prefetches = drive(&mut e, &seq);
        assert!(!prefetches.is_empty());
        assert!(prefetches.iter().min().unwrap() < &(8_000 - 3 * 15));
    }

    #[test]
    fn multiple_streams_tracked_simultaneously() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let mut seq = Vec::new();
        for i in 0..30u64 {
            seq.push(100_000 + i); // stream A: +1
            seq.push(900_000 + 7 * i); // stream B: +7
        }
        let prefetches = drive(&mut e, &seq);
        let a_pf = prefetches.iter().filter(|&&p| p < 500_000).count();
        let b_pf = prefetches.iter().filter(|&&p| p >= 500_000).count();
        assert!(a_pf > 0 && b_pf > 0, "both streams must prefetch");
    }

    #[test]
    fn queue_scheme_confirms_only_issued_addresses() {
        let mut e = MultiStrideEngine::new(StrideConfig::m1());
        let seq: Vec<u64> = (0..30).map(|i| 42_000 + i).collect();
        drive(&mut e, &seq);
        assert!(e.stats().confirms > 0);
    }

    #[test]
    fn integrated_confirms_even_when_prefetches_lag() {
        // Integrated confirmation works off the pattern, not the issue
        // stream — M1's queue starts colder. Both must confirm, but the
        // integrated scheme at least as much.
        let seq: Vec<u64> = (0..40).map(|i| 77_000 + 3 * i).collect();
        let mut m1 = MultiStrideEngine::new(StrideConfig::m1());
        drive(&mut m1, &seq);
        let mut m3 = MultiStrideEngine::new(StrideConfig::m3());
        drive(&mut m3, &seq);
        assert!(m3.stats().confirms >= m1.stats().confirms);
    }

    #[test]
    fn skip_ahead_when_demand_overtakes() {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        // Lock a +1 stream.
        let seq: Vec<u64> = (0..10).map(|i| 55_000 + i).collect();
        drive(&mut e, &seq);
        // Demand jumps far ahead along the same pattern (prefetches were
        // too slow / dropped).
        let _ = e.on_demand_line(55_300);
        // This lands within the match radius? No (300 > 64) — use a
        // nearer jump instead.
        let _ = e.on_demand_line(55_040);
        assert!(e.stats().skip_aheads >= 1);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        MultiStrideEngine [tags::STRIDE] |s| {
            streams: Bounded(s.cfg.streams, "stride streams"),
            stamp, stats,
        } then check_streams
    }
    layout! {
        Stream {
            last_line, deltas, pattern, frontier, frontier_phase,
            ahead, degree, queue, expected, lru,
        }
    }

    /// A sequence of `len` entries that live code keeps at or below
    /// `cap`; above it is `Geometry`.
    fn within(what: &'static str, len: usize, cap: usize) -> Result<(), SnapshotError> {
        if len > cap {
            return Err(SnapshotError::Geometry { what, expected: cap as u64, found: len as u64 });
        }
        Ok(())
    }

    impl MultiStrideEngine {
        /// Training keeps `delta_window` deltas, detection locks periods
        /// of at most `max_period`, and only the queue scheme fills the
        /// queue (to its depth), only the integrated one the expected
        /// addresses (to its lookahead): a stream past those bounds
        /// cannot come from a run. A locked pattern's phases index it.
        fn check_streams(&mut self) -> Result<(), SnapshotError> {
            let (depth, lookahead) = match self.cfg.confirm {
                ConfirmScheme::Queue { depth } => (depth, 0),
                ConfirmScheme::Integrated { lookahead } => (0, lookahead),
            };
            for s in &self.streams {
                within("stride deltas", s.deltas.len(), self.cfg.delta_window)?;
                within("stride confirmation queue", s.queue.len(), depth)?;
                within("stride expected addresses", s.expected.len(), lookahead)?;
                if let Some((pat, phase)) = &s.pattern {
                    within("stride pattern period", pat.len(), self.cfg.max_period)?;
                    if *phase >= pat.len() || s.frontier_phase >= pat.len() {
                        return Err(SnapshotError::Corrupt { what: "stride pattern phase" });
                    }
                }
            }
            Ok(())
        }
    }

    /// The blank stream a restored one is decoded into.
    impl Default for Stream {
        fn default() -> Stream {
            Stream::new(0, 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};

        fn round_trip(cfg: &StrideConfig, s: Stream) -> Result<(), SnapshotError> {
            let mut e = MultiStrideEngine::new(cfg.clone());
            e.streams.push(s);
            let mut enc = Encoder::new();
            e.save(&mut enc);
            let bytes = enc.finish();
            MultiStrideEngine::new(cfg.clone()).restore(&mut Decoder::new(&bytes))
        }

        fn geometry(what: &'static str, cap: usize) -> Result<(), SnapshotError> {
            Err(SnapshotError::Geometry { what, expected: cap as u64, found: cap as u64 + 1 })
        }

        /// Each per-stream sequence at its live bound resumes; one entry
        /// more is `Geometry` naming the sequence.
        #[test]
        fn over_capacity_stride_stream_is_geometry() {
            let m1 = StrideConfig::m1();
            let m3 = StrideConfig::m3();
            let (ConfirmScheme::Queue { depth }, ConfirmScheme::Integrated { lookahead }) =
                (m1.confirm, m3.confirm)
            else {
                panic!("m1 confirms by queue, m3 by integrated lookahead");
            };
            for extra in [0usize, 1] {
                let want = |what, cap| if extra == 0 { Ok(()) } else { geometry(what, cap) };
                let mut s = Stream::new(0, 0);
                s.deltas = (0..(m1.delta_window + extra) as i64).collect();
                assert_eq!(round_trip(&m1, s), want("stride deltas", m1.delta_window));

                let mut s = Stream::new(0, 0);
                s.pattern = Some((vec![1; m1.max_period + extra], 0));
                assert_eq!(round_trip(&m1, s), want("stride pattern period", m1.max_period));

                let mut s = Stream::new(0, 0);
                s.queue = (0..(depth + extra) as i64).collect();
                assert_eq!(round_trip(&m1, s), want("stride confirmation queue", depth));

                let mut s = Stream::new(0, 0);
                s.expected = (0..(lookahead + extra) as i64).collect();
                assert_eq!(round_trip(&m3, s), want("stride expected addresses", lookahead));
            }
            // The integrated scheme never fills the queue.
            let mut s = Stream::new(0, 0);
            s.queue.push_back(7);
            assert_eq!(round_trip(&m3, s), geometry("stride confirmation queue", 0));
        }

        /// A locked pattern's phases index it: a phase past its end would
        /// panic the next training step, so it is refused at restore.
        #[test]
        fn out_of_range_pattern_phase_is_corrupt() {
            let cfg = StrideConfig::m1();
            for (phase, frontier_phase) in [(3, 0), (0, 3)] {
                let mut s = Stream::new(0, 0);
                s.pattern = Some((vec![1, 2, 3], phase));
                s.frontier_phase = frontier_phase;
                assert_eq!(
                    round_trip(&cfg, s),
                    Err(SnapshotError::Corrupt { what: "stride pattern phase" })
                );
            }
        }
    }
}
