//! The Mispredict Recovery Buffer (MRB), added in M5 (§IV.E, Figs. 6–7).
//!
//! After a mispredict to a chain of small taken-ending basic blocks, the
//! branch-prediction pipe needs ~3 cycles per block to discover each next
//! taken branch, so the core is fetch-starved. The MRB records, for
//! identified low-confidence branches, "the highest probability sequence of
//! the next three fetch addresses"; on a matching mispredict redirect those
//! addresses stream out in consecutive cycles, eliminating the prediction
//! delay (14 instructions in 5 cycles instead of 9 in the paper's example).
//! In the third stage the MRB-supplied target is checked against the newly
//! predicted one; agreement needs no correction.

/// Fetch addresses recorded per MRB entry (the paper uses three).
pub const MRB_SEQ_LEN: usize = 3;

#[derive(Debug, Clone, Copy, Default)]
struct MrbEntry {
    /// The mispredicting branch PC this entry covers.
    branch_pc: u64,
    /// The recorded correct-path fetch targets following the redirect.
    seq: [u64; MRB_SEQ_LEN],
    len: u8,
    lru: u64,
}

exynos_telemetry::counters! {
    /// Statistics for the MRB.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MrbStats in "branch.mrb" {
        /// Redirects that hit a recorded sequence.
        pub hits: u64,
        /// Redirects with no entry.
        pub misses: u64,
        /// Individual supplied addresses later confirmed by the predictor.
        pub addresses_confirmed: u64,
        /// Individual supplied addresses that disagreed (corrected, no gain).
        pub addresses_corrected: u64,
    }
}

/// The recovery-sequence buffer.
#[derive(Debug, Clone)]
pub struct Mrb {
    entries: Vec<MrbEntry>,
    capacity: usize,
    stamp: u64,
    stats: MrbStats,
    /// In-flight playback: addresses remaining from the active hit.
    playback: Vec<u64>,
    /// In-flight recording after a mispredict: (branch pc, collected).
    recording: Option<(u64, Vec<u64>)>,
}

impl Mrb {
    /// Why [`Mrb::new`] would reject `capacity`, if it would.
    pub fn defect(capacity: usize) -> Option<String> {
        (capacity == 0).then(|| "a zero-entry MRB holds no sequence".into())
    }

    /// An MRB holding `capacity` sequences.
    ///
    /// # Panics
    /// Panics if [`Mrb::defect`] rejects `capacity`.
    pub fn new(capacity: usize) -> Mrb {
        let defect = Mrb::defect(capacity);
        assert!(defect.is_none(), "MRB: {defect:?}");
        Mrb {
            entries: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            stats: MrbStats::default(),
            playback: Vec::new(),
            recording: None,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MrbStats {
        self.stats
    }

    /// Flush every entry (pipeline-flush recovery) while keeping the
    /// cumulative statistics.
    pub fn clear(&mut self) {
        *self = Mrb { stats: self.stats, ..Mrb::new(self.capacity) };
    }

    /// A low-confidence branch at `branch_pc` just mispredicted. Starts
    /// playback if a sequence is recorded, and begins (re)recording the
    /// correct-path sequence that follows. Returns the number of fetch
    /// addresses the MRB will supply with zero prediction delay.
    pub fn on_mispredict(&mut self, branch_pc: u64) -> usize {
        self.stamp += 1;
        self.playback.clear();
        let found = self.entries.iter_mut().find(|e| e.branch_pc == branch_pc);
        let supplied = match found {
            Some(e) => {
                e.lru = self.stamp;
                self.stats.hits += 1;
                self.playback = e.seq[..e.len as usize].to_vec();
                self.playback.reverse(); // pop() yields them in order
                e.len as usize
            }
            None => {
                self.stats.misses += 1;
                0
            }
        };
        self.recording = Some((branch_pc, Vec::with_capacity(MRB_SEQ_LEN)));
        supplied
    }

    /// The front end reached the next taken-branch target `addr` on the
    /// correct path. Feeds recording, and — if playback is active — checks
    /// the MRB-supplied address against the real one. Returns `true` if
    /// this redirect's bubbles are covered by MRB playback.
    pub fn on_correct_path_target(&mut self, addr: u64) -> bool {
        // Recording side.
        let mut finished = None;
        if let Some((pc, seq)) = &mut self.recording {
            seq.push(addr);
            if seq.len() == MRB_SEQ_LEN {
                finished = Some((*pc, seq.clone()));
            }
        }
        if let Some((pc, seq)) = finished {
            self.install(pc, &seq);
            self.recording = None;
        }
        // Playback side.
        if let Some(supplied) = self.playback.pop() {
            if supplied == addr {
                self.stats.addresses_confirmed += 1;
                true
            } else {
                // Disagreement: correction needed, abandon the playback.
                self.stats.addresses_corrected += 1;
                self.playback.clear();
                false
            }
        } else {
            false
        }
    }

    fn install(&mut self, branch_pc: u64, seq: &[u64]) {
        self.stamp += 1;
        let mut entry = MrbEntry {
            branch_pc,
            seq: [0; MRB_SEQ_LEN],
            len: seq.len().min(MRB_SEQ_LEN) as u8,
            lru: self.stamp,
        };
        entry.seq[..entry.len as usize].copy_from_slice(&seq[..entry.len as usize]);
        if let Some(e) = self.entries.iter_mut().find(|e| e.branch_pc == branch_pc) {
            *e = entry;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.entries[victim] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_mispredict_records_second_plays_back() {
        let mut m = Mrb::new(8);
        // First mispredict at X: nothing recorded yet.
        assert_eq!(m.on_mispredict(0x4000), 0);
        // Correct path visits A, B, C.
        assert!(!m.on_correct_path_target(0xA0));
        assert!(!m.on_correct_path_target(0xB0));
        assert!(!m.on_correct_path_target(0xC0));
        // Second mispredict at X: sequence plays back.
        assert_eq!(m.on_mispredict(0x4000), 3);
        assert!(m.on_correct_path_target(0xA0));
        assert!(m.on_correct_path_target(0xB0));
        assert!(m.on_correct_path_target(0xC0));
        assert_eq!(m.stats().addresses_confirmed, 3);
    }

    #[test]
    fn diverging_path_stops_playback() {
        let mut m = Mrb::new(8);
        m.on_mispredict(0x4000);
        for a in [0xA0, 0xB0, 0xC0] {
            m.on_correct_path_target(a);
        }
        m.on_mispredict(0x4000);
        assert!(m.on_correct_path_target(0xA0));
        // Path diverges at the second block.
        assert!(!m.on_correct_path_target(0xBB));
        // Playback abandoned: third address not supplied.
        assert!(!m.on_correct_path_target(0xC0));
        assert_eq!(m.stats().addresses_corrected, 1);
    }

    #[test]
    fn sequence_is_rerecorded_after_divergence() {
        let mut m = Mrb::new(8);
        m.on_mispredict(0x4000);
        for a in [0xA0, 0xB0, 0xC0] {
            m.on_correct_path_target(a);
        }
        // Second occurrence records the *new* path.
        m.on_mispredict(0x4000);
        for a in [0xD0, 0xE0, 0xF0] {
            m.on_correct_path_target(a);
        }
        m.on_mispredict(0x4000);
        assert!(m.on_correct_path_target(0xD0));
        assert!(m.on_correct_path_target(0xE0));
        assert!(m.on_correct_path_target(0xF0));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut m = Mrb::new(2);
        for pc in [0x1000u64, 0x2000, 0x3000] {
            m.on_mispredict(pc);
            for a in [0xA0, 0xB0, 0xC0] {
                m.on_correct_path_target(a);
            }
        }
        // 0x1000 evicted.
        assert_eq!(m.on_mispredict(0x1000), 0);
        // Consume recording slots.
        for a in [0xA0, 0xB0, 0xC0] {
            m.on_correct_path_target(a);
        }
        assert_eq!(m.on_mispredict(0x3000), 3);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        Mrb [tags::MRB] |s| {
            entries: Bounded(s.capacity, "mrb entries"),
            stamp,
            playback: Bounded(MRB_SEQ_LEN, "mrb playback"),
            recording, stats,
        } then check_recording
    }
    layout! { MrbEntry { branch_pc, seq, len, lru } then check_len }

    impl Mrb {
        /// `on_correct_path_target` installs and clears a sequence in the
        /// call that fills it, so a live recording holds fewer than
        /// `MRB_SEQ_LEN` addresses; one that held more would never install.
        fn check_recording(&mut self) -> Result<(), SnapshotError> {
            match &self.recording {
                Some((_, seq)) if seq.len() >= MRB_SEQ_LEN => Err(SnapshotError::Geometry {
                    what: "mrb recording",
                    expected: MRB_SEQ_LEN as u64 - 1,
                    found: seq.len() as u64,
                }),
                _ => Ok(()),
            }
        }
    }

    impl MrbEntry {
        fn check_len(&mut self) -> Result<(), SnapshotError> {
            if self.len as usize > MRB_SEQ_LEN {
                return Err(SnapshotError::Corrupt { what: "mrb entry length" });
            }
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};

        fn round_trip(m: &Mrb) -> Result<(), SnapshotError> {
            let mut enc = Encoder::new();
            m.save(&mut enc);
            let bytes = enc.finish();
            Mrb::new(m.capacity).restore(&mut Decoder::new(&bytes))
        }

        /// `on_mispredict` copies at most one entry's `MRB_SEQ_LEN`
        /// addresses into playback, so more cannot come from a run.
        #[test]
        fn over_capacity_playback_is_geometry() {
            for extra in [0u64, 1] {
                let mut m = Mrb::new(4);
                m.playback = (0..MRB_SEQ_LEN as u64 + extra).collect();
                let want = if extra == 0 {
                    Ok(())
                } else {
                    Err(SnapshotError::Geometry {
                        what: "mrb playback",
                        expected: MRB_SEQ_LEN as u64,
                        found: MRB_SEQ_LEN as u64 + 1,
                    })
                };
                assert_eq!(round_trip(&m), want);
            }
        }

        /// A recording that reaches `MRB_SEQ_LEN` installs and clears in
        /// the same call, so a live one holds at most `MRB_SEQ_LEN - 1`.
        #[test]
        fn full_recording_is_geometry() {
            for len in [MRB_SEQ_LEN as u64 - 1, MRB_SEQ_LEN as u64] {
                let mut m = Mrb::new(4);
                m.recording = Some((0x4000, (0..len).collect()));
                let want = if len < MRB_SEQ_LEN as u64 {
                    Ok(())
                } else {
                    Err(SnapshotError::Geometry {
                        what: "mrb recording",
                        expected: MRB_SEQ_LEN as u64 - 1,
                        found: len,
                    })
                };
                assert_eq!(round_trip(&m), want);
            }
        }
    }
}
