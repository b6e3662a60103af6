//! The memory controller with the cross-domain path of §IX.
//!
//! "The Exynos mobile processor designs contain three different
//! voltage/frequency domains along the core's path to main memory: the
//! core domain, an interconnect domain, and a memory controller domain ...
//! this requires four on-die asynchronous crossings (two outbound, two
//! inbound), as well as several blocks' worth of buffering."
//!
//! Generational latency features:
//! * **M4 data fast path** — a dedicated DRAM→CPU return that "bypasses
//!   multiple levels of cache return path and interconnect queuing stages"
//!   and replaces the two inbound crossings with one direct crossing;
//! * **M5 early page activate** — a sideband hint that opens the DRAM page
//!   ahead of the access (also one crossing instead of two).

use crate::bank::{Bank, DramTiming};

/// Controller geometry and the per-generation path features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Bank timing.
    pub timing: DramTiming,
    /// One asynchronous domain-crossing latency (core cycles).
    pub crossing: u64,
    /// Interconnect + controller queuing/buffering per direction.
    pub queuing: u64,
    /// M4+: dedicated DRAM→CPU data fast path (one inbound crossing, no
    /// return queuing).
    pub fast_path: bool,
    /// M5+: early page-activate sideband.
    pub early_activate: bool,
}

impl DramConfig {
    /// M1–M3: full four-crossing path.
    pub fn m1() -> DramConfig {
        DramConfig {
            banks: 8,
            row_bytes: 2048,
            timing: DramTiming::default(),
            crossing: 9,
            queuing: 14,
            fast_path: false,
            early_activate: false,
        }
    }

    /// M4: adds the data fast path.
    pub fn m4() -> DramConfig {
        DramConfig {
            fast_path: true,
            ..DramConfig::m1()
        }
    }

    /// M5/M6: fast path + early page activate.
    pub fn m5() -> DramConfig {
        DramConfig {
            early_activate: true,
            ..DramConfig::m4()
        }
    }

    /// Outbound flight time (request to the controller).
    pub fn outbound(&self) -> u64 {
        2 * self.crossing + self.queuing
    }

    /// Inbound flight time (data back to the core).
    pub fn inbound(&self) -> u64 {
        if self.fast_path {
            self.crossing
        } else {
            2 * self.crossing + self.queuing
        }
    }
}

exynos_telemetry::counters! {
    /// Memory-controller statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DramStats in "dram.ctrl" {
        /// Reads served.
        pub reads: u64,
        /// Row-buffer hits.
        pub row_hits: u64,
        /// Early-activate hints sent.
        pub hints: u64,
        /// Low-priority prefetch reads deferred behind demand traffic.
        pub prefetch_deferred: u64,
        /// Total occupancy-cycle latency accumulated (for averages).
        pub total_latency: u64,
    }
}

/// The memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl MemoryController {
    /// Why [`MemoryController::new`] would reject `cfg`, if it would.
    pub fn defect(cfg: &DramConfig) -> Option<String> {
        (cfg.banks == 0).then(|| "a zero-bank DRAM holds no row".into())
    }

    /// Build a controller from `cfg`.
    ///
    /// # Panics
    /// Panics if [`MemoryController::defect`] rejects `cfg`.
    pub fn new(cfg: DramConfig) -> MemoryController {
        let defect = MemoryController::defect(&cfg);
        assert!(defect.is_none(), "DRAM controller: {defect:?}");
        MemoryController {
            banks: (0..cfg.banks).map(|_| Bank::new(cfg.timing)).collect(),
            stats: DramStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn map(&self, addr: u64) -> (usize, u64) {
        let row_addr = addr / self.cfg.row_bytes;
        let bank = (row_addr ^ (row_addr >> 7)) as usize % self.banks.len();
        (bank, row_addr / self.banks.len() as u64)
    }

    /// Read `addr`, with the request leaving the core at `now`; returns
    /// the cycle the data arrives back at the CPU cluster.
    pub fn read(&mut self, addr: u64, now: u64) -> u64 {
        let (bank, row) = self.map(addr);
        let arrive = now + self.cfg.outbound();
        let data_at_mc = self.banks[bank].read(row, arrive);
        let done = data_at_mc + self.cfg.inbound();
        self.stats.reads += 1;
        let hits: u64 = self.banks.iter().map(|b| b.hits).sum();
        self.stats.row_hits = hits;
        self.stats.total_latency += done - now;
        done
    }

    /// A low-priority (prefetch) read. Demand traffic always wins bank
    /// arbitration, so a prefetch occupies the bank only when it is idle
    /// at arrival; otherwise it is served opportunistically in a later
    /// gap (its completion is delayed past the bank's busy horizon but it
    /// adds no queueing that demands would see). Returns the completion
    /// cycle.
    pub fn read_background(&mut self, addr: u64, now: u64) -> u64 {
        let (bank, row) = self.map(addr);
        let arrive = now + self.cfg.outbound();
        self.stats.reads += 1;
        if self.banks[bank].busy_at(arrive) {
            self.stats.prefetch_deferred += 1;
        }
        let data_at_mc = self.banks[bank].read_background(row, arrive);
        data_at_mc + self.cfg.inbound()
    }

    /// Send an early page-activate hint for `addr` at `now` (no-op unless
    /// the generation has the sideband). The hint takes a *single*
    /// crossing, so it reaches the controller ahead of the read.
    pub fn activate_hint(&mut self, addr: u64, now: u64) {
        if !self.cfg.early_activate {
            return;
        }
        self.stats.hints += 1;
        let (bank, row) = self.map(addr);
        self.banks[bank].activate_hint(row, now + self.cfg.crossing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_cuts_return_latency() {
        let mut slow = MemoryController::new(DramConfig::m1());
        let mut fast = MemoryController::new(DramConfig::m4());
        let a = slow.read(0x1000, 0);
        let b = fast.read(0x1000, 0);
        let saved = DramConfig::m1().inbound() - DramConfig::m4().inbound();
        assert_eq!(a - b, saved);
        assert!(saved >= 20, "fast path must save a crossing plus queuing");
    }

    #[test]
    fn early_activate_hides_activation() {
        // Hint sent sufficiently ahead of the read hides tRCD.
        let mut c = MemoryController::new(DramConfig::m5());
        c.activate_hint(0x2000, 0);
        let t = DramTiming::default();
        let done_hinted = c.read(0x2000, t.t_rcd); // read launched later
        let mut c2 = MemoryController::new(DramConfig::m5());
        let done_cold = c2.read(0x2000, t.t_rcd);
        assert!(done_hinted < done_cold, "{done_hinted} !< {done_cold}");
        assert_eq!(done_cold - done_hinted, t.t_rcd);
    }

    #[test]
    fn hint_is_noop_without_feature() {
        let mut c = MemoryController::new(DramConfig::m4());
        c.activate_hint(0x2000, 0);
        assert_eq!(c.stats().hints, 0);
    }

    #[test]
    fn same_row_reads_hit_row_buffer() {
        let mut c = MemoryController::new(DramConfig::m1());
        let d1 = c.read(0x4000, 0);
        let _d2 = c.read(0x4040, d1);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn banks_overlap_independent_requests() {
        let mut c = MemoryController::new(DramConfig::m1());
        // Two addresses in different banks issued back to back overlap;
        // same bank serializes.
        let a_done = c.read(0x0, 0);
        // Find an address mapping to a different bank.
        let mut other = 0x800u64;
        while {
            let (b0, _) = c.map(0x0);
            let (b1, _) = c.map(other);
            b0 == b1
        } {
            other += 0x800;
        }
        let b_done = c.read(other, 0);
        assert!(b_done <= a_done + 1, "different banks must overlap");
        let mut c2 = MemoryController::new(DramConfig::m1());
        let x = c2.read(0x0, 0);
        let y = c2.read(0x0 + 64, 0); // same row, same bank: serialized burst
        assert!(y > x);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { MemoryController [tags::DRAM_CONTROLLER] { banks: Fixed("dram banks"), stats } }
}
