//! DRAM bank and page (row-buffer) timing.
//!
//! A bank serves one open row at a time. A read to the open row costs CAS
//! only; a closed bank pays activate (tRCD) first; a conflicting open row
//! pays precharge (tRP) too. The M5 *early page activate* hint (§IX) can
//! open a row ahead of the demand read, hiding tRCD (and tRP) under the
//! request's flight time.
//!
//! All times are in core-clock cycles (the paper's simulations run every
//! generation at one frequency so per-cycle comparisons hold, §III).

/// DRAM timing parameters (core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row activate (tRCD).
    pub t_rcd: u64,
    /// Precharge (tRP).
    pub t_rp: u64,
    /// Column access (tCAS/tCL).
    pub t_cas: u64,
    /// Data burst occupancy per access.
    pub t_burst: u64,
}

impl Default for DramTiming {
    /// LPDDR4-ish timings at a 2.6 GHz core clock.
    fn default() -> DramTiming {
        DramTiming {
            t_rcd: 47,
            t_rp: 47,
            t_cas: 47,
            t_burst: 8,
        }
    }
}

/// One DRAM bank with an open-page policy.
#[derive(Debug, Clone)]
pub struct Bank {
    timing: DramTiming,
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Cycle at which the open row's activation completes (reads arriving
    /// earlier wait for the remainder).
    row_ready_at: u64,
    /// Cycle until which the bank is busy with demand work.
    busy_demand: u64,
    /// Cycle until which the bank is busy with any work.
    busy_any: u64,
    /// Row-buffer hits / misses / conflicts served.
    pub hits: u64,
    /// Accesses to a closed bank.
    pub misses: u64,
    /// Accesses that had to close another row first.
    pub conflicts: u64,
}

impl Bank {
    /// A closed, idle bank.
    pub fn new(timing: DramTiming) -> Bank {
        Bank {
            timing,
            open_row: None,
            row_ready_at: 0,
            busy_demand: 0,
            busy_any: 0,
            hits: 0,
            misses: 0,
            conflicts: 0,
        }
    }

    /// Currently open row.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether the bank has any work at `cycle`.
    pub fn busy_at(&self, cycle: u64) -> bool {
        self.busy_any > cycle
    }

    /// Open `row` (if needed) for an access starting at `start`; returns
    /// the cycle column access may begin (activation completion). Row
    /// activations take real time — a row opened by an overlapping access
    /// or hint is only usable once its tRCD has elapsed. Hit/miss/conflict
    /// accounting happens here.
    fn open_for(&mut self, row: u64, start: u64) -> u64 {
        match self.open_row {
            Some(r) if r == row => {
                self.hits += 1;
                // Waiting for a pending activation can never be worse than
                // starting a fresh precharge+activate now (call order may
                // present a logically-later opener first).
                let fresh = start + self.timing.t_rp + self.timing.t_rcd;
                start.max(self.row_ready_at.min(fresh))
            }
            Some(_) => {
                self.conflicts += 1;
                self.open_row = Some(row);
                self.row_ready_at = start + self.timing.t_rp + self.timing.t_rcd;
                self.row_ready_at
            }
            None => {
                self.misses += 1;
                self.open_row = Some(row);
                self.row_ready_at = start + self.timing.t_rcd;
                self.row_ready_at
            }
        }
    }

    /// Serve a demand read of `row` arriving at `now`; returns the cycle
    /// the data burst completes. Demand reads queue only behind prior
    /// demand work — they preempt low-priority prefetch service.
    pub fn read(&mut self, row: u64, now: u64) -> u64 {
        let start = now.max(self.busy_demand);
        let col_begin = self.open_for(row, start);
        let done = col_begin + self.timing.t_cas + self.timing.t_burst;
        self.busy_demand = col_begin + self.timing.t_burst;
        self.busy_any = self.busy_any.max(self.busy_demand);
        done
    }

    /// Serve a low-priority read of `row` arriving at `now`: queues behind
    /// all prior work and never delays future demand reads.
    pub fn read_background(&mut self, row: u64, now: u64) -> u64 {
        let start = now.max(self.busy_any);
        let col_begin = self.open_for(row, start);
        let done = col_begin + self.timing.t_cas + self.timing.t_burst;
        self.busy_any = col_begin + self.timing.t_burst;
        done
    }

    /// Speculatively activate `row` at `now` (early page activate, §IX).
    /// "The page activation command is a hint the memory controller may
    /// ignore under heavy load" — ignored if the bank is busy.
    pub fn activate_hint(&mut self, row: u64, now: u64) {
        if self.busy_demand > now {
            return; // under heavy demand load: ignore the hint
        }
        match self.open_row {
            Some(r) if r == row => {
                // Already open(ing): the hint can only bring the ready
                // time forward (it may have been sent before the access
                // that opened the row, despite call order).
                self.row_ready_at = self.row_ready_at.min(now + self.timing.t_rcd);
            }
            Some(_) => {
                self.open_row = Some(row);
                self.row_ready_at = now + self.timing.t_rp + self.timing.t_rcd;
                self.busy_any = self.busy_any.max(self.row_ready_at);
            }
            None => {
                self.open_row = Some(row);
                self.row_ready_at = now + self.timing.t_rcd;
                self.busy_any = self.busy_any.max(self.row_ready_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::default()
    }

    #[test]
    fn row_hit_is_cheapest() {
        let mut b = Bank::new(t());
        let d1 = b.read(5, 0);
        let d2 = b.read(5, d1);
        assert_eq!(d1 - 0, t().t_rcd + t().t_cas + t().t_burst);
        assert_eq!(d2 - d1, t().t_cas + t().t_burst);
        assert_eq!(b.hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = Bank::new(t());
        let d1 = b.read(5, 0);
        let d2 = b.read(9, d1 + 100); // idle bank, conflicting row
        assert_eq!(d2 - (d1 + 100), t().t_rp + t().t_rcd + t().t_cas + t().t_burst);
        assert_eq!(b.conflicts, 1);
    }

    #[test]
    fn busy_bank_pipelines_row_hits() {
        let mut b = Bank::new(t());
        let d1 = b.read(5, 0);
        // A second row-buffer hit arriving immediately streams one burst
        // later, not one full CAS later.
        let d2 = b.read(5, 1);
        assert_eq!(d2 - d1, t().t_burst);
    }

    #[test]
    fn activate_hint_hides_trcd() {
        let mut b = Bank::new(t());
        b.activate_hint(7, 0);
        // Demand arrives after the activation completed.
        let done = b.read(7, t().t_rcd);
        assert_eq!(done, t().t_rcd + t().t_cas + t().t_burst, "tRCD hidden");
        assert_eq!(b.hits, 1);
    }

    #[test]
    fn hint_ignored_under_load() {
        let mut b = Bank::new(t());
        let d1 = b.read(5, 0);
        b.activate_hint(9, 1); // bank busy: ignored
        assert_eq!(b.open_row(), Some(5));
        let d2 = b.read(9, d1);
        assert_eq!(d2 - d1, t().t_rp + t().t_rcd + t().t_cas + t().t_burst);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! {
        Bank [tags::DRAM_BANK] {
            open_row, row_ready_at, busy_demand, busy_any, hits, misses, conflicts,
        }
    }
}
