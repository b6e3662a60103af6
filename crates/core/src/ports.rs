//! Issue-port scheduling (Table I's execution-unit complement).
//!
//! Each cycle offers a fixed number of issue slots per resource class; an
//! instruction books the earliest cycle (at or after its ready time) with
//! a free eligible unit. The booking window is finite — contention older
//! than the window has no effect, which bounds memory without changing
//! steady-state behaviour.

use crate::config::Ports;

/// Resource classes an instruction can issue to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Simple integer ALU ("S").
    IntS,
    /// Complex ALU ("C": simple + mul + indirect branch).
    IntC,
    /// Complex + divide ALU ("CD").
    IntCd,
    /// Direct-branch unit ("BR").
    Br,
    /// Load pipe.
    Ld,
    /// Store pipe.
    St,
    /// Generic load-or-store pipe.
    Gen,
    /// FMAC-capable FP pipe.
    Fmac,
    /// FADD-only FP pipe.
    Fadd,
}

impl Resource {
    const COUNT: usize = 9;

    fn index(self) -> usize {
        match self {
            Resource::IntS => 0,
            Resource::IntC => 1,
            Resource::IntCd => 2,
            Resource::Br => 3,
            Resource::Ld => 4,
            Resource::St => 5,
            Resource::Gen => 6,
            Resource::Fmac => 7,
            Resource::Fadd => 8,
        }
    }
}

const WINDOW: usize = 512;

/// Per-cycle, per-resource slot booking.
#[derive(Debug, Clone)]
pub struct PortSchedule {
    caps: [u32; Resource::COUNT],
    /// used[cycle % WINDOW][resource], valid iff stamp matches.
    used: Vec<[u32; Resource::COUNT]>,
    stamps: [u64; WINDOW],
}

impl PortSchedule {
    /// Build a schedule from the generation's port complement.
    pub fn new(p: &Ports) -> PortSchedule {
        let mut caps = [0u32; Resource::COUNT];
        caps[Resource::IntS.index()] = p.s;
        caps[Resource::IntC.index()] = p.c;
        caps[Resource::IntCd.index()] = p.cd;
        caps[Resource::Br.index()] = p.br;
        caps[Resource::Ld.index()] = p.ld;
        caps[Resource::St.index()] = p.st;
        caps[Resource::Gen.index()] = p.gen;
        caps[Resource::Fmac.index()] = p.fmac;
        caps[Resource::Fadd.index()] = p.fadd;
        PortSchedule {
            caps,
            used: vec![[0; Resource::COUNT]; WINDOW],
            stamps: [u64::MAX; WINDOW],
        }
    }

    fn slot_free(&mut self, cycle: u64, r: Resource) -> bool {
        let i = (cycle % WINDOW as u64) as usize;
        if self.stamps[i] != cycle {
            self.stamps[i] = cycle;
            self.used[i] = [0; Resource::COUNT];
        }
        self.used[i][r.index()] < self.caps[r.index()]
    }

    fn take(&mut self, cycle: u64, r: Resource) {
        let i = (cycle % WINDOW as u64) as usize;
        self.used[i][r.index()] += 1;
    }

    /// Book one unit from `eligible` (tried in order) at the earliest
    /// cycle ≥ `earliest`; returns the issue cycle.
    pub fn book(&mut self, eligible: &[Resource], earliest: u64) -> u64 {
        for c in earliest..earliest + WINDOW as u64 {
            for &r in eligible {
                if self.caps[r.index()] == 0 {
                    continue;
                }
                if self.slot_free(c, r) {
                    self.take(c, r);
                    return c;
                }
            }
        }
        // Pathological contention beyond the window: issue anyway.
        earliest + WINDOW as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    fn sched() -> PortSchedule {
        PortSchedule::new(&CoreConfig::m1().ports)
    }

    #[test]
    fn same_cycle_until_ports_exhausted() {
        let mut s = sched(); // M1: 2 S ALUs
        assert_eq!(s.book(&[Resource::IntS], 10), 10);
        assert_eq!(s.book(&[Resource::IntS], 10), 10);
        assert_eq!(s.book(&[Resource::IntS], 10), 11);
    }

    #[test]
    fn eligibility_falls_through_port_list() {
        let mut s = sched(); // 2 S + 1 CD
        // Three ALU ops can issue in one cycle via S,S,CD.
        let eligible = [Resource::IntS, Resource::IntC, Resource::IntCd];
        assert_eq!(s.book(&eligible, 5), 5);
        assert_eq!(s.book(&eligible, 5), 5);
        assert_eq!(s.book(&eligible, 5), 5);
        assert_eq!(s.book(&eligible, 5), 6);
    }

    #[test]
    fn zero_cap_resources_skipped() {
        let mut s = sched(); // M1 has no C ALU and no generic pipe
        assert_eq!(s.book(&[Resource::IntC, Resource::IntCd], 0), 0);
        // Second divide-class op must wait (only 1 CD).
        assert_eq!(s.book(&[Resource::IntC, Resource::IntCd], 0), 1);
    }

    #[test]
    fn loads_bounded_by_load_pipes() {
        let mut s = PortSchedule::new(&CoreConfig::m3().ports); // 2 L pipes
        let e = [Resource::Ld, Resource::Gen];
        assert_eq!(s.book(&e, 0), 0);
        assert_eq!(s.book(&e, 0), 0);
        assert_eq!(s.book(&e, 0), 1);
        let mut s4 = PortSchedule::new(&CoreConfig::m4().ports); // 1 L + 1 G
        assert_eq!(s4.book(&e, 0), 0);
        assert_eq!(s4.book(&e, 0), 0);
        assert_eq!(s4.book(&e, 0), 1);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { PortSchedule [tags::PORTS] { used: Fixed("port booking window"), stamps } }
}
