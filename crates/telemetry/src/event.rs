//! Structured pipeline events and the bounded [`EventTrace`] ring.
//!
//! Events are small `Copy` records stamped with the cycle and retired
//! instruction count at which they were observed. The trace is a fixed
//! capacity ring buffer: once full, the oldest record is overwritten and
//! counted as dropped, so tracing a long run costs bounded memory.
//!
//! The event taxonomy mirrors the paper's per-generation mechanisms:
//! branch mispredicts and discoveries (§IV), µBTB lock transitions
//! (§IV.C), SHP confidence flips feeding the MRB (§IV.E), UOC
//! FilterMode/BuildMode/FetchMode transitions (§V), prefetch
//! launch/fill/drop (§VII), plus the simulator's own watchdog trips and
//! injected faults.

use crate::json;

/// Branch classification for mispredict events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchClass {
    /// Conditional direct branch.
    Cond,
    /// Unconditional direct branch.
    Direct,
    /// Indirect branch (non-return).
    Indirect,
    /// Function return.
    Return,
}

impl BranchClass {
    /// Stable lowercase tag used in serialized output.
    pub fn tag(self) -> &'static str {
        match self {
            BranchClass::Cond => "cond",
            BranchClass::Direct => "direct",
            BranchClass::Indirect => "indirect",
            BranchClass::Return => "return",
        }
    }
}

/// UOC operating mode tag (mirrors `exynos_uoc::UocMode` without a
/// dependency edge — telemetry is a base crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UocModeTag {
    /// FilterMode: observing, not caching.
    Filter,
    /// BuildMode: installing decoded µops.
    Build,
    /// FetchMode: supplying µops, decoder dark.
    Fetch,
}

impl UocModeTag {
    /// Stable lowercase tag used in serialized output.
    pub fn tag(self) -> &'static str {
        match self {
            UocModeTag::Filter => "filter",
            UocModeTag::Build => "build",
            UocModeTag::Fetch => "fetch",
        }
    }
}

/// Which prefetch engine an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// L1 stride/SMS prefetch via the one-pass/two-pass delivery scheme.
    L1,
    /// L2 buddy-line prefetcher.
    Buddy,
    /// Standalone (phantom-stride) L2/L3 prefetcher.
    Standalone,
}

impl PrefetchKind {
    /// Stable lowercase tag used in serialized output.
    pub fn tag(self) -> &'static str {
        match self {
            PrefetchKind::L1 => "l1",
            PrefetchKind::Buddy => "buddy",
            PrefetchKind::Standalone => "standalone",
        }
    }
}

/// Fault-injection class (mirrors `exynos_core::fault` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// BTB target corruption.
    BtbTarget,
    /// BTB tag corruption.
    BtbTag,
    /// SHP weight flip.
    ShpWeight,
    /// RAS truncation.
    RasTruncate,
    /// Prefetch state drop.
    PrefetchDrop,
    /// Malformed instruction injected into the trace.
    Malformed,
    /// Trace gap injected.
    TraceGap,
    /// Memory-system stall injected.
    Stall,
}

impl FaultClass {
    /// Stable lowercase tag used in serialized output.
    pub fn tag(self) -> &'static str {
        match self {
            FaultClass::BtbTarget => "btb_target",
            FaultClass::BtbTag => "btb_tag",
            FaultClass::ShpWeight => "shp_weight",
            FaultClass::RasTruncate => "ras_truncate",
            FaultClass::PrefetchDrop => "prefetch_drop",
            FaultClass::Malformed => "malformed",
            FaultClass::TraceGap => "trace_gap",
            FaultClass::Stall => "stall",
        }
    }
}

/// One structured pipeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineEvent {
    /// A branch resolved against its prediction and missed.
    Mispredict {
        /// Branch PC.
        pc: u64,
        /// Branch classification.
        class: BranchClass,
        /// Cycle at which the redirect resolved.
        resolve_cycle: u64,
    },
    /// A taken branch was discovered (first decode-time sighting).
    BranchDiscovery {
        /// Branch PC.
        pc: u64,
    },
    /// The input trace jumped without a recorded branch.
    TraceGap {
        /// PC at the gap.
        pc: u64,
    },
    /// A predictor-corruption error was absorbed by a frontend flush.
    CorruptionRecovered {
        /// Consecutive corruption count at recovery time.
        consecutive: u64,
    },
    /// The µBTB acquired its fetch lock (zero-bubble loop mode).
    UbtbLock,
    /// The µBTB lost its fetch lock.
    UbtbUnlock,
    /// The UOC moved between Filter/Build/Fetch modes.
    UocTransition {
        /// Mode before the step.
        from: UocModeTag,
        /// Mode after the step.
        to: UocModeTag,
    },
    /// The UOC lost cached state to a watchdog/fault recovery.
    UocStateLoss,
    /// An SHP confidence counter crossed the low-confidence threshold.
    ShpConfFlip {
        /// `true` when the branch became low-confidence.
        to_low: bool,
    },
    /// A prefetch engine launched requests.
    PrefetchLaunch {
        /// Originating engine.
        kind: PrefetchKind,
        /// Lines launched this step.
        count: u64,
    },
    /// Prefetched lines were confirmed into a cache.
    PrefetchFill {
        /// Originating engine.
        kind: PrefetchKind,
        /// Lines filled this step.
        count: u64,
    },
    /// Prefetches were dropped (queue overflow or injected fault).
    PrefetchDrop {
        /// Originating engine.
        kind: PrefetchKind,
        /// Lines dropped this step.
        count: u64,
    },
    /// The forward-progress watchdog tripped.
    WatchdogTrip {
        /// Observed retirement gap in cycles.
        gap: u64,
        /// Degradation-ladder rung applied (1-based).
        rung: u64,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Fault class.
        class: FaultClass,
    },
    /// A malformed instruction was observed (lenient decode).
    MalformedInst {
        /// PC of the malformed record.
        pc: u64,
    },
}

impl PipelineEvent {
    /// Stable snake_case event name used in serialized output.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineEvent::Mispredict { .. } => "mispredict",
            PipelineEvent::BranchDiscovery { .. } => "branch_discovery",
            PipelineEvent::TraceGap { .. } => "trace_gap",
            PipelineEvent::CorruptionRecovered { .. } => "corruption_recovered",
            PipelineEvent::UbtbLock => "ubtb_lock",
            PipelineEvent::UbtbUnlock => "ubtb_unlock",
            PipelineEvent::UocTransition { .. } => "uoc_transition",
            PipelineEvent::UocStateLoss => "uoc_state_loss",
            PipelineEvent::ShpConfFlip { .. } => "shp_conf_flip",
            PipelineEvent::PrefetchLaunch { .. } => "prefetch_launch",
            PipelineEvent::PrefetchFill { .. } => "prefetch_fill",
            PipelineEvent::PrefetchDrop { .. } => "prefetch_drop",
            PipelineEvent::WatchdogTrip { .. } => "watchdog_trip",
            PipelineEvent::FaultInjected { .. } => "fault_injected",
            PipelineEvent::MalformedInst { .. } => "malformed_inst",
        }
    }

    /// Append this event's payload fields (if any) to a JSON object under
    /// construction; every pushed field is preceded by a comma.
    fn push_fields(&self, out: &mut String) {
        match *self {
            PipelineEvent::Mispredict {
                pc,
                class,
                resolve_cycle,
            } => {
                json::push_key(out, false, "pc");
                json::push_u64(out, pc);
                json::push_key(out, false, "class");
                json::push_str(out, class.tag());
                json::push_key(out, false, "resolve_cycle");
                json::push_u64(out, resolve_cycle);
            }
            PipelineEvent::BranchDiscovery { pc }
            | PipelineEvent::TraceGap { pc }
            | PipelineEvent::MalformedInst { pc } => {
                json::push_key(out, false, "pc");
                json::push_u64(out, pc);
            }
            PipelineEvent::CorruptionRecovered { consecutive } => {
                json::push_key(out, false, "consecutive");
                json::push_u64(out, consecutive);
            }
            PipelineEvent::UbtbLock | PipelineEvent::UbtbUnlock | PipelineEvent::UocStateLoss => {}
            PipelineEvent::UocTransition { from, to } => {
                json::push_key(out, false, "from");
                json::push_str(out, from.tag());
                json::push_key(out, false, "to");
                json::push_str(out, to.tag());
            }
            PipelineEvent::ShpConfFlip { to_low } => {
                json::push_key(out, false, "to_low");
                out.push_str(if to_low { "true" } else { "false" });
            }
            PipelineEvent::PrefetchLaunch { kind, count }
            | PipelineEvent::PrefetchFill { kind, count }
            | PipelineEvent::PrefetchDrop { kind, count } => {
                json::push_key(out, false, "kind");
                json::push_str(out, kind.tag());
                json::push_key(out, false, "count");
                json::push_u64(out, count);
            }
            PipelineEvent::WatchdogTrip { gap, rung } => {
                json::push_key(out, false, "gap");
                json::push_u64(out, gap);
                json::push_key(out, false, "rung");
                json::push_u64(out, rung);
            }
            PipelineEvent::FaultInjected { class } => {
                json::push_key(out, false, "class");
                json::push_str(out, class.tag());
            }
        }
    }
}

/// One trace entry: an event plus its position in the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (0-based, counts every recorded event
    /// including ones later overwritten in the ring).
    pub seq: u64,
    /// Cycle timestamp (the step's retirement cycle; non-decreasing).
    pub cycle: u64,
    /// Retired-instruction count when the event was recorded.
    pub instr: u64,
    /// The event payload.
    pub event: PipelineEvent,
}

impl EventRecord {
    /// Serialize this record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, true, "type");
        json::push_str(out, "event");
        json::push_key(out, false, "seq");
        json::push_u64(out, self.seq);
        json::push_key(out, false, "cycle");
        json::push_u64(out, self.cycle);
        json::push_key(out, false, "instr");
        json::push_u64(out, self.instr);
        json::push_key(out, false, "event");
        json::push_str(out, self.event.name());
        self.event.push_fields(out);
        out.push('}');
    }
}

/// Bounded ring buffer of [`EventRecord`]s.
#[derive(Debug, Clone)]
pub struct EventTrace {
    ring: Vec<EventRecord>,
    capacity: usize,
    head: usize,
    recorded: u64,
}

impl EventTrace {
    /// A trace retaining at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> EventTrace {
        EventTrace {
            ring: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            recorded: 0,
        }
    }

    /// Record one event; overwrites the oldest record when full.
    #[inline]
    pub fn record(&mut self, cycle: u64, instr: u64, event: PipelineEvent) {
        let rec = EventRecord {
            seq: self.recorded,
            cycle,
            instr,
            event,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.recorded += 1;
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.recorded() - self.len() as u64
    }

    /// Visit retained records oldest → newest.
    pub fn for_each(&self, f: &mut dyn FnMut(&EventRecord)) {
        for r in &self.ring[self.head..] {
            f(r);
        }
        for r in &self.ring[..self.head] {
            f(r);
        }
    }

    /// Serialize retained records as JSON Lines (oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.for_each(&mut |r| {
            r.write_json(&mut out);
            out.push('\n');
        });
        out
    }

    /// Count retained records per event name, in first-seen order.
    pub fn counts_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        self.for_each(&mut |r| {
            let name = r.event.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        });
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = EventTrace::new(3);
        for i in 0..5u64 {
            t.record(i * 10, i, PipelineEvent::BranchDiscovery { pc: i });
        }
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let mut seqs = Vec::new();
        t.for_each(&mut |r| seqs.push(r.seq));
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one_record() {
        let mut t = EventTrace::new(0);
        for i in 0..5u64 {
            t.record(i * 10, i, PipelineEvent::BranchDiscovery { pc: i });
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 4);
        let mut seqs = Vec::new();
        t.for_each(&mut |r| seqs.push(r.seq));
        assert_eq!(seqs, vec![4]);
    }

    #[test]
    fn jsonl_shape() {
        let mut t = EventTrace::new(8);
        t.record(
            5,
            1,
            PipelineEvent::Mispredict {
                pc: 0x40,
                class: BranchClass::Cond,
                resolve_cycle: 9,
            },
        );
        t.record(
            9,
            2,
            PipelineEvent::UocTransition {
                from: UocModeTag::Filter,
                to: UocModeTag::Build,
            },
        );
        let s = t.to_jsonl();
        let mut lines = s.lines();
        assert_eq!(
            lines.next(),
            Some(
                "{\"type\":\"event\",\"seq\":0,\"cycle\":5,\"instr\":1,\"event\":\"mispredict\",\
                 \"pc\":64,\"class\":\"cond\",\"resolve_cycle\":9}"
            )
        );
        assert_eq!(
            lines.next(),
            Some(
                "{\"type\":\"event\",\"seq\":1,\"cycle\":9,\"instr\":2,\
                 \"event\":\"uoc_transition\",\"from\":\"filter\",\"to\":\"build\"}"
            )
        );
        assert_eq!(t.counts_by_name(), vec![("mispredict", 1), ("uoc_transition", 1)]);
    }
}
