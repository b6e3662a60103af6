//! Typed simulator errors.
//!
//! Every failure the stack can detect is reported as a [`SimError`]
//! instead of a panic, so a corrupted trace record or an injected
//! micro-architectural fault degrades a run gracefully (or ends it with a
//! diagnosable error) rather than aborting the process. Lower layers
//! surface their own typed errors — [`exynos_branch::PredictorError`] —
//! and convert into [`SimError`] at the core boundary via `From`.

use exynos_branch::PredictorError;
use exynos_trace::InstKind;
use exynos_uoc::UocMode;
use std::fmt;

/// Occupancy snapshot captured when the forward-progress watchdog gives
/// up, so a wedged run reports *where* the machine was stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// ROB entries in flight.
    pub rob: usize,
    /// Configured ROB capacity.
    pub rob_capacity: usize,
    /// Integer PRF in-flight writers.
    pub int_inflight: usize,
    /// FP PRF in-flight writers.
    pub fp_inflight: usize,
    /// Miss-address buffers in use at the stall point.
    pub mshr_occupancy: usize,
    /// Configured miss-address buffer count.
    pub mshr_capacity: usize,
    /// UOC operating mode (`None` on generations without a UOC).
    pub uoc_mode: Option<UocMode>,
    /// µops resident in the UOC.
    pub uoc_occupancy: u32,
    /// Front-end fetch cycle at the stall point.
    pub fetch_cycle: u64,
    /// Cycle of the last successful retirement.
    pub last_retire: u64,
}

impl fmt::Display for OccupancySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rob {}/{}, int {} fp {} in flight, mshr {}/{}, uoc {}({} uops), \
             fetch@{} last-retire@{}",
            self.rob,
            self.rob_capacity,
            self.int_inflight,
            self.fp_inflight,
            self.mshr_occupancy,
            self.mshr_capacity,
            match self.uoc_mode {
                Some(m) => format!("{m:?}"),
                None => "absent".into(),
            },
            self.uoc_occupancy,
            self.fetch_cycle,
            self.last_retire,
        )
    }
}

/// Everything that can go wrong inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A trace record was structurally invalid (e.g. a load or store with
    /// no memory operand). Only raised in strict-decode mode; the default
    /// policy counts and skips the record.
    MalformedInst {
        /// PC of the offending record.
        pc: u64,
        /// Its functional class.
        kind: InstKind,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A structural resource broke its occupancy invariant.
    ResourceInvariant {
        /// Which resource ("mab", "rob", ...).
        resource: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A predictor array was found in a state it could not legally reach
    /// (tag mismatch, depth overflow).
    PredictorCorruption {
        /// Which unit detected it ("branch").
        unit: &'static str,
        /// PC associated with the detection, when one exists.
        pc: u64,
        /// Underlying error rendered as text.
        detail: String,
    },
    /// The retire stage made no progress for longer than the watchdog
    /// threshold and the graceful-degradation ladder was exhausted.
    ForwardProgressStall {
        /// Retirement cycle at which the stall was detected.
        cycle: u64,
        /// Length of the retirement gap in cycles.
        stalled_cycles: u64,
        /// Recovery attempts spent before giving up.
        recoveries: u32,
        /// Machine occupancy at the stall point.
        snapshot: OccupancySnapshot,
    },
    /// A checkpoint image failed to decode (bad magic, unsupported format
    /// version, truncation, geometry mismatch against the target
    /// configuration, or corrupt field encoding).
    SnapshotDecode {
        /// Underlying decode error rendered as text.
        detail: String,
    },
    /// A construction-time parameter was out of range. Raised by
    /// [`SimBuilder`](crate::builder::SimBuilder) validation (fault
    /// probabilities outside `[0, 1]`, inconsistent stall knobs, a
    /// zero-cycle watchdog threshold, degenerate cache, TLB or
    /// miss-buffer geometry) and by service-layer job specs.
    Config {
        /// Which parameter was rejected.
        param: &'static str,
        /// Why it was rejected, including the offending value.
        detail: String,
    },
    /// The run was stopped by a [`CancelToken`](crate::cancel::CancelToken)
    /// before completing — either an explicit cancel or an expired
    /// deadline. The simulator remains consistent and checkpointable.
    Cancelled {
        /// Instructions retired before the cancellation was observed.
        instructions: u64,
        /// `true` when the stop came from an expired deadline rather
        /// than an explicit cancel call.
        deadline: bool,
    },
}

impl SimError {
    /// Whether a fresh attempt of the same run could plausibly succeed.
    ///
    /// Transient-by-nature failures — predictor-state corruption (the
    /// soft-error model), watchdog-exhausted stalls, and resource
    /// invariant trips — are worth retrying; a malformed trace record,
    /// a rejected checkpoint image, a bad configuration, or an explicit
    /// cancellation will fail identically every time.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SimError::PredictorCorruption { .. }
                | SimError::ForwardProgressStall { .. }
                | SimError::ResourceInvariant { .. }
        )
    }

    /// Stable machine-readable label for the variant, used by the
    /// service protocol and journal.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::MalformedInst { .. } => "malformed_inst",
            SimError::ResourceInvariant { .. } => "resource_invariant",
            SimError::PredictorCorruption { .. } => "predictor_corruption",
            SimError::ForwardProgressStall { .. } => "forward_progress_stall",
            SimError::SnapshotDecode { .. } => "snapshot_decode",
            SimError::Config { .. } => "config",
            SimError::Cancelled { deadline: true, .. } => "deadline",
            SimError::Cancelled { deadline: false, .. } => "cancelled",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MalformedInst { pc, kind, reason } => {
                write!(f, "malformed {kind:?} record at {pc:#x}: {reason}")
            }
            SimError::ResourceInvariant { resource, detail } => {
                write!(f, "{resource} invariant violated: {detail}")
            }
            SimError::PredictorCorruption { unit, pc, detail } => {
                write!(f, "{unit} predictor state corrupt near {pc:#x}: {detail}")
            }
            SimError::ForwardProgressStall { cycle, stalled_cycles, recoveries, snapshot } => {
                write!(
                    f,
                    "no retirement for {stalled_cycles} cycles at cycle {cycle} \
                     after {recoveries} recoveries ({snapshot})"
                )
            }
            SimError::SnapshotDecode { detail } => {
                write!(f, "checkpoint image rejected: {detail}")
            }
            SimError::Config { param, detail } => {
                write!(f, "invalid configuration for {param}: {detail}")
            }
            SimError::Cancelled { instructions, deadline } => {
                let why = if *deadline { "deadline expired" } else { "cancelled" };
                write!(f, "run {why} after {instructions} instructions")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<PredictorError> for SimError {
    fn from(e: PredictorError) -> SimError {
        let pc = match e {
            PredictorError::BtbTagMismatch { slot_pc, .. } => slot_pc,
            PredictorError::RasDepthInvariant { .. } => 0,
        };
        SimError::PredictorCorruption { unit: "branch", pc, detail: e.to_string() }
    }
}

impl From<exynos_snapshot::SnapshotError> for SimError {
    fn from(e: exynos_snapshot::SnapshotError) -> SimError {
        SimError::SnapshotDecode { detail: e.to_string() }
    }
}

impl From<exynos_trace::TraceError> for SimError {
    fn from(e: exynos_trace::TraceError) -> SimError {
        // A workload that fails to build is a configuration problem of the
        // run that asked for it: deterministic, not retryable.
        SimError::Config { param: "workload", detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_every_variant() {
        let snap = OccupancySnapshot {
            rob: 224,
            rob_capacity: 228,
            int_inflight: 60,
            fp_inflight: 12,
            mshr_occupancy: 8,
            mshr_capacity: 8,
            uoc_mode: Some(UocMode::Fetch),
            uoc_occupancy: 96,
            fetch_cycle: 1000,
            last_retire: 900,
        };
        let errs = [
            SimError::MalformedInst { pc: 0x40, kind: InstKind::Load, reason: "no operand" },
            SimError::ResourceInvariant { resource: "mab", detail: "9 > 8".into() },
            SimError::PredictorCorruption { unit: "branch", pc: 0x80, detail: "tag".into() },
            SimError::ForwardProgressStall {
                cycle: 1,
                stalled_cycles: 2,
                recoveries: 3,
                snapshot: snap,
            },
            SimError::SnapshotDecode { detail: "bad magic".into() },
            SimError::Config { param: "fault.rate", detail: "1.5 not in [0,1]".into() },
            SimError::Cancelled { instructions: 512, deadline: true },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn retryability_partitions_the_variants() {
        let snap = OccupancySnapshot {
            rob: 0,
            rob_capacity: 1,
            int_inflight: 0,
            fp_inflight: 0,
            mshr_occupancy: 0,
            mshr_capacity: 1,
            uoc_mode: None,
            uoc_occupancy: 0,
            fetch_cycle: 0,
            last_retire: 0,
        };
        let retryable = [
            SimError::PredictorCorruption { unit: "branch", pc: 0, detail: String::new() },
            SimError::ResourceInvariant { resource: "mab", detail: String::new() },
            SimError::ForwardProgressStall {
                cycle: 0,
                stalled_cycles: 0,
                recoveries: 0,
                snapshot: snap,
            },
        ];
        let terminal = [
            SimError::MalformedInst { pc: 0, kind: InstKind::Load, reason: "" },
            SimError::SnapshotDecode { detail: String::new() },
            SimError::Config { param: "x", detail: String::new() },
            SimError::Cancelled { instructions: 0, deadline: false },
        ];
        for e in retryable {
            assert!(e.is_retryable(), "{e}");
        }
        for e in terminal {
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn kind_labels_distinguish_deadline_from_cancel() {
        assert_eq!(SimError::Cancelled { instructions: 0, deadline: true }.kind(), "deadline");
        assert_eq!(SimError::Cancelled { instructions: 0, deadline: false }.kind(), "cancelled");
        assert_eq!(
            SimError::Config { param: "x", detail: String::new() }.kind(),
            "config"
        );
    }

    #[test]
    fn predictor_error_converts_with_pc() {
        let e = PredictorError::BtbTagMismatch { slot_pc: 0x4000, line_addr: 1 };
        match SimError::from(e) {
            SimError::PredictorCorruption { unit, pc, .. } => {
                assert_eq!(unit, "branch");
                assert_eq!(pc, 0x4000);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
