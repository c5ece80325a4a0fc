//! Progress watchdog vocabulary: the structured diagnosis a wedged
//! simulation aborts with instead of hanging or panicking opaquely.
//!
//! The machine (in `lrc-core`) detects three kinds of no-progress —
//! an empty event queue with unfinished processors, simulated time
//! exceeding the configured ceiling, and a single processor stalled past a
//! configurable cycle horizon while the rest of the machine keeps moving —
//! and reports each as a [`StallDiagnosis`]: which processors are stuck
//! and since when, how many release fences are pending, what the link
//! layer still has in flight or has abandoned, plus a full machine dump.
//! The diagnosis is an ordinary error value, so harnesses (the chaos soak,
//! the experiment runner) can log it and move on; the legacy panicking
//! entry points render it through [`std::fmt::Display`].

use crate::types::{Cycle, ProcId};

/// Which progress property failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The event queue drained with unfinished processors: nothing can
    /// ever fire again.
    Deadlock,
    /// Simulated time passed the configured `max_cycles` ceiling.
    CycleHorizon(Cycle),
    /// At least one processor has been continuously stalled for longer
    /// than the configured horizon while the machine was still processing
    /// events (livelock or an unserviceable wait).
    ProcStallHorizon(Cycle),
    /// A bounded NI queue stayed full while senders kept backing off and
    /// retrying: queue-full livelock rather than a protocol deadlock.
    NiQueueFull {
        /// The node whose NI queue rejected the most recent send.
        node: ProcId,
        /// Its occupancy at the rejection.
        occupancy: usize,
        /// Its configured capacity.
        cap: usize,
    },
    /// A home spent a line's entire BUSY-NACK retry budget during one busy
    /// episode that never resolved: a NACK storm, not a generic deadlock.
    NackStorm {
        /// The contended line.
        line: u64,
        /// BUSY-NACKs sent during the episode.
        nacks: u32,
    },
    /// A lease expired on a node that never actually crashed: either the
    /// lease bound is mis-set relative to the injected message delays, or
    /// detection itself is buggy. A *correct* suspicion of a crashed node
    /// is not a stall and never produces this.
    DeadNodeSuspected {
        /// The node whose lease expired.
        node: ProcId,
        /// The survivor that declared it dead.
        by: ProcId,
    },
    /// A node crashed, recovery ran, and the survivors still wedged: the
    /// reclamation left a dangling wait (the recovery-bug signature the
    /// checker minimizes).
    RecoveryStalled {
        /// The crashed node whose reclamation did not restore progress.
        node: ProcId,
    },
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallReason::Deadlock => write!(f, "deadlock: event queue empty with unfinished processors"),
            StallReason::CycleHorizon(c) => write!(f, "watchdog: simulation exceeded {c} cycles"),
            StallReason::ProcStallHorizon(c) => {
                write!(f, "watchdog: processor stalled beyond the {c}-cycle horizon")
            }
            StallReason::NiQueueFull { node, occupancy, cap } => write!(
                f,
                "watchdog: NI queue full at node {node} ({occupancy}/{cap} slots) with senders backing off — queue-full livelock"
            ),
            StallReason::NackStorm { line, nacks } => write!(
                f,
                "watchdog: BUSY-NACK storm on line {line} ({nacks} NACK(s), retry budget spent) — busy episode never resolved"
            ),
            StallReason::DeadNodeSuspected { node, by } => write!(
                f,
                "watchdog: node {node} declared dead by node {by} but never crashed — false-positive failure detection (lease bound vs message delay)"
            ),
            StallReason::RecoveryStalled { node } => write!(
                f,
                "watchdog: survivors wedged after node {node} crashed — recovery/reclamation left a dangling wait"
            ),
        }
    }
}

/// One processor that was not running when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledProc {
    /// The processor.
    pub proc: ProcId,
    /// Its status, rendered (`lrc-sim` does not know the machine's status
    /// enum).
    pub status: String,
    /// Cycle at which its current stall began.
    pub since: Cycle,
}

/// Structured abort report of a simulation that could not make progress.
#[derive(Debug, Clone, PartialEq)]
pub struct StallDiagnosis {
    /// Which progress property failed.
    pub reason: StallReason,
    /// Simulated time at which the watchdog fired.
    pub at: Cycle,
    /// Processors finished out of the machine's total.
    pub finished: usize,
    /// Total processors.
    pub procs: usize,
    /// Every processor not currently running, with stall start times.
    pub stalled: Vec<StalledProc>,
    /// Processors blocked in a release fence (`Releasing` status) — the
    /// classic symptom of a lost ack or write notice.
    pub pending_fences: usize,
    /// Messages the link layer still holds in its retransmit buffer.
    pub in_flight_msgs: usize,
    /// Messages the link layer gave up on after exhausting retries,
    /// rendered — each one is a delivery the protocol will wait for
    /// forever.
    pub abandoned_msgs: Vec<String>,
    /// Events still pending in the queue when the watchdog fired.
    pub pending_events: usize,
    /// The flight recorder's tail: the last few trace records per node,
    /// merged into one rendered timeline. Empty when the machine ran
    /// without a recorder (`lrc-sim` carries strings because the record
    /// type lives upstream in `lrc-trace`).
    pub recent_events: Vec<String>,
    /// Full machine-state dump (directory, buffers, parked requests).
    pub machine_dump: String,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} (t={}, {}/{} processors finished)", self.reason, self.at, self.finished, self.procs)?;
        writeln!(
            f,
            "  pending fences: {}; link layer: {} in flight, {} abandoned; {} events pending",
            self.pending_fences,
            self.in_flight_msgs,
            self.abandoned_msgs.len(),
            self.pending_events,
        )?;
        for s in &self.stalled {
            writeln!(f, "  P{} {} since t={} ({} cycles)", s.proc, s.status, s.since, self.at.saturating_sub(s.since))?;
        }
        for m in &self.abandoned_msgs {
            writeln!(f, "  abandoned: {m}")?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} events before the stall:", self.recent_events.len())?;
            for e in &self.recent_events {
                writeln!(f, "    {e}")?;
            }
        }
        write!(f, "{}", self.machine_dump)
    }
}

impl std::error::Error for StallDiagnosis {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StallDiagnosis {
        StallDiagnosis {
            reason: StallReason::Deadlock,
            at: 1234,
            finished: 1,
            procs: 2,
            stalled: vec![StalledProc { proc: 0, status: "Releasing(LockRelease(3))".into(), since: 1000 }],
            pending_fences: 1,
            in_flight_msgs: 2,
            abandoned_msgs: vec!["P0 -> P1 WriteNotice line 7".into()],
            pending_events: 0,
            recent_events: vec!["[t=  1200] P0 -> P1 LockRel".into()],
            machine_dump: "protocol=lazy t=1234\n".into(),
        }
    }

    #[test]
    fn display_is_structured_and_complete() {
        let d = sample();
        let text = d.to_string();
        assert!(text.starts_with("deadlock:"));
        assert!(text.contains("1/2 processors finished"));
        assert!(text.contains("pending fences: 1"));
        assert!(text.contains("P0 Releasing(LockRelease(3)) since t=1000 (234 cycles)"));
        assert!(text.contains("abandoned: P0 -> P1 WriteNotice line 7"));
        assert!(text.contains("last 1 events before the stall:"));
        assert!(text.contains("[t=  1200] P0 -> P1 LockRel"));
        assert!(text.contains("protocol=lazy"));
    }

    #[test]
    fn reasons_render_their_horizons() {
        assert!(StallReason::CycleHorizon(500).to_string().contains("exceeded 500 cycles"));
        assert!(StallReason::ProcStallHorizon(9000).to_string().contains("9000-cycle horizon"));
    }

    #[test]
    fn resource_reasons_name_the_resource() {
        let q = StallReason::NiQueueFull { node: 3, occupancy: 2, cap: 2 };
        let text = q.to_string();
        assert!(text.contains("node 3"), "{text}");
        assert!(text.contains("2/2"), "{text}");
        let s = StallReason::NackStorm { line: 17, nacks: 8 };
        let text = s.to_string();
        assert!(text.contains("line 17"), "{text}");
        assert!(text.contains("8 NACK"), "{text}");
    }

    #[test]
    fn crash_reasons_name_the_nodes() {
        let d = StallReason::DeadNodeSuspected { node: 5, by: 2 };
        let text = d.to_string();
        assert!(text.contains("node 5"), "{text}");
        assert!(text.contains("node 2"), "{text}");
        assert!(text.contains("false-positive"), "{text}");
        let r = StallReason::RecoveryStalled { node: 1 };
        let text = r.to_string();
        assert!(text.contains("node 1 crashed"), "{text}");
        assert!(text.contains("recovery"), "{text}");
    }
}
