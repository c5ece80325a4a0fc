//! `lrc-check` — a bounded, exhaustive model checker for the four
//! coherence protocols in `lrc-core`.
//!
//! The checker treats the simulator itself as the transition relation: a
//! state is a cloned [`lrc_core::Machine`], the enabled transitions are
//! the events pending in its queue, and firing the `n`-th pending event
//! ([`lrc_core::Machine::step_choice`]) yields a successor. Depth-first
//! search with visited-state pruning on logical fingerprints explores
//! *every* interleaving of protocol messages, processor steps, and flush
//! timers for a small scripted scenario (2–4 processors, 1–2 cache
//! lines).
//!
//! Checked properties:
//!
//! * **Safety** — after every transition, the global coherence invariants
//!   (writers ⊆ sharers, notified ⊆ sharers, single writer, directory
//!   soundness) must hold ([`lrc_core::Machine::check_violations`]).
//! * **Liveness** — every drained state (empty event queue) must be a
//!   clean quiescent state: all processors finished, no outstanding
//!   transactions, no unacked flushes, no busy directory entries, no
//!   parked requests ([`lrc_core::Machine::stuck_states`]).
//! * **DRF ⇒ SC** — at every drained state the machine's symbolic final
//!   memory (last [`lrc_sim::refint::WriteId`] per word) must equal a
//!   reference sequentially consistent interpretation of the script under
//!   the lock-grant order the machine actually produced, and no two nodes
//!   may hold unflushed writes to the same word.
//!
//! Liveness and DRF ⇒ SC are one oracle in `lrc-core`,
//! [`lrc_core::Machine::terminal_failure`], which `lrc-soak` also runs on
//! every value-tracking cell; a violation of any property is a
//! [`lrc_core::Failure`].
//!
//! On a violation the failing schedule is shrunk by delta debugging
//! ([`minimize::minimize`]) and rendered as a protocol message timeline
//! ([`report::render`]). Replays are deterministic: the printed schedule
//! reproduces the exact failing interleaving via `lrc-check --replay`.
//!
//! Every stage — build ([`explore::build_machine_opts`]), explore
//! ([`explore::check_opts`]), replay ([`explore::replay_schedule`]),
//! minimize and render — takes one [`explore::BuildOpts`]: the
//! happens-before race detector (`--races`), a crash-timing choice point
//! (`--crash-nth`, `--crash-node`) and a BUSY-NACK choice point
//! (`--nack-nth`), in any combination. A counterexample found under some
//! options is minimized and rendered under the same ones, and its
//! reproduce line carries them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod minimize;
pub mod report;
pub mod scenario;

use explore::{BuildOpts, CheckReport, Limits};
use lrc_core::Fault;
use lrc_sim::Protocol;
use scenario::Scenario;

/// Parse a CLI protocol name ("sc", "eager", "lazy", "lazy-ext", or an
/// alias [`Protocol::parse`] accepts).
pub fn parse_protocol(s: &str) -> Result<Protocol, String> {
    Protocol::parse(s).ok_or_else(|| format!("unknown protocol {s:?} (sc, eager, lazy, lazy-ext)"))
}

/// Every injectable fault with its CLI spelling, read both ways by
/// [`parse_fault`] and [`fault_name`].
const FAULTS: [(Fault, &str); 4] = [
    (Fault::None, "none"),
    (Fault::SkipInvalidate, "skip-invalidate"),
    (Fault::SkipWriteNotice, "skip-write-notice"),
    (Fault::SkipLockReclaim, "skip-lock-reclaim"),
];

/// Parse a CLI fault name, as [`fault_name`] spells it.
pub fn parse_fault(s: &str) -> Result<Fault, String> {
    FAULTS.iter().find(|&&(_, name)| name == s).map(|&(fault, _)| fault).ok_or_else(|| {
        let names: Vec<&str> = FAULTS.iter().map(|&(_, name)| name).collect();
        format!("unknown fault {s:?} ({})", names.join(", "))
    })
}

/// CLI spelling of a fault, for the reproduction line.
pub fn fault_name(fault: Fault) -> &'static str {
    FAULTS.iter().find(|&&(f, _)| f == fault).map(|&(_, name)| name).expect("every fault listed")
}

/// Outcome of one fully processed (scenario, protocol, fault) run: the
/// exploration report plus, on failure, the minimized schedule and a
/// rendered human-readable counterexample.
pub struct CheckOutcome {
    /// Raw exploration statistics and the (unminimized) first failure.
    pub report: CheckReport,
    /// Minimized schedule, when a counterexample was found.
    pub minimized: Option<Vec<usize>>,
    /// Rendered report for the minimized counterexample.
    pub rendered: Option<String>,
}

impl CheckOutcome {
    /// True when no counterexample was found.
    pub fn passed(&self) -> bool {
        self.report.counterexample.is_none()
    }
}

/// Explore one combination on machines built with `opts` and, if it
/// fails, minimize and render the counterexample. Minimization replays and
/// the rendering replay run under the same options, so counterexamples
/// found with any choice point armed shrink and reproduce exactly.
pub fn check_and_minimize(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    limits: Limits,
) -> CheckOutcome {
    let report = explore::check_opts(scenario, protocol, fault, opts, limits);
    let (minimized, rendered) = report
        .counterexample
        .as_ref()
        .map(|cex| {
            let (schedule, failure) =
                minimize::minimize(scenario, protocol, fault, opts, &cex.schedule, &cex.failure);
            let min_cex = explore::Counterexample { schedule, failure };
            let rendered = report::render(scenario, protocol, fault, opts, &min_cex);
            (min_cex.schedule, rendered)
        })
        .unzip();
    CheckOutcome { report, minimized, rendered }
}
