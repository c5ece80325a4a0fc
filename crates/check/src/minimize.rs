//! Counterexample minimization by delta debugging over the schedule.
//!
//! A counterexample is a schedule — a sequence of choice indices. Replay
//! pads a short schedule with choice 0 (the natural event order), so any
//! prefix or subsequence of a failing schedule is itself a complete,
//! runnable schedule. Minimization exploits that: drop chunks of choices
//! (classic ddmin), rewrite surviving choices to 0, and trim trailing
//! zeros, keeping each edit only if the replayed schedule still exhibits
//! the *same class* of failure. The result is the short suffix-free core
//! of scheduling decisions that actually provoke the bug.

use crate::explore::{replay_schedule, BuildOpts, Failure};
use crate::scenario::Scenario;
use lrc_core::Fault;
use lrc_sim::Protocol;

/// The coarse failure class used to decide whether a shrunken schedule
/// still reproduces "the same bug".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// An invariant violation mid-path.
    Safety,
    /// A stuck drained machine.
    Liveness,
    /// Final memory diverged from the reference execution.
    Value,
    /// Conflicting unflushed writes at quiescence.
    Race,
    /// The happens-before detector reported a data race.
    HbRace,
    /// The reference interpreter rejected the observed sync order.
    Reference,
}

impl FailureClass {
    /// The class of a concrete failure.
    pub fn of(f: &Failure) -> FailureClass {
        match f {
            Failure::Safety(_) => FailureClass::Safety,
            Failure::Liveness(_) => FailureClass::Liveness,
            Failure::ValueMismatch(_) => FailureClass::Value,
            Failure::WriteRace(_) => FailureClass::Race,
            Failure::HbRace(_) => FailureClass::HbRace,
            Failure::Reference(_) => FailureClass::Reference,
        }
    }
}

/// Shrink `schedule` while preserving a failure of class `class`, replaying
/// every candidate on machines built with the `opts` the counterexample was
/// found under (a [`FailureClass::HbRace`] failure, or one that needs a
/// crash or NACK choice point, only exists with that option armed).
/// Returns the minimized schedule together with the failure its replay
/// produces (guaranteed to be of the same class).
pub fn minimize(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    schedule: &[usize],
    class: FailureClass,
) -> (Vec<usize>, Failure) {
    let still_fails = |s: &[usize]| -> Option<Failure> {
        let (f, _) = replay_schedule(scenario, protocol, fault, opts, s);
        f.filter(|f| FailureClass::of(f) == class)
    };

    let mut cur: Vec<usize> = schedule.to_vec();
    let mut witness = still_fails(&cur).unwrap_or_else(|| {
        panic!("counterexample schedule does not replay: {schedule:?}")
    });

    // Phase 1: drop the tail. Replay pads with choice 0, so a prefix is a
    // complete schedule; find the shortest failing prefix.
    while !cur.is_empty() {
        let prefix = &cur[..cur.len() - 1];
        match still_fails(prefix) {
            Some(f) => {
                witness = f;
                cur.pop();
            }
            None => break,
        }
    }

    // Phase 2: ddmin — remove contiguous chunks, halving granularity.
    let mut chunk = cur.len().div_ceil(2).max(1);
    while chunk >= 1 && !cur.is_empty() {
        let mut start = 0;
        let mut removed_any = false;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            match still_fails(&candidate) {
                Some(f) => {
                    witness = f;
                    cur = candidate;
                    removed_any = true;
                    // Retry at the same position — the next chunk shifted
                    // into it.
                }
                None => start = end,
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk = if removed_any { chunk } else { (chunk / 2).max(1) };
    }

    // Phase 3: rewrite surviving choices to 0 (the natural order) where
    // the failure does not depend on them.
    for i in 0..cur.len() {
        if cur[i] == 0 {
            continue;
        }
        let mut candidate = cur.clone();
        candidate[i] = 0;
        if let Some(f) = still_fails(&candidate) {
            witness = f;
            cur = candidate;
        }
    }

    // Phase 4: trailing zeros are redundant under 0-padding.
    while cur.last() == Some(&0) {
        cur.pop();
    }
    if !cur.is_empty() {
        // Phases 3–4 may have re-opened phase 1 opportunities.
        while !cur.is_empty() {
            let prefix = &cur[..cur.len() - 1];
            match still_fails(prefix) {
                Some(f) => {
                    witness = f;
                    cur.pop();
                    while cur.last() == Some(&0) {
                        cur.pop();
                    }
                }
                None => break,
            }
        }
    }

    debug_assert!(still_fails(&cur).is_some());
    (cur, witness)
}
