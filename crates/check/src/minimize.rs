//! Counterexample minimization by delta debugging over the schedule.
//!
//! A counterexample is a schedule — a sequence of choice indices. Replay
//! pads a short schedule with choice 0 (the natural event order), so any
//! prefix or subsequence of a failing schedule is itself a complete,
//! runnable schedule. Minimization exploits that: drop chunks of choices
//! (classic ddmin), rewrite surviving choices to 0, and trim trailing
//! zeros, keeping each edit only if the replayed schedule still exhibits
//! the *same kind* of failure (the same [`Failure`] variant). The result
//! is the short suffix-free core of scheduling decisions that actually
//! provoke the bug.

use crate::explore::{replay_schedule, BuildOpts, Failure};
use crate::scenario::Scenario;
use lrc_core::Fault;
use lrc_sim::Protocol;
use std::mem::discriminant;

/// Shrink `schedule` while preserving a failure of the same kind as
/// `failure`, replaying every candidate on machines built with the `opts`
/// the counterexample was found under (a [`Failure::HbRace`], or a failure
/// that needs a crash or NACK choice point, only exists with that option
/// armed). Returns the minimized schedule together with the failure its
/// replay produces (guaranteed to be of the same kind).
pub fn minimize(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    schedule: &[usize],
    failure: &Failure,
) -> (Vec<usize>, Failure) {
    let kind = discriminant(failure);
    let still_fails = |s: &[usize]| -> Option<Failure> {
        let (f, _) = replay_schedule(scenario, protocol, fault, opts, s);
        f.filter(|f| discriminant(f) == kind)
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
