//! The model checker's driving interface: single-event stepping with an
//! explicit choice of which pending event fires next, logical state
//! fingerprints for visited-state pruning, and quiescence analysis.
//!
//! A normal run ([`Machine::run`]) drains the event queue in (time,
//! insertion) order. The checker (`lrc-check`) instead clones the machine
//! at every state and calls [`Machine::step_choice`] with each possible
//! index `n`, firing the `n`-th pending event first — every reachable
//! interleaving of in-flight activity is a path in that tree. The event
//! handlers themselves are byte-identical to the simulator's: the checker
//! explores the *real* protocol implementation, not a model of it.

use super::values::SymbolicMemory;
use super::{Event, Machine};
use crate::node::ProcStatus;
use lrc_sim::{LockId, NodeId, Workload};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Why a drained (event-queue-empty) machine is not a clean final state.
/// These are the checker's liveness verdicts: a correct protocol drains to
/// *no* issues on every interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StuckState {
    /// A processor never reached `Done` (deadlock: nothing left to fire,
    /// but the processor is blocked).
    ProcessorStuck {
        /// The stuck processor.
        proc: usize,
        /// Its status, rendered for the report.
        status: String,
    },
    /// A coherence transaction never completed (RAC entry leaked).
    TransactionUndrained {
        /// The node holding the entry.
        proc: usize,
        /// The line with an outstanding transaction.
        line: u64,
    },
    /// Write-through or write-back acknowledgements never arrived.
    UnackedFlushes {
        /// The waiting node.
        proc: usize,
        /// Unacknowledged write-throughs.
        write_throughs: u32,
        /// Unacknowledged write-backs.
        write_backs: u32,
    },
    /// A coalescing-buffer entry was never drained (its flush timer died).
    CoalescingResidue {
        /// The node holding the entry.
        proc: usize,
        /// The undrained line.
        line: u64,
    },
    /// A directory ack collection never completed or a 3-hop forward never
    /// closed.
    DirectoryBusy {
        /// The affected line.
        line: u64,
        /// Outstanding acks (0 for a busy 3-hop entry).
        awaiting: u32,
    },
    /// Requests were parked at a home and never released.
    ParkedForever {
        /// The line whose queue still holds requests.
        line: u64,
        /// Number of requests still parked.
        requests: usize,
    },
    /// The link layer exhausted its retransmissions for a message and gave
    /// it up for lost: whatever the protocol was waiting on will never
    /// arrive (fault-injection runs only).
    DeliveryAbandoned {
        /// The abandoned message, rendered.
        msg: String,
    },
}

impl std::fmt::Display for StuckState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StuckState::ProcessorStuck { proc, status } => {
                write!(f, "P{proc} stuck in {status} with no events pending")
            }
            StuckState::TransactionUndrained { proc, line } => {
                write!(f, "P{proc} still has an outstanding transaction for line {line}")
            }
            StuckState::UnackedFlushes { proc, write_throughs, write_backs } => write!(
                f,
                "P{proc} still awaits {write_throughs} write-through / {write_backs} write-back ack(s)"
            ),
            StuckState::CoalescingResidue { proc, line } => {
                write!(f, "P{proc}'s coalescing buffer still holds line {line}")
            }
            StuckState::DirectoryBusy { line, awaiting } => {
                write!(f, "directory entry for line {line} busy (awaiting {awaiting} ack(s))")
            }
            StuckState::ParkedForever { line, requests } => {
                write!(f, "{requests} request(s) for line {line} parked forever")
            }
            StuckState::DeliveryAbandoned { msg } => {
                write!(f, "link layer abandoned delivery of {msg} (retries exhausted)")
            }
        }
    }
}

impl Machine {
    /// Install `workload` and seed the initial `ProcStep` events without
    /// running anything — the checker takes over from here with
    /// [`Machine::step_choice`].
    pub fn prepare(&mut self, workload: Box<dyn Workload>) {
        assert_eq!(
            workload.num_procs(),
            self.cfg.num_procs,
            "workload built for a different processor count"
        );
        self.workload = workload;
        for p in 0..self.cfg.num_procs {
            self.nodes[p].step_scheduled = true;
            self.push_ev(0, p, Event::ProcStep(p));
        }
    }

    /// Number of events currently pending — the branching factor at this
    /// state. Each `n < num_pending()` is a legal argument to
    /// [`Machine::step_choice`].
    pub fn num_pending(&self) -> usize {
        self.queue.len()
    }

    /// Fire the `n`-th pending event (in (time, insertion) order) and run
    /// its handler. Returns false if fewer than `n + 1` events are pending
    /// (nothing fired).
    pub fn step_choice(&mut self, n: usize) -> bool {
        self.choice_driven = true;
        let Some((t, ev)) = self.queue.pop_nth(n) else {
            return false;
        };
        self.dispatch(t, ev);
        self.handled += 1;
        if self.crash.is_some() {
            self.crash_nth_poll(t);
        }
        true
    }

    /// True when every processor that can still finish has executed `Done`
    /// (crashed processors never will; they shrink the target).
    pub fn all_finished(&self) -> bool {
        self.finished == self.live_finish_target()
    }

    /// The lock-grant order observed so far, as `(lock, grantee)` pairs —
    /// the synchronization order the reference interpreter replays.
    pub fn grant_log(&self) -> &[(LockId, NodeId)] {
        &self.grant_log
    }

    /// The final symbolic memory (home image overlaid with unflushed
    /// writes) and any write-write overlay conflicts. `None` unless built
    /// with [`Machine::with_value_tracking`].
    pub fn final_memory(&self) -> Option<(SymbolicMemory, Vec<(u64, usize)>)> {
        Some(self.observers.as_deref()?.values.as_ref()?.final_memory())
    }

    /// Liveness sweep for a drained machine: everything that should have
    /// completed but did not. Empty on a clean quiescent state. (A
    /// non-empty lazy-ext `delayed_writes` table is *legal* residue — a
    /// program may end without a trailing release — and is not reported.)
    pub fn stuck_states(&self) -> Vec<StuckState> {
        let mut out = Vec::new();
        for (p, node) in self.nodes.iter().enumerate() {
            // A crashed processor is expected never to finish; its fresh
            // (empty) node state contributes nothing below either.
            if node.status == ProcStatus::Crashed {
                continue;
            }
            if node.status != ProcStatus::Finished {
                out.push(StuckState::ProcessorStuck {
                    proc: p,
                    status: format!("{:?}", node.status),
                });
            }
            let mut out_lines: Vec<u64> = node.outstanding.keys().copied().collect();
            out_lines.sort_unstable();
            for line in out_lines {
                out.push(StuckState::TransactionUndrained { proc: p, line });
            }
            if node.wt_unacked != 0 || node.wbk_unacked != 0 {
                out.push(StuckState::UnackedFlushes {
                    proc: p,
                    write_throughs: node.wt_unacked,
                    write_backs: node.wbk_unacked,
                });
            }
            for e in node.cb.iter() {
                out.push(StuckState::CoalescingResidue { proc: p, line: e.line.0 });
            }
        }
        // A line homed at a crashed node keeps whatever directory state it
        // died with — there is no home left to drain it, and survivors got
        // degraded fills instead. That residue is the cost of the crash,
        // not a liveness bug.
        let home_crashed = |line: u64| {
            self.crash
                .as_deref()
                .is_some_and(|c| c.crashed.contains(self.home_of(lrc_sim::LineAddr(line))))
        };
        // LineMap iteration is already in ascending line order.
        for (line, e) in self.dir.iter().filter(|(_, e)| e.pending.is_some() || e.busy) {
            if home_crashed(line) {
                continue;
            }
            out.push(StuckState::DirectoryBusy {
                line,
                awaiting: e.pending.as_ref().map_or(0, |pc| pc.awaiting),
            });
        }
        for (line, q) in self.parked.iter() {
            if home_crashed(line) {
                continue;
            }
            out.push(StuckState::ParkedForever { line, requests: q.len() });
        }
        if let Some(xm) = self.xmit.as_deref() {
            for m in &xm.gave_up {
                out.push(StuckState::DeliveryAbandoned { msg: super::xmit::XmitState::render_msg(m) });
            }
        }
        out
    }

    /// A 64-bit fingerprint of the machine's *logical* state: everything
    /// that determines future protocol behavior, excluding times and
    /// statistics. Two states with equal fingerprints have the same set of
    /// reachable violations, so the checker prunes revisits. Unordered
    /// containers are folded in sorted order to keep the fingerprint
    /// iteration-order independent.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.protocol.hash(&mut h);
        self.finished.hash(&mut h);
        self.workload.state_token().hash(&mut h);

        for node in &self.nodes {
            node.status.hash(&mut h);
            node.deferred_op.hash(&mut h);
            node.step_scheduled.hash(&mut h);
            let mut lines: Vec<(u64, lrc_mem::LineState, u64)> =
                node.cache.iter().map(|l| (l.line.0, l.state, l.dirty_words)).collect();
            lines.sort_unstable_by_key(|&(l, ..)| l);
            lines.hash(&mut h);
            for e in node.wb.iter() {
                (e.line.0, e.words, e.ready, e.issued).hash(&mut h);
            }
            let mut cb: Vec<(u64, u64)> = node.cb.iter().map(|e| (e.line.0, e.words)).collect();
            cb.sort_unstable();
            cb.hash(&mut h);
            let mut outs: Vec<(u64, crate::node::Outstanding)> =
                node.outstanding.iter().map(|(&l, &o)| (l, o)).collect();
            outs.sort_unstable_by_key(|&(l, _)| l);
            outs.hash(&mut h);
            let mut pend: Vec<u64> = node.pending_invals.iter().copied().collect();
            pend.sort_unstable();
            pend.hash(&mut h);
            node.inval_all.hash(&mut h);
            let mut delayed: Vec<(u64, u64)> =
                node.delayed_writes.iter().map(|(&l, &w)| (l, w)).collect();
            delayed.sort_unstable();
            delayed.hash(&mut h);
            (node.wt_unacked, node.wbk_unacked).hash(&mut h);
            let mut forwards: Vec<(u64, &crate::msg::Msg)> =
                node.parked_forwards.iter().map(|(&l, m)| (l, m)).collect();
            forwards.sort_unstable_by_key(|&(l, _)| l);
            for (l, m) in forwards {
                (l, m).hash(&mut h);
            }
            node.locks.snapshot().hash(&mut h);
            node.barriers.snapshot().hash(&mut h);
        }

        // LineMap iteration is already in ascending line order, so these
        // folds are iteration-order independent by construction.
        for (l, e) in self.dir.iter() {
            (l, e.sharers(), e.writers(), e.notified(), e.busy, e.overflow).hash(&mut h);
            match &e.pending {
                Some(pc) => (pc.awaiting, &pc.waiters).hash(&mut h),
                None => u32::MAX.hash(&mut h),
            }
        }

        for (l, q) in self.parked.iter() {
            l.hash(&mut h);
            for (m, _) in q {
                m.hash(&mut h);
            }
        }

        for (l, e) in self.busy_info.iter() {
            (l, e.owner, e.requester, e.for_write, e.served).hash(&mut h);
        }

        // NACK budgets spent per line (finite directory request slots). An
        // empty map folds nothing, so unbounded runs are unaffected.
        for (l, &n) in self.nacks_given.iter() {
            (l, n).hash(&mut h);
        }
        // The deterministic NACK choice point: until the `nack_nth`-th busy
        // encounter has happened, states differ by how close they are to the
        // trigger; afterwards every count is equivalent (clamp merges them).
        if let Some(n) = self.nack_nth {
            self.park_seq.min(n + 1).hash(&mut h);
        }

        // Pending events, in firing order, without their times.
        for ev in self.queue.pending_events() {
            ev.hash(&mut h);
        }

        // Link-layer state (fault-injection runs only). HashMap/HashSet
        // folds are sorted for iteration-order independence.
        if let Some(xm) = self.xmit.as_deref() {
            xm.next_seq.hash(&mut h);
            let mut inflight: Vec<(u64, crate::msg::Msg, u32)> =
                xm.in_flight.iter().map(|(&s, i)| (s, i.msg, i.attempts)).collect();
            inflight.sort_unstable_by_key(|&(s, ..)| s);
            inflight.hash(&mut h);
            let mut seen: Vec<u64> = xm.seen.iter().copied().collect();
            seen.sort_unstable();
            seen.hash(&mut h);
            xm.gave_up.hash(&mut h);
        }

        // Crash-subsystem state (armed runs only): deaths, per-observer
        // suspicions, and the unacked-credit matrices all steer future
        // behavior. Lease times (`last_heard`) are wall-clock and excluded,
        // like every other time. With `crash_nth` armed, states additionally
        // differ by how close the handled-event counter is to the trigger
        // (clamped past it, mirroring `nack_nth`).
        if let Some(c) = self.crash.as_deref() {
            c.crashed.hash(&mut h);
            c.crashed_unfinished.hash(&mut h);
            c.suspected.hash(&mut h);
            c.wt_to.hash(&mut h);
            c.wbk_to.hash(&mut h);
            if let Some((_, n)) = c.plan.crash_nth {
                self.handled.min(n + 1).hash(&mut h);
            }
        }

        let obs = self.observers.as_deref();
        if let Some(v) = obs.and_then(|o| o.values.as_ref()) {
            v.hash_into(&mut h);
        }
        // Detector state must distinguish otherwise-equal machine states:
        // pruning a state whose vector clocks or word metadata differ could
        // silently merge a racy path into a clean one.
        if let Some(r) = obs.and_then(|o| o.race.as_ref()) {
            r.hash_into(&mut h);
        }
        h.finish()
    }
}
