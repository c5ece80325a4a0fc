//! The model checker's driving interface: single-event stepping with an
//! explicit choice of which pending event fires next, logical state
//! fingerprints for visited-state pruning, quiescence analysis, and the
//! DRF ⇒ SC oracle of a drained machine ([`Machine::terminal_failure`]),
//! which `lrc-check` runs at every terminal state and `lrc-soak` after
//! every value-tracking cell.
//!
//! A normal run ([`Machine::run`]) drains the event queue in (time,
//! insertion) order. The checker (`lrc-check`) instead clones the machine
//! at every state and calls [`Machine::step_choice`] with each possible
//! index `n`, firing the `n`-th pending event first — every reachable
//! interleaving of in-flight activity is a path in that tree. The event
//! handlers themselves are byte-identical to the simulator's: the checker
//! explores the *real* protocol implementation, not a model of it.

use super::values::SymbolicMemory;
use super::{Event, Machine, Violation};
use crate::msg::{Msg, MsgKind};
use crate::node::ProcStatus;
use lrc_sim::refint;
use lrc_sim::{FoldHasher, LockId, MultisetHash, NodeId, RaceReport, Script, Workload};
use std::fmt;
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

/// What a checked path violates: [`Machine::check_violations`] mid-path,
/// or [`Machine::terminal_failure`] once the machine has drained.
#[derive(Debug, Clone)]
pub enum Failure {
    /// A coherence invariant broke mid-path.
    Safety(Vec<Violation>),
    /// The machine drained with work left undone.
    Liveness(Vec<StuckState>),
    /// The drained machine's final memory disagrees with the reference
    /// sequentially consistent execution.
    ValueMismatch(Vec<String>),
    /// Two nodes held unflushed writes to the same word at quiescence
    /// (only possible for racy programs — on a DRF program, a protocol
    /// bug).
    WriteRace(Vec<(u64, usize)>),
    /// The happens-before race detector found unsynchronized conflicting
    /// accesses (race-enabled machines only). This is a property of the
    /// *program*, not the protocol: it voids the DRF ⇒ SC obligation, so
    /// the value checks are skipped on paths carrying this failure.
    HbRace(Vec<RaceReport>),
    /// The reference interpreter could not follow the machine's observed
    /// synchronization order.
    Reference(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// `head`, then `items` joined by "; ".
        fn list<T: fmt::Display>(
            f: &mut fmt::Formatter<'_>,
            head: &str,
            items: impl IntoIterator<Item = T>,
        ) -> fmt::Result {
            f.write_str(head)?;
            for (i, item) in items.into_iter().enumerate() {
                if i > 0 {
                    f.write_str("; ")?;
                }
                write!(f, "{item}")?;
            }
            Ok(())
        }
        match self {
            Failure::Safety(vs) => list(f, "safety: ", vs),
            Failure::Liveness(ss) => list(f, "liveness: ", ss),
            Failure::ValueMismatch(diffs) => {
                list(f, "final memory differs from the reference SC execution: ", diffs)
            }
            Failure::WriteRace(words) => {
                write!(f, "conflicting unflushed writes at quiescence: {words:?}")
            }
            Failure::HbRace(reports) => {
                list(f, "data race: ", reports.iter().map(RaceReport::render))
            }
            Failure::Reference(e) => write!(f, "reference interpreter: {e}"),
        }
    }
}

impl Machine {
    /// Install `workload` and seed the initial `ProcStep` events without
    /// running anything — the checker takes over from here with
    /// [`Machine::step_choice`]. [`Machine::start_run`] begins with this
    /// and adds what a timed run needs.
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

    /// True when built with [`Machine::with_value_tracking`]: the machine
    /// has a [`Machine::final_memory`] for [`Machine::terminal_failure`] to
    /// compare.
    pub fn tracks_values(&self) -> bool {
        self.observers.as_deref().is_some_and(|o| o.values.is_some())
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

    /// The DRF ⇒ SC oracle of a drained machine running `script`, in
    /// order: no liveness residue ([`Machine::stuck_states`]); then, unless
    /// a node crashed, the race detector's verdict when it is armed, no
    /// conflicting unflushed writes, and final memory equal to the
    /// reference sequentially consistent interpretation of `script`
    /// (`lrc_sim::refint`) under the lock-grant order the machine produced.
    /// `None` when every check passes.
    ///
    /// # Panics
    /// If the machine was built without [`Machine::with_value_tracking`].
    pub fn terminal_failure(&self, script: &Script) -> Option<Failure> {
        let stuck = self.stuck_states();
        if !stuck.is_empty() {
            return Some(Failure::Liveness(stuck));
        }
        // A crash-stop death loses the victim's remaining script and possibly
        // its dirty lines (typed data loss, by design), so the final memory
        // cannot be expected to match a full reference execution. Liveness
        // above is the crash run's oracle: survivors must still complete.
        if self.crash_occurred() {
            return None;
        }
        // The detector's verdict gates everything downstream: DRF ⇒ SC is an
        // implication, and a racy program voids its premise — write-overlay
        // conflicts and reference-memory divergence are then properties of
        // the program, not protocol bugs. Detector-off machines trust the
        // program's DRF promise.
        if let Some(rs) = self.race_stats() {
            if !rs.race_free() {
                return Some(Failure::HbRace(rs.reports.clone()));
            }
        }
        let (mem, conflicts) = self.final_memory().expect("value tracking enabled");
        if !conflicts.is_empty() {
            return Some(Failure::WriteRace(conflicts));
        }
        let (line_size, word_size) = (self.cfg.line_size, self.cfg.word_size);
        let ref_mem = match refint::interpret(script, line_size, word_size, &self.grant_log) {
            Ok(ref_mem) => ref_mem,
            Err(e) => return Some(Failure::Reference(e.to_string())),
        };
        if mem == ref_mem {
            return None;
        }
        let mut diffs = Vec::new();
        for (k, v) in &ref_mem {
            match mem.get(k) {
                Some(got) if got == v => {}
                Some(got) => diffs.push(format!(
                    "line {} word {}: machine has P{}#{}, reference has P{}#{}",
                    k.0, k.1, got.proc, got.seq, v.proc, v.seq
                )),
                None => diffs.push(format!(
                    "line {} word {}: machine lost P{}#{}",
                    k.0, k.1, v.proc, v.seq
                )),
            }
        }
        for (k, got) in &mem {
            if !ref_mem.contains_key(k) {
                diffs.push(format!(
                    "line {} word {}: machine invented P{}#{}",
                    k.0, k.1, got.proc, got.seq
                ));
            }
        }
        Some(Failure::ValueMismatch(diffs))
    }

    /// A 64-bit fingerprint of the machine's *logical* state: everything
    /// that determines future protocol behavior, excluding times and
    /// statistics. Two states with equal fingerprints have the same set of
    /// reachable violations, so the checker prunes revisits.
    ///
    /// The fingerprint allocates nothing. Ordered state (write buffers,
    /// line-indexed tables) is folded into a [`FoldHasher`] in place.
    /// Unordered state (the pending events, resident cache lines,
    /// coalescing-buffer entries, the per-node hash maps and sets, lock and
    /// barrier state, link-layer tables) is folded as a [`MultisetHash`],
    /// so its iteration order cannot matter. The pending events' firing
    /// order comes from event times, which the fingerprint leaves out, and
    /// the checker may fire any of them next. Forward-episode ids in
    /// messages are folded by the relation the handlers test them by, not
    /// by value (`canonical_msg`), and the episode counter and
    /// `busy_info` ids are left out.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FoldHasher::default();
        self.protocol.hash(&mut h);
        self.finished.hash(&mut h);
        self.workload.state_token().hash(&mut h);

        for node in &self.nodes {
            node.status.hash(&mut h);
            node.deferred_op.hash(&mut h);
            node.step_scheduled.hash(&mut h);
            let lines = node.cache.iter().map(|l| (l.line.0, l.state, l.dirty_words));
            lines.collect::<MultisetHash>().hash(&mut h);
            for e in node.wb.iter() {
                (e.line.0, e.words, e.ready, e.issued).hash(&mut h);
            }
            node.cb.iter().map(|e| (e.line.0, e.words)).collect::<MultisetHash>().hash(&mut h);
            node.outstanding.iter().collect::<MultisetHash>().hash(&mut h);
            node.pending_invals.iter().collect::<MultisetHash>().hash(&mut h);
            node.inval_all.hash(&mut h);
            node.delayed_writes.iter().collect::<MultisetHash>().hash(&mut h);
            (node.wt_unacked, node.wbk_unacked).hash(&mut h);
            let parked = node.parked_forwards.iter().map(|(&l, &m)| (l, self.canonical_msg(m)));
            parked.collect::<MultisetHash>().hash(&mut h);
            node.locks.state_hash().hash(&mut h);
            node.barriers.state_hash().hash(&mut h);
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

        // Pending events, without their times. The checker may fire any
        // of them next, so their (time, insertion) order is not state.
        let pending = self.queue.iter_pending().map(|ev| self.canonical_event(ev.clone()));
        pending.collect::<MultisetHash>().hash(&mut h);

        // Link-layer state (fault-injection runs only).
        if let Some(xm) = self.xmit.as_deref() {
            xm.next_seq.hash(&mut h);
            let inflight =
                xm.in_flight.iter().map(|(&s, i)| (s, self.canonical_msg(i.msg), i.attempts));
            inflight.collect::<MultisetHash>().hash(&mut h);
            xm.seen.iter().collect::<MultisetHash>().hash(&mut h);
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

    /// `m` as the fingerprint folds it: a forward-episode id is replaced by
    /// the one relation the handlers test it by (1 if it holds, else 0).
    ///
    /// * `Forward`, `CopyBack`, `ForwardNack`: the id is its line's current
    ///   episode (`busy_info`). Otherwise the owner drops the forward and
    ///   the home drops the reply. Ids only grow, so once this fails it
    ///   fails for good.
    /// * `ForwardCancel`: the id is that of the `Forward` parked at its
    ///   destination for the line, which the cancel then removes. The home
    ///   retires an episode before cancelling it, so a cancelled forward
    ///   still in flight is dropped on arrival and never parks.
    ///
    /// States that differ only in the raw ids of their messages and
    /// `busy_info` entries therefore have the same future.
    fn canonical_msg(&self, mut m: Msg) -> Msg {
        match &mut m.kind {
            MsgKind::Forward { line, ep, .. }
            | MsgKind::CopyBack { line, ep, .. }
            | MsgKind::ForwardNack { line, ep, .. } => {
                *ep = u64::from(self.busy_info.get(line.0).is_some_and(|e| e.id == *ep));
            }
            MsgKind::ForwardCancel { line, ep } => {
                let parked = self.nodes[m.dst].parked_forwards.get(&line.0);
                let cancels = parked.is_some_and(
                    |f| matches!(f.kind, MsgKind::Forward { ep: id, .. } if id == *ep),
                );
                *ep = u64::from(cancels);
            }
            _ => {}
        }
        m
    }

    /// `ev` with its message, if any, mapped by [`Machine::canonical_msg`].
    fn canonical_event(&self, mut ev: Event) -> Event {
        match &mut ev {
            Event::Msg(m)
            | Event::XMsg { msg: m, .. }
            | Event::NiRetry { msg: m, .. }
            | Event::NackRetry { msg: m } => *m = self.canonical_msg(*m),
            _ => {}
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::xmit::{InFlight, XmitState};
    use crate::machine::ForwardEp;
    use crate::node::Outstanding;
    use lrc_mem::LineState;
    use lrc_sim::{LineAddr, MachineConfig, Op, Protocol, Script};

    /// A prepared two-processor lazy machine with value tracking, its two
    /// initial `ProcStep` events pending.
    fn machine() -> Machine {
        let ops = vec![vec![Op::Write(0), Op::Release(0)], vec![Op::Acquire(0), Op::Read(0)]];
        let mut m =
            Machine::new(MachineConfig::paper_default(2), Protocol::Lrc).with_value_tracking();
        m.prepare(Box::new(Script::new("fingerprint", ops)));
        m
    }

    /// The home's 3-hop episode `id` on line 0: P1 owns it, P0 asked for it.
    fn episode(id: u64) -> ForwardEp {
        ForwardEp { id, owner: 1, requester: 0, for_write: true, served: false }
    }

    /// A forward of line `l` from the home (P0) to P1 in episode `ep`.
    fn forward(l: u64, ep: u64) -> Msg {
        let kind = MsgKind::Forward { line: LineAddr(l), requester: 0, for_write: true, ep };
        Msg { src: 0, dst: 1, kind }
    }

    #[test]
    fn fingerprint_ignores_table_iteration_order() {
        let lines = [3u64, 17, 40, 41, 96, 1000];
        let fill = |n: &mut crate::node::Node, l: u64| {
            n.pending_invals.insert(l);
            let o = Outstanding { waiting_data: true, apply_words: l, ..Default::default() };
            n.outstanding.insert(l, o);
            n.delayed_writes.insert(l, l << 1);
        };
        let mut a = machine();
        for &l in &lines {
            fill(&mut a.nodes[0], l);
        }
        // The same entries, inserted in reverse among 100 others that are
        // then removed: B's tables are larger and iterate differently.
        let mut b = machine();
        let n = &mut b.nodes[0];
        for l in (2_000..2_050).chain(lines.iter().rev().copied()).chain(2_050..2_100) {
            fill(n, l);
        }
        for l in 2_000..2_100 {
            n.pending_invals.remove(&l);
            n.outstanding.remove(&l);
            n.delayed_writes.remove(&l);
        }
        // B's two pending processor steps fire in the opposite order.
        b.queue.pop_nth(0).expect("P0's step pending");
        b.push_ev(1, 0, Event::ProcStep(0));
        let orders = |m: &Machine| {
            let n = &m.nodes[0];
            let invals: Vec<u64> = n.pending_invals.iter().copied().collect();
            let outs: Vec<u64> = n.outstanding.keys().copied().collect();
            let delayed: Vec<u64> = n.delayed_writes.keys().copied().collect();
            let events: Vec<String> = m.queue.iter_pending().map(|e| format!("{e:?}")).collect();
            (invals, outs, delayed, events)
        };
        let (oa, ob) = (orders(&a), orders(&b));
        assert!(
            oa.0 != ob.0 && oa.1 != ob.1 && oa.2 != ob.2 && oa.3 != ob.3,
            "the tables and the queue must iterate in different orders: {oa:?} vs {ob:?}"
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_raw_episode_ids() {
        // Episode ids at every place the fingerprint folds one: a current
        // Forward pending and on the link layer, a stale CopyBack and a
        // stale ForwardNack awaiting an NI retry, and a Forward parked at
        // P1 with the ForwardCancel that removes it. Shifting every id, and
        // the counter they are drawn from, by one constant must not matter.
        let shifted = |by: u64| {
            let mut m = machine();
            m.forward_seq = by + 2;
            m.busy_info.insert(0, episode(by + 2));
            let line = LineAddr(0);
            m.push_ev(0, 1, Event::Msg(forward(0, by + 2)));
            let copy_back = MsgKind::CopyBack { line, demoted_to_shared: false, ep: by + 1 };
            m.push_ev(0, 0, Event::Msg(Msg { src: 1, dst: 0, kind: copy_back }));
            let nack = MsgKind::ForwardNack { line, requester: 0, for_write: true, ep: by + 1 };
            let msg = Msg { src: 1, dst: 0, kind: nack };
            m.push_ev(0, 1, Event::NiRetry { msg, attempts: 1 });
            m.nodes[1].parked_forwards.insert(1, forward(1, by + 1));
            let cancel = MsgKind::ForwardCancel { line: LineAddr(1), ep: by + 1 };
            let msg = Msg { src: 0, dst: 1, kind: cancel };
            m.push_ev(0, 1, Event::XMsg { msg, seq: 0, corrupt: false });
            let mut xmit = XmitState::default();
            let msg = forward(0, by + 2);
            xmit.in_flight.insert(0, InFlight { msg, attempts: 0, next_deadline: 0 });
            m.xmit = Some(Box::new(xmit));
            m.fingerprint()
        };
        assert_eq!(shifted(0), shifted(1_000));
    }

    #[test]
    fn fingerprint_sees_each_kind_of_state_change() {
        let base = machine();
        let with = |edit: &dyn Fn(&mut Machine)| {
            let mut m = base.clone();
            edit(&mut m);
            m.fingerprint()
        };
        assert_eq!(with(&|_| {}), base.fingerprint());

        // One pending event: P1's step becomes a coalescing-buffer timer.
        let event = with(&|m| {
            m.queue.pop_nth(1).expect("two events pending");
            m.push_ev(0, 1, Event::CbFlush(1, LineAddr(0)));
        });
        assert_ne!(event, base.fingerprint(), "one pending event changed");

        // Whether a pending Forward belongs to its line's current episode:
        // the home's episode id moves, the Forward's does not.
        let current = |id: u64| {
            with(&|m| {
                m.push_ev(0, 1, Event::Msg(forward(0, 7)));
                m.busy_info.insert(0, episode(id));
            })
        };
        assert_ne!(current(7), current(8), "a forward's episode relation");

        // Whether a pending ForwardCancel matches the Forward parked at
        // its destination: the parked Forward's id moves, the cancel's
        // does not.
        let cancels = |parked: u64| {
            with(&|m| {
                m.nodes[1].parked_forwards.insert(0, forward(0, parked));
                let kind = MsgKind::ForwardCancel { line: LineAddr(0), ep: 7 };
                m.push_ev(0, 1, Event::Msg(Msg { src: 0, dst: 1, kind }));
            })
        };
        assert_ne!(cancels(7), cancels(8), "a cancel's episode relation");

        // One cache line's state.
        let line = |state| {
            with(&|m| {
                m.nodes[0].cache.insert(LineAddr(2), state);
            })
        };
        assert_ne!(line(LineState::ReadOnly), line(LineState::ReadWrite), "one line's state");

        // The FIFO order of one lock's waiters.
        let waiters = |order: [usize; 2]| {
            with(&|m| {
                let locks = &mut m.nodes[0].locks;
                locks.acquire(0, 0);
                for node in order {
                    locks.acquire(0, node);
                }
            })
        };
        assert_ne!(waiters([1, 2]), waiters([2, 1]), "a lock's waiter order");

        // One value-tracker entry.
        let written = |word: usize| {
            with(&|m| {
                let obs = m.observers.as_deref_mut().expect("value tracking armed");
                obs.values.as_mut().expect("value tracking armed").on_write(0, 0, word);
            })
        };
        assert_ne!(written(0), written(1), "one value-tracker entry");
    }
}
