//! Crash-stop node failures: lease-based failure detection, directory
//! reclamation, and degraded-mode progress.
//!
//! A [`lrc_mesh::CrashPlan`] kills nodes at deterministic cycles (or, in
//! checker mode, after an exact number of handled events). A crash is
//! *crash-stop*: the node's volatile state — cache, write buffers, NI
//! queues, protocol tables, in-flight messages — vanishes, and the node
//! never sends or receives again. Peers observe only silence.
//!
//! Detection is lease-based. While a plan is armed, every live node
//! heartbeats every peer each [`lrc_mesh::CrashPlan::heartbeat_every`]
//! cycles, and any protocol message refreshes the receiver's lease on its
//! sender. A peer silent beyond [`lrc_mesh::CrashPlan::lease_timeout`] is
//! declared dead, independently, by each observer.
//!
//! Declaring a peer dead triggers reclamation at the observer:
//!
//! * **home side** — directory entries on the observer's lines drop the
//!   dead node. A dirty-owned line is a *lost update*, recorded as a typed
//!   [`lrc_sim::DataLossEvent`]; clean copies are reclaimed silently.
//!   Pending ack collections forge the dead node's acks so waiting writers
//!   complete; busy 3-hop episodes involving the dead node are cancelled
//!   and the survivor served from (possibly stale) memory; parked requests
//!   from the dead node are dropped; locks it held pass to the next waiter
//!   and its barrier slots are released.
//! * **requester side** — unacked write-through/write-back credit owed by
//!   the dead node is written off, outstanding misses homed there complete
//!   locally (degraded fill), and a lock/barrier wait homed there is
//!   self-granted — mutual exclusion for that lock is lost, but counted,
//!   never silent.
//!
//! After suspicion, sends toward the dead node are intercepted at the send
//! boundary: requests forge their own replies (degraded mode) and
//! everything else is suppressed. Every action lands in
//! [`lrc_sim::CrashStats`] so degraded semantics are always visible.
//!
//! With no plan armed, `Machine::crash` is `None` and every hook below is
//! one never-taken branch — the zero-cost-when-off guarantee the golden
//! fingerprints pin.

use super::obs::Seen;
use super::{Event, Machine};
use crate::directory::NodeSet;
use crate::msg::{Msg, MsgKind, WriteGrant};
use crate::node::{Node, ProcStatus};
use lrc_mesh::CrashPlan;
use lrc_sim::{Cycle, DataLossEvent, LineAddr, NodeId, StallReason};
use lrc_trace::CrashEv;

/// All crash-subsystem state, boxed behind `Machine::crash` (`None` = no
/// plan armed, zero cost).
#[derive(Debug, Clone)]
pub(crate) struct CrashCtx {
    /// The installed plan.
    pub plan: CrashPlan,
    /// Nodes that have crashed.
    pub crashed: NodeSet,
    /// Crashed nodes that had not finished their workload — the survivors'
    /// completion target shrinks by this many.
    pub crashed_unfinished: usize,
    /// `suspected[o]` = peers observer `o` has declared dead.
    pub suspected: Vec<NodeSet>,
    /// `last_heard[o][p]` = last cycle observer `o` received anything from
    /// peer `p` (leases).
    pub last_heard: Vec<Vec<Cycle>>,
    /// `wt_to[src][dst]` = write-throughs `src` sent to `dst` and has not
    /// seen acked — the credit written off when `dst` is declared dead.
    pub wt_to: Vec<Vec<u32>>,
    /// `wbk_to[src][dst]` = unacked write-backs, same write-off rule.
    pub wbk_to: Vec<Vec<u32>>,
}

impl CrashCtx {
    /// Fresh context for an `n`-node machine.
    pub fn new(plan: CrashPlan, n: usize) -> Self {
        CrashCtx {
            plan,
            crashed: NodeSet::EMPTY,
            crashed_unfinished: 0,
            suspected: vec![NodeSet::EMPTY; n],
            last_heard: vec![vec![0; n]; n],
            wt_to: vec![vec![0; n]; n],
            wbk_to: vec![vec![0; n]; n],
        }
    }
}

impl Machine {
    /// Seed the crash plan's events into a fresh run: one `CrashNode` per
    /// victim, and the first `LeaseTick` when detection is lease-driven
    /// (checker-driven runs use instantaneous detection instead — a lease
    /// timer would blow up the explored state space for nothing).
    pub(crate) fn schedule_crash_events(&mut self) {
        let Some(c) = self.crash.as_deref() else { return };
        let victims = c.plan.victims.clone();
        let hb = c.plan.heartbeat_every;
        let lease_driven = c.plan.crash_nth.is_none() && !self.choice_driven;
        for (v, at) in victims {
            self.push_ev(at, v, Event::CrashNode { victim: v });
        }
        if lease_driven {
            self.push_ev(hb, 0, Event::LeaseTick);
        }
    }

    /// Does `src` currently treat `dst` as dead?
    #[inline]
    pub(crate) fn crash_suspects(&self, src: NodeId, dst: NodeId) -> bool {
        self.crash
            .as_deref()
            .is_some_and(|c| c.suspected[src].contains(dst))
    }

    /// Dispatch-time filter: should this popped event be dropped because a
    /// crashed node is involved? In-flight messages from or to the dead
    /// node were on its NI when it died — they vanish with it. Only called
    /// when at least one node has crashed.
    pub(crate) fn crash_filter(&mut self, ev: &Event) -> bool {
        let crashed = match self.crash.as_deref() {
            Some(c) => c.crashed,
            None => return false,
        };
        let dead = |n: NodeId| crashed.contains(n);
        let drop = match ev {
            Event::ProcStep(p) => dead(*p),
            Event::CbFlush(p, _) => dead(*p),
            Event::Msg(m) => dead(m.src) || dead(m.dst),
            Event::XMsg { msg, .. } | Event::NiRetry { msg, .. } | Event::NackRetry { msg } => {
                dead(msg.src) || dead(msg.dst)
            }
            // Link-control and retry timers go inert on their own (the
            // in-flight table was purged at crash time); the sampler,
            // lease tick, and further crashes always run.
            _ => false,
        };
        if drop {
            if let Event::NiRetry { .. } = ev {
                // This retry will never be re-submitted: release its slot so
                // resource diagnostics don't report a phantom backlog.
                self.pending_ni_retries -= 1;
            }
        }
        drop
    }

    /// Checker-mode crash timing: kill the plan's victim once exactly `n`
    /// events have been handled. Polled after every dispatched event (one
    /// branch when no plan is armed).
    pub(crate) fn crash_nth_poll(&mut self, t: Cycle) {
        let Some((v, n)) = self.crash.as_deref().and_then(|c| c.plan.crash_nth) else {
            return;
        };
        if self.handled == n {
            self.crash_now(t, v);
        }
    }

    /// Kill node `v` at time `t`: wipe its volatile state, purge its
    /// traffic from the link layer, and (checker mode) let every survivor
    /// detect the death instantly.
    pub(crate) fn crash_now(&mut self, t: Cycle, v: NodeId) {
        if self.crash.as_deref().is_none_or(|c| c.crashed.contains(v)) {
            return;
        }
        let was_finished = self.nodes[v].status == ProcStatus::Finished;
        {
            let c = self.crash.as_deref_mut().expect("checked above");
            c.crashed.insert(v);
            if !was_finished {
                c.crashed_unfinished += 1;
            }
        }
        self.stats.crashes.crashes += 1;
        self.observe(t, v, Seen::Crash(CrashEv::NodeCrashed));
        // Crash-stop: everything volatile at the node vanishes. The node
        // object is replaced wholesale (cache, write buffers, outstanding
        // table, lock/barrier service state — all gone).
        let mut fresh = Node::new(&self.cfg);
        fresh.status = ProcStatus::Crashed;
        self.nodes[v] = fresh;
        // The link layer's retransmit buffer lived on the NIs: copies from
        // or to the dead node stop being retransmitted.
        if let Some(xm) = self.xmit.as_deref_mut() {
            xm.in_flight.retain(|_, inf| inf.msg.src != v && inf.msg.dst != v);
        }
        // Checker mode: detection is a deterministic consequence of the
        // crash choice point, not a timer race.
        let instant = self.choice_driven
            || self.crash.as_deref().is_some_and(|c| c.plan.crash_nth.is_some());
        if instant {
            for o in 0..self.cfg.num_procs {
                let live = self
                    .crash
                    .as_deref()
                    .is_some_and(|c| !c.crashed.contains(o));
                if o != v && live {
                    self.declare_dead(t, o, v);
                }
            }
        }
    }

    /// The periodic lease/heartbeat tick: every live node pings every peer
    /// it still trusts, then checks its leases and declares silent peers
    /// dead. Re-arms itself while survivors are still running — detection
    /// is the progress path, so the tick must outlive a wedged protocol
    /// (runaway ticking is bounded by `max_cycles` and the watchdog).
    pub(crate) fn lease_tick(&mut self, t: Cycle) {
        let Some(c) = self.crash.as_deref() else { return };
        let n = self.cfg.num_procs;
        let hb = c.plan.heartbeat_every;
        let lease = c.plan.lease_timeout;
        let crashed = c.crashed;
        let suspected = c.suspected.clone();
        for (src, trusts) in suspected.iter().enumerate().take(n) {
            if crashed.contains(src) {
                continue;
            }
            for dst in 0..n {
                // A dead-but-unsuspected peer still gets pinged (the sender
                // doesn't know); delivery is dropped at dispatch.
                if dst == src || trusts.contains(dst) {
                    continue;
                }
                self.stats.crashes.heartbeats_sent += 1;
                self.send(t, src, dst, MsgKind::Heartbeat);
            }
        }
        for (o, trusts) in suspected.iter().enumerate().take(n) {
            if crashed.contains(o) {
                continue;
            }
            for p in 0..n {
                if p == o || trusts.contains(p) {
                    continue;
                }
                let last = self.crash.as_deref().expect("armed").last_heard[o][p];
                if t.saturating_sub(last) > lease {
                    self.declare_dead(t, o, p);
                }
            }
        }
        if self.finished < self.live_finish_target() {
            self.push_ev(t + hb, 0, Event::LeaseTick);
        }
    }

    /// Observer `o` declares peer `dead` dead: reclaim everything the dead
    /// node holds on `o`'s lines and services (home side), then unwedge
    /// `o`'s own waits on the dead node (requester side). Idempotent per
    /// (observer, dead) pair.
    pub(crate) fn declare_dead(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        {
            let c = self.crash.as_deref_mut().expect("declare_dead requires a plan");
            if c.suspected[o].contains(dead) {
                return;
            }
            c.suspected[o].insert(dead);
        }
        self.stats.crashes.suspicions += 1;
        self.observe(t, o, Seen::Crash(CrashEv::SuspectedDead { dead }));

        self.reclaim_directory(t, o, dead);
        self.reclaim_busy_episodes(t, o, dead);
        self.reclaim_parked(t, o, dead);
        self.reclaim_sync_services(t, o, dead);
        self.unwedge_requester(t, o, dead);
    }

    /// Home-side directory reclamation: drop the dead node from every entry
    /// homed at `o`, recording lost dirty lines, and forge the acks it owed
    /// so pending collections complete.
    fn reclaim_directory(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        // Collect first: the mutation below sends messages (borrow-free).
        let o_lines: Vec<u64> = self
            .dir
            .iter()
            .filter(|&(l, e)| {
                self.home_of(LineAddr(l)) == o
                    && (e.is_sharer(dead) || e.pending.is_some())
            })
            .map(|(l, _)| l)
            .collect();
        let mut forged = 0u64;
        let mut completions: Vec<(u64, Vec<NodeId>)> = Vec::new();
        let mut losses: Vec<u64> = Vec::new();
        for &l in &o_lines {
            let Some(e) = self.dir.get_mut(l) else { continue };
            if e.is_sharer(dead) {
                if e.writers().contains(dead) {
                    losses.push(l);
                } else {
                    self.stats.crashes.clean_lines_reclaimed += 1;
                }
                e.remove(dead);
            }
            if let Some(pc) = e.pending.as_mut() {
                let mut owed = 0u32;
                while pc.take_owed(dead) {
                    owed += 1;
                }
                debug_assert!(pc.awaiting >= owed);
                pc.awaiting -= owed;
                forged += u64::from(owed);
                pc.waiters.retain(|&w| w != dead);
                if pc.awaiting == 0 {
                    let waiters = std::mem::take(&mut pc.waiters);
                    e.pending = None;
                    completions.push((l, waiters));
                }
            }
        }
        for l in losses {
            self.stats.crashes.record_data_loss(DataLossEvent {
                line: l,
                owner: dead as u64,
                home: o as u64,
                detected_at: t,
            });
            self.observe(t, o, Seen::Crash(CrashEv::DataLoss { line: l, owner: dead }));
        }
        self.stats.crashes.forged_acks += forged;
        for (l, waiters) in completions {
            let line = LineAddr(l);
            for &w in &waiters {
                self.send(t, o, w, MsgKind::WriteAck { line });
            }
            self.recycle_waiters(waiters);
            self.maybe_release_parked(t, line);
        }
    }

    /// Cancel 3-hop forwarding episodes on `o`'s lines that involve the
    /// dead node. A dead *owner* can never supply the data: serve the
    /// surviving requester from (possibly stale) memory — the loss, if any,
    /// was already recorded by the directory sweep. A dead *requester*
    /// frees the entry and tells the surviving owner to drop the forward.
    fn reclaim_busy_episodes(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        let episodes: Vec<(u64, super::ForwardEp)> = self
            .busy_info
            .iter()
            .filter(|&(l, ep)| {
                self.home_of(LineAddr(l)) == o && (ep.owner == dead || ep.requester == dead)
            })
            .map(|(l, ep)| (l, *ep))
            .collect();
        for (l, ep) in episodes {
            let line = LineAddr(l);
            self.busy_info.remove(l);
            self.stats.crashes.forwards_cancelled += 1;
            if ep.owner == dead {
                {
                    let e = self.dir.entry_or_default(l);
                    e.busy = false;
                    e.remove(dead);
                    if ep.for_write {
                        e.add_writer(ep.requester);
                    } else {
                        e.add_sharer(ep.requester);
                    }
                }
                let mem_done = self.nodes[o].mem.access(t, self.cfg.line_size as u64);
                if ep.for_write {
                    self.send(
                        mem_done,
                        o,
                        ep.requester,
                        MsgKind::WriteReply {
                            line,
                            grant: WriteGrant::Immediate,
                            with_data: true,
                            weak: false,
                        },
                    );
                } else {
                    self.send(mem_done, o, ep.requester, MsgKind::ReadReply { line, weak: false });
                }
                self.maybe_release_parked(mem_done, line);
            } else {
                {
                    let e = self.dir.entry_or_default(l);
                    e.busy = false;
                    e.remove(dead);
                }
                self.send(t, o, ep.owner, MsgKind::ForwardCancel { line, ep: ep.id });
                self.maybe_release_parked(t, line);
            }
        }
    }

    /// Drop requests the dead node parked at home `o` — nobody is waiting
    /// for those replies anymore.
    fn reclaim_parked(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        let lines: Vec<u64> = self
            .parked
            .iter()
            .filter(|&(l, q)| {
                self.home_of(LineAddr(l)) == o && q.iter().any(|(m, _)| m.src == dead)
            })
            .map(|(l, _)| l)
            .collect();
        for l in lines {
            if let Some(q) = self.parked.get_mut(l) {
                let before = q.len();
                q.retain(|(m, _)| m.src != dead);
                self.stats.crashes.parked_dropped += (before - q.len()) as u64;
                if q.is_empty() {
                    self.parked.remove(l);
                }
            }
            self.maybe_release_parked(t, LineAddr(l));
        }
    }

    /// Reclaim the lock and barrier services homed at `o`: locks the dead
    /// node held pass to the next waiter, its queued acquires disappear,
    /// and its barrier slots are released (possibly completing a barrier
    /// the survivors were waiting in).
    fn reclaim_sync_services(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        if self.fault == super::Fault::SkipLockReclaim {
            // Injected recovery bug: the dead node's locks stay held
            // forever — survivors queued on them wedge (the liveness
            // violation `lrc-check --crash-nth` must find).
        } else {
            let (grants, reclaimed) = self.nodes[o].locks.purge(dead);
            self.stats.crashes.locks_reclaimed += reclaimed;
            for (lock, next) in grants {
                self.observe(t, o, Seen::Crash(CrashEv::LockReclaimed { lock: lock as u64 }));
                self.grant_log.push((lock, next));
                self.send(t, o, next, MsgKind::LockGrant { lock });
            }
        }
        let expected = self.barrier_expected(o);
        let (released, slots) = self.nodes[o].barriers.purge(dead, expected);
        self.stats.crashes.barrier_slots_reclaimed += slots;
        for (bar, arrived) in released {
            self.observe(t, o, Seen::Crash(CrashEv::BarrierReclaimed { barrier: bar as u64 }));
            let mut send_t = t;
            for p in arrived {
                send_t = self.nodes[o].pp.occupy(send_t, self.cfg.write_notice_cost);
                self.send(send_t, o, p, MsgKind::BarrierRelease { bar });
            }
        }
    }

    /// Requester-side recovery at observer `o`: write off acks the dead
    /// node owed, complete outstanding misses homed there locally, and
    /// self-grant a lock/barrier wait homed there.
    fn unwedge_requester(&mut self, t: Cycle, o: NodeId, dead: NodeId) {
        let (wt, wbk) = {
            let c = self.crash.as_deref_mut().expect("armed");
            (
                std::mem::take(&mut c.wt_to[o][dead]),
                std::mem::take(&mut c.wbk_to[o][dead]),
            )
        };
        if wt > 0 {
            self.nodes[o].wt_unacked = self.nodes[o].wt_unacked.saturating_sub(wt);
            self.stats.crashes.wt_acks_written_off += u64::from(wt);
        }
        if wbk > 0 {
            self.nodes[o].wbk_unacked = self.nodes[o].wbk_unacked.saturating_sub(wbk);
            self.stats.crashes.wbk_acks_written_off += u64::from(wbk);
        }
        let mut stuck: Vec<u64> = self.nodes[o]
            .outstanding
            .keys()
            .copied()
            .filter(|&l| self.home_of(LineAddr(l)) == dead)
            .collect();
        stuck.sort_unstable();
        for l in stuck {
            self.degraded_fill_local(o, t, LineAddr(l));
        }
        match self.nodes[o].status {
            ProcStatus::WaitingLock(lock) if self.cfg.lock_home(lock) == dead => {
                self.stats.crashes.degraded_lock_grants += 1;
                self.forge_reply(t, o, MsgKind::LockGrant { lock });
            }
            ProcStatus::InBarrier(bar) if self.cfg.barrier_home(bar) == dead => {
                self.stats.crashes.degraded_barrier_releases += 1;
                self.forge_reply(t, o, MsgKind::BarrierRelease { bar });
            }
            _ => {}
        }
        self.try_complete_release(o, t);
    }

    /// Complete an outstanding miss on `line` at `p` without the (dead)
    /// home's help: forge the reply legs the entry is still waiting for, so
    /// the fill rides the exact same handler path a real reply would.
    pub(crate) fn degraded_fill_local(&mut self, p: NodeId, t: Cycle, line: LineAddr) {
        let Some(&o) = self.nodes[p].outstanding.get(&line.0) else {
            return;
        };
        self.stats.crashes.degraded_fills += 1;
        self.observe(t, p, Seen::Crash(CrashEv::DegradedFill { line: line.0 }));
        if o.waiting_data {
            let wants_write = o.retire_wb || o.apply_words != 0;
            let kind = if wants_write {
                MsgKind::WriteReply {
                    line,
                    grant: WriteGrant::Immediate,
                    with_data: true,
                    weak: false,
                }
            } else {
                MsgKind::ReadReply { line, weak: false }
            };
            self.forge_reply(t, p, kind);
        }
        if o.waiting_ack {
            self.forge_reply(t, p, MsgKind::WriteAck { line });
        }
    }

    /// Forge a self-addressed reply event at `p`, delivered one cycle out:
    /// degraded-mode completions reuse the normal receive handlers instead
    /// of duplicating their bookkeeping inline (and the one-cycle delay
    /// keeps them out of the middle of whatever handler is running now).
    pub(crate) fn forge_reply(&mut self, t: Cycle, p: NodeId, kind: MsgKind) {
        self.push_ev(t + 1, p, Event::Msg(Msg { src: p, dst: p, kind }));
    }

    /// Send-boundary interception for a destination the sender suspects
    /// dead: requests forge their own degraded replies; everything else is
    /// suppressed (the dead node has no use for it).
    pub(crate) fn degrade_send(&mut self, now: Cycle, src: NodeId, kind: MsgKind) {
        use MsgKind::*;
        let reply = match kind {
            ReadReq { line } | WriteReq { line, .. } => {
                self.stats.crashes.degraded_fills += 1;
                self.observe(now, src, Seen::Crash(CrashEv::DegradedFill { line: line.0 }));
                Some(match kind {
                    WriteReq { had_copy, .. } => WriteReply {
                        line,
                        grant: WriteGrant::Immediate,
                        with_data: !had_copy,
                        weak: false,
                    },
                    _ => ReadReply { line, weak: false },
                })
            }
            WriteThrough { line, .. } => {
                self.stats.crashes.wt_acks_written_off += 1;
                Some(WriteThroughAck { line })
            }
            WriteBack { line, .. } => {
                self.stats.crashes.wbk_acks_written_off += 1;
                Some(WriteBackAck { line })
            }
            LockAcq { lock } => {
                self.stats.crashes.degraded_lock_grants += 1;
                Some(LockGrant { lock })
            }
            BarrierArrive { bar } => {
                self.stats.crashes.degraded_barrier_releases += 1;
                Some(BarrierRelease { bar })
            }
            _ => None,
        };
        match reply {
            Some(kind) => self.forge_reply(now, src, kind),
            None => self.stats.crashes.suppressed_sends += 1,
        }
    }

    /// True when at least one node has crashed so far: a degraded run,
    /// whose final memory [`Machine::terminal_failure`] does not compare.
    pub fn crash_occurred(&self) -> bool {
        self.crash.as_deref().is_some_and(|c| !c.crashed.is_empty())
    }

    /// How many processors this run can still expect to finish: the full
    /// count minus every node that crashed before finishing.
    #[inline]
    pub(crate) fn live_finish_target(&self) -> usize {
        match self.crash.as_deref() {
            Some(c) => self.cfg.num_procs - c.crashed_unfinished,
            None => self.cfg.num_procs,
        }
    }

    /// How many arrivals barrier home `h` waits for before releasing: the
    /// full count minus every node `h` has declared dead.
    #[inline]
    pub(crate) fn barrier_expected(&self, h: NodeId) -> usize {
        match self.crash.as_deref() {
            Some(c) => self.cfg.num_procs - c.suspected[h].count_ones() as usize,
            None => self.cfg.num_procs,
        }
    }

    /// Crash-aware stall classification for watchdog diagnoses: a live node
    /// suspected dead is a false-positive detection; a wedge with a real
    /// crash on record means recovery did not restore progress.
    pub(crate) fn classify_crash(&self) -> Option<StallReason> {
        let c = self.crash.as_deref()?;
        let n = self.cfg.num_procs;
        for node in 0..n {
            if c.crashed.contains(node) {
                continue;
            }
            let accuser = (0..n)
                .find(|&o| o != node && !c.crashed.contains(o) && c.suspected[o].contains(node));
            if let Some(by) = accuser {
                return Some(StallReason::DeadNodeSuspected { node, by });
            }
        }
        c.crashed
            .first()
            .map(|node| StallReason::RecoveryStalled { node })
    }

    /// One-line crash-state summary for machine dumps (empty when no plan
    /// is armed or nothing has happened yet).
    pub(crate) fn dump_crash(&self, s: &mut String) {
        use std::fmt::Write;
        let Some(c) = self.crash.as_deref() else { return };
        let any_suspicion = c.suspected.iter().any(|m| !m.is_empty());
        if c.crashed.is_empty() && !any_suspicion {
            return;
        }
        let _ = writeln!(
            s,
            "  crash: crashed={:b} unfinished={} {:?}",
            c.crashed, c.crashed_unfinished, self.stats.crashes.as_words(),
        );
        for (o, m) in c.suspected.iter().enumerate() {
            if !m.is_empty() {
                let _ = writeln!(s, "    P{o} suspects {m:b}");
            }
        }
    }
}
