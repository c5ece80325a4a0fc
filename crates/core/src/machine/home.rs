//! Directory-side message handling: what the home node's protocol processor
//! does with requests, flushes, and acknowledgements.
//!
//! Costs follow Table 1: a directory access costs `dir_cost(protocol)`
//! cycles; dispatching each notice/invalidation costs `write_notice_cost`;
//! acknowledgements are cheap counter updates. Where the paper allows it,
//! directory processing overlaps the memory access for the same request.

use super::Machine;
use crate::directory::{nodes_in, AckCollection, DirState, ForwardEp, NodeSet};
use crate::msg::{Msg, MsgKind, WriteGrant};
use lrc_sim::{Cycle, LineAddr, NodeId};

impl Machine {
    /// Dispatch a message addressed to the directory at `m.dst`.
    pub(crate) fn handle_at_home(&mut self, t: Cycle, m: Msg) {
        match m.kind {
            MsgKind::ReadReq { line } => self.home_read_req(t, m, line),
            MsgKind::WriteReq { line, had_copy, words } => {
                self.home_write_req(t, m, line, had_copy, words)
            }
            MsgKind::WriteThrough { line, words } => self.home_write_through(t, m, line, words),
            MsgKind::WriteBack { line, words } => self.home_write_back(t, m, line, words),
            MsgKind::EvictNotify { line, .. } => self.home_evict_notify(t, m, line),
            MsgKind::InvAck { line } | MsgKind::NoticeAck { line } => self.home_ack(t, m, line),
            MsgKind::CopyBack { line, ep, .. } => self.home_copy_back(t, m, line, ep),
            MsgKind::ForwardNack { line, requester, for_write, ep } => {
                self.home_forward_nack(t, m, line, requester, for_write, ep)
            }
            _ => unreachable!("not a home-side message: {:?}", m.kind),
        }
    }

    fn home_read_req(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        let (h, r) = (m.dst, m.src);
        let lazy = self.protocol.is_lazy();

        if !lazy && self.dir.get(line.0).is_some_and(|e| e.is_busy()) {
            // An invalidation round or 3-hop forward is in flight: queue
            // the request (it pays a NAK round trip when released) — unless
            // the forward targets this very requester and can never be
            // served, in which case resolve it and fall through.
            if !self.resolve_dead_forward_if_cyclic(t, m.src, line) {
                match self.busy_action(line) {
                    Some(attempt) => self.send_busy_nack(t, m, line, attempt),
                    None => self.park(m, t),
                }
                return;
            }
        }

        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.dir_cost(self.protocol));

        if lazy {
            // Lazy reads are never forwarded: memory is fresh enough under
            // write-through, and an unsynchronized read of a dirty block is
            // by definition not true sharing (paper Section 2).
            let all = self.all_nodes_mask();
            let (weak, notice_targets) = {
                let e = self.dir.entry_or_default(line.0);
                e.add_sharer(r);
                if e.state() == DirState::Weak {
                    let targets = if e.overflow {
                        // Limited pointers overflowed: broadcast to every
                        // node we have not (knowingly) notified.
                        all & !NodeSet::one(r) & !e.notified()
                    } else {
                        e.unnotified_others(r)
                    };
                    for n in nodes_in(targets & e.sharers()) {
                        e.mark_notified(n);
                    }
                    e.mark_notified(r);
                    (true, targets)
                } else {
                    (false, NodeSet::EMPTY)
                }
            };
            self.apply_pointer_limit(line);
            let n_notices = notice_targets.count_ones();
            if n_notices > 0 {
                // Read of a dirty block: the current writer(s) must be told
                // the block is now weak.
                let mut send_t = pp_done;
                for n in nodes_in(notice_targets) {
                    send_t = self.nodes[h].pp.occupy(send_t, self.cfg.write_notice_cost);
                    self.send(send_t, h, n, MsgKind::WriteNotice { line });
                }
                let e = self.dir.get_mut(line.0).expect("entry exists");
                match e.pending.as_mut() {
                    Some(pc) => {
                        pc.awaiting += n_notices;
                        pc.from.extend(nodes_in(notice_targets));
                    }
                    None => {
                        e.pending = Some(AckCollection {
                            awaiting: n_notices,
                            waiters: Vec::new(),
                            from: nodes_in(notice_targets).collect(),
                        })
                    }
                }
            }
            let mem_done = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
            self.send(pp_done.max(mem_done), h, r, MsgKind::ReadReply { line, weak });
            return;
        }

        // Eager protocols (SC / ERC).
        enum Plan {
            FromMemory,
            Forward(NodeId),
        }
        let plan = {
            let e = self.dir.entry_or_default(line.0);
            match e.state() {
                DirState::Uncached | DirState::Shared => {
                    e.add_sharer(r);
                    Plan::FromMemory
                }
                DirState::Dirty => {
                    let o = e.dirty_owner().expect("dirty has owner");
                    if o == r {
                        // Stale-dirty race: r's write-back is in flight.
                        e.demote_writer(r);
                        Plan::FromMemory
                    } else if e.parked.iter().any(|(m, _)| m.src == o) {
                        // The "owner" is itself re-requesting this line (its
                        // request is queued right here): the entry is stale
                        // and a forward could never be served. Serve from
                        // memory; the owner's queued request re-registers it.
                        e.remove(o);
                        e.add_sharer(r);
                        Plan::FromMemory
                    } else {
                        e.demote_writer(o);
                        e.add_sharer(r);
                        Plan::Forward(o)
                    }
                }
                DirState::Weak => unreachable!("eager directory cannot be weak"),
            }
        };
        self.apply_pointer_limit(line);
        match plan {
            Plan::FromMemory => {
                let mem_done = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
                self.send(pp_done.max(mem_done), h, r, MsgKind::ReadReply { line, weak: false });
                self.maybe_release_parked(pp_done, line);
            }
            Plan::Forward(o) => self.start_forward(pp_done, m, line, o, false),
        }
    }

    fn home_write_req(&mut self, t: Cycle, m: Msg, line: LineAddr, had_copy: bool, words: u64) {
        let (h, r) = (m.dst, m.src);

        if self.protocol.is_lazy() {
            self.lazy_write_req(t, h, r, line, had_copy, words);
            return;
        }

        if self.dir.get(line.0).is_some_and(|e| e.is_busy())
            && !self.resolve_dead_forward_if_cyclic(t, m.src, line)
        {
            match self.busy_action(line) {
                Some(attempt) => self.send_busy_nack(t, m, line, attempt),
                None => self.park(m, t),
            }
            return;
        }
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.dir_cost(self.protocol));

        enum Plan {
            Grant { with_data: bool, invalidate: NodeSet },
            Forward(NodeId),
        }
        let plan = {
            let e = self.dir.entry_or_default(line.0);
            let r_has_copy = had_copy && e.is_sharer(r);
            match e.state() {
                DirState::Uncached => {
                    e.add_writer(r);
                    Plan::Grant { with_data: !r_has_copy, invalidate: NodeSet::EMPTY }
                }
                DirState::Shared => {
                    let overflow = e.overflow;
                    let others = e.remove_all_except(r);
                    e.add_writer(r);
                    Plan::Grant {
                        with_data: !r_has_copy,
                        // Overflowed limited pointers: membership is
                        // imprecise, so invalidate everyone else.
                        invalidate: if overflow { !NodeSet::one(r) } else { others },
                    }
                }
                DirState::Dirty => {
                    let o = e.dirty_owner().expect("dirty has owner");
                    if o == r {
                        Plan::Grant { with_data: !r_has_copy, invalidate: NodeSet::EMPTY }
                    } else if e.parked.iter().any(|(m, _)| m.src == o) {
                        // Stale owner (see the read path): serve from memory.
                        e.remove(o);
                        e.add_writer(r);
                        Plan::Grant { with_data: true, invalidate: NodeSet::EMPTY }
                    } else {
                        e.remove(o);
                        e.add_writer(r);
                        Plan::Forward(o)
                    }
                }
                DirState::Weak => unreachable!("eager directory cannot be weak"),
            }
        };
        match plan {
            Plan::Grant { with_data, invalidate } => {
                let mut invalidate = invalidate & self.all_nodes_mask();
                if self.fault == super::Fault::SkipInvalidate {
                    // Injected bug: pretend nobody else caches the line.
                    invalidate = NodeSet::EMPTY;
                }
                let n = invalidate.count_ones();
                let grant = if n > 0 {
                    let mut waiters = self.take_waiters();
                    waiters.push(r);
                    let e = self.dir.get_mut(line.0).expect("entry exists");
                    e.pending = Some(AckCollection {
                        awaiting: n,
                        waiters,
                        from: nodes_in(invalidate).collect(),
                    });
                    let mut send_t = pp_done;
                    for o in nodes_in(invalidate) {
                        send_t = self.nodes[h].pp.occupy(send_t, self.cfg.write_notice_cost);
                        self.send(send_t, h, o, MsgKind::Invalidate { line });
                    }
                    WriteGrant::Pending
                } else {
                    WriteGrant::Immediate
                };
                let reply_t = if with_data {
                    let mem_done = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
                    pp_done.max(mem_done)
                } else {
                    pp_done
                };
                self.send(
                    reply_t,
                    h,
                    r,
                    MsgKind::WriteReply { line, grant, with_data, weak: false },
                );
                if grant == WriteGrant::Immediate {
                    self.maybe_release_parked(reply_t, line);
                }
            }
            Plan::Forward(o) => self.start_forward(pp_done, m, line, o, true),
        }
    }

    /// Lazy (LRC / LRC-EXT) write request: record the writer, fan out write
    /// notices for a weak transition, and join or start an ack collection.
    fn lazy_write_req(&mut self, t: Cycle, h: NodeId, r: NodeId, line: LineAddr, had_copy: bool, words: u64) {
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.dir_cost(self.protocol));

        // Deferred-notice payload (lazy-ext): commit the words to memory.
        let mut mem_done = t;
        if words != 0 {
            let bytes = u64::from(words.count_ones()) * self.cfg.word_size as u64;
            mem_done = self.nodes[h].mem.access(t, bytes);
        }

        let all = self.all_nodes_mask();
        let (weak, with_data, notice_targets, join_pending) = {
            let e = self.dir.entry_or_default(line.0);
            let r_has_copy = had_copy && e.is_sharer(r);
            e.add_writer(r);
            if e.state() == DirState::Weak {
                let targets = if e.overflow {
                    all & !NodeSet::one(r) & !e.notified()
                } else {
                    e.unnotified_others(r)
                };
                for n in nodes_in(targets & e.sharers()) {
                    e.mark_notified(n);
                }
                e.mark_notified(r);
                (true, !r_has_copy, targets, e.pending.is_some())
            } else {
                (false, !r_has_copy, NodeSet::EMPTY, false)
            }
        };
        self.apply_pointer_limit(line);

        let n_notices = notice_targets.count_ones();
        let mut send_t = pp_done;
        if self.fault != super::Fault::SkipWriteNotice {
            for n in nodes_in(notice_targets) {
                send_t = self.nodes[h].pp.occupy(send_t, self.cfg.write_notice_cost);
                self.send(send_t, h, n, MsgKind::WriteNotice { line });
            }
        }

        let grant = if n_notices > 0 {
            if join_pending {
                let e = self.dir.get_mut(line.0).expect("entry exists");
                let pc = e.pending.as_mut().expect("pending collection");
                pc.awaiting += n_notices;
                pc.from.extend(nodes_in(notice_targets));
                pc.waiters.push(r);
            } else {
                let mut waiters = self.take_waiters();
                waiters.push(r);
                let e = self.dir.get_mut(line.0).expect("entry exists");
                e.pending = Some(AckCollection {
                    awaiting: n_notices,
                    waiters,
                    from: nodes_in(notice_targets).collect(),
                });
            }
            WriteGrant::Pending
        } else if join_pending {
            // A collection for this block is already in flight (another
            // writer's round): the paper's home collects acks only once and
            // acknowledges all pending writers together.
            let e = self.dir.get_mut(line.0).expect("entry exists");
            e.pending.as_mut().expect("pending collection").waiters.push(r);
            WriteGrant::Pending
        } else {
            WriteGrant::Immediate
        };

        if with_data {
            mem_done = mem_done.max(self.nodes[h].mem.access(t, self.cfg.line_size as u64));
        }
        self.send(
            pp_done.max(mem_done),
            h,
            r,
            MsgKind::WriteReply { line, grant, with_data, weak },
        );
    }

    fn home_write_through(&mut self, t: Cycle, m: Msg, line: LineAddr, words: u64) {
        let (h, r) = (m.dst, m.src);
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.write_notice_cost);
        let bytes = u64::from(words.count_ones()) * self.cfg.word_size as u64;
        let mem_done = self.nodes[h].mem.access(t, bytes);
        self.send(pp_done.max(mem_done), h, r, MsgKind::WriteThroughAck { line });
    }

    fn home_write_back(&mut self, t: Cycle, m: Msg, line: LineAddr, words: u64) {
        let (h, r) = (m.dst, m.src);
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.dir_cost(self.protocol));
        let bytes = u64::from(words.count_ones()) * self.cfg.word_size as u64;
        let mem_done = self.nodes[h].mem.access(t, bytes);
        // Same ordering guard as `home_evict_notify`: only a delivery-
        // reordering mode (fault plan, checker exploration — see there) can
        // move a refetch ahead of this write-back, so the cross-node peek is
        // gated off in production runs, where FIFO channels rule it out.
        if !(self.delivery_reordering_possible()
            && (self.nodes[r].cache.contains(line)
                || self.nodes[r].outstanding.contains_key(&line.0)))
        {
            self.dir.entry_or_default(line.0).remove(r);
        }
        self.send(pp_done.max(mem_done), h, r, MsgKind::WriteBackAck { line });
    }

    fn home_evict_notify(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        // A replacement hint is a cheap sharer-bit clear, not a full
        // directory transaction.
        let (h, r) = (m.dst, m.src);
        let _ = self.nodes[h].pp.occupy(t, self.cfg.write_notice_cost);
        // Ordering guard: if the sender has already re-fetched the line (its
        // refetch overtook this hint), the hint is stale and must not erase
        // the fresh copy's registration. In a production run this cannot
        // happen — deliveries on a given src→dst channel complete in send
        // order, and any refetch `ReadReq` departs after this hint, so its
        // install (which needs the home's reply, processed after the hint)
        // always postdates this point. Fault-plan retransmission or the
        // checker's interleaving exploration can reorder the two, so only
        // then do we consult the sender's authoritative cache state (a
        // cross-node peek a FIFO run never needs).
        if self.delivery_reordering_possible()
            && (self.nodes[r].cache.contains(line)
                || self.nodes[r].outstanding.contains_key(&line.0))
        {
            return;
        }
        // The block reverts Weak→Shared→Uncached automatically as sharers
        // and writers leave (derived state).
        self.dir.entry_or_default(line.0).remove(r);
    }

    /// An invalidation or write-notice acknowledgement: advance the
    /// collection; when it completes, release every waiting writer at once.
    fn home_ack(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        let h = m.dst;
        let crash_armed = self.crash.is_some();
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.write_notice_cost);
        let finished = {
            let e = self.dir.entry_or_default(line.0);
            if crash_armed {
                // Recovery may already have forged this node's acks (it was
                // suspected dead but a straggling real ack got through
                // first, or the suspicion was false): anything not owed is
                // dropped rather than double-counted.
                match e.pending.as_mut() {
                    Some(pc) => {
                        if !pc.take_owed(m.src) {
                            return;
                        }
                    }
                    None => return,
                }
            } else {
                let pc = e.pending.as_mut().expect("ack without pending collection");
                // A v1-restored snapshot carries an empty debtor multiset
                // (the field postdates the format); only a consistent
                // multiset can vouch that this ack was owed.
                let tracked = pc.from.len() == pc.awaiting as usize;
                let owed = pc.take_owed(m.src);
                debug_assert!(owed || !tracked, "ack from a node that owed none");
            }
            let pc = e.pending.as_mut().expect("pending collection");
            debug_assert!(pc.awaiting > 0);
            pc.awaiting -= 1;
            if pc.awaiting == 0 {
                let waiters = std::mem::take(&mut pc.waiters);
                e.pending = None;
                Some(waiters)
            } else {
                None
            }
        };
        if let Some(waiters) = finished {
            for &w in &waiters {
                self.send(pp_done, h, w, MsgKind::WriteAck { line });
            }
            self.recycle_waiters(waiters);
            self.maybe_release_parked(pp_done, line);
        }
    }

    /// Start a 3-hop forward episode: forward request `m` to `owner`, the
    /// dirty owner of `line`. The line's entry holds the episode until the
    /// owner's `CopyBack` or `ForwardNack` arrives.
    fn start_forward(&mut self, t: Cycle, m: Msg, line: LineAddr, owner: NodeId, for_write: bool) {
        let (h, requester) = (m.dst, m.src);
        self.stats.procs[requester].three_hop += 1;
        self.forward_seq += 1;
        let id = self.forward_seq;
        let ep = ForwardEp { id, owner, requester, for_write, served: false };
        self.dir.get_mut(line.0).expect("the forwarding entry exists").forward = Some(ep);
        self.send(t, h, owner, MsgKind::Forward { line, requester, for_write, ep: id });
    }

    /// If the in-flight forward for `line` targets `requester` itself and
    /// has not been served, it never will be (the owner is blocked waiting
    /// on this very entry): cancel it, serve its original requester from
    /// memory, and free the entry. Returns true when resolved.
    fn resolve_dead_forward_if_cyclic(&mut self, t: Cycle, requester: NodeId, line: LineAddr) -> bool {
        let Some(e) = self.dir.get_mut(line.0) else {
            return false;
        };
        let Some(ep) = e.forward.filter(|ep| ep.owner == requester && !ep.served) else {
            return false;
        };
        // Cancel: tell the owner to drop the (parked or still in-flight)
        // Forward. Channel FIFO guarantees the Forward reaches the owner
        // before this cancel, and the cancel before the reply that unblocks
        // the owner — so the owner parks the stale Forward on arrival (its
        // own transaction is outstanding) and this message removes it before
        // anything could re-serve it.
        e.forward = None;
        let h = self.home_of(line);
        self.send(t, h, ep.owner, MsgKind::ForwardCancel { line, ep: ep.id });
        let mem_done = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
        if ep.for_write {
            self.send(
                mem_done,
                h,
                ep.requester,
                MsgKind::WriteReply {
                    line,
                    grant: WriteGrant::Immediate,
                    with_data: true,
                    weak: false,
                },
            );
        } else {
            self.send(mem_done, h, ep.requester, MsgKind::ReadReply { line, weak: false });
        }
        true
    }

    fn home_copy_back(&mut self, t: Cycle, m: Msg, line: LineAddr, ep: u64) {
        // Third leg of an eager 3-hop transaction: the directory was already
        // updated when the request was forwarded; commit the data to memory
        // and reopen the entry for new requests. A copy-back from a
        // cancelled (stale) episode must not free a newer one's entry.
        let h = m.dst;
        let _ = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
        if let Some(e) = self.dir.get_mut(line.0).filter(|e| e.forward_is(ep)) {
            e.forward = None;
            self.maybe_release_parked(t, line);
        }
    }

    /// The forwarded-to owner no longer had the line — either it raced with
    /// its own write-back, or it was a "phantom" owner whose own data reply
    /// was still in flight. Serve the requester directly from memory:
    /// re-running the request through the state machine can livelock when
    /// two dataless requesters keep forwarding to each other.
    fn home_forward_nack(
        &mut self,
        t: Cycle,
        m: Msg,
        line: LineAddr,
        requester: NodeId,
        for_write: bool,
        ep: u64,
    ) {
        let Some(e) = self.dir.get_mut(line.0).filter(|e| e.forward_is(ep)) else {
            return; // stale episode
        };
        let (h, nacking_owner) = (m.dst, m.src);
        e.forward = None;
        // The nacker does not hold the line, whatever the entry thought.
        e.remove(nacking_owner);
        // The requester was recorded (writer/sharer) at forward time;
        // re-assert in case the intervening traffic dropped it.
        if for_write {
            e.add_writer(requester);
        } else {
            e.add_sharer(requester);
        }
        let pp_done = self.nodes[h].pp.occupy(t, self.cfg.dir_cost(self.protocol));
        let mem_done = self.nodes[h].mem.access(t, self.cfg.line_size as u64);
        let reply_t = pp_done.max(mem_done);
        if for_write {
            self.send(
                reply_t,
                h,
                requester,
                MsgKind::WriteReply {
                    line,
                    grant: WriteGrant::Immediate,
                    with_data: true,
                    weak: false,
                },
            );
        } else {
            self.send(reply_t, h, requester, MsgKind::ReadReply { line, weak: false });
        }
        self.maybe_release_parked(reply_t, line);
    }
}
