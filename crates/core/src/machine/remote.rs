//! Cache-side message handling: replies arriving back at a requester, and
//! third-party traffic (eager invalidations, lazy write notices, 3-hop
//! forwards) arriving at a node that caches the line.

use super::obs::Seen;
use super::Machine;
use crate::msg::{Msg, MsgKind, WriteGrant};
use lrc_mem::LineState;
use lrc_sim::{Cycle, LineAddr};

impl Machine {
    /// Dispatch a message addressed to a cache/protocol processor.
    pub(crate) fn handle_at_cache(&mut self, t: Cycle, m: Msg) {
        match m.kind {
            MsgKind::ReadReply { line, weak } => self.on_read_reply(t, m, line, weak),
            MsgKind::WriteReply { line, grant, with_data, weak } => {
                self.on_write_reply(t, m, line, grant, with_data, weak)
            }
            MsgKind::WriteAck { line } => self.on_write_ack(t, m, line),
            MsgKind::WriteThroughAck { .. } => {
                // Saturating under a crash plan: recovery may have written
                // this ack off already (false suspicion, late real ack).
                let armed = self.crash.is_some();
                let n = &mut self.nodes[m.dst].wt_unacked;
                *n = if armed { n.saturating_sub(1) } else { *n - 1 };
                self.try_complete_release(m.dst, t);
            }
            MsgKind::WriteBackAck { .. } => {
                let armed = self.crash.is_some();
                let n = &mut self.nodes[m.dst].wbk_unacked;
                *n = if armed { n.saturating_sub(1) } else { *n - 1 };
                self.try_complete_release(m.dst, t);
            }
            MsgKind::Invalidate { line } => self.on_invalidate(t, m, line),
            MsgKind::WriteNotice { line } => self.on_write_notice(t, m, line),
            MsgKind::Forward { line, requester, for_write, ep } => {
                self.on_forward(t, m, line, requester, for_write, ep)
            }
            MsgKind::OwnerData { line, for_write } => self.on_owner_data(t, m, line, for_write),
            MsgKind::BusyNack { .. } => self.on_busy_nack(t, m),
            MsgKind::ForwardCancel { line, ep } => self.on_forward_cancel(t, m, line, ep),
            _ => unreachable!("not a cache-side message: {:?}", m.kind),
        }
    }

    /// Data arrived for a read miss (or a lazy-ext write-miss fetch).
    fn on_read_reply(&mut self, t: Cycle, m: Msg, line: LineAddr, weak: bool) {
        let p = m.dst;
        let fill_done = self.nodes[p].bus.transfer(t, self.cfg.line_size as u64);
        if self.nodes[p].cache.contains(line) {
            self.nodes[p].cache.touch(line);
        } else {
            self.install_line(p, fill_done, line, LineState::ReadOnly);
        }
        if weak && self.protocol.is_lazy() {
            self.queue_pending_inval(p, line);
        }
        self.complete_data_leg(p, fill_done, line);
    }

    /// Grant (and possibly data) arrived for a write request.
    fn on_write_reply(
        &mut self,
        t: Cycle,
        m: Msg,
        line: LineAddr,
        grant: WriteGrant,
        with_data: bool,
        weak: bool,
    ) {
        let p = m.dst;
        let done_t = if with_data {
            let fill_done = self.nodes[p].bus.transfer(t, self.cfg.line_size as u64);
            self.install_line(p, fill_done, line, LineState::ReadWrite);
            fill_done
        } else {
            t
        };
        if weak && self.protocol.is_lazy() && self.nodes[p].cache.contains(line) {
            self.queue_pending_inval(p, line);
        }
        if grant == WriteGrant::Pending {
            if let Some(o) = self.nodes[p].outstanding.get_mut(&line.0) {
                if o.early_ack {
                    o.early_ack = false; // the ack already arrived
                } else {
                    o.waiting_ack = true;
                }
            }
        }
        self.complete_data_leg(p, done_t, line);
    }

    /// Final acknowledgement after an invalidation / notice collection.
    fn on_write_ack(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        let p = m.dst;
        if let Some(o) = self.nodes[p].outstanding.get_mut(&line.0) {
            if o.waiting_ack {
                o.waiting_ack = false;
            } else {
                // Beat the WriteReply{Pending} here; remember for its arrival.
                o.early_ack = true;
            }
        }
        self.finish_outstanding_if_done(p, t, line);
        self.serve_parked_forward(p, t, line);
        self.try_complete_release(p, t);
    }

    /// Shared completion path once a transaction's data/grant leg is done:
    /// clears `waiting_data`, retires write-buffer entries, resumes a
    /// stalled processor, and re-checks the release fence.
    fn complete_data_leg(&mut self, p: usize, t: Cycle, line: LineAddr) {
        let (retire, resume, stale) = match self.nodes[p].outstanding.get_mut(&line.0) {
            Some(o) => {
                o.waiting_data = false;
                let r = (o.retire_wb, o.resume_proc, o.stale_on_fill);
                o.retire_wb = false;
                o.stale_on_fill = false;
                r
            }
            None => (false, false, false),
        };
        if stale {
            // RAC race resolution: the fill satisfies the one waiting
            // access, then the copy is stale. Eager protocols drop it on
            // the spot; lazy ones queue the acquire-time invalidation the
            // overtaken notice asked for.
            if self.protocol.is_lazy() {
                self.queue_pending_inval(p, line);
            } else if self.nodes[p].cache.invalidate(line).is_some() {
                self.stats.procs[p].eager_invalidations += 1;
                self.observe(t, p, Seen::Invalidate { line, eager: true });
                let home = self.home_of(line);
                self.send(t, p, home, MsgKind::EvictNotify { line, was_writer: false });
            }
        }
        if retire {
            self.nodes[p].wb.mark_ready(line);
            self.retire_wb_entries(p, t);
        }
        if resume {
            // SC blocking writes commit their words only when the whole
            // transaction (including invalidation acks) is done.
            let o = *self.nodes[p].outstanding.get(&line.0).expect("resume with entry");
            if o.done() {
                self.nodes[p].outstanding.remove(&line.0);
                if o.apply_words != 0 {
                    self.install_written_line(p, t, line, o.apply_words);
                }
                self.resume(p, t);
            }
            // else: the WriteAck path resumes the processor.
        } else {
            self.finish_outstanding_if_done(p, t, line);
        }
        self.serve_parked_forward(p, t, line);
        self.try_complete_release(p, t);
    }

    /// If a 3-hop forward was deferred waiting for our own fill of `line`,
    /// serve it now that the transaction has settled.
    fn serve_parked_forward(&mut self, p: usize, t: Cycle, line: LineAddr) {
        if self.nodes[p].outstanding.contains_key(&line.0) {
            return; // still in flight (e.g. acks pending)
        }
        if let Some(m) = self.nodes[p].parked_forwards.remove(&line.0) {
            if let MsgKind::Forward { line, requester, for_write, ep } = m.kind {
                self.on_forward(t, m, line, requester, for_write, ep);
            }
        }
    }

    /// Deallocate a finished transaction entry; if an SC write was waiting
    /// on it, commit and resume.
    fn finish_outstanding_if_done(&mut self, p: usize, t: Cycle, line: LineAddr) {
        let Some(o) = self.nodes[p].outstanding.get(&line.0).copied() else {
            return;
        };
        if !o.done() {
            return;
        }
        self.nodes[p].outstanding.remove(&line.0);
        if o.apply_words != 0 {
            self.install_written_line(p, t, line, o.apply_words);
        }
        if o.resume_proc {
            self.resume(p, t);
        }
    }

    /// Eager invalidation of this node's copy.
    fn on_invalidate(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        let p = m.dst;
        let done = self.nodes[p].pp.occupy(t, self.cfg.write_notice_cost);
        let write_txn = self.nodes[p]
            .outstanding
            .get(&line.0)
            .is_some_and(|o| o.retire_wb || o.apply_words != 0);
        if write_txn {
            // The home serializes invalidation rounds, so an invalidation
            // reaching a node with a *newer* write grant in flight is stale
            // (it targeted the copy we held before our ownership request).
            // Keep / await the fresh copy; just acknowledge.
        } else if self.nodes[p].cache.invalidate(line).is_some() {
            self.stats.procs[p].eager_invalidations += 1;
            self.observe(done, p, Seen::Invalidate { line, eager: true });
        } else if let Some(o) = self.nodes[p].outstanding.get_mut(&line.0) {
            // RAC race: the invalidation overtook our own read fill. The
            // fill may satisfy the one waiting load and must then drop.
            o.stale_on_fill = true;
        }
        // Always acknowledge — the home counted us when it sent this.
        self.send(done, p, m.src, MsgKind::InvAck { line });
    }

    /// Lazy write notice: queue the line for invalidation at the next
    /// acquire.
    fn on_write_notice(&mut self, t: Cycle, m: Msg, line: LineAddr) {
        let p = m.dst;
        let done = self.nodes[p].pp.occupy(t, self.cfg.write_notice_cost);
        self.stats.procs[p].notices_received += 1;
        if self.nodes[p].cache.contains(line) {
            self.queue_pending_inval(p, line);
        } else if let Some(o) = self.nodes[p].outstanding.get_mut(&line.0) {
            // The notice overtook our own fill: flag it when it lands.
            o.stale_on_fill = true;
        }
        self.send(done, p, m.src, MsgKind::NoticeAck { line });
    }

    /// Eager 3-hop: the home forwarded a request to us, the dirty owner.
    fn on_forward(&mut self, t: Cycle, m: Msg, line: LineAddr, requester: usize, for_write: bool, ep: u64) {
        let p = m.dst;
        let home = m.src;
        // A delivery-reordering mode (fault-plan retransmission, checker
        // exploration) can deliver a cancelled episode's Forward after its
        // ForwardCancel; only then must we peek at the home's episode table
        // to drop it on sight. Production runs never need the cross-node
        // peek: a stale Forward always finds our own transaction outstanding
        // (below) and parks until the cancel lands.
        if self.delivery_reordering_possible() && self.busy_info.get(line.0).is_none_or(|e| e.id != ep) {
            return;
        }
        let done = self.nodes[p].pp.occupy(t, self.cfg.dir_cost(self.protocol));
        if self.nodes[p].outstanding.contains_key(&line.0) {
            // Our own transaction on this line is still settling — a fill
            // for a copy the directory already registered ("phantom owner"),
            // or a request racing with this episode at the home. Park the
            // forward: it is re-examined when the transaction settles, and a
            // ForwardCancel removes it first if the home resolved the
            // episode from memory in the meantime.
            self.nodes[p].parked_forwards.insert(line.0, m);
            return;
        }
        if !self.nodes[p].cache.contains(line) {
            // Genuinely lost the line (eviction/write-back race): tell the
            // home to serve the requester from memory.
            self.send(done, p, home, MsgKind::ForwardNack { line, requester, for_write, ep });
            return;
        }
        // We are supplying the data: under a delivery-reordering mode, mark
        // the episode served so the home knows a copy-back is coming and
        // must simply be awaited. In a production run the flag is never
        // consulted — our copy-back reaches the home ahead of any later
        // request of ours on the same channel — so the write is skipped.
        if self.delivery_reordering_possible() {
            if let Some(e) = self.busy_info.get_mut(line.0) {
                e.served = true;
            }
        }
        // The copy-back carries the full line: the owner's unflushed dirty
        // words reach home memory (capture them before the copy is
        // invalidated or demoted below).
        let words = self.nodes[p].cache.dirty_words(line);
        self.observe(done, p, Seen::Flush { line, words });
        if for_write {
            self.nodes[p].cache.invalidate(line);
            self.stats.procs[p].eager_invalidations += 1;
            self.observe(done, p, Seen::Invalidate { line, eager: true });
        } else {
            // Demote to read-only; data is being copied back to memory.
            self.nodes[p].cache.insert(line, LineState::ReadOnly);
            self.nodes[p].cache.clear_dirty(line);
        }
        self.send(done, p, requester, MsgKind::OwnerData { line, for_write });
        self.send(done, p, home, MsgKind::CopyBack { line, demoted_to_shared: !for_write, ep });
    }

    /// The home cancelled forward episode `ep` (our own request for the line
    /// reached it first and it served the forward's requester from memory):
    /// drop the matching parked forward. A parked forward from a *newer*
    /// episode is left alone — the episode id must match.
    fn on_forward_cancel(&mut self, t: Cycle, m: Msg, line: LineAddr, ep: u64) {
        let p = m.dst;
        let _ = self.nodes[p].pp.occupy(t, self.cfg.write_notice_cost);
        let matches = self.nodes[p]
            .parked_forwards
            .get(&line.0)
            .is_some_and(|f| matches!(f.kind, MsgKind::Forward { ep: fep, .. } if fep == ep));
        if matches {
            self.nodes[p].parked_forwards.remove(&line.0);
        }
    }

    /// Second leg of a 3-hop: the owner's data arrives at the requester.
    fn on_owner_data(&mut self, t: Cycle, m: Msg, line: LineAddr, for_write: bool) {
        let p = m.dst;
        let fill_done = self.nodes[p].bus.transfer(t, self.cfg.line_size as u64);
        let state = if for_write { LineState::ReadWrite } else { LineState::ReadOnly };
        if self.nodes[p].cache.contains(line) {
            self.nodes[p].cache.insert(line, state);
        } else {
            self.install_line(p, fill_done, line, state);
        }
        self.complete_data_leg(p, fill_done, line);
    }
}
