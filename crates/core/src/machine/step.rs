//! Processor front end: batched operation issue, the write-buffer pump,
//! write retirement, and line installation / eviction side effects.

use super::obs::Seen;
use super::{Event, Machine};
use crate::msg::MsgKind;
use crate::node::{PendingSync, ProcStatus};
use lrc_mem::{CbPush, Eviction, LineState, WbPush};
use lrc_sim::{Cycle, LineAddr, Op, ProcId, Protocol, StallKind};

impl Machine {
    /// Let processor `p` issue operations starting at time `t`, until it
    /// blocks or exhausts the skew quantum.
    pub(crate) fn proc_step(&mut self, p: ProcId, t: Cycle) {
        self.nodes[p].step_scheduled = false;
        if self.nodes[p].status != ProcStatus::Running {
            return;
        }
        let mut now = t;
        let deadline = t + self.cfg.skew_quantum;
        loop {
            let op = match self.nodes[p].deferred_op.take() {
                Some(op) => op,
                None => {
                    // The machine's only `next_op` call site: the per-proc
                    // consumption count is what checkpoints store instead of
                    // workload internals (restore replays it against a fresh
                    // instance).
                    self.ops_consumed[p] += 1;
                    self.workload.next_op(p)
                }
            };
            match op {
                Op::Compute(c) => {
                    self.stats.procs[p].breakdown.add(StallKind::Cpu, u64::from(c));
                    now += u64::from(c);
                }
                Op::Read(a) => {
                    if !self.issue_read(p, now, a) {
                        return; // blocked on a read miss
                    }
                    self.stats.procs[p].breakdown.add(StallKind::Cpu, 1);
                    now += 1;
                }
                Op::Write(a) => match self.issue_write(p, now, a) {
                    WriteIssue::Issued => {
                        self.stats.procs[p].breakdown.add(StallKind::Cpu, 1);
                        now += 1;
                    }
                    WriteIssue::BlockedRetry => {
                        // Write-buffer full: re-issue this op on resume.
                        self.nodes[p].deferred_op = Some(op);
                        return;
                    }
                    WriteIssue::BlockedDone => {
                        // SC blocking write: the transaction itself commits
                        // the store; nothing to re-issue.
                        return;
                    }
                },
                Op::Acquire(l) => {
                    self.begin_acquire(p, now, l);
                    return;
                }
                Op::Release(l) => {
                    if let Some(resumed) = self.begin_release(p, now, PendingSync::LockRelease(l)) {
                        now = resumed;
                    } else {
                        return;
                    }
                }
                Op::Barrier(b) => {
                    // A barrier never completes synchronously: even when the
                    // fence is already clear the arrival round-trip remains.
                    let done = self.begin_release(p, now, PendingSync::Barrier(b));
                    debug_assert!(done.is_none());
                    return;
                }
                Op::Fence => {
                    now = self.do_fence(p, now);
                }
                Op::Done => {
                    self.nodes[p].status = ProcStatus::Finished;
                    self.stats.procs[p].finish_time = now;
                    self.finished += 1;
                    return;
                }
            }
            if now >= deadline {
                self.schedule_step(p, now);
                return;
            }
        }
    }

    /// Issue a read. Returns false (and blocks the processor) on a miss.
    fn issue_read(&mut self, p: ProcId, now: Cycle, a: u64) -> bool {
        self.stats.procs[p].reads += 1;
        self.stats.procs[p].refs += 1;
        self.observe(now, p, Seen::Read { addr: a });
        let line = self.line_of(a);
        let hit = {
            let n = &mut self.nodes[p];
            // Read bypass on a cache miss: forwarding from the write buffer
            // (and, under the lazy protocols, the coalescing buffer).
            n.cache.touch_hit(line) || n.wb.matches(line) || n.cb.contains(line)
        };
        if hit {
            return true;
        }
        self.stats.procs[p].read_misses += 1;
        let word = self.word_of(a);
        self.observe(now, p, Seen::Miss { line, word, upgrade: false });
        let home = self.home_of_touch(line, p);
        let o = self.nodes[p].outstanding.entry(line.0).or_default();
        o.waiting_data = true;
        o.resume_proc = true;
        self.send(now, p, home, MsgKind::ReadReq { line });
        self.block(p, now, StallKind::Read, ProcStatus::StalledRead(line));
        false
    }

    /// Issue a write. Under SC this may block the processor; under the
    /// relaxed protocols it may block on a full write buffer.
    fn issue_write(&mut self, p: ProcId, now: Cycle, a: u64) -> WriteIssue {
        let line = self.line_of(a);
        let word = self.word_of(a);

        if self.protocol == Protocol::Sc {
            self.stats.procs[p].writes += 1;
            self.stats.procs[p].refs += 1;
            self.observe(now, p, Seen::Write { addr: a, line, word });
            // Single-probe hit check: a read-write hit is touched and
            // dirtied in place; any other state starts a transaction.
            let st = self.nodes[p].cache.write_probe(line, word);
            if st == LineState::ReadWrite {
                return WriteIssue::Issued;
            }
            // Blocking write transaction.
            let upgrade = st == LineState::ReadOnly;
            if upgrade {
                self.stats.procs[p].upgrades += 1;
            } else {
                self.stats.procs[p].write_misses += 1;
            }
            self.observe(now, p, Seen::Miss { line, word, upgrade });
            let home = self.home_of_touch(line, p);
            let o = self.nodes[p].outstanding.entry(line.0).or_default();
            o.waiting_data = true;
            o.resume_proc = true;
            o.apply_words |= 1 << word;
            self.send(now, p, home, MsgKind::WriteReq { line, had_copy: upgrade, words: 0 });
            self.block(p, now, StallKind::Write, ProcStatus::StalledWrite(line));
            return WriteIssue::BlockedDone;
        }

        // Relaxed protocols: writes go through the write buffer.
        if self.nodes[p].wb.is_full() && !self.nodes[p].wb.matches(line) {
            self.block(p, now, StallKind::Write, ProcStatus::StalledWriteFull);
            return WriteIssue::BlockedRetry;
        }
        self.stats.procs[p].writes += 1;
        self.stats.procs[p].refs += 1;
        self.observe(now, p, Seen::Write { addr: a, line, word });
        let outcome = self.nodes[p].wb.push(line, word);
        debug_assert!(outcome != WbPush::Full);
        self.pump_write_buffer(p, now);
        WriteIssue::Issued
    }

    /// Start coherence actions for buffered writes that have none in flight,
    /// then retire whatever is ready.
    pub(crate) fn pump_write_buffer(&mut self, p: ProcId, now: Cycle) {
        loop {
            let (idx, line, words) = {
                match self.nodes[p].wb.next_unissued_idx() {
                    Some(i) => {
                        let e = self.nodes[p].wb.entry_mut(i);
                        e.issued = true;
                        (i, e.line, e.words)
                    }
                    None => break,
                }
            };
            let word = words.trailing_zeros() as usize;
            let st = self.nodes[p].cache.state(line);
            let home = self.home_of_touch(line, p);
            if st != LineState::ReadWrite {
                self.observe(now, p, Seen::Miss { line, word, upgrade: st == LineState::ReadOnly });
            }
            match (self.protocol, st) {
                // Write hit on a writable line: nothing to do.
                (_, LineState::ReadWrite) => {
                    self.nodes[p].wb.entry_mut(idx).ready = true;
                }
                (Protocol::Sc, _) => unreachable!("SC does not use the write buffer"),

                // Eager RC: request ownership; the entry retires when the
                // grant (and data, on a full miss) arrives. Invalidation
                // acks complete in the background.
                (Protocol::Erc, LineState::ReadOnly) => {
                    self.stats.procs[p].upgrades += 1;
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    o.retire_wb = true;
                    self.send(now, p, home, MsgKind::WriteReq { line, had_copy: true, words: 0 });
                }
                (Protocol::Erc, LineState::Invalid) => {
                    self.stats.procs[p].write_misses += 1;
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    o.retire_wb = true;
                    self.send(now, p, home, MsgKind::WriteReq { line, had_copy: false, words: 0 });
                }

                // Lazy RC: announce the write but retire immediately — the
                // paper's key write-after-read optimization (no wait for the
                // home when the line is already cached read-only).
                (Protocol::Lrc, LineState::ReadOnly) => {
                    self.stats.procs[p].upgrades += 1;
                    self.nodes[p].cache.upgrade(line);
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true; // the WriteReply itself
                    self.nodes[p].wb.entry_mut(idx).ready = true;
                    self.send(now, p, home, MsgKind::WriteReq { line, had_copy: true, words: 0 });
                }
                (Protocol::Lrc, LineState::Invalid) => {
                    self.stats.procs[p].write_misses += 1;
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    o.retire_wb = true;
                    self.send(now, p, home, MsgKind::WriteReq { line, had_copy: false, words: 0 });
                }

                // Lazy-ext: defer even the write announcement; only a full
                // miss talks to the home (a plain data fetch).
                (Protocol::LrcExt, LineState::ReadOnly) => {
                    self.stats.procs[p].upgrades += 1;
                    self.nodes[p].cache.upgrade(line);
                    self.nodes[p].wb.entry_mut(idx).ready = true;
                }
                (Protocol::LrcExt, LineState::Invalid) => {
                    self.stats.procs[p].write_misses += 1;
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    o.retire_wb = true;
                    self.send(now, p, home, MsgKind::ReadReq { line });
                }
            }
        }
        self.retire_wb_entries(p, now);
    }

    /// Retire ready write-buffer entries (FIFO), unblocking the processor
    /// and the release fence as appropriate.
    pub(crate) fn retire_wb_entries(&mut self, p: ProcId, now: Cycle) {
        while let Some(front) = self.nodes[p].wb.front() {
            if !front.ready {
                break;
            }
            let line = front.line;
            // A queued-but-granted entry whose line was stolen (forwarded /
            // invalidated) before it reached the head must re-request — the
            // old grant no longer covers a cached copy.
            if !self.nodes[p].cache.contains(line)
                && !self.nodes[p].outstanding.contains_key(&line.0)
            {
                let f = self.nodes[p].wb.front_mut().expect("front exists");
                f.ready = false;
                f.issued = false;
                self.pump_write_buffer(p, now);
                return; // pump re-enters this function once serviced
            }
            let e = self.nodes[p].wb.pop_ready().expect("front is ready");
            self.install_written_line(p, now, e.line, e.words);
        }
        if self.nodes[p].status == ProcStatus::StalledWriteFull && !self.nodes[p].wb.is_full() {
            self.resume(p, now);
        }
        self.try_complete_release(p, now);
    }

    /// Commit a retired write into the cache (and the write-through path
    /// under the lazy protocols).
    pub(crate) fn install_written_line(&mut self, p: ProcId, now: Cycle, line: LineAddr, words: u64) {
        // One probe upgrades + touches + dirties a present line; only a
        // miss pays the full install path.
        if !self.nodes[p].cache.promote_written(line, words) {
            self.install_line(p, now, line, LineState::ReadWrite);
            self.nodes[p].cache.mark_dirty_words(line, words);
        }
        match self.protocol {
            Protocol::Lrc => {
                match self.nodes[p].cb.push_words(line, words) {
                    CbPush::Merged => {}
                    CbPush::Allocated => {
                        self.push_ev(now + self.cfg.cb_flush_delay, p, Event::CbFlush(p, line));
                    }
                    CbPush::Displaced(v) => {
                        self.send_write_through(p, now, v.line, v.words);
                        self.push_ev(now + self.cfg.cb_flush_delay, p, Event::CbFlush(p, line));
                    }
                }
            }
            Protocol::LrcExt => {
                *self.nodes[p].delayed_writes.entry(line.0).or_insert(0) |= words;
            }
            _ => {}
        }
    }

    /// Background coalescing-buffer drain timer.
    pub(crate) fn cb_flush_timer(&mut self, p: ProcId, t: Cycle, line: LineAddr) {
        if let Some(e) = self.nodes[p].cb.take(line) {
            self.send_write_through(p, t, e.line, e.words);
        }
    }

    /// Send one write-through flush to the line's home.
    pub(crate) fn send_write_through(&mut self, p: ProcId, now: Cycle, line: LineAddr, words: u64) {
        self.observe(now, p, Seen::Flush { line, words });
        self.nodes[p].wt_unacked += 1;
        let home = self.home_of(line);
        self.send(now, p, home, MsgKind::WriteThrough { line, words });
    }

    /// Bring `line` into `p`'s cache with the given permission, processing
    /// any eviction this causes.
    pub(crate) fn install_line(&mut self, p: ProcId, now: Cycle, line: LineAddr, state: LineState) {
        self.observe(now, p, Seen::Install { line, state });
        if let Some(ev) = self.nodes[p].cache.insert(line, state) {
            self.handle_eviction(p, now, ev);
        }
    }

    /// Capacity/conflict eviction side effects: write-backs (eager),
    /// coalescing-buffer flushes and deferred-notice flushes (lazy), and the
    /// home-node notification the lazy directory requires.
    pub(crate) fn handle_eviction(&mut self, p: ProcId, now: Cycle, ev: Eviction) {
        let line = ev.line;
        self.observe(now, p, Seen::Evict { line });
        // A dropped line needs no invalidation at the next acquire.
        self.nodes[p].pending_invals.remove(&line.0);
        let home = self.home_of(line);
        let was_writer = ev.state == LineState::ReadWrite;
        match self.protocol {
            Protocol::Sc | Protocol::Erc => {
                if was_writer && ev.dirty_words != 0 {
                    self.observe(now, p, Seen::Flush { line, words: ev.dirty_words });
                    self.nodes[p].wbk_unacked += 1;
                    self.send(now, p, home, MsgKind::WriteBack { line, words: ev.dirty_words });
                } else {
                    self.send(now, p, home, MsgKind::EvictNotify { line, was_writer });
                }
            }
            Protocol::Lrc => {
                if let Some(e) = self.nodes[p].cb.take(line) {
                    self.send_write_through(p, now, e.line, e.words);
                }
                self.send(now, p, home, MsgKind::EvictNotify { line, was_writer });
            }
            Protocol::LrcExt => {
                if let Some(words) = self.nodes[p].delayed_writes.remove(&line.0) {
                    // Replacement forces the deferred write notice out now
                    // (this is what bounds the delayed-write table by the
                    // cache size, as the paper notes).
                    self.observe(now, p, Seen::Flush { line, words });
                    let o = self.nodes[p].outstanding.entry(line.0).or_default();
                    o.waiting_data = true;
                    self.send(now, p, home, MsgKind::WriteReq { line, had_copy: true, words });
                }
                self.send(now, p, home, MsgKind::EvictNotify { line, was_writer });
            }
        }
    }
}

/// Outcome of trying to issue a write op.
enum WriteIssue {
    /// Committed to the write buffer (or hit); the processor continues.
    Issued,
    /// Write buffer full: block and re-issue the op when space frees.
    BlockedRetry,
    /// SC blocking transaction issued: the completion path commits the
    /// store, so the op must not be re-issued.
    BlockedDone,
}
