//! The observer set: every passive instrument watching the machine, and
//! the one entry point through which the machine reports to them.
//!
//! Seven instruments can watch a run: the structured trace sink, the
//! flight recorder, the latency probe, the interval metrics sampler, the
//! happens-before race detector, the symbolic value tracker and the miss
//! classifier. All of them live in one [`Observers`] set behind
//! `Machine::observers`. A hook site states one fact as a [`Seen`] event
//! and calls [`Machine::observe`]; only this module decides which
//! instruments consume which event. A machine built without observers
//! carries a `None`, so every site costs one never-taken branch and the
//! run is bit-identical to a build without this module (the golden
//! fingerprints hold that line). Observers never feed back into the
//! simulation, and `tests/observer_pins.rs` pins every instrument's output
//! byte for byte.

use super::values::ValueTracker;
use super::{Event, Machine};
use crate::msg::MsgKind;
use lrc_classify::Classifier;
use lrc_mem::LineState;
use lrc_race::RaceDetector;
use lrc_sim::{
    Addr, Breakdown, Cycle, FxHashMap, LatencyStats, LineAddr, MachineConfig, MachineStats, NodeId,
};
use lrc_trace::{
    CrashEv, FlightRecorder, MsgMeta, RecData, ResourceEv, StateChange, SyncOp, TimeSeries,
    TraceFilter, TraceRecord, TraceSink,
};

/// Flight-recorder depth per node when the machine arms it automatically
/// for at-risk runs (watchdog, fault plan, or finite resources).
pub(crate) const DEFAULT_FLIGHT_CAP: usize = 64;

/// One fact about the simulated machine, reported through
/// [`Machine::observe`] together with its time and the node it happened at.
///
/// The race detector's happens-before model rides on where the machine
/// reports these facts:
///
/// * [`Seen::Read`] and [`Seen::Write`] fire at op issue, exactly once per
///   program-order reference (a store that finds the write buffer full is
///   deferred *before* it is reported).
/// * [`SyncOp::Release`] fires at the `LockRel` send, on the immediate path
///   and on the fence-delayed path alike. The kernel processes that send
///   before the grant it causes, so the lock clock is published before any
///   acquirer joins it.
/// * [`SyncOp::AcquireDone`] fires once the `LockGrant` has arrived, before
///   the processor resumes: everything past releasers did is ordered before
///   every op the acquirer issues next.
/// * [`SyncOp::BarrierArrive`] and [`SyncOp::BarrierDone`] fire at the
///   `BarrierArrive` send and after the `BarrierRelease` receipt. The
///   machine blocks arrivals until the episode completes, so at most one
///   episode per barrier gathers at a time and the completed clock is fixed
///   before any departure joins it.
/// * A fence reports nothing: `Op::Fence` forces local invalidations but
///   synchronizes with nobody, so it carries no happens-before edge. It is
///   the paper's escape hatch *for* racy programs and must not silence the
///   detector.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seen {
    /// A protocol message left the node for `dst`.
    Sent { dst: NodeId, kind: MsgKind },
    /// A protocol message from `src` arrived at the node.
    Delivered { src: NodeId, kind: MsgKind },
    /// The processor issued a load of byte address `addr`.
    Read { addr: Addr },
    /// The processor issued a store to `addr`, word `word` of `line`.
    Write { addr: Addr, line: LineAddr, word: usize },
    /// A reference to word `word` of `line` missed, or (`upgrade`) found a
    /// read-only copy it must upgrade: the Table-2 classification point.
    Miss { line: LineAddr, word: usize, upgrade: bool },
    /// The dirty words in `words` of `line` left the node toward home memory
    /// (write-through, write-back, 3-hop copy-back, or a deferred notice).
    Flush { line: LineAddr, words: u64 },
    /// `line` was brought into the cache with permission `state`.
    Install { line: LineAddr, state: LineState },
    /// The node's copy of `line` was dropped, on receipt of a coherence
    /// message (`eager`) or at an acquire.
    Invalidate { line: LineAddr, eager: bool },
    /// `line` left the cache for capacity or conflict.
    Evict { line: LineAddr },
    /// A synchronization leg on lock or barrier `id`.
    Sync { op: SyncOp, id: u32 },
    /// A finite-resource event.
    Resource(ResourceEv),
    /// A crash-stop failure or recovery event.
    Crash(CrashEv),
}

/// Every installed instrument, boxed behind one `Option` on the machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Observers {
    /// Where filtered records go (`None` = no structured trace).
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    /// Which records reach the sink (the recorder sees everything).
    pub(crate) filter: TraceFilter,
    /// Global emission counter; `(at, seq)` totally orders records.
    pub(crate) seq: u64,
    /// Bounded per-node rings of recent records for stall diagnoses.
    pub(crate) recorder: Option<FlightRecorder>,
    /// Latency probes (round-trips, lock hold/wait, barrier skew).
    pub(crate) probe: Option<Probe>,
    /// Interval metrics sampler.
    pub(crate) sampler: Option<Sampler>,
    /// Protocol messages sent (sampler gauge: `sends - recvs` = in flight).
    pub(crate) sends: u64,
    /// Protocol messages received.
    pub(crate) recvs: u64,
    /// Online happens-before race detector.
    pub(crate) race: Option<RaceDetector>,
    /// Symbolic last-writer tracking for the DRF ⇒ SC check.
    pub(crate) values: Option<ValueTracker>,
    /// Table-2 miss classification.
    pub(crate) classifier: Option<Classifier>,
}

impl Observers {
    /// Route one event to the instruments that consume it. Inlined into
    /// every hook site, so a site keeps only its own event's arm: an event
    /// no installed instrument consumes costs a few branches, not a call.
    /// The instruments' work stays out of line.
    #[inline(always)]
    fn see(
        &mut self,
        at: Cycle,
        node: NodeId,
        ev: Seen,
        cfg: &MachineConfig,
        stats: &mut MachineStats,
    ) {
        let meta = |kind: MsgKind| MsgMeta {
            name: kind.name(),
            class: kind.msg_class(),
            line: kind.line().map(|l| l.0),
            bytes: kind.bytes(cfg.ctrl_msg_bytes, cfg.line_size as u64, cfg.word_size as u64),
        };
        match ev {
            Seen::Sent { dst, kind } => {
                self.sends += 1;
                self.trace(at, node, || RecData::Send { src: node, dst, msg: meta(kind) });
                if let Some(p) = self.probe.as_mut() {
                    p.on_send(at, node, kind);
                }
            }
            Seen::Delivered { src, kind } => {
                self.recvs += 1;
                self.trace(at, node, || RecData::Recv { src, dst: node, msg: meta(kind) });
                if let Some(p) = self.probe.as_mut() {
                    p.on_recv(at, node, kind);
                }
            }
            Seen::Read { addr } => {
                if let Some(r) = self.race.as_mut() {
                    r.on_read(node, addr);
                }
            }
            Seen::Write { addr, line, word } => {
                if let Some(c) = self.classifier.as_mut() {
                    c.record_write(node, line, word);
                }
                if let Some(v) = self.values.as_mut() {
                    v.on_write(node, line.0, word);
                }
                if let Some(r) = self.race.as_mut() {
                    r.on_write(node, addr);
                }
            }
            Seen::Miss { line, word, upgrade } => {
                if let Some(c) = self.classifier.as_mut() {
                    let class = c.classify_miss(node, line, word, upgrade);
                    stats.procs[node].miss_classes.record(class);
                }
            }
            Seen::Flush { line, words } => {
                if let Some(v) = self.values.as_mut() {
                    v.on_flush(node, line.0, words);
                }
            }
            Seen::Install { line, state } => {
                let state = match state {
                    LineState::ReadOnly => "read-only",
                    LineState::ReadWrite => "read-write",
                    LineState::Invalid => "invalid",
                };
                let change = StateChange::Install { state };
                self.trace(at, node, || RecData::State { line: line.0, change });
            }
            Seen::Invalidate { line, eager } => {
                if let Some(c) = self.classifier.as_mut() {
                    c.on_invalidate(node, line);
                }
                let change = StateChange::Invalidate { eager };
                self.trace(at, node, || RecData::State { line: line.0, change });
            }
            Seen::Evict { line } => {
                if let Some(c) = self.classifier.as_mut() {
                    c.on_evict(node, line);
                }
            }
            Seen::Sync { op, id } => {
                if let Some(r) = self.race.as_mut() {
                    match op {
                        SyncOp::AcquireStart => {}
                        SyncOp::AcquireDone => r.on_acquire(node, id),
                        SyncOp::Release => r.on_release(node, id),
                        SyncOp::BarrierArrive => r.on_barrier_arrive(node, id),
                        SyncOp::BarrierDone => r.on_barrier_depart(node, id),
                    }
                }
                self.trace(at, node, || RecData::Sync { op, id: u64::from(id) });
            }
            Seen::Resource(ev) => self.trace(at, node, || RecData::Resource { ev }),
            Seen::Crash(ev) => self.trace(at, node, || RecData::Crash { ev }),
        }
    }

    /// Trace a record, built only when a flight recorder or sink takes it.
    #[inline(always)]
    fn trace(&mut self, at: Cycle, node: NodeId, data: impl FnOnce() -> RecData) {
        if self.recorder.is_some() || self.sink.is_some() {
            self.record(at, node, data);
        }
    }

    /// Stamp a record and hand it to the flight recorder (always) and the
    /// sink (filtered).
    #[inline(never)]
    fn record(&mut self, at: Cycle, node: NodeId, data: impl FnOnce() -> RecData) {
        let rec = TraceRecord { at, seq: self.seq, node, data: data() };
        self.seq += 1;
        if let Some(r) = self.recorder.as_mut() {
            r.push(&rec);
        }
        if let Some(s) = self.sink.as_mut() {
            if self.filter.accepts(&rec) {
                s.record(&rec);
            }
        }
    }

    /// End of run: fold the latency histograms and race reports into `stats`.
    pub(crate) fn fold_into(&mut self, stats: &mut MachineStats) {
        if let Some(p) = self.probe.as_mut() {
            stats.latencies.merge(&std::mem::take(&mut p.hist));
        }
        if let Some(r) = self.race.as_ref() {
            stats.races = r.stats().clone();
        }
    }
}

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_LOCK: u8 = 2;
const TAG_BAR: u8 = 3;

/// Latency probes: watches the message stream and matches request/reply
/// pairs into histograms. A retried request re-opens its entry, so a
/// NACKed round-trip measures from the last retry (the backoff cost shows
/// up separately in `nack.attempts` and the backpressure counters).
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    procs: usize,
    /// Open request departure times, keyed by `(tag, requester, id)`.
    open: FxHashMap<(u8, u64, u64), Cycle>,
    /// Lock grant times, keyed by `(holder, lock)` — closed by the release.
    lock_held: FxHashMap<(u64, u64), Cycle>,
    /// Per-barrier arrival window: `(earliest, latest, arrivals)`.
    bars: FxHashMap<u64, (Cycle, Cycle, usize)>,
    /// The histograms, folded into `MachineStats::latencies` at end of run.
    pub(crate) hist: LatencyStats,
}

impl Probe {
    pub(crate) fn new(procs: usize) -> Self {
        Probe {
            procs,
            open: FxHashMap::default(),
            lock_held: FxHashMap::default(),
            bars: FxHashMap::default(),
            hist: LatencyStats::new(),
        }
    }

    fn close(&mut self, tag: u8, node: u64, id: u64, now: Cycle, name: &str) {
        if let Some(t0) = self.open.remove(&(tag, node, id)) {
            self.hist.record(name, now.saturating_sub(t0));
        }
    }

    #[inline(never)]
    fn on_send(&mut self, now: Cycle, src: NodeId, kind: MsgKind) {
        let src = src as u64;
        match kind {
            MsgKind::ReadReq { line } => {
                self.open.insert((TAG_READ, src, line.0), now);
            }
            MsgKind::WriteReq { line, .. } => {
                self.open.insert((TAG_WRITE, src, line.0), now);
            }
            MsgKind::LockAcq { lock } => {
                self.open.insert((TAG_LOCK, src, lock as u64), now);
            }
            MsgKind::LockRel { lock } => {
                if let Some(t0) = self.lock_held.remove(&(src, lock as u64)) {
                    self.hist.record("lock.hold", now.saturating_sub(t0));
                }
            }
            MsgKind::BarrierArrive { bar } => {
                self.open.insert((TAG_BAR, src, bar as u64), now);
                let e = self.bars.entry(bar as u64).or_insert((now, now, 0));
                e.0 = e.0.min(now);
                e.1 = e.1.max(now);
                e.2 += 1;
                let full = e.2 == self.procs;
                if full {
                    if let Some((lo, hi, _)) = self.bars.remove(&(bar as u64)) {
                        self.hist.record("barrier.skew", hi - lo);
                    }
                }
            }
            _ => {}
        }
    }

    #[inline(never)]
    fn on_recv(&mut self, now: Cycle, dst: NodeId, kind: MsgKind) {
        let dst = dst as u64;
        match kind {
            MsgKind::ReadReply { line, .. } => self.close(TAG_READ, dst, line.0, now, "rt.read"),
            MsgKind::WriteReply { line, .. } | MsgKind::WriteAck { line } => {
                self.close(TAG_WRITE, dst, line.0, now, "rt.write")
            }
            MsgKind::LockGrant { lock } => {
                self.close(TAG_LOCK, dst, lock as u64, now, "lock.wait");
                self.lock_held.insert((dst, lock as u64), now);
            }
            MsgKind::BarrierRelease { bar } => {
                self.close(TAG_BAR, dst, bar as u64, now, "barrier.wait")
            }
            MsgKind::BusyNack { attempt, .. } => {
                self.hist.record("nack.attempts", u64::from(attempt) + 1)
            }
            _ => {}
        }
    }
}

/// Interval metrics sampler: a self-rearming [`Event::Sample`] snapshots
/// machine gauges every `interval` cycles into a [`TimeSeries`]. Sampling
/// is an ordinary event, so it is part of the deterministic event order —
/// the same seed and config produce a bit-identical series — but it never
/// fires on an otherwise-empty queue, so deadlock detection (queue drained
/// with unfinished processors) is unaffected.
#[derive(Debug, Clone)]
pub(crate) struct Sampler {
    pub(crate) interval: Cycle,
    pub(crate) series: TimeSeries,
    /// Previous tick's per-proc breakdowns, for delta columns.
    last_breakdown: Vec<Breakdown>,
}

impl Sampler {
    pub(crate) fn new(interval: Cycle, procs: usize) -> Self {
        let interval = interval.max(1);
        let mut cols: Vec<String> =
            vec!["cycle".into(), "inflight".into(), "dir_busy".into(), "queue_len".into()];
        for p in 0..procs {
            for g in ["ni_in", "ni_out", "wn_fill", "d_cpu", "d_read", "d_write", "d_sync"] {
                cols.push(format!("p{p}.{g}"));
            }
        }
        Sampler {
            interval,
            series: TimeSeries::new(interval, cols),
            last_breakdown: vec![Breakdown::default(); procs],
        }
    }
}

impl Machine {
    /// Report `ev`, which happened at `node` at time `at`, to the observer
    /// set: the one entry point every hook site calls.
    #[inline]
    pub(crate) fn observe(&mut self, at: Cycle, node: NodeId, ev: Seen) {
        if let Some(o) = self.observers.as_deref_mut() {
            o.see(at, node, ev, &self.cfg, &mut self.stats);
        }
    }

    /// The observer set, created on first use.
    pub(crate) fn observers_mut(&mut self) -> &mut Observers {
        self.observers.get_or_insert_with(Box::default)
    }

    /// Snapshot the sampler's gauges at `t` (the [`Event::Sample`] handler).
    pub(crate) fn take_sample(&mut self, t: Cycle) {
        // Swap the block out so gauge reads can borrow the machine freely.
        let Some(mut obs) = self.observers.take() else { return };
        if let Some(s) = obs.sampler.as_mut() {
            let mut row = Vec::with_capacity(s.series.columns().len());
            row.push(t);
            row.push(obs.sends.saturating_sub(obs.recvs));
            row.push(self.dir.iter().filter(|(_, e)| e.is_busy()).count() as u64);
            row.push(self.queue.len() as u64);
            for p in 0..self.cfg.num_procs {
                let (ni_in, ni_out) = self.net.ni_occupancy(t, p);
                row.push(ni_in as u64);
                row.push(ni_out as u64);
                row.push(self.nodes[p].pending_invals.len() as u64);
                let b = self.stats.procs[p].breakdown;
                let last = &mut s.last_breakdown[p];
                row.push(b.cpu - last.cpu);
                row.push(b.read - last.read);
                row.push(b.write - last.write);
                row.push(b.sync - last.sync);
                *last = b;
            }
            s.series.push_row(row);
        }
        self.observers = Some(obs);
    }

    /// Re-arm the sampler after a tick — only while the run is live, so a
    /// drained queue still means deadlock and a finished run still ends.
    pub(crate) fn rearm_sampler(&mut self, t: Cycle) {
        if self.finished >= self.cfg.num_procs || self.queue.is_empty() {
            return;
        }
        if let Some(iv) = self.sample_interval() {
            self.push_ev(t + iv, 0, Event::Sample);
        }
    }

    /// The sampler's tick interval (`None` when sampling is off).
    pub(crate) fn sample_interval(&self) -> Option<Cycle> {
        Some(self.observers.as_deref()?.sampler.as_ref()?.interval)
    }
}
