//! Consistent checkpoint/restore for live machines.
//!
//! [`MachineSnapshot::capture`] serializes every simulation-relevant piece
//! of a paused [`Machine`] — the event queue with its deterministic tie
//! keys, per-node caches and write buffers, the directory, link-layer and
//! network state, resource clocks, fault-injector RNG streams, the race
//! detector, and the value tracker — into a versioned `lrc-json` document.
//! [`MachineSnapshot::restore`] rebuilds a machine that, driven forward,
//! produces a run **bit-identical** to the uninterrupted one (the state
//! fingerprint and every statistic agree at every future cycle).
//!
//! The document is written and read by one codec: each record has a single
//! `json_struct!` field list, and the list drives both directions. The
//! lists for this crate's records (messages, events, processor status, the
//! document and its tables) are below; the records of the lower crates
//! live beside their types (fault plans and network state in `lrc-mesh`,
//! detector state in `lrc-race`, line states in `lrc-mem`, ops, stall
//! kinds, configs and statistics in `lrc-sim`). Design rules that make the
//! bit-identity guarantee hold:
//!
//! * **u64s travel as decimal strings** (field kind `Dec`). `lrc-json`
//!   numbers are `f64`, exact only to 2^53; event tie keys (node index in
//!   the top 16 bits), dirty-word masks, RNG streams, and `u64::MAX`
//!   sentinels all exceed that. Small ids and counts stay numeric.
//! * **Node ids are range-checked** (field kind `Node`) against the
//!   document's own processor count, so a corrupt id is a typed error
//!   rather than an out-of-bounds index deep in the kernel.
//! * **Deterministic field order.** Field lists fix the order of every
//!   object and capture sorts every hash-map table, so serialize → parse →
//!   re-serialize is byte-identical, and capturing a restored machine
//!   yields byte-identical JSON to the original capture.
//! * **Workloads restore by replay, not by serialization.** The snapshot
//!   stores the workload's name and the per-processor count of `next_op`
//!   calls consumed; restore fast-forwards a caller-supplied fresh instance
//!   by those counts, which the determinism contract of
//!   [`Workload::next_op`] makes exact.
//! * **Refuse what cannot round-trip.** Capture returns
//!   [`SnapshotError::Unsupported`] for machines carrying state the format
//!   does not serialize (trace sinks, latency probes, samplers, miss
//!   classification, checker-driven exploration, injected protocol bugs).
//!   The flight recorder is the one observer allowed: its ring contents are
//!   not saved (they never affect simulation), and restore re-arms a
//!   default-depth recorder that refills within a few thousand events.
//! * **Malformed input is a typed error, never a panic.** Decoding names
//!   the path of the first bad value; restore then checks what no single
//!   field can (section lengths against the processor count, link and
//!   crash state against the fault plan) before it builds anything.

use super::crash::CrashCtx;
use super::obs::DEFAULT_FLIGHT_CAP;
use super::values::ValueTracker;
use super::xmit::{InFlight, XmitCounters, XmitState};
use super::{Event, Fault, Machine};
use crate::directory::{nodes_in, AckCollection, DirEntry, ForwardEp, NodeSet};
use crate::msg::{Msg, MsgKind, WriteGrant};
use crate::node::{Outstanding, PendingSync, ProcStatus};
use lrc_json::{json_struct, Ctx, Dec, DecodeError, Defaulted, Flat, FromJson, List, Node, Opt};
use lrc_json::{Plain, Skip, ToJson, Value, Wire};
use lrc_mem::{CbEntry, LineState, WbEntry};
use lrc_mesh::{FaultPlan, NetworkState};
use lrc_race::{RaceDetector, RaceDetectorState};
use lrc_sim::refint::WriteId;
use lrc_sim::{
    BarrierId, Cycle, EventQueue, LineAddr, LockId, MachineConfig, MachineStats, NodeId, Op,
    Protocol, StallKind, Workload,
};
use lrc_trace::FlightRecorder;

/// Version stamp written into every snapshot. Bump on any schema change;
/// [`MachineSnapshot::parse`] rejects unknown versions with a typed error.
///
/// History:
/// * **v1** — initial format.
/// * **v2** — adds the crash-stop fault subsystem: a `crash` section in the
///   fault plan and at the document root, the `from` multiset on pending
///   ack collections, the `Crashed` processor status, the `Heartbeat`
///   message kind, and the `LeaseTick`/`CrashNode` events. Strictly
///   additive: v1 documents still load, with every new field defaulted to
///   its crashes-off value.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Oldest version this build still reads. Documents older than this (or
/// newer than [`SNAPSHOT_VERSION`]) fail with
/// [`SnapshotError::UnknownVersion`].
pub const MIN_SNAPSHOT_VERSION: u64 = 1;

/// Why a capture, parse, or restore failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The machine carries state this snapshot version does not serialize
    /// (trace sinks, probes, samplers, classification, checker-driven
    /// exploration), or the restore inputs do not match the snapshot
    /// (wrong workload, wrong processor count).
    Unsupported(String),
    /// The document's version stamp is not one this build understands —
    /// a snapshot from a future (or mangled) build.
    UnknownVersion {
        /// The version the document claims.
        found: u64,
    },
    /// The document is not a structurally valid snapshot: truncated JSON,
    /// missing or mistyped fields, or values violating state invariants.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported(what) => {
                write!(f, "snapshot unsupported: {what}")
            }
            SnapshotError::UnknownVersion { found } => write!(
                f,
                "unknown snapshot version {found} (this build reads versions \
                 {MIN_SNAPSHOT_VERSION} through {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

type R<T> = Result<T, SnapshotError>;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

fn unsupported(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Unsupported(msg.into())
}

// ------------------------------------------------------------ records
// This crate's records, in wire order. Line addresses, masks, sequence
// numbers and cycles are `Dec`; processor ids are `Node`.

/// A node set travels as its ascending list of node ids.
impl Wire<NodeSet> for List<Node> {
    fn encode(x: &NodeSet) -> Value {
        Value::Array(nodes_in(*x).map(|n| <Node as Wire<_>>::encode(&n)).collect())
    }
    fn decode(v: &Value, cx: Ctx) -> Result<NodeSet, DecodeError> {
        let nodes: Vec<NodeId> = <List<Node> as Wire<_>>::decode(v, cx)?;
        Ok(nodes.into_iter().collect())
    }
}

json_struct!(Msg { src: Node, dst: Node, kind });
json_struct!(enum WriteGrant as str { Immediate = "immediate", Pending = "pending" });
json_struct!(enum MsgKind {
    ReadReq { line: Dec } = "ReadReq",
    WriteReq { line: Dec, had_copy, words: Dec } = "WriteReq",
    WriteThrough { line: Dec, words: Dec } = "WriteThrough",
    WriteBack { line: Dec, words: Dec } = "WriteBack",
    EvictNotify { line: Dec, was_writer } = "EvictNotify",
    ReadReply { line: Dec, weak } = "ReadReply",
    WriteReply { line: Dec, grant, with_data, weak } = "WriteReply",
    WriteAck { line: Dec } = "WriteAck",
    WriteThroughAck { line: Dec } = "WriteThroughAck",
    WriteBackAck { line: Dec } = "WriteBackAck",
    Invalidate { line: Dec } = "Invalidate",
    WriteNotice { line: Dec } = "WriteNotice",
    Forward { line: Dec, requester as "req": Node, for_write, ep: Dec } = "Forward",
    InvAck { line: Dec } = "InvAck",
    NoticeAck { line: Dec } = "NoticeAck",
    OwnerData { line: Dec, for_write } = "OwnerData",
    CopyBack { line: Dec, demoted_to_shared as "demoted", ep: Dec } = "CopyBack",
    ForwardNack { line: Dec, requester as "req": Node, for_write, ep: Dec } = "ForwardNack",
    LockAcq { lock } = "LockAcq",
    LockGrant { lock } = "LockGrant",
    LockRel { lock } = "LockRel",
    BarrierArrive { bar } = "BarrierArrive",
    BarrierRelease { bar } = "BarrierRelease",
    BusyNack { line: Dec, for_write, had_copy, words: Dec, attempt } = "BusyNack",
    ForwardCancel { line: Dec, ep: Dec } = "ForwardCancel",
    Heartbeat = "Heartbeat",
});
// `Sample` exists only while a metrics sampler is armed, which capture
// refuses; restore rejects it.
json_struct!(enum Event {
    ProcStep(p: Node) = "step",
    Msg(msg) = "msg",
    CbFlush(p: Node, line: Dec) = "cb",
    XMsg { msg, seq: Dec, corrupt } = "xmsg",
    LinkCtl { seq: Dec, ack } = "linkctl",
    RetryTimer { seq: Dec } = "retry",
    NiRetry { msg, attempts } = "ni",
    NackRetry { msg } = "nack",
    Sample = "sample",
    LeaseTick = "lease",
    CrashNode { victim: Node } = "crashnode",
});
json_struct!(enum PendingSync { LockRelease(lock) = "lockrel", Barrier(bar) = "barrier" });
json_struct!(enum ProcStatus {
    Running = "running",
    StalledRead(line: Dec) = "sread",
    StalledWriteFull = "swfull",
    StalledWrite(line: Dec) = "swrite",
    Releasing(sync) = "releasing",
    WaitingLock(lock) = "wlock",
    InBarrier(bar) = "inbar",
    Finished = "finished",
    Crashed = "crashed",
});
json_struct!(Outstanding {
    waiting_data,
    waiting_ack,
    early_ack,
    resume_proc,
    retire_wb,
    apply_words: Dec,
    stale_on_fill,
});
json_struct!(ForwardEp { id: Dec, owner: Node, requester as "req": Node, for_write, served });
// v1 documents predate the debtor multiset; an empty one only disables
// the crash-time write-off, which v1 snapshots cannot need.
json_struct!(AckCollection { awaiting, waiters: List<Node>, from: Defaulted<List<Node>> });
json_struct!(InFlight { msg, attempts, next_deadline as "deadline": Dec });
json_struct!(XmitCounters {
    link_nacks: Dec,
    retries: Dec,
    timeouts: Dec,
    retries_exhausted: Dec,
    dup_suppressed: Dec,
    link_msgs: Dec,
});
// The plan rides in the document's fault plan; restore puts it back.
json_struct!(CrashCtx {
    plan: Skip,
    crashed: List<Node>,
    crashed_unfinished,
    suspected: List<List<Node>>,
    last_heard: List<List<Dec>>,
    wt_to,
    wbk_to,
});

// ------------------------------------------------------------ document
// The wire shape of the machine: its scalars, plus its tables as sorted
// rows. Capture fills a `Doc` from the machine; restore decodes one and
// moves it in.

json_struct!(
    /// The whole document, in wire order. v1 documents have no root
    /// `crash` section.
    struct Doc {
        version: u64,
        protocol: Protocol,
        config: MachineConfig,
        fault_plan: Option<FaultPlan>,
        workload: WorkloadRec,
        now: Cycle => Dec,
        handled: u64 => Dec,
        finished: usize,
        max_cycles: u64 => Dec,
        check_every: u64 => Dec,
        watchdog: Option<Cycle> => Opt<Dec>,
        forward_seq: u64 => Dec,
        park_seq: u64 => Dec,
        recorder_armed: bool,
        ev_seq: Vec<u64> => List<Dec>,
        queue: QueueRec,
        nodes: Vec<NodeRec>,
        dir: Vec<DirRow>,
        parked: Vec<ParkedRow>,
        page_home: Vec<(u64, NodeId)> => List<(Dec, Node)>,
        busy_info: Vec<BusyRow>,
        nacks_given: Vec<(u64, u32)> => List<(Dec, Plain)>,
        pending_ni_retries: u32,
        last_ni_reject: Option<(NodeId, usize, usize)> => Opt<(Node, Plain, Plain)>,
        net: NetworkState,
        xmit: Option<XmitRec>,
        grant_log: Vec<(LockId, NodeId)> => List<(Plain, Node)>,
        values: Option<ValuesRec>,
        race: Option<RaceDetectorState>,
        crash: Option<CrashCtx> => Defaulted,
        stats: MachineStats,
    }
);
json_struct!(struct WorkloadRec { name: String, ops_consumed: Vec<u64> => List<Dec> });
json_struct!(struct QueueRec { peak: usize, events: Vec<QueuedEvent> });
json_struct!(struct QueuedEvent { at: Cycle => Dec, key: u64 => Dec, ev: Event });
json_struct!(
    /// One processor node: the fields of [`crate::node::Node`] that change
    /// while it runs.
    struct NodeRec {
        status: ProcStatus,
        stall_start: Cycle => Dec,
        stall_kind: StallKind,
        deferred_op: Option<Op>,
        step_scheduled: bool,
        cache: CacheRec,
        wb: Vec<(LineAddr, u64, bool, bool)> => List<(Dec, Dec, Plain, Plain)>,
        cb: Vec<(LineAddr, u64)> => List<(Dec, Dec)>,
        mem: (Cycle, u64, u64) => (Dec, Dec, Dec),
        bus: (Cycle, u64) => (Dec, Dec),
        pp: (Cycle, u64) => (Dec, Dec),
        outstanding: Vec<OutstandingRow>,
        pending_invals: Vec<u64> => List<Dec>,
        inval_all: bool,
        delayed_writes: Vec<(u64, u64)> => List<(Dec, Dec)>,
        wt_unacked: u32,
        wbk_unacked: u32,
        inval_done_at: Cycle => Dec,
        parked_forwards: Vec<(u64, Msg)> => List<(Dec, Plain)>,
        locks: Vec<LockRow>,
        barriers: Vec<BarrierRow>,
    }
);
json_struct!(
    /// Every cache slot in storage order, vacant ones included.
    struct CacheRec {
        slots: Vec<(LineAddr, LineState, u64, u64)> => List<(Dec, Plain, Dec, Dec)>,
        tick: u64 => Dec,
    }
);
json_struct!(struct OutstandingRow { line: u64 => Dec, o: Outstanding => Flat });
json_struct!(struct LockRow {
    lock: LockId,
    holder: Option<NodeId> => Opt<Node>,
    queue: Vec<NodeId> => List<Node>,
});
json_struct!(struct BarrierRow { bar: BarrierId, arrived: Vec<NodeId> => List<Node> });
json_struct!(struct DirRow {
    line: u64 => Dec,
    sharers: NodeSet => List<Node>,
    writers: NodeSet => List<Node>,
    notified: NodeSet => List<Node>,
    pending: Option<AckCollection>,
    busy: bool,
    overflow: bool,
});
json_struct!(struct ParkedRow { line: u64 => Dec, msgs: Vec<ParkedMsg> });
json_struct!(struct ParkedMsg { msg: Msg, at: Cycle => Dec });
json_struct!(struct BusyRow { line: u64 => Dec, ep: ForwardEp => Flat });
json_struct!(struct XmitRec {
    next_seq: u64 => Dec,
    in_flight: Vec<InFlightRow>,
    seen: Vec<u64> => List<Dec>,
    gave_up: Vec<Msg>,
    counters: XmitCounters,
});
json_struct!(struct InFlightRow { seq: u64 => Dec, f: InFlight => Flat });
json_struct!(
    /// The value tracker; `home` rows are `(line, word, proc, seq)`.
    struct ValuesRec {
        seq: Vec<u64> => List<Dec>,
        home: Vec<(u64, usize, NodeId, u64)> => List<(Dec, Plain, Node, Dec)>,
        unflushed: Vec<UnflushedRow>,
    }
);
json_struct!(
    /// One processor's unflushed words of one line, as `(word, proc, seq)`.
    struct UnflushedRow {
        proc: NodeId => Node,
        line: u64 => Dec,
        words: Vec<(usize, NodeId, u64)> => List<(Plain, Node, Dec)>,
    }
);

/// Is `rows` an `n` × `n` table?
fn is_square<T>(rows: &[Vec<T>], n: usize) -> bool {
    rows.len() == n && rows.iter().all(|r| r.len() == n)
}

/// `items` as a vector ordered by `key` (hash-map tables have no order of
/// their own).
fn sorted_by_key<T, K: Ord>(items: impl Iterator<Item = T>, key: impl FnMut(&T) -> K) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort_unstable_by_key(key);
    v
}

/// A captured machine state: a versioned JSON document that restores to a
/// machine whose continued run is bit-identical to the uninterrupted one.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    root: Value,
}

impl MachineSnapshot {
    /// Capture `m`'s complete simulation state. `m` must be paused between
    /// events (as [`Machine::run_until`] leaves it). Returns
    /// [`SnapshotError::Unsupported`] when the machine carries state the
    /// format does not serialize — see the module docs for the refusal set.
    pub fn capture(m: &Machine) -> R<Self> {
        let obs = m.observers.as_deref();
        if let Some(o) = obs {
            if o.classifier.is_some() {
                return Err(unsupported("miss classification is enabled"));
            }
            if o.sink.is_some() {
                return Err(unsupported("a structured trace sink is attached"));
            }
            if o.probe.is_some() {
                return Err(unsupported("latency probes are enabled"));
            }
            if o.sampler.is_some() {
                return Err(unsupported("the metrics sampler is enabled"));
            }
        }
        if m.choice_driven {
            return Err(unsupported("machine is driven by the model checker"));
        }
        if m.nack_nth.is_some() {
            return Err(unsupported("a nack_nth checker choice point is set"));
        }
        if m.fault != Fault::None {
            return Err(unsupported("an injected protocol bug is active"));
        }

        // A crash-only plan never activates the link-layer injector, so the
        // network holds no plan; synthesize one around the crash plan the
        // machine kept, or restore could not re-arm the subsystem.
        let fault_plan = match (m.net.fault_plan(), m.crash.as_deref()) {
            (Some(plan), _) => Some(plan.clone()),
            (None, Some(c)) => Some(FaultPlan::off(0).with_crash(c.plan.clone())),
            (None, None) => None,
        };
        let values = obs.and_then(|o| o.values.as_ref()).map(|vt| {
            let (seq, home, unflushed) = vt.save_parts();
            ValuesRec {
                seq: seq.to_vec(),
                home: home.map(|(line, w, id)| (line, w, id.proc, id.seq)).collect(),
                unflushed: unflushed
                    .map(|(proc, line, words)| UnflushedRow {
                        proc,
                        line,
                        words: words.map(|(w, id)| (w, id.proc, id.seq)).collect(),
                    })
                    .collect(),
            }
        });
        // Each line's home record travels as rows of four tables, each in
        // ascending line order; a zero NACK count writes no row.
        let (mut dir, mut parked) = (Vec::new(), Vec::new());
        let (mut busy_info, mut nacks_given) = (Vec::new(), Vec::new());
        for (line, e) in m.dir.iter() {
            dir.push(DirRow {
                line,
                sharers: e.sharers(),
                writers: e.writers(),
                notified: e.notified(),
                pending: e.pending.clone(),
                busy: e.forward.is_some(),
                overflow: e.overflow,
            });
            if !e.parked.is_empty() {
                let msgs = e.parked.iter().map(|&(msg, at)| ParkedMsg { msg, at }).collect();
                parked.push(ParkedRow { line, msgs });
            }
            if let Some(ep) = e.forward {
                busy_info.push(BusyRow { line, ep });
            }
            if e.nacks != 0 {
                nacks_given.push((line, e.nacks));
            }
        }
        let doc = Doc {
            version: SNAPSHOT_VERSION,
            protocol: m.protocol,
            config: m.cfg.clone(),
            fault_plan,
            workload: WorkloadRec {
                name: m.workload.name().to_string(),
                ops_consumed: m.ops_consumed.clone(),
            },
            now: m.queue.now(),
            handled: m.handled,
            finished: m.finished,
            max_cycles: m.max_cycles,
            check_every: m.check_every,
            watchdog: m.watchdog,
            forward_seq: m.forward_seq,
            park_seq: m.park_seq,
            recorder_armed: obs.is_some_and(|o| o.recorder.is_some()),
            ev_seq: m.ev_seq.clone(),
            queue: QueueRec {
                peak: m.queue.peak_len(),
                events: m
                    .queue
                    .pending_entries()
                    .into_iter()
                    .map(|(at, key, ev)| QueuedEvent { at, key, ev: ev.clone() })
                    .collect(),
            },
            nodes: m.nodes.iter().map(Self::capture_node).collect(),
            dir,
            parked,
            page_home: m.page_home.iter().map(|(page, &home)| (page, home)).collect(),
            busy_info,
            nacks_given,
            pending_ni_retries: m.pending_ni_retries,
            last_ni_reject: m.last_ni_reject,
            net: m.net.save_state(),
            xmit: m.xmit.as_deref().map(|x| XmitRec {
                next_seq: x.next_seq,
                in_flight: sorted_by_key(
                    x.in_flight.iter().map(|(&seq, &f)| InFlightRow { seq, f }),
                    |r| r.seq,
                ),
                seen: sorted_by_key(x.seen.iter().copied(), |&s| s),
                gave_up: x.gave_up.clone(),
                counters: x.counters,
            }),
            grant_log: m.grant_log.clone(),
            values,
            race: obs.and_then(|o| o.race.as_ref()).map(RaceDetector::save_state),
            crash: m.crash.as_deref().cloned(),
            stats: m.stats.clone(),
        };
        Ok(MachineSnapshot { root: doc.to_json() })
    }

    fn capture_node(n: &crate::node::Node) -> NodeRec {
        let (slots, tick) = n.cache.save_slots();
        NodeRec {
            status: n.status,
            stall_start: n.stall_start,
            stall_kind: n.stall_kind,
            deferred_op: n.deferred_op,
            step_scheduled: n.step_scheduled,
            cache: CacheRec { slots, tick },
            wb: n.wb.iter().map(|e| (e.line, e.words, e.ready, e.issued)).collect(),
            cb: n.cb.iter().map(|e| (e.line, e.words)).collect(),
            mem: (n.mem.free_at(), n.mem.busy_cycles(), n.mem.accesses()),
            bus: (n.bus.free_at(), n.bus.busy_cycles()),
            pp: (n.pp.free_at(), n.pp.busy_cycles()),
            outstanding: sorted_by_key(
                n.outstanding.iter().map(|(&line, &o)| OutstandingRow { line, o }),
                |r| r.line,
            ),
            pending_invals: sorted_by_key(n.pending_invals.iter().copied(), |&l| l),
            inval_all: n.inval_all,
            delayed_writes: sorted_by_key(n.delayed_writes.iter().map(|(&l, &w)| (l, w)), |e| e.0),
            wt_unacked: n.wt_unacked,
            wbk_unacked: n.wbk_unacked,
            inval_done_at: n.inval_done_at,
            parked_forwards: sorted_by_key(
                n.parked_forwards.iter().map(|(&l, &msg)| (l, msg)),
                |e| e.0,
            ),
            locks: n
                .locks
                .save_exact()
                .into_iter()
                .map(|(lock, holder, queue)| LockRow { lock, holder, queue })
                .collect(),
            barriers: n
                .barriers
                .save_exact()
                .into_iter()
                .map(|(bar, arrived)| BarrierRow { bar, arrived })
                .collect(),
        }
    }

    /// Serialize to the canonical pretty-printed JSON document.
    /// Serialize → [`MachineSnapshot::parse`] → serialize is
    /// byte-identical.
    pub fn to_json_string(&self) -> String {
        self.root.pretty()
    }

    /// Parse a snapshot document. Fails with
    /// [`SnapshotError::UnknownVersion`] for documents written by a
    /// different schema version and [`SnapshotError::Corrupt`] for
    /// truncated or malformed input — never panics.
    pub fn parse(s: &str) -> R<Self> {
        let root =
            lrc_json::parse(s).map_err(|e| corrupt(format!("JSON parse error: {e}")))?;
        let snap = MachineSnapshot { root };
        snap.check_version()?;
        Ok(snap)
    }

    fn check_version(&self) -> R<()> {
        let found = self
            .root
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| corrupt("missing snapshot version stamp"))?;
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&found) {
            return Err(SnapshotError::UnknownVersion { found });
        }
        Ok(())
    }

    /// The simulated cycle the machine was captured at.
    pub fn cycle(&self) -> Cycle {
        <Dec as Wire<u64>>::take(&self.root, "now", Ctx::default()).unwrap_or(0)
    }

    /// The protocol the captured machine was simulating.
    pub fn protocol(&self) -> Option<Protocol> {
        self.root.get("protocol").and_then(Protocol::from_json)
    }

    /// The captured machine configuration.
    pub fn config(&self) -> Option<MachineConfig> {
        self.root.get("config").and_then(MachineConfig::from_json)
    }

    /// The fault plan active in the captured run, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.root.get("fault_plan").and_then(Option::<FaultPlan>::from_json).flatten()
    }

    /// Rebuild the captured machine. `workload` must be a **fresh**
    /// instance of the same workload the snapshot was taken under (matched
    /// by name and processor count); restore replays the consumed-op
    /// counts against it, which the [`Workload::next_op`] determinism
    /// contract makes exact. Drive the result with [`Machine::run_until`]
    /// and [`Machine::finish_run`] — do **not** call
    /// [`Machine::start_run`], the restored queue already holds the
    /// mid-run events.
    pub fn restore(&self, workload: Box<dyn Workload>) -> R<Machine> {
        self.check_version()?;
        // The configuration sizes everything else: check it before the
        // rest of the document is decoded against it, and the sizes the
        // machine allocates from it before the machine is built.
        let cfg: MachineConfig = <Plain as Wire<_>>::take(&self.root, "config", Ctx::default())
            .map_err(|e| corrupt(e.to_string()))?;
        cfg.validate().map_err(|e| corrupt(format!("config: {e}")))?;
        let np = cfg.num_procs;
        if np > NodeSet::CAPACITY {
            return Err(corrupt(format!("config: {np} processors exceed {}", NodeSet::CAPACITY)));
        }
        let doc = Doc::decode(&self.root, Ctx { nodes: np }).map_err(|e| corrupt(e.to_string()))?;
        let per_proc = [
            ("nodes", doc.nodes.len()),
            ("ev_seq", doc.ev_seq.len()),
            ("workload.ops_consumed", doc.workload.ops_consumed.len()),
            ("stats.procs", doc.stats.procs.len()),
        ];
        if let Some((what, n)) = per_proc.into_iter().find(|&(_, n)| n != np) {
            return Err(corrupt(format!("{what}: expected {np} entries, got {n}")));
        }
        let slots = cfg.lines_per_cache();
        if let Some(p) = doc.nodes.iter().position(|n| n.cache.slots.len() != slots) {
            return Err(corrupt(format!("nodes[{p}]: cache slot count mismatch")));
        }
        if doc.finished > np {
            return Err(corrupt(format!("finished count {} exceeds {np}", doc.finished)));
        }
        if doc.queue.events.iter().any(|e| matches!(e.ev, Event::Sample)) {
            return Err(corrupt("queue holds a metrics-sampler tick"));
        }

        let mut m = Machine::new(cfg, doc.protocol);
        if let Some(plan) = doc.fault_plan {
            m = m.with_fault_plan(plan);
        }
        // The link layer exists exactly when the plan is active, and the
        // crash subsystem exactly when the plan carries a crash section
        // (v1 documents have neither); a snapshot disagreeing with its own
        // plan is corrupt.
        if doc.xmit.is_some() != m.xmit.is_some() {
            return Err(corrupt("xmit state inconsistent with fault plan"));
        }
        if doc.crash.is_some() != m.crash.is_some() {
            return Err(corrupt("crash state inconsistent with fault plan"));
        }

        // Workload: match, then fast-forward by the consumed-op counts.
        let wname = &doc.workload.name;
        if workload.name() != wname {
            return Err(unsupported(format!(
                "workload mismatch: snapshot was taken under `{wname}`, got `{}`",
                workload.name()
            )));
        }
        if workload.num_procs() != np {
            return Err(unsupported(format!(
                "workload has {} processors, snapshot machine has {np}",
                workload.num_procs()
            )));
        }
        let mut workload = workload;
        for (p, &count) in doc.workload.ops_consumed.iter().enumerate() {
            for i in 1..=count {
                // A processor calls `next_op` no more once it receives
                // `Done`, so a count past its first `Done` is corrupt (and
                // replaying it could take up to 2^64 calls).
                if workload.next_op(p) == Op::Done && i < count {
                    let why = format!("{count} ops, but the workload is done after {i}");
                    return Err(corrupt(format!("workload.ops_consumed[{p}]: {why}")));
                }
            }
        }
        // Every line, page and word key below derives from a workload
        // address, all of which lie below `addr_space`. A key past it is
        // corrupt, and would size a dense table to the key.
        let space = workload.addr_space();
        let lines = space.div_ceil(m.cfg.line_size as u64);
        let pages = space.div_ceil(m.cfg.page_size as u64);
        let in_space = |table: &str, key: u64, bound: u64| {
            if key < bound {
                return Ok(());
            }
            let why = format!("key {key} lies past the workload's address space ({bound} keys)");
            Err(corrupt(format!("{table}: {why}")))
        };
        m.workload = workload;
        m.ops_consumed = doc.workload.ops_consumed;

        // Run-control scalars.
        m.finished = doc.finished;
        m.handled = doc.handled;
        m.max_cycles = doc.max_cycles;
        m.check_every = doc.check_every;
        m.watchdog = doc.watchdog;
        m.forward_seq = doc.forward_seq;
        m.park_seq = doc.park_seq;
        m.pending_ni_retries = doc.pending_ni_retries;
        m.last_ni_reject = doc.last_ni_reject;

        for (p, rec) in doc.nodes.into_iter().enumerate() {
            let node = &mut m.nodes[p];
            Self::restore_node(node, rec).map_err(|e| corrupt(format!("node {p}: {e}")))?;
        }

        // The directory: each line's home record, from four tables that
        // must agree. A `dir` row is `busy` exactly when its line has a
        // `busy_info` episode, and a `parked`, `busy_info` or `nacks_given`
        // row needs its line's `dir` row.
        let no_dir_row =
            |table: &str, line: u64| corrupt(format!("{table}: line {line} has no dir row"));
        let mut episodes = std::collections::BTreeMap::new();
        for r in doc.busy_info {
            in_space("busy_info", r.line, lines)?;
            episodes.insert(r.line, r.ep);
        }
        for r in doc.dir {
            in_space("dir", r.line, lines)?;
            let mut entry =
                DirEntry::from_parts(r.sharers, r.writers, r.notified, r.pending, r.overflow)
                    .map_err(corrupt)?;
            if r.busy {
                let ep = episodes.remove(&r.line).ok_or_else(|| {
                    corrupt(format!("dir: line {} is busy without a busy_info episode", r.line))
                })?;
                entry.forward = Some(ep);
            }
            m.dir.insert(r.line, entry);
        }
        if let Some(&line) = episodes.keys().next() {
            return Err(if m.dir.contains_key(line) {
                corrupt(format!("busy_info: line {line} has a dir row that is not busy"))
            } else {
                no_dir_row("busy_info", line)
            });
        }
        for r in doc.parked {
            in_space("parked", r.line, lines)?;
            let e = m.dir.get_mut(r.line).ok_or_else(|| no_dir_row("parked", r.line))?;
            e.parked = r.msgs.into_iter().map(|p| (p.msg, p.at)).collect();
        }
        for (line, n) in doc.nacks_given {
            in_space("nacks_given", line, lines)?;
            m.dir.get_mut(line).ok_or_else(|| no_dir_row("nacks_given", line))?.nacks = n;
        }
        for (page, home) in doc.page_home {
            in_space("page_home", page, pages)?;
            m.page_home.insert(page, home);
        }

        // Network, link layer, trackers, statistics.
        m.net.restore_state(&doc.net).map_err(corrupt)?;
        if let Some(x) = doc.xmit {
            let mut st = XmitState { next_seq: x.next_seq, ..XmitState::default() };
            for r in x.in_flight {
                if st.in_flight.insert(r.seq, r.f).is_some() {
                    return Err(corrupt(format!("xmit: duplicate in-flight seq {}", r.seq)));
                }
            }
            st.seen.extend(x.seen);
            st.gave_up = x.gave_up;
            st.counters = x.counters;
            m.xmit = Some(Box::new(st));
        }
        m.grant_log = doc.grant_log;
        if let Some(vr) = doc.values {
            if vr.seq.len() != np {
                return Err(corrupt(format!("values.seq: expected {np} entries")));
            }
            let words = m.cfg.words_per_line();
            let in_line = |table: &str, w: usize| {
                if w < words {
                    return Ok(());
                }
                Err(corrupt(format!("{table}: word {w} lies past the line's {words} words")))
            };
            for &(line, w, _, _) in &vr.home {
                in_space("values.home", line, lines)?;
                in_line("values.home", w)?;
            }
            for r in &vr.unflushed {
                in_space("values.unflushed", r.line, lines)?;
                for &(w, writer, _) in &r.words {
                    in_line("values.unflushed", w)?;
                    if writer != r.proc {
                        let (p, line) = (r.proc, r.line);
                        let why = format!("proc {p}'s line {line} holds proc {writer}'s store");
                        return Err(corrupt(format!("values.unflushed: {why}")));
                    }
                }
            }
            let home = vr.home.into_iter().map(|(l, w, proc, seq)| (l, w, WriteId { proc, seq }));
            let unflushed = vr.unflushed.into_iter().flat_map(|r| {
                let words = r.words.into_iter();
                words.map(move |(w, _, seq)| (r.proc, r.line, w, seq))
            });
            let vt = ValueTracker::from_parts(vr.seq, words, home, unflushed);
            m.observers_mut().values = Some(vt);
        }
        if let Some(st) = doc.race {
            for w in &st.words {
                in_space("race.words", w.addr, space)?;
            }
            let race = RaceDetector::from_state(st).map_err(|e| corrupt(format!("race: {e}")))?;
            m.observers_mut().race = Some(race);
        }
        m.stats = doc.stats;
        if let (Some(live), Some(c)) = (m.crash.as_deref_mut(), doc.crash) {
            // with_fault_plan armed a fresh context; overlay the captured
            // runtime state (deaths, suspicions, leases, unacked credit).
            if c.suspected.len() != np
                || !is_square(&c.last_heard, np)
                || !is_square(&c.wt_to, np)
                || !is_square(&c.wbk_to, np)
            {
                return Err(corrupt(format!("crash: tables must be {np} x {np}")));
            }
            *live = CrashCtx { plan: live.plan.clone(), ..c };
        }

        // Event queue: tie keys, the clock, and the high-water mark.
        m.ev_seq = doc.ev_seq;
        let entries = doc.queue.events.into_iter().map(|e| (e.at, e.key, e.ev)).collect();
        m.queue = EventQueue::from_entries(entries, doc.now, doc.queue.peak);

        // The snapshot stores no flight-recorder ring contents (they never
        // affect simulation); re-arm a default-depth recorder so wedge
        // diagnoses after a restore still carry an event tail.
        if doc.recorder_armed {
            let o = m.observers_mut();
            if o.recorder.is_none() {
                o.recorder = Some(FlightRecorder::new(np, DEFAULT_FLIGHT_CAP));
            }
        }
        Ok(m)
    }

    fn restore_node(n: &mut crate::node::Node, r: NodeRec) -> Result<(), &'static str> {
        if !n.cache.restore_slots(&r.cache.slots, r.cache.tick) {
            return Err("cache slot count mismatch");
        }
        let wb: Vec<_> = r
            .wb
            .into_iter()
            .map(|(line, words, ready, issued)| WbEntry { line, words, ready, issued })
            .collect();
        if !n.wb.restore_entries(&wb) {
            return Err("write buffer over capacity");
        }
        let cb: Vec<_> = r.cb.into_iter().map(|(line, words)| CbEntry { line, words }).collect();
        if !n.cb.restore_entries(&cb) {
            return Err("coalescing buffer over capacity");
        }
        n.status = r.status;
        n.stall_start = r.stall_start;
        n.stall_kind = r.stall_kind;
        n.deferred_op = r.deferred_op;
        n.step_scheduled = r.step_scheduled;
        n.mem.restore(r.mem.0, r.mem.1, r.mem.2);
        n.bus.restore(r.bus.0, r.bus.1);
        n.pp.restore(r.pp.0, r.pp.1);
        n.outstanding = r.outstanding.into_iter().map(|row| (row.line, row.o)).collect();
        n.pending_invals = r.pending_invals.into_iter().collect();
        n.inval_all = r.inval_all;
        n.delayed_writes = r.delayed_writes.into_iter().collect();
        n.wt_unacked = r.wt_unacked;
        n.wbk_unacked = r.wbk_unacked;
        n.inval_done_at = r.inval_done_at;
        n.parked_forwards = r.parked_forwards.into_iter().collect();
        let locks: Vec<_> = r.locks.into_iter().map(|l| (l.lock, l.holder, l.queue)).collect();
        n.locks.restore(&locks);
        let barriers: Vec<_> = r.barriers.into_iter().map(|b| (b.bar, b.arrived)).collect();
        n.barriers.restore(&barriers);
        Ok(())
    }
}

impl Machine {
    /// Capture this machine's complete simulation state — see
    /// [`MachineSnapshot::capture`].
    pub fn snapshot(&self) -> Result<MachineSnapshot, SnapshotError> {
        MachineSnapshot::capture(self)
    }
}
