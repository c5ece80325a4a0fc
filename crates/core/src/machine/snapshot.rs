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
//! Design rules that make that guarantee hold:
//!
//! * **u64s travel as decimal strings.** `lrc-json` numbers are `f64`,
//!   exact only to 2^53; event tie keys (node index in the top 16 bits),
//!   dirty-word masks, RNG streams, and `u64::MAX` sentinels all exceed
//!   that. Small ids and counts (processor ids, queue depths) stay numeric.
//! * **Deterministic field order.** Capture emits objects in a fixed field
//!   order and sorts every hash-map table, so serialize → parse →
//!   re-serialize is byte-identical, and capturing a restored machine
//!   yields byte-identical JSON to the original capture.
//! * **Workloads restore by replay, not by serialization.** The snapshot
//!   stores the workload's name and the per-processor count of `next_op`
//!   calls consumed; restore fast-forwards a caller-supplied fresh instance
//!   by those counts, which the determinism contract of
//!   [`Workload::next_op`] makes exact.
//! * **Refuse what cannot round-trip.** Capture returns
//!   [`SnapshotError::Unsupported`] for machines carrying state v1 does not
//!   serialize (trace sinks, latency probes, samplers, miss classification,
//!   checker-driven exploration, injected protocol bugs). The flight
//!   recorder is the one observer allowed: its ring contents are not saved
//!   (they never affect simulation), and restore re-arms a default-depth
//!   recorder that refills within a few thousand events.

use super::obs::DEFAULT_FLIGHT_CAP;
use super::values::ValueTracker;
use super::xmit::{InFlight, XmitCounters, XmitState};
use super::{Event, Fault, ForwardEp, Machine};
use crate::directory::{nodes_in, AckCollection, DirEntry, NodeSet};
use crate::msg::{Msg, MsgKind, WriteGrant};
use crate::node::{Outstanding, PendingSync, ProcStatus};
use lrc_json::{FromJson, ToJson, Value};
use lrc_mem::{CbEntry, LineState, WbEntry};
use lrc_mesh::{
    CrashPlan, FaultCounters, FaultPlan, FaultRates, InjectorState, MsgClass, NetworkState,
    NiSnapshot,
};
use lrc_race::{
    BarrierState as RaceBarrierState, RaceDetector, RaceDetectorState, ReadState as RaceReadState,
    WordState,
};
use lrc_sim::refint::WriteId;
use lrc_sim::{
    Cycle, EventQueue, LineAddr, MachineConfig, MachineStats, Op, ProcId, Protocol, RaceSite,
    StallKind, Workload,
};
use lrc_trace::FlightRecorder;
use std::collections::{BTreeMap, VecDeque};

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

// ---------------------------------------------------------------- encoding
// `su` renders a u64 as a decimal string (exact at any magnitude); `nu`
// renders a small integer numerically. Rule: anything that can carry high
// bits (addresses, masks, tie keys, cycles, seqs, RNG state) goes `su`;
// bounded ids and counts go `nu`.

fn su(x: u64) -> Value {
    Value::Str(x.to_string())
}

fn nu(x: u64) -> Value {
    debug_assert!(x < (1 << 53), "numeric JSON field would lose precision");
    Value::Num(x as f64)
}

fn obj(fields: Vec<(&'static str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn tag(t: &str) -> (&'static str, Value) {
    ("t", Value::Str(t.to_string()))
}

fn enc_node_list(set: NodeSet) -> Value {
    Value::Array(nodes_in(set).map(|n| nu(n as u64)).collect())
}

fn enc_msg(m: &Msg) -> Value {
    obj(vec![
        ("src", nu(m.src as u64)),
        ("dst", nu(m.dst as u64)),
        ("kind", enc_kind(&m.kind)),
    ])
}

fn enc_kind(k: &MsgKind) -> Value {
    use MsgKind::*;
    let mut f: Vec<(&'static str, Value)> = vec![tag(k.name())];
    match *k {
        ReadReq { line }
        | WriteAck { line }
        | WriteThroughAck { line }
        | WriteBackAck { line }
        | Invalidate { line }
        | WriteNotice { line }
        | InvAck { line }
        | NoticeAck { line } => f.push(("line", su(line.0))),
        WriteReq { line, had_copy, words } => {
            f.push(("line", su(line.0)));
            f.push(("had_copy", Value::Bool(had_copy)));
            f.push(("words", su(words)));
        }
        WriteThrough { line, words } | WriteBack { line, words } => {
            f.push(("line", su(line.0)));
            f.push(("words", su(words)));
        }
        EvictNotify { line, was_writer } => {
            f.push(("line", su(line.0)));
            f.push(("was_writer", Value::Bool(was_writer)));
        }
        ReadReply { line, weak } => {
            f.push(("line", su(line.0)));
            f.push(("weak", Value::Bool(weak)));
        }
        WriteReply { line, grant, with_data, weak } => {
            f.push(("line", su(line.0)));
            let g = match grant {
                WriteGrant::Immediate => "immediate",
                WriteGrant::Pending => "pending",
            };
            f.push(("grant", Value::Str(g.to_string())));
            f.push(("with_data", Value::Bool(with_data)));
            f.push(("weak", Value::Bool(weak)));
        }
        Forward { line, requester, for_write, ep }
        | ForwardNack { line, requester, for_write, ep } => {
            f.push(("line", su(line.0)));
            f.push(("req", nu(requester as u64)));
            f.push(("for_write", Value::Bool(for_write)));
            f.push(("ep", su(ep)));
        }
        OwnerData { line, for_write } => {
            f.push(("line", su(line.0)));
            f.push(("for_write", Value::Bool(for_write)));
        }
        CopyBack { line, demoted_to_shared, ep } => {
            f.push(("line", su(line.0)));
            f.push(("demoted", Value::Bool(demoted_to_shared)));
            f.push(("ep", su(ep)));
        }
        LockAcq { lock } | LockGrant { lock } | LockRel { lock } => {
            f.push(("lock", nu(lock as u64)));
        }
        BarrierArrive { bar } | BarrierRelease { bar } => f.push(("bar", nu(bar as u64))),
        BusyNack { line, for_write, had_copy, words, attempt } => {
            f.push(("line", su(line.0)));
            f.push(("for_write", Value::Bool(for_write)));
            f.push(("had_copy", Value::Bool(had_copy)));
            f.push(("words", su(words)));
            f.push(("attempt", nu(attempt as u64)));
        }
        ForwardCancel { line, ep } => {
            f.push(("line", su(line.0)));
            f.push(("ep", su(ep)));
        }
        Heartbeat => {}
    }
    obj(f)
}

fn enc_event(ev: &Event) -> R<Value> {
    Ok(match ev {
        Event::ProcStep(p) => obj(vec![tag("step"), ("p", nu(*p as u64))]),
        Event::Msg(m) => obj(vec![tag("msg"), ("msg", enc_msg(m))]),
        Event::CbFlush(p, line) => {
            obj(vec![tag("cb"), ("p", nu(*p as u64)), ("line", su(line.0))])
        }
        Event::XMsg { msg, seq, corrupt } => obj(vec![
            tag("xmsg"),
            ("msg", enc_msg(msg)),
            ("seq", su(*seq)),
            ("corrupt", Value::Bool(*corrupt)),
        ]),
        Event::LinkCtl { seq, ack } => {
            obj(vec![tag("linkctl"), ("seq", su(*seq)), ("ack", Value::Bool(*ack))])
        }
        Event::RetryTimer { seq } => obj(vec![tag("retry"), ("seq", su(*seq))]),
        Event::NiRetry { msg, attempts } => obj(vec![
            tag("ni"),
            ("msg", enc_msg(msg)),
            ("attempts", nu(*attempts as u64)),
        ]),
        Event::NackRetry { msg } => obj(vec![tag("nack"), ("msg", enc_msg(msg))]),
        // Sample events exist only while a sampler is armed, which capture
        // refuses before it walks the queue.
        Event::Sample => return Err(unsupported("pending metrics-sampler tick")),
        Event::LeaseTick => obj(vec![tag("lease")]),
        Event::CrashNode { victim } => {
            obj(vec![tag("crashnode"), ("victim", nu(*victim as u64))])
        }
    })
}

fn enc_op(op: &Op) -> Value {
    match *op {
        Op::Compute(n) => obj(vec![tag("compute"), ("n", nu(n as u64))]),
        Op::Read(a) => obj(vec![tag("read"), ("a", su(a))]),
        Op::Write(a) => obj(vec![tag("write"), ("a", su(a))]),
        Op::Acquire(l) => obj(vec![tag("acquire"), ("lock", nu(l as u64))]),
        Op::Release(l) => obj(vec![tag("release"), ("lock", nu(l as u64))]),
        Op::Barrier(b) => obj(vec![tag("barrier"), ("bar", nu(b as u64))]),
        Op::Fence => obj(vec![tag("fence")]),
        Op::Done => obj(vec![tag("done")]),
    }
}

fn enc_pending_sync(s: &PendingSync) -> Value {
    match *s {
        PendingSync::LockRelease(l) => obj(vec![tag("lockrel"), ("lock", nu(l as u64))]),
        PendingSync::Barrier(b) => obj(vec![tag("barrier"), ("bar", nu(b as u64))]),
    }
}

fn enc_status(s: &ProcStatus) -> Value {
    match *s {
        ProcStatus::Running => obj(vec![tag("running")]),
        ProcStatus::StalledRead(line) => obj(vec![tag("sread"), ("line", su(line.0))]),
        ProcStatus::StalledWriteFull => obj(vec![tag("swfull")]),
        ProcStatus::StalledWrite(line) => obj(vec![tag("swrite"), ("line", su(line.0))]),
        ProcStatus::Releasing(ref ps) => obj(vec![tag("releasing"), ("sync", enc_pending_sync(ps))]),
        ProcStatus::WaitingLock(l) => obj(vec![tag("wlock"), ("lock", nu(l as u64))]),
        ProcStatus::InBarrier(b) => obj(vec![tag("inbar"), ("bar", nu(b as u64))]),
        ProcStatus::Finished => obj(vec![tag("finished")]),
        ProcStatus::Crashed => obj(vec![tag("crashed")]),
    }
}

fn stall_kind_name(k: StallKind) -> &'static str {
    match k {
        StallKind::Cpu => "cpu",
        StallKind::Read => "read",
        StallKind::Write => "write",
        StallKind::Sync => "sync",
    }
}

fn line_state_name(s: LineState) -> &'static str {
    match s {
        LineState::Invalid => "inv",
        LineState::ReadOnly => "ro",
        LineState::ReadWrite => "rw",
    }
}

fn enc_site(s: &RaceSite) -> Value {
    s.to_json()
}

fn enc_fault_plan(plan: &FaultPlan) -> Value {
    let rates = plan
        .rates
        .iter()
        .map(|r| {
            obj(vec![
                ("drop", Value::Num(r.drop)),
                ("duplicate", Value::Num(r.duplicate)),
                ("delay", Value::Num(r.delay)),
                ("corrupt", Value::Num(r.corrupt)),
            ])
        })
        .collect();
    let drop_nth = match plan.drop_nth {
        None => Value::Null,
        Some((class, n)) => Value::Array(vec![nu(class.index() as u64), su(n)]),
    };
    let crash = match &plan.crash {
        None => Value::Null,
        Some(cp) => {
            let victims = cp
                .victims
                .iter()
                .map(|&(n, at)| Value::Array(vec![nu(n as u64), su(at)]))
                .collect();
            let crash_nth = match cp.crash_nth {
                None => Value::Null,
                Some((n, k)) => Value::Array(vec![nu(n as u64), su(k)]),
            };
            obj(vec![
                ("victims", Value::Array(victims)),
                ("crash_nth", crash_nth),
                ("heartbeat_every", su(cp.heartbeat_every)),
                ("lease_timeout", su(cp.lease_timeout)),
            ])
        }
    };
    obj(vec![
        ("seed", su(plan.seed)),
        ("rates", Value::Array(rates)),
        ("delay_cycles", su(plan.delay_cycles)),
        ("drop_nth", drop_nth),
        ("retry_timeout", su(plan.retry_timeout)),
        ("max_retries", nu(plan.max_retries as u64)),
        ("crash", crash),
    ])
}

fn enc_fault_counters(c: &FaultCounters) -> Value {
    obj(vec![
        ("dropped", su(c.dropped)),
        ("duplicated", su(c.duplicated)),
        ("delayed", su(c.delayed)),
        ("corrupted", su(c.corrupted)),
    ])
}

fn enc_net_state(st: &NetworkState) -> Value {
    let ni = match &st.ni {
        None => Value::Null,
        Some(ni) => obj(vec![
            (
                "ingress",
                Value::Array(
                    ni.ingress
                        .iter()
                        .map(|q| Value::Array(q.iter().map(|&t| su(t)).collect()))
                        .collect(),
                ),
            ),
            (
                "egress",
                Value::Array(
                    ni.egress
                        .iter()
                        .map(|q| Value::Array(q.iter().map(|&t| su(t)).collect()))
                        .collect(),
                ),
            ),
            ("peak_ingress", nu(ni.peak_ingress as u64)),
            ("peak_egress", nu(ni.peak_egress as u64)),
        ]),
    };
    let injector = match &st.injector {
        None => Value::Null,
        Some(inj) => obj(vec![
            ("streams", Value::Array(inj.streams.iter().map(|&s| su(s)).collect())),
            ("sent", Value::Array(inj.sent.iter().map(|&s| su(s)).collect())),
            ("counters", enc_fault_counters(&inj.counters)),
        ]),
    };
    obj(vec![
        ("send_free", Value::Array(st.send_free.iter().map(|&t| su(t)).collect())),
        ("msgs", su(st.msgs)),
        ("bytes_total", su(st.bytes_total)),
        ("ni", ni),
        ("injector", injector),
    ])
}

fn enc_xmit(x: &XmitState) -> Value {
    let mut in_flight: Vec<(u64, InFlight)> =
        x.in_flight.iter().map(|(&s, &f)| (s, f)).collect();
    in_flight.sort_unstable_by_key(|&(s, _)| s);
    let mut seen: Vec<u64> = x.seen.iter().copied().collect();
    seen.sort_unstable();
    let c = &x.counters;
    obj(vec![
        ("next_seq", su(x.next_seq)),
        (
            "in_flight",
            Value::Array(
                in_flight
                    .into_iter()
                    .map(|(s, f)| {
                        obj(vec![
                            ("seq", su(s)),
                            ("msg", enc_msg(&f.msg)),
                            ("attempts", nu(f.attempts as u64)),
                            ("deadline", su(f.next_deadline)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("seen", Value::Array(seen.into_iter().map(su).collect())),
        ("gave_up", Value::Array(x.gave_up.iter().map(enc_msg).collect())),
        (
            "counters",
            obj(vec![
                ("link_nacks", su(c.link_nacks)),
                ("retries", su(c.retries)),
                ("timeouts", su(c.timeouts)),
                ("retries_exhausted", su(c.retries_exhausted)),
                ("dup_suppressed", su(c.dup_suppressed)),
                ("link_msgs", su(c.link_msgs)),
            ]),
        ),
    ])
}

fn enc_values(vt: &ValueTracker) -> Value {
    let (seq, home, unflushed) = vt.save_parts();
    let home_a = home
        .iter()
        .map(|(&(line, word), id)| {
            Value::Array(vec![su(line), nu(word as u64), nu(id.proc as u64), su(id.seq)])
        })
        .collect();
    let unflushed_a = unflushed
        .iter()
        .map(|(&(p, line), words)| {
            obj(vec![
                ("proc", nu(p as u64)),
                ("line", su(line)),
                (
                    "words",
                    Value::Array(
                        words
                            .iter()
                            .map(|(&w, id)| {
                                Value::Array(vec![nu(w as u64), nu(id.proc as u64), su(id.seq)])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("seq", Value::Array(seq.iter().map(|&s| su(s)).collect())),
        ("home", Value::Array(home_a)),
        ("unflushed", Value::Array(unflushed_a)),
    ])
}

fn enc_crash_ctx(c: &super::crash::CrashCtx) -> Value {
    let matrix_su = |m: &[Vec<Cycle>]| {
        Value::Array(
            m.iter()
                .map(|row| Value::Array(row.iter().map(|&t| su(t)).collect()))
                .collect(),
        )
    };
    let matrix_nu = |m: &[Vec<u32>]| {
        Value::Array(
            m.iter()
                .map(|row| Value::Array(row.iter().map(|&x| nu(x as u64)).collect()))
                .collect(),
        )
    };
    obj(vec![
        ("crashed", enc_node_list(c.crashed)),
        ("crashed_unfinished", nu(c.crashed_unfinished as u64)),
        (
            "suspected",
            Value::Array(c.suspected.iter().map(|&s| enc_node_list(s)).collect()),
        ),
        ("last_heard", matrix_su(&c.last_heard)),
        ("wt_to", matrix_nu(&c.wt_to)),
        ("wbk_to", matrix_nu(&c.wbk_to)),
    ])
}

fn dec_crash_ctx(v: &Value, c: &mut super::crash::CrashCtx, np: usize) -> R<()> {
    let rows = |k: &str| -> R<&Vec<Value>> {
        let rows = d_arr(v, k)?;
        if rows.len() != np {
            return Err(corrupt(format!("crash.{k}: expected {np} rows, got {}", rows.len())));
        }
        Ok(rows)
    };
    let row = |rv: &Value, k: &str| -> R<Vec<Value>> {
        let r = rv
            .as_array()
            .ok_or_else(|| corrupt(format!("crash.{k}: expected row array")))?;
        if r.len() != np {
            return Err(corrupt(format!("crash.{k}: expected {np} columns, got {}", r.len())));
        }
        Ok(r.clone())
    };
    c.crashed = d_node_set(v, "crashed", np)?;
    c.crashed_unfinished = d_usize(v, "crashed_unfinished")?;
    c.suspected = rows("suspected")?
        .iter()
        .map(|rv| {
            rv.as_array()
                .ok_or_else(|| corrupt("crash.suspected: expected array"))?
                .iter()
                .map(|e| node_val(e, np, "crash.suspected"))
                .collect::<R<Vec<usize>>>()
                .map(|nodes| nodes.into_iter().collect())
        })
        .collect::<R<Vec<NodeSet>>>()?;
    c.last_heard = rows("last_heard")?
        .iter()
        .map(|rv| row(rv, "last_heard")?.iter().map(|e| as_su(e, "crash.last_heard")).collect())
        .collect::<R<Vec<Vec<Cycle>>>>()?;
    let credit = |k: &'static str| -> R<Vec<Vec<u32>>> {
        rows(k)?
            .iter()
            .map(|rv| {
                row(rv, k)?
                    .iter()
                    .map(|e| {
                        let x = e
                            .as_u64()
                            .ok_or_else(|| corrupt(format!("crash.{k}: expected integer")))?;
                        u32::try_from(x)
                            .map_err(|_| corrupt(format!("crash.{k}: {x} exceeds u32")))
                    })
                    .collect()
            })
            .collect()
    };
    c.wt_to = credit("wt_to")?;
    c.wbk_to = credit("wbk_to")?;
    Ok(())
}

fn enc_race(st: &RaceDetectorState) -> Value {
    let clocks_a = |cs: &[u64]| Value::Array(cs.iter().map(|&c| su(c)).collect());
    let words = st
        .words
        .iter()
        .map(|w| {
            let write = match &w.write {
                None => Value::Null,
                Some((p, c, site)) => {
                    Value::Array(vec![nu(*p as u64), su(*c), enc_site(site)])
                }
            };
            let read = match &w.read {
                RaceReadState::None => obj(vec![tag("none")]),
                RaceReadState::Epoch(p, c, site) => obj(vec![
                    tag("epoch"),
                    ("proc", nu(*p as u64)),
                    ("clock", su(*c)),
                    ("site", enc_site(site)),
                ]),
                RaceReadState::Vector(cs, sites) => obj(vec![
                    tag("vector"),
                    ("clocks", clocks_a(cs)),
                    ("sites", Value::Array(sites.iter().map(enc_site).collect())),
                ]),
            };
            obj(vec![
                ("addr", su(w.addr)),
                ("write", write),
                ("read", read),
                ("racy", Value::Bool(w.racy)),
            ])
        })
        .collect();
    let barriers = st
        .barriers
        .iter()
        .map(|b| {
            obj(vec![
                ("id", nu(b.id as u64)),
                ("gather", clocks_a(&b.gather)),
                ("arrivals", nu(b.arrivals as u64)),
                ("completed", clocks_a(&b.completed)),
            ])
        })
        .collect();
    obj(vec![
        ("num_procs", nu(st.num_procs as u64)),
        ("word_size", su(st.word_size)),
        ("clocks", Value::Array(st.clocks.iter().map(|c| clocks_a(c)).collect())),
        ("refs", clocks_a(&st.refs)),
        (
            "locks",
            Value::Array(
                st.locks
                    .iter()
                    .map(|(l, c)| Value::Array(vec![nu(*l as u64), clocks_a(c)]))
                    .collect(),
            ),
        ),
        ("barriers", Value::Array(barriers)),
        ("words", Value::Array(words)),
        ("stats", st.stats.to_json()),
    ])
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
    /// [`SnapshotError::Unsupported`] when the machine carries state v1
    /// does not serialize — see the module docs for the refusal set.
    pub fn capture(m: &Machine) -> R<Self> {
        if m.classifier.is_some() {
            return Err(unsupported("miss classification is enabled"));
        }
        if let Some(o) = m.obs.as_deref() {
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

        let np = m.cfg.num_procs;
        // A crash-only plan never activates the link-layer injector, so the
        // network holds no plan; synthesize one around the crash plan the
        // machine kept, or restore could not re-arm the subsystem.
        let fault_plan = match (m.net.fault_plan(), m.crash.as_deref()) {
            (Some(plan), _) => enc_fault_plan(plan),
            (None, Some(c)) => {
                enc_fault_plan(&FaultPlan::off(0).with_crash(c.plan.clone()))
            }
            (None, None) => Value::Null,
        };

        let mut events = Vec::with_capacity(m.queue.len());
        for (at, key, ev) in m.queue.pending_entries() {
            events.push(obj(vec![("at", su(at)), ("key", su(key)), ("ev", enc_event(ev)?)]));
        }
        let queue = obj(vec![
            ("peak", nu(m.queue.peak_len() as u64)),
            ("events", Value::Array(events)),
        ]);

        let nodes = (0..np).map(|p| Self::capture_node(m, p)).collect();

        let dir = m
            .dir
            .iter()
            .map(|(line, e)| {
                let pending = match &e.pending {
                    None => Value::Null,
                    Some(ac) => obj(vec![
                        ("awaiting", nu(ac.awaiting as u64)),
                        (
                            "waiters",
                            Value::Array(ac.waiters.iter().map(|&w| nu(w as u64)).collect()),
                        ),
                        (
                            "from",
                            Value::Array(ac.from.iter().map(|&w| nu(w as u64)).collect()),
                        ),
                    ]),
                };
                obj(vec![
                    ("line", su(line)),
                    ("sharers", enc_node_list(e.sharers())),
                    ("writers", enc_node_list(e.writers())),
                    ("notified", enc_node_list(e.notified())),
                    ("pending", pending),
                    ("busy", Value::Bool(e.busy)),
                    ("overflow", Value::Bool(e.overflow)),
                ])
            })
            .collect();

        let parked = m
            .parked
            .iter()
            .filter(|(_, dq)| !dq.is_empty())
            .map(|(line, dq)| {
                obj(vec![
                    ("line", su(line)),
                    (
                        "msgs",
                        Value::Array(
                            dq.iter()
                                .map(|(msg, at)| obj(vec![("msg", enc_msg(msg)), ("at", su(*at))]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();

        let page_home = m
            .page_home
            .iter()
            .map(|(page, &home)| Value::Array(vec![su(page), nu(home as u64)]))
            .collect();

        let busy_info = m
            .busy_info
            .iter()
            .map(|(line, ep)| {
                obj(vec![
                    ("line", su(line)),
                    ("id", su(ep.id)),
                    ("owner", nu(ep.owner as u64)),
                    ("req", nu(ep.requester as u64)),
                    ("for_write", Value::Bool(ep.for_write)),
                    ("served", Value::Bool(ep.served)),
                ])
            })
            .collect();

        let nacks_given = m
            .nacks_given
            .iter()
            .map(|(line, &n)| Value::Array(vec![su(line), nu(n as u64)]))
            .collect();

        let last_ni_reject = match m.last_ni_reject {
            None => Value::Null,
            Some((node, occ, cap)) => {
                Value::Array(vec![nu(node as u64), nu(occ as u64), nu(cap as u64)])
            }
        };

        let grant_log = m
            .grant_log
            .iter()
            .map(|&(l, n)| Value::Array(vec![nu(l as u64), nu(n as u64)]))
            .collect();

        let values = match &m.values {
            None => Value::Null,
            Some(vt) => enc_values(vt),
        };
        let race = match m.race.as_deref() {
            None => Value::Null,
            Some(r) => enc_race(&r.save_state()),
        };

        let recorder_armed =
            m.obs.as_deref().map(|o| o.recorder.is_some()).unwrap_or(false);
        let crash = match m.crash.as_deref() {
            None => Value::Null,
            Some(c) => enc_crash_ctx(c),
        };

        let root = obj(vec![
            ("version", nu(SNAPSHOT_VERSION)),
            ("protocol", m.protocol.to_json()),
            ("config", m.cfg.to_json()),
            ("fault_plan", fault_plan),
            (
                "workload",
                obj(vec![
                    ("name", Value::Str(m.workload.name().to_string())),
                    (
                        "ops_consumed",
                        Value::Array(m.ops_consumed.iter().map(|&c| su(c)).collect()),
                    ),
                ]),
            ),
            ("now", su(m.queue.now())),
            ("handled", su(m.handled)),
            ("finished", nu(m.finished as u64)),
            ("max_cycles", su(m.max_cycles)),
            ("check_every", su(m.check_every)),
            ("watchdog", m.watchdog.map(su).unwrap_or(Value::Null)),
            ("forward_seq", su(m.forward_seq)),
            ("park_seq", su(m.park_seq)),
            ("recorder_armed", Value::Bool(recorder_armed)),
            ("ev_seq", Value::Array(m.ev_seq.iter().map(|&s| su(s)).collect())),
            ("queue", queue),
            ("nodes", Value::Array(nodes)),
            ("dir", Value::Array(dir)),
            ("parked", Value::Array(parked)),
            ("page_home", Value::Array(page_home)),
            ("busy_info", Value::Array(busy_info)),
            ("nacks_given", Value::Array(nacks_given)),
            ("pending_ni_retries", nu(m.pending_ni_retries as u64)),
            ("last_ni_reject", last_ni_reject),
            ("net", enc_net_state(&m.net.save_state())),
            (
                "xmit",
                match m.xmit.as_deref() {
                    None => Value::Null,
                    Some(x) => enc_xmit(x),
                },
            ),
            ("grant_log", Value::Array(grant_log)),
            ("values", values),
            ("race", race),
            ("crash", crash),
            ("stats", m.stats.to_json()),
        ]);
        Ok(MachineSnapshot { root })
    }

    fn capture_node(m: &Machine, p: usize) -> Value {
        let n = &m.nodes[p];
        let (slots, tick) = n.cache.save_slots();
        let cache_slots = slots
            .iter()
            .map(|&(line, state, dirty, stamp)| {
                Value::Array(vec![
                    su(line.0),
                    Value::Str(line_state_name(state).to_string()),
                    su(dirty),
                    su(stamp),
                ])
            })
            .collect();
        let wb = n
            .wb
            .iter()
            .map(|e| {
                Value::Array(vec![
                    su(e.line.0),
                    su(e.words),
                    Value::Bool(e.ready),
                    Value::Bool(e.issued),
                ])
            })
            .collect();
        let cb = n
            .cb
            .iter()
            .map(|e| Value::Array(vec![su(e.line.0), su(e.words)]))
            .collect();

        let mut outstanding: Vec<(u64, Outstanding)> =
            n.outstanding.iter().map(|(&l, &o)| (l, o)).collect();
        outstanding.sort_unstable_by_key(|&(l, _)| l);
        let outstanding = outstanding
            .into_iter()
            .map(|(l, o)| {
                obj(vec![
                    ("line", su(l)),
                    ("waiting_data", Value::Bool(o.waiting_data)),
                    ("waiting_ack", Value::Bool(o.waiting_ack)),
                    ("early_ack", Value::Bool(o.early_ack)),
                    ("resume_proc", Value::Bool(o.resume_proc)),
                    ("retire_wb", Value::Bool(o.retire_wb)),
                    ("apply_words", su(o.apply_words)),
                    ("stale_on_fill", Value::Bool(o.stale_on_fill)),
                ])
            })
            .collect();

        let mut pending_invals: Vec<u64> = n.pending_invals.iter().copied().collect();
        pending_invals.sort_unstable();
        let mut delayed: Vec<(u64, u64)> =
            n.delayed_writes.iter().map(|(&l, &w)| (l, w)).collect();
        delayed.sort_unstable_by_key(|&(l, _)| l);
        let mut parked_fw: Vec<(u64, Msg)> =
            n.parked_forwards.iter().map(|(&l, &msg)| (l, msg)).collect();
        parked_fw.sort_unstable_by_key(|&(l, _)| l);

        let locks = n
            .locks
            .save_exact()
            .into_iter()
            .map(|(l, holder, queue)| {
                obj(vec![
                    ("lock", nu(l as u64)),
                    ("holder", holder.map(|h| nu(h as u64)).unwrap_or(Value::Null)),
                    ("queue", Value::Array(queue.into_iter().map(|q| nu(q as u64)).collect())),
                ])
            })
            .collect();
        let barriers = n
            .barriers
            .save_exact()
            .into_iter()
            .map(|(b, arrived)| {
                obj(vec![
                    ("bar", nu(b as u64)),
                    (
                        "arrived",
                        Value::Array(arrived.into_iter().map(|a| nu(a as u64)).collect()),
                    ),
                ])
            })
            .collect();

        obj(vec![
            ("status", enc_status(&n.status)),
            ("stall_start", su(n.stall_start)),
            ("stall_kind", Value::Str(stall_kind_name(n.stall_kind).to_string())),
            ("deferred_op", n.deferred_op.as_ref().map(enc_op).unwrap_or(Value::Null)),
            ("step_scheduled", Value::Bool(n.step_scheduled)),
            ("cache", obj(vec![("slots", Value::Array(cache_slots)), ("tick", su(tick))])),
            ("wb", Value::Array(wb)),
            ("cb", Value::Array(cb)),
            ("mem", Value::Array(vec![su(n.mem.free_at()), su(n.mem.busy_cycles()), su(n.mem.accesses())])),
            ("bus", Value::Array(vec![su(n.bus.free_at()), su(n.bus.busy_cycles())])),
            ("pp", Value::Array(vec![su(n.pp.free_at()), su(n.pp.busy_cycles())])),
            ("outstanding", Value::Array(outstanding)),
            ("pending_invals", Value::Array(pending_invals.into_iter().map(su).collect())),
            ("inval_all", Value::Bool(n.inval_all)),
            (
                "delayed_writes",
                Value::Array(
                    delayed
                        .into_iter()
                        .map(|(l, w)| Value::Array(vec![su(l), su(w)]))
                        .collect(),
                ),
            ),
            ("wt_unacked", nu(n.wt_unacked as u64)),
            ("wbk_unacked", nu(n.wbk_unacked as u64)),
            ("inval_done_at", su(n.inval_done_at)),
            (
                "parked_forwards",
                Value::Array(
                    parked_fw
                        .into_iter()
                        .map(|(l, msg)| Value::Array(vec![su(l), enc_msg(&msg)]))
                        .collect(),
                ),
            ),
            ("locks", Value::Array(locks)),
            ("barriers", Value::Array(barriers)),
        ])
    }
}

// ---------------------------------------------------------------- decoding

fn field<'a>(v: &'a Value, k: &str) -> R<&'a Value> {
    v.get(k).ok_or_else(|| corrupt(format!("missing field `{k}`")))
}

/// Decode a string-encoded u64 value.
fn as_su(v: &Value, what: &str) -> R<u64> {
    let s = v
        .as_str()
        .ok_or_else(|| corrupt(format!("{what}: expected string-encoded u64")))?;
    s.parse::<u64>().map_err(|_| corrupt(format!("{what}: bad u64 `{s}`")))
}

fn d_u64(v: &Value, k: &str) -> R<u64> {
    as_su(field(v, k)?, k)
}

fn d_num(v: &Value, k: &str) -> R<u64> {
    field(v, k)?
        .as_u64()
        .ok_or_else(|| corrupt(format!("field `{k}`: expected integer")))
}

fn d_usize(v: &Value, k: &str) -> R<usize> {
    Ok(d_num(v, k)? as usize)
}

fn d_u32(v: &Value, k: &str) -> R<u32> {
    let n = d_num(v, k)?;
    u32::try_from(n).map_err(|_| corrupt(format!("field `{k}`: {n} exceeds u32")))
}

fn d_bool(v: &Value, k: &str) -> R<bool> {
    field(v, k)?
        .as_bool()
        .ok_or_else(|| corrupt(format!("field `{k}`: expected bool")))
}

fn d_str<'a>(v: &'a Value, k: &str) -> R<&'a str> {
    field(v, k)?
        .as_str()
        .ok_or_else(|| corrupt(format!("field `{k}`: expected string")))
}

fn d_arr<'a>(v: &'a Value, k: &str) -> R<&'a Vec<Value>> {
    field(v, k)?
        .as_array()
        .ok_or_else(|| corrupt(format!("field `{k}`: expected array")))
}

fn d_f64(v: &Value, k: &str) -> R<f64> {
    field(v, k)?
        .as_f64()
        .ok_or_else(|| corrupt(format!("field `{k}`: expected number")))
}

/// Decode a node id and validate it against the processor count.
fn d_node(v: &Value, k: &str, np: usize) -> R<usize> {
    let n = d_usize(v, k)?;
    if n >= np {
        return Err(corrupt(format!("field `{k}`: node {n} out of range (< {np})")));
    }
    Ok(n)
}

fn node_val(v: &Value, np: usize, what: &str) -> R<usize> {
    let n = v
        .as_u64()
        .ok_or_else(|| corrupt(format!("{what}: expected node id")))? as usize;
    if n >= np {
        return Err(corrupt(format!("{what}: node {n} out of range (< {np})")));
    }
    Ok(n)
}

fn d_node_set(v: &Value, k: &str, np: usize) -> R<NodeSet> {
    d_arr(v, k)?
        .iter()
        .map(|e| node_val(e, np, k))
        .collect::<R<Vec<usize>>>()
        .map(|nodes| nodes.into_iter().collect())
}

fn d_su_vec(v: &Value, k: &str) -> R<Vec<u64>> {
    d_arr(v, k)?.iter().map(|e| as_su(e, k)).collect()
}

fn tuple<'a, const N: usize>(v: &'a Value, what: &str) -> R<[&'a Value; N]> {
    let a = v
        .as_array()
        .ok_or_else(|| corrupt(format!("{what}: expected a {N}-tuple")))?;
    if a.len() != N {
        return Err(corrupt(format!("{what}: expected {N} elements, got {}", a.len())));
    }
    let mut out = [&Value::Null; N];
    for (slot, e) in out.iter_mut().zip(a.iter()) {
        *slot = e;
    }
    Ok(out)
}

fn dec_msg(v: &Value, np: usize) -> R<Msg> {
    Ok(Msg {
        src: d_node(v, "src", np)?,
        dst: d_node(v, "dst", np)?,
        kind: dec_kind(field(v, "kind")?, np)?,
    })
}

fn dec_kind(v: &Value, np: usize) -> R<MsgKind> {
    use MsgKind::*;
    let t = d_str(v, "t")?;
    let line = || -> R<LineAddr> { Ok(LineAddr(d_u64(v, "line")?)) };
    Ok(match t {
        "ReadReq" => ReadReq { line: line()? },
        "WriteReq" => WriteReq {
            line: line()?,
            had_copy: d_bool(v, "had_copy")?,
            words: d_u64(v, "words")?,
        },
        "WriteThrough" => WriteThrough { line: line()?, words: d_u64(v, "words")? },
        "WriteBack" => WriteBack { line: line()?, words: d_u64(v, "words")? },
        "EvictNotify" => EvictNotify { line: line()?, was_writer: d_bool(v, "was_writer")? },
        "ReadReply" => ReadReply { line: line()?, weak: d_bool(v, "weak")? },
        "WriteReply" => WriteReply {
            line: line()?,
            grant: match d_str(v, "grant")? {
                "immediate" => WriteGrant::Immediate,
                "pending" => WriteGrant::Pending,
                g => return Err(corrupt(format!("unknown write grant `{g}`"))),
            },
            with_data: d_bool(v, "with_data")?,
            weak: d_bool(v, "weak")?,
        },
        "WriteAck" => WriteAck { line: line()? },
        "WriteThroughAck" => WriteThroughAck { line: line()? },
        "WriteBackAck" => WriteBackAck { line: line()? },
        "Invalidate" => Invalidate { line: line()? },
        "WriteNotice" => WriteNotice { line: line()? },
        "Forward" => Forward {
            line: line()?,
            requester: d_node(v, "req", np)?,
            for_write: d_bool(v, "for_write")?,
            ep: d_u64(v, "ep")?,
        },
        "InvAck" => InvAck { line: line()? },
        "NoticeAck" => NoticeAck { line: line()? },
        "OwnerData" => OwnerData { line: line()?, for_write: d_bool(v, "for_write")? },
        "CopyBack" => CopyBack {
            line: line()?,
            demoted_to_shared: d_bool(v, "demoted")?,
            ep: d_u64(v, "ep")?,
        },
        "ForwardNack" => ForwardNack {
            line: line()?,
            requester: d_node(v, "req", np)?,
            for_write: d_bool(v, "for_write")?,
            ep: d_u64(v, "ep")?,
        },
        "LockAcq" => LockAcq { lock: d_u32(v, "lock")? },
        "LockGrant" => LockGrant { lock: d_u32(v, "lock")? },
        "LockRel" => LockRel { lock: d_u32(v, "lock")? },
        "BarrierArrive" => BarrierArrive { bar: d_u32(v, "bar")? },
        "BarrierRelease" => BarrierRelease { bar: d_u32(v, "bar")? },
        "BusyNack" => BusyNack {
            line: line()?,
            for_write: d_bool(v, "for_write")?,
            had_copy: d_bool(v, "had_copy")?,
            words: d_u64(v, "words")?,
            attempt: d_u32(v, "attempt")?,
        },
        "ForwardCancel" => ForwardCancel { line: line()?, ep: d_u64(v, "ep")? },
        "Heartbeat" => Heartbeat,
        k => return Err(corrupt(format!("unknown message kind `{k}`"))),
    })
}

fn dec_event(v: &Value, np: usize) -> R<Event> {
    Ok(match d_str(v, "t")? {
        "step" => Event::ProcStep(d_node(v, "p", np)?),
        "msg" => Event::Msg(dec_msg(field(v, "msg")?, np)?),
        "cb" => Event::CbFlush(d_node(v, "p", np)?, LineAddr(d_u64(v, "line")?)),
        "xmsg" => Event::XMsg {
            msg: dec_msg(field(v, "msg")?, np)?,
            seq: d_u64(v, "seq")?,
            corrupt: d_bool(v, "corrupt")?,
        },
        "linkctl" => Event::LinkCtl { seq: d_u64(v, "seq")?, ack: d_bool(v, "ack")? },
        "retry" => Event::RetryTimer { seq: d_u64(v, "seq")? },
        "ni" => Event::NiRetry {
            msg: dec_msg(field(v, "msg")?, np)?,
            attempts: d_u32(v, "attempts")?,
        },
        "nack" => Event::NackRetry { msg: dec_msg(field(v, "msg")?, np)? },
        "lease" => Event::LeaseTick,
        "crashnode" => Event::CrashNode { victim: d_node(v, "victim", np)? },
        t => return Err(corrupt(format!("unknown event tag `{t}`"))),
    })
}

fn dec_op(v: &Value) -> R<Op> {
    Ok(match d_str(v, "t")? {
        "compute" => Op::Compute(d_u32(v, "n")?),
        "read" => Op::Read(d_u64(v, "a")?),
        "write" => Op::Write(d_u64(v, "a")?),
        "acquire" => Op::Acquire(d_u32(v, "lock")?),
        "release" => Op::Release(d_u32(v, "lock")?),
        "barrier" => Op::Barrier(d_u32(v, "bar")?),
        "fence" => Op::Fence,
        "done" => Op::Done,
        t => return Err(corrupt(format!("unknown op tag `{t}`"))),
    })
}

fn dec_pending_sync(v: &Value) -> R<PendingSync> {
    Ok(match d_str(v, "t")? {
        "lockrel" => PendingSync::LockRelease(d_u32(v, "lock")?),
        "barrier" => PendingSync::Barrier(d_u32(v, "bar")?),
        t => return Err(corrupt(format!("unknown pending-sync tag `{t}`"))),
    })
}

fn dec_status(v: &Value) -> R<ProcStatus> {
    Ok(match d_str(v, "t")? {
        "running" => ProcStatus::Running,
        "sread" => ProcStatus::StalledRead(LineAddr(d_u64(v, "line")?)),
        "swfull" => ProcStatus::StalledWriteFull,
        "swrite" => ProcStatus::StalledWrite(LineAddr(d_u64(v, "line")?)),
        "releasing" => ProcStatus::Releasing(dec_pending_sync(field(v, "sync")?)?),
        "wlock" => ProcStatus::WaitingLock(d_u32(v, "lock")?),
        "inbar" => ProcStatus::InBarrier(d_u32(v, "bar")?),
        "finished" => ProcStatus::Finished,
        "crashed" => ProcStatus::Crashed,
        t => return Err(corrupt(format!("unknown proc status tag `{t}`"))),
    })
}

fn dec_stall_kind(s: &str) -> R<StallKind> {
    Ok(match s {
        "cpu" => StallKind::Cpu,
        "read" => StallKind::Read,
        "write" => StallKind::Write,
        "sync" => StallKind::Sync,
        _ => return Err(corrupt(format!("unknown stall kind `{s}`"))),
    })
}

fn dec_line_state(s: &str) -> R<LineState> {
    Ok(match s {
        "inv" => LineState::Invalid,
        "ro" => LineState::ReadOnly,
        "rw" => LineState::ReadWrite,
        _ => return Err(corrupt(format!("unknown line state `{s}`"))),
    })
}

fn dec_site(v: &Value) -> R<RaceSite> {
    RaceSite::from_json(v).ok_or_else(|| corrupt("bad race site"))
}

fn dec_fault_plan(v: &Value) -> R<FaultPlan> {
    let rates_v = d_arr(v, "rates")?;
    if rates_v.len() != MsgClass::COUNT {
        return Err(corrupt(format!(
            "fault plan: expected {} rate entries, got {}",
            MsgClass::COUNT,
            rates_v.len()
        )));
    }
    let mut rates = [FaultRates::default(); MsgClass::COUNT];
    for (slot, rv) in rates.iter_mut().zip(rates_v.iter()) {
        *slot = FaultRates {
            drop: d_f64(rv, "drop")?,
            duplicate: d_f64(rv, "duplicate")?,
            delay: d_f64(rv, "delay")?,
            corrupt: d_f64(rv, "corrupt")?,
        };
    }
    let drop_nth = match field(v, "drop_nth")? {
        Value::Null => None,
        dv => {
            let [class, n] = tuple::<2>(dv, "drop_nth")?;
            let idx = class
                .as_u64()
                .ok_or_else(|| corrupt("drop_nth: expected class index"))?
                as usize;
            let class = *MsgClass::ALL
                .get(idx)
                .ok_or_else(|| corrupt(format!("drop_nth: bad message class {idx}")))?;
            Some((class, as_su(n, "drop_nth.n")?))
        }
    };
    // v1 documents predate crash plans; absent (or null) means none.
    let crash = match v.get("crash") {
        None | Some(Value::Null) => None,
        Some(cv) => {
            let mut victims = Vec::new();
            for e in d_arr(cv, "victims")? {
                let [n, at] = tuple::<2>(e, "crash victim")?;
                victims.push((
                    n.as_u64().ok_or_else(|| corrupt("crash victim node"))? as usize,
                    as_su(at, "crash victim cycle")?,
                ));
            }
            let crash_nth = match field(cv, "crash_nth")? {
                Value::Null => None,
                nv => {
                    let [n, k] = tuple::<2>(nv, "crash_nth")?;
                    Some((
                        n.as_u64().ok_or_else(|| corrupt("crash_nth node"))? as usize,
                        as_su(k, "crash_nth.n")?,
                    ))
                }
            };
            Some(CrashPlan {
                victims,
                crash_nth,
                heartbeat_every: d_u64(cv, "heartbeat_every")?,
                lease_timeout: d_u64(cv, "lease_timeout")?,
            })
        }
    };
    Ok(FaultPlan {
        seed: d_u64(v, "seed")?,
        rates,
        delay_cycles: d_u64(v, "delay_cycles")?,
        drop_nth,
        retry_timeout: d_u64(v, "retry_timeout")?,
        max_retries: d_u32(v, "max_retries")?,
        crash,
    })
}

fn dec_fault_counters(v: &Value) -> R<FaultCounters> {
    Ok(FaultCounters {
        dropped: d_u64(v, "dropped")?,
        duplicated: d_u64(v, "duplicated")?,
        delayed: d_u64(v, "delayed")?,
        corrupted: d_u64(v, "corrupted")?,
    })
}

fn dec_net_state(v: &Value) -> R<NetworkState> {
    let ni = match field(v, "ni")? {
        Value::Null => None,
        nv => {
            let queues = |k: &str| -> R<Vec<Vec<Cycle>>> {
                d_arr(nv, k)?
                    .iter()
                    .map(|q| {
                        q.as_array()
                            .ok_or_else(|| corrupt(format!("ni.{k}: expected array")))?
                            .iter()
                            .map(|t| as_su(t, k))
                            .collect()
                    })
                    .collect()
            };
            Some(NiSnapshot {
                ingress: queues("ingress")?,
                egress: queues("egress")?,
                peak_ingress: d_usize(nv, "peak_ingress")?,
                peak_egress: d_usize(nv, "peak_egress")?,
            })
        }
    };
    let injector = match field(v, "injector")? {
        Value::Null => None,
        iv => {
            let arr5 = |k: &str| -> R<[u64; MsgClass::COUNT]> {
                let xs = d_su_vec(iv, k)?;
                <[u64; MsgClass::COUNT]>::try_from(xs).map_err(|xs| {
                    corrupt(format!(
                        "injector.{k}: expected {} entries, got {}",
                        MsgClass::COUNT,
                        xs.len()
                    ))
                })
            };
            Some(InjectorState {
                streams: arr5("streams")?,
                sent: arr5("sent")?,
                counters: dec_fault_counters(field(iv, "counters")?)?,
            })
        }
    };
    Ok(NetworkState {
        send_free: d_su_vec(v, "send_free")?,
        msgs: d_u64(v, "msgs")?,
        bytes_total: d_u64(v, "bytes_total")?,
        ni,
        injector,
    })
}

fn dec_xmit(v: &Value, np: usize) -> R<XmitState> {
    let mut st = XmitState { next_seq: d_u64(v, "next_seq")?, ..XmitState::default() };
    for e in d_arr(v, "in_flight")? {
        let seq = d_u64(e, "seq")?;
        let f = InFlight {
            msg: dec_msg(field(e, "msg")?, np)?,
            attempts: d_u32(e, "attempts")?,
            next_deadline: d_u64(e, "deadline")?,
        };
        if st.in_flight.insert(seq, f).is_some() {
            return Err(corrupt(format!("xmit: duplicate in-flight seq {seq}")));
        }
    }
    for e in d_arr(v, "seen")? {
        st.seen.insert(as_su(e, "xmit.seen")?);
    }
    for e in d_arr(v, "gave_up")? {
        st.gave_up.push(dec_msg(e, np)?);
    }
    let cv = field(v, "counters")?;
    st.counters = XmitCounters {
        link_nacks: d_u64(cv, "link_nacks")?,
        retries: d_u64(cv, "retries")?,
        timeouts: d_u64(cv, "timeouts")?,
        retries_exhausted: d_u64(cv, "retries_exhausted")?,
        dup_suppressed: d_u64(cv, "dup_suppressed")?,
        link_msgs: d_u64(cv, "link_msgs")?,
    };
    Ok(st)
}

fn dec_values(v: &Value, np: usize) -> R<ValueTracker> {
    let seq = d_su_vec(v, "seq")?;
    if seq.len() != np {
        return Err(corrupt(format!("values.seq: expected {np} entries, got {}", seq.len())));
    }
    let mut home = BTreeMap::new();
    for e in d_arr(v, "home")? {
        let [line, word, proc, wseq] = tuple::<4>(e, "values.home entry")?;
        let p = node_val(proc, np, "values.home proc")?;
        home.insert(
            (as_su(line, "values.home line")?, word.as_u64().ok_or_else(|| corrupt("values.home word"))? as usize),
            WriteId { proc: p, seq: as_su(wseq, "values.home seq")? },
        );
    }
    let mut unflushed: BTreeMap<(ProcId, u64), BTreeMap<usize, WriteId>> = BTreeMap::new();
    for e in d_arr(v, "unflushed")? {
        let p = d_node(e, "proc", np)?;
        let line = d_u64(e, "line")?;
        let mut words = BTreeMap::new();
        for w in d_arr(e, "words")? {
            let [word, proc, wseq] = tuple::<3>(w, "values.unflushed word")?;
            let wp = node_val(proc, np, "values.unflushed proc")?;
            words.insert(
                word.as_u64().ok_or_else(|| corrupt("values.unflushed word"))? as usize,
                WriteId { proc: wp, seq: as_su(wseq, "values.unflushed seq")? },
            );
        }
        unflushed.insert((p, line), words);
    }
    Ok(ValueTracker::from_parts(seq, home, unflushed))
}

fn dec_race(v: &Value) -> R<RaceDetectorState> {
    let clocks_at = |ov: &Value, k: &str| -> R<Vec<u64>> { d_su_vec(ov, k) };
    let mut words = Vec::new();
    for wv in d_arr(v, "words")? {
        let write = match field(wv, "write")? {
            Value::Null => None,
            xv => {
                let [p, c, site] = tuple::<3>(xv, "race word write")?;
                Some((
                    p.as_u64().ok_or_else(|| corrupt("race write proc"))? as u32,
                    as_su(c, "race write clock")?,
                    dec_site(site)?,
                ))
            }
        };
        let rv = field(wv, "read")?;
        let read = match d_str(rv, "t")? {
            "none" => RaceReadState::None,
            "epoch" => RaceReadState::Epoch(
                d_num(rv, "proc")? as u32,
                d_u64(rv, "clock")?,
                dec_site(field(rv, "site")?)?,
            ),
            "vector" => RaceReadState::Vector(
                clocks_at(rv, "clocks")?,
                d_arr(rv, "sites")?.iter().map(dec_site).collect::<R<Vec<_>>>()?,
            ),
            t => return Err(corrupt(format!("unknown race read tag `{t}`"))),
        };
        words.push(WordState {
            addr: d_u64(wv, "addr")?,
            write,
            read,
            racy: d_bool(wv, "racy")?,
        });
    }
    let mut barriers = Vec::new();
    for bv in d_arr(v, "barriers")? {
        barriers.push(RaceBarrierState {
            id: d_u32(bv, "id")?,
            gather: clocks_at(bv, "gather")?,
            arrivals: d_usize(bv, "arrivals")?,
            completed: clocks_at(bv, "completed")?,
        });
    }
    let mut locks = Vec::new();
    for lv in d_arr(v, "locks")? {
        let [l, c] = tuple::<2>(lv, "race lock entry")?;
        let cs = c
            .as_array()
            .ok_or_else(|| corrupt("race lock clock"))?
            .iter()
            .map(|e| as_su(e, "race lock clock"))
            .collect::<R<Vec<u64>>>()?;
        locks.push((l.as_u64().ok_or_else(|| corrupt("race lock id"))? as u32, cs));
    }
    let clocks = d_arr(v, "clocks")?
        .iter()
        .map(|cv| {
            cv.as_array()
                .ok_or_else(|| corrupt("race clocks"))?
                .iter()
                .map(|e| as_su(e, "race clocks"))
                .collect()
        })
        .collect::<R<Vec<Vec<u64>>>>()?;
    Ok(RaceDetectorState {
        num_procs: d_usize(v, "num_procs")?,
        word_size: d_u64(v, "word_size")?,
        clocks,
        refs: d_su_vec(v, "refs")?,
        locks,
        barriers,
        words,
        stats: FromJson::from_json(field(v, "stats")?)
            .ok_or_else(|| corrupt("bad race stats"))?,
    })
}

impl MachineSnapshot {
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
        let found = root
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| corrupt("missing snapshot version stamp"))?;
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&found) {
            return Err(SnapshotError::UnknownVersion { found });
        }
        Ok(MachineSnapshot { root })
    }

    /// The simulated cycle the machine was captured at.
    pub fn cycle(&self) -> Cycle {
        self.root
            .get("now")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Name of the workload the captured run was executing.
    pub fn workload_name(&self) -> &str {
        self.root
            .get("workload")
            .and_then(|w| w.get("name"))
            .and_then(|v| v.as_str())
            .unwrap_or("")
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
        match self.root.get("fault_plan") {
            Some(Value::Null) | None => None,
            Some(v) => dec_fault_plan(v).ok(),
        }
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
        let v = &self.root;
        let found = d_num(v, "version")?;
        if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&found) {
            return Err(SnapshotError::UnknownVersion { found });
        }
        let protocol = Protocol::from_json(field(v, "protocol")?)
            .ok_or_else(|| corrupt("bad protocol"))?;
        let cfg = MachineConfig::from_json(field(v, "config")?)
            .ok_or_else(|| corrupt("bad machine config"))?;
        let np = cfg.num_procs;

        let mut m = Machine::new(cfg, protocol);
        match field(v, "fault_plan")? {
            Value::Null => {}
            pv => m = m.with_fault_plan(dec_fault_plan(pv)?),
        }
        // The link layer exists exactly when the plan is active; a snapshot
        // disagreeing with its own plan is corrupt.
        let xmit_v = field(v, "xmit")?;
        if xmit_v.is_null() != m.xmit.is_none() {
            return Err(corrupt("xmit state inconsistent with fault plan"));
        }
        // Likewise the crash subsystem exists exactly when the plan carries
        // a crash section (v1 documents have neither).
        let crash_v = v.get("crash").unwrap_or(&Value::Null);
        if crash_v.is_null() != m.crash.is_none() {
            return Err(corrupt("crash state inconsistent with fault plan"));
        }

        // Workload: match, then fast-forward by the consumed-op counts.
        let wv = field(v, "workload")?;
        let wname = d_str(wv, "name")?;
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
        let ops = d_su_vec(wv, "ops_consumed")?;
        if ops.len() != np {
            return Err(corrupt(format!(
                "ops_consumed: expected {np} entries, got {}",
                ops.len()
            )));
        }
        let mut workload = workload;
        for (p, &count) in ops.iter().enumerate() {
            for _ in 0..count {
                let _ = workload.next_op(p);
            }
        }
        m.workload = workload;
        m.ops_consumed = ops;

        // Run-control scalars.
        m.finished = d_usize(v, "finished")?;
        if m.finished > np {
            return Err(corrupt(format!("finished count {} exceeds {np}", m.finished)));
        }
        m.handled = d_u64(v, "handled")?;
        m.max_cycles = d_u64(v, "max_cycles")?;
        m.check_every = d_u64(v, "check_every")?;
        m.watchdog = match field(v, "watchdog")? {
            Value::Null => None,
            t => Some(as_su(t, "watchdog")?),
        };
        m.forward_seq = d_u64(v, "forward_seq")?;
        m.park_seq = d_u64(v, "park_seq")?;
        m.pending_ni_retries = d_u32(v, "pending_ni_retries")?;
        m.last_ni_reject = match field(v, "last_ni_reject")? {
            Value::Null => None,
            rv => {
                let [node, occ, cap] = tuple::<3>(rv, "last_ni_reject")?;
                Some((
                    node_val(node, np, "last_ni_reject node")?,
                    occ.as_u64().ok_or_else(|| corrupt("last_ni_reject occupancy"))? as usize,
                    cap.as_u64().ok_or_else(|| corrupt("last_ni_reject cap"))? as usize,
                ))
            }
        };

        // Per-node state.
        let nodes_v = d_arr(v, "nodes")?;
        if nodes_v.len() != np {
            return Err(corrupt(format!("expected {np} nodes, got {}", nodes_v.len())));
        }
        for (p, nv) in nodes_v.iter().enumerate() {
            Self::restore_node(&mut m, p, nv)?;
        }

        // Directory and home-side tables.
        for ev in d_arr(v, "dir")? {
            let line = d_u64(ev, "line")?;
            let pending = match field(ev, "pending")? {
                Value::Null => None,
                pv => Some(AckCollection {
                    awaiting: d_u32(pv, "awaiting")?,
                    waiters: d_arr(pv, "waiters")?
                        .iter()
                        .map(|w| node_val(w, np, "dir waiter"))
                        .collect::<R<Vec<_>>>()?,
                    // v1 documents predate the debtor multiset; an empty
                    // one only disables the crash-time write-off, which
                    // v1 snapshots cannot need.
                    from: match pv.get("from") {
                        None => Vec::new(),
                        Some(_) => d_arr(pv, "from")?
                            .iter()
                            .map(|w| node_val(w, np, "dir ack debtor"))
                            .collect::<R<Vec<_>>>()?,
                    },
                }),
            };
            let entry = DirEntry::from_parts(
                d_node_set(ev, "sharers", np)?,
                d_node_set(ev, "writers", np)?,
                d_node_set(ev, "notified", np)?,
                pending,
                d_bool(ev, "busy")?,
                d_bool(ev, "overflow")?,
            )
            .map_err(corrupt)?;
            m.dir.insert(line, entry);
        }
        for ev in d_arr(v, "parked")? {
            let line = d_u64(ev, "line")?;
            let mut dq = VecDeque::new();
            for pv in d_arr(ev, "msgs")? {
                dq.push_back((dec_msg(field(pv, "msg")?, np)?, d_u64(pv, "at")?));
            }
            m.parked.insert(line, dq);
        }
        for ev in d_arr(v, "page_home")? {
            let [page, home] = tuple::<2>(ev, "page_home entry")?;
            m.page_home
                .insert(as_su(page, "page_home page")?, node_val(home, np, "page_home home")?);
        }
        for ev in d_arr(v, "busy_info")? {
            let line = d_u64(ev, "line")?;
            m.busy_info.insert(
                line,
                ForwardEp {
                    id: d_u64(ev, "id")?,
                    owner: d_node(ev, "owner", np)?,
                    requester: d_node(ev, "req", np)?,
                    for_write: d_bool(ev, "for_write")?,
                    served: d_bool(ev, "served")?,
                },
            );
        }
        for ev in d_arr(v, "nacks_given")? {
            let [line, n] = tuple::<2>(ev, "nacks_given entry")?;
            m.nacks_given.insert(
                as_su(line, "nacks_given line")?,
                n.as_u64().ok_or_else(|| corrupt("nacks_given count"))? as u32,
            );
        }

        // Network, link layer, trackers, statistics.
        m.net.restore_state(&dec_net_state(field(v, "net")?)?).map_err(corrupt)?;
        if !xmit_v.is_null() {
            m.xmit = Some(Box::new(dec_xmit(xmit_v, np)?));
        }
        for ev in d_arr(v, "grant_log")? {
            let [l, n] = tuple::<2>(ev, "grant_log entry")?;
            m.grant_log.push((
                l.as_u64().ok_or_else(|| corrupt("grant_log lock"))? as u32,
                node_val(n, np, "grant_log node")?,
            ));
        }
        m.values = match field(v, "values")? {
            Value::Null => None,
            vv => Some(dec_values(vv, np)?),
        };
        m.race = match field(v, "race")? {
            Value::Null => None,
            rv => Some(Box::new(
                RaceDetector::from_state(dec_race(rv)?).map_err(corrupt)?,
            )),
        };
        let stats = MachineStats::from_json(field(v, "stats")?)
            .ok_or_else(|| corrupt("bad machine stats"))?;
        if stats.procs.len() != np {
            return Err(corrupt(format!(
                "stats cover {} processors, machine has {np}",
                stats.procs.len()
            )));
        }
        m.stats = stats;
        if !crash_v.is_null() {
            // with_fault_plan armed a fresh context; overlay the captured
            // runtime state (deaths, suspicions, leases, unacked credit).
            let c = m.crash.as_deref_mut().expect("consistency checked above");
            dec_crash_ctx(crash_v, c, np)?;
        }

        // Event queue: tie keys, the clock, and the high-water mark.
        let ev_seq = d_su_vec(v, "ev_seq")?;
        if ev_seq.len() != np {
            return Err(corrupt(format!("ev_seq: expected {np} entries, got {}", ev_seq.len())));
        }
        m.ev_seq = ev_seq;
        let qv = field(v, "queue")?;
        let mut entries = Vec::new();
        for ev in d_arr(qv, "events")? {
            entries.push((d_u64(ev, "at")?, d_u64(ev, "key")?, dec_event(field(ev, "ev")?, np)?));
        }
        m.queue = EventQueue::from_entries(entries, d_u64(v, "now")?, d_usize(qv, "peak")?);

        // The snapshot stores no flight-recorder ring contents (they never
        // affect simulation); re-arm a default-depth recorder so wedge
        // diagnoses after a restore still carry an event tail.
        if d_bool(v, "recorder_armed")? {
            let o = m.obs_mut();
            if o.recorder.is_none() {
                o.recorder = Some(FlightRecorder::new(np, DEFAULT_FLIGHT_CAP));
            }
        }
        Ok(m)
    }

    fn restore_node(m: &mut Machine, p: usize, nv: &Value) -> R<()> {
        let np = m.cfg.num_procs;
        let cv = field(nv, "cache")?;
        let mut slots = Vec::new();
        for sv in d_arr(cv, "slots")? {
            let [line, state, dirty, stamp] = tuple::<4>(sv, "cache slot")?;
            slots.push((
                LineAddr(as_su(line, "cache line")?),
                dec_line_state(
                    state.as_str().ok_or_else(|| corrupt("cache slot state"))?,
                )?,
                as_su(dirty, "cache dirty mask")?,
                as_su(stamp, "cache stamp")?,
            ));
        }
        let tick = d_u64(cv, "tick")?;
        let mut wb_entries = Vec::new();
        for ev in d_arr(nv, "wb")? {
            let [line, words, ready, issued] = tuple::<4>(ev, "write-buffer entry")?;
            wb_entries.push(WbEntry {
                line: LineAddr(as_su(line, "wb line")?),
                words: as_su(words, "wb words")?,
                ready: ready.as_bool().ok_or_else(|| corrupt("wb ready"))?,
                issued: issued.as_bool().ok_or_else(|| corrupt("wb issued"))?,
            });
        }
        let mut cb_entries = Vec::new();
        for ev in d_arr(nv, "cb")? {
            let [line, words] = tuple::<2>(ev, "coalescing-buffer entry")?;
            cb_entries.push(CbEntry {
                line: LineAddr(as_su(line, "cb line")?),
                words: as_su(words, "cb words")?,
            });
        }
        let mem = d_su_vec(nv, "mem")?;
        let bus = d_su_vec(nv, "bus")?;
        let pp = d_su_vec(nv, "pp")?;
        if mem.len() != 3 || bus.len() != 2 || pp.len() != 2 {
            return Err(corrupt("bad resource-clock tuple lengths"));
        }

        let n = &mut m.nodes[p];
        n.status = dec_status(field(nv, "status")?)?;
        n.stall_start = d_u64(nv, "stall_start")?;
        n.stall_kind = dec_stall_kind(d_str(nv, "stall_kind")?)?;
        n.deferred_op = match field(nv, "deferred_op")? {
            Value::Null => None,
            ov => Some(dec_op(ov)?),
        };
        n.step_scheduled = d_bool(nv, "step_scheduled")?;
        if !n.cache.restore_slots(&slots, tick) {
            return Err(corrupt(format!("node {p}: cache slot count mismatch")));
        }
        if !n.wb.restore_entries(&wb_entries) {
            return Err(corrupt(format!("node {p}: write buffer over capacity")));
        }
        if !n.cb.restore_entries(&cb_entries) {
            return Err(corrupt(format!("node {p}: coalescing buffer over capacity")));
        }
        n.mem.restore(mem[0], mem[1], mem[2]);
        n.bus.restore(bus[0], bus[1]);
        n.pp.restore(pp[0], pp[1]);

        n.outstanding.clear();
        for ov in d_arr(nv, "outstanding")? {
            n.outstanding.insert(
                d_u64(ov, "line")?,
                Outstanding {
                    waiting_data: d_bool(ov, "waiting_data")?,
                    waiting_ack: d_bool(ov, "waiting_ack")?,
                    early_ack: d_bool(ov, "early_ack")?,
                    resume_proc: d_bool(ov, "resume_proc")?,
                    retire_wb: d_bool(ov, "retire_wb")?,
                    apply_words: d_u64(ov, "apply_words")?,
                    stale_on_fill: d_bool(ov, "stale_on_fill")?,
                },
            );
        }
        n.pending_invals.clear();
        for ev in d_arr(nv, "pending_invals")? {
            n.pending_invals.insert(as_su(ev, "pending_invals")?);
        }
        n.inval_all = d_bool(nv, "inval_all")?;
        n.delayed_writes.clear();
        for ev in d_arr(nv, "delayed_writes")? {
            let [line, mask] = tuple::<2>(ev, "delayed_writes entry")?;
            n.delayed_writes
                .insert(as_su(line, "delayed line")?, as_su(mask, "delayed mask")?);
        }
        n.wt_unacked = d_u32(nv, "wt_unacked")?;
        n.wbk_unacked = d_u32(nv, "wbk_unacked")?;
        n.inval_done_at = d_u64(nv, "inval_done_at")?;
        let mut parked_fw = Vec::new();
        for ev in d_arr(nv, "parked_forwards")? {
            let [line, msg] = tuple::<2>(ev, "parked_forwards entry")?;
            parked_fw.push((as_su(line, "parked forward line")?, dec_msg(msg, np)?));
        }
        let n = &mut m.nodes[p];
        n.parked_forwards.clear();
        for (line, msg) in parked_fw {
            n.parked_forwards.insert(line, msg);
        }

        let mut locks = Vec::new();
        for lv in d_arr(nv, "locks")? {
            let holder = match field(lv, "holder")? {
                Value::Null => None,
                hv => Some(node_val(hv, np, "lock holder")?),
            };
            locks.push((
                d_u32(lv, "lock")?,
                holder,
                d_arr(lv, "queue")?
                    .iter()
                    .map(|q| node_val(q, np, "lock waiter"))
                    .collect::<R<Vec<_>>>()?,
            ));
        }
        let mut barriers = Vec::new();
        for bv in d_arr(nv, "barriers")? {
            barriers.push((
                d_u32(bv, "bar")?,
                d_arr(bv, "arrived")?
                    .iter()
                    .map(|a| node_val(a, np, "barrier arrival"))
                    .collect::<R<Vec<_>>>()?,
            ));
        }
        let n = &mut m.nodes[p];
        n.locks.restore(&locks);
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
