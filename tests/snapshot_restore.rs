//! Checkpoint/restore suite: a run paused at a snapshot and resumed must be
//! **bit-identical** to the uninterrupted run — same cycle counts, same
//! per-processor finish times, same traffic totals, same event count — for
//! every protocol, with and without an active fault plan.
//!
//! This is the hard robustness requirement of the snapshot subsystem: a
//! checkpoint is a pause in the same simulated history, not a perturbation
//! of it. The suite also pins the serialization contract itself:
//! serialize → parse → re-serialize is byte-identical, unknown snapshot
//! versions surface as typed errors (never panics), and truncated files
//! are reported as corruption.

use lazy_rc::prelude::*;
use lazy_rc::workloads::Scale;

const PROCS: usize = 8;

/// Condensed result fingerprint: totals plus per-processor detail, so
/// divergence anywhere in the machine shows up even when aggregate
/// counters collide.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fp {
    total_cycles: u64,
    events: u64,
    finish_times: Vec<u64>,
    refs: u64,
    read_misses: u64,
    write_misses: u64,
    upgrades: u64,
    lock_acquires: u64,
    barriers: u64,
    three_hop: u64,
    control_msgs: u64,
    data_msgs: u64,
    write_data_msgs: u64,
    bytes: u64,
    pp_busy: Vec<u64>,
    mem_busy: Vec<u64>,
    breakdown_totals: Vec<u64>,
    fault_dropped: u64,
    fault_retries: u64,
}

fn fp(r: &RunResult) -> Fp {
    let s = &r.stats;
    let traffic = s.aggregate_traffic();
    Fp {
        total_cycles: s.total_cycles,
        events: r.events,
        finish_times: s.procs.iter().map(|p| p.finish_time).collect(),
        refs: s.total_refs(),
        read_misses: s.procs.iter().map(|p| p.read_misses).sum(),
        write_misses: s.procs.iter().map(|p| p.write_misses).sum(),
        upgrades: s.procs.iter().map(|p| p.upgrades).sum(),
        lock_acquires: s.procs.iter().map(|p| p.lock_acquires).sum(),
        barriers: s.procs.iter().map(|p| p.barriers).sum(),
        three_hop: s.procs.iter().map(|p| p.three_hop).sum(),
        control_msgs: traffic.control_msgs,
        data_msgs: traffic.data_msgs,
        write_data_msgs: traffic.write_data_msgs,
        bytes: traffic.bytes,
        pp_busy: s.procs.iter().map(|p| p.pp_busy).collect(),
        mem_busy: s.procs.iter().map(|p| p.mem_busy).collect(),
        breakdown_totals: s.procs.iter().map(|p| p.breakdown.total()).collect(),
        fault_dropped: s.faults.dropped,
        fault_retries: s.faults.retries,
    }
}

type PlanCtor = Option<fn() -> FaultPlan>;

fn chaos_plan() -> FaultPlan {
    FaultPlan::uniform(0.005, 0xFEED)
}

fn build(proto: Protocol, plan: PlanCtor) -> Machine {
    let m = Machine::new(MachineConfig::paper_default(PROCS), proto)
        .with_max_cycles(50_000_000_000);
    match plan {
        Some(f) => m.with_fault_plan(f()),
        None => m,
    }
}

fn workload() -> Box<dyn Workload> {
    WorkloadKind::Mp3d.build(PROCS, Scale::Tiny)
}

/// Uninterrupted fingerprint plus total cycles (to pick a mid-run
/// checkpoint cycle from).
fn uninterrupted(proto: Protocol, plan: PlanCtor) -> (Fp, u64) {
    let r = build(proto, plan).try_run(workload()).expect("uninterrupted run completed");
    let total = r.stats.total_cycles;
    (fp(&r), total)
}

/// The core contract: pause a run at the uninterrupted run's midpoint,
/// snapshot it, restore the snapshot into a fresh machine, run that to
/// completion, and demand the result be bit-identical to the uninterrupted
/// run.
fn assert_checkpoint_resume_matches(proto: Protocol, plan: PlanCtor) {
    let (want, total) = uninterrupted(proto, plan);
    let at = total / 2;
    let mut m = build(proto, plan);
    m.start_run(workload());
    let paused = m.run_until(at).expect("no stall before the checkpoint");
    assert!(paused, "{proto} finished before cycle {at}");
    let snap = m.snapshot().expect("mid-run capture");
    drop(m);
    let resumed = finish(snap.restore(workload()).expect("restore"));
    assert_eq!(
        fp(&resumed),
        want,
        "{proto}: resume diverged from the uninterrupted run (fault plan: {})",
        plan.is_some()
    );
}

#[test]
fn checkpoint_resume_matches_uninterrupted_all_protocols() {
    for proto in Protocol::ALL {
        assert_checkpoint_resume_matches(proto, None);
    }
}

#[test]
fn checkpoint_resume_matches_uninterrupted_under_fault_plan() {
    for proto in Protocol::ALL {
        assert_checkpoint_resume_matches(proto, Some(chaos_plan));
    }
}

/// Pause a sequential LRC run mid-flight and capture it.
fn mid_run_snapshot() -> (MachineSnapshot, String) {
    let mut m = build(Protocol::Lrc, None);
    m.start_run(workload());
    let paused = m.run_until(5_000).expect("no stall before cycle 5000");
    assert!(paused, "mp3d/tiny must still be running at cycle 5000");
    let snap = m.snapshot().expect("mid-run capture");
    let text = snap.to_json_string();
    (snap, text)
}

/// Serialize → parse → re-serialize must be byte-identical, and capturing
/// the restored machine must reproduce the original document byte for
/// byte — the round trip loses nothing.
#[test]
fn snapshot_round_trip_is_byte_identical() {
    let (_, text) = mid_run_snapshot();
    let reparsed = MachineSnapshot::parse(&text).expect("parse back");
    assert_eq!(reparsed.to_json_string(), text, "re-serialization changed bytes");
    let restored = reparsed.restore(workload()).expect("restore");
    let recaptured = restored.snapshot().expect("recapture restored machine");
    assert_eq!(recaptured.to_json_string(), text, "restored state drifted from snapshot");
}

/// A snapshot from a future (or garbage) format version must surface as a
/// typed `UnknownVersion` error, never a panic or a silent misparse —
/// and so must anything below the compatibility floor.
#[test]
fn unknown_snapshot_version_is_a_typed_error() {
    let (_, text) = mid_run_snapshot();
    let probe = format!("\"version\": {SNAPSHOT_VERSION}");
    assert!(text.contains(&probe), "version field not where expected");
    for (stamp, found) in [("999", 999u64), ("0", 0)] {
        let forged = text.replacen(&probe, &format!("\"version\": {stamp}"), 1);
        match MachineSnapshot::parse(&forged) {
            Err(SnapshotError::UnknownVersion { found: f }) => assert_eq!(f, found),
            other => panic!("version {stamp}: expected UnknownVersion, got {other:?}"),
        }
    }
}

/// Rewrite a parsed v2 snapshot document into the exact shape a v1 writer
/// emitted: stamp version 1 and drop every v2-only key — the root crash
/// section, the fault plan's crash sub-plan, and the ack collections'
/// debtor lists (`"from"`, which occurs nowhere else in the format).
fn downgrade_to_v1(v: &mut lrc_json::Value) {
    use lrc_json::Value;
    if let Value::Object(fields) = v {
        fields.retain(|(k, _)| k != "crash" && k != "from");
        for (k, fv) in fields.iter_mut() {
            if k == "version" {
                *fv = Value::Num(1.0);
            } else {
                downgrade_to_v1(fv);
            }
        }
    } else if let Value::Array(items) = v {
        for item in items.iter_mut() {
            downgrade_to_v1(item);
        }
    }
}

/// Drive a restored machine to completion.
fn finish(mut m: Machine) -> RunResult {
    let running = m.run_until(u64::MAX).expect("restored run stalled");
    assert!(!running, "restored run hit the cycle ceiling");
    match m.finish_run(std::time::Instant::now()) {
        Ok((r, _)) => r,
        Err((diag, _)) => panic!("restored run wedged at the finish line: {diag}"),
    }
}

/// Backward compatibility: a version-1 document (no crash state, no ack
/// debtor lists) must still parse and restore with the missing state
/// defaulted, and the resumed run must be bit-identical to the
/// uninterrupted one — with and without an active fault plan.
#[test]
fn v1_snapshot_still_restores_and_resumes() {
    for plan in [None, Some(chaos_plan as fn() -> FaultPlan)] {
        let (want, _) = uninterrupted(Protocol::Lrc, plan);
        let mut m = build(Protocol::Lrc, plan);
        m.start_run(workload());
        assert!(m.run_until(5_000).expect("no stall"), "still running at 5000");
        let text = m.snapshot().expect("mid-run capture").to_json_string();
        let mut doc = lrc_json::parse(&text).expect("snapshot is valid JSON");
        downgrade_to_v1(&mut doc);
        let v1_text = doc.pretty();
        assert!(v1_text.contains("\"version\": 1"), "downgrade failed to stamp v1");
        assert!(!v1_text.contains("\"crash\""), "downgrade left a crash key behind");
        let restored = MachineSnapshot::parse(&v1_text)
            .expect("v1 document parses")
            .restore(workload())
            .expect("v1 document restores");
        let r = finish(restored);
        assert_eq!(
            fp(&r),
            want,
            "v1-restored run diverged from uninterrupted (fault plan: {})",
            plan.is_some()
        );
    }
}

/// Backward compatibility against a *real* v1 artifact, not a synthetic
/// downgrade: the checked-in wedge dump (`lrc-soak`'s unrecoverable-stage
/// snapshot from the release that introduced the v1 format) must still
/// parse under today's decoder. CI goes further and replays it end to end
/// (`lrc-soak --replay` must reproduce the wedge).
#[test]
fn checked_in_v1_wedge_dump_still_parses() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wedge-unrecoverable-seed1.json"
    ))
    .expect("fixture present");
    let env = lrc_json::parse(&text).expect("fixture is valid JSON");
    assert_eq!(env["kind"].as_str(), Some("lrc-soak-wedge"));
    let snap_text = env["snapshot"].pretty();
    assert!(snap_text.contains("\"version\": 1"), "fixture is no longer a v1 document");
    let snap = MachineSnapshot::parse(&snap_text).expect("v1 fixture parses");
    let cfg = snap.config().expect("fixture carries a machine config");
    assert_eq!(cfg.num_procs, 4);
    assert!(snap.cycle() > 0, "fixture froze a mid-run machine");
}

/// A crash plan whose victim dies early enough that both the death and
/// its detection (by ~6.5k cycles: crash + lease + one heartbeat tick)
/// land well inside the run. The lease comfortably dominates the
/// heartbeat period plus worst-case NI queueing delay, so no live node
/// is ever falsely suspected.
fn early_crash_plan() -> FaultPlan {
    let mut cp = CrashPlan::kill(2, 2_000);
    cp.heartbeat_every = 500;
    cp.lease_timeout = 4_000;
    FaultPlan::off(0xC0FFEE).with_crash(cp)
}

/// Crash state is part of the v2 capture set: a machine snapshotted
/// *after* a node has crashed (and been detected) round-trips byte for
/// byte, and the resumed degraded run matches the uninterrupted degraded
/// run bit for bit.
#[test]
fn crash_state_snapshot_round_trips_and_resumes() {
    let (want, _) = uninterrupted(Protocol::Lrc, Some(early_crash_plan));

    let mut m = build(Protocol::Lrc, Some(early_crash_plan));
    m.start_run(workload());
    assert!(m.run_until(8_000).expect("no stall"), "still running at 8000");
    let snap = m.snapshot().expect("post-crash capture");
    let text = snap.to_json_string();
    assert!(text.contains("\"crashed\""), "snapshot carries no crash state");

    let reparsed = MachineSnapshot::parse(&text).expect("parse back");
    assert_eq!(reparsed.to_json_string(), text, "re-serialization changed bytes");
    let restored = reparsed.restore(workload()).expect("restore");
    let recaptured = restored.snapshot().expect("recapture restored machine");
    assert_eq!(recaptured.to_json_string(), text, "restored crash state drifted");

    let r = finish(restored);
    assert_eq!(fp(&r), want, "crash-state resume diverged from the uninterrupted run");
}

/// A truncated snapshot file (torn write, partial copy) must parse to a
/// typed corruption error, never a panic.
#[test]
fn truncated_snapshot_is_a_typed_corruption_error() {
    let (_, text) = mid_run_snapshot();
    for frac in [2, 3, 10] {
        let cut = &text[..text.len() / frac];
        match MachineSnapshot::parse(cut) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("truncated/{frac} parse should be Corrupt, got {other:?}"),
        }
    }
    match MachineSnapshot::parse("") {
        Err(SnapshotError::Corrupt(_)) => {}
        other => panic!("empty parse should be Corrupt, got {other:?}"),
    }
}

/// Field-level corruption (a node id out of range) must also surface as a
/// typed error at restore time, not a panic deep in the kernel.
#[test]
fn out_of_range_node_id_is_a_typed_corruption_error() {
    let (_, text) = mid_run_snapshot();
    let snap = MachineSnapshot::parse(&text).expect("parse back");
    assert!(text.contains("\"finished\": 0"), "finished field not where expected");
    let evil = text.replacen("\"finished\": 0", "\"finished\": 64", 1);
    match MachineSnapshot::parse(&evil).expect("still well-formed JSON").restore(workload()) {
        Err(SnapshotError::Corrupt(_)) => {}
        other => panic!("expected Corrupt on restore, got {:?}", other.map(|_| ())),
    }
    drop(snap);
}

/// Configurations outside the v1 capture set (here: the miss classifier,
/// whose per-line history is deliberately not serialized) must refuse with
/// a typed `Unsupported` error rather than writing a snapshot that could
/// not restore faithfully.
#[test]
fn unsupported_configuration_refuses_capture() {
    let mut m = build(Protocol::Sc, None).with_classification();
    m.start_run(workload());
    assert!(m.run_until(5_000).expect("no stall"), "still running");
    match m.snapshot() {
        Err(SnapshotError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
    }
}
