//! Checkpoint/restore suite: a run paused at a snapshot and resumed must be
//! **bit-identical** to the uninterrupted run — same cycle counts, same
//! per-processor finish times, same traffic totals, same event count — for
//! every protocol, with and without an active fault plan.
//!
//! This is the hard robustness requirement of the snapshot subsystem: a
//! checkpoint is a pause in the same simulated history, not a perturbation
//! of it. The suite also pins the serialization contract itself:
//! serialize → parse → re-serialize is byte-identical, the v2 bytes match
//! recorded digests, unknown snapshot versions surface as typed errors
//! (never panics), truncated files and invalid configs are reported as
//! corruption, and seeded mutants restore or fail with a typed error.

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

/// Mutable access to member `key` of object `v`.
fn member_mut<'a>(v: &'a mut lrc_json::Value, key: &str) -> &'a mut lrc_json::Value {
    match v {
        lrc_json::Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).expect("member present").1
        }
        _ => panic!("not an object"),
    }
}

/// A configuration `MachineConfig::validate` rejects, or one with more
/// processors than a directory sharer set holds, must be a typed
/// corruption error at restore time, not a panic while the machine is
/// sized from it.
#[test]
fn invalid_config_is_a_typed_corruption_error() {
    let (_, text) = mid_run_snapshot();
    let edits = [("num_procs", 0u64), ("line_size", 0), ("cache_assoc", 0), ("num_procs", 300)];
    for (field, bad) in edits {
        let mut doc = lrc_json::parse(&text).expect("snapshot is valid JSON");
        member_mut(&mut doc, "config").set(field, bad);
        let snap = MachineSnapshot::parse(&doc.pretty()).expect("still a well-formed snapshot");
        match snap.restore(workload()) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("config"), "{field}: {msg}"),
            other => panic!("{field} = {bad}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
}

/// A line, page or word key past the workload's address space, a race word
/// address off its word boundary, a value-tracker word past its line, or a
/// consumed-op count past a processor's `Done`, is corrupt. Restore must
/// say so rather than size a dense table to the key, or call `next_op`
/// that many times; so each edit below names its table in a `Corrupt`.
#[test]
fn keys_and_op_counts_past_the_workload_are_typed_corruption_errors() {
    let mut cfg = MachineConfig::paper_default(PROCS);
    cfg.placement = Placement::FirstTouch;
    let (line_size, page_size) = (cfg.line_size as u64, cfg.page_size as u64);
    let (word_size, words_per_line) = (cfg.word_size as u64, cfg.words_per_line());
    // Capture just after the first processor finishes, while others run.
    let r = Machine::new(cfg.clone(), Protocol::Lrc).try_run(workload()).expect("run completes");
    let finishes = r.stats.procs.iter().map(|p| p.finish_time);
    let (done, at) = finishes.enumerate().min_by_key(|&(_, t)| t).expect("processors");
    assert!(at < r.stats.total_cycles, "processor {done} must finish before the run ends");
    let mut m = Machine::new(cfg, Protocol::Lrc).with_value_tracking().with_race_detection();
    m.start_run(workload());
    assert!(m.run_until(at + 1).expect("no stall"), "still running at {}", at + 1);
    let doc = lrc_json::parse(&m.snapshot().expect("capture").to_json_string()).expect("JSON");
    let space = workload().addr_space();

    fn first_row<'a>(v: &'a mut lrc_json::Value, table: &str) -> &'a mut lrc_json::Value {
        match member_mut(v, table) {
            lrc_json::Value::Array(rows) if !rows.is_empty() => &mut rows[0],
            _ => panic!("{table} must have a row to edit"),
        }
    }
    /// The first row of `section`'s `table`.
    fn row<'a>(v: &'a mut lrc_json::Value, section: &str, table: &str) -> &'a mut lrc_json::Value {
        first_row(member_mut(v, section), table)
    }
    let decimal = |n: u64| lrc_json::Value::Str(n.to_string());
    let unedited = MachineSnapshot::parse(&doc.dump()).expect("parses");
    assert!(unedited.restore(workload()).is_ok(), "the unedited capture restores");
    let lines = space.div_ceil(line_size);
    // Each edit, and the table its error must name.
    let edits = [
        ("dir line", "dir"),
        ("page", "page_home"),
        ("op count", "ops_consumed"),
        ("race word", "race.words"),
        ("misaligned race word", "race: word"),
        ("home line", "values.home"),
        ("home word", "values.home"),
        ("unflushed line", "values.unflushed"),
    ];
    for (edit, table) in edits {
        let mut v = doc.clone();
        match edit {
            // The first line, and the first page, past the address space.
            "dir line" => first_row(&mut v, "dir").set("line", decimal(lines)),
            "page" => match first_row(&mut v, "page_home") {
                lrc_json::Value::Array(pair) => pair[0] = decimal(space.div_ceil(page_size)),
                other => panic!("page_home rows are [page, home] pairs: {other:?}"),
            },
            // One op more than the finished processor consumed.
            "op count" => {
                let counts = member_mut(member_mut(&mut v, "workload"), "ops_consumed");
                let lrc_json::Value::Array(counts) = counts else { panic!("a list of counts") };
                let lrc_json::Value::Str(n) = &counts[done] else { panic!("decimal counts") };
                counts[done] = decimal(n.parse::<u64>().expect("a decimal count") + 1);
            }
            // The first word past the address space, and a word address
            // one byte past its word boundary.
            "race word" => {
                row(&mut v, "race", "words").set("addr", decimal(space.next_multiple_of(word_size)))
            }
            "misaligned race word" => {
                let word = row(&mut v, "race", "words");
                let addr = word["addr"].as_str().and_then(|a| a.parse::<u64>().ok());
                word.set("addr", decimal(addr.expect("a decimal address") + 1));
            }
            // The value tracker's first line past the address space, and
            // its first word past the end of a line. No write is unflushed
            // at this capture, so one is added.
            "unflushed line" => {
                let unflushed = member_mut(member_mut(&mut v, "values"), "unflushed");
                let lrc_json::Value::Array(rows) = unflushed else { panic!("a list of rows") };
                let row = format!(r#"{{"proc": 0, "line": "{lines}", "words": [[0, 0, "1"]]}}"#);
                rows.push(lrc_json::parse(&row).expect("a row"));
            }
            _ => match row(&mut v, "values", "home") {
                lrc_json::Value::Array(home) if edit == "home line" => home[0] = decimal(lines),
                lrc_json::Value::Array(home) => {
                    home[1] = lrc_json::Value::Num(words_per_line as f64)
                }
                other => panic!("home rows are [line, word, proc, seq]: {other:?}"),
            },
        }
        let snap = MachineSnapshot::parse(&v.dump()).expect("still a well-formed snapshot");
        match snap.restore(workload()) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(table), "{edit}: {msg}"),
            other => panic!("{edit}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
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

/// FNV-1a, 64-bit: a dependency-free digest for pinning document bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Run `m` to `at` on the mp3d/tiny workload and return its snapshot text.
fn snapshot_text_at(mut m: Machine, at: u64) -> String {
    m.start_run(workload());
    assert!(m.run_until(at).expect("no stall"), "still running at {at}");
    m.snapshot().expect("mid-run capture").to_json_string()
}

/// An eager machine whose homes park, forward and NACK: ERC with one
/// directory request slot per line.
fn eager_home_machine() -> Machine {
    let mut cfg = MachineConfig::paper_default(PROCS);
    cfg.resources.dir_request_slots = Some(1);
    Machine::new(cfg, Protocol::Erc).with_max_cycles(50_000_000_000)
}

/// The cycle [`eager_home_machine`]'s pinned snapshot is taken at.
const EAGER_HOME_AT: u64 = 2_000;

/// The home rows of snapshot document `doc`: `busy_info` rows, busy `dir`
/// rows, parked requests and `nacks_given` rows.
fn home_rows(doc: &lrc_json::Value) -> [usize; 4] {
    let rows = |table: &str| doc[table].as_array().map_or(&[][..], |r| r.as_slice());
    let busy = rows("dir").iter().filter(|r| r["busy"].as_bool() == Some(true)).count();
    let parked = rows("parked").iter().map(|r| r["msgs"].as_array().map_or(0, Vec::len)).sum();
    [rows("busy_info").len(), busy, parked, rows("nacks_given").len()]
}

/// The v2 wire format, pinned byte for byte. The round-trip tests compare
/// the codec only with itself, so a key renamed on both sides would pass
/// them while every snapshot already on disk stopped loading. These
/// lengths and FNV-1a-64 digests of `to_json_string()` change only when
/// the format does, and a format change must bump `SNAPSHOT_VERSION`.
/// The five machines cover the plain protocol state, the link layer with
/// value tracking and race detection, crash state, finite resources with
/// first-touch placement, and an eager home's parked requests, forward
/// episodes and NACK counts.
#[test]
fn v2_wire_format_is_pinned() {
    let mut bounded = MachineConfig::paper_default(PROCS);
    bounded.resources.ni_ingress = Some(2);
    bounded.resources.ni_egress = Some(2);
    bounded.resources.dir_request_slots = Some(0);
    bounded.resources.write_notice_buffer = Some(4);
    bounded.placement = Placement::FirstTouch;
    let cases: [(&str, Machine, u64, usize, u64); 5] = [
        ("plain", build(Protocol::Lrc, None), 5_000, 963_951, 0x85c8_e989_4808_a4e7),
        (
            "faults + values + races",
            build(Protocol::Lrc, Some(chaos_plan)).with_value_tracking().with_race_detection(),
            5_000,
            1_257_333,
            0xde18_a87a_de59_26d8,
        ),
        (
            "crash",
            build(Protocol::Lrc, Some(early_crash_plan)),
            8_000,
            970_187,
            0xbc0c_b708_1d56_b556,
        ),
        (
            "finite resources + first touch",
            Machine::new(bounded, Protocol::Lrc).with_max_cycles(50_000_000_000),
            5_000,
            988_730,
            0x3b98_22cf_bfd9_3989,
        ),
        ("eager homes", eager_home_machine(), EAGER_HOME_AT, 962_643, 0x6891_fb1d_e890_6fa9),
    ];
    for (name, m, at, len, digest) in cases {
        let text = snapshot_text_at(m, at);
        if name == "eager homes" {
            // The LRC machines above never park, forward or NACK.
            let doc = lrc_json::parse(&text).expect("valid");
            let rows = home_rows(&doc);
            assert!(rows.iter().all(|&n| n > 0), "{name}: every home table needs rows: {rows:?}");
        }
        assert_eq!(
            (text.len(), format!("{:016x}", fnv1a64(text.as_bytes()))),
            (len, format!("{digest:016x}")),
            "{name}: the snapshot wire format changed"
        );
    }
}

/// An eager home's four tables describe one record per line, so restore
/// checks that they agree: a `dir` row is `busy` exactly when its line has
/// a `busy_info` episode, and every `parked`, `busy_info` and
/// `nacks_given` row has its line's `dir` row. Each edit of the pinned
/// eager document below must be a `Corrupt` naming its table and line.
/// (Restored, a `busy` flag without an episode stalls the resumed run in a
/// NACK storm on that line.)
#[test]
fn home_rows_that_disagree_are_typed_corruption_errors() {
    use lrc_json::Value;
    fn rows<'a>(v: &'a mut Value, table: &str) -> &'a mut Vec<Value> {
        match member_mut(v, table) {
            Value::Array(rows) => rows,
            other => panic!("{table} is a list of rows: {other:?}"),
        }
    }
    /// The line of a table row: an object's `line`, or a pair's first item.
    fn line(row: &Value) -> u64 {
        let key = if row.is_array() { &row[0] } else { &row["line"] };
        key.as_str().and_then(|l| l.parse().ok()).expect("a decimal line")
    }
    fn set_busy(v: &mut Value, l: u64, busy: bool) {
        let row = rows(v, "dir").iter_mut().find(|r| line(r) == l).expect("the dir row");
        row.set("busy", busy);
    }
    let doc =
        lrc_json::parse(&snapshot_text_at(eager_home_machine(), EAGER_HOME_AT)).expect("valid");
    let unedited = MachineSnapshot::parse(&doc.dump()).expect("parses");
    assert!(unedited.restore(workload()).is_ok(), "the unedited capture restores");
    let dir = doc["dir"].as_array().expect("dir rows");
    let first_with = |busy: bool| {
        let row = dir.iter().find(|r| r["busy"].as_bool() == Some(busy));
        line(row.expect("a dir row of each kind"))
    };
    let (busy, idle) = (first_with(true), first_with(false));
    let dir_lines: Vec<u64> = dir.iter().map(line).collect();
    let orphan = (0..).find(|l| !dir_lines.contains(l)).expect("a line without a dir row");
    let decimal = |n: u64| Value::Str(n.to_string());
    // Each edit, and the table and line its error must name.
    let edits = [
        ("idle row marked busy", "dir", idle),
        ("no episodes", "dir", busy),
        ("busy row marked idle", "busy_info", busy),
        ("orphan parked row", "parked", orphan),
        ("orphan episode", "busy_info", orphan),
        ("orphan NACK count", "nacks_given", orphan),
    ];
    for (edit, table, at) in edits {
        let mut v = doc.clone();
        match edit {
            "idle row marked busy" => set_busy(&mut v, idle, true),
            "busy row marked idle" => set_busy(&mut v, busy, false),
            "no episodes" => rows(&mut v, "busy_info").clear(),
            "orphan parked row" => rows(&mut v, "parked")[0].set("line", decimal(orphan)),
            "orphan episode" => {
                let mut episode = rows(&mut v, "busy_info")[0].clone();
                episode.set("line", decimal(orphan));
                rows(&mut v, "busy_info").push(episode);
            }
            _ => match &mut rows(&mut v, "nacks_given")[0] {
                Value::Array(pair) => pair[0] = decimal(orphan),
                other => panic!("nacks_given rows are [line, count] pairs: {other:?}"),
            },
        }
        let snap = MachineSnapshot::parse(&v.dump()).expect("still a well-formed snapshot");
        match snap.restore(workload()) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.starts_with(&format!("{table}: line {at} ")), "{edit}: {msg}")
            }
            other => panic!("{edit}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
}

/// Positions (member or element indices) from a document root to a value.
type JsonPath = Vec<usize>;

fn value_at_mut<'a>(v: &'a mut lrc_json::Value, path: &[usize]) -> &'a mut lrc_json::Value {
    use lrc_json::Value;
    path.iter().fold(v, |v, &i| match v {
        Value::Object(fields) => &mut fields[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("paths lead through containers"),
    })
}

/// What one top-level section offers each value mutation.
#[derive(Default)]
struct Targets {
    numbers: Vec<JsonPath>,
    /// Decimal-string leaves: the wire form of every `u64` (line and page
    /// addresses, times, counts).
    decimals: Vec<JsonPath>,
    bools: Vec<JsonPath>,
    /// Objects and arrays with at least two children.
    parents: Vec<JsonPath>,
}

fn collect_targets(v: &lrc_json::Value, path: &mut JsonPath, t: &mut Targets) {
    use lrc_json::Value;
    let children: Vec<&Value> = match v {
        Value::Num(_) => return t.numbers.push(path.clone()),
        Value::Str(d) if !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()) => {
            return t.decimals.push(path.clone())
        }
        Value::Bool(_) => return t.bools.push(path.clone()),
        Value::Object(fields) => fields.iter().map(|(_, c)| c).collect(),
        Value::Array(items) => items.iter().collect(),
        _ => return,
    };
    if children.len() >= 2 {
        t.parents.push(path.clone());
    }
    for (i, c) in children.into_iter().enumerate() {
        path.push(i);
        collect_targets(c, path, t);
        path.pop();
    }
}

/// Seeded mutation test of the decoder: every mutant of two mid-run
/// 4-processor snapshots must parse and restore to `Ok` or a typed
/// `SnapshotError`, never a panic. Mutations: truncation at a random
/// offset; a numeric leaf, or a decimal-string leaf, set to 0, 1, the
/// processor count, 2^53 or 10^12; a flipped bool; two sibling values
/// swapped. A value mutation picks its top-level section first, so the
/// small `config` and `fault_plan` sections are hit as often as the event
/// queue.
#[test]
fn mutated_snapshots_restore_or_fail_typed() {
    let texts = [
        small_snapshot(Protocol::Lrc, chaos_plan(), 3_000, true, None),
        small_snapshot(Protocol::Erc, early_crash_plan(), 8_000, false, None),
    ];
    mutation_sweep(&texts, 300, 0x5EED_F00D);
}

/// The longer sweep: 3,000 mutants of four snapshots that all carry the
/// race detector's word table and the value tracker's home image and
/// unflushed records, and among them an eager home's forward episodes,
/// parked requests and NACK counts (release build; `scripts/ci.sh` runs
/// it).
#[test]
#[ignore = "long sweep: run in release with --ignored"]
fn many_mutated_tracker_snapshots_restore_or_fail_typed() {
    let texts = [
        small_snapshot(Protocol::Lrc, chaos_plan(), 3_000, true, None),
        small_snapshot(Protocol::Sc, FaultPlan::off(0), 6_000, true, None),
        small_snapshot(Protocol::Erc, FaultPlan::off(0), 8_000, true, None),
        small_snapshot(Protocol::Erc, FaultPlan::off(0), 8_000, true, Some(1)),
    ];
    let docs: Vec<lrc_json::Value> =
        texts.iter().map(|t| lrc_json::parse(t).expect("valid")).collect();
    for doc in &docs {
        for (section, table) in [("race", "words"), ("values", "home"), ("values", "unflushed")] {
            let rows = doc[section][table].as_array().map_or(0, |rows| rows.len());
            assert!(rows > 0, "{section}.{table} must have rows to mutate");
        }
    }
    for table in ["busy_info", "parked", "nacks_given"] {
        let rows = docs.iter().map(|d| d[table].as_array().map_or(0, Vec::len)).sum::<usize>();
        assert!(rows > 0, "{table} must have rows to mutate in some document");
    }
    mutation_sweep(&texts, 3_000, 0x0DD_5EED);
}

/// The snapshot text of a bounded-resource 4-processor mp3d/tiny run under
/// `plan`, paused at `at`, with value tracking and race detection armed
/// when `tracked`, and `slots` directory request slots per line.
fn small_snapshot(
    proto: Protocol,
    plan: FaultPlan,
    at: u64,
    tracked: bool,
    slots: Option<usize>,
) -> String {
    let mut cfg = MachineConfig::paper_default(MUTATED_PROCS);
    cfg.resources.ni_ingress = Some(2);
    cfg.resources.write_notice_buffer = Some(4);
    cfg.resources.dir_request_slots = slots;
    let mut m = Machine::new(cfg, proto).with_fault_plan(plan);
    if tracked {
        m = m.with_value_tracking().with_race_detection();
    }
    m.start_run(WorkloadKind::Mp3d.build(MUTATED_PROCS, Scale::Tiny));
    assert!(m.run_until(at).expect("no stall"), "still running at {at}");
    m.snapshot().expect("mid-run capture").to_json_string()
}

/// Processors of the mutated snapshots' machines.
const MUTATED_PROCS: usize = 4;

/// Parse and restore `mutants` seeded mutants of `texts` (see
/// [`mutated_snapshots_restore_or_fail_typed`]): none may panic, and some
/// must restore while others are rejected.
fn mutation_sweep(texts: &[String], mutants: usize, seed: u64) {
    use lazy_rc::sim::Rng;
    use lrc_json::Value;
    const NP: usize = MUTATED_PROCS;
    let docs: Vec<Value> = texts.iter().map(|t| lrc_json::parse(t).expect("valid")).collect();
    let sections: Vec<Vec<Targets>> = docs
        .iter()
        .map(|d| {
            let fields = d.as_object().expect("snapshot root is an object");
            (0..fields.len())
                .map(|i| {
                    let mut t = Targets::default();
                    collect_targets(&fields[i].1, &mut vec![i], &mut t);
                    t
                })
                .collect()
        })
        .collect();

    let mut rng = Rng::new(seed);
    let (mut restored, mut rejected, mut panicked) = (0, 0, Vec::new());
    for n in 0..mutants {
        let d = rng.below(texts.len() as u64) as usize;
        let kind = rng.below(5);
        let (what, text) = if kind == 0 {
            let cut = rng.below(texts[d].len() as u64) as usize;
            let head = String::from_utf8_lossy(&texts[d].as_bytes()[..cut]).into_owned();
            (format!("truncated at byte {cut}"), head)
        } else {
            let pick = |t: &Targets| match kind {
                1 => &t.numbers,
                2 => &t.bools,
                3 => &t.decimals,
                _ => &t.parents,
            }
            .clone();
            let live: Vec<Vec<JsonPath>> =
                sections[d].iter().map(pick).filter(|p| !p.is_empty()).collect();
            let paths = &live[rng.below(live.len() as u64) as usize];
            let path = &paths[rng.below(paths.len() as u64) as usize];
            let mut doc = docs[d].clone();
            let target = value_at_mut(&mut doc, path);
            let what = match (kind, target) {
                (1, v) => {
                    let x = [0.0, 1.0, NP as f64, 2f64.powi(53), 1e12][rng.below(5) as usize];
                    *v = Value::Num(x);
                    format!("number at {path:?} set to {x}")
                }
                (2, Value::Bool(b)) => {
                    *b = !*b;
                    format!("bool at {path:?} flipped")
                }
                (3, v) => {
                    let x = [0, 1, NP as u64, 1 << 53, 1_000_000_000_000][rng.below(5) as usize];
                    *v = Value::Str(x.to_string());
                    format!("decimal at {path:?} set to {x}")
                }
                (_, Value::Object(fields)) => {
                    let (i, j) = (rng.below(fields.len() as u64), rng.below(fields.len() as u64));
                    let vi = fields[i as usize].1.clone();
                    fields[i as usize].1 = std::mem::replace(&mut fields[j as usize].1, vi);
                    format!("members {i} and {j} of {path:?} swapped")
                }
                (_, Value::Array(items)) => {
                    let (i, j) = (rng.below(items.len() as u64), rng.below(items.len() as u64));
                    items.swap(i as usize, j as usize);
                    format!("elements {i} and {j} of {path:?} swapped")
                }
                _ => unreachable!("targets match their mutation"),
            };
            (what, doc.dump())
        };
        let outcome = std::panic::catch_unwind(|| {
            MachineSnapshot::parse(&text)
                .and_then(|s| s.restore(WorkloadKind::Mp3d.build(NP, Scale::Tiny)))
                .is_ok()
        });
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => rejected += 1,
            Err(_) => panicked.push(format!("mutant {n} of document {d}: {what}")),
        }
    }
    assert!(panicked.is_empty(), "decoder panicked on:\n{}", panicked.join("\n"));
    assert!(restored > 0 && rejected > 0, "mutations must both pass and bite");
}
