//! Crash-stop failure suite: seeded node deaths, lease-based detection,
//! directory reclamation, and degraded-mode progress.
//!
//! Four properties are pinned here:
//!
//! 1. **Determinism** — the same `(seed, crash plan)` pair reproduces
//!    bit-identical statistics, for every protocol; crash recovery is part
//!    of the deterministic simulation, not a wall-clock race.
//! 2. **Completion** — survivors of a mid-run crash finish the workload:
//!    lines, locks, and barrier slots held by the dead node are reclaimed,
//!    so the run ends in a clean quiescent state instead of a wedge.
//! 3. **Typed data loss** — a dirty line whose only up-to-date copy died
//!    with its owner surfaces as a [`lazy_rc::sim::DataLossEvent`] in
//!    `MachineStats`, never silently.
//! 4. **No false positives** — a slow-but-alive node is *not* declared
//!    dead while message delays stay under the lease bound (satellite of
//!    the lease design: the bound must dominate heartbeat period plus
//!    worst-case fabric delay).
//!
//! Plus the checker acceptance bar: `--crash-nth` turns crash timing into
//! a deterministic choice point, and the injected recovery bug
//! [`Fault::SkipLockReclaim`] yields a minimized, replayable liveness
//! counterexample.

use lazy_rc::prelude::*;
use lazy_rc::sim::Op;
use lazy_rc::sim::Script;
use lazy_rc::workloads::Scale;

const PROCS: usize = 8;
const VICTIM: usize = 2;

/// Kill node 2 early, with a lease short enough that detection lands well
/// inside the run but still comfortably above the heartbeat period plus
/// the worst-case NI queueing delay mp3d's contention produces (~800
/// cycles) — tighter leases falsely declare live nodes dead.
fn kill_plan() -> FaultPlan {
    let mut cp = CrashPlan::kill(VICTIM, 2_000);
    cp.heartbeat_every = 500;
    cp.lease_timeout = 4_000;
    FaultPlan::off(0xDEAD).with_crash(cp)
}

fn run_crashed(proto: Protocol) -> MachineStats {
    let cfg = MachineConfig::paper_default(PROCS);
    Machine::new(cfg, proto)
        .with_max_cycles(50_000_000_000)
        .with_fault_plan(kill_plan())
        .try_run(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny))
        .unwrap_or_else(|d| panic!("{proto}: survivors wedged after the crash: {d}"))
        .stats
}

#[test]
fn crashed_runs_complete_and_are_deterministic_all_protocols() {
    for proto in Protocol::ALL {
        let a = run_crashed(proto);
        let b = run_crashed(proto);
        assert_eq!(a, b, "{proto}: same (seed, crash plan) must be bit-identical");

        let c = &a.crashes;
        assert_eq!(c.crashes, 1, "{proto}: exactly one node dies: {c:?}");
        assert_eq!(
            c.suspicions,
            (PROCS - 1) as u64,
            "{proto}: every survivor suspects the victim exactly once: {c:?}"
        );
        assert!(c.heartbeats_sent > 0, "{proto}: detection was never armed: {c:?}");

        // Survivors finished; the victim did not.
        for (p, ps) in a.procs.iter().enumerate() {
            if p == VICTIM {
                assert_eq!(ps.finish_time, 0, "{proto}: the victim cannot finish");
            } else {
                assert!(ps.finish_time > 0, "{proto}: survivor {p} never finished");
            }
        }
    }
}

#[test]
fn crashes_off_stats_carry_the_zero_signature() {
    let cfg = MachineConfig::paper_default(PROCS);
    let stats = Machine::new(cfg, Protocol::Lrc)
        .with_max_cycles(50_000_000_000)
        .run(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny))
        .stats;
    assert!(
        stats.crashes.is_zero(),
        "a run without a crash plan must keep all crash counters at zero"
    );
}

/// Satellite: message delays below the lease bound must never produce a
/// suspicion, on any protocol. The lease (4000) comfortably dominates the
/// heartbeat period (500) plus the injected delay (400) and the
/// worst-case NI queueing backlog, so a slow-but-alive node stays alive.
#[test]
fn lease_holds_under_message_delays_all_protocols() {
    let delay_plan = || {
        let mut plan = FaultPlan::off(0x51_0E);
        plan.rates = [FaultRates { delay: 0.3, ..FaultRates::default() }; MsgClass::COUNT];
        plan.delay_cycles = 400;
        let mut cp = CrashPlan::detection_only();
        cp.heartbeat_every = 500;
        cp.lease_timeout = 4_000;
        plan.with_crash(cp)
    };
    for proto in Protocol::ALL {
        let cfg = MachineConfig::paper_default(PROCS);
        let stats = Machine::new(cfg, proto)
            .with_max_cycles(50_000_000_000)
            .with_fault_plan(delay_plan())
            .try_run(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny))
            .unwrap_or_else(|d| panic!("{proto}: delayed run wedged: {d}"))
            .stats;
        let c = &stats.crashes;
        assert!(stats.faults.delayed > 0, "{proto}: no delays injected: {:?}", stats.faults);
        assert!(c.heartbeats_sent > 0, "{proto}: detection was never armed: {c:?}");
        assert_eq!(c.suspicions, 0, "{proto}: delay under the lease bound declared a live node dead: {c:?}");
        assert_eq!(c.crashes, 0, "{proto}: nobody dies under a detection-only plan: {c:?}");
        for (p, ps) in stats.procs.iter().enumerate() {
            assert!(ps.finish_time > 0, "{proto}: node {p} never finished");
        }
    }
}

/// A dirty-owned line dies with its owner: the home must reclaim it as a
/// typed `DataLoss`, pass the dead node's lock to the queued survivors,
/// and release its barrier slot — and the survivors must complete.
#[test]
fn dirty_owner_crash_surfaces_typed_data_loss_and_releases_sync() {
    const NP: usize = 4;
    // P2 takes lock 0 (homed at live node 0), dirties a line, then crashes
    // mid-compute without releasing. P0 and P1 queue on the same lock and
    // read the line afterwards; P3 just waits at the final barrier.
    let script = Script::new(
        "dirty-owner-crash",
        vec![
            vec![Op::Compute(8_000), Op::Acquire(0), Op::Read(0x100), Op::Release(0), Op::Barrier(0)],
            vec![Op::Compute(8_000), Op::Acquire(0), Op::Read(0x100), Op::Release(0), Op::Barrier(0)],
            vec![Op::Acquire(0), Op::Write(0x100), Op::Compute(100_000), Op::Release(0), Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ],
    );
    let mut cp = CrashPlan::kill(2, 5_000);
    cp.heartbeat_every = 200;
    cp.lease_timeout = 600;
    let stats = Machine::new(MachineConfig::paper_default(NP), Protocol::Lrc)
        .with_max_cycles(50_000_000_000)
        .with_fault_plan(FaultPlan::off(7).with_crash(cp))
        .try_run(Box::new(script))
        .unwrap_or_else(|d| panic!("survivors wedged after the dirty-owner crash: {d}"))
        .stats;

    let c = &stats.crashes;
    assert_eq!(c.crashes, 1, "{c:?}");
    assert!(c.dirty_lines_lost >= 1, "the dirty line must be reported lost: {c:?}");
    assert!(!c.data_loss.is_empty(), "{c:?}");
    assert_eq!(c.data_loss[0].owner, 2, "the victim owned the lost line: {c:?}");
    assert!(c.locks_reclaimed >= 1, "the dead holder's lock must pass on: {c:?}");
    for p in [0usize, 1, 3] {
        assert!(stats.procs[p].finish_time > 0, "survivor {p} never finished");
    }
}

/// Acceptance bar for `lrc-check --crash-nth`: with the injected recovery
/// bug (a home that skips reclaiming a dead node's locks), some crash
/// timing yields a liveness counterexample; the minimized schedule replays
/// to the same failure; the same timing still fails with the BUSY-NACK
/// choice point armed too; and with recovery intact the identical crash
/// timing passes.
#[test]
fn checker_minimizes_a_crash_recovery_counterexample() {
    use lrc_check::check_and_minimize;
    use lrc_check::explore::{replay_schedule, BuildOpts, Failure, Limits};

    let s = lrc_check::scenario::by_name("counter").expect("counter scenario");
    // Victim 1 (lock 0 homes at node 0, which stays alive, so the reclaim
    // path — and the injected bug in it — is actually exercised).
    let victim = 1usize;
    let limits = Limits::default();

    let mut found = None;
    for n in 1..=80u64 {
        let opts = BuildOpts { crash_nth: Some((victim, n)), ..BuildOpts::default() };
        let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipLockReclaim, opts, limits);
        if !outcome.passed() {
            found = Some((n, opts, outcome));
            break;
        }
    }
    let (n, opts, outcome) =
        found.expect("no crash timing in 1..=80 provoked the skipped lock reclaim");

    let minimized = outcome.minimized.expect("counterexamples are minimized");
    let (failure, _) = replay_schedule(&s, Protocol::Lrc, Fault::SkipLockReclaim, opts, &minimized);
    match failure {
        Some(Failure::Liveness(_)) => {}
        other => panic!("minimized schedule must replay to the liveness wedge, got {other:?}"),
    }

    let rendered = outcome.rendered.expect("counterexamples are rendered");
    assert!(rendered.contains("crash choice point"), "{rendered}");
    assert!(rendered.contains(&format!("--crash-nth {n} --crash-node {victim}")), "{rendered}");

    // The NACK choice point never fires under lazy, so it must not mask
    // the wedge: the same crash timing still fails with it armed.
    let nacked = BuildOpts { nack_nth: Some(0), ..opts };
    let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipLockReclaim, nacked, limits);
    assert!(!outcome.passed(), "the NACK choice point hid the crash-recovery wedge");
    let rendered = outcome.rendered.expect("counterexamples are rendered");
    assert!(rendered.contains("--nack-nth 0"), "{rendered}");

    // Positive control: recovery intact, same crash timing, no wedge.
    let clean = check_and_minimize(&s, Protocol::Lrc, Fault::None, opts, limits);
    assert!(
        clean.passed(),
        "with reclamation intact the same crash timing must pass: {:?}",
        clean.rendered
    );
}
