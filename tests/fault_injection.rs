//! Robustness guard: deterministic fault injection and the progress
//! watchdog.
//!
//! Three properties are pinned here:
//!
//! 1. **Zero-overhead off switch** — installing an all-zero [`FaultPlan`]
//!    is bit-identical to not installing one: every statistic matches.
//! 2. **Recovery** — at recoverable fault rates the link layer's
//!    NACK/retry/timeout machinery delivers every protocol message exactly
//!    once, so runs complete with the same work performed, and the fault
//!    pattern (hence the whole run) is reproducible per seed.
//! 3. **Diagnosis over hang** — an unrecoverable loss (here the injected
//!    `Fault::SkipWriteNotice` protocol bug, the same one the model checker
//!    hunts) surfaces as a structured [`StallDiagnosis`] naming the wedged
//!    release fence, never as a silent hang or an opaque panic.

use lazy_rc::prelude::*;
use lazy_rc::workloads::Scale;

const PROCS: usize = 8;

fn run_with(plan: Option<FaultPlan>) -> MachineStats {
    let cfg = MachineConfig::paper_default(PROCS);
    let mut m = Machine::new(cfg, Protocol::Lrc).with_max_cycles(50_000_000_000);
    if let Some(p) = plan {
        m = m.with_fault_plan(p);
    }
    m.run(WorkloadKind::Mp3d.build(PROCS, Scale::Small)).stats
}

#[test]
fn zero_rate_plan_is_bit_identical_to_fault_free() {
    let clean = run_with(None);
    let zero = run_with(Some(FaultPlan::off(123)));
    assert_eq!(
        clean, zero,
        "an inactive fault plan must not perturb the simulation in any way"
    );
    assert!(zero.faults.is_zero());
}

#[test]
fn recoverable_fault_rates_complete_and_are_deterministic() {
    let a = run_with(Some(FaultPlan::uniform(1e-3, 7)));
    let b = run_with(Some(FaultPlan::uniform(1e-3, 7)));
    assert_eq!(a, b, "same (seed, plan) must reproduce bit-identical statistics");
    assert!(a.faults.injected() > 0, "expected injected faults at rate 1e-3: {:?}", a.faults);
    assert_eq!(a.faults.retries_exhausted, 0, "1e-3 must be recoverable: {:?}", a.faults);

    // Recovery conserves work: every reference retires exactly once.
    let clean = run_with(None);
    assert_eq!(clean.total_refs(), a.total_refs(), "faults must not lose or repeat work");

    // A different seed yields a different fault pattern.
    let c = run_with(Some(FaultPlan::uniform(1e-3, 8)));
    assert_ne!(a.faults, c.faults, "fault pattern should vary with the plan seed");
}

#[test]
fn unrecoverable_loss_yields_a_structured_deadlock_diagnosis() {
    // The checker-validation bug: a lazy weak transition counts its write
    // notices but never sends them, so the writer's release fence can
    // never clear. Outside the model checker this must surface as a
    // structured diagnosis, not a hang. The barrier orders P1's read before
    // P0's write, so the write (not the read) triggers the weak transition
    // and its skipped notices.
    let cfg = MachineConfig::paper_default(2);
    let w = Script::new(
        "wedge",
        vec![
            vec![Op::Barrier(0), Op::Acquire(0), Op::Write(0), Op::Release(0)],
            vec![Op::Read(0), Op::Barrier(0)],
        ],
    );
    let diag = Machine::new(cfg, Protocol::Lrc)
        .with_fault(Fault::SkipWriteNotice)
        .with_watchdog(1_000_000)
        .try_run(Box::new(w))
        .expect_err("a lost write notice must wedge a release fence");
    assert_eq!(diag.reason, StallReason::Deadlock, "{diag}");
    assert!(diag.pending_fences >= 1, "{diag}");
    assert!(!diag.stalled.is_empty(), "{diag}");
    assert!(diag.stalled.iter().any(|s| s.status.contains("Releasing")), "{diag}");
    let text = diag.to_string();
    assert!(text.starts_with("deadlock:"), "{text}");
    assert!(text.contains("pending fences: "), "{text}");
}

#[test]
fn stall_horizon_catches_a_wedge_while_others_make_progress() {
    // P0/P1 reproduce the wedged hand-off above; P2 and P3 keep trading a
    // different lock, so the event queue never drains and plain deadlock
    // detection never fires — only the per-processor stall horizon can
    // catch the wedge while the rest of the machine hums along.
    let churn = |steps: usize| -> Vec<Op> {
        let mut ops = Vec::with_capacity(steps * 3 + 1);
        ops.push(Op::Barrier(0));
        for _ in 0..steps {
            ops.push(Op::Acquire(1));
            ops.push(Op::Compute(5));
            ops.push(Op::Release(1));
        }
        ops
    };
    let cfg = MachineConfig::paper_default(4);
    let w = Script::new(
        "wedge-amid-churn",
        vec![
            vec![Op::Barrier(0), Op::Acquire(0), Op::Write(0), Op::Release(0)],
            vec![Op::Read(0), Op::Barrier(0)],
            churn(3000),
            churn(3000),
        ],
    );
    let diag = Machine::new(cfg, Protocol::Lrc)
        .with_fault(Fault::SkipWriteNotice)
        .with_watchdog(50_000)
        .try_run(Box::new(w))
        .expect_err("the stall horizon must catch the wedged fence");
    assert_eq!(diag.reason, StallReason::ProcStallHorizon(50_000), "{diag}");
    assert!(diag.pending_events > 0, "horizon must fire while events were still flowing: {diag}");
    assert!(diag.stalled.iter().any(|s| s.status.contains("Releasing")), "{diag}");
    assert!(diag.to_string().starts_with("watchdog:"), "{diag}");
}

#[test]
fn stall_horizon_catches_a_stall_in_a_short_run() {
    // P1 waits at the barrier while P0 works for ten horizons before it
    // arrives. The run handles a few hundred events, so only a scan paced
    // by simulated time, not by events handled, can see the wait.
    let work: Vec<Op> = (0..50u64)
        .flat_map(|i| [Op::Write(4096 + 64 * i), Op::Compute(2_000)])
        .chain([Op::Barrier(0)])
        .collect();
    let script = || Script::new("late-arrival", vec![work.clone(), vec![Op::Barrier(0)]]);
    let cfg = MachineConfig::paper_default(2);
    let unwatched = Machine::new(cfg.clone(), Protocol::Lrc).run(Box::new(script()));
    assert!(unwatched.events < 1_000, "not a short run: {} events", unwatched.events);
    assert!(unwatched.stats.total_cycles > 100_000, "{}", unwatched.stats.total_cycles);

    let diag = Machine::new(cfg, Protocol::Lrc)
        .with_watchdog(10_000)
        .try_run(Box::new(script()))
        .expect_err("a barrier wait of ten horizons must trip the watchdog");
    assert_eq!(diag.reason, StallReason::ProcStallHorizon(10_000), "{diag}");
    assert!(diag.stalled.iter().any(|s| s.proc == 1 && s.status.contains("Barrier")), "{diag}");
}
