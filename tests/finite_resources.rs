//! Finite protocol resources: bounded NI queues, BUSY-NACK backpressure,
//! and the write-notice overflow fallback.
//!
//! Four properties are pinned here:
//!
//! 1. **Sufficiency ⇒ bit-identity** — capacities at least as large as the
//!    peaks an unbounded run ever reaches produce *bit-identical* statistics
//!    to the unbounded run, for all four protocols: the limits cost nothing
//!    until they bind.
//! 2. **Pressure ⇒ progress** — capacities well below the observed peaks
//!    still complete every workload (backoff always advances time; the
//!    overflow fallback is a superset of the precise invalidation set),
//!    with the pressure visible in the resource counters and the whole run
//!    reproducible bit-for-bit.
//! 3. **NACK storm ⇒ diagnosis** — a busy episode that never resolves while
//!    a requester burns its whole retry budget surfaces as a structured
//!    [`StallReason::NackStorm`] naming the line, not a generic deadlock.
//! 4. **Queue-full livelock ⇒ diagnosis** — senders stuck backing off
//!    against a full NI queue surface as [`StallReason::NiQueueFull`]
//!    naming the node and occupancy, not an opaque cycle-limit abort.
//! 5. **Backpressure is not loss** — under a fault plan, an attempt a full
//!    NI queue rejects never reached the wire, so it does not spend the
//!    link layer's retry budget.

use lazy_rc::prelude::*;
use lazy_rc::workloads::Scale;

const PROCS: usize = 8;

fn run_with(protocol: Protocol, resources: ResourceLimits) -> RunResult {
    let mut cfg = MachineConfig::paper_default(PROCS);
    cfg.resources = resources;
    Machine::new(cfg, protocol)
        .with_max_cycles(50_000_000_000)
        .run(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny))
}

/// Roomy limits that observe occupancy without ever binding.
fn probe_limits() -> ResourceLimits {
    ResourceLimits {
        ni_ingress: Some(1 << 20),
        ni_egress: Some(1 << 20),
        dir_request_slots: Some(1 << 20),
        write_notice_buffer: Some(1 << 20),
        ..ResourceLimits::unbounded()
    }
}

#[test]
fn sufficient_capacities_are_bit_identical_to_unbounded() {
    for p in Protocol::ALL {
        let unbounded = run_with(p, ResourceLimits::unbounded());
        // Roomy bounds must not perturb anything observable.
        let probe = run_with(p, probe_limits());
        assert_eq!(
            unbounded.stats,
            probe.stats,
            "{}: roomy limits changed the simulation",
            p.name()
        );

        // Exactly-sufficient bounds: capacity = the peak the probe observed.
        let exact = ResourceLimits {
            ni_ingress: Some(probe.ni_peak_ingress.max(1)),
            ni_egress: Some(probe.ni_peak_egress.max(1)),
            dir_request_slots: Some(probe.stats.resources.peak_parked.max(1) as usize),
            write_notice_buffer: Some(probe.stats.resources.peak_pending_invals.max(1) as usize),
            ..ResourceLimits::unbounded()
        };
        let bounded = run_with(p, exact);
        assert_eq!(
            unbounded.stats,
            bounded.stats,
            "{}: sufficient capacities must be bit-identical to unbounded",
            p.name()
        );
        assert!(
            bounded.stats.resources.is_zero(),
            "{}: sufficient capacities must never reject, NACK, or overflow: {:?}",
            p.name(),
            bounded.stats.resources
        );
    }
}

#[test]
fn tight_capacities_complete_under_pressure_and_reproduce() {
    let tight = ResourceLimits {
        ni_ingress: Some(2),
        ni_egress: Some(2),
        dir_request_slots: Some(1),
        write_notice_buffer: Some(1),
        ..ResourceLimits::unbounded()
    };
    let mut pressure = 0u64;
    for p in Protocol::ALL {
        let a = run_with(p, tight);
        let b = run_with(p, tight);
        assert_eq!(
            a.stats,
            b.stats,
            "{}: bounded runs must be bit-identical per config",
            p.name()
        );
        // Degradation never loses or repeats processor-visible work.
        let clean = run_with(p, ResourceLimits::unbounded());
        assert_eq!(
            clean.stats.total_refs(),
            a.stats.total_refs(),
            "{}: backpressure must not lose or repeat references",
            p.name()
        );
        let r = &a.stats.resources;
        pressure += r.ni_rejects + r.busy_nacks + r.wn_overflows;
        if p.is_lazy() {
            assert!(
                r.wn_overflows > 0,
                "{}: a 1-entry write-notice buffer must overflow on mp3d: {r:?}",
                p.name()
            );
            assert!(
                r.overflow_fallbacks > 0 && r.overflow_invalidations > 0,
                "{}: overflows must be repaid at the next acquire: {r:?}",
                p.name()
            );
        }
    }
    assert!(pressure > 0, "tight capacities produced no resource pressure at all");
}

#[test]
fn nack_storm_yields_a_structured_diagnosis() {
    // P0 and P1 share line 0; after the barrier P0's write starts an
    // invalidation round whose Invalidate (the first Notice-class message)
    // is dropped with zero link-layer retries — the ack collection can
    // never complete. P2's late read then finds the entry busy forever:
    // with zero directory request slots it is NACKed until the retry
    // budget is spent, parks as the fallback, and the machine drains. The
    // diagnosis must name the storm, not report a generic deadlock.
    let mut cfg = MachineConfig::paper_default(3);
    cfg.resources.dir_request_slots = Some(0);
    cfg.resources.nack_retry_budget = 3;
    let mut plan = FaultPlan::drop_nth(MsgClass::Notice, 0);
    plan.max_retries = 0;
    let w = Script::new(
        "nack-storm",
        vec![
            vec![Op::Read(0), Op::Barrier(0), Op::Write(0)],
            vec![Op::Read(0), Op::Barrier(0)],
            vec![Op::Barrier(0), Op::Compute(2000), Op::Read(0)],
        ],
    );
    let diag = Machine::new(cfg, Protocol::Erc)
        .with_fault_plan(plan)
        .try_run(Box::new(w))
        .expect_err("an unresolvable busy entry must wedge the late reader");
    assert_eq!(diag.reason, StallReason::NackStorm { line: 0, nacks: 3 }, "{diag}");
    assert!(!diag.stalled.is_empty(), "{diag}");
    let text = diag.to_string();
    assert!(text.contains("BUSY-NACK storm"), "{text}");
    assert!(text.contains("line 0"), "{text}");
    // Finite resources auto-arm the flight recorder: the diagnosis carries
    // the events leading up to the stall.
    assert!(!diag.recent_events.is_empty(), "{diag}");
    assert!(text.contains("events before the stall"), "{text}");
}

#[test]
fn ni_queue_full_yields_a_structured_diagnosis() {
    // Every line is homed at node 0 and its ingress queue holds one
    // message: seven remote readers hammer it, so at any instant most of
    // them sit in NI backoff. The cycle ceiling trips mid-storm and the
    // diagnosis must name the full queue rather than the generic horizon.
    let mut cfg = MachineConfig::paper_default(PROCS);
    cfg.placement = Placement::AllAtZero;
    cfg.resources.ni_ingress = Some(1);
    // A long backoff keeps rejected senders parked in their retry window,
    // so the horizon reliably trips while the backlog is live.
    cfg.resources.nack_backoff_base = 2_000;
    let mut progs: Vec<Vec<Op>> = vec![Vec::new()];
    for p in 1..PROCS {
        progs.push((0..400).map(|i| Op::Read((p * 100_000 + i * 64) as u64)).collect());
    }
    let w = Script::new("many-to-one", progs);
    let diag = Machine::new(cfg, Protocol::Erc)
        .with_max_cycles(30_000)
        .try_run(Box::new(w))
        .expect_err("seven-to-one traffic into a 1-slot queue cannot finish in 30k cycles");
    assert!(
        matches!(diag.reason, StallReason::NiQueueFull { node: 0, occupancy: 1, cap: 1 }),
        "{diag}"
    );
    let text = diag.to_string();
    assert!(text.contains("NI queue full"), "{text}");
    assert!(text.contains("queue-full livelock"), "{text}");
    assert!(!diag.recent_events.is_empty(), "{diag}");
}

#[test]
fn full_ni_queues_do_not_spend_the_link_retry_budget() {
    // Under a fault plan the link layer's retry timer doubles as the NI
    // backpressure loop. Were each rejected attempt charged to
    // `max_retries`, the lazy protocols' write-through bursts would exhaust
    // the budget against queues that are merely full, abandon messages,
    // and wedge.
    let mut cfg = MachineConfig::paper_default(PROCS);
    cfg.resources.ni_ingress = Some(8);
    cfg.resources.ni_egress = Some(8);
    for p in [Protocol::Lrc, Protocol::LrcExt] {
        let r = Machine::new(cfg.clone(), p)
            .with_max_cycles(50_000_000_000)
            .with_fault_plan(FaultPlan::uniform(1e-4, 0xFEED))
            .try_run(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny))
            .unwrap_or_else(|d| panic!("{}: {d}", p.name()));
        assert!(r.stats.resources.ni_rejects > 0, "{}: the NI queues never filled", p.name());
        assert_eq!(r.stats.faults.retries_exhausted, 0, "{}", p.name());
    }
}
