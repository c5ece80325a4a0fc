//! The checker's own test suite.
//!
//! Default tier: exhaustively verify the cheapest 2-processor scenarios
//! under all four protocols, boundedly verify the rest, and prove the
//! checker actually *catches* bugs by injecting two protocol mutations and
//! asserting a minimized counterexample of the right class comes back.
//! The full exhaustive sweep over every scenario is `#[ignore]`d — run it
//! with `cargo test -p lrc-check --release -- --ignored`, as `scripts/ci.sh`
//! does. Every exhaustive run asserts its exploration counts against
//! [`PINNED`], so a fingerprint that merged or split states fails here.

use lrc_check::explore::{check, check_raced, replay_schedule, CheckReport, Failure, Limits};
use lrc_check::minimize::FailureClass;
use lrc_check::{check_and_minimize, scenario};
use lrc_core::Fault;
use lrc_sim::Protocol;

const EXHAUSTIVE: Limits = Limits { max_states: 0, max_depth: 4_000 };

fn bounded(max_states: usize) -> Limits {
    Limits { max_states, max_depth: 4_000 }
}

/// The cheap scenarios: small enough to exhaust under every protocol in
/// debug builds.
const CHEAP: &[&str] = &["handoff", "barrier-phases", "counter", "three-way"];

/// `(states, terminals, max_depth_seen)` of one exhaustive exploration.
type Counts = (usize, usize, usize);

/// The exhaustive exploration counts of every scenario, per protocol in
/// `Protocol::ALL` order (sc, eager, lazy, lazy-ext): [`check`] first, then
/// [`check_raced`]. Exploration is deterministic, so debug and release
/// builds agree. They pin the explored state spaces: a fingerprint that
/// merged two logical states, or split one, moves them.
const PINNED: &[(&str, [Counts; 4], [Counts; 4])] = &[
    (
        "handoff",
        [(156, 2, 27), (226, 2, 27), (2_377, 1, 30), (226, 1, 26)],
        [(156, 2, 27), (226, 2, 27), (2_384, 2, 31), (229, 2, 27)],
    ),
    (
        "counter",
        [(701, 2, 61), (1_007, 2, 62), (123_547, 4, 64), (3_091, 4, 52)],
        [(757, 4, 61), (1_063, 4, 62), (130_846, 6, 64), (3_457, 6, 52)],
    ),
    (
        "barrier-phases",
        [(213, 1, 22), (271, 1, 22), (8_847, 8, 31), (810, 8, 30)],
        [(213, 1, 22), (271, 1, 22), (8_847, 8, 31), (810, 8, 30)],
    ),
    (
        "two-locks",
        [(1_584, 3, 40), (2_371, 3, 40), (60_944, 3, 46), (5_636, 3, 44)],
        [(1_584, 3, 40), (2_371, 3, 40), (61_508, 5, 47), (5_841, 5, 45)],
    ),
    (
        "conflict-evict",
        [(625, 2, 32), (4_384, 3, 33), (259_379, 4, 40), (7_982, 3, 37)],
        [(625, 2, 32), (4_384, 3, 33), (259_420, 5, 40), (8_000, 5, 38)],
    ),
    (
        "three-way",
        [(2_123, 6, 46), (3_155, 6, 47), (37_367, 3, 47), (2_103, 3, 38)],
        [(2_123, 6, 46), (3_155, 6, 47), (38_100, 6, 48), (2_157, 6, 39)],
    ),
];

/// The pinned counts of `scenario` under the protocol at `Protocol::ALL`
/// index `p`, plain or raced.
fn pinned(scenario: &str, p: usize, raced: bool) -> Counts {
    let (_, plain, with_races) = PINNED
        .iter()
        .find(|(name, ..)| *name == scenario)
        .unwrap_or_else(|| panic!("no pinned counts for scenario {scenario}"));
    if raced {
        with_races[p]
    } else {
        plain[p]
    }
}

/// Assert that an exhaustive run passed and explored exactly its pinned
/// state space.
fn assert_exhausted_as_pinned(r: CheckReport, scenario: &str, p: usize, raced: bool) {
    let what = format!(
        "{scenario} under {}{}",
        Protocol::ALL[p].name(),
        if raced { " (raced)" } else { "" }
    );
    assert!(
        r.counterexample.is_none(),
        "{what} failed: {}",
        r.counterexample.unwrap().failure
    );
    assert!(r.complete, "{what} did not exhaust");
    assert_eq!(
        (r.states, r.terminals, r.max_depth_seen),
        pinned(scenario, p, raced),
        "{what}: explored state space moved (states, terminals, max depth)"
    );
}

#[test]
fn cheap_scenarios_pass_exhaustively_under_all_protocols() {
    for name in CHEAP {
        let s = scenario::by_name(name).unwrap();
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            // `counter` under plain lazy is the one cheap case with a six-
            // figure state space; bound it in the default tier (the ignored
            // sweep exhausts it).
            if *name == "counter" && p == Protocol::Lrc {
                let r = check(&s, p, Fault::None, bounded(30_000));
                assert!(
                    r.counterexample.is_none(),
                    "{name} under {} failed: {}",
                    p.name(),
                    r.counterexample.unwrap().failure
                );
                continue;
            }
            assert_exhausted_as_pinned(check(&s, p, Fault::None, EXHAUSTIVE), name, i, false);
        }
    }
}

#[test]
fn remaining_scenarios_pass_bounded_under_all_protocols() {
    for name in ["two-locks", "conflict-evict"] {
        let s = scenario::by_name(name).unwrap();
        for p in Protocol::ALL {
            let r = check(&s, p, Fault::None, bounded(15_000));
            assert!(
                r.counterexample.is_none(),
                "{name} under {} failed: {}",
                p.name(),
                r.counterexample.unwrap().failure
            );
            assert!(r.terminals > 0 || !r.complete, "{name} under {} explored nothing", p.name());
        }
    }
}

#[test]
#[ignore = "full exhaustive sweep (~minutes in debug builds)"]
fn all_scenarios_pass_exhaustively_under_all_protocols() {
    let names: Vec<&str> = scenario::all().iter().map(|s| s.name).collect();
    let pinned_names: Vec<&str> = PINNED.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names, pinned_names, "every scenario needs pinned counts");
    for s in scenario::all() {
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            let plain = check(&s, p, Fault::None, EXHAUSTIVE);
            assert_exhausted_as_pinned(plain, s.name, i, false);
            let raced = check_raced(&s, p, Fault::None, EXHAUSTIVE);
            assert_exhausted_as_pinned(raced, s.name, i, true);
        }
    }
}

#[test]
fn skip_invalidate_fault_yields_minimized_safety_counterexample() {
    let s = scenario::by_name("counter").unwrap();
    let outcome = check_and_minimize(&s, Protocol::Erc, Fault::SkipInvalidate, EXHAUSTIVE);
    assert!(!outcome.passed(), "injected stale-copy bug went undetected");
    let cex = outcome.report.counterexample.as_ref().unwrap();
    assert_eq!(FailureClass::of(&cex.failure), FailureClass::Safety, "{}", cex.failure);

    let minimized = outcome.minimized.as_ref().unwrap();
    assert!(
        minimized.len() <= cex.schedule.len(),
        "minimizer grew the schedule: {} -> {}",
        cex.schedule.len(),
        minimized.len()
    );
    // The minimized schedule must still reproduce a safety violation.
    let (failure, _) = replay_schedule(&s, Protocol::Erc, Fault::SkipInvalidate, minimized, 50_000);
    assert!(matches!(failure, Some(Failure::Safety(_))), "{failure:?}");

    let rendered = outcome.rendered.as_ref().unwrap();
    assert!(rendered.contains("safety:"), "{rendered}");
    assert!(rendered.contains("message timeline"), "{rendered}");
    assert!(rendered.contains("reproduce: lrc-check"), "{rendered}");
}

#[test]
fn skip_write_notice_fault_yields_minimized_liveness_counterexample() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipWriteNotice, EXHAUSTIVE);
    assert!(!outcome.passed(), "injected lost-write-notice bug went undetected");
    let cex = outcome.report.counterexample.as_ref().unwrap();
    assert_eq!(FailureClass::of(&cex.failure), FailureClass::Liveness, "{}", cex.failure);

    let minimized = outcome.minimized.as_ref().unwrap();
    let (failure, m) =
        replay_schedule(&s, Protocol::Lrc, Fault::SkipWriteNotice, minimized, 50_000);
    assert!(matches!(failure, Some(Failure::Liveness(_))), "{failure:?}");
    assert_eq!(m.num_pending(), 0, "liveness counterexample must drain the queue");

    let rendered = outcome.rendered.as_ref().unwrap();
    assert!(rendered.contains("liveness:"), "{rendered}");
    assert!(rendered.contains("stuck"), "{rendered}");
}

#[test]
fn counterexample_schedules_replay_deterministically() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipWriteNotice, EXHAUSTIVE);
    let minimized = outcome.minimized.unwrap();
    let render = |sched: &[usize]| {
        let (f, _) = replay_schedule(&s, Protocol::Lrc, Fault::SkipWriteNotice, sched, 50_000);
        format!("{}", f.unwrap())
    };
    assert_eq!(render(&minimized), render(&minimized), "replay is not deterministic");
}

#[test]
fn clean_protocols_have_no_failure_on_natural_order() {
    // The empty schedule (pure 0-padding) is the simulator's own event
    // order; it must drain cleanly for every scenario and protocol.
    for s in scenario::all() {
        for p in Protocol::ALL {
            let (failure, m) = replay_schedule(&s, p, Fault::None, &[], 50_000);
            assert!(failure.is_none(), "{} under {}: {}", s.name, p.name(), failure.unwrap());
            assert_eq!(m.num_pending(), 0, "{} under {} did not drain", s.name, p.name());
        }
    }
}

#[test]
fn raced_checking_keeps_drf_scenarios_clean() {
    // With the detector armed, the DRF scenarios must still verify: no
    // HbRace counterexamples, and the value checks (now gated on the
    // detector's race-freedom verdict) still run and pass. Detector state
    // widens the state space, so the bigger scenarios get bounds.
    for name in ["handoff", "barrier-phases"] {
        let s = scenario::by_name(name).unwrap();
        for p in Protocol::ALL {
            let r = check_raced(&s, p, Fault::None, bounded(20_000));
            assert!(
                r.counterexample.is_none(),
                "{name} under {} failed with races armed: {}",
                p.name(),
                r.counterexample.unwrap().failure
            );
            assert!(r.terminals > 0 || !r.complete, "{name} under {} explored nothing", p.name());
        }
    }
}

#[test]
fn racy_scenario_yields_minimized_race_counterexample() {
    // The positive control: the deliberately racy scenario must be flagged
    // as a first-class violation with a ddmin-minimized witness whose
    // replay reproduces a failure of the same class.
    use lrc_check::check_and_minimize_raced;
    use lrc_check::explore::replay_schedule_raced;
    let s = scenario::racy();
    for p in [Protocol::Sc, Protocol::Lrc] {
        let outcome = check_and_minimize_raced(&s, p, Fault::None, bounded(20_000));
        assert!(!outcome.passed(), "racy scenario passed under {}", p.name());
        let cex = outcome.report.counterexample.as_ref().unwrap();
        assert_eq!(
            FailureClass::of(&cex.failure),
            FailureClass::HbRace,
            "wrong class under {}: {}",
            p.name(),
            cex.failure
        );

        let minimized = outcome.minimized.as_ref().unwrap();
        let (failure, m) = replay_schedule_raced(&s, p, Fault::None, minimized, 50_000);
        assert!(
            matches!(failure, Some(Failure::HbRace(_))),
            "minimized witness does not replay under {}: {failure:?}",
            p.name()
        );
        let rs = m.race_stats().expect("detector armed");
        assert!(rs.races_found > 0);
        // The race is on word 0 of line 0, planted by the scenario.
        assert!(rs.reports.iter().any(|r| r.addr == 0), "wrong word: {:?}", rs.reports);

        let rendered = outcome.rendered.as_ref().unwrap();
        assert!(rendered.contains("data race"), "{rendered}");
        assert!(rendered.contains("--races"), "reproduce line must arm the detector: {rendered}");
    }
}

#[test]
fn race_verdict_gates_value_checks_on_the_racy_scenario() {
    // Natural-order replay of the racy scenario with the detector armed:
    // the failure must be the race itself, never a ValueMismatch or
    // WriteRace — racy programs have no SC reference execution, so the
    // DRF => SC comparison is skipped once the premise is void.
    use lrc_check::explore::replay_schedule_raced;
    let s = scenario::racy();
    for p in Protocol::ALL {
        let (failure, _) = replay_schedule_raced(&s, p, Fault::None, &[], 50_000);
        match failure {
            Some(Failure::HbRace(reports)) => {
                assert!(!reports.is_empty(), "{}: race flagged without a report", p.name())
            }
            other => panic!("{}: expected HbRace, got {other:?}", p.name()),
        }
    }
}

#[test]
fn nack_choice_point_passes_on_every_scenario() {
    // Arm the deterministic BUSY-NACK choice point: the nth busy-directory
    // encounter is answered with a retriable NACK instead of parking. The
    // NACK round-trip and backoff retry must stay safe and live against
    // every explored interleaving. Only the eager protocols park at a busy
    // home, so they get several trigger points; the lazy protocols (where
    // the point can never fire) get one run each proving the machinery is
    // inert for them.
    use lrc_check::explore::check_nacked;
    for s in scenario::all() {
        for p in Protocol::ALL {
            let nths: &[u64] = if p.is_lazy() { &[0] } else { &[0, 1, 2] };
            for &nth in nths {
                let r = check_nacked(&s, p, Fault::None, nth, bounded(12_000));
                assert!(
                    r.counterexample.is_none(),
                    "{} under {} with nack_nth={nth} failed: {}",
                    s.name,
                    p.name(),
                    r.counterexample.unwrap().failure
                );
                assert!(
                    r.terminals > 0 || !r.complete,
                    "{} under {} with nack_nth={nth} explored nothing",
                    s.name,
                    p.name()
                );
            }
        }
    }
}

#[test]
fn nacked_exploration_reaches_clean_terminals_on_natural_order() {
    // The natural event order with the very first busy encounter NACKed:
    // the run must drain clean and the final memory must still match the
    // reference SC execution (the NACK changes timing, never values).
    use lrc_check::explore::{build_machine_nacked, terminal_failure};
    let mut nacks_fired = 0u64;
    for s in scenario::all() {
        for p in [Protocol::Sc, Protocol::Erc] {
            let script = s.script();
            let mut m = build_machine_nacked(&s, p, Fault::None, 0);
            let mut steps = 0usize;
            while m.num_pending() > 0 && steps < 100_000 {
                m.step_choice(0);
                steps += 1;
            }
            assert_eq!(m.num_pending(), 0, "{} under {} did not drain", s.name, p.name());
            let f = terminal_failure(&m, &script);
            assert!(f.is_none(), "{} under {}: {}", s.name, p.name(), f.unwrap());
            nacks_fired += m.resource_stats().busy_nacks;
        }
    }
    assert!(nacks_fired > 0, "no scenario's natural order ever reached the choice point");
}

#[test]
fn dropped_messages_recover_under_every_protocol() {
    // Deterministic fault injection: kill exactly the n-th message of one
    // class and step the natural event order. The link layer's ACK/retry
    // machinery must recover the loss on every protocol — the terminal
    // state drains clean and final memory still matches the reference SC
    // execution.
    use lrc_check::explore::{build_machine_with_plan, terminal_failure};
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let script = s.script();
    for p in Protocol::ALL {
        for class in [MsgClass::Request, MsgClass::Response, MsgClass::Notice, MsgClass::Sync] {
            for n in 0..4u64 {
                let plan = FaultPlan::drop_nth(class, n);
                let mut m = build_machine_with_plan(&s, p, Fault::None, plan);
                let mut steps = 0usize;
                while m.num_pending() > 0 && steps < 100_000 {
                    m.step_choice(0);
                    steps += 1;
                }
                assert_eq!(
                    m.num_pending(),
                    0,
                    "{} drop {}#{n}: did not drain within {steps} steps",
                    p.name(),
                    class.name(),
                );
                let f = terminal_failure(&m, &script);
                assert!(f.is_none(), "{} drop {}#{n}: {}", p.name(), class.name(), f.unwrap());
            }
        }
    }
}

#[test]
fn fault_recovery_stepping_is_deterministic() {
    // Same plan, same schedule: the recovered machine reaches the same
    // logical fingerprint both times (retry timers and all).
    use lrc_check::explore::build_machine_with_plan;
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let run = || {
        let plan = FaultPlan::drop_nth(MsgClass::Response, 1);
        let mut m = build_machine_with_plan(&s, Protocol::LrcExt, Fault::None, plan);
        let mut steps = 0usize;
        while m.num_pending() > 0 && steps < 100_000 {
            m.step_choice(0);
            steps += 1;
        }
        (steps, m.fingerprint())
    };
    assert_eq!(run(), run());
}
