//! The checker's own test suite.
//!
//! Default tier: exhaustively verify every scenario but conflict-evict
//! under all four protocols, boundedly verify conflict-evict, and prove the
//! checker actually *catches* bugs by injecting two protocol mutations and
//! asserting a minimized counterexample of the right class comes back.
//! The full exhaustive sweep over every scenario is `#[ignore]`d — run it
//! with `cargo test -p lrc-check --release -- --ignored`, as `scripts/ci.sh`
//! does. Every exhaustive run asserts its exploration counts against
//! [`PINNED`], so a fingerprint that merged or split states fails here.
//!
//! Three guards keep those counts honest, each on the explorations pinned
//! below [`CHEAP_STATES`] in the default tier and on all 48 in the
//! ignored sweep. A test-side [`walk`] re-runs the search over the public
//! `Machine` API and must reach each exploration's pinned set of terminal
//! outcomes ([`DIGESTS`]). Its congruence audit requires every pruned
//! revisit to have the successors of the state it merged into. A walk with
//! the children pushed in reverse order must explore the pinned states,
//! terminals and outcomes, so no pinned count depends on search order.

use lrc_check::explore::{
    build_machine_opts, check, check_opts, replay_schedule, terminal_failure, BuildOpts,
    CheckReport, Failure, Limits,
};
use lrc_check::minimize::FailureClass;
use lrc_check::{check_and_minimize, scenario};
use lrc_core::{Fault, Machine};
use lrc_sim::{FoldHasher, FxHashMap, FxHashSet, Protocol};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const EXHAUSTIVE: Limits = Limits { max_states: 0, max_depth: 4_000 };

/// Default options: no detector, no choice point.
const PLAIN: BuildOpts = BuildOpts { races: false, crash_nth: None, nack_nth: None };

/// The happens-before race detector armed.
const RACES: BuildOpts = BuildOpts { races: true, ..PLAIN };

/// The first busy-directory encounter NACKed instead of parked.
const NACK0: BuildOpts = BuildOpts { nack_nth: Some(0), ..PLAIN };

fn bounded(max_states: usize) -> Limits {
    Limits { max_states, max_depth: 4_000 }
}

/// The cheap scenarios: small enough to exhaust under every protocol in
/// debug builds.
const CHEAP: &[&str] = &["handoff", "barrier-phases", "counter", "two-locks", "three-way"];

/// `(states, terminals, max_depth_seen)` of one exhaustive exploration.
type Counts = (usize, usize, usize);

/// The exhaustive exploration counts of every scenario, per protocol in
/// `Protocol::ALL` order (sc, eager, lazy, lazy-ext): [`check`] first, then
/// [`check_opts`] with [`RACES`]. Exploration is deterministic, so debug
/// and release builds agree. They pin the explored state spaces: a
/// fingerprint that merged two logical states, or split one, moves them.
const PINNED: &[(&str, [Counts; 4], [Counts; 4])] = &[
    (
        "handoff",
        [(148, 2, 27), (202, 2, 27), (1_442, 1, 30), (204, 1, 26)],
        [(148, 2, 27), (202, 2, 27), (1_458, 2, 31), (208, 2, 27)],
    ),
    (
        "counter",
        [(618, 2, 61), (830, 2, 62), (32_138, 4, 64), (2_362, 4, 52)],
        [(668, 4, 61), (880, 4, 62), (37_610, 6, 64), (2_624, 6, 52)],
    ),
    (
        "barrier-phases",
        [(182, 1, 22), (231, 1, 22), (2_605, 8, 31), (620, 8, 30)],
        [(182, 1, 22), (231, 1, 22), (2_605, 8, 31), (620, 8, 30)],
    ),
    (
        "two-locks",
        [(969, 3, 40), (1_239, 3, 40), (13_654, 3, 46), (2_573, 3, 44)],
        [(969, 3, 40), (1_239, 3, 40), (14_550, 5, 47), (2_765, 5, 45)],
    ),
    (
        "conflict-evict",
        [(459, 2, 32), (1_972, 3, 33), (37_283, 4, 40), (3_804, 3, 37)],
        [(459, 2, 32), (1_972, 3, 33), (37_411, 5, 40), (3_852, 5, 38)],
    ),
    (
        "three-way",
        [(1_688, 6, 46), (2_348, 6, 47), (13_142, 3, 47), (1_496, 3, 38)],
        [(1_688, 6, 46), (2_348, 6, 47), (14_726, 6, 48), (1_568, 6, 39)],
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

/// The report label of one pinned exploration.
fn what(scenario: &str, p: usize, raced: bool) -> String {
    let raced = if raced { " (raced)" } else { "" };
    format!("{scenario} under {}{raced}", Protocol::ALL[p].name())
}

/// Assert that an exhaustive run passed and explored exactly its pinned
/// state space.
fn assert_exhausted_as_pinned(r: CheckReport, scenario: &str, p: usize, raced: bool) {
    let what = what(scenario, p, raced);
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

/// The digest of each scenario's terminal outcomes, which every one of its
/// eight explorations must reach. An outcome is a drained state's final
/// symbolic memory and its verdict; the digest hashes the set of distinct
/// outcomes, so it does not depend on the order the search reaches them
/// in. A fingerprint that merged two states with different futures could
/// lose an outcome here even where the state counts happen to hold. All
/// four protocols, raced or not, reach the same outcomes: the drained
/// memories of a data-race-free program are its sequentially consistent
/// ones.
const DIGESTS: &[(&str, u64)] = &[
    ("handoff", 0x2d66632dd82a14f7),
    ("counter", 0x943b1b880a599ad5),
    ("barrier-phases", 0x71a83e98b947625c),
    ("two-locks", 0xd99559eb4d242882),
    ("conflict-evict", 0xd99559eb4d242882),
    ("three-way", 0x828db52f3dc1923a),
];

/// Explorations pinned below this many states are walked in the default
/// tier; the ignored sweep walks all of them.
const CHEAP_STATES: usize = 5_000;

/// Every pinned exploration as `(scenario, Protocol::ALL index, raced)`.
fn explorations() -> impl Iterator<Item = (&'static str, usize, bool)> {
    PINNED.iter().flat_map(|&(name, ..)| {
        (0..Protocol::ALL.len()).flat_map(move |p| [(name, p, false), (name, p, true)])
    })
}

/// Explorations pinned below [`CHEAP_STATES`].
fn cheap_explorations() -> impl Iterator<Item = (&'static str, usize, bool)> {
    explorations().filter(|&(name, p, raced)| pinned(name, p, raced).0 < CHEAP_STATES)
}

fn fold(x: &impl Hash) -> u64 {
    let mut h = FoldHasher::default();
    x.hash(&mut h);
    h.finish()
}

/// Which child a state's depth-first expansion visits first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Choice 0 first, as [`check`] explores.
    Natural,
    /// The last choice first: children pushed in the opposite order.
    Reversed,
}

/// What one [`walk`] of an exploration found.
struct Walk {
    states: usize,
    terminals: usize,
    max_depth: usize,
    /// Order-independent hash of the distinct terminal outcomes.
    digest: u64,
    /// Children pruned because their fingerprint was already stored.
    revisits: usize,
    /// Audited revisits whose successors differ from those of the state
    /// first stored under their fingerprint.
    incongruent: usize,
}

/// Every child of `m`, in choice order, with its fingerprint. Choice 0
/// steps `m` itself, so a state with `k` children costs `k - 1` clones.
fn children(mut m: Machine) -> Vec<(u64, Machine)> {
    let pending = m.num_pending();
    let mut out = Vec::with_capacity(pending);
    if pending == 0 {
        return out;
    }
    for n in 1..pending {
        let mut c = m.clone();
        assert!(c.step_choice(n));
        out.push((c.fingerprint(), c));
    }
    assert!(m.step_choice(0));
    out.insert(0, (m.fingerprint(), m));
    out
}

/// The hash of the sorted fingerprints of `children`.
fn successors(children: &[(u64, Machine)]) -> u64 {
    let mut fps: Vec<u64> = children.iter().map(|&(fp, _)| fp).collect();
    fps.sort_unstable();
    fold(&fps)
}

/// [`check`]'s depth-first search with fingerprint pruning, re-run over the
/// public `Machine` API (`clone`, `step_choice`, `fingerprint`) so a test
/// can choose the push order and collect the terminal outcomes. With
/// `audit`, every revisited child is expanded too, and its successor
/// fingerprints must be those of the state first stored under its own:
/// pruning it is only sound if the two states have the same next steps.
fn walk(scenario: &str, p: usize, raced: bool, order: Order, audit: bool) -> Walk {
    let s = scenario::by_name(scenario).unwrap();
    let script = s.script();
    let opts = if raced { RACES } else { PLAIN };
    let root = build_machine_opts(&s, Protocol::ALL[p], Fault::None, opts);
    let mut visited: FxHashSet<u64> = FxHashSet::default();
    let root_fp = root.fingerprint();
    visited.insert(root_fp);
    let mut stack: Vec<(Machine, usize, u64)> = vec![(root, 0, root_fp)];
    let mut outcomes = BTreeSet::new();
    // Successors of each expanded state, and of each audited revisit.
    let mut stored: FxHashMap<u64, u64> = FxHashMap::default();
    let mut revisited: Vec<(u64, u64)> = Vec::new();
    let mut w =
        Walk { states: 0, terminals: 0, max_depth: 0, digest: 0, revisits: 0, incongruent: 0 };
    while let Some((m, depth, fp)) = stack.pop() {
        w.states += 1;
        w.max_depth = w.max_depth.max(depth);
        if m.num_pending() == 0 {
            w.terminals += 1;
            let (memory, _) = m.final_memory().expect("value tracking is on");
            let verdict = terminal_failure(&m, &script).map(|f| f.to_string());
            outcomes.insert(fold(&(memory, verdict)));
        }
        let mut kids = children(m);
        if audit {
            stored.insert(fp, successors(&kids));
        }
        // The stack is last in, first out: push choice 0 last to take it
        // first.
        if order == Order::Natural {
            kids.reverse();
        }
        for (fp, child) in kids {
            if visited.insert(fp) {
                stack.push((child, depth + 1, fp));
            } else {
                w.revisits += 1;
                if audit {
                    revisited.push((fp, successors(&children(child))));
                }
            }
        }
    }
    w.digest = fold(&outcomes);
    w.incongruent = revisited.iter().filter(|(fp, next)| stored.get(fp) != Some(next)).count();
    w
}

/// The pinned outcome digest of `scenario`.
fn pinned_digest(scenario: &str) -> u64 {
    let (_, digest) = DIGESTS
        .iter()
        .find(|(name, _)| *name == scenario)
        .unwrap_or_else(|| panic!("no pinned digest for scenario {scenario}"));
    *digest
}

/// Walk one exploration in natural order: it must explore exactly as
/// [`check`] does and reach the pinned set of terminal outcomes.
fn assert_outcomes_as_pinned(scenario: &str, p: usize, raced: bool) {
    let what = what(scenario, p, raced);
    let w = walk(scenario, p, raced, Order::Natural, false);
    assert_eq!(
        (w.states, w.terminals, w.max_depth),
        pinned(scenario, p, raced),
        "{what}: the walk must explore as `check` does"
    );
    assert_eq!(w.digest, pinned_digest(scenario), "{what}: terminal outcomes moved");
}

#[test]
fn cheap_scenarios_pass_exhaustively_under_all_protocols() {
    for name in CHEAP {
        let s = scenario::by_name(name).unwrap();
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            assert_exhausted_as_pinned(check(&s, p, Fault::None, EXHAUSTIVE), name, i, false);
        }
    }
}

#[test]
fn remaining_scenarios_pass_bounded_under_all_protocols() {
    let name = "conflict-evict";
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
            let raced = check_opts(&s, p, Fault::None, RACES, EXHAUSTIVE);
            assert_exhausted_as_pinned(raced, s.name, i, true);
        }
    }
}

/// Audit one exploration's revisits: every state the search pruned must
/// have the successors of the state it was merged into.
fn assert_congruent(scenario: &str, p: usize, raced: bool) {
    let w = walk(scenario, p, raced, Order::Natural, true);
    assert_eq!(
        w.incongruent,
        0,
        "{}: {} of {} revisits merged states whose successors differ",
        what(scenario, p, raced),
        w.incongruent,
        w.revisits
    );
}

/// Walk one exploration with the children pushed in the opposite order:
/// it must explore the pinned number of states and terminals, and reach
/// the pinned outcomes. (Max depth is the length of the longest DFS path,
/// which the order does change.)
fn assert_reversal_explores_as_pinned(scenario: &str, p: usize, raced: bool) {
    let what = what(scenario, p, raced);
    let w = walk(scenario, p, raced, Order::Reversed, false);
    let (states, terminals, _) = pinned(scenario, p, raced);
    assert_eq!(
        (w.states, w.terminals),
        (states, terminals),
        "{what}: reversing the push order moved (states, terminals)"
    );
    assert_eq!(
        w.digest,
        pinned_digest(scenario),
        "{what}: reversing the push order moved the terminal outcomes"
    );
}

#[test]
fn cheap_explorations_reach_their_pinned_outcomes() {
    for (scenario, p, raced) in cheap_explorations() {
        assert_outcomes_as_pinned(scenario, p, raced);
    }
}

#[test]
#[ignore = "walks every exploration (~minutes in debug builds)"]
fn all_explorations_reach_their_pinned_outcomes() {
    for (scenario, p, raced) in explorations() {
        assert_outcomes_as_pinned(scenario, p, raced);
    }
}

#[test]
fn cheap_explorations_merge_only_congruent_states() {
    for (scenario, p, raced) in cheap_explorations() {
        assert_congruent(scenario, p, raced);
    }
}

#[test]
#[ignore = "audits every exploration (~minutes in debug builds)"]
fn all_explorations_merge_only_congruent_states() {
    for (scenario, p, raced) in explorations() {
        assert_congruent(scenario, p, raced);
    }
}

#[test]
fn cheap_explorations_do_not_depend_on_push_order() {
    for (scenario, p, raced) in cheap_explorations() {
        assert_reversal_explores_as_pinned(scenario, p, raced);
    }
}

#[test]
#[ignore = "walks every exploration in reverse (~minutes in debug builds)"]
fn all_explorations_do_not_depend_on_push_order() {
    for (scenario, p, raced) in explorations() {
        assert_reversal_explores_as_pinned(scenario, p, raced);
    }
}

#[test]
fn skip_invalidate_fault_yields_minimized_safety_counterexample() {
    let s = scenario::by_name("counter").unwrap();
    for opts in [PLAIN, NACK0] {
        let outcome =
            check_and_minimize(&s, Protocol::Erc, Fault::SkipInvalidate, opts, EXHAUSTIVE);
        assert!(!outcome.passed(), "injected stale-copy bug went undetected under {opts:?}");
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
        let (failure, _) =
            replay_schedule(&s, Protocol::Erc, Fault::SkipInvalidate, opts, minimized);
        assert!(matches!(failure, Some(Failure::Safety(_))), "{opts:?}: {failure:?}");

        let rendered = outcome.rendered.as_ref().unwrap();
        assert!(rendered.contains("safety:"), "{rendered}");
        assert!(rendered.contains("message timeline"), "{rendered}");
        assert!(rendered.contains("reproduce: lrc-check"), "{rendered}");
        assert_eq!(rendered.contains("--nack-nth 0"), opts.nack_nth.is_some(), "{rendered}");
    }
}

#[test]
fn skip_write_notice_fault_yields_minimized_liveness_counterexample() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipWriteNotice, PLAIN, EXHAUSTIVE);
    assert!(!outcome.passed(), "injected lost-write-notice bug went undetected");
    let cex = outcome.report.counterexample.as_ref().unwrap();
    assert_eq!(FailureClass::of(&cex.failure), FailureClass::Liveness, "{}", cex.failure);

    let minimized = outcome.minimized.as_ref().unwrap();
    let (failure, m) = replay_schedule(&s, Protocol::Lrc, Fault::SkipWriteNotice, PLAIN, minimized);
    assert!(matches!(failure, Some(Failure::Liveness(_))), "{failure:?}");
    assert_eq!(m.num_pending(), 0, "liveness counterexample must drain the queue");

    let rendered = outcome.rendered.as_ref().unwrap();
    assert!(rendered.contains("liveness:"), "{rendered}");
    assert!(rendered.contains("stuck"), "{rendered}");
}

#[test]
fn counterexample_schedules_replay_deterministically() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome = check_and_minimize(&s, Protocol::Lrc, Fault::SkipWriteNotice, PLAIN, EXHAUSTIVE);
    let minimized = outcome.minimized.unwrap();
    let render = |sched: &[usize]| {
        let (f, _) = replay_schedule(&s, Protocol::Lrc, Fault::SkipWriteNotice, PLAIN, sched);
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
            let (failure, m) = replay_schedule(&s, p, Fault::None, PLAIN, &[]);
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
            let r = check_opts(&s, p, Fault::None, RACES, bounded(20_000));
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
    // replay reproduces a failure of the same class — also with the NACK
    // choice point armed under the protocols that park at a busy home.
    let s = scenario::racy();
    let nacked = BuildOpts { nack_nth: Some(0), ..RACES };
    let runs = [
        (Protocol::Sc, RACES),
        (Protocol::Lrc, RACES),
        (Protocol::Sc, nacked),
        (Protocol::Erc, nacked),
    ];
    for (p, opts) in runs {
        let what = format!("{} with {opts:?}", p.name());
        let outcome = check_and_minimize(&s, p, Fault::None, opts, bounded(20_000));
        assert!(!outcome.passed(), "racy scenario passed under {what}");
        let cex = outcome.report.counterexample.as_ref().unwrap();
        assert_eq!(
            FailureClass::of(&cex.failure),
            FailureClass::HbRace,
            "wrong class under {what}: {}",
            cex.failure
        );

        let minimized = outcome.minimized.as_ref().unwrap();
        let (failure, m) = replay_schedule(&s, p, Fault::None, opts, minimized);
        assert!(
            matches!(failure, Some(Failure::HbRace(_))),
            "minimized witness does not replay under {what}: {failure:?}"
        );
        let rs = m.race_stats().expect("detector armed");
        assert!(rs.races_found > 0);
        // The race is on word 0 of line 0, planted by the scenario.
        assert!(rs.reports.iter().any(|r| r.addr == 0), "wrong word: {:?}", rs.reports);

        let rendered = outcome.rendered.as_ref().unwrap();
        assert!(rendered.contains("data race"), "{rendered}");
        let flags = if opts.nack_nth.is_some() { "--races --nack-nth 0 " } else { "--races " };
        assert!(rendered.contains(flags), "reproduce line must carry {flags:?}: {rendered}");
    }
}

#[test]
fn race_verdict_gates_value_checks_on_the_racy_scenario() {
    // Natural-order replay of the racy scenario with the detector armed:
    // the failure must be the race itself, never a ValueMismatch or
    // WriteRace — racy programs have no SC reference execution, so the
    // DRF => SC comparison is skipped once the premise is void.
    let s = scenario::racy();
    for p in Protocol::ALL {
        let (failure, _) = replay_schedule(&s, p, Fault::None, RACES, &[]);
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
    for s in scenario::all() {
        for p in Protocol::ALL {
            let nths: &[u64] = if p.is_lazy() { &[0] } else { &[0, 1, 2] };
            for &nth in nths {
                let opts = BuildOpts { nack_nth: Some(nth), ..PLAIN };
                let r = check_opts(&s, p, Fault::None, opts, bounded(12_000));
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
    let mut nacks_fired = 0u64;
    for s in scenario::all() {
        for p in [Protocol::Sc, Protocol::Erc] {
            let (f, m) = replay_schedule(&s, p, Fault::None, NACK0, &[]);
            assert_eq!(m.num_pending(), 0, "{} under {} did not drain", s.name, p.name());
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
    use lrc_check::explore::{build_machine, terminal_failure};
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let script = s.script();
    for p in Protocol::ALL {
        for class in [MsgClass::Request, MsgClass::Response, MsgClass::Notice, MsgClass::Sync] {
            for n in 0..4u64 {
                let plan = FaultPlan::drop_nth(class, n);
                let mut m = build_machine(&s, p, Fault::None).with_fault_plan(plan);
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
    use lrc_check::explore::build_machine;
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let run = || {
        let plan = FaultPlan::drop_nth(MsgClass::Response, 1);
        let mut m = build_machine(&s, Protocol::LrcExt, Fault::None).with_fault_plan(plan);
        let mut steps = 0usize;
        while m.num_pending() > 0 && steps < 100_000 {
            m.step_choice(0);
            steps += 1;
        }
        (steps, m.fingerprint())
    };
    assert_eq!(run(), run());
}

#[test]
fn mutated_replay_schedules_parse_or_fail_typed() {
    // `--replay` reads back a schedule as reports print it. Mutate printed
    // schedules — truncation, bit flips, separator swaps, and one choice
    // set to 0, 1, 2^53, 10^12 or usize::MAX + 1 — and require the parser
    // to answer Ok or Err, never panic. Every Ok schedule must replay, and
    // since choices clamp to the pending count it is still a path of a
    // clean scenario: it drains within the step budget, without a failure.
    use lrc_check::report::{parse_schedule, schedule_arg};
    use lrc_sim::Rng;
    const MUTANTS: usize = 300;
    const NUMBERS: [&str; 5] =
        ["0", "1", "9007199254740992", "1000000000000", "18446744073709551616"];
    const SEPARATORS: [&str; 6] = [";", " ", "", ",,", ", ", "-"];
    let scenarios = scenario::all();
    let mut rng = Rng::new(0x5EED_5C4E);
    let (mut replayed, mut rejected, mut panicked) = (0, 0, Vec::new());
    for n in 0..MUTANTS {
        let s = &scenarios[rng.below(scenarios.len() as u64) as usize];
        let p = Protocol::ALL[rng.below(4) as usize];
        // A random walk to quiescence, printed as a report prints it.
        let mut m = lrc_check::explore::build_machine(s, p, Fault::None);
        let mut walk = Vec::new();
        while m.num_pending() > 0 {
            walk.push(rng.below(m.num_pending() as u64) as usize);
            m.step_choice(*walk.last().unwrap());
        }
        let printed = schedule_arg(&walk);
        let mut fields: Vec<String> = printed.split(',').map(str::to_string).collect();
        let (what, text) = match rng.below(4) {
            0 => {
                let cut = rng.below(printed.len() as u64) as usize;
                (format!("truncated at byte {cut}"), printed[..cut].to_string())
            }
            1 => {
                let mut bytes = printed.clone().into_bytes();
                let (i, bit) = (rng.below(bytes.len() as u64) as usize, rng.below(8));
                bytes[i] ^= 1 << bit;
                let text = String::from_utf8_lossy(&bytes).into_owned();
                (format!("bit {bit} of byte {i} flipped"), text)
            }
            2 => {
                let i = rng.below(fields.len() as u64 - 1) as usize;
                let sep = SEPARATORS[rng.below(SEPARATORS.len() as u64) as usize];
                let text = format!("{}{sep}{}", fields[..=i].join(","), fields[i + 1..].join(","));
                (format!("separator {i} swapped for {sep:?}"), text)
            }
            _ => {
                let i = rng.below(fields.len() as u64) as usize;
                fields[i] = NUMBERS[rng.below(NUMBERS.len() as u64) as usize].to_string();
                (format!("choice {i} set to {}", fields[i]), fields.join(","))
            }
        };
        let outcome = std::panic::catch_unwind(|| {
            let schedule = parse_schedule(&text).ok()?;
            let (failure, m) = replay_schedule(s, p, Fault::None, PLAIN, &schedule);
            Some((failure.map(|f| f.to_string()), m.num_pending()))
        });
        let about = format!("mutant {n} ({} under {}, {what}): {text:?}", s.name, p.name());
        match outcome {
            Ok(Some((failure, pending))) => {
                assert_eq!(failure, None, "{about} replayed to a failure");
                assert_eq!(pending, 0, "{about} did not drain within the step budget");
                replayed += 1;
            }
            Ok(None) => rejected += 1,
            Err(_) => panicked.push(about),
        }
    }
    assert!(panicked.is_empty(), "schedule parse or replay panicked on:\n{}", panicked.join("\n"));
    assert!(replayed > 0 && rejected > 0, "mutations must both pass and bite");
}

#[cfg(unix)]
#[test]
fn mutated_flag_values_exit_with_a_verdict_or_a_usage_error() {
    // Every flag value is external input. Set each value of two valid
    // command lines to 0, 1, 2^53, 10^12 and usize::MAX + 1, and give it
    // three seeded truncations or bit flips (a flip may leave the argument
    // non-UTF-8). The CLI must exit with a verdict (0 or 1) or a usage
    // error (2), never a panic.
    use lrc_sim::Rng;
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;
    use std::process::{Command, Stdio};
    const NUMBERS: [&str; 5] =
        ["0", "1", "9007199254740992", "1000000000000", "18446744073709551616"];
    let commands = [
        "--scenario handoff --protocol eager --fault skip-invalidate --nack-nth 1 --crash-nth 3 \
         --crash-node 1 --max-states 300 --max-depth 40",
        "--scenario counter --protocol lazy --races --crash-nth 2 --crash-node 1 --replay 1,0,2",
    ];
    let mut rng = Rng::new(0x5EED_F1A6);
    let mut mutants: Vec<Vec<OsString>> = Vec::new();
    for command in commands {
        let argv: Vec<&str> = command.split_whitespace().collect();
        for i in (0..argv.len()).filter(|&i| !argv[i].starts_with("--")) {
            let mut values: Vec<Vec<u8>> = NUMBERS.map(|x| x.as_bytes().to_vec()).into();
            for _ in 0..3 {
                let mut bytes = argv[i].as_bytes().to_vec();
                let j = rng.below(bytes.len() as u64) as usize;
                if rng.below(2) == 0 {
                    bytes.truncate(j);
                } else {
                    bytes[j] ^= 1 << rng.below(8);
                }
                values.push(bytes);
            }
            for value in values {
                let mut args: Vec<OsString> = argv.iter().map(OsString::from).collect();
                args[i] = OsString::from_vec(value);
                mutants.push(args);
            }
        }
    }
    let (mut usage_errors, mut bad) = (0, Vec::new());
    for args in &mutants {
        let status = Command::new(env!("CARGO_BIN_EXE_lrc-check"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("lrc-check starts");
        match status.code() {
            Some(0 | 1) => {}
            Some(2) => usage_errors += 1,
            other => bad.push(format!("{args:?} exited {other:?}")),
        }
    }
    assert!(bad.is_empty(), "lrc-check neither judged nor refused:\n{}", bad.join("\n"));
    assert!(usage_errors > 0 && usage_errors < mutants.len(), "mutations must both pass and bite");
}
