//! Exhaustive bounded exploration of protocol interleavings.
//!
//! The state space is a tree: at each state the pending events of the
//! machine's queue (`Machine::num_pending`) are the enabled transitions,
//! and firing the `n`-th (`Machine::step_choice`) yields a child state. A
//! *schedule* — the sequence of choice indices from the initial state —
//! identifies a path, and replaying a schedule on a fresh machine is fully
//! deterministic, which is what makes counterexamples reproducible and
//! minimizable.
//!
//! Exploration is depth-first with visited-state pruning on logical
//! fingerprints ([`Machine::fingerprint`] excludes times and statistics,
//! so two interleavings that converge to the same protocol state are
//! explored once). After every transition the safety oracle
//! ([`Machine::check_violations`]) runs; at every drained state the DRF ⇒
//! SC oracle ([`Machine::terminal_failure`]: liveness residue, the race
//! verdict, unflushed write conflicts and final memory against
//! `lrc_sim::refint`) runs. A violation of either is a [`Failure`].

use crate::scenario::Scenario;
pub use lrc_core::Failure;
use lrc_core::{CrashPlan, Fault, FaultPlan, Machine};
use lrc_sim::{FxHashSet, Protocol};

/// Machine-construction options shared by every checker stage: build,
/// explore, replay, minimize and render. A counterexample only reproduces
/// on a machine built with the same options it was found under, so each
/// stage takes the one `BuildOpts` value and the report's reproduce line
/// prints every option it arms.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOpts {
    /// Arm the happens-before race detector. Detector state is part of
    /// [`Machine::fingerprint`], so exploration never prunes a racy path
    /// into a clean one — at the cost of a larger state space (vector
    /// clocks depend on lock-grant order, so converging protocol states
    /// may carry diverging clocks). A detected race is a first-class
    /// counterexample ([`Failure::HbRace`]), and the DRF ⇒ SC value
    /// comparison only applies to paths the detector certifies race-free.
    pub races: bool,
    /// Crash-timing choice point: kill node `.0` after exactly `.1`
    /// handled events, with instantaneous failure detection (see
    /// [`lrc_core::CrashPlan::kill_nth`]). Installs a crash-only fault plan
    /// (no link faults), so crash placement, detection and recovery are
    /// part of the explored schedule and survivors must still drain to a
    /// clean (crash-degraded) quiescent state on every interleaving.
    pub crash_nth: Option<(usize, u64)>,
    /// BUSY-NACK choice point: the `n`-th busy-directory encounter answers
    /// with a retriable NACK instead of parking (see
    /// [`Machine::with_nack_nth`]), and exploration covers every
    /// interleaving of the NACK reply and its backoff retry against the
    /// rest of the protocol. Only the eager protocols park at a busy home,
    /// so under the lazy protocols the point never fires.
    pub nack_nth: Option<u64>,
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Stop after visiting this many states (0 = unbounded / exhaustive).
    pub max_states: usize,
    /// Abandon paths longer than this many choices.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 200_000, max_depth: 4_000 }
    }
}

/// A failing path: the schedule that reproduces it plus what it violates.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Choice indices from the initial state (replay with
    /// [`replay_schedule`]; choices past the end default to 0).
    pub schedule: Vec<usize>,
    /// The violated property.
    pub failure: Failure,
}

/// Outcome of checking one (scenario, protocol, fault) combination.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// States visited (after pruning).
    pub states: usize,
    /// Drained (terminal) states reached.
    pub terminals: usize,
    /// Length of the longest explored path.
    pub max_depth_seen: usize,
    /// False when a limit stopped exploration before exhausting the space.
    pub complete: bool,
    /// The first counterexample found, if any (already minimized by the
    /// caller if requested).
    pub counterexample: Option<Counterexample>,
}

/// Step budget of every schedule replay. Bounded configurations drain in
/// well under a thousand events; the slack covers fault-injected runs that
/// spin on retries before deadlocking.
pub const REPLAY_STEPS: usize = 50_000;

/// [`build_machine_opts`] with default options.
pub fn build_machine(scenario: &Scenario, protocol: Protocol, fault: Fault) -> Machine {
    build_machine_opts(scenario, protocol, fault, BuildOpts::default())
}

/// Build the machine for one checking run, with every [`BuildOpts`] knob
/// applied: value tracking on, watchdog off (the checker bounds work by
/// states, not cycles), and the scenario's script installed.
///
/// # Panics
/// If `opts.crash_nth` names a node outside the scenario.
pub fn build_machine_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
) -> Machine {
    let mut m = Machine::new(scenario.config(), protocol)
        .with_fault(fault)
        .with_value_tracking();
    if opts.races {
        m = m.with_race_detection();
    }
    if let Some((node, n)) = opts.crash_nth {
        assert!(node < scenario.procs, "crash victim out of range");
        m = m.with_fault_plan(FaultPlan::off(0).with_crash(CrashPlan::kill_nth(node, n)));
    }
    if let Some(n) = opts.nack_nth {
        m = m.with_nack_nth(n);
    }
    m.prepare(Box::new(scenario.script()));
    m
}

/// [`check_opts`] with default options.
pub fn check(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    limits: Limits,
) -> CheckReport {
    check_opts(scenario, protocol, fault, BuildOpts::default(), limits)
}

/// Exhaustively explore `scenario` under `protocol` (with `fault`
/// injected) on machines built with `opts`, depth-first with fingerprint
/// pruning, stopping at the first counterexample or when `limits` cut the
/// search off.
pub fn check_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    limits: Limits,
) -> CheckReport {
    check_root(build_machine_opts(scenario, protocol, fault, opts), scenario, limits)
}

fn check_root(root: Machine, scenario: &Scenario, limits: Limits) -> CheckReport {
    let script = scenario.script();
    // Fingerprints are already well mixed, so the cheap Fx hash suffices.
    let mut visited: FxHashSet<u64> = FxHashSet::default();
    visited.insert(root.fingerprint());
    let mut stack: Vec<(Machine, Vec<usize>)> = vec![(root, Vec::new())];

    let mut report = CheckReport {
        states: 0,
        terminals: 0,
        max_depth_seen: 0,
        complete: true,
        counterexample: None,
    };

    while let Some((mut m, schedule)) = stack.pop() {
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(schedule.len());
        if limits.max_states != 0 && report.states > limits.max_states {
            report.complete = false;
            break;
        }

        let violations = m.check_violations();
        if !violations.is_empty() {
            report.counterexample =
                Some(Counterexample { schedule, failure: Failure::Safety(violations) });
            return report;
        }

        let pending = m.num_pending();
        if pending == 0 {
            report.terminals += 1;
            if let Some(failure) = m.terminal_failure(&script) {
                report.counterexample = Some(Counterexample { schedule, failure });
                return report;
            }
            continue;
        }

        if schedule.len() >= limits.max_depth {
            report.complete = false;
            continue;
        }

        // Push children in reverse so choice 0 (the natural event order)
        // is explored first. The parent is dead after its last child, so
        // choice 0 steps it in place instead of a clone.
        for n in (1..pending).rev() {
            let mut child = m.clone();
            let fired = child.step_choice(n);
            debug_assert!(fired);
            if visited.insert(child.fingerprint()) {
                let mut s = schedule.clone();
                s.push(n);
                stack.push((child, s));
            }
        }
        let fired = m.step_choice(0);
        debug_assert!(fired);
        if visited.insert(m.fingerprint()) {
            let mut s = schedule;
            s.push(0);
            stack.push((m, s));
        }
    }
    report
}

/// Deterministically replay a schedule on a fresh machine built with
/// `opts`: choice `i` fires event `schedule[i]` (clamped to the pending
/// count); choices past the end fire event 0, so a truncated schedule
/// continues with the natural event order until the machine drains or
/// [`REPLAY_STEPS`] run out. Returns the failure the path exhibits, if
/// any, and the machine in its end state.
pub fn replay_schedule(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    schedule: &[usize],
) -> (Option<Failure>, Machine) {
    replay_on(build_machine_opts(scenario, protocol, fault, opts), scenario, schedule)
}

/// The replay loop of [`replay_schedule`], on a machine the caller built
/// (the report renderer adds tracing to it first). Stops at the first
/// safety violation.
pub(crate) fn replay_on(
    mut m: Machine,
    scenario: &Scenario,
    schedule: &[usize],
) -> (Option<Failure>, Machine) {
    let script = scenario.script();
    let mut step = 0usize;
    while m.num_pending() > 0 && step < REPLAY_STEPS {
        let want = schedule.get(step).copied().unwrap_or(0);
        let n = want.min(m.num_pending() - 1);
        m.step_choice(n);
        step += 1;
        let violations = m.check_violations();
        if !violations.is_empty() {
            return (Some(Failure::Safety(violations)), m);
        }
    }
    if m.num_pending() > 0 {
        // Ran out of steps — not a verdict; the minimizer treats this as
        // "does not fail".
        return (None, m);
    }
    (m.terminal_failure(&script), m)
}
