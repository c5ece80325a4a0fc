//! The four workloads: what each runs, how one iteration is set up, run
//! and checked. Every iteration is written once against [`Probe`], so the
//! untraced and traced runs execute the same calls in the same order.

use crate::trace::{in_span, Probe};
use lrc_check::explore::{self, Limits};
use lrc_check::scenario::{self, Scenario};
use lrc_core::{Fault, FaultPlan, Machine, MachineSnapshot, RunResult, StallDiagnosis};
use lrc_json::{json, ToJson, Value};
use lrc_sim::{Cycle, MachineConfig, MachineStats, Protocol, Workload};
use lrc_workloads::{Scale, WorkloadKind};
use std::time::Instant;

/// Processors of the modelled machine: the paper's 64-node mesh.
pub const PROCS: usize = 64;
/// Per-class probability of each link fault on `soak-fft`.
pub const SOAK_FAULT_RATE: f64 = 1e-3;
/// Stall horizon of the `soak-fft` watchdog, in simulated cycles.
pub const SOAK_WATCHDOG: Cycle = 10_000_000;
/// The model-checker scenarios `check-lazy` explores exhaustively.
pub const CHECK_SCENARIOS: [&str; 2] = ["counter", "two-locks"];
/// Protocol `check-lazy` explores.
pub const CHECK_PROTOCOL: Protocol = Protocol::Lrc;
/// Natural-order runs of each `check-lazy` scenario per iteration. They are
/// timed as one block of a few hundred milliseconds, so the workload's rate
/// rests on one long reading instead of many microsecond-scale ones.
pub const CHECK_NATURAL_REPS: usize = 15_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// mp3d under the lazy protocol: the coherence-bound extreme.
    Mp3dLazy,
    /// gauss under sequential consistency: the reference-bound extreme.
    GaussSc,
    /// fft under lazy-ext with every opt-in layer and a snapshot round trip.
    SoakFft,
    /// Exhaustive model checking of two lazy-protocol scenarios.
    CheckLazy,
}

impl Bench {
    /// All four, in the order `--workload all` runs them.
    pub const ALL: [Bench; 4] = [
        Bench::Mp3dLazy,
        Bench::GaussSc,
        Bench::SoakFft,
        Bench::CheckLazy,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Mp3dLazy => "mp3d-lazy",
            Bench::GaussSc => "gauss-sc",
            Bench::SoakFft => "soak-fft",
            Bench::CheckLazy => "check-lazy",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Bench::Mp3dLazy => {
                "coherence-bound: ~1 message per reference, 1.85 events per cycle and a ~20k-entry queue load the kernel, directory, mesh and lazy notices"
            }
            Bench::GaussSc => {
                "reference-bound: ~25 references per event load op issue, the cache hit path and op generation; the coherence layers are its flat control"
            }
            Bench::SoakFft => {
                "every opt-in layer on (link faults, race detector, value tracking) plus a ~35 MiB snapshot capture/encode/parse/restore round trip"
            }
            Bench::CheckLazy => {
                "exhaustive model checking of counter and two-locks under lazy RC: the only path that clones, steps and fingerprints a machine per state"
            }
        }
    }

    /// How strongly the workload's host times follow the host's speed as
    /// [`crate::host::Pace`] reads it: each time is divided by
    /// `(probe ÷ PACE_REF_NS)^exponent`. Measured on a shared 2-vCPU KVM
    /// guest: the least-squares slope of log unscaled median against log
    /// median probe reading over runs made in quiet and in contended
    /// periods, moved towards the value that kept ten-run sets steadiest
    /// (see `README.md`, "Host speed").
    pub fn pace_exponents(self) -> PaceExponents {
        let (iteration, setup) = match self {
            Bench::Mp3dLazy => (0.7, 0.3),
            Bench::GaussSc => (0.8, 0.4),
            Bench::SoakFft => (0.8, 0.65),
            Bench::CheckLazy => (0.9, 1.0),
        };
        PaceExponents { iteration, setup }
    }

    /// The simulation the workload runs, or `None` for `check-lazy`.
    pub fn sim(self) -> Option<SimSpec> {
        let spec = |kind, protocol| SimSpec {
            kind,
            protocol,
            scale: Scale::Medium,
            procs: PROCS,
        };
        match self {
            Bench::Mp3dLazy => Some(spec(WorkloadKind::Mp3d, Protocol::Lrc)),
            Bench::GaussSc => Some(spec(WorkloadKind::Gauss, Protocol::Sc)),
            Bench::SoakFft => Some(spec(WorkloadKind::Fft, Protocol::LrcExt)),
            Bench::CheckLazy => None,
        }
    }

    /// Everything that defines this workload apart from its seed, as JSON
    /// (hashed into the output's provenance with `lrc_exp::config_hash`, so
    /// runs at different seeds of one definition share the hash).
    pub fn definition(self) -> (Value, Value) {
        let params = match self.sim() {
            Some(s) => json!({
                "workload": self.name(),
                "kind": s.kind.name(),
                "protocol": s.protocol.name(),
                "scale": s.scale.name(),
                "procs": s.procs,
                "fault_rate": if self == Bench::SoakFft { SOAK_FAULT_RATE } else { 0.0 },
                "watchdog": if self == Bench::SoakFft { SOAK_WATCHDOG } else { 0 },
            }),
            None => json!({
                "workload": self.name(),
                "scenarios": CHECK_SCENARIOS.to_vec(),
                "protocol": CHECK_PROTOCOL.name(),
                "natural_reps": CHECK_NATURAL_REPS,
            }),
        };
        (params, MachineConfig::paper_default(PROCS).to_json())
    }
}

/// The exponents of [`Bench::pace_exponents`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceExponents {
    /// For an iteration's `run_s` and `sim_mcycles_per_s`.
    pub iteration: f64,
    /// For one set-up's `setup_s`.
    pub setup: f64,
}

/// One simulated program on one machine.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// The application.
    pub kind: WorkloadKind,
    /// The coherence protocol.
    pub protocol: Protocol,
    /// Input size.
    pub scale: Scale,
    /// Processors (and mesh nodes).
    pub procs: usize,
}

impl SimSpec {
    /// The paper's Table-1 machine with this spec's processor count.
    pub fn config(&self) -> MachineConfig {
        MachineConfig::paper_default(self.procs)
    }

    /// Generate the workload's op streams from `seed`.
    pub fn workload(&self, seed: u64) -> Box<dyn Workload> {
        self.kind.build_seeded(self.procs, self.scale, seed)
    }

    /// The `soak-fft` machine, built the way `lrc-soak` builds a cell.
    pub fn soak_machine(&self, seed: u64) -> Machine {
        Machine::new(self.config(), self.protocol)
            .with_fault_plan(FaultPlan::uniform(SOAK_FAULT_RATE, seed))
            .with_value_tracking()
            .with_race_detection()
            .with_watchdog(SOAK_WATCHDOG)
    }
}

/// An iteration's verdict: the error says which output check failed.
pub type Checked<T> = Result<T, String>;

fn stalled(what: &str, d: &StallDiagnosis) -> String {
    format!("{what} stalled: {:?} at cycle {}", d.reason, d.at)
}

/// What one iteration measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds from construction to verified result.
    pub run_s: f64,
    /// Host seconds inside the event loop (for `check-lazy`, of the whole
    /// natural-order block, machine construction included).
    pub loop_s: f64,
    /// Simulated cycles the event loop advanced over `loop_s`.
    pub loop_cycles: u64,
    /// The modelled machine's statistics (for `check-lazy`, one per
    /// scenario: every natural-order run of a scenario has the same).
    pub stats: Vec<MachineStats>,
    /// How many identical runs each entry of `stats` stands for: 1, or
    /// [`CHECK_NATURAL_REPS`] on `check-lazy`.
    pub repeats: u64,
    /// Events the kernel handled over `loop_s`.
    pub events: u64,
    /// Peak event-queue depth (max over runs).
    pub peak_queue_depth: usize,
    /// Exploration counts (`check-lazy` only).
    pub check: Vec<CheckCounts>,
}

impl Outcome {
    /// Simulated cycles of the modelled machine (summed over runs).
    pub fn sim_cycles(&self) -> u64 {
        self.stats.iter().map(|s| s.total_cycles).sum()
    }

    /// Simulated megacycles per host second of event loop.
    pub fn mcycles_per_s(&self) -> f64 {
        if self.loop_s > 0.0 {
            self.loop_cycles as f64 / self.loop_s / 1e6
        } else {
            0.0
        }
    }
}

/// What one exhaustive exploration found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckCounts {
    /// States visited.
    pub states: usize,
    /// Drained states reached.
    pub terminals: usize,
    /// Longest explored path.
    pub max_depth: usize,
}

/// Drive `m` from cycle `from` until the next event is at or past `until`
/// or the queue drains: one `run_until` call, or fixed-length slices when
/// the probe asks for them. Returns whether events are still pending.
fn drive<P: Probe>(
    p: &mut P,
    m: &mut Machine,
    from: Cycle,
    until: Cycle,
) -> Result<bool, Box<StallDiagnosis>> {
    let Some(len) = p.slice() else {
        return in_span(p, "run_until", |_| m.run_until(until));
    };
    let mut at = from;
    loop {
        let limit = (at / len + 1).saturating_mul(len).min(until);
        let pending = in_span(p, "run_until", |_| m.run_until(limit))?;
        if !pending || limit == until {
            return Ok(pending);
        }
        at = limit;
    }
}

/// Run one plain simulation (`mp3d-lazy`, `gauss-sc`) to completion and
/// check its statistics equal `reference`, when given.
pub fn plain_iteration<P: Probe>(
    p: &mut P,
    spec: &SimSpec,
    seed: u64,
    reference: Option<&MachineStats>,
) -> Checked<Outcome> {
    let t0 = Instant::now();
    let w = in_span(p, "build_seeded", |_| spec.workload(seed));
    let m = in_span(p, "Machine::new", |p| {
        p.sink(Machine::new(spec.config(), spec.protocol))
    });
    let w = p.workload(w);
    let r = run_to_end(p, m, w).map_err(|d| stalled("run", &d))?;
    if let Some(want) = reference {
        in_span(p, "verify", |_| check_stats(&r.stats, want))?;
    }
    Ok(Outcome {
        run_s: t0.elapsed().as_secs_f64(),
        loop_s: r.sim_wall_secs,
        loop_cycles: r.stats.total_cycles,
        events: r.events,
        peak_queue_depth: r.peak_queue_depth,
        stats: vec![r.stats],
        repeats: 1,
        check: Vec::new(),
    })
}

/// `try_run` untraced; `start_run`, sliced `run_until` and `finish_run`
/// traced (pausing does not change the event order).
fn run_to_end<P: Probe>(
    p: &mut P,
    mut m: Machine,
    w: Box<dyn Workload>,
) -> Result<RunResult, Box<StallDiagnosis>> {
    if p.slice().is_none() {
        return in_span(p, "try_run", |_| m.try_run(w));
    }
    in_span(p, "start_run", |_| m.start_run(w));
    let started = Instant::now();
    drive(p, &mut m, 0, Cycle::MAX)?;
    in_span(p, "finish_run", |_| m.finish_run(started))
        .map(|(r, _)| r)
        .map_err(|(d, _)| d)
}

fn check_stats(got: &MachineStats, want: &MachineStats) -> Checked<()> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "statistics differ from the reference run ({} vs {} cycles)",
            got.total_cycles, want.total_cycles
        ))
    }
}

/// The checks every completed `soak-fft` machine must pass: race-free,
/// no liveness residue, no conflicting unflushed writes.
fn check_soak_machine(m: &Machine) -> Checked<()> {
    match m.race_free() {
        Some(true) => {}
        Some(false) => return Err("race detector reported a race in race-free fft".into()),
        None => return Err("race detection was not enabled".into()),
    }
    let stuck = m.stuck_states();
    if let Some(s) = stuck.first() {
        return Err(format!("{} stuck state(s), first: {s}", stuck.len()));
    }
    let (_, conflicts) = m.final_memory().ok_or("value tracking was not enabled")?;
    if !conflicts.is_empty() {
        return Err(format!(
            "{} conflicting unflushed write(s) at quiescence",
            conflicts.len()
        ));
    }
    Ok(())
}

/// The uninterrupted `soak-fft` run every snapshot iteration is checked
/// against: its statistics, and the pause cycle (half its length).
#[derive(Debug, Clone)]
pub struct SoakReference {
    /// Statistics of the uninterrupted run.
    pub stats: MachineStats,
    /// Where iterations pause for the snapshot round trip.
    pub pause_at: Cycle,
}

/// Run `soak-fft` uninterrupted, check it, and derive the pause cycle.
pub fn soak_reference(spec: &SimSpec, seed: u64) -> Checked<SoakReference> {
    let m = spec.soak_machine(seed);
    let (r, m) = m
        .try_run_keep(spec.workload(seed))
        .map_err(|d| stalled("reference run", &d))?;
    check_soak_machine(&m)?;
    Ok(SoakReference {
        pause_at: r.stats.total_cycles / 2,
        stats: r.stats,
    })
}

/// A hook that corrupts the encoded snapshot (the negative control).
pub type SnapshotMutator<'a> = &'a dyn Fn(&mut String);

/// One `soak-fft` iteration: run to the pause cycle, capture → encode →
/// parse → restore onto a fresh workload, finish, and check the result
/// against the uninterrupted reference.
pub fn soak_iteration<P: Probe>(
    p: &mut P,
    spec: &SimSpec,
    seed: u64,
    reference: &SoakReference,
    mutate: Option<SnapshotMutator<'_>>,
) -> Checked<(Outcome, usize)> {
    let t0 = Instant::now();
    let w = in_span(p, "build_seeded", |_| spec.workload(seed));
    let mut m = in_span(p, "Machine::new", |_| spec.soak_machine(seed));
    let w = p.workload(w);
    in_span(p, "start_run", |_| m.start_run(w));
    let first = Instant::now();
    let pending = drive(p, &mut m, 0, reference.pause_at).map_err(|d| stalled("first half", &d))?;
    let first_s = first.elapsed().as_secs_f64();
    if !pending {
        return Err(format!(
            "run drained before the pause cycle {}",
            reference.pause_at
        ));
    }
    let snap = in_span(p, "MachineSnapshot::capture", |_| {
        MachineSnapshot::capture(&m)
    })
    .map_err(|e| format!("capture: {e}"))?;
    drop(m);
    let mut text = in_span(p, "MachineSnapshot::to_json_string", |_| {
        snap.to_json_string()
    });
    drop(snap);
    if let Some(f) = mutate {
        f(&mut text);
    }
    let bytes = text.len();
    let parsed = in_span(p, "MachineSnapshot::parse", |_| {
        MachineSnapshot::parse(&text)
    })
    .map_err(|e| format!("parse: {e}"))?;
    drop(text);
    let fresh = in_span(p, "build_seeded", |_| spec.workload(seed));
    let fresh = p.workload(fresh);
    let mut m = in_span(p, "MachineSnapshot::restore", |_| parsed.restore(fresh))
        .map_err(|e| format!("restore: {e}"))?;
    drop(parsed);
    let resumed = Instant::now();
    drive(p, &mut m, reference.pause_at, Cycle::MAX).map_err(|d| stalled("second half", &d))?;
    let (r, m) = in_span(p, "finish_run", |_| m.finish_run(resumed))
        .map_err(|(d, _)| stalled("finish", &d))?;
    in_span(p, "verify", |_| {
        check_soak_machine(&m)?;
        check_stats(&r.stats, &reference.stats)
    })?;
    let outcome = Outcome {
        run_s: t0.elapsed().as_secs_f64(),
        loop_s: first_s + r.sim_wall_secs,
        loop_cycles: r.stats.total_cycles,
        events: r.events,
        peak_queue_depth: r.peak_queue_depth,
        stats: vec![r.stats],
        repeats: 1,
        check: Vec::new(),
    };
    Ok((outcome, bytes))
}

fn scenarios() -> Checked<Vec<Scenario>> {
    CHECK_SCENARIOS
        .iter()
        .map(|n| scenario::by_name(n).ok_or_else(|| format!("no model-checker scenario named {n}")))
        .collect()
}

/// The machine a scenario's exploration starts from.
pub fn check_root(sc: &Scenario) -> Machine {
    explore::build_machine(sc, CHECK_PROTOCOL, Fault::None)
}

/// One `check-lazy` iteration: explore both scenarios exhaustively, then
/// run each [`CHECK_NATURAL_REPS`] times in natural event order on the
/// simulator, timing all those runs as one block. Checks both explorations
/// pass and are complete, that every natural-order run of a scenario is
/// identical, and that the counts and statistics equal `reference`, when
/// given.
pub fn check_iteration<P: Probe>(p: &mut P, reference: Option<&Outcome>) -> Checked<Outcome> {
    let t0 = Instant::now();
    let scs = in_span(p, "scenario::by_name", |_| scenarios())?;
    let mut check = Vec::new();
    for sc in &scs {
        let limits = Limits {
            max_states: 0,
            ..Limits::default()
        };
        let report = in_span(p, "check", |_| {
            explore::check(sc, CHECK_PROTOCOL, Fault::None, limits)
        });
        if let Some(cx) = &report.counterexample {
            return Err(format!("{}: counterexample {:?}", sc.name, cx.failure));
        }
        if !report.complete {
            return Err(format!("{}: exploration was cut off by a limit", sc.name));
        }
        check.push(CheckCounts {
            states: report.states,
            terminals: report.terminals,
            max_depth: report.max_depth_seen,
        });
    }
    let mut out = Outcome {
        run_s: 0.0,
        loop_s: 0.0,
        loop_cycles: 0,
        stats: Vec::new(),
        repeats: CHECK_NATURAL_REPS as u64,
        events: 0,
        peak_queue_depth: 0,
        check,
    };
    p.before_block();
    let block = Instant::now();
    for sc in &scs {
        let mut first: Option<MachineStats> = None;
        in_span(p, "natural_order", |p| {
            for _ in 0..CHECK_NATURAL_REPS {
                let m = p.sink(Machine::new(sc.config(), CHECK_PROTOCOL).with_value_tracking());
                let w = p.workload(Box::new(sc.script()));
                let r = m.try_run(w).map_err(|d| stalled(sc.name, &d))?;
                out.loop_cycles += r.stats.total_cycles;
                out.events += r.events;
                out.peak_queue_depth = out.peak_queue_depth.max(r.peak_queue_depth);
                match &first {
                    Some(s) if *s != r.stats => {
                        return Err(format!("{}: natural-order runs diverged", sc.name))
                    }
                    Some(_) => {}
                    None => first = Some(r.stats),
                }
            }
            Ok(())
        })?;
        out.stats.extend(first);
    }
    out.loop_s = block.elapsed().as_secs_f64();
    if let Some(want) = reference {
        if out.check != want.check {
            return Err(format!(
                "exploration counts {:?} differ from the reference {:?}",
                out.check, want.check
            ));
        }
        if out.stats != want.stats {
            return Err("natural-order statistics differ from the reference".into());
        }
    }
    out.run_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Build everything one iteration of `bench` builds before its first
/// event, and return the host seconds it took (the `setup_s` sample).
pub fn setup_once(bench: Bench, seed: u64) -> Checked<f64> {
    // Each arm stops the clock before its values drop: tear-down is not
    // set-up.
    let t0 = Instant::now();
    Ok(match bench.sim() {
        Some(spec) if bench == Bench::SoakFft => {
            let built = std::hint::black_box((spec.workload(seed), spec.soak_machine(seed)));
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        }
        Some(spec) => {
            let built = std::hint::black_box((
                spec.workload(seed),
                Machine::new(spec.config(), spec.protocol),
            ));
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        }
        None => {
            let scs = scenarios()?;
            let built = std::hint::black_box(scs.iter().map(check_root).collect::<Vec<_>>());
            let s = t0.elapsed().as_secs_f64();
            drop((scs, built));
            s
        }
    })
}
