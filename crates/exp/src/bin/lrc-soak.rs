//! `lrc-soak` — the chaos soak harness: fault-injection sweeps with value
//! verification.
//!
//! Sweeps a grid of fault rates × protocols × seeds over randomly generated
//! (seeded, reproducible) data-race-free programs, with the link layer's
//! NACK/retry/timeout machinery recovering every injected fault. Each cell:
//!
//! 1. runs under a [`FaultPlan`] with uniform per-class fault rates and the
//!    progress watchdog armed — a wedge surfaces as a structured
//!    [`StallDiagnosis`], never a hang;
//! 2. verifies values: the machine's final memory must equal the reference
//!    sequentially consistent execution replayed over the observed lock
//!    grant order (DRF ⇒ SC, faults or not). The premise of that
//!    implication is *checked*, not assumed: every cell runs with the
//!    happens-before race detector armed, and the value comparison only
//!    applies once the detector certifies the run race-free;
//! 3. runs again and requires bit-identical statistics — the fault pattern,
//!    and hence the whole simulation (race reports included), is a pure
//!    function of `(seed, plan)`.
//!
//! After the sweep, an *unrecoverable* stage drops messages with retries
//! disabled and demonstrates that the failure mode is a structured
//! diagnosis naming the abandoned deliveries, not silent corruption.
//!
//! ```text
//! lrc-soak [--smoke] [--capacity-sweep] [--races] [--availability]
//!          [--procs N] [--seeds N] [--phases N] [--rates R1,R2,...]
//!          [--watchdog CYCLES] [--checkpoint-dir DIR] [--resume DIR]
//!          [--replay FILE] [--quiet]
//! ```
//!
//! `--smoke` is the CI profile: tiny programs, rates {0, 1e-3}, one seed,
//! all four protocols. The default profile sweeps rates {0, 1e-4, 1e-3}
//! across three seeds. Exit status is non-zero on any verification failure
//! or on a wedge at a recoverable rate.
//!
//! The fault-grid sweep is **crash-resumable**: `--checkpoint-dir DIR`
//! journals each completed cell (atomically, after its verdict), and
//! `--resume DIR` replays journaled cells without rerunning them — a
//! sweep killed at any instant and resumed produces output and exit
//! status identical to an uninterrupted one. A wedged cell auto-dumps the
//! stalled machine's snapshot next to the journal with ready-to-paste
//! `--replay` / `--resume` commands in the report; `--replay FILE`
//! restores such a dump and reproduces the stall in isolation.
//!
//! `--capacity-sweep` replaces the fault grid with a *finite-resource* grid:
//! NI queue depth × write-notice budget × protocol, fault-free. Every cell
//! must complete (backpressure and the overflow fallback degrade timing,
//! never progress), verify against the reference SC execution, and rerun
//! bit-identically; the sweep as a whole must exercise real pressure
//! (nonzero NACK / reject / overflow counters in at least one cell).
//!
//! `--availability` replaces the fault grid with a *crash-stop* grid:
//! crash rate (the fraction of nodes killed, at seeded early-run cycles)
//! × protocol × seed, fault-free links, lease-based detection armed in
//! every cell. Surviving nodes must complete their programs, the typed
//! crash counters must match the plan, and every cell must rerun with
//! bit-identical statistics. The rate-0 cells are the control: the armed
//! detector must stay silent and the full value verification applies.
//! Availability sweeps are crash-resumable like the fault grid, and the
//! sweep manifest records the crash-plan shape so a `--resume` under a
//! different plan is a fatal mismatch instead of silently mixed cells.
//!
//! `--races` replaces the fault grid with a race-detection sweep over the
//! application suite: the five data-race-free SPLASH-style generators
//! (barnes, blu, cholesky, fft, gauss) must come back clean under every
//! protocol, the deliberately racy programs (mp3d and locusroute — the two
//! the paper singles out as violating the release-consistency model — plus
//! the planted `racy` micro workload) must be flagged, and every cell must
//! rerun with bit-identical statistics, race reports included.

#![forbid(unsafe_code)]

use lrc_core::{CrashPlan, FaultPlan, FaultRates, Machine, MachineSnapshot, MsgClass, StallDiagnosis};
use lrc_json::{json_struct, Ctx, Dec, DecodeError, FromJson, ToJson, Value, Wire};
use lrc_sim::refint;
use lrc_sim::{MachineConfig, MachineStats, Op, Protocol, ResourceLimits, Rng, Script};
use std::fs;
use std::path::{Path, PathBuf};

/// Locks protecting the shared region; shared line `l` belongs to lock
/// `l % N_LOCKS`, and is only touched inside that lock's critical sections,
/// which keeps every generated program data-race-free by construction.
const N_LOCKS: u64 = 4;
/// Shared lines per lock.
const LINES_PER_LOCK: u64 = 4;
/// First private line; processor `p` owns `[PRIVATE_BASE + 8p, +8)`.
const PRIVATE_BASE: u64 = 512;

/// Generate a seeded, reproducible DRF program: barrier-separated phases of
/// lock-protected shared-line critical sections interleaved with private
/// accesses and computes.
fn soak_script(seed: u64, procs: usize, phases: usize, csecs: usize, cfg: &MachineConfig) -> Script {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x50a4));
    let line = |l: u64, word: u64| l * cfg.line_size as u64 + word * cfg.word_size as u64;
    let words = (cfg.line_size / cfg.word_size) as u64;
    let mut streams: Vec<Vec<Op>> = Vec::with_capacity(procs);
    for p in 0..procs {
        let mut ops = Vec::new();
        for _ in 0..phases {
            for _ in 0..csecs {
                // Private work between critical sections.
                match rng.below(3) {
                    0 => ops.push(Op::Compute(1 + rng.below(20) as u32)),
                    1 => ops.push(Op::Read(line(PRIVATE_BASE + 8 * p as u64 + rng.below(8), 0))),
                    _ => ops.push(Op::Write(line(PRIVATE_BASE + 8 * p as u64 + rng.below(8), 0))),
                }
                let lock = rng.below(N_LOCKS);
                ops.push(Op::Acquire(lock as u32));
                for _ in 0..1 + rng.below(3) {
                    let l = lock + N_LOCKS * rng.below(LINES_PER_LOCK);
                    let addr = line(l, rng.below(words));
                    if rng.below(2) == 0 {
                        ops.push(Op::Read(addr));
                    }
                    ops.push(Op::Write(addr));
                }
                ops.push(Op::Release(lock as u32));
            }
            ops.push(Op::Barrier(0));
        }
        streams.push(ops);
    }
    Script::new("soak", streams)
}

/// Check a completed machine's values against the reference SC execution:
/// no liveness residue, no write races, final memory equal to the
/// reference interpreter replaying the observed grant order.
fn verify_values(m: &Machine, script: &Script) -> Result<(), String> {
    let stuck = m.stuck_states();
    if !stuck.is_empty() {
        let rendered: Vec<String> = stuck.iter().map(|s| s.to_string()).collect();
        return Err(format!("liveness residue: {}", rendered.join("; ")));
    }
    // DRF ⇒ SC is an implication; establish the premise before comparing
    // values. The soak generator is DRF by construction, so a reported race
    // here is itself a failure — of the generator or the detector — and the
    // value comparison below would be meaningless noise on top of it.
    if let Some(rs) = m.race_stats() {
        if !rs.race_free() {
            let first = rs.reports.first().map_or(String::new(), |r| format!(" — {}", r.render()));
            return Err(format!(
                "race detector found {} race(s) in a supposedly DRF program{first}",
                rs.races_found
            ));
        }
    }
    let (mem, conflicts) = m.final_memory().ok_or("value tracking was not enabled")?;
    if !conflicts.is_empty() {
        return Err(format!("conflicting unflushed writes at quiescence: {conflicts:?}"));
    }
    let cfg = m.config();
    let ref_mem = refint::interpret(script, cfg.line_size, cfg.word_size, m.grant_log())
        .map_err(|e| e.to_string())?;
    if mem != ref_mem {
        let diffs = ref_mem
            .iter()
            .filter(|(k, v)| mem.get(k) != Some(v))
            .count()
            + mem.keys().filter(|k| !ref_mem.contains_key(k)).count();
        return Err(format!("final memory differs from the reference SC execution ({diffs} words)"));
    }
    Ok(())
}

/// One sweep cell's machine, built fresh per repetition. The race detector
/// rides along in every cell so [`verify_values`]'s DRF ⇒ SC comparison
/// rests on a checked verdict instead of the generator's promise.
fn build(cfg: &MachineConfig, proto: Protocol, plan: FaultPlan, watchdog: u64) -> Machine {
    Machine::new(cfg.clone(), proto)
        .with_fault_plan(plan)
        .with_value_tracking()
        .with_race_detection()
        .with_watchdog(watchdog)
        .with_max_cycles(50_000_000_000)
}

enum CellOutcome {
    /// Completed and verified; carries the stats of the (reproduced) run.
    Ok(Box<MachineStats>),
    /// Completed but failed value verification or reproduction.
    Failed(String),
    /// Wedged with a structured diagnosis (a failure at recoverable rates),
    /// carrying the wedged machine itself so the caller can dump its
    /// snapshot next to the report for offline replay.
    Wedged(Box<StallDiagnosis>, Box<Machine>),
}

fn run_cell(
    cfg: &MachineConfig,
    proto: Protocol,
    rate: f64,
    seed: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
) -> CellOutcome {
    let script = soak_script(seed, cfg.num_procs, phases, csecs, cfg);
    let plan = FaultPlan::uniform(rate, seed);
    let (first, m) =
        match build(cfg, proto, plan.clone(), watchdog).try_run_wedge(Box::new(script.clone())) {
            Ok(pair) => pair,
            Err((diag, wedged)) => return CellOutcome::Wedged(diag, wedged),
        };
    if let Err(e) = verify_values(&m, &script) {
        return CellOutcome::Failed(e);
    }
    // Reproduce: same (seed, plan) must yield bit-identical statistics.
    match build(cfg, proto, plan, watchdog).try_run(Box::new(script)) {
        Ok(second) if second.stats == first.stats => CellOutcome::Ok(Box::new(first.stats)),
        Ok(_) => CellOutcome::Failed("rerun with the same (seed, plan) diverged".into()),
        Err(diag) => CellOutcome::Failed(format!("rerun wedged where the first run completed: {diag}")),
    }
}

/// One capacity-sweep cell: fault-free, finite resources from `cfg`.
/// Completes (or wedges — a failure), verifies values against the reference
/// SC execution, and reruns for bit-identical statistics.
fn capacity_cell(
    cfg: &MachineConfig,
    proto: Protocol,
    seed: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
) -> CellOutcome {
    let script = soak_script(seed, cfg.num_procs, phases, csecs, cfg);
    let build = || {
        Machine::new(cfg.clone(), proto)
            .with_value_tracking()
            .with_race_detection()
            .with_watchdog(watchdog)
            .with_max_cycles(50_000_000_000)
    };
    let (first, m) = match build().try_run_wedge(Box::new(script.clone())) {
        Ok(pair) => pair,
        Err((diag, wedged)) => return CellOutcome::Wedged(diag, wedged),
    };
    if let Err(e) = verify_values(&m, &script) {
        return CellOutcome::Failed(e);
    }
    match build().try_run(Box::new(script)) {
        Ok(second) if second.stats == first.stats => CellOutcome::Ok(Box::new(first.stats)),
        Ok(_) => CellOutcome::Failed("rerun with the same capacities diverged".into()),
        Err(diag) => {
            CellOutcome::Failed(format!("rerun wedged where the first run completed: {diag}"))
        }
    }
}

/// The finite-resource sweep: NI queue depth (which also bounds directory
/// request slots) × write-notice budget × protocol × seed. Returns the
/// number of failed cells.
fn capacity_sweep(
    base: &MachineConfig,
    smoke: bool,
    seeds: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
    quiet: bool,
) -> usize {
    let depths: &[Option<usize>] = if smoke { &[None, Some(2)] } else { &[None, Some(8), Some(2)] };
    let budgets: &[Option<usize>] = if smoke { &[None, Some(1)] } else { &[None, Some(16), Some(1)] };
    let fmt = |c: Option<usize>| c.map_or("inf".to_string(), |v| v.to_string());

    let mut cells = 0usize;
    let mut failures = 0usize;
    let mut pressure = 0u64;
    for &depth in depths {
        for &budget in budgets {
            let mut cfg = base.clone();
            cfg.resources = ResourceLimits {
                ni_ingress: depth,
                ni_egress: depth,
                dir_request_slots: depth,
                write_notice_buffer: budget,
                ..ResourceLimits::unbounded()
            };
            for &proto in &Protocol::ALL {
                for seed in 1..=seeds {
                    cells += 1;
                    let tag = format!(
                        "{:<8} depth={:<3} wn={:<3} seed={seed}",
                        proto.name(),
                        fmt(depth),
                        fmt(budget)
                    );
                    match capacity_cell(&cfg, proto, seed, phases, csecs, watchdog) {
                        CellOutcome::Ok(stats) => {
                            let r = &stats.resources;
                            pressure += r.busy_nacks + r.ni_rejects + r.wn_overflows;
                            if !quiet {
                                eprintln!(
                                    "  ok {tag}  {:>10} cycles  {:>7} refs  \
                                     {:>4} nacks  {:>4} rejects  {:>3} overflows",
                                    stats.total_cycles,
                                    stats.total_refs(),
                                    r.busy_nacks,
                                    r.ni_rejects,
                                    r.wn_overflows,
                                );
                            }
                        }
                        CellOutcome::Failed(e) => {
                            failures += 1;
                            eprintln!("FAIL {tag}: {e}");
                        }
                        CellOutcome::Wedged(diag, _) => {
                            failures += 1;
                            eprintln!("FAIL {tag}: wedged under finite capacities: {diag}");
                        }
                    }
                }
            }
        }
    }
    if pressure == 0 {
        failures += 1;
        eprintln!("FAIL capacity sweep: no cell ever NACKed, rejected, or overflowed");
    }
    if failures == 0 {
        eprintln!(
            "lrc-soak --capacity-sweep: all {cells} cells verified \
             ({pressure} pressure events, every run value-correct and reproducible)"
        );
    }
    failures
}

/// The `--races` sweep: run the application suite (plus the planted
/// positive control) under every protocol with the detector armed. The
/// five DRF generators must come back clean; mp3d, locusroute, and the
/// `racy` micro workload must be flagged; and every cell must reproduce
/// bit-identically — race reports included, since they live in
/// [`MachineStats`]. Returns the number of failed cells.
fn races_sweep(base: &MachineConfig, smoke: bool, watchdog: u64, quiet: bool) -> usize {
    use lrc_workloads::{racy, Scale, WorkloadKind};

    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    // (name, builder, expected racy?). mp3d and locusroute are racy *by
    // construction* — the paper names them as the two programs that do not
    // obey the release-consistency model — so they double as organic
    // positive controls alongside the planted one.
    type Builder = Box<dyn Fn() -> Box<dyn lrc_sim::Workload>>;
    let mut cells_spec: Vec<(String, Builder, bool)> = Vec::new();
    for kind in WorkloadKind::ALL {
        let expected_racy = matches!(kind, WorkloadKind::Mp3d | WorkloadKind::Locusroute);
        let procs = base.num_procs;
        cells_spec.push((
            kind.name().to_string(),
            Box::new(move || kind.build(procs, scale)),
            expected_racy,
        ));
    }
    let procs = base.num_procs;
    cells_spec.push(("racy".to_string(), Box::new(move || Box::new(racy::build(procs, 3))), true));

    let mut failures = 0usize;
    let mut cells = 0usize;
    for (name, build_w, expected_racy) in &cells_spec {
        for &proto in &Protocol::ALL {
            cells += 1;
            let tag = format!("{:<10} {:<8}", name, proto.name());
            let run = || {
                Machine::new(base.clone(), proto)
                    .with_race_detection()
                    .with_watchdog(watchdog)
                    .with_max_cycles(50_000_000_000)
                    .try_run(build_w())
            };
            let first = match run() {
                Ok(r) => r,
                Err(diag) => {
                    failures += 1;
                    eprintln!("FAIL {tag}: wedged: {diag}");
                    continue;
                }
            };
            let races = &first.stats.races;
            if *expected_racy && races.race_free() {
                failures += 1;
                eprintln!("FAIL {tag}: known-racy program came back clean");
                continue;
            }
            if !*expected_racy && !races.race_free() {
                failures += 1;
                let first_report =
                    races.reports.first().map_or(String::new(), |r| format!(" — {}", r.render()));
                eprintln!(
                    "FAIL {tag}: {} race(s) in a DRF generator{first_report}",
                    races.races_found
                );
                continue;
            }
            match run() {
                Ok(second) if second.stats == first.stats => {
                    if !quiet {
                        eprintln!(
                            "  ok {tag}  {:>10} cycles  {:>9} words monitored  \
                             {:>3} race(s){}",
                            first.stats.total_cycles,
                            races.words_monitored,
                            races.races_found,
                            if *expected_racy { "  (expected racy)" } else { "" },
                        );
                    }
                }
                Ok(_) => {
                    failures += 1;
                    eprintln!("FAIL {tag}: rerun diverged (race reports must be bit-identical)");
                }
                Err(diag) => {
                    failures += 1;
                    eprintln!("FAIL {tag}: rerun wedged where the first run completed: {diag}");
                }
            }
        }
    }
    if failures == 0 {
        eprintln!(
            "lrc-soak --races: all {cells} cells verified (5 DRF generators clean, \
             mp3d/locusroute/racy flagged, every report reproducible)"
        );
    }
    failures
}

/// Heartbeat period for every availability cell. Recorded in the sweep
/// manifest: resuming under a different period is a fatal mismatch.
const AVAIL_HEARTBEAT: u64 = 500;
/// Lease bound for every availability cell. Comfortably dominates the
/// heartbeat period plus the worst-case NI queueing delay, so no
/// slow-but-alive node is ever falsely declared dead.
const AVAIL_LEASE: u64 = 4_000;

/// The availability sweep's crash plan for one cell: `ceil(rate × procs)`
/// distinct seeded victims, each killed at a seeded early-run cycle (the
/// generated programs barrier every phase, so survivors provably depend
/// on reclamation to finish). At most `procs - 1` nodes die; rate 0 keeps
/// detection armed with nobody on the kill list.
fn avail_plan(rate: f64, procs: usize, seed: u64) -> FaultPlan {
    let n = ((rate * procs as f64).ceil() as usize).min(procs.saturating_sub(1));
    let mut cp = CrashPlan::detection_only();
    cp.heartbeat_every = AVAIL_HEARTBEAT;
    cp.lease_timeout = AVAIL_LEASE;
    let mut rng = Rng::new(seed.wrapping_mul(0x6b43_a9b5).wrapping_add(0xD1ED));
    while cp.victims.len() < n {
        let v = rng.below(procs as u64) as usize;
        if cp.victims.iter().all(|&(w, _)| w != v) {
            cp.victims.push((v, 1_000 + 250 * rng.below(6)));
        }
    }
    FaultPlan::off(seed).with_crash(cp)
}

/// One availability cell. Rate-0 control cells get the full soak
/// verification (values against the reference SC execution, detector
/// provably silent); crashed cells assert surviving-node completion,
/// plan-matching typed crash counters, and a bit-identical rerun.
fn availability_cell(
    cfg: &MachineConfig,
    proto: Protocol,
    rate: f64,
    seed: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
) -> CellOutcome {
    let script = soak_script(seed, cfg.num_procs, phases, csecs, cfg);
    let plan = avail_plan(rate, cfg.num_procs, seed);
    let victims: Vec<usize> =
        plan.crash.as_ref().map_or(Vec::new(), |c| c.victims.iter().map(|&(v, _)| v).collect());

    if victims.is_empty() {
        let (first, m) =
            match build(cfg, proto, plan.clone(), watchdog).try_run_wedge(Box::new(script.clone())) {
                Ok(pair) => pair,
                Err((diag, wedged)) => return CellOutcome::Wedged(diag, wedged),
            };
        let c = &first.stats.crashes;
        if c.heartbeats_sent == 0 {
            return CellOutcome::Failed(format!("detection was never armed: {c:?}"));
        }
        if c.crashes != 0 || c.suspicions != 0 {
            return CellOutcome::Failed(format!(
                "the armed detector perturbed a healthy run: {c:?}"
            ));
        }
        if let Err(e) = verify_values(&m, &script) {
            return CellOutcome::Failed(e);
        }
        return match build(cfg, proto, plan, watchdog).try_run(Box::new(script)) {
            Ok(second) if second.stats == first.stats => CellOutcome::Ok(Box::new(first.stats)),
            Ok(_) => CellOutcome::Failed("rerun with the same (seed, plan) diverged".into()),
            Err(diag) => {
                CellOutcome::Failed(format!("rerun wedged where the first run completed: {diag}"))
            }
        };
    }

    // Crashed cells: dirty lines can die with their owners, so the value
    // comparison against the reference SC execution no longer applies;
    // the cell's contract is completion, typed accounting, determinism.
    let run = || {
        Machine::new(cfg.clone(), proto)
            .with_fault_plan(plan.clone())
            .with_watchdog(watchdog)
            .with_max_cycles(50_000_000_000)
    };
    let (first, _m) = match run().try_run_wedge(Box::new(script.clone())) {
        Ok(pair) => pair,
        Err((diag, wedged)) => return CellOutcome::Wedged(diag, wedged),
    };
    let c = &first.stats.crashes;
    if c.crashes != victims.len() as u64 {
        return CellOutcome::Failed(format!(
            "{} node(s) on the kill list but {} died: {c:?}",
            victims.len(),
            c.crashes
        ));
    }
    if c.suspicions == 0 {
        return CellOutcome::Failed(format!("nobody ever suspected the dead node(s): {c:?}"));
    }
    for (p, ps) in first.stats.procs.iter().enumerate() {
        if victims.contains(&p) {
            if ps.finish_time != 0 {
                return CellOutcome::Failed(format!("dead node {p} finished its program"));
            }
        } else if ps.finish_time == 0 {
            return CellOutcome::Failed(format!("surviving node {p} never finished"));
        }
    }
    match run().try_run(Box::new(script)) {
        Ok(second) if second.stats == first.stats => CellOutcome::Ok(Box::new(first.stats)),
        Ok(_) => CellOutcome::Failed("rerun with the same (seed, plan) diverged".into()),
        Err(diag) => {
            CellOutcome::Failed(format!("rerun wedged where the first run completed: {diag}"))
        }
    }
}

/// The `--availability` sweep: crash rate × protocol × seed. Journaled
/// and resumable exactly like the fault grid (the caller has already
/// pinned the manifest, crash-plan shape included). Returns the number of
/// failed cells.
#[allow(clippy::too_many_arguments)]
fn availability_sweep(
    cfg: &MachineConfig,
    rates: &[f64],
    seeds: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
    quiet: bool,
    journal: &Option<Journal>,
    resume: bool,
    dump_dir: &Path,
) -> usize {
    let mut cells = 0usize;
    let mut failures = 0usize;
    let mut total_killed = 0u64;
    let mut total_lost = 0u64;
    for &rate in rates {
        for &proto in &Protocol::ALL {
            for seed in 1..=seeds {
                cells += 1;
                let key = format!("avail{rate}-{}-seed{seed}", proto.name());
                let (rec, fresh) = match resume
                    .then(|| journal.as_ref().and_then(|j| j.load(&key)))
                    .flatten()
                {
                    Some(rec) => (rec, false),
                    None => {
                        let rec = match availability_cell(
                            cfg, proto, rate, seed, phases, csecs, watchdog,
                        ) {
                            CellOutcome::Ok(stats) => {
                                let c = &stats.crashes;
                                let survivors = stats
                                    .procs
                                    .iter()
                                    .filter(|ps| ps.finish_time > 0)
                                    .count();
                                CellRecord {
                                    ok: true,
                                    line: format!(
                                        "  ok {proto:<8} crash={rate:<5} seed={seed}  \
                                         {:>10} cycles  {survivors}/{} finished  \
                                         {:>2} killed  {:>3} dirty lost  {:>3} reclaimed\n",
                                        stats.total_cycles,
                                        stats.procs.len(),
                                        c.crashes,
                                        c.dirty_lines_lost,
                                        c.clean_lines_reclaimed,
                                    ),
                                    // Journal fields double as the sweep's
                                    // availability totals: nodes killed and
                                    // dirty lines lost.
                                    injected: c.crashes,
                                    retries: c.dirty_lines_lost,
                                }
                            }
                            CellOutcome::Failed(e) => CellRecord {
                                ok: false,
                                line: format!("FAIL {proto:<8} crash={rate:<5} seed={seed}: {e}\n"),
                                injected: 0,
                                retries: 0,
                            },
                            CellOutcome::Wedged(diag, wedged) => {
                                let mut line = format!(
                                    "FAIL {proto:<8} crash={rate:<5} seed={seed}: \
                                     survivors wedged: {diag}\n"
                                );
                                match dump_wedge(dump_dir, &key, &wedged, seed, phases, csecs) {
                                    Ok(p) => line.push_str(&format!(
                                        "      stall snapshot: {}\n      \
                                         replay: lrc-soak --replay {}\n",
                                        p.display(),
                                        p.display()
                                    )),
                                    Err(e) => line
                                        .push_str(&format!("      (stall snapshot not written: {e})\n")),
                                }
                                CellRecord { ok: false, line, injected: 0, retries: 0 }
                            }
                        };
                        (rec, true)
                    }
                };
                if rec.ok {
                    total_killed += rec.injected;
                    total_lost += rec.retries;
                    if !quiet {
                        eprint!("{}", rec.line);
                    }
                } else {
                    failures += 1;
                    eprint!("{}", rec.line);
                }
                if fresh {
                    if let Some(j) = journal {
                        j.store(&key, &rec);
                    }
                }
            }
        }
    }
    if failures == 0 {
        eprintln!(
            "lrc-soak --availability: all {cells} cells verified ({total_killed} nodes killed, \
             {total_lost} dirty lines lost as typed events, every surviving node completed, \
             every run reproducible)"
        );
    }
    failures
}

/// The unrecoverable stage: drop messages with retries disabled, and
/// require the failure mode to be a structured diagnosis that names the
/// abandoned deliveries — never a hang, never silent completion with wrong
/// values. The wedged machine's snapshot is dumped into `dump_dir` with a
/// ready-to-paste replay command, demonstrating the stall artifact chain
/// end to end. Returns the stage's report block on success, an error
/// description if no seed produced a wedge or a wedge was malformed.
fn unrecoverable_stage(
    cfg: &MachineConfig,
    phases: usize,
    csecs: usize,
    dump_dir: &Path,
) -> Result<String, String> {
    let mut lossy = FaultPlan::off(0);
    lossy.rates = [FaultRates { drop: 0.25, ..FaultRates::default() }; MsgClass::COUNT];
    lossy.max_retries = 0;
    for seed in 1..=5u64 {
        let script = soak_script(seed, cfg.num_procs, phases, csecs, cfg);
        let plan = FaultPlan { seed, ..lossy.clone() };
        match build(cfg, Protocol::Lrc, plan, 2_000_000).try_run_wedge(Box::new(script)) {
            Ok(_) => continue, // this seed got lucky; try the next
            Err((diag, wedged)) => {
                if diag.abandoned_msgs.is_empty() {
                    return Err(format!(
                        "wedge without abandoned deliveries in the diagnosis: {diag}"
                    ));
                }
                let mut line = format!(
                    "  unrecoverable stage (seed {seed}): {} — {} abandoned deliveries, \
                     e.g. {}\n",
                    match diag.reason {
                        lrc_core::StallReason::Deadlock => "deadlock".to_string(),
                        ref r => format!("{r:?}"),
                    },
                    diag.abandoned_msgs.len(),
                    diag.abandoned_msgs[0]
                );
                let key = format!("unrecoverable-seed{seed}");
                match dump_wedge(dump_dir, &key, &wedged, seed, phases, csecs) {
                    Ok(p) => line.push_str(&format!(
                        "      stall snapshot: {}\n      replay: lrc-soak --replay {}\n",
                        p.display(),
                        p.display()
                    )),
                    Err(e) => line.push_str(&format!("      (stall snapshot not written: {e})\n")),
                }
                return Ok(line);
            }
        }
    }
    Err("25% loss with retries disabled never wedged in 5 seeds".into())
}

/// One finished cell as the sweep journal records it: the verdict, the
/// exact stderr block the cell emitted, and the counter deltas it
/// contributed — everything a `--resume` needs to reconstitute the cell
/// without rerunning it, byte-identically.
struct CellRecord {
    ok: bool,
    line: String,
    injected: u64,
    retries: u64,
}

/// A cell verdict travels as `"ok"` or `"fail"`.
enum Verdict {}

impl Wire<bool> for Verdict {
    fn encode(ok: &bool) -> Value {
        Value::from(if *ok { "ok" } else { "fail" })
    }
    fn decode(v: &Value, _: Ctx) -> Result<bool, DecodeError> {
        match v.as_str() {
            Some("ok") => Ok(true),
            Some("fail") => Ok(false),
            _ => Err(DecodeError::expected("\"ok\" or \"fail\"")),
        }
    }
}

json_struct!(CellRecord { ok as "outcome": Verdict, injected: Dec, retries: Dec, line });

/// The crash-resumable sweep journal: one marker file per completed cell,
/// written atomically (tmp + rename) *after* the cell's verdict, so a kill
/// at any instant leaves either a complete marker or none. A torn or
/// unparseable marker is treated as absent — the cell simply reruns.
struct Journal {
    dir: PathBuf,
}

impl Journal {
    fn open(dir: &str) -> Journal {
        fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create checkpoint dir {dir}: {e}")));
        Journal { dir: PathBuf::from(dir) }
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("cell-{key}.json"))
    }

    fn load(&self, key: &str) -> Option<CellRecord> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        CellRecord::from_json(&lrc_json::parse(&text).ok()?)
    }

    fn store(&self, key: &str, rec: &CellRecord) {
        let tmp = self.dir.join(format!(".cell-{key}.json.tmp"));
        let write = fs::write(&tmp, rec.to_json().pretty())
            .and_then(|()| fs::rename(&tmp, self.path(key)));
        if let Err(e) = write {
            eprintln!("lrc-soak: warning: checkpoint marker for {key} not written: {e}");
        }
    }

    /// Pin the sweep shape the journal was created for. A `--resume` under
    /// different parameters would silently skip cells that mean something
    /// else, so a mismatch is fatal.
    fn check_manifest(&self, manifest: &Value) {
        let path = self.dir.join("sweep.json");
        let want = manifest.pretty();
        match fs::read_to_string(&path) {
            Ok(have) if have == want => {}
            Ok(_) => die(&format!(
                "checkpoint dir {} was written by a sweep with different \
                 parameters; pass the original flags or use a fresh dir",
                self.dir.display()
            )),
            Err(_) => {
                let tmp = self.dir.join(".sweep.json.tmp");
                let write =
                    fs::write(&tmp, &want).and_then(|()| fs::rename(&tmp, &path));
                if let Err(e) = write {
                    eprintln!("lrc-soak: warning: sweep manifest not written: {e}");
                }
            }
        }
    }
}

/// Dump a wedged machine's snapshot, wrapped in an envelope carrying the
/// generator parameters needed to rebuild its workload, so
/// `lrc-soak --replay FILE` can restore the exact pre-stall state.
fn dump_wedge(
    dir: &Path,
    key: &str,
    m: &Machine,
    seed: u64,
    phases: usize,
    csecs: usize,
) -> Result<PathBuf, String> {
    let snap = m.snapshot().map_err(|e| format!("snapshot refused: {e}"))?;
    let snap_v =
        lrc_json::parse(&snap.to_json_string()).map_err(|e| format!("snapshot reparse: {e}"))?;
    let env = Value::Object(vec![
        ("kind".to_string(), Value::Str("lrc-soak-wedge".to_string())),
        (
            "script".to_string(),
            Value::Object(vec![
                ("seed".to_string(), Value::Str(seed.to_string())),
                ("phases".to_string(), Value::Num(phases as f64)),
                ("csecs".to_string(), Value::Num(csecs as f64)),
            ]),
        ),
        ("snapshot".to_string(), snap_v),
    ]);
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("wedge-{key}.json"));
    let tmp = dir.join(format!(".wedge-{key}.json.tmp"));
    fs::write(&tmp, env.pretty()).map_err(|e| e.to_string())?;
    fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// `--replay FILE`: restore a wedge dump and drive it forward. Exit 0 when
/// the stall reproduces (the dump captured a genuinely wedged state), 1
/// when the run completes instead.
fn replay(file: &str, quiet: bool) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("lrc-soak --replay: {msg}");
        std::process::exit(2)
    };
    let text = fs::read_to_string(file).unwrap_or_else(|e| fail(format!("read {file}: {e}")));
    let env = lrc_json::parse(&text).unwrap_or_else(|e| fail(format!("parse {file}: {e}")));
    if env["kind"].as_str() != Some("lrc-soak-wedge") {
        fail(format!("{file} is not an lrc-soak wedge dump"));
    }
    let seed: u64 = env["script"]["seed"]
        .as_str()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("wedge dump has no script seed".to_string()));
    let phases = env["script"]["phases"]
        .as_u64()
        .unwrap_or_else(|| fail("wedge dump has no phase count".to_string()))
        as usize;
    let csecs = env["script"]["csecs"]
        .as_u64()
        .unwrap_or_else(|| fail("wedge dump has no csec count".to_string()))
        as usize;
    let snap = MachineSnapshot::parse(&env["snapshot"].pretty())
        .unwrap_or_else(|e| fail(format!("embedded snapshot: {e}")));
    let cfg = snap
        .config()
        .unwrap_or_else(|| fail("embedded snapshot carries no machine config".to_string()));
    let script = soak_script(seed, cfg.num_procs, phases, csecs, &cfg);
    let mut m = snap
        .restore(Box::new(script))
        .unwrap_or_else(|e| fail(format!("restore: {e}")));
    if !quiet {
        eprintln!(
            "lrc-soak --replay: restored {file} at cycle {} ({} procs, seed {seed})",
            snap.cycle(),
            cfg.num_procs
        );
    }
    let started = std::time::Instant::now();
    match m.run_until(u64::MAX) {
        Err(diag) => {
            eprintln!("lrc-soak --replay: wedge reproduced: {diag}");
            std::process::exit(0)
        }
        Ok(_) => match m.finish_run(started) {
            Err((diag, _)) => {
                eprintln!("lrc-soak --replay: wedge reproduced: {diag}");
                std::process::exit(0)
            }
            Ok((r, _)) => {
                eprintln!(
                    "lrc-soak --replay: run completed without wedging ({} cycles)",
                    r.stats.total_cycles
                );
                std::process::exit(1)
            }
        },
    }
}

fn die(msg: &str) -> ! {
    eprintln!("lrc-soak: {msg}");
    std::process::exit(2)
}

fn main() {
    let args = lrc_exp::utf8_args().unwrap_or_else(|e| die(&e));
    let mut smoke = false;
    let mut capacity = false;
    let mut races = false;
    let mut availability = false;
    let mut quiet = false;
    let mut procs: Option<usize> = None;
    let mut seeds: Option<u64> = None;
    let mut phases: Option<usize> = None;
    let mut rates: Option<Vec<f64>> = None;
    let mut watchdog = 10_000_000u64;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut replay_file: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--capacity-sweep" => capacity = true,
            "--races" => races = true,
            "--availability" => availability = true,
            "--quiet" => quiet = true,
            "--procs" => {
                let v = value(&mut i, "--procs");
                procs = Some(v.parse().unwrap_or_else(|_| die(&format!("--procs: invalid count '{v}'"))));
            }
            "--seeds" => {
                let v = value(&mut i, "--seeds");
                seeds = Some(v.parse().unwrap_or_else(|_| die(&format!("--seeds: invalid count '{v}'"))));
            }
            "--phases" => {
                let v = value(&mut i, "--phases");
                phases = Some(v.parse().unwrap_or_else(|_| die(&format!("--phases: invalid count '{v}'"))));
            }
            "--rates" => {
                let v = value(&mut i, "--rates");
                rates = Some(
                    v.split(',')
                        .map(|r| {
                            r.parse()
                                .unwrap_or_else(|_| die(&format!("--rates: invalid rate '{r}'")))
                        })
                        .collect(),
                );
            }
            "--watchdog" => {
                let v = value(&mut i, "--watchdog");
                watchdog =
                    v.parse().unwrap_or_else(|_| die(&format!("--watchdog: invalid cycles '{v}'")));
            }
            "--checkpoint-dir" => {
                let v = value(&mut i, "--checkpoint-dir");
                if checkpoint_dir.as_ref().is_some_and(|d| *d != v) {
                    die("--checkpoint-dir conflicts with an earlier --resume/--checkpoint-dir");
                }
                checkpoint_dir = Some(v);
            }
            "--resume" => {
                let v = value(&mut i, "--resume");
                if checkpoint_dir.as_ref().is_some_and(|d| *d != v) {
                    die("--resume conflicts with an earlier --resume/--checkpoint-dir");
                }
                checkpoint_dir = Some(v);
                resume = true;
            }
            "--replay" => replay_file = Some(value(&mut i, "--replay")),
            other => die(&format!(
                "unknown argument '{other}' \
                 (usage: lrc-soak [--smoke] [--capacity-sweep] [--races] [--availability] \
                 [--procs N] [--seeds N] [--phases N] [--rates R1,R2,...] [--watchdog CYCLES] \
                 [--checkpoint-dir DIR] [--resume DIR] [--replay FILE] [--quiet])"
            )),
        }
        i += 1;
    }

    if let Some(file) = replay_file {
        replay(&file, quiet);
    }

    let procs = procs.unwrap_or(if smoke { 4 } else { 8 });
    let seeds = seeds.unwrap_or(if smoke { 1 } else { 3 });
    let phases = phases.unwrap_or(if smoke { 3 } else { 6 });
    let csecs = if smoke { 4 } else { 8 };
    // `--rates` is the grid's variable axis: link-fault rates by default,
    // crash rates (fraction of nodes killed) under `--availability`.
    let rates = rates.unwrap_or(match (availability, smoke) {
        (true, true) => vec![0.0, 0.25],
        (true, false) => vec![0.0, 0.125, 0.25],
        (false, true) => vec![0.0, 1e-3],
        (false, false) => vec![0.0, 1e-4, 1e-3],
    });
    let cfg = MachineConfig::paper_default(procs);

    let journal = checkpoint_dir.as_deref().map(Journal::open);
    if let Some(j) = &journal {
        // The crash-plan shape is part of the manifest: a `--resume` of an
        // availability sweep under a different plan (or of a fault sweep
        // as an availability sweep) is a fatal mismatch, never a silent
        // mix of cells that mean different things.
        let crash = if availability {
            Value::Object(vec![
                ("heartbeat_every".to_string(), Value::Str(AVAIL_HEARTBEAT.to_string())),
                ("lease_timeout".to_string(), Value::Str(AVAIL_LEASE.to_string())),
            ])
        } else {
            Value::Null
        };
        j.check_manifest(&Value::Object(vec![
            (
                "mode".to_string(),
                Value::Str(if availability { "availability" } else { "faults" }.to_string()),
            ),
            ("procs".to_string(), Value::Num(procs as f64)),
            ("seeds".to_string(), Value::Num(seeds as f64)),
            ("phases".to_string(), Value::Num(phases as f64)),
            ("csecs".to_string(), Value::Num(csecs as f64)),
            ("watchdog".to_string(), Value::Str(watchdog.to_string())),
            ("rates".to_string(), Value::Array(rates.iter().map(|&r| Value::Num(r)).collect())),
            ("crash".to_string(), crash),
        ]));
    }
    // Wedge snapshots land next to the journal when one exists, else
    // under results/wedges/ — never loose in the working directory.
    let dump_dir: PathBuf =
        journal.as_ref().map(|j| j.dir.clone()).unwrap_or_else(|| PathBuf::from("results/wedges"));

    if availability {
        if !quiet {
            eprintln!(
                "lrc-soak --availability{}: {} procs, {} seed(s), crash rates {:?}, {} protocols",
                if smoke { " --smoke" } else { "" },
                procs,
                seeds,
                rates,
                Protocol::ALL.len()
            );
        }
        let failures = availability_sweep(
            &cfg, &rates, seeds, phases, csecs, watchdog, quiet, &journal, resume, &dump_dir,
        );
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }

    if races {
        if !quiet {
            eprintln!(
                "lrc-soak --races{}: {} procs, {} protocols, application suite + positive control",
                if smoke { " --smoke" } else { "" },
                procs,
                Protocol::ALL.len()
            );
        }
        let failures = races_sweep(&cfg, smoke, watchdog, quiet);
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }

    if capacity {
        if !quiet {
            eprintln!(
                "lrc-soak --capacity-sweep{}: {} procs, {} seed(s), {} protocols",
                if smoke { " --smoke" } else { "" },
                procs,
                seeds,
                Protocol::ALL.len()
            );
        }
        let failures = capacity_sweep(&cfg, smoke, seeds, phases, csecs, watchdog, quiet);
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }

    if !quiet {
        eprintln!(
            "lrc-soak{}: {} procs, {} seed(s), rates {:?}, {} protocols",
            if smoke { " --smoke" } else { "" },
            procs,
            seeds,
            rates,
            Protocol::ALL.len()
        );
    }

    let mut cells = 0usize;
    let mut failures = 0usize;
    let mut total_injected = 0u64;
    let mut total_retries = 0u64;
    // Emit one journaled record per cell: resumed cells replay their
    // recorded verdict (and exact output) without rerunning, fresh cells
    // run and then persist theirs — so a killed-midway sweep resumed with
    // `--resume DIR` produces output and exit status identical to an
    // uninterrupted sweep.
    let settle = |rec: CellRecord,
                      key: &str,
                      fresh: bool,
                      failures: &mut usize,
                      total_injected: &mut u64,
                      total_retries: &mut u64| {
        if rec.ok {
            *total_injected += rec.injected;
            *total_retries += rec.retries;
            if !quiet {
                eprint!("{}", rec.line);
            }
        } else {
            *failures += 1;
            eprint!("{}", rec.line);
        }
        if fresh {
            if let Some(j) = &journal {
                j.store(key, &rec);
            }
        }
    };
    for &rate in &rates {
        for &proto in &Protocol::ALL {
            for seed in 1..=seeds {
                cells += 1;
                let key = format!("rate{rate}-{}-seed{seed}", proto.name());
                if resume {
                    if let Some(rec) = journal.as_ref().and_then(|j| j.load(&key)) {
                        settle(rec, &key, false, &mut failures, &mut total_injected, &mut total_retries);
                        continue;
                    }
                }
                let rec = match run_cell(&cfg, proto, rate, seed, phases, csecs, watchdog) {
                    CellOutcome::Ok(stats) => {
                        if rate == 0.0 && !stats.faults.is_zero() {
                            CellRecord {
                                ok: false,
                                line: format!(
                                    "FAIL {proto:<8} rate={rate:<7} seed={seed}: \
                                     faults injected at rate 0: {:?}\n",
                                    stats.faults
                                ),
                                injected: 0,
                                retries: 0,
                            }
                        } else {
                            CellRecord {
                                ok: true,
                                line: format!(
                                    "  ok {proto:<8} rate={rate:<7} seed={seed}  \
                                     {:>10} cycles  {:>7} refs  {:>4} faults  {:>4} retries\n",
                                    stats.total_cycles,
                                    stats.total_refs(),
                                    stats.faults.injected(),
                                    stats.faults.retries,
                                ),
                                injected: stats.faults.injected(),
                                retries: stats.faults.retries,
                            }
                        }
                    }
                    CellOutcome::Failed(e) => CellRecord {
                        ok: false,
                        line: format!("FAIL {proto:<8} rate={rate:<7} seed={seed}: {e}\n"),
                        injected: 0,
                        retries: 0,
                    },
                    CellOutcome::Wedged(diag, wedged) => {
                        let mut line = format!(
                            "FAIL {proto:<8} rate={rate:<7} seed={seed}: wedged at a \
                             recoverable rate: {diag}\n"
                        );
                        // The stall artifact chain, right next to the
                        // flight-recorder tail the diagnosis carries:
                        // the dumped snapshot and the commands that
                        // restore it (replay) or finish the sweep
                        // around it (resume).
                        match dump_wedge(&dump_dir, &key, &wedged, seed, phases, csecs) {
                            Ok(p) => {
                                line.push_str(&format!(
                                    "      stall snapshot: {}\n      replay: lrc-soak --replay {}\n",
                                    p.display(),
                                    p.display()
                                ));
                                if journal.is_some() {
                                    line.push_str(&format!(
                                        "      resume sweep: lrc-soak --resume {}\n",
                                        dump_dir.display()
                                    ));
                                }
                            }
                            Err(e) => line.push_str(&format!(
                                "      (stall snapshot not written: {e})\n"
                            )),
                        }
                        CellRecord { ok: false, line, injected: 0, retries: 0 }
                    }
                };
                settle(rec, &key, true, &mut failures, &mut total_injected, &mut total_retries);
            }
        }
    }

    let ukey = "unrecoverable";
    let resumed = if resume { journal.as_ref().and_then(|j| j.load(ukey)) } else { None };
    let (urec, fresh) = match resumed {
        Some(rec) => (rec, false),
        None => (
            match unrecoverable_stage(&cfg, phases, csecs, &dump_dir) {
                Ok(line) => CellRecord { ok: true, line, injected: 0, retries: 0 },
                Err(e) => CellRecord {
                    ok: false,
                    line: format!("FAIL unrecoverable stage: {e}\n"),
                    injected: 0,
                    retries: 0,
                },
            },
            true,
        ),
    };
    settle(urec, ukey, fresh, &mut failures, &mut total_injected, &mut total_retries);

    if failures > 0 {
        eprintln!("lrc-soak: {failures}/{cells} cells FAILED");
        std::process::exit(1);
    }
    eprintln!(
        "lrc-soak: all {cells} cells verified ({total_injected} faults injected, \
         {total_retries} retries, every run value-correct and reproducible)"
    );
}
