//! `lrc-soak` — the chaos soak harness: data-race-free programs must get
//! sequentially consistent results under every protocol, through link
//! faults, finite protocol resources and crash-stop failures.
//!
//! Every sweep is a list of cells, and every cell keeps one contract:
//!
//! 1. it runs with the progress watchdog armed, so a wedge surfaces as a
//!    structured [`StallDiagnosis`], never a hang;
//! 2. the completed run passes its mode's check (below);
//! 3. when the machine tracks values, it passes the DRF ⇒ SC oracle that
//!    `lrc-check` runs at every terminal state, `Machine::terminal_failure`:
//!    no liveness residue, and final memory equal to the reference
//!    sequentially consistent execution replayed over the observed lock
//!    grant order. The premise of that implication is *checked*, not
//!    assumed: such machines run with the happens-before race detector
//!    armed, and values are compared only once the detector certifies the
//!    run race-free;
//! 4. it runs again and must reproduce bit-identical statistics, race
//!    reports included: the whole simulation is a pure function of the
//!    cell.
//!
//! The modes exclude each other:
//!
//! - the default **fault grid**: link-fault rate × protocol × seed over
//!   seeded, generated DRF programs, with the link layer's
//!   NACK/retry/timeout machinery recovering every injected fault; a
//!   rate-0 cell must inject nothing. An *unrecoverable* stage follows:
//!   it drops messages with retries disabled and requires a structured
//!   diagnosis naming the abandoned deliveries, not silent corruption;
//! - `--capacity-sweep`: NI queue depth × write-notice budget × protocol
//!   × seed, fault-free. Backpressure and the overflow fallback may slow a
//!   cell, never stop it, and some cell must see real pressure (NACKs,
//!   rejects or overflows);
//! - `--races`: the application suite under every protocol, detector
//!   armed. The five DRF generators must come back clean; mp3d,
//!   locusroute and the planted `racy` micro workload must be flagged;
//! - `--availability`: crash rate (the fraction of nodes killed, at seeded
//!   early-run cycles) × protocol × seed, lease-based detection armed.
//!   Survivors must finish and the typed crash counters must match the
//!   plan. Dirty lines can die with their owners, so only the rate-0
//!   control cells, whose detector must stay silent, verify values.
//!
//! ```text
//! lrc-soak [--smoke] [--capacity-sweep | --races | --availability]
//!          [--procs N] [--seeds N] [--phases N] [--rates R1,R2,...]
//!          [--watchdog CYCLES] [--checkpoint-dir DIR | --resume DIR] [--quiet]
//! lrc-soak --replay FILE [--quiet]
//! ```
//!
//! `--smoke` is the CI profile: tiny programs, one seed, all four
//! protocols. `--rates` sets the fault grid's link-fault rates or the
//! availability sweep's crash rates. A flag that would be silently lost is
//! a usage error: a second mode, one the chosen mode does not read
//! (`--rates` under `--capacity-sweep`; `--rates`, `--seeds` and `--phases`
//! under `--races`), or any sweep flag beside `--replay`. Exit status is 0
//! when every cell verified, 1 on a failed cell, 2 on a usage error.
//!
//! Every mode is **crash-resumable**: `--checkpoint-dir DIR` journals each
//! completed cell (atomically, after its verdict) beside a `sweep.json`
//! manifest naming the mode and its parameters, and `--resume DIR` replays
//! journaled cells without rerunning them. A sweep killed at any instant
//! and resumed prints and exits exactly as an uninterrupted one; resuming
//! under another mode or other parameters is a fatal mismatch. A wedged
//! soak-program cell dumps the stalled machine's snapshot next to the
//! journal, with ready-to-paste `--replay` and `--resume` commands in its
//! report; `--replay FILE` restores such a dump and reproduces the stall.

#![forbid(unsafe_code)]

use lrc_core::{
    CrashPlan, FaultPlan, FaultRates, Machine, MachineSnapshot, MsgClass, NodeSet, StallDiagnosis,
};
use lrc_json::{json_struct, Ctx, Dec, DecodeError, FromJson, ToJson, Value, Wire};
use lrc_sim::{MachineConfig, MachineStats, Op, Protocol, ResourceLimits, Rng, Script, Workload};
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
/// Most phases a soak program may have (`--phases`, and a replayed dump).
const MAX_PHASES: usize = 1_000;
/// Most critical sections per phase a replayed dump may ask for (the
/// profiles use 4 and 8).
const MAX_CSECS: usize = 8;

/// The parameters of a generated soak program. They rebuild a cell's
/// workload for value verification, and travel in its wedge dump.
#[derive(Clone, Copy)]
struct SoakParams {
    seed: u64,
    phases: usize,
    csecs: usize,
}

json_struct!(SoakParams { seed: Dec, phases, csecs });

impl SoakParams {
    /// The seeded, reproducible DRF program for a machine with `cfg`:
    /// barrier-separated phases of lock-protected shared-line critical
    /// sections interleaved with private accesses and computes.
    fn script(self, cfg: &MachineConfig) -> Script {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x50a4));
        let line = |l: u64, word: u64| l * cfg.line_size as u64 + word * cfg.word_size as u64;
        let words = (cfg.line_size / cfg.word_size) as u64;
        let mut streams: Vec<Vec<Op>> = Vec::with_capacity(cfg.num_procs);
        for p in 0..cfg.num_procs {
            let private = PRIVATE_BASE + 8 * p as u64;
            let mut ops = Vec::new();
            for _ in 0..self.phases {
                for _ in 0..self.csecs {
                    // Private work between critical sections.
                    match rng.below(3) {
                        0 => ops.push(Op::Compute(1 + rng.below(20) as u32)),
                        1 => ops.push(Op::Read(line(private + rng.below(8), 0))),
                        _ => ops.push(Op::Write(line(private + rng.below(8), 0))),
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
}

/// A cell's machine before its mode's options: watchdog armed, cycles capped.
fn machine(cfg: &MachineConfig, proto: Protocol, watchdog: u64) -> Machine {
    Machine::new(cfg.clone(), proto).with_watchdog(watchdog).with_max_cycles(50_000_000_000)
}

/// [`machine`] with value tracking and the race detector, so
/// `Machine::terminal_failure`'s DRF ⇒ SC comparison rests on a checked
/// verdict instead of the generator's promise.
fn verified(cfg: &MachineConfig, proto: Protocol, watchdog: u64) -> Machine {
    machine(cfg, proto, watchdog).with_value_tracking().with_race_detection()
}

/// What a cell runs.
enum Load<'a> {
    /// A generated soak program, built for the machine's config.
    Soak(SoakParams),
    /// Any other workload, built fresh for each run.
    App(Box<dyn Fn() -> Box<dyn Workload> + 'a>),
}

/// A passing cell's report line after its tag, and the two totals it adds
/// to the sweep's (which two is the mode's choice).
type Pass = (String, [u64; 2]);

/// A mode's check of a completed first run.
type Check<'a> = Box<dyn Fn(&MachineStats) -> Result<Pass, String> + 'a>;

/// One sweep cell.
struct Cell<'a> {
    /// The journal key.
    key: String,
    /// What the cell's report line shows after `  ok ` or `FAIL `.
    tag: String,
    /// The machine, built fresh for each run.
    machine: Box<dyn Fn() -> Machine + 'a>,
    load: Load<'a>,
    check: Check<'a>,
}

/// How a cell failed.
enum Failure {
    /// A check failed: the mode's, the DRF ⇒ SC oracle, or reproduction.
    Failed(String),
    /// The first run wedged; the machine rides along to be dumped.
    Wedged(Box<StallDiagnosis>, Box<Machine>),
}

impl Cell<'_> {
    /// A fresh machine and workload for one run.
    fn fresh(&self) -> (Machine, Box<dyn Workload>) {
        let m = (self.machine)();
        let w: Box<dyn Workload> = match &self.load {
            Load::Soak(p) => Box::new(p.script(m.config())),
            Load::App(build) => build(),
        };
        (m, w)
    }

    /// The cell contract: run, the mode's check, value verification when
    /// the machine tracks values, and a rerun that must reproduce the first
    /// run's statistics.
    fn run(&self) -> Result<Pass, Failure> {
        let (m, w) = self.fresh();
        let (first, m) = m.try_run_wedge(w).map_err(|(diag, m)| Failure::Wedged(diag, m))?;
        let pass = (self.check)(&first.stats).map_err(Failure::Failed)?;
        if let (Load::Soak(p), true) = (&self.load, m.tracks_values()) {
            if let Some(f) = m.terminal_failure(&p.script(m.config())) {
                return Err(Failure::Failed(f.to_string()));
            }
        }
        let (m, w) = self.fresh();
        match m.try_run(w) {
            Ok(second) if second.stats == first.stats => Ok(pass),
            Ok(_) => Err(Failure::Failed("rerun diverged from the first run's statistics".into())),
            Err(diag) => {
                let e = format!("rerun wedged where the first run completed: {diag}");
                Err(Failure::Failed(e))
            }
        }
    }

    /// Run the cell and render its journal record. A wedged soak cell's
    /// machine is dumped for `--replay`.
    fn record(&self, dumps: &Dumps) -> CellRecord {
        let (line, [injected, retries]) = match self.run() {
            Ok(pass) => pass,
            Err(Failure::Failed(e)) => {
                return CellRecord::fail(format!("FAIL {}: {e}\n", self.tag))
            }
            Err(Failure::Wedged(diag, wedged)) => {
                let mut line = format!("FAIL {}: wedged: {diag}\n", self.tag);
                if let Load::Soak(p) = self.load {
                    line += &dump_wedge(&dumps.dir, &self.key, &wedged, p);
                    if let Some(cmd) = &dumps.resume {
                        line += &format!("      resume sweep: {cmd}\n");
                    }
                }
                return CellRecord::fail(line);
            }
        };
        CellRecord { ok: true, line: format!("  ok {}  {line}\n", self.tag), injected, retries }
    }
}

/// Every `(rate, protocol, seed)` of a sweep over rates, in sweep order.
fn rate_grid(s: &Manifest) -> impl Iterator<Item = (f64, Protocol, u64)> + '_ {
    s.rates.iter().flat_map(move |&rate| {
        let seeds = move |proto| (1..=s.seeds).map(move |seed| (rate, proto, seed));
        Protocol::ALL.into_iter().flat_map(seeds)
    })
}

/// The fault grid: link-fault rate × protocol × seed. A cell's totals are
/// the faults injected and the retries.
fn fault_cells<'a>(s: &'a Manifest, cfg: &'a MachineConfig) -> Vec<Cell<'a>> {
    let cell = |(rate, proto, seed): (f64, Protocol, u64)| Cell {
        key: format!("rate{rate}-{}-seed{seed}", proto.name()),
        tag: format!("{proto:<8} rate={rate:<7} seed={seed}"),
        machine: Box::new(move || {
            verified(cfg, proto, s.watchdog).with_fault_plan(FaultPlan::uniform(rate, seed))
        }),
        load: Load::Soak(s.params(seed)),
        check: Box::new(move |st| {
            let f = &st.faults;
            if rate == 0.0 && !f.is_zero() {
                return Err(format!("faults injected at rate 0: {f:?}"));
            }
            let line = format!(
                "{:>10} cycles  {:>7} refs  {:>4} faults  {:>4} retries",
                st.total_cycles,
                st.total_refs(),
                f.injected(),
                f.retries,
            );
            Ok((line, [f.injected(), f.retries]))
        }),
    };
    rate_grid(s).map(cell).collect()
}

/// The finite-resource sweep: NI queue depth (which also bounds directory
/// request slots) × write-notice budget × protocol × seed, fault-free. A
/// cell's first total is its pressure events.
fn capacity_cells<'a>(s: &'a Manifest, base: &MachineConfig, smoke: bool) -> Vec<Cell<'a>> {
    let depths: &[Option<usize>] = if smoke { &[None, Some(2)] } else { &[None, Some(8), Some(2)] };
    let budgets: &[Option<usize>] =
        if smoke { &[None, Some(1)] } else { &[None, Some(16), Some(1)] };
    let fmt = |c: Option<usize>| c.map_or("inf".to_string(), |v| v.to_string());
    let mut cells = Vec::new();
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
            for proto in Protocol::ALL {
                for seed in 1..=s.seeds {
                    let (d, b, name, cfg) = (fmt(depth), fmt(budget), proto.name(), cfg.clone());
                    cells.push(Cell {
                        key: format!("depth{d}-wn{b}-{name}-seed{seed}"),
                        tag: format!("{name:<8} depth={d:<3} wn={b:<3} seed={seed}"),
                        machine: Box::new(move || verified(&cfg, proto, s.watchdog)),
                        load: Load::Soak(s.params(seed)),
                        check: Box::new(|st| {
                            let r = &st.resources;
                            let line = format!(
                                "{:>10} cycles  {:>7} refs  {:>4} nacks  {:>4} rejects  \
                                 {:>3} overflows",
                                st.total_cycles,
                                st.total_refs(),
                                r.busy_nacks,
                                r.ni_rejects,
                                r.wn_overflows,
                            );
                            Ok((line, [r.busy_nacks + r.ni_rejects + r.wn_overflows, 0]))
                        }),
                    });
                }
            }
        }
    }
    cells
}

/// The race sweep: the application suite plus the planted positive
/// control under every protocol, detector armed. mp3d and locusroute are
/// racy *by construction* (the paper names them as the two programs that
/// do not obey the release-consistency model), so they double as organic
/// positive controls beside the planted one.
fn race_cells<'a>(s: &'a Manifest, cfg: &'a MachineConfig, smoke: bool) -> Vec<Cell<'a>> {
    use lrc_workloads::{racy, Scale, WorkloadKind};
    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    let procs = cfg.num_procs;
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL.into_iter().map(Some).chain([None]) {
        let name = kind.map_or("racy", |k| k.name());
        let expected_racy =
            matches!(kind, None | Some(WorkloadKind::Mp3d | WorkloadKind::Locusroute));
        for proto in Protocol::ALL {
            cells.push(Cell {
                key: format!("race-{name}-{}", proto.name()),
                tag: format!("{:<10} {:<8}", name, proto.name()),
                machine: Box::new(move || machine(cfg, proto, s.watchdog).with_race_detection()),
                load: Load::App(Box::new(move || match kind {
                    Some(k) => k.build(procs, scale),
                    None => Box::new(racy::build(procs, 3)),
                })),
                check: Box::new(move |st| {
                    let races = &st.races;
                    if expected_racy && races.race_free() {
                        return Err("known-racy program came back clean".to_string());
                    }
                    if !expected_racy && !races.race_free() {
                        let first = races.reports.first();
                        let first = first.map_or(String::new(), |r| format!(" — {}", r.render()));
                        let n = races.races_found;
                        return Err(format!("{n} race(s) in a DRF generator{first}"));
                    }
                    let line = format!(
                        "{:>10} cycles  {:>9} words monitored  {:>3} race(s){}",
                        st.total_cycles,
                        races.words_monitored,
                        races.races_found,
                        if expected_racy { "  (expected racy)" } else { "" },
                    );
                    Ok((line, [0, 0]))
                }),
            });
        }
    }
    cells
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

/// The availability check of a completed run: with nobody on the kill
/// list, the armed detector ran and stayed silent; otherwise exactly the
/// victims died and were suspected, and only the survivors finished.
fn crash_check(st: &MachineStats, victims: &[usize]) -> Result<(), String> {
    let c = &st.crashes;
    if victims.is_empty() {
        if c.heartbeats_sent == 0 {
            return Err(format!("detection was never armed: {c:?}"));
        }
        if c.crashes != 0 || c.suspicions != 0 {
            return Err(format!("the armed detector perturbed a healthy run: {c:?}"));
        }
        return Ok(());
    }
    if c.crashes != victims.len() as u64 {
        let n = victims.len();
        return Err(format!("{n} node(s) on the kill list but {} died: {c:?}", c.crashes));
    }
    if c.suspicions == 0 {
        return Err(format!("nobody ever suspected the dead node(s): {c:?}"));
    }
    for (p, ps) in st.procs.iter().enumerate() {
        if victims.contains(&p) {
            if ps.finish_time != 0 {
                return Err(format!("dead node {p} finished its program"));
            }
        } else if ps.finish_time == 0 {
            return Err(format!("surviving node {p} never finished"));
        }
    }
    Ok(())
}

/// The availability sweep: crash rate × protocol × seed. Only the rate-0
/// control cells track values. A cell's totals are the nodes killed and
/// the dirty lines lost.
fn availability_cells<'a>(s: &'a Manifest, cfg: &'a MachineConfig) -> Vec<Cell<'a>> {
    let cell = |(rate, proto, seed): (f64, Protocol, u64)| {
        let plan = avail_plan(rate, cfg.num_procs, seed);
        let victims: Vec<usize> = plan.crash.iter().flat_map(|c| &c.victims).map(|v| v.0).collect();
        let control = victims.is_empty();
        Cell {
            key: format!("avail{rate}-{}-seed{seed}", proto.name()),
            tag: format!("{proto:<8} crash={rate:<5} seed={seed}"),
            machine: Box::new(move || {
                let m = if control { verified } else { machine };
                m(cfg, proto, s.watchdog).with_fault_plan(plan.clone())
            }),
            load: Load::Soak(s.params(seed)),
            check: Box::new(move |st| {
                crash_check(st, &victims)?;
                let c = &st.crashes;
                let survivors = st.procs.iter().filter(|ps| ps.finish_time > 0).count();
                let line = format!(
                    "{:>10} cycles  {survivors}/{} finished  {:>2} killed  \
                     {:>3} dirty lost  {:>3} reclaimed",
                    st.total_cycles,
                    st.procs.len(),
                    c.crashes,
                    c.dirty_lines_lost,
                    c.clean_lines_reclaimed,
                );
                Ok((line, [c.crashes, c.dirty_lines_lost]))
            }),
        }
    };
    rate_grid(s).map(cell).collect()
}

/// The fault grid's unrecoverable stage: drop messages with retries
/// disabled, and require the failure mode to be a structured diagnosis
/// that names the abandoned deliveries — never a hang, never silent
/// completion with wrong values. The wedged machine is dumped into
/// `dump_dir`, demonstrating the stall artifact chain end to end.
fn unrecoverable_stage(s: &Manifest, cfg: &MachineConfig, dump_dir: &Path) -> CellRecord {
    let fail = |e: String| CellRecord::fail(format!("FAIL unrecoverable stage: {e}\n"));
    let mut lossy = FaultPlan::off(0);
    lossy.rates = [FaultRates { drop: 0.25, ..FaultRates::default() }; MsgClass::COUNT];
    lossy.max_retries = 0;
    for seed in 1..=5u64 {
        let (p, plan) = (s.params(seed), FaultPlan { seed, ..lossy.clone() });
        let m = verified(cfg, Protocol::Lrc, 2_000_000).with_fault_plan(plan);
        // A seed that completes got lucky; try the next.
        let Err((diag, wedged)) = m.try_run_wedge(Box::new(p.script(cfg))) else { continue };
        let Some(example) = diag.abandoned_msgs.first() else {
            return fail(format!("wedge without abandoned deliveries in the diagnosis: {diag}"));
        };
        let reason = match diag.reason {
            lrc_core::StallReason::Deadlock => "deadlock".to_string(),
            ref r => format!("{r:?}"),
        };
        let line = format!(
            "  unrecoverable stage (seed {seed}): {reason} — {} abandoned deliveries, \
             e.g. {example}\n{}",
            diag.abandoned_msgs.len(),
            dump_wedge(dump_dir, &format!("unrecoverable-seed{seed}"), &wedged, p)
        );
        return CellRecord { ok: true, line, injected: 0, retries: 0 };
    }
    fail("25% loss with retries disabled never wedged in 5 seeds".into())
}

/// One finished cell as the sweep journal records it: the verdict, the
/// exact stderr block the cell emitted, and the two totals it contributed
/// (named for the fault grid's) — everything a `--resume` needs to
/// reconstitute the cell without rerunning it, byte-identically.
struct CellRecord {
    ok: bool,
    line: String,
    injected: u64,
    retries: u64,
}

impl CellRecord {
    fn fail(line: String) -> CellRecord {
        CellRecord { ok: false, line, injected: 0, retries: 0 }
    }
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

/// The sweep modes.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Faults,
    Capacity,
    Races,
    Availability,
}

json_struct!(enum Mode as str {
    Faults = "faults",
    Capacity = "capacity",
    Races = "races",
    Availability = "availability",
});

impl Mode {
    /// The command that runs the mode, as its report lines name it.
    fn command(self) -> &'static str {
        match self {
            Mode::Faults => "lrc-soak",
            Mode::Capacity => "lrc-soak --capacity-sweep",
            Mode::Races => "lrc-soak --races",
            Mode::Availability => "lrc-soak --availability",
        }
    }
}

/// The sweep's shape, pinned as the journal's `sweep.json`: a `--resume`
/// under different parameters would silently skip cells that mean
/// something else. `rates` is empty in the modes without a rate axis, and
/// `crash` holds the availability sweep's detector settings.
struct Manifest {
    mode: Mode,
    procs: usize,
    seeds: u64,
    phases: usize,
    csecs: usize,
    watchdog: u64,
    rates: Vec<f64>,
    crash: Option<CrashShape>,
}

json_struct!(Manifest { mode, procs, seeds, phases, csecs, watchdog: Dec, rates, crash });

impl Manifest {
    fn params(&self, seed: u64) -> SoakParams {
        SoakParams { seed, phases: self.phases, csecs: self.csecs }
    }
}

struct CrashShape {
    heartbeat_every: u64,
    lease_timeout: u64,
}

json_struct!(CrashShape { heartbeat_every: Dec, lease_timeout: Dec });

/// Write `text` to `dir/name` atomically (tmp + rename): a kill at any
/// instant leaves the whole file or none.
fn write_atomic(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, dir.join(name)))
}

/// The crash-resumable sweep journal: one marker file per completed cell,
/// written atomically *after* the cell's verdict. A torn or unparseable
/// marker is treated as absent — the cell simply reruns.
struct Journal {
    dir: PathBuf,
}

impl Journal {
    fn open(dir: &str) -> Journal {
        fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create checkpoint dir {dir}: {e}")));
        Journal { dir: PathBuf::from(dir) }
    }

    fn load(&self, key: &str) -> Option<CellRecord> {
        let text = fs::read_to_string(self.dir.join(format!("cell-{key}.json"))).ok()?;
        CellRecord::from_json(&lrc_json::parse(&text).ok()?)
    }

    fn store(&self, key: &str, rec: &CellRecord) {
        let name = format!("cell-{key}.json");
        if let Err(e) = write_atomic(&self.dir, &name, &rec.to_json().pretty()) {
            eprintln!("lrc-soak: warning: checkpoint marker for {key} not written: {e}");
        }
    }

    /// Pin the sweep shape the journal was created for; a mismatch is fatal.
    fn check_manifest(&self, manifest: &Manifest) {
        let want = manifest.to_json().pretty();
        match fs::read_to_string(self.dir.join("sweep.json")) {
            Ok(have) if have == want => {}
            Ok(_) => die(&format!(
                "checkpoint dir {} was written by a sweep with different \
                 parameters; pass the original flags or use a fresh dir",
                self.dir.display()
            )),
            Err(_) => {
                if let Err(e) = write_atomic(&self.dir, "sweep.json", &want) {
                    eprintln!("lrc-soak: warning: sweep manifest not written: {e}");
                }
            }
        }
    }
}

/// Where wedge dumps go, and the command that resumes a journaled sweep.
struct Dumps {
    dir: PathBuf,
    resume: Option<String>,
}

/// One journaled unit of a sweep, a cell or the unrecoverable stage: its
/// key and what produces its record.
type Entry<'a> = (String, Box<dyn FnOnce() -> CellRecord + 'a>);

/// Settle every entry in order. With `resume`, a journaled entry replays
/// its recorded verdict and exact output without rerunning; any other
/// runs, then persists its record. So a sweep killed midway and resumed
/// prints and exits exactly as an uninterrupted one, and the sweep-level
/// checks read the same totals either way. Returns the failure count and
/// the passing entries' summed totals.
fn settle<'a>(
    entries: impl Iterator<Item = Entry<'a>>,
    journal: Option<&Journal>,
    resume: bool,
    quiet: bool,
) -> (usize, [u64; 2]) {
    let (mut failures, mut totals) = (0, [0u64; 2]);
    for (key, run) in entries {
        let resumed = journal.filter(|_| resume).and_then(|j| j.load(&key));
        let fresh = resumed.is_none();
        let rec = resumed.unwrap_or_else(run);
        if rec.ok {
            // Saturating: the totals come from journal files.
            totals[0] = totals[0].saturating_add(rec.injected);
            totals[1] = totals[1].saturating_add(rec.retries);
            if !quiet {
                eprint!("{}", rec.line);
            }
        } else {
            failures += 1;
            eprint!("{}", rec.line);
        }
        if let Some(j) = journal.filter(|_| fresh) {
            j.store(&key, &rec);
        }
    }
    (failures, totals)
}

/// The envelope a wedged machine's snapshot is dumped in: the soak-program
/// parameters that rebuild its workload, beside the machine itself.
struct WedgeDump {
    kind: DumpKind,
    script: SoakParams,
    snapshot: Value,
}

enum DumpKind {
    Wedge,
}

json_struct!(enum DumpKind as str { Wedge = "lrc-soak-wedge" });
json_struct!(WedgeDump { kind, script, snapshot });

impl WedgeDump {
    /// Decode a dump, and check what a replay sizes from it before the
    /// snapshot's own checks run: the script's phase and critical-section
    /// counts, and the embedded machine configuration. An error names the
    /// field.
    fn parse(text: &str) -> Result<(WedgeDump, MachineConfig), String> {
        let v = lrc_json::parse(text).map_err(|e| e.to_string())?;
        let dump = WedgeDump::decode(&v, Ctx::default()).map_err(|e| e.to_string())?;
        let SoakParams { phases, csecs, .. } = dump.script;
        if !(1..=MAX_PHASES).contains(&phases) {
            return Err(format!("script.phases: {phases} outside 1..={MAX_PHASES}"));
        }
        if !(1..=MAX_CSECS).contains(&csecs) {
            return Err(format!("script.csecs: {csecs} outside 1..={MAX_CSECS}"));
        }
        let cfg = MachineConfig::decode(&dump.snapshot["config"], Ctx::default())
            .map_err(|e| e.in_field("config").in_field("snapshot").to_string())?;
        cfg.validate().map_err(|e| format!("snapshot.config: {e}"))?;
        if cfg.num_procs > NodeSet::CAPACITY {
            let (n, cap) = (cfg.num_procs, NodeSet::CAPACITY);
            return Err(format!("snapshot.config.num_procs: {n} exceeds {cap}"));
        }
        Ok((dump, cfg))
    }
}

/// Dump a wedged machine's snapshot into `dir` as `wedge-<key>.json`, so
/// `lrc-soak --replay` can restore the exact pre-stall state, and return
/// the report lines that point at it.
fn dump_wedge(dir: &Path, key: &str, m: &Machine, script: SoakParams) -> String {
    let name = format!("wedge-{key}.json");
    let write = || -> Result<(), String> {
        let snap = m.snapshot().map_err(|e| format!("snapshot refused: {e}"))?;
        let snapshot = lrc_json::parse(&snap.to_json_string())
            .map_err(|e| format!("snapshot reparse: {e}"))?;
        let dump = WedgeDump { kind: DumpKind::Wedge, script, snapshot };
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        write_atomic(dir, &name, &dump.to_json().pretty()).map_err(|e| e.to_string())
    };
    match write() {
        Ok(()) => format!(
            "      stall snapshot: {p}\n      replay: lrc-soak --replay {p}\n",
            p = dir.join(&name).display()
        ),
        Err(e) => format!("      (stall snapshot not written: {e})\n"),
    }
}

/// `--replay FILE`: restore a wedge dump and drive it forward. Exit 0 when
/// the stall reproduces (the dump captured a genuinely wedged state), 1
/// when the run completes instead, 2 when the dump cannot be restored.
fn replay(file: &str, quiet: bool) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("lrc-soak --replay: {msg}");
        std::process::exit(2)
    };
    let text = fs::read_to_string(file).unwrap_or_else(|e| fail(format!("read {file}: {e}")));
    let (dump, cfg) = WedgeDump::parse(&text).unwrap_or_else(|e| fail(format!("{file}: {e}")));
    let snap = MachineSnapshot::parse(&dump.snapshot.pretty())
        .unwrap_or_else(|e| fail(format!("embedded snapshot: {e}")));
    let mut m = snap
        .restore(Box::new(dump.script.script(&cfg)))
        .unwrap_or_else(|e| fail(format!("restore: {e}")));
    if !quiet {
        eprintln!(
            "lrc-soak --replay: restored {file} at cycle {} ({} procs, seed {})",
            snap.cycle(),
            cfg.num_procs,
            dump.script.seed
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

/// A numeric flag value in `range`, or a usage error naming the flag.
fn number<T, R>(value: &str, flag: &str, range: R) -> T
where
    T: std::str::FromStr + PartialOrd,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    lrc_exp::flag_number(flag, value, range).unwrap_or_else(|e| die(&e))
}

fn main() {
    let args = lrc_exp::utf8_args().unwrap_or_else(|e| die(&e));
    let mut smoke = false;
    let mut quiet = false;
    let mut procs: Option<usize> = None;
    let mut seeds: Option<u64> = None;
    let mut phases: Option<usize> = None;
    let mut rates: Option<Vec<f64>> = None;
    let mut watchdog = 10_000_000u64;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut replay_file: Option<String> = None;
    // Every flag given, and the mode flags among them.
    let (mut given, mut modes): (Vec<&str>, Vec<&str>) = (Vec::new(), Vec::new());

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        let flag = args[i].as_str();
        match flag {
            "--smoke" => smoke = true,
            "--capacity-sweep" | "--races" | "--availability" => modes.push(flag),
            "--quiet" => quiet = true,
            "--procs" => procs = Some(number(&value(&mut i, flag), flag, 1..=NodeSet::CAPACITY)),
            "--seeds" => seeds = Some(number(&value(&mut i, flag), flag, 1..)),
            "--phases" => phases = Some(number(&value(&mut i, flag), flag, 1..=MAX_PHASES)),
            // A link-fault rate or a crash fraction: a probability either way.
            "--rates" => {
                let v = value(&mut i, flag);
                rates = Some(v.split(',').map(|r| number(r, flag, 0.0..=1.0)).collect());
            }
            "--watchdog" => watchdog = number(&value(&mut i, flag), flag, 0..),
            "--checkpoint-dir" | "--resume" => {
                let v = value(&mut i, flag);
                if checkpoint_dir.as_ref().is_some_and(|d| *d != v) {
                    die(&format!("{flag} conflicts with an earlier --resume/--checkpoint-dir"));
                }
                checkpoint_dir = Some(v);
                resume |= flag == "--resume";
            }
            "--replay" => replay_file = Some(value(&mut i, flag)),
            other => die(&format!(
                "unknown argument '{other}' \
                 (usage: lrc-soak [--smoke] [--capacity-sweep | --races | --availability] \
                 [--procs N] [--seeds N] [--phases N] [--rates R1,R2,...] [--watchdog CYCLES] \
                 [--checkpoint-dir DIR | --resume DIR] [--quiet]; \
                 lrc-soak --replay FILE [--quiet])"
            )),
        }
        given.push(flag);
        i += 1;
    }

    // A flag that would be silently lost is a usage error: one beside
    // `--replay`, a second mode, or one the chosen mode does not read.
    if let Some(file) = replay_file {
        if let Some(f) = given.iter().find(|&&f| f != "--replay" && f != "--quiet") {
            die(&format!("--replay conflicts with {f}: a replay runs no sweep"));
        }
        replay(&file, quiet);
    }
    if let Some(f) = modes.iter().find(|&&f| f != modes[0]) {
        die(&format!("{f} conflicts with {}: the sweep modes exclude each other", modes[0]));
    }
    let (mode, unread): (Mode, &[&str]) = match modes.first().copied() {
        Some("--capacity-sweep") => (Mode::Capacity, &["--rates"]),
        Some("--races") => (Mode::Races, &["--rates", "--seeds", "--phases"]),
        Some("--availability") => (Mode::Availability, &[]),
        _ => (Mode::Faults, &[]),
    };
    if let Some(f) = given.iter().find(|f| unread.contains(f)) {
        die(&format!("{f} does not apply to {}", modes[0]));
    }
    let procs = procs.unwrap_or(if smoke { 4 } else { 8 });
    let manifest = Manifest {
        mode,
        procs,
        seeds: seeds.unwrap_or(if smoke { 1 } else { 3 }),
        phases: phases.unwrap_or(if smoke { 3 } else { 6 }),
        csecs: if smoke { 4 } else { 8 },
        watchdog,
        // The rate axis: link-fault rates in the fault grid, crash rates
        // (the fraction of nodes killed) in the availability sweep.
        rates: rates.unwrap_or(match (mode, smoke) {
            (Mode::Availability, true) => vec![0.0, 0.25],
            (Mode::Availability, false) => vec![0.0, 0.125, 0.25],
            (Mode::Faults, true) => vec![0.0, 1e-3],
            (Mode::Faults, false) => vec![0.0, 1e-4, 1e-3],
            (Mode::Capacity | Mode::Races, _) => Vec::new(),
        }),
        crash: (mode == Mode::Availability)
            .then_some(CrashShape { heartbeat_every: AVAIL_HEARTBEAT, lease_timeout: AVAIL_LEASE }),
    };
    let s = &manifest;
    let cfg = MachineConfig::paper_default(procs);

    let journal = checkpoint_dir.as_deref().map(Journal::open);
    if let Some(j) = &journal {
        j.check_manifest(s);
    }
    // Wedge snapshots land next to the journal when one exists, else
    // under results/wedges/ — never loose in the working directory. The
    // resume command is this one, reading the journal it writes.
    let dumps = Dumps {
        dir: journal.as_ref().map_or_else(|| PathBuf::from("results/wedges"), |j| j.dir.clone()),
        resume: journal.as_ref().map(|_| {
            let resumed: Vec<&str> =
                args.iter().map(|a| if a == "--checkpoint-dir" { "--resume" } else { a }).collect();
            format!("lrc-soak {}", resumed.join(" "))
        }),
    };

    let n = Protocol::ALL.len();
    let (about, cells) = match mode {
        Mode::Faults => {
            let about = format!("{} seed(s), rates {:?}, {n} protocols", s.seeds, s.rates);
            (about, fault_cells(s, &cfg))
        }
        Mode::Capacity => {
            (format!("{} seed(s), {n} protocols", s.seeds), capacity_cells(s, &cfg, smoke))
        }
        Mode::Races => {
            let about = format!("{n} protocols, application suite + positive control");
            (about, race_cells(s, &cfg, smoke))
        }
        Mode::Availability => {
            let about = format!("{} seed(s), crash rates {:?}, {n} protocols", s.seeds, s.rates);
            (about, availability_cells(s, &cfg))
        }
    };
    if !quiet {
        let smoke = if smoke { " --smoke" } else { "" };
        eprintln!("{}{smoke}: {procs} procs, {about}", mode.command());
    }

    let entries = cells.iter().map(|c| -> Entry { (c.key.clone(), Box::new(|| c.record(&dumps))) });
    let stage = (mode == Mode::Faults).then(|| -> Entry {
        ("unrecoverable".to_string(), Box::new(|| unrecoverable_stage(s, &cfg, &dumps.dir)))
    });
    let (mut failures, [a, b]) = settle(entries.chain(stage), journal.as_ref(), resume, quiet);
    if mode == Mode::Capacity && a == 0 {
        failures += 1;
        eprintln!("FAIL capacity sweep: no cell ever NACKed, rejected, or overflowed");
    }
    let ncells = cells.len();
    if failures > 0 {
        eprintln!("lrc-soak: {failures}/{ncells} cells FAILED");
        std::process::exit(1);
    }
    let verdict = match mode {
        Mode::Faults => {
            format!("{a} faults injected, {b} retries, every run value-correct and reproducible")
        }
        Mode::Capacity => format!("{a} pressure events, every run value-correct and reproducible"),
        Mode::Races => {
            "5 DRF generators clean, mp3d/locusroute/racy flagged, every report reproducible".into()
        }
        Mode::Availability => format!(
            "{a} nodes killed, {b} dirty lines lost as typed events, \
             every surviving node completed, every run reproducible"
        ),
    };
    eprintln!("{}: all {ncells} cells verified ({verdict})", mode.command());
}
