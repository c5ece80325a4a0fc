//! One benchmark run of one workload: the end-to-end run (tracing off) and
//! the traced run (per-layer metrics).

use crate::bench::{
    check_iteration, check_root, plain_iteration, setup_once, soak_iteration, soak_reference,
    Bench, Checked, Outcome, SimSpec, SoakReference, CHECK_SCENARIOS,
};
use crate::host::{self, CpuTicks, Pace, PACE_REF_NS};
use crate::stats::{median, tail_percentile};
use crate::trace::{in_span, OpCounts, Probe, SendLog, Tracer, Untraced, SEND_STREAM_CAP};
use crate::{layers, replay};
use lrc_core::Machine;
use lrc_json::{json, Value};
use lrc_sim::{Cycle, FaultStats, ProcStats, RaceStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups in the block that follows each iteration (fewer when they would
/// pass [`SETUP_BLOCK`]): `setup_s` is the median of every block's set-ups.
/// A set-up takes microseconds and its speed flips with the host's within
/// a fraction of a second, so only set-ups spread over the whole run give
/// a median that repeats.
pub const SETUP_REPS: usize = 1001;
/// Host time one block of set-ups may take.
pub const SETUP_BLOCK: Duration = Duration::from_millis(20);
/// `run_until` slices per traced simulation.
pub const TRACE_SLICES: u64 = 64;

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub bench: Bench,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Iterations attempted (reference runs included).
    pub attempted: u64,
    /// Iterations that stalled, panicked or failed their output check.
    pub failed: u64,
    /// The failures, in order.
    pub errors: Vec<String>,
    /// Metric values by name, in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance and detail that does not fit a metric.
    pub info: Value,
    /// The traced run's spans.
    pub spans: Option<Value>,
}

impl Report {
    /// An empty report for one run of `bench`.
    pub fn new(bench: Bench, seed: u64, traced: bool) -> Self {
        Report {
            bench,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            info: Value::Null,
            spans: None,
        }
    }

    /// Iterations that failed ÷ iterations attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when every iteration passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Run one iteration, counting it; a failed check or a panic counts as
    /// a failed iteration instead of ending the run.
    pub fn attempt<T>(&mut self, f: impl FnOnce() -> Checked<T>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(t)) => return Some(t),
            Ok(Err(e)) => e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".into());
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        self.errors.push(err);
        None
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            layers::unit_of(name).is_some(),
            "unregistered metric {name}"
        );
        self.metrics.push((name, value));
    }
}

/// The reference every measured iteration is checked against.
enum Reference {
    Sim(Outcome),
    Soak(Box<SoakReference>),
    Check(Outcome),
}

/// The untraced reference iteration (the warm-up) of `bench`.
fn reference(rep: &mut Report, bench: Bench, seed: u64) -> Option<Reference> {
    match bench {
        Bench::Mp3dLazy | Bench::GaussSc => {
            let spec = bench.sim().expect("simulation workload");
            rep.attempt(|| plain_iteration(&mut Untraced, &spec, seed, None))
                .map(Reference::Sim)
        }
        Bench::SoakFft => {
            let spec = bench.sim().expect("simulation workload");
            rep.attempt(|| soak_reference(&spec, seed))
                .map(|r| Reference::Soak(Box::new(r)))
        }
        Bench::CheckLazy => rep
            .attempt(|| check_iteration(&mut Untraced, None))
            .map(Reference::Check),
    }
}

/// One untraced or traced iteration checked against `r`.
fn iteration<P: Probe>(
    p: &mut P,
    bench: Bench,
    seed: u64,
    r: &Reference,
) -> Checked<(Outcome, usize)> {
    let spec = bench.sim();
    match r {
        Reference::Sim(o) => {
            plain_iteration(p, &spec.expect("simulation"), seed, Some(&o.stats[0])).map(|o| (o, 0))
        }
        Reference::Soak(s) => soak_iteration(p, &spec.expect("simulation"), seed, s, None),
        Reference::Check(o) => check_iteration(p, Some(o)).map(|o| (o, 0)),
    }
}

fn sim_cycles(r: &Reference) -> u64 {
    match r {
        Reference::Sim(o) | Reference::Check(o) => o.sim_cycles(),
        Reference::Soak(s) => s.stats.total_cycles,
    }
}

/// Keep starting iterations while the next one, at the median length of
/// the attempts so far, still ends inside `budget` (always at least one).
fn keep_going(start: Instant, budget: Duration, lengths: &[f64]) -> bool {
    lengths.is_empty() || start.elapsed().as_secs_f64() + median(lengths) <= budget.as_secs_f64()
}

/// Host seconds `f` took, with its result.
fn timed<T>(lengths: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    lengths.push(t0.elapsed().as_secs_f64());
    out
}

fn provenance(bench: Bench, seed: u64, traced: bool) -> Value {
    let (params, config) = bench.definition();
    json!({
        "workload": bench.name(),
        "seed": seed,
        "trace": traced,
        "git_commit": lrc_exp::manifest::git_commit(),
        "host_cpus": host::host_cpus(),
        "definition_hash": lrc_exp::config_hash("perfbench", &params, &config),
        "why": bench.why(),
    })
}

/// The end-to-end run: a checked reference iteration (the warm-up), then
/// checked iterations for `budget`, each followed by a [`Pace`] probe and a
/// block of timed set-ups. The probe also runs once before the first
/// iteration and, on `check-lazy`, right before the natural-order block.
/// Every host time is scaled by the [`Pace::factor`] of the probes around
/// it, with the workload's [`Bench::pace_exponents`]; the unscaled medians
/// and samples are printed beside the metrics.
pub fn end_to_end(bench: Bench, seed: u64, budget: Duration) -> Report {
    let mut rep = Report::new(bench, seed, false);
    let ticks = CpuTicks::now();
    let pace = Pace::new();
    let exponents = bench.pace_exponents();
    let Some(reference) = reference(&mut rep, bench, seed) else {
        return finish_unmeasured(rep, ticks);
    };
    if let Reference::Soak(_) = reference {
        // The soak reference is an uninterrupted run, not an iteration:
        // warm the snapshot path once before timing it.
        rep.attempt(|| iteration(&mut Untraced, bench, seed, &reference));
    }
    let mut paces = vec![pace.probe()];
    let start = Instant::now();
    let (mut run_s, mut rates, mut lengths) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_run_s, mut raw_rates) = (Vec::new(), Vec::new());
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut setup_failed = false;
    while keep_going(start, budget, &lengths) {
        let before = paces[paces.len() - 1];
        let mut paced = Paced {
            pace: &pace,
            reading: None,
        };
        let (attempt, after) = timed(&mut lengths, || {
            let a = rep.attempt(|| iteration(&mut paced, bench, seed, &reference));
            let after = pace.probe();
            if !setup_failed {
                let first = raw_setups.len();
                setup_failed = !setup_block(&mut rep, &mut raw_setups, bench, seed);
                let f = Pace::factor(&[after], exponents.setup);
                setups.extend(raw_setups[first..].iter().map(|s| s / f));
            }
            (a, after)
        });
        paces.push(after);
        if let Some((o, _)) = attempt {
            let b = exponents.iteration;
            // A block probed on both sides is scaled by those two readings;
            // the iteration by every reading around and inside it.
            let (run_f, rate_f, probe_s) = match paced.reading {
                Some((mid, secs)) => (
                    Pace::factor(&[before, mid, after], b),
                    Pace::factor(&[mid, after], b),
                    secs,
                ),
                None => {
                    let f = Pace::factor(&[before, after], b);
                    (f, f, 0.0)
                }
            };
            let run = o.run_s - probe_s;
            raw_run_s.push(run);
            raw_rates.push(o.mcycles_per_s());
            run_s.push(run / run_f);
            rates.push(o.mcycles_per_s() * rate_f);
        }
    }
    rep.set("sim_mcycles_per_s", median(&rates));
    rep.set("run_s", median(&run_s));
    rep.set("setup_s", median(&setups));
    let rss = host::peak_rss_mib().map(|m| m - pace.resident_mib);
    rep.set("peak_rss_mib", rss.unwrap_or(0.0));
    rep.set("sim_cycles", sim_cycles(&reference) as f64);
    let tail = tail_percentile(&run_s)
        .map_or(Value::Null, |(p, v)| json!({ "percentile": p, "value": v }));
    rep.info = json!({
        "provenance": provenance(bench, seed, false),
        "iterations": run_s.len(),
        "run_s_tail": tail,
        "run_s_samples": run_s,
        "sim_mcycles_per_s_samples": rates,
        "setup_reps": setups.len(),
        "pace_ref_ns": PACE_REF_NS,
        "pace_exponents": json!({
            "iteration": exponents.iteration,
            "setup": exponents.setup,
        }),
        "pace_ns": median(&paces),
        "pace_ns_samples": paces,
        "pace_resident_mib": pace.resident_mib,
        "unscaled": json!({
            "sim_mcycles_per_s": median(&raw_rates),
            "run_s": median(&raw_run_s),
            "setup_s": median(&raw_setups),
            "run_s_samples": raw_run_s,
            "sim_mcycles_per_s_samples": raw_rates,
        }),
        "fail_ratio": rep.fail_ratio(),
        "host.steal_frac": ticks.steal_frac_until(&CpuTicks::now()),
    });
    rep
}

/// The end-to-end run's probe: observes nothing, but reads the host's
/// speed right before a rate's timed block, and how long the reading took
/// (which the iteration's `run_s` then leaves out).
struct Paced<'a> {
    pace: &'a Pace,
    reading: Option<(f64, f64)>,
}

impl Probe for Paced<'_> {
    fn before_block(&mut self) {
        let t0 = Instant::now();
        let ns = self.pace.probe();
        self.reading = Some((ns, t0.elapsed().as_secs_f64()));
    }
}

/// One block of up to [`SETUP_REPS`] timed set-ups in at most
/// [`SETUP_BLOCK`], appended to `out`. A failed set-up counts once, as a
/// failed attempt, and ends the block; returns whether none failed.
fn setup_block(rep: &mut Report, out: &mut Vec<f64>, bench: Bench, seed: u64) -> bool {
    let (block, first) = (Instant::now(), out.len());
    while out.len() - first < SETUP_REPS && block.elapsed() < SETUP_BLOCK {
        match setup_once(bench, seed) {
            Ok(s) => out.push(s),
            Err(e) => {
                rep.attempt(|| Err::<(), _>(e));
                return false;
            }
        }
    }
    true
}

/// A run whose reference iteration failed: nothing was measured, so every
/// metric reads 0 and the failure is what the report says.
fn finish_unmeasured(mut rep: Report, ticks: CpuTicks) -> Report {
    let names: Vec<&'static str> = if rep.traced {
        layers::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        layers::END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in names {
        rep.set(name, 0.0);
    }
    rep.info = json!({
        "provenance": provenance(rep.bench, rep.seed, rep.traced),
        "fail_ratio": rep.fail_ratio(),
        "host.steal_frac": ticks.steal_frac_until(&CpuTicks::now()),
    });
    rep
}

/// Per-traced-iteration readings, reduced to medians at the end.
#[derive(Default)]
struct TracedSamples {
    untraced_run_s: Vec<f64>,
    untraced_loop_s: Vec<f64>,
    traced_run_s: Vec<f64>,
    slice_p50_ms: Vec<f64>,
    slice_max_ms: Vec<f64>,
    next_op_ns: Vec<f64>,
    capture_s: Vec<f64>,
    encode_s: Vec<f64>,
    parse_s: Vec<f64>,
    restore_s: Vec<f64>,
    states_per_s: Vec<f64>,
    pace_ns: Vec<f64>,
}

/// The traced run: a checked reference iteration, then pairs of one
/// untraced and one traced iteration for `budget`, then the work that
/// follows the iterations (replays through `lrc-mem` and `lrc-mesh`, the
/// layer-off reruns, the checker's per-call timings).
pub fn traced(bench: Bench, seed: u64, budget: Duration) -> Report {
    let mut rep = Report::new(bench, seed, true);
    let ticks = CpuTicks::now();
    let Some(reference) = reference(&mut rep, bench, seed) else {
        return finish_unmeasured(rep, ticks);
    };
    let slice = match &reference {
        Reference::Check(_) => None,
        r => Some((sim_cycles(r) / TRACE_SLICES).max(1) as Cycle),
    };
    let mut tracer = Tracer::new(slice);
    let timer_ns = replay::clock_overhead_ns();
    let pace = Pace::new();
    let mut s = TracedSamples::default();
    let mut last: Option<(Outcome, usize, OpCounts, SendLog)> = None;
    let start = Instant::now();
    let mut lengths = Vec::new();
    while keep_going(start, budget, &lengths) {
        let pair = timed(&mut lengths, || {
            let u = rep.attempt(|| iteration(&mut Untraced, bench, seed, &reference))?;
            tracer.next_iteration();
            // The root span: its self time is what no layer call covers.
            let t = rep.attempt(|| {
                in_span(&mut tracer, "iteration", |tr| {
                    iteration(tr, bench, seed, &reference)
                })
            })?;
            s.pace_ns.push(pace.probe());
            Some((u.0, t))
        });
        let Some((u, (t, bytes))) = pair else {
            continue;
        };
        s.untraced_run_s.push(u.run_s);
        s.untraced_loop_s.push(u.loop_s);
        s.traced_run_s.push(t.run_s);
        let slices: Vec<f64> = tracer
            .current("run_until")
            .map(|sp| sp.secs() * 1e3)
            .collect();
        if slice.is_some() {
            s.slice_p50_ms.push(median(&slices));
            s.slice_max_ms
                .push(slices.iter().copied().fold(0.0, f64::max));
        }
        let ops = tracer.op_counts();
        if ops.sampled > 0 {
            s.next_op_ns
                .push((ops.sampled_ns as f64 / ops.sampled as f64 - timer_ns).max(0.0));
        }
        s.capture_s
            .push(tracer.current_secs("MachineSnapshot::capture"));
        s.encode_s
            .push(tracer.current_secs("MachineSnapshot::to_json_string"));
        s.parse_s
            .push(tracer.current_secs("MachineSnapshot::parse"));
        s.restore_s
            .push(tracer.current_secs("MachineSnapshot::restore"));
        let check_s = tracer.current_secs("check");
        if check_s > 0.0 {
            s.states_per_s
                .push(t.check.iter().map(|c| c.states).sum::<usize>() as f64 / check_s);
        }
        last = Some((t, bytes, ops, tracer.send_log()));
    }
    let Some((outcome, snapshot_bytes, ops, sends)) = last else {
        return finish_unmeasured(rep, ticks);
    };
    let loop_ns = median(&s.untraced_loop_s) * 1e9;

    // Work after the iterations.
    let cfg = match bench.sim() {
        Some(spec) => spec.config(),
        None => lrc_check::scenario::by_name(CHECK_SCENARIOS[0])
            .expect("the reference iteration found every scenario")
            .config(),
    };
    let probe_ns = cache_replay(bench, seed);
    let send_ns = if sends.stream.is_empty() {
        0.0
    } else {
        replay::network(&cfg, &sends.stream, SEND_STREAM_CAP)
    };
    let (race_cost, values_cost) = match bench.sim() {
        Some(spec) if bench == Bench::SoakFft => rep
            .attempt(|| layer_costs(&spec, seed))
            .unwrap_or((0.0, 0.0)),
        _ => (0.0, 0.0),
    };
    let calls = match bench {
        Bench::CheckLazy => rep.attempt(checker_calls).unwrap_or_default(),
        _ => replay::CheckerCalls::default(),
    };

    let (t, faults, races) = totals(&outcome);
    let refs = t.refs as f64;
    let msgs = t.traffic.total_msgs() as f64;
    rep.set("sim.events", outcome.events as f64);
    rep.set(
        "sim.events_per_kcycle",
        ratio(outcome.events as f64 * 1e3, outcome.loop_cycles as f64),
    );
    rep.set("sim.peak_queue_depth", outcome.peak_queue_depth as f64);
    rep.set("sim.ns_per_event", ratio(loop_ns, outcome.events as f64));
    rep.set("sim.slice_ms.p50", median(&s.slice_p50_ms));
    rep.set("sim.slice_ms.max", median(&s.slice_max_ms));
    let next_op_ns = median(&s.next_op_ns);
    rep.set("workloads.ops", ops.ops as f64);
    rep.set("workloads.refs", ops.refs as f64);
    rep.set("workloads.sync_ops", ops.sync_ops as f64);
    rep.set("workloads.next_op_ns", next_op_ns);
    rep.set(
        "workloads.busy_frac",
        ratio(next_op_ns * ops.ops as f64, loop_ns),
    );
    rep.set("mem.refs", refs);
    rep.set("mem.read_misses", t.read_misses as f64);
    rep.set("mem.write_misses", t.write_misses as f64);
    rep.set("mem.upgrades", t.upgrades as f64);
    rep.set("mem.hit_ratio", 1.0 - ratio(t.total_misses() as f64, refs));
    rep.set("mem.busy_cycles", t.mem_busy as f64);
    rep.set("mem.probe_ns", probe_ns);
    rep.set("core.msgs.control", t.traffic.control_msgs as f64);
    rep.set("core.msgs.data", t.traffic.data_msgs as f64);
    rep.set("core.msgs.write_data", t.traffic.write_data_msgs as f64);
    rep.set("core.bytes", t.traffic.bytes as f64);
    rep.set("core.msgs_per_ref", ratio(msgs, refs));
    rep.set("core.three_hop", t.three_hop as f64);
    rep.set("core.write_notices", t.notices_received as f64);
    rep.set("core.acquire_invalidations", t.acquire_invalidations as f64);
    rep.set("core.eager_invalidations", t.eager_invalidations as f64);
    rep.set(
        "core.notice_yield",
        ratio(t.acquire_invalidations as f64, t.notices_received as f64),
    );
    rep.set("core.pp_busy_cycles", t.pp_busy as f64);
    rep.set("core.cpu_cycles", t.breakdown.cpu as f64);
    rep.set("core.stall.read_cycles", t.breakdown.read as f64);
    rep.set("core.stall.write_cycles", t.breakdown.write as f64);
    rep.set("core.stall.sync_cycles", t.breakdown.sync as f64);
    rep.set("mesh.sends", sends.sends as f64);
    rep.set("mesh.bytes", sends.bytes as f64);
    rep.set("mesh.send_ns", send_ns);
    rep.set("mesh.faults.injected", faults.injected() as f64);
    rep.set("link.retries", faults.retries as f64);
    rep.set("link.timeouts", faults.timeouts as f64);
    rep.set("link.msgs", faults.link_msgs as f64);
    rep.set("link.dup_suppressed", faults.dup_suppressed as f64);
    rep.set("link.retries_exhausted", faults.retries_exhausted as f64);
    rep.set("link.goodput", ratio(msgs, msgs + faults.link_msgs as f64));
    rep.set("race.words_monitored", races.words_monitored as f64);
    rep.set("race.vector_promotions", races.vector_promotions as f64);
    rep.set(
        "race.fast_path_ratio",
        ratio(races.epoch_fast_hits as f64, refs),
    );
    rep.set("race.races_found", races.races_found as f64);
    rep.set("race.cost_s", race_cost);
    rep.set("values.cost_s", values_cost);
    let (encode_s, parse_s) = (median(&s.encode_s), median(&s.parse_s));
    let mib = snapshot_bytes as f64 / (1024.0 * 1024.0);
    rep.set("snapshot.bytes", snapshot_bytes as f64);
    rep.set("snapshot.capture_s", median(&s.capture_s));
    rep.set("snapshot.encode_s", encode_s);
    rep.set("snapshot.parse_s", parse_s);
    rep.set("snapshot.restore_s", median(&s.restore_s));
    rep.set("json.encode_mib_per_s", ratio(mib, encode_s));
    rep.set("json.parse_mib_per_s", ratio(mib, parse_s));
    rep.set(
        "check.states",
        outcome.check.iter().map(|c| c.states).sum::<usize>() as f64,
    );
    rep.set(
        "check.terminals",
        outcome.check.iter().map(|c| c.terminals).sum::<usize>() as f64,
    );
    rep.set(
        "check.max_depth",
        outcome.check.iter().map(|c| c.max_depth).max().unwrap_or(0) as f64,
    );
    rep.set("check.states_per_s", median(&s.states_per_s));
    rep.set("check.clone_us", calls.clone_us);
    rep.set("check.step_us", calls.step_us);
    rep.set("check.fingerprint_us", calls.fingerprint_us);
    rep.set("check.violations_us", calls.violations_us);
    rep.set(
        "bench.trace_overhead",
        ratio(median(&s.traced_run_s), median(&s.untraced_run_s)) - 1.0,
    );
    let steal = ticks.steal_frac_until(&CpuTicks::now());
    rep.set("host.steal_frac", steal);
    rep.set("host.pace_ns", median(&s.pace_ns));
    rep.info = json!({
        "provenance": provenance(bench, seed, true),
        "pairs": s.traced_run_s.len(),
        "slice_cycles": slice.unwrap_or(0),
        "fail_ratio": rep.fail_ratio(),
        "host.steal_frac": steal,
    });
    rep.spans = Some(tracer.spans_json());
    rep
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-processor, link-layer and race counters summed over processors and
/// every run of the iteration.
fn totals(o: &Outcome) -> (ProcStats, FaultStats, RaceStats) {
    let (mut p, mut f, mut r) = (
        ProcStats::default(),
        FaultStats::default(),
        RaceStats::default(),
    );
    for s in &o.stats {
        for _ in 0..o.repeats {
            for row in &s.procs {
                p.merge(row);
            }
            f.merge(&s.faults);
            r.words_monitored += s.races.words_monitored;
            r.epoch_fast_hits += s.races.epoch_fast_hits;
            r.vector_promotions += s.races.vector_promotions;
            r.races_found += s.races.races_found;
        }
    }
    (p, f, r)
}

/// Host nanoseconds per reference of the workload's own reference stream
/// replayed through one `lrc_mem::Cache` per processor.
fn cache_replay(bench: Bench, seed: u64) -> f64 {
    match bench.sim() {
        Some(spec) => replay::caches(&spec.config(), &mut || spec.workload(seed)),
        None => {
            let scs: Vec<_> = CHECK_SCENARIOS
                .iter()
                .filter_map(|n| lrc_check::scenario::by_name(n))
                .collect();
            let per: Vec<f64> = scs
                .iter()
                .map(|sc| replay::caches(&sc.config(), &mut || Box::new(sc.script())))
                .collect();
            per.iter().sum::<f64>() / per.len().max(1) as f64
        }
    }
}

/// Layer-off reruns: host seconds of the uninterrupted `soak-fft` run with
/// every layer on, minus the same run without the race detector, and
/// minus the same run without value tracking (medians of a few runs).
fn layer_costs(spec: &SimSpec, seed: u64) -> Checked<(f64, f64)> {
    const REPS: usize = 2;
    let plan = || lrc_core::FaultPlan::uniform(crate::bench::SOAK_FAULT_RATE, seed);
    let base = || Machine::new(spec.config(), spec.protocol).with_fault_plan(plan());
    let run = |m: Machine| -> Checked<f64> {
        let t0 = Instant::now();
        let w = spec.workload(seed);
        m.try_run(w)
            .map_err(|d| format!("layer-off rerun stalled: {:?}", d.reason))?;
        Ok(t0.elapsed().as_secs_f64())
    };
    let (mut all, mut no_race, mut no_values) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        all.push(run(spec.soak_machine(seed))?);
        no_race.push(run(base()
            .with_value_tracking()
            .with_watchdog(crate::bench::SOAK_WATCHDOG))?);
        no_values.push(run(base()
            .with_race_detection()
            .with_watchdog(crate::bench::SOAK_WATCHDOG))?);
    }
    let all = median(&all);
    Ok((all - median(&no_race), all - median(&no_values)))
}

/// Time the checker's per-state calls on natural-order replays of the
/// `check-lazy` scenarios.
fn checker_calls() -> Checked<replay::CheckerCalls> {
    let roots: Vec<Machine> = CHECK_SCENARIOS
        .iter()
        .map(|n| {
            lrc_check::scenario::by_name(n)
                .map(|sc| check_root(&sc))
                .ok_or("unknown scenario".to_string())
        })
        .collect::<Checked<_>>()?;
    Ok(replay::checker_calls(&roots))
}
