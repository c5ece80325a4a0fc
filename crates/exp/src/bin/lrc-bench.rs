//! `lrc-bench` — the simulator's benchmark trajectory harness.
//!
//! Runs the fixed (protocol × workload) grid and records how fast the
//! simulation *kernel* executes it (simulated cycles per wall-clock second
//! spent inside the event loop, excluding workload construction), so kernel
//! changes can be compared against a committed baseline:
//!
//! ```text
//! lrc-bench run     [--scale small] [--procs 16] [--reps 3] [--mesh256]
//!                   [--out BENCH_sim.json]
//! lrc-bench compare [--scale small] [--procs 16] [--reps 3] [--out FILE]
//!                   [--baseline BENCH_sim.json] [--tolerance 0.10]
//! ```
//!
//! `run` measures the grid and writes `BENCH_sim.json` (schema below).
//! `compare` measures the grid the same way, then gates against a committed
//! baseline: it exits non-zero if geomean throughput regressed by more than
//! `--tolerance` (default 10%). The gate only engages when the baseline
//! exists *and* was recorded at the same scale/procs — a tiny-scale CI smoke
//! run against the small-scale committed baseline reports but does not gate.
//!
//! Schema (`"schema": "lrc-bench-v1"`): `commit`, `date`, `scale`, `procs`,
//! `reps`, `combos` (per-combination `total_cycles`, `median_wall_ms`,
//! `cycles_per_sec`), `geomean_cycles_per_sec`. Throughput per combination
//! is simulated cycles divided by the *median* wall time of `--reps`
//! repetitions (median, not mean, to shrug off scheduler noise).
//!
//! `host_cpus` records the machine's available parallelism. `--mesh256`
//! appends a `mesh256` section: one mp3d/lazy run on a 256-node (16×16)
//! mesh at `large` scale.

#![forbid(unsafe_code)]

use lrc_exp::{execute, RunSpec};
use lrc_json::{json, ToJson, Value};
use lrc_sim::Protocol;
use lrc_workloads::{Scale, WorkloadKind};

struct ComboResult {
    protocol: Protocol,
    workload: WorkloadKind,
    total_cycles: u64,
    median_wall_ms: f64,
    cycles_per_sec: f64,
}

fn measure_grid(scale: Scale, procs: usize, reps: usize, verbose: bool) -> Vec<ComboResult> {
    let mut out = Vec::new();
    for &protocol in &Protocol::ALL {
        for workload in WorkloadKind::ALL {
            let spec = RunSpec::new(protocol, workload, scale, procs);
            let mut walls: Vec<f64> = Vec::with_capacity(reps);
            let mut total_cycles = 0u64;
            for rep in 0..reps {
                // The machine times its own event loop: this excludes
                // workload construction, which is not the kernel under test.
                let r = execute(&spec);
                walls.push(r.sim_wall_secs);
                if rep == 0 {
                    total_cycles = r.stats.total_cycles;
                } else {
                    assert_eq!(
                        total_cycles, r.stats.total_cycles,
                        "nondeterministic run: {workload}/{protocol}"
                    );
                }
            }
            walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
            let median = walls[walls.len() / 2];
            let cps = total_cycles as f64 / median.max(1e-9);
            if verbose {
                eprintln!(
                    "  {workload:>10} / {protocol:<7} {total_cycles:>12} cycles  \
                     {:>8.1} ms  {:>6.1} Mcyc/s",
                    median * 1e3,
                    cps / 1e6
                );
            }
            out.push(ComboResult {
                protocol,
                workload,
                total_cycles,
                median_wall_ms: median * 1e3,
                cycles_per_sec: cps,
            });
        }
    }
    out
}

/// The 256-node (16×16 mesh) scaling run: one mp3d/lazy simulation at
/// `large` scale. One repetition — this records that the kernel takes a
/// 256-node machine end to end and how fast, it is not a gated benchmark.
fn measure_mesh256(verbose: bool) -> Value {
    let spec = RunSpec::new(Protocol::Lrc, WorkloadKind::Mp3d, Scale::Large, 256);
    if verbose {
        eprintln!("-- mesh256: mp3d/{} @ scale=large procs=256", spec.protocol);
    }
    let r = execute(&spec);
    let cps = r.stats.total_cycles as f64 / r.sim_wall_secs.max(1e-9);
    if verbose {
        eprintln!(
            "   {} cycles, {} events in {:.1} ms ({:.1} Mcyc/s)",
            r.stats.total_cycles,
            r.events,
            r.sim_wall_secs * 1e3,
            cps / 1e6
        );
    }
    json!({
        "workload": spec.workload.name(),
        "protocol": spec.protocol.name(),
        "scale": "large",
        "procs": 256,
        "total_cycles": r.stats.total_cycles,
        "events": r.events,
        "wall_ms": r.sim_wall_secs * 1e3,
        "cycles_per_sec": cps,
    })
}

fn geomean(combos: &[ComboResult]) -> f64 {
    let log_sum: f64 = combos.iter().map(|c| c.cycles_per_sec.max(1.0).ln()).sum();
    (log_sum / combos.len().max(1) as f64).exp()
}

/// Best-effort `git rev-parse --short HEAD`; "unknown" outside a checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Civil date (UTC) from the system clock, via days-from-epoch arithmetic
/// (Howard Hinnant's algorithm) — the workspace has no date dependency.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn report_json(
    scale: Scale,
    procs: usize,
    reps: usize,
    combos: &[ComboResult],
    mesh256: Option<Value>,
) -> Value {
    let rows: Vec<Value> = combos
        .iter()
        .map(|c| {
            json!({
                "protocol": c.protocol.name(),
                "workload": c.workload.name(),
                "total_cycles": c.total_cycles,
                "median_wall_ms": c.median_wall_ms,
                "cycles_per_sec": c.cycles_per_sec,
            })
        })
        .collect();
    let params = json!({ "scale": scale.name(), "procs": procs, "reps": reps });
    let machine = lrc_sim::MachineConfig::paper_default(procs).to_json();
    let mut report = json!({
        "schema": "lrc-bench-v1",
        "commit": git_commit(),
        "date": today_utc(),
        "scale": scale.name(),
        "procs": procs,
        "reps": reps,
        "host_cpus": host_cpus(),
        // Provenance of this measurement: enough to decide whether a
        // committed baseline is still comparable to HEAD (same machine
        // configuration, which host, when the harness passed).
        "provenance": json!({
            "git_commit": git_commit(),
            "config_hash": lrc_exp::config_hash("bench", &params, &machine),
            "host_cpus": host_cpus(),
            "harness_passed_unix": lrc_exp::resolve_timestamp(None),
        }),
        "combos": rows,
        "geomean_cycles_per_sec": geomean(combos),
    });
    if let Some(m) = mesh256 {
        report.set("mesh256", m);
    }
    report
}

/// The host's available parallelism, recorded as measurement provenance.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One-line provenance summary of a bench report (current or baseline).
/// Pre-provenance baselines render their fields as `unknown`.
fn provenance_line(report: &Value) -> String {
    let p = &report["provenance"];
    let s = |v: &Value| v.as_str().unwrap_or("unknown").to_string();
    let short = |h: String| h.chars().take(12).collect::<String>();
    format!(
        "provenance: commit {} · config {} · host_cpus {} · harness passed {}",
        s(&p["git_commit"]),
        short(s(&p["config_hash"])),
        p["host_cpus"].as_u64().map_or_else(|| "unknown".to_string(), |n| n.to_string()),
        match p["harness_passed_unix"].as_u64() {
            Some(ts) if ts > 0 => lrc_exp::report::iso_utc(ts),
            _ => "unknown".to_string(),
        }
    )
}

/// Outcome of gating a fresh measurement against a baseline file.
enum Gate {
    /// Baseline missing/unreadable, or recorded under different settings.
    Skipped(String),
    /// Gate ran: (baseline geomean, current geomean, regression fraction).
    Ran(f64, f64, f64),
}

fn gate_against_baseline(path: &str, scale: Scale, procs: usize, current: f64) -> Gate {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return Gate::Skipped(format!("no baseline at {path} ({e})")),
    };
    let base = match lrc_json::parse(&contents) {
        Ok(v) => v,
        Err(e) => return Gate::Skipped(format!("baseline {path} is not valid JSON ({e})")),
    };
    if base["schema"].as_str() != Some("lrc-bench-v1") {
        return Gate::Skipped(format!("baseline {path} has unknown schema"));
    }
    let (bscale, bprocs) = (base["scale"].as_str().unwrap_or(""), base["procs"].as_u64());
    if bscale != scale.name() || bprocs != Some(procs as u64) {
        return Gate::Skipped(format!(
            "baseline was recorded at scale={bscale} procs={} — current run is scale={} procs={procs}, gate not applicable",
            bprocs.map_or_else(|| "?".into(), |p| p.to_string()),
            scale.name()
        ));
    }
    let Some(bgeo) = base["geomean_cycles_per_sec"].as_f64() else {
        return Gate::Skipped(format!("baseline {path} lacks geomean_cycles_per_sec"));
    };
    Gate::Ran(bgeo, current, 1.0 - current / bgeo)
}

/// Print a CLI usage error and exit 2 (the usage-error convention).
fn die(msg: &str) -> ! {
    eprintln!("lrc-bench: {msg}");
    std::process::exit(2)
}

/// The value following a flag, or a usage error naming the flag.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => die(&format!("{flag} requires a value")),
    }
}

/// Parse a flag's value, or a usage error naming the flag and the input.
fn parse_flag<T: std::str::FromStr>(value: &str, flag: &str, expects: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: invalid value '{value}' (expected {expects})")))
}

fn main() {
    let args = lrc_exp::utf8_args().unwrap_or_else(|e| die(&e));
    let mut mode: Option<&str> = None;
    let mut scale = Scale::Small;
    let mut procs = 16usize;
    let mut reps = 3usize;
    let mut out: Option<String> = None;
    let mut baseline = "BENCH_sim.json".to_string();
    let mut tolerance = 0.10f64;
    let mut verbose = true;
    let mut mesh256 = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "run" => mode = Some("run"),
            "compare" => mode = Some("compare"),
            "--scale" => {
                let v = flag_value(&args, &mut i, "--scale");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    die(&format!(
                        "--scale: unknown scale '{v}' (expected paper|large|medium|small|tiny)"
                    ))
                });
            }
            "--procs" => {
                let v = flag_value(&args, &mut i, "--procs");
                procs = parse_flag(v, "--procs", "a processor count");
                if procs == 0 {
                    die("--procs must be positive");
                }
            }
            "--reps" => {
                let v = flag_value(&args, &mut i, "--reps");
                reps = parse_flag(v, "--reps", "a repetition count");
                if reps == 0 {
                    die("--reps must be positive");
                }
            }
            "--out" => out = Some(flag_value(&args, &mut i, "--out").to_string()),
            "--baseline" => baseline = flag_value(&args, &mut i, "--baseline").to_string(),
            "--tolerance" => {
                let v = flag_value(&args, &mut i, "--tolerance");
                tolerance = parse_flag(v, "--tolerance", "a fraction like 0.10");
                if !(0.0..1.0).contains(&tolerance) {
                    die("--tolerance must be in [0, 1)");
                }
            }
            "--mesh256" => mesh256 = true,
            "--quiet" => verbose = false,
            other => die(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    let Some(mode) = mode else {
        eprintln!(
            "usage: lrc-bench <run|compare> [--scale paper|large|medium|small|tiny] [--procs N] \
             [--reps N] [--mesh256] [--out FILE] [--baseline FILE] \
             [--tolerance FRACTION] [--quiet]"
        );
        std::process::exit(2);
    };

    if verbose {
        eprintln!(
            "lrc-bench {mode}: {}×{} grid @ scale={} procs={procs} reps={reps}",
            Protocol::ALL.len(),
            WorkloadKind::ALL.len(),
            scale.name()
        );
    }
    let combos = measure_grid(scale, procs, reps, verbose);
    let mesh = mesh256.then(|| measure_mesh256(verbose));
    let geo = geomean(&combos);
    let report = report_json(scale, procs, reps, &combos, mesh);
    if verbose {
        eprintln!("  geomean {:.1} Mcyc/s over {} combinations", geo / 1e6, combos.len());
    }

    match mode {
        "run" => {
            let path = out.unwrap_or_else(|| "BENCH_sim.json".to_string());
            std::fs::write(&path, report.pretty())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        "compare" => {
            if let Some(path) = &out {
                std::fs::write(path, report.pretty())
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                eprintln!("wrote {path}");
            } else {
                println!("{}", report.pretty());
            }
            eprintln!("current  {}", provenance_line(&report));
            if let Ok(contents) = std::fs::read_to_string(&baseline) {
                if let Ok(base) = lrc_json::parse(&contents) {
                    eprintln!("baseline {}", provenance_line(&base));
                }
            }
            match gate_against_baseline(&baseline, scale, procs, geo) {
                Gate::Skipped(why) => {
                    eprintln!("gate skipped: {why}");
                }
                Gate::Ran(base, cur, regression) => {
                    eprintln!(
                        "baseline geomean {:.1} Mcyc/s, current {:.1} Mcyc/s ({:+.1}%)",
                        base / 1e6,
                        cur / 1e6,
                        -regression * 100.0
                    );
                    if regression > tolerance {
                        eprintln!(
                            "FAIL: throughput regressed {:.1}% (> {:.0}% tolerance) vs {baseline}",
                            regression * 100.0,
                            tolerance * 100.0
                        );
                        std::process::exit(1);
                    }
                    eprintln!("gate passed (tolerance {:.0}%)", tolerance * 100.0);
                }
            }
        }
        _ => unreachable!(),
    }
}
