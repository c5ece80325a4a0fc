//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <mp3d-lazy|gauss-sc|soak-fft|check-lazy|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --describe
//! ```
//!
//! Each run measures for `--seconds` (default 25) after a checked warm-up
//! iteration. `--trace 0` (the default) prints the end-to-end metrics,
//! `--trace 1` the per-layer metrics of the traced run, whose spans land in
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--describe` prints the metric registry: unit, layer, and which
//! end-to-end metric and workload each layer metric should move.

use lrc_json::{json, Value};
use lrc_perfbench::bench::Bench;
use lrc_perfbench::layers::{self, END_TO_END, PER_LAYER};
use lrc_perfbench::runner::{self, Report};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    workloads: Vec<Bench>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <mp3d-lazy|gauss-sc|soak-fft|check-lazy|all> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --describe".into()
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 25,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Bench::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Bench::parse(value).ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Some(args))
}

fn describe() -> Value {
    let e2e: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better, "about": m.about }))
        .collect();
    let per: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better,
                "layer": m.layer,
                "moves": m.moves,
                "flat_on": m.flat,
            })
        })
        .collect();
    let workloads: Vec<Value> = Bench::ALL
        .iter()
        .map(|b| json!({ "name": b.name(), "why": b.why() }))
        .collect();
    json!({ "workloads": workloads, "end_to_end": e2e, "per_layer": per })
}

fn print_report(rep: &Report) {
    let mode = if rep.traced { "traced" } else { "tracing off" };
    println!("perfbench {} seed {} ({mode})", rep.bench.name(), rep.seed);
    let mut layer = "";
    for (name, value) in &rep.metrics {
        if rep.traced {
            let m = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("registered metric");
            if m.layer != layer {
                layer = m.layer;
                println!("  [{layer}]");
            }
        }
        let unit = layers::unit_of(name).unwrap_or("");
        print!("  {name:<28} {value:>16.6} {unit}");
        if *name == "run_s" {
            match rep.info.get("run_s_tail") {
                Some(Value::Object(t)) => {
                    let get = |k: &str| {
                        t.iter()
                            .find(|(n, _)| n == k)
                            .map(|(_, v)| v.dump())
                            .unwrap_or_default()
                    };
                    print!("   p{} {} s", get("percentile"), get("value"));
                }
                _ => print!("   (too few samples for a tail percentile)"),
            }
            print!(
                ", {} samples",
                rep.info
                    .get("iterations")
                    .map(|v| v.dump())
                    .unwrap_or_default()
            );
        }
        println!();
    }
    println!(
        "  {:<28} {:>16.6} fraction ({} of {} iterations failed)",
        "fail_ratio",
        rep.fail_ratio(),
        rep.failed,
        rep.attempted
    );
    for e in rep.errors.iter().take(3) {
        println!("  failure: {e}");
    }
    println!("{}", json!({ "perfbench": rep.info.clone() }).dump());
    let metrics: Vec<(String, Value)> = rep
        .metrics
        .iter()
        .map(|(n, v)| {
            (
                n.to_string(),
                json!({ "value": *v, "unit": layers::unit_of(n).unwrap_or("") }),
            )
        })
        .collect();
    let line = json!({
        "correct": rep.correct(),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", line.dump());
}

/// Write the traced run's spans beside the crate, in `out/`.
fn write_spans(rep: &Report) {
    let Some(spans) = &rep.spans else { return };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", rep.bench.name(), rep.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.dump()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", describe().dump());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workloads[..] {
        [bench] => {
            let budget = Duration::from_secs(args.seconds);
            let rep = if args.trace {
                runner::traced(bench, args.seed, budget)
            } else {
                runner::end_to_end(bench, args.seed, budget)
            };
            write_spans(&rep);
            print_report(&rep);
            ExitCode::SUCCESS
        }
        _ => run_each(&args),
    }
}

/// `--workload all`: each workload in a process of its own, one after the
/// other, so each one's resident-set peak and heap are its own.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for bench in &args.workloads {
        let status = Command::new(&exe)
            .args(["--workload", bench.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", bench.name());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", bench.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
