//! `lrc-bench` — compare two commits on the repository's benchmark.
//!
//! ```text
//! lrc-bench ab --parent DIR --change DIR --workload W [--pairs 10] [--seconds S]
//!              [--out BENCH_<W>.json]
//! ```
//!
//! Each `DIR` is a git checkout, one of the parent commit and one of the
//! change. The change's `BENCHMARK.json` gives the `command`, the default
//! `--seconds` (`run_seconds`), the `workloads` W must be one of, and the
//! `end_to_end` metrics with their `better` direction and `bound`. The
//! parent's must be byte-identical: different benchmarks do not compare.
//!
//! Pair `i` runs `command --workload W --seed base+i --seconds S` once on
//! each side, one run at a time, the parent first on even `i` and the change
//! first on odd `i`; `base` comes from the clock. A run starts in its own
//! checkout, because perfbench records as its commit what `git rev-parse`
//! reads in its working directory, and without `CARGO_TARGET_DIR`, so each
//! side builds into its own `perfbench/target` and alternating never
//! rebuilds the other. A run's last output line is its result and the line
//! before it its provenance (`perfbench/README.md`).
//!
//! The verdict of a metric, with ties counting for neither side:
//!
//! - `unresolved` with fewer than 10 pairs, whatever the samples say;
//! - `gain` when the change wins at least 9/10 of the pairs and its median
//!   beats the parent's by more than the parent's quartile distance;
//! - `worse` when the change's median is worse than the parent's by more
//!   than `bound` × the parent's median;
//! - `unresolved` when the parent's quartile distance ÷ median exceeds
//!   `bound`, unless every change run beats every parent run;
//! - `within bound` otherwise.
//!
//! `ab` prints each side's median and quartiles, the per-pair ratio change
//! ÷ parent with a 95% bootstrap interval of its mean, the sign-flip p-value
//! and the verdict. The point it writes (schema `lrc-bench-v2`) adds the
//! workload, seconds, seed base, `host_cpus`, each side's commit,
//! `definition_hash` and failure share (failed ÷ attempted iterations), and
//! every run's provenance and result lines verbatim. Beside each side's
//! commit, `dirty` says whether `git status --porcelain
//! --untracked-files=no` listed a change in its checkout before the first
//! run or after the last, since perfbench names the commit `HEAD` and
//! builds the working tree (`null` when git cannot tell).
//!
//! Exit status: 2 on a usage error or an unusable `BENCHMARK.json`; 1 when
//! a run fails (exits non-zero, prints `"correct": false` or a malformed
//! last line; `ab` stops there), a metric reads `worse`, or the change fails
//! a larger share of its iterations; 0 otherwise.

#![forbid(unsafe_code)]

use lrc_exp::{flag_number, paired_permutation_p, summarize, utf8_args, Table};
use lrc_json::{json, json_struct, Ctx, FromJson, ToJson, Value};
use std::path::Path;
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage: lrc-bench ab --parent DIR --change DIR --workload W \
                     [--pairs N] [--seconds S] [--out FILE]";
const SIDES: [&str; 2] = ["parent", "change"];

json_struct!(struct Benchmark {
    command: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
});
json_struct!(struct Workload { name: String });
json_struct!(struct Metric { name: String, better: Better, bound: f64 });

#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}
json_struct!(enum Better as str { Higher = "higher", Lower = "lower" });

json_struct!(
    /// A run's result line, less what `ab` does not read.
    struct Outcome { correct: bool, attempted: u64, failed: u64, metrics: Value }
);

/// One benchmark run: its two lines verbatim and what `ab` reads from them.
struct Run {
    pair: usize,
    side: usize,
    seed: u64,
    provenance: String,
    result: String,
    commit: String,
    definition_hash: String,
    outcome: Outcome,
    /// One value per end-to-end metric, in `BENCHMARK.json` order.
    values: Vec<f64>,
}

fn die(code: i32, msg: &str) -> ! {
    eprintln!("lrc-bench: {msg}");
    exit(code)
}

/// The value, or a usage error (exit 2) reporting the error.
fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| die(2, &e))
}

/// Does checkout `dir` differ from its commit in a tracked file? `None`
/// when git cannot tell (no git, or not a checkout).
fn dirty(dir: &str) -> Option<bool> {
    let out = Command::new("git")
        .args(["-C", dir, "status", "--porcelain", "--untracked-files=no"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(!out.stdout.is_empty())
}

fn read_benchmark(dir: &str) -> Result<String, String> {
    let path = Path::new(dir).join("BENCHMARK.json");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn decode<T: FromJson>(text: &str) -> Result<T, String> {
    let v = lrc_json::parse(text).map_err(|e| e.to_string())?;
    T::decode(&v, Ctx::default()).map_err(|e| e.to_string())
}

/// Run the benchmark once in checkout `dir` and read its two last lines.
fn measure(bench: &Benchmark, dir: &str, w: &str, seed: u64, secs: u64) -> Result<Run, String> {
    let out = Command::new(&bench.command[0])
        .args(&bench.command[1..])
        .args(["--workload", w, "--seed", &seed.to_string(), "--seconds", &secs.to_string()])
        .current_dir(dir)
        .env_remove("CARGO_TARGET_DIR")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {:?}: {e}", bench.command[0]))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (result, provenance) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
    let outcome: Outcome = decode(result).map_err(|e| format!("malformed last line: {e}"))?;
    if !outcome.correct {
        return Err("its result reads \"correct\": false".into());
    }
    let values = bench.end_to_end.iter().map(|m| {
        let v = outcome.metrics[m.name.as_str()]["value"].as_f64();
        v.filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("malformed last line: no positive value of {}", m.name))
    });
    let values = values.collect::<Result<_, _>>()?;
    let info =
        lrc_json::parse(provenance).map_err(|e| format!("malformed provenance line: {e}"))?;
    let field = |key: &str| match info["perfbench"]["provenance"][key].as_str() {
        Some(v) => Ok(v.to_string()),
        None => Err(format!("provenance line has no perfbench.provenance.{key}")),
    };
    Ok(Run {
        pair: 0,
        side: 0,
        seed,
        provenance: provenance.to_string(),
        result: result.to_string(),
        commit: field("git_commit")?,
        definition_hash: field("definition_hash")?,
        outcome,
        values,
    })
}

/// The first quartile, median and third quartile (linear interpolation).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// One metric's comparison over the pairs.
struct Compared {
    wins: usize,
    losses: usize,
    ties: usize,
    /// Quartiles, median in the middle.
    parent: [f64; 3],
    change: [f64; 3],
    verdict: &'static str,
}

/// The A/B rule (module docs) for paired samples: `parent[i]` and
/// `change[i]` ran at one seed.
fn compare(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Compared {
    // After this sign, lower is better.
    let sign = if better == Better::Higher { -1.0 } else { 1.0 };
    let beats = |a: f64, b: f64| sign * a < sign * b;
    let n = parent.len();
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| beats(c, p)).count();
    let losses = parent.iter().zip(change).filter(|&(&p, &c)| beats(p, c)).count();
    let (p, c) = (quartiles(parent), quartiles(change));
    let spread = p[2] - p[0];
    let gap = sign * (p[1] - c[1]);
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let verdict = if n < 10 {
        "unresolved"
    } else if wins * 10 >= n * 9 && gap > spread {
        "gain"
    } else if -gap > bound * p[1].abs() {
        "worse"
    } else if spread > bound * p[1].abs() && !all_beat {
        "unresolved"
    } else {
        "within bound"
    };
    Compared { wins, losses, ties: n - wins - losses, parent: p, change: c, verdict }
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

fn main() {
    let args = utf8_args().unwrap_or_else(|e| die(2, &e));
    if args.first().map(String::as_str) != Some("ab") {
        die(2, USAGE);
    }
    let (mut dirs, mut workload, mut pairs, mut seconds, mut out) =
        ([None, None], None, 10, None, None);
    for kv in args[1..].chunks(2) {
        let [flag, value] = kv else { die(2, &format!("{} requires a value", kv[0])) };
        match flag.as_str() {
            "--parent" => dirs[0] = Some(value.clone()),
            "--change" => dirs[1] = Some(value.clone()),
            "--workload" => workload = Some(value.clone()),
            "--pairs" => pairs = or_usage(flag_number(flag, value, 1..)),
            "--seconds" => seconds = Some(or_usage(flag_number(flag, value, 1..))),
            "--out" => out = Some(value.clone()),
            _ => die(2, &format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    let required = |v: Option<String>, flag: &str| {
        v.unwrap_or_else(|| die(2, &format!("{flag} is required\n{USAGE}")))
    };
    let dirs = [required(dirs[0].take(), "--parent"), required(dirs[1].take(), "--change")];
    let workload = required(workload, "--workload");

    let text = or_usage(read_benchmark(&dirs[1]));
    if or_usage(read_benchmark(&dirs[0])) != text {
        die(2, "BENCHMARK.json differs between --parent and --change");
    }
    let bench: Benchmark = or_usage(decode(&text).map_err(|e| format!("BENCHMARK.json: {e}")));
    if bench.command.is_empty() {
        die(2, "BENCHMARK.json: command is empty");
    }
    if !bench.workloads.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
        die(2, &format!("--workload: unknown workload '{workload}' (have {})", names.join(", ")));
    }
    let seconds = seconds.unwrap_or(bench.run_seconds);
    let out = out.unwrap_or_else(|| format!("BENCH_{workload}.json"));
    let base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let dirty_before = dirs.each_ref().map(|d| dirty(d));
    let mut runs: Vec<Run> = Vec::new();
    for pair in 0..pairs {
        let seed = base + pair as u64;
        for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
            let name = SIDES[side];
            let run = measure(&bench, &dirs[side], &workload, seed, seconds).unwrap_or_else(|e| {
                die(1, &format!("{name} run of pair {pair} (seed {seed}) failed: {e}"))
            });
            let shown = bench.end_to_end.iter().zip(&run.values);
            let shown: Vec<String> =
                shown.map(|(m, v)| format!("{} {}", m.name, sig(*v))).collect();
            eprintln!("pair {}/{pairs} {name:<6} seed {seed}: {}", pair + 1, shown.join(", "));
            runs.push(Run { pair, side, ..run });
        }
    }

    let dirty_side = |side: usize| Some(dirty_before[side]? | dirty(&dirs[side])?);
    let of_side = |side: usize| runs.iter().filter(move |r| r.side == side);
    let failure_share = |side: usize| {
        let (attempted, failed) =
            of_side(side).fold((0, 0), |(a, f), r| (a + r.outcome.attempted, f + r.outcome.failed));
        failed as f64 / attempted.max(1) as f64
    };
    let side_json = |side: usize| {
        let first = of_side(side).next().expect("every side ran at least one pair");
        let (commit, hash, share) = (&first.commit, &first.definition_hash, failure_share(side));
        let dirty = dirty_side(side);
        json!({ "commit": commit, "dirty": dirty, "definition_hash": hash,
                "failure_share": share })
    };

    let mut table = Table::new(vec![
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins/losses/ties",
        "change ÷ parent [95% CI]",
        "p",
        "verdict",
    ]);
    let mut summaries = Vec::new();
    let mut worse = false;
    for (k, m) in bench.end_to_end.iter().enumerate() {
        let samples = |side| of_side(side).map(|r| r.values[k]).collect::<Vec<f64>>();
        let (parent, change) = (samples(0), samples(1));
        let ratios: Vec<f64> = parent.iter().zip(&change).map(|(p, c)| c / p).collect();
        let ratio = summarize(&ratios, base);
        let p = paired_permutation_p(&change, &parent, base);
        let cmp = compare(m.better, m.bound, &parent, &change);
        worse |= cmp.verdict == "worse";
        let q = |x: [f64; 3]| format!("{} [{}, {}]", sig(x[1]), sig(x[0]), sig(x[2]));
        table.row(vec![
            m.name.clone(),
            q(cmp.parent),
            q(cmp.change),
            format!("{}/{}/{}", cmp.wins, cmp.losses, cmp.ties),
            format!("{:.3} [{:.3}, {:.3}]", ratio.mean, ratio.ci_lo, ratio.ci_hi),
            format!("{p:.3}"),
            cmp.verdict.to_string(),
        ]);
        let quart = |x: [f64; 3]| json!({ "q1": x[0], "median": x[1], "q3": x[2] });
        summaries.push(json!({
            "name": &m.name, "better": m.better.to_json(), "bound": m.bound,
            "parent": quart(cmp.parent), "change": quart(cmp.change),
            "wins": cmp.wins, "losses": cmp.losses, "ties": cmp.ties,
            "ratio": { "mean": ratio.mean, "ci_lo": ratio.ci_lo, "ci_hi": ratio.ci_hi },
            "p": p, "verdict": cmp.verdict,
        }));
    }

    let record = |r: &Run| {
        json!({ "pair": r.pair, "side": SIDES[r.side], "seed": r.seed,
                "provenance": &r.provenance, "result": &r.result })
    };
    let point = json!({
        "schema": "lrc-bench-v2",
        "workload": &workload, "seconds": seconds, "pairs": pairs, "seed_base": base,
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "parent": side_json(0), "change": side_json(1),
        "runs": runs.iter().map(record).collect::<Vec<Value>>(),
        "metrics": summaries,
    });
    if let Err(e) = std::fs::write(&out, point.pretty()) {
        die(1, &format!("cannot write {out}: {e}"));
    }
    eprintln!("wrote {out}");
    print!("{}", table.render());
    let (parent_share, change_share) = (failure_share(0), failure_share(1));
    println!("failure share: parent {parent_share}, change {change_share}");
    if worse || change_share > parent_share {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(parent: &[f64], change: &[f64]) -> Compared {
        compare(Better::Lower, 0.25, parent, change)
    }

    /// Ten parent runs whose quartile distance is 0.075 around a median of 2.
    fn parent10() -> Vec<f64> {
        vec![1.9, 1.95, 1.95, 2.0, 2.0, 2.0, 2.0, 2.05, 2.05, 2.1]
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = lower(&[5.0; 10], &[5.0; 10]);
        assert_eq!((same.wins, same.losses, same.ties), (0, 0, 10));
        assert_eq!(same.verdict, "within bound");
        // Nine wins and a tie is 9/10 of the pairs; eight and two ties is not.
        let mut change = vec![1.0; 10];
        change[0] = parent10()[0];
        let c = lower(&parent10(), &change);
        assert_eq!((c.wins, c.losses, c.ties, c.verdict), (9, 0, 1, "gain"));
        change[1] = parent10()[1];
        let c = lower(&parent10(), &change);
        assert_eq!((c.wins, c.losses, c.ties, c.verdict), (8, 0, 2, "within bound"));
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_parents_spread() {
        let parent = parent10();
        let mut change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        change[0] = 2.5;
        assert_eq!(lower(&parent, &change).verdict, "gain");
        change[1] = 2.5;
        let c = lower(&parent, &change);
        assert_eq!((c.wins, c.losses, c.verdict), (8, 2, "within bound"));
        // Ten wins by less than the parent's quartile distance (0.075).
        let close: Vec<f64> = parent.iter().map(|p| p - 0.05).collect();
        let c = lower(&parent, &close);
        assert_eq!((c.wins, c.verdict), (10, "within bound"));
    }

    #[test]
    fn direction_follows_better() {
        let (parent, doubled): (Vec<f64>, Vec<f64>) =
            (parent10(), parent10().iter().map(|p| 2.0 * p).collect());
        assert_eq!(compare(Better::Higher, 0.25, &parent, &doubled).verdict, "gain");
        assert_eq!(compare(Better::Lower, 0.25, &parent, &doubled).verdict, "worse");
        assert_eq!(compare(Better::Higher, 0.25, &doubled, &parent).verdict, "worse");
        assert_eq!(compare(Better::Lower, 0.25, &doubled, &parent).verdict, "gain");
    }

    #[test]
    fn worse_is_past_the_bound() {
        let parent = parent10();
        let at = |f: f64| lower(&parent, &parent.iter().map(|p| p * f).collect::<Vec<_>>());
        assert_eq!(at(1.2).verdict, "within bound");
        assert_eq!(at(1.3).verdict, "worse");
        assert_eq!(compare(Better::Lower, 0.15, &[100.0; 10], &[150.0; 10]).verdict, "worse");
    }

    #[test]
    fn unresolved_below_ten_pairs_and_past_the_parents_spread() {
        // Nine pairs: the change is twice as fast, and still unresolved.
        assert_eq!(lower(&[2.0; 9], &[1.0; 9]).verdict, "unresolved");
        assert_eq!(lower(&[1.0; 9], &[2.0; 9]).verdict, "unresolved");
        // The parent's quartile distance is 0.95 of its median, past 0.25.
        let parent = [10.0, 10.0, 10.0, 10.0, 10.0, 11.0, 20.0, 20.0, 20.0, 20.0];
        let c = lower(&parent, &[10.5; 10]);
        assert_eq!(c.verdict, "unresolved");
        // Every change run beats every parent run, by less than the spread.
        let c = lower(&parent, &[9.5; 10]);
        assert_eq!((c.wins, c.verdict), (10, "within bound"));
    }
}
