//! `lrc-bench ab` end to end on stub benchmarks. Each temporary checkout's
//! `BENCHMARK.json` runs `sh stub.sh`, which prints canned provenance and
//! result lines from its checkout's `stub.env` and logs each run (side,
//! seed, `CARGO_TARGET_DIR`) in the order the runs came.

#![cfg(unix)]

use lrc_json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCHMARK: &str = r#"{
  "command": ["sh", "stub.sh"],
  "run_seconds": 25,
  "workloads": [{"name": "check-lazy"}],
  "end_to_end": [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.15},
    {"name": "sim_mcycles_per_s", "better": "higher", "bound": 0.25}
  ]
}"#;

const STUB: &str = r#". ./stub.env
echo "$side $4 ${CARGO_TARGET_DIR:-unset}" >> ../order.log
echo '{"perfbench":{"provenance":{"git_commit":"'"$side"'","definition_hash":"d"}}}'
printf '{"correct":%s,"attempted":3,"failed":0,"metrics":{"run_s":{"value":%s},"peak_rss_mib":{"value":%s},"sim_mcycles_per_s":{"value":%s}}}\n' "$correct" "$run_s" "$rss" "$rate"
exit "$status"
"#;

/// Two stub checkouts, `parent` and `change`, in a fresh directory.
struct Lab {
    root: PathBuf,
}

impl Lab {
    /// `parent` and `change` override the stub's defaults: run_s 2, rss
    /// 100, rate 50, correct, exit 0.
    fn new(name: &str, parent: &str, change: &str) -> Lab {
        let root = std::env::temp_dir().join(format!("lrc-bench-ab-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (side, vars) in [("parent", parent), ("change", change)] {
            let dir = root.join(side);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("BENCHMARK.json"), BENCHMARK).unwrap();
            fs::write(dir.join("stub.sh"), STUB).unwrap();
            let env = format!("side={side} run_s=2 rss=100 rate=50 correct=true status=0 {vars}\n");
            fs::write(dir.join("stub.env"), env).unwrap();
        }
        Lab { root }
    }

    fn ab(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_lrc-bench"))
            .arg("ab")
            .arg("--parent")
            .arg(self.root.join("parent"))
            .arg("--change")
            .arg(self.root.join("change"))
            .args(["--workload", "check-lazy", "--out"])
            .arg(self.root.join("point.json"))
            .args(extra)
            .env("CARGO_TARGET_DIR", "elsewhere")
            .output()
            .expect("lrc-bench starts")
    }

    /// The logged runs, one `side seed CARGO_TARGET_DIR` line each.
    fn order(&self) -> Vec<String> {
        let log = fs::read_to_string(self.root.join("order.log")).unwrap_or_default();
        log.lines().map(str::to_string).collect()
    }

    /// Write `text` as both sides' `BENCHMARK.json`.
    fn benchmark(&self, text: &[u8]) {
        for side in ["parent", "change"] {
            fs::write(self.root.join(side).join("BENCHMARK.json"), text).unwrap();
        }
    }

    fn point(&self) -> Value {
        lrc_json::parse(&fs::read_to_string(self.root.join("point.json")).unwrap()).unwrap()
    }
}

impl Drop for Lab {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn verdicts(point: &Value) -> Vec<String> {
    let metrics = point["metrics"].as_array().unwrap();
    metrics
        .iter()
        .map(|m| format!("{} {}", m["name"].as_str().unwrap(), m["verdict"].as_str().unwrap()))
        .collect()
}

#[test]
fn a_change_twice_as_fast_reads_gain_and_the_point_holds_ten_alternated_pairs() {
    let lab = Lab::new("gain", "", "run_s=1");
    let out = lab.ab(&[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let point = lab.point();
    assert_eq!(point["schema"].as_str(), Some("lrc-bench-v2"));
    assert_eq!(
        verdicts(&point),
        ["run_s gain", "peak_rss_mib within bound", "sim_mcycles_per_s within bound"]
    );
    assert_eq!(point["parent"]["commit"].as_str(), Some("parent"));
    assert_eq!(point["change"]["commit"].as_str(), Some("change"));
    assert_eq!(point["seconds"].as_u64(), Some(25), "run_seconds is the default");
    let base = point["seed_base"].as_u64().unwrap();
    let runs = point["runs"].as_array().unwrap();
    assert_eq!(runs.len(), 20);
    let order = lab.order();
    for (k, run) in runs.iter().enumerate() {
        let pair = k / 2;
        let parent_first = pair % 2 == 0;
        let side = if (k % 2 == 0) == parent_first { "parent" } else { "change" };
        assert_eq!(run["pair"].as_u64(), Some(pair as u64));
        assert_eq!(run["side"].as_str(), Some(side), "run {k}");
        assert_eq!(run["seed"].as_u64(), Some(base + pair as u64));
        assert!(run["result"].as_str().unwrap().starts_with("{\"correct\":true"));
        // The runs came in this order, each without CARGO_TARGET_DIR.
        assert_eq!(order[k], format!("{side} {} unset", base + pair as u64));
    }
}

/// Run git in `dir` under a fixed identity, so a commit needs no config.
fn git(dir: &Path, args: &[&str]) {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["-c", "user.name=lab", "-c", "user.email=lab@example.invalid"])
        .args(args)
        .output()
        .expect("git starts");
    assert!(out.status.success(), "git {args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

/// perfbench names `HEAD` as the commit of whatever tree it builds, so a
/// point must say when a side's checkout differed from that commit: both
/// sides are committed repositories, and the change side carries an
/// uncommitted edit to a tracked file. A directory that is no checkout at
/// all reads `null`.
#[test]
fn a_checkout_with_an_uncommitted_edit_is_marked_dirty() {
    let lab = Lab::new("dirty", "", "");
    for side in ["parent", "change"] {
        let dir = lab.root.join(side);
        fs::write(dir.join("notes.txt"), "committed\n").unwrap();
        git(&dir, &["init", "-q"]);
        git(&dir, &["add", "."]);
        git(&dir, &["commit", "-q", "-m", "stub checkout"]);
    }
    fs::write(lab.root.join("change").join("notes.txt"), "edited\n").unwrap();
    let out = lab.ab(&["--pairs", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let point = lab.point();
    assert_eq!(point["parent"]["dirty"].as_bool(), Some(false));
    assert_eq!(point["change"]["dirty"].as_bool(), Some(true));
    assert_eq!(point["change"]["commit"].as_str(), Some("change"), "the commit is unchanged");

    let plain = Lab::new("plain", "", "");
    assert_eq!(plain.ab(&["--pairs", "1"]).status.code(), Some(0));
    assert!(plain.point()["change"]["dirty"].is_null(), "no checkout reads null");
}

#[test]
fn identical_stubs_read_no_gain() {
    let lab = Lab::new("null", "", "");
    let out = lab.ab(&[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(verdicts(&lab.point()).iter().all(|v| v.ends_with(" within bound")));
}

#[test]
fn a_larger_peak_rss_reads_worse_and_exits_1() {
    let lab = Lab::new("worse", "", "rss=150");
    let out = lab.ab(&[]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(verdicts(&lab.point())[1], "peak_rss_mib worse");
}

#[test]
fn a_failed_run_stops_ab_and_names_its_side_pair_and_seed() {
    for (name, change) in
        [("incorrect", "correct=false"), ("status", "status=3"), ("malformed", "run_s=oops")]
    {
        let lab = Lab::new(name, "", change);
        let out = lab.ab(&[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        // Pair 0 runs the parent, then the change, which fails.
        let order = lab.order();
        assert_eq!(order.len(), 2, "{name}: {order:?}");
        let seed = order[1].split(' ').nth(1).unwrap();
        assert!(
            stderr.contains(&format!("change run of pair 0 (seed {seed}) failed")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn an_unusable_setup_is_a_usage_error_before_any_run() {
    let lab = Lab::new("setup", "", "");
    let parent = lab.root.join("parent").join("BENCHMARK.json");
    fs::write(&parent, format!("{BENCHMARK}\n")).unwrap();
    let differing = lab.ab(&[]);
    fs::write(&parent, BENCHMARK).unwrap();
    let missing = Command::new(env!("CARGO_BIN_EXE_lrc-bench"))
        .args(["ab", "--parent", "no-such-checkout", "--change", "no-such-checkout"])
        .args(["--workload", "check-lazy"])
        .output()
        .unwrap();
    let mut cases = vec![
        ("differing BENCHMARK.json", differing, ""),
        ("missing checkout", missing, ""),
        ("--pairs 0", lab.ab(&["--pairs", "0"]), ""),
        ("unknown workload", lab.ab(&["--workload", "nope"]), ""),
    ];
    // A BENCHMARK.json that `ab` cannot use: each case names its field.
    let metrics = &BENCHMARK[BENCHMARK.find("\"end_to_end\"").unwrap()..BENCHMARK.rfind('}').unwrap()];
    for (case, from, to, field) in [
        ("run_seconds 0", "\"run_seconds\": 25", "\"run_seconds\": 0", "run_seconds"),
        ("no end_to_end metric", metrics, "\"end_to_end\": []\n", "end_to_end"),
        ("a negative bound", "\"bound\": 0.25", "\"bound\": -0.5", "run_s: bound"),
        ("an infinite bound", "\"bound\": 0.25", "\"bound\": 1e999", "run_s: bound"),
    ] {
        let text = BENCHMARK.replacen(from, to, 1);
        assert!(lrc_json::parse(&text).is_ok(), "{case}: {text}");
        lab.benchmark(text.as_bytes());
        cases.push((case, lab.ab(&[]), field));
    }
    for (case, out, field) in cases {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains(field), "{case} names {field}: {stderr}");
    }
    assert!(lab.order().is_empty(), "no run starts: {:?}", lab.order());
}

/// A stub result and its provenance, as perfbench prints them.
const LINES: &str = concat!(
    r#"{"perfbench":{"provenance":{"git_commit":"c","definition_hash":"d","host_cpus":2}}}"#,
    "\n",
    r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":2},"#,
    r#""peak_rss_mib":{"value":100},"sim_mcycles_per_s":{"value":50}}}"#,
    "\n"
);

/// One seeded mutant of `text`, one JSON document or (`per_line`) one per
/// line: truncated, a bit flipped, two siblings' values swapped, or a
/// numeric leaf replaced by 0, 1, -1, 2^53, 10^12 or 1e999 (the last parses
/// as infinity).
fn mutant(text: &str, per_line: bool, rng: &mut lrc_sim::Rng) -> Vec<u8> {
    let docs = if per_line { text.lines().collect() } else { vec![text] };
    let docs: Vec<Value> = docs.into_iter().map(|d| lrc_json::parse(d).unwrap()).collect();
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(4) {
        0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        1 => bytes[rng.below(text.len() as u64) as usize] ^= 1 << rng.below(8),
        op => {
            // Every array or object with two children (for a swap), or
            // every number (for a leaf), as a path of child indices.
            fn paths(v: &Value, at: &mut Vec<usize>, swap: bool, out: &mut Vec<Vec<usize>>) {
                let kids: Vec<&Value> = match v {
                    Value::Array(items) => items.iter().collect(),
                    Value::Object(fields) => fields.iter().map(|(_, x)| x).collect(),
                    Value::Num(_) if !swap => return out.push(at.clone()),
                    _ => return,
                };
                if swap && kids.len() >= 2 {
                    out.push(at.clone());
                }
                for (i, kid) in kids.into_iter().enumerate() {
                    at.push(i);
                    paths(kid, at, swap, out);
                    at.pop();
                }
            }
            fn node<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
                path.iter().fold(v, |v, &i| match v {
                    Value::Array(items) => &mut items[i],
                    Value::Object(fields) => &mut fields[i].1,
                    _ => unreachable!("paths lead through containers"),
                })
            }
            let mut docs = docs;
            let d = rng.below(docs.len() as u64) as usize;
            let mut found = Vec::new();
            paths(&docs[d], &mut Vec::new(), op == 2, &mut found);
            if !found.is_empty() {
                let target = node(&mut docs[d], &found[rng.below(found.len() as u64) as usize]);
                let literal = ["0", "1", "-1", "9007199254740992", "1000000000000", "1e999"];
                match target {
                    Value::Array(items) => {
                        let (i, j) = (rng.below(items.len() as u64), rng.below(items.len() as u64));
                        items.swap(i as usize, j as usize);
                    }
                    Value::Object(fields) => {
                        let (i, j) = (rng.below(fields.len() as u64), rng.below(fields.len() as u64));
                        let vi = std::mem::replace(&mut fields[i as usize].1, Value::Null);
                        fields[i as usize].1 = std::mem::replace(&mut fields[j as usize].1, vi);
                    }
                    leaf => *leaf = Value::Str("@leaf@".into()),
                }
                let lit = literal[rng.below(literal.len() as u64) as usize];
                let lines: Vec<String> =
                    docs.iter().map(|v| v.dump().replace("\"@leaf@\"", lit) + "\n").collect();
                bytes = lines.concat().into_bytes();
            }
        }
    }
    bytes
}

/// Seeded mutants of what `ab` reads: the benchmark definition (the same
/// mutant on both sides) and one side's provenance and result lines. Each
/// runs one pair and must end as a usage error, a named failed run, or a
/// point written with exit 0 or 1; never a panic.
#[test]
fn mutated_benchmarks_and_result_lines_never_panic_ab() {
    let lab = Lab::new("mutants", "", "");
    for side in ["parent", "change"] {
        fs::write(lab.root.join(side).join("stub.sh"), "cat lines.txt\n").unwrap();
    }
    let mut rng = lrc_sim::Rng::new(0xab_0001);
    let mut outcomes = [0; 4];
    for i in 0..240 {
        let (bench, lines) = if i % 2 == 0 {
            (mutant(BENCHMARK, false, &mut rng), LINES.as_bytes().to_vec())
        } else {
            (BENCHMARK.as_bytes().to_vec(), mutant(LINES, true, &mut rng))
        };
        lab.benchmark(&bench);
        let mutated = ["parent", "change"][rng.below(2) as usize];
        for side in ["parent", "change"] {
            let text = if side == mutated { &lines } else { LINES.as_bytes() };
            fs::write(lab.root.join(side).join("lines.txt"), text).unwrap();
        }
        let _ = fs::remove_file(lab.root.join("point.json"));
        let out = lab.ab(&["--pairs", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let written = lab.root.join("point.json").exists();
        let shown = format!(
            "mutant {i}: exit {:?}\n{}\n{}\n{stderr}",
            out.status.code(),
            String::from_utf8_lossy(&bench),
            String::from_utf8_lossy(&lines)
        );
        let k = match out.status.code() {
            Some(0) if written => 0,
            Some(1) if written => 1,
            Some(1) if stderr.contains(" run of pair 0 (seed ") && stderr.contains(") failed: ") => 2,
            Some(2) => 3,
            _ => panic!("{shown}"),
        };
        outcomes[k] += 1;
    }
    // Usage errors, failed runs and points all occur, so the mutants reach
    // past the definition.
    assert!(outcomes[0] + outcomes[1] > 0 && outcomes[2] > 0 && outcomes[3] > 0, "{outcomes:?}");
}
