//! `lrc-soak`'s checkpoint directory and wedge dumps are external input.
//! Seeded mutants of one `--smoke --checkpoint-dir` run's cell markers,
//! `sweep.json` and wedge envelope must each end `--resume` or `--replay`
//! with a verdict (exit 0 or 1) or a usage error (exit 2): never a panic,
//! a signal, or an allocation sized from the input.

use lrc_json::Value;
use lrc_sim::Rng;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What numeric leaves are set to: 0, 1, 2^53, 10^12 and, for the
/// decimal-string fields, `u64::MAX`.
const NUMBERS: [&str; 5] = ["0", "1", "9007199254740992", "1000000000000", "18446744073709551615"];

/// lrc-soak's exit code for `args`, run in `dir` (`None`: a signal).
fn soak(dir: &Path, args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_lrc-soak"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("lrc-soak starts")
        .code()
}

/// `bytes` truncated at, or with one bit flipped in, a seeded byte.
fn damage(bytes: &[u8], rng: &mut Rng) -> (String, Vec<u8>) {
    let mut out = bytes.to_vec();
    let i = rng.below(out.len() as u64) as usize;
    if rng.below(2) == 0 {
        out.truncate(i);
        (format!("truncated at byte {i}"), out)
    } else {
        let bit = rng.below(8);
        out[i] ^= 1 << bit;
        (format!("bit {bit} of byte {i} flipped"), out)
    }
}

/// `doc` with the leaf at `path` set to `leaf`, each `number` as a JSON
/// number and as a decimal string.
fn with_leaf(doc: &Value, path: &[&str], number: &str) -> [(String, Vec<u8>); 2] {
    let leaf = |v: Value| {
        let mut doc = doc.clone();
        let at = path.iter().fold(&mut doc, |at, key| match at {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        });
        *at = v;
        doc.pretty().into_bytes()
    };
    let n: f64 = number.parse().unwrap();
    [
        (format!("{} = {number}", path.join(".")), leaf(Value::Num(n))),
        (format!("{} = \"{number}\"", path.join(".")), leaf(Value::Str(number.to_string()))),
    ]
}

/// A fresh scratch directory for this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrc-soak-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Require every mutant's exit to be 0, 1 or 2, and return how many ended
/// in a verdict (0 or 1) and how many in a usage error (2).
fn judge(mutants: &[(String, Option<i32>)]) -> (usize, usize) {
    let bad: Vec<String> = mutants
        .iter()
        .filter(|(_, code)| !matches!(code, Some(0..=2)))
        .map(|(what, code)| format!("{what}: exited {code:?}"))
        .collect();
    assert!(bad.is_empty(), "lrc-soak neither judged nor refused:\n{}", bad.join("\n"));
    let refused = mutants.iter().filter(|(_, code)| *code == Some(2)).count();
    (mutants.len() - refused, refused)
}

#[test]
fn mutated_journals_and_wedge_dumps_end_in_a_verdict_or_a_usage_error() {
    let root = scratch("mutations");
    assert_eq!(soak(&root, &["--smoke", "--quiet", "--checkpoint-dir", "ref"]), Some(0));
    let reference = root.join("ref");
    let mut rng = Rng::new(0x5EED_50A4);

    // The wedge envelope the unrecoverable stage dumped, replayed.
    let text = fs::read(reference.join("wedge-unrecoverable-seed1.json")).unwrap();
    let env = lrc_json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
    let mut dumps: Vec<(String, Vec<u8>)> = (0..12).map(|_| damage(&text, &mut rng)).collect();
    for kind in [Value::from("lrc-soak-wedged"), Value::Num(1.0), Value::Null] {
        let mut doc = env.clone();
        doc.set("kind", kind.clone());
        dumps.push((format!("kind = {}", kind.dump()), doc.pretty().into_bytes()));
    }
    let leaves: [&[&str]; 4] = [
        &["script", "seed"],
        &["script", "phases"],
        &["script", "csecs"],
        &["snapshot", "config", "num_procs"],
    ];
    for path in leaves {
        for number in &NUMBERS[..4] {
            dumps.extend(with_leaf(&env, path, number));
        }
    }
    let replays: Vec<(String, Option<i32>)> = dumps
        .into_iter()
        .enumerate()
        .map(|(n, (what, bytes))| {
            let file = root.join(format!("wedge-{n}.json"));
            fs::write(&file, bytes).unwrap();
            (
                format!("replay of {what}"),
                soak(&root, &["--replay", file.to_str().unwrap(), "--quiet"]),
            )
        })
        .collect();
    let (judged, refused) = judge(&replays);
    assert!(judged > 0 && refused > 0, "replay mutations must both pass and bite");

    // One file of the journal mutated, then the sweep resumed over it.
    let mut files: Vec<String> = fs::read_dir(&reference)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("cell-") || f == "sweep.json")
        .collect();
    files.sort();
    let mut resumes = Vec::new();
    for n in 0..30 {
        let name = &files[rng.below(files.len() as u64) as usize];
        let text = fs::read(reference.join(name)).unwrap();
        let doc = lrc_json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let (what, bytes) = if rng.below(2) == 0 {
            damage(&text, &mut rng)
        } else {
            let key = keys[rng.below(keys.len() as u64) as usize];
            let number = NUMBERS[rng.below(NUMBERS.len() as u64) as usize];
            let [num, dec] = with_leaf(&doc, &[key], number);
            if rng.below(2) == 0 {
                num
            } else {
                dec
            }
        };
        let dir = root.join(format!("resume-{n}"));
        fs::create_dir_all(&dir).unwrap();
        for f in fs::read_dir(&reference).unwrap() {
            let f = f.unwrap().path();
            fs::copy(&f, dir.join(f.file_name().unwrap())).unwrap();
        }
        fs::write(dir.join(name), bytes).unwrap();
        let code = soak(&root, &["--smoke", "--quiet", "--resume", dir.to_str().unwrap()]);
        resumes.push((format!("resume with {name}: {what}"), code));
    }
    let (judged, refused) = judge(&resumes);
    assert!(judged > 0 && refused > 0, "journal mutations must both pass and bite");
    fs::remove_dir_all(&root).unwrap();
}

/// A wedge dump nested 100,000 arrays deep (a 200,001-byte file) is a usage
/// error, not a stack overflow in the parser.
#[test]
fn deeply_nested_replay_file_is_a_usage_error() {
    let root = scratch("deep");
    let file = root.join("deep.json");
    fs::write(&file, "[".repeat(100_000) + &"]".repeat(100_000) + "\n").unwrap();
    assert_eq!(fs::metadata(&file).unwrap().len(), 200_001);
    assert_eq!(soak(&root, &["--replay", file.to_str().unwrap(), "--quiet"]), Some(2));
    fs::remove_dir_all(&root).unwrap();
}
