//! The store's index and manifests are external input: a committed store,
//! a copied one, a hand edit. Seeded mutants of a real store's
//! `index.json`, and of its manifests (each written under its own hash,
//! with the index pointed at it), must each decode and rewrite, fail with
//! a typed `StoreError`, or fail the staleness check with a
//! `CheckFailure`: never panic, abort, or allocate a size read from the
//! input.

use lrc_exp::sha::sha256_hex;
use lrc_exp::{current_config_hash, Store, ALL_IDS};
use lrc_json::Value;
use lrc_sim::Rng;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What numeric leaves are set to: 0, 1, 2^53 and 10^12.
const NUMBERS: [f64; 4] = [0.0, 1.0, 9_007_199_254_740_992.0, 1e12];

/// The path (child positions) of every node of `v`, `v` itself first.
fn node_paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, x)| x).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        node_paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Array(items) => &mut items[i],
        Value::Object(fields) => &mut fields[i].1,
        _ => unreachable!("a path runs through containers"),
    })
}

/// A seeded mutant of `doc`'s pretty text: truncated, a bit flipped, two
/// siblings swapped, a numeric leaf set to one of [`NUMBERS`], or a node
/// nested 200 arrays deeper.
fn mutate(doc: &Value, rng: &mut Rng) -> (String, Vec<u8>) {
    let below = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
    let text = doc.pretty().into_bytes();
    let mut paths = Vec::new();
    node_paths(doc, &mut Vec::new(), &mut paths);
    let path = paths[below(rng, paths.len())].clone();
    let mut v = doc.clone();
    let what = match rng.below(5) {
        0 => {
            let i = below(rng, text.len());
            return (format!("truncated at byte {i}"), text[..i].to_vec());
        }
        1 => {
            let (i, bit) = (below(rng, text.len()), rng.below(8));
            let mut out = text;
            out[i] ^= 1 << bit;
            return (format!("bit {bit} of byte {i} flipped"), out);
        }
        2 => match node_mut(&mut v, &path) {
            Value::Array(items) if items.len() > 1 => {
                let last = items.len() - 1;
                items.swap(0, last);
                format!("first and last items of {path:?} swapped")
            }
            Value::Object(fields) if fields.len() > 1 => {
                let (a, b) = (below(rng, fields.len()), below(rng, fields.len()));
                let (ka, kb) = (fields[a].0.clone(), fields[b].0.clone());
                (fields[a].1, fields[b].1) = (fields[b].1.clone(), fields[a].1.clone());
                format!("the values of {ka} and {kb} in {path:?} swapped")
            }
            _ => format!("{path:?} left as it is"),
        },
        3 => {
            let n = NUMBERS[below(rng, NUMBERS.len())];
            let leaves: Vec<&Vec<usize>> =
                paths.iter().filter(|p| matches!(node_mut(&mut v, p), Value::Num(_))).collect();
            match leaves.get(below(rng, leaves.len())) {
                Some(&leaf) => {
                    *node_mut(&mut v, leaf) = Value::Num(n);
                    format!("{leaf:?} set to {n}")
                }
                None => "no numeric leaf".to_string(),
            }
        }
        _ => {
            let node = node_mut(&mut v, &path);
            for _ in 0..200 {
                *node = Value::Array(vec![std::mem::replace(node, Value::Null)]);
            }
            format!("{path:?} nested 200 arrays deeper")
        }
    };
    (what, v.pretty().into_bytes())
}

/// Decode everything the store holds, run the staleness check, and
/// rewrite the index (which renders every row into INDEX.md). Returns
/// whether every step came back clean: decodes and no failures.
fn walk(store: &Store) -> bool {
    let Ok(entries) = store.entries() else {
        return false;
    };
    let manifests = entries.iter().filter(|e| store.manifest(e).is_ok()).count();
    let failures = store.check(&ALL_IDS, &current_config_hash);
    let rewritten = entries.first().map_or(Ok(()), |e| store.record(e.clone()));
    manifests == entries.len() && failures.is_ok_and(|f| f.is_empty()) && rewritten.is_ok()
}

/// A store of two real runs: `table1`, which records one machine, and
/// `scaling`, which records three.
fn reference_store() -> PathBuf {
    let root = std::env::temp_dir().join(format!("lrc-exp-store-mut-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let status = Command::new(env!("CARGO_BIN_EXE_lrc-exp"))
        .args(["table1", "scaling", "--scale", "tiny", "--procs", "8", "--quiet"])
        .args(["--timestamp", "1754700000", "--store", root.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("lrc-exp starts");
    assert!(status.success());
    root
}

#[test]
fn mutated_indexes_and_manifests_decode_or_fail_typed() {
    let root = reference_store();
    let store = Store::open(&root).unwrap();
    assert!(walk(&store), "the unmutated store is current");
    let index_path = root.join("index.json");
    let index_text = fs::read_to_string(&index_path).unwrap();
    let index = lrc_json::parse(&index_text).unwrap();
    let mut rng = Rng::new(0x5707e);
    let (mut clean, mut bitten, mut panicked) = (0, 0, Vec::new());
    for n in 0..240 {
        let (what, index_bytes) = if n % 2 == 0 {
            let (what, bytes) = mutate(&index, &mut rng);
            (format!("index.json {what}"), bytes)
        } else {
            // A mutated manifest under its own name, the index pointed at it.
            let row = rng.below(2) as usize;
            let entry = &index["entries"][row];
            let manifest = store.get(entry["manifest"].as_str().unwrap()).unwrap();
            let (what, bytes) = mutate(&manifest, &mut rng);
            let parsed = std::str::from_utf8(&bytes).ok().and_then(|t| lrc_json::parse(t).ok());
            let name = match parsed {
                Some(v) => store.put(&v).unwrap(),
                None => {
                    let name = sha256_hex(&bytes);
                    fs::write(store.object_path(&name), &bytes).unwrap();
                    name
                }
            };
            let mut rows = index["entries"].as_array().unwrap().to_vec();
            rows[row].set("manifest", name);
            let mut pointed = index.clone();
            pointed.set("entries", Value::Array(rows));
            (format!("manifest of row {row} {what}"), pointed.pretty().into_bytes())
        };
        fs::write(&index_path, &index_bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| walk(&store))) {
            Ok(true) => clean += 1,
            Ok(false) => bitten += 1,
            Err(_) => panicked.push(what),
        }
    }
    fs::write(&index_path, index_text).unwrap();
    assert!(panicked.is_empty(), "store walks panicked on:\n{}", panicked.join("\n"));
    assert!(clean > 0 && bitten > 0, "mutations must both pass and bite ({clean}, {bitten})");
    fs::remove_dir_all(&root).unwrap();
}
