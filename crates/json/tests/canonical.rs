//! Property tests for canonical serialization: the canonical dump of an
//! object must be byte-stable under any permutation of key insertion
//! order, at every nesting depth. And seeded mutants of documents (random
//! ones and the repo's own) must parse or fail with a typed `ParseError`,
//! never panic or overflow the stack. Randomized with a seeded SplitMix64
//! so failures reproduce.

use lrc_json::{canonical_dump, json, parse, Value, MAX_DEPTH};

/// SplitMix64 — the same tiny deterministic generator the stats layer
/// uses, re-implemented here because lrc-json must stay dependency-free.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Fisher–Yates over a vector of object fields.
fn shuffle<T>(items: &mut [T], rng: &mut Mix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Recursively permute the insertion order of every object in `v`.
fn permute(v: &Value, rng: &mut Mix) -> Value {
    match v {
        Value::Object(fields) => {
            let mut fields: Vec<(String, Value)> =
                fields.iter().map(|(k, x)| (k.clone(), permute(x, rng))).collect();
            shuffle(&mut fields, rng);
            Value::Object(fields)
        }
        Value::Array(items) => Value::Array(items.iter().map(|x| permute(x, rng)).collect()),
        other => other.clone(),
    }
}

/// A random JSON document with nested objects/arrays, depth-bounded.
fn random_doc(rng: &mut Mix, depth: usize) -> Value {
    match if depth == 0 { rng.below(4) } else { rng.below(6) } {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Num(rng.below(100_000) as f64 / 7.0),
        3 => Value::Str(format!("s{}", rng.below(1000))),
        4 => Value::Array((0..rng.below(5)).map(|_| random_doc(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(6)).map(|i| (format!("k{}_{i}", rng.below(20)), random_doc(rng, depth - 1))).collect(),
        ),
    }
}

#[test]
fn canonical_dump_is_byte_stable_across_insertion_orders() {
    let mut rng = Mix(0xC0DE);
    for case in 0..200 {
        let doc = random_doc(&mut rng, 4);
        let reference = canonical_dump(&doc);
        for round in 0..8 {
            let shuffled = permute(&doc, &mut rng);
            assert_eq!(
                canonical_dump(&shuffled),
                reference,
                "case {case} round {round}: canonical dump depends on insertion order\ndoc: {}",
                doc.dump()
            );
        }
    }
}

#[test]
fn canonical_dump_survives_a_parse_round_trip() {
    let mut rng = Mix(0x5EED);
    for _ in 0..100 {
        let doc = random_doc(&mut rng, 3);
        let dumped = canonical_dump(&doc);
        let reparsed = parse(&dumped).expect("canonical output parses");
        assert_eq!(canonical_dump(&reparsed), dumped, "round trip changed bytes");
    }
}

#[test]
fn canonical_dump_sorts_keys_and_keeps_array_order() {
    let a = json!({ "b": 1, "a": [3, 1, 2], "c": { "z": 0, "y": 1 } });
    assert_eq!(canonical_dump(&a), r#"{"a":[3,1,2],"b":1,"c":{"y":1,"z":0}}"#);
}

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

/// How deep arrays and objects nest in `v`.
fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(fields) => 1 + fields.iter().map(|(_, x)| depth(x)).max().unwrap_or(0),
        _ => 0,
    }
}

/// What numeric leaves are set to: 0, 1, 2^53 and 10^12.
const NUMBERS: [f64; 4] = [0.0, 1.0, 9_007_199_254_740_992.0, 1e12];

/// A seeded mutant of `doc` (whose text is `text`), its description, and
/// the value it must parse to (`None`: any `Ok` or typed error will do).
fn mutant(doc: &Value, text: &str, rng: &mut Mix) -> (String, String, Option<Value>) {
    let mut paths = Vec::new();
    node_paths(doc, &mut Vec::new(), &mut paths);
    let mut v = doc.clone();
    match rng.below(5) {
        0 => {
            let i = rng.below(text.len() + 1);
            let cut = String::from_utf8_lossy(&text.as_bytes()[..i]).into_owned();
            (format!("truncated at byte {i}"), cut, None)
        }
        1 => {
            let (i, bit) = (rng.below(text.len()), rng.below(8));
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 1 << bit;
            let flipped = String::from_utf8_lossy(&bytes).into_owned();
            (format!("bit {bit} of byte {i} flipped"), flipped, None)
        }
        2 => {
            let path = &paths[rng.below(paths.len())];
            let what = match node_mut(&mut v, path) {
                Value::Array(items) if items.len() > 1 => {
                    let (a, b) = (rng.below(items.len()), rng.below(items.len()));
                    items.swap(a, b);
                    format!("items {a} and {b} of {path:?} swapped")
                }
                Value::Object(fields) if fields.len() > 1 => {
                    let (a, b) = (rng.below(fields.len()), rng.below(fields.len()));
                    fields.swap(a, b);
                    format!("fields {a} and {b} of {path:?} swapped")
                }
                _ => format!("{path:?} left as it is"),
            };
            (what, v.dump(), Some(v))
        }
        3 => {
            let leaves: Vec<&Vec<usize>> =
                paths.iter().filter(|p| matches!(node_mut(&mut v, p), Value::Num(_))).collect();
            let what = match leaves.get(rng.below(leaves.len())) {
                Some(&path) => {
                    let n = NUMBERS[rng.below(NUMBERS.len())];
                    *node_mut(&mut v, path) = Value::Num(n);
                    format!("{path:?} set to {n}")
                }
                None => "no numeric leaf".to_string(),
            };
            (what, v.dump(), Some(v))
        }
        _ => {
            let path = &paths[rng.below(paths.len())];
            let levels = 1 + rng.below(2 * MAX_DEPTH);
            let node = node_mut(&mut v, path);
            for _ in 0..levels {
                *node = Value::Array(vec![std::mem::replace(node, Value::Null)]);
            }
            (format!("{path:?} nested {levels} arrays deeper"), v.dump(), Some(v))
        }
    }
}

/// Parse `text`: an `expected` value must come back exactly unless it
/// nests past `MAX_DEPTH`, and anything else must end in `Ok` or a
/// `ParseError` inside the text. Returns a description of a violation.
fn judge(text: &str, expected: Option<&Value>) -> Option<String> {
    let parsed = std::panic::catch_unwind(|| parse(text));
    match (parsed, expected) {
        (Err(_), _) => Some("parse panicked".to_string()),
        (Ok(Err(e)), _) if e.at > text.len() => Some(format!("error past the text: {e}")),
        (Ok(got), Some(want)) if depth(want) > MAX_DEPTH => match got {
            Err(e) if e.msg == "arrays and objects nest too deep" => None,
            other => Some(format!("nesting {} deep gave {other:?}", depth(want))),
        },
        (Ok(got), Some(want)) => (got.as_ref() != Ok(want)).then(|| format!("got {got:?}")),
        (Ok(_), None) => None,
    }
}

#[test]
fn mutated_documents_parse_or_fail_typed() {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let files = ["tests/fixtures/wedge-unrecoverable-seed1.json", "BENCHMARK.json"];
    let mut docs: Vec<String> =
        files.iter().map(|f| std::fs::read_to_string(format!("{repo}/{f}")).expect(f)).collect();
    let mut rng = Mix(0xF422);
    docs.extend((0..40).map(|i| {
        let doc = random_doc(&mut rng, 5);
        if i % 2 == 0 {
            doc.dump()
        } else {
            doc.pretty()
        }
    }));
    let (mut failures, mut parsed, mut rejected) = (Vec::new(), 0, 0);
    for (n, text) in docs.iter().enumerate() {
        let doc = parse(text).expect("every seed document parses");
        let rounds = if text.len() > 100_000 { 10 } else { 25 };
        for round in 0..rounds {
            let (what, mutated, expected) = mutant(&doc, text, &mut rng);
            match judge(&mutated, expected.as_ref()) {
                Some(why) => failures.push(format!("document {n} round {round}, {what}: {why}")),
                None if parse(&mutated).is_ok() => parsed += 1,
                None => rejected += 1,
            }
        }
    }
    assert!(failures.is_empty(), "{} mutants misparsed:\n{}", failures.len(), failures.join("\n"));
    assert!(parsed > 0 && rejected > 0, "mutations must both pass and bite");
}
