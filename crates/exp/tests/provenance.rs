//! Provenance invariants: the configuration hash must depend on the
//! *content* of params/config, never on field insertion order — the
//! store must round-trip artifacts by canonical content hash, and a stored
//! run must name the machine it simulated.

use lrc_exp::{config_hash, IndexEntry, RunManifest, Store};
use lrc_json::{json, Value};
use std::process::{Command, Stdio};

/// Every rotation of an object's field list is the same object.
fn rotations(v: &Value) -> Vec<Value> {
    let Value::Object(fields) = v else { return vec![v.clone()] };
    (0..fields.len().max(1))
        .map(|r| {
            let mut rotated = fields.clone();
            rotated.rotate_left(r);
            Value::Object(rotated)
        })
        .collect()
}

#[test]
fn config_hash_is_invariant_under_field_reordering() {
    let params = json!({ "scale": "paper", "procs": 64, "seed": 3 });
    let config = json!({
        "cache_kb": 128,
        "line_bytes": 128,
        "mesh": { "width": 8, "height": 8 },
        "latencies": { "mem": 20, "net_hop": 2 },
    });
    let reference = config_hash("fig4", &params, &config);
    for p in rotations(&params) {
        for c in rotations(&config) {
            assert_eq!(
                config_hash("fig4", &p, &c),
                reference,
                "hash depends on field order\nparams: {}\nconfig: {}",
                p.dump(),
                c.dump()
            );
        }
    }
    // And it must NOT be invariant under content changes.
    let other = json!({ "scale": "paper", "procs": 32, "seed": 3 });
    assert_ne!(config_hash("fig4", &other, &config), reference);
    assert_ne!(config_hash("fig5", &params, &config), reference);
}

#[test]
fn store_round_trips_artifacts_and_manifests() {
    let root = std::env::temp_dir().join(format!("lrc-exp-prov-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("open store");

    let artifact = json!({ "id": "fig4", "title": "t", "text": "x", "json": { "rows": [] } });
    let hash = store.put(&artifact).expect("put artifact");
    // Idempotent: same content, same name, no error.
    assert_eq!(store.put(&artifact).expect("re-put"), hash);
    // Insertion order must not change the address.
    let reordered = json!({ "title": "t", "id": "fig4", "json": { "rows": [] }, "text": "x" });
    assert_eq!(store.put(&reordered).expect("put reordered"), hash);

    let params = json!({ "scale": "tiny", "procs": 8, "seed": 0 });
    let manifest = RunManifest::new("fig4", params, json!({ "procs": 8 }), &hash, 1_754_700_000);
    let mhash = store.put(&lrc_json::ToJson::to_json(&manifest)).expect("put manifest");
    store
        .record(IndexEntry {
            experiment: "fig4".into(),
            scale: "tiny".into(),
            procs: 8,
            seed: 0,
            config_hash: manifest.config_hash.clone(),
            artifact: hash.clone(),
            manifest: mhash,
            migrated: false,
            timestamp: 1_754_700_000,
        })
        .expect("record");

    let entries = store.entries().expect("entries");
    assert_eq!(entries.len(), 1);
    let back = store.manifest(&entries[0]).expect("manifest decodes");
    assert_eq!(back.experiment, "fig4");
    assert_eq!(back.config_hash, manifest.config_hash);
    let blob = store.get(&hash).expect("get artifact");
    assert_eq!(blob["id"].as_str(), Some("fig4"));

    let _ = std::fs::remove_dir_all(&root);
}

/// Run `lrc-exp` with `args` into a fresh store, require `report --check`
/// to find it current, and return the store's one index row and manifest.
fn stored_run(name: &str, args: &[&str]) -> (IndexEntry, RunManifest) {
    let root = std::env::temp_dir().join(format!("lrc-exp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let exp = |args: &[&str]| {
        let status = Command::new(env!("CARGO_BIN_EXE_lrc-exp"))
            .args(args)
            .args(["--store", root.to_str().unwrap()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("lrc-exp starts");
        assert!(status.success(), "lrc-exp {args:?} exited {status}");
    };
    exp(&[args, &["--timestamp", "1754700000", "--quiet"]].concat());
    exp(&["report", "--check"]);
    let store = Store::open(&root).expect("open store");
    let rows = store.entries().expect("index decodes");
    assert_eq!(rows.len(), 1);
    let manifest = store.manifest(&rows[0]).expect("manifest decodes");
    let _ = std::fs::remove_dir_all(&root);
    (rows[0].clone(), manifest)
}

#[test]
fn a_stored_run_names_the_machine_it_simulated() {
    // mesh256 simulates 256 nodes whatever --procs says (64 by default).
    let (row, manifest) = stored_run("mesh256", &["mesh256", "--scale", "tiny"]);
    assert_eq!(row.procs, 256);
    assert_eq!(manifest.config["num_procs"].as_u64(), Some(256));
    // Figures 8 and 9 run the future machine, with 256-byte lines.
    let (row, manifest) = stored_run("fig8", &["fig8", "--scale", "tiny", "--procs", "8"]);
    assert_eq!(row.procs, 8);
    assert_eq!(manifest.config["line_size"].as_u64(), Some(256));
    // A single Table 1 machine is recorded as before: one config object.
    let (row, manifest) = stored_run("table1", &["table1", "--scale", "tiny", "--procs", "8"]);
    assert_eq!(row.procs, 8);
    assert_eq!(manifest.config["line_size"].as_u64(), Some(128));
}
