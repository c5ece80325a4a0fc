//! Experiment CLI.
//!
//! Run experiments (optionally across seeds, into the artifact store):
//!
//! ```text
//! lrc-exp <experiment ...|all> [--scale paper|medium|small|tiny] [--procs N]
//!         [--threads N] [--seeds N] [--store DIR] [--timestamp T]
//!         [--json DIR] [--trace-dir DIR] [--quiet]
//! ```
//!
//! Build the paper report from a store, check staleness, or regenerate the
//! EXPERIMENTS.md index:
//!
//! ```text
//! lrc-exp report [--store DIR] [--out FILE] [--baseline SERIES] [--check]
//!                [--index-md PATH]
//! ```
//!
//! `--trace-dir DIR` splits the `observe` experiment's artifacts into
//! standalone files: `observe.perfetto.json` (load in Perfetto / Chrome
//! `about:tracing`), `observe.jsonl`, `observe.timeseries.csv`, and
//! `observe.latency.json`.

#![forbid(unsafe_code)]

use lrc_core::NodeSet;
use lrc_exp::{
    config_hash, experiments, flag_number, paper_stats, prepare_out_dir, render_html,
    report_json, resolve_timestamp, splice_index_md, utf8_args, IndexEntry, Params, ReportMeta,
    RunManifest, Runner, Store,
};
use lrc_json::ToJson;
use lrc_sim::MachineConfig;
use lrc_workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let args = utf8_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(usage())
    });
    let code = match args.first().map(String::as_str) {
        Some("report") => report_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "usage: lrc-exp <experiment ...|all> [--scale paper|medium|small|tiny] [--procs N] \
         [--threads N] [--seeds N] [--store DIR] [--timestamp T] [--json DIR] \
         [--trace-dir DIR] [--quiet]\n\
         \x20      lrc-exp report [--store DIR] [--out FILE] [--baseline SERIES] [--check] \
         [--index-md PATH]"
    );
    eprintln!("experiments: {}", experiments::ALL_IDS.join(" "));
    2
}

/// Parse the value following a flag, exiting with usage on absence.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("{flag} requires a value");
            exit(2);
        }
    }
}

/// Parse the numeric value following a flag, exiting with a usage error
/// that names the flag and the value when it is not a number in `range`.
fn number<T, R>(args: &[String], i: &mut usize, flag: &str, range: R) -> T
where
    T: std::str::FromStr + PartialOrd,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    flag_number(flag, flag_value(args, i, flag), range).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

/// Validate an output-directory flag up front, exiting with the typed
/// error (which names the flag) on failure.
fn checked_dir(flag: &'static str, path: &str) -> PathBuf {
    match prepare_out_dir(flag, Path::new(path)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    }
}

fn open_store(flag: &'static str, path: &str) -> Store {
    let root = checked_dir(flag, path);
    match Store::open(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// `lrc-exp <ids...>` — run experiments.
// ---------------------------------------------------------------------------

fn run_cmd(args: &[String]) -> i32 {
    let mut ids: Vec<String> = Vec::new();
    let mut params = Params::default();
    let mut threads = 0usize;
    let mut seeds = 1u64;
    let mut json_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut timestamp: Option<u64> = None;
    let mut verbose = true;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = flag_value(args, &mut i, "--scale");
                params.scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}'");
                    exit(2);
                });
            }
            "--procs" => params.procs = number(args, &mut i, "--procs", 1..=NodeSet::CAPACITY),
            "--threads" => threads = number(args, &mut i, "--threads", 0..),
            "--seeds" => seeds = number(args, &mut i, "--seeds", 1..),
            "--timestamp" => timestamp = Some(number(args, &mut i, "--timestamp", 0..)),
            "--json" => json_dir = Some(flag_value(args, &mut i, "--json").to_string()),
            "--trace-dir" => trace_dir = Some(flag_value(args, &mut i, "--trace-dir").to_string()),
            "--store" => store_dir = Some(flag_value(args, &mut i, "--store").to_string()),
            "--quiet" => verbose = false,
            "all" => ids.extend(experiments::ALL_IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }

    if ids.is_empty() {
        return usage();
    }

    // Validate every output path before any (expensive) simulation runs.
    if let Some(dir) = &json_dir {
        checked_dir("--json", dir);
    }
    if let Some(dir) = &trace_dir {
        checked_dir("--trace-dir", dir);
    }
    let store = store_dir.as_ref().map(|dir| open_store("--store", dir));
    let ts = resolve_timestamp(timestamp);

    let runner = Runner::new(threads, verbose);
    for seed in 0..seeds {
        params.seed = seed;
        if verbose && seeds > 1 {
            eprintln!("== seed {seed}");
        }
        for id in &ids {
            let Some(report) = experiments::run_by_id(id, &runner, params) else {
                eprintln!("unknown experiment '{id}' (have: {})", experiments::ALL_IDS.join(" "));
                return 2;
            };
            // The canonical seed keeps the legacy behavior: print the
            // paper-style tables and write the standalone JSON files.
            if seed == 0 {
                report.print();
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{id}.json");
                    std::fs::write(&path, report.to_json().pretty()).expect("write json");
                    eprintln!("wrote {path}");
                }
                if id == "observe" {
                    if let Some(dir) = &trace_dir {
                        write_trace_artifacts(dir, &report.json);
                    }
                }
            }
            if let Some(store) = &store {
                match store_run(store, id, &params, &report, ts) {
                    Ok(hash) => {
                        if verbose {
                            eprintln!("stored {id} seed {seed} -> {}", &hash[..12.min(hash.len())]);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
        }
    }
    0
}

/// Persist one run: artifact blob, fresh manifest, index row. Returns the
/// artifact hash.
fn store_run(
    store: &Store,
    id: &str,
    params: &Params,
    report: &lrc_exp::Report,
    timestamp: u64,
) -> Result<String, lrc_exp::StoreError> {
    let artifact = report.to_json();
    let artifact_hash = store.put(&artifact)?;
    let config = MachineConfig::paper_default(params.procs).to_json();
    let manifest = RunManifest::new(id, params.to_json(), config, &artifact_hash, timestamp);
    let manifest_hash = store.put(&manifest.to_json())?;
    store.record(IndexEntry {
        experiment: id.to_string(),
        scale: params.scale.name().to_string(),
        procs: params.procs as u64,
        seed: params.seed,
        config_hash: manifest.config_hash.clone(),
        artifact: artifact_hash.clone(),
        manifest: manifest_hash,
        migrated: false,
        timestamp,
    })?;
    Ok(artifact_hash)
}

fn write_trace_artifacts(dir: &str, j: &lrc_json::Value) {
    let files = [
        ("observe.perfetto.json", j["perfetto"].dump()),
        ("observe.jsonl", j["jsonl"].as_str().unwrap_or_default().to_string()),
        ("observe.timeseries.csv", j["timeseries_csv"].as_str().unwrap_or_default().to_string()),
        ("observe.latency.json", j["latency"].dump()),
    ];
    for (name, contents) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, contents).expect("write trace artifact");
        eprintln!("wrote {path}");
    }
}

// ---------------------------------------------------------------------------
// `lrc-exp report` — HTML + JSON report, staleness check, index-md.
// ---------------------------------------------------------------------------

/// The configuration hash the *current* tool derives for a manifest's
/// parameters — the staleness oracle for `--check`.
fn current_config_hash(m: &RunManifest) -> Option<String> {
    let procs = m.params["procs"].as_u64()? as usize;
    Some(config_hash(&m.experiment, &m.params, &MachineConfig::paper_default(procs).to_json()))
}

fn report_cmd(args: &[String]) -> i32 {
    let mut store_dir = "results/store".to_string();
    let mut out = "results/report.html".to_string();
    let mut baseline = "eager".to_string();
    let mut check = false;
    let mut index_md: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => store_dir = flag_value(args, &mut i, "--store").to_string(),
            "--out" => out = flag_value(args, &mut i, "--out").to_string(),
            "--baseline" => baseline = flag_value(args, &mut i, "--baseline").to_string(),
            "--check" => check = true,
            "--index-md" => index_md = Some(flag_value(args, &mut i, "--index-md").to_string()),
            _ => return usage(),
        }
        i += 1;
    }

    if let Some(path) = &index_md {
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        if let Err(e) = std::fs::write(path, splice_index_md(&existing)) {
            eprintln!("--index-md {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
        if !check && args.len() == 2 {
            return 0; // index-only invocation
        }
    }

    let store = open_store("--store", &store_dir);

    if check {
        let known: Vec<&str> = experiments::ALL_IDS.to_vec();
        match store.check(&known, &current_config_hash) {
            Ok(failures) if failures.is_empty() => {
                let n = store.entries().map(|e| e.len()).unwrap_or(0);
                eprintln!("store {store_dir}: {n} entries, all current");
                return 0;
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("STALE {}: {}", f.entry, f.reason);
                }
                eprintln!("store {store_dir}: {} stale/corrupt entr(ies)", failures.len());
                return 1;
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }

    let stats = match paper_stats(&store, &experiments::ALL_IDS, &baseline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let meta = ReportMeta {
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        store_label: store_dir.clone(),
        baseline,
    };

    let out_path = Path::new(&out);
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            checked_dir("--out", &parent.display().to_string());
        }
    }
    // Provenance links are relative to the HTML file when the store sits
    // under its directory; otherwise they point at the store path as given.
    let store_prefix = match out_path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => match store.root().strip_prefix(parent) {
            Ok(rel) => format!("{}/", rel.display()),
            Err(_) => format!("{}/", store.root().display()),
        },
        _ => format!("{}/", store.root().display()),
    };

    let html = render_html(&stats, &meta, &store_prefix);
    if let Err(e) = std::fs::write(out_path, &html) {
        eprintln!("--out {out}: {e}");
        return 1;
    }
    eprintln!("wrote {out} ({} experiment groups)", stats.len());

    let json_path = out_path.with_extension("json");
    let doc = report_json(&stats, &meta);
    if let Err(e) = std::fs::write(&json_path, doc.pretty()) {
        eprintln!("{}: {e}", json_path.display());
        return 1;
    }
    eprintln!("wrote {}", json_path.display());
    0
}
