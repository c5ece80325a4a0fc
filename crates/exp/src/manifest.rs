//! Run manifests: the provenance record behind every stored artifact.
//!
//! A manifest answers "which commit, configuration, and seed produced this
//! table cell?" — the question a reviewer asks of any number in the paper
//! report. It carries a hash of the exact experiment configuration
//! (canonical JSON, so field order is irrelevant), the git commit and tool
//! version that ran it, host facts that matter for interpreting wall-clock
//! numbers (`host_cpus` — see results/README.md for why), and the seed the
//! run used. Manifests are stored as content-addressed blobs next to the
//! artifacts they describe (see [`crate::store`]).

use crate::sha::sha256_hex;
use lrc_json::{canonical_dump, json, json_struct, ToJson, Value};
use lrc_sim::MachineConfig;

/// Manifest schema tag; bump on incompatible layout changes.
pub const MANIFEST_SCHEMA: &str = "lrc-exp-manifest-v1";

/// Sentinel for provenance fields a migrated legacy artifact cannot know.
pub const UNKNOWN: &str = "unknown";

/// Facts about the machine that executed the run. Simulated results are
/// deterministic and host-independent; these matter for wall-clock
/// readings and for auditing where a result came from.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// `std::thread::available_parallelism` at run time (0 = unknown).
    pub host_cpus: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
}

json_struct!(HostFacts { host_cpus, os });

impl HostFacts {
    /// Capture the current host.
    pub fn capture() -> HostFacts {
        HostFacts {
            host_cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
            os: std::env::consts::OS.to_string(),
        }
    }
}

/// The provenance record for one stored artifact.
///
/// Field order is pinned by the `json_struct!` listing below; the manifest
/// itself is stored canonically, so reordering these fields changes
/// nothing on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// Experiment id (`table3`, `fig4`, …).
    pub experiment: String,
    /// `lrc-exp` crate version that produced the artifact.
    pub tool_version: String,
    /// Short git commit of the producing tree (or [`UNKNOWN`]).
    pub git_commit: String,
    /// Unix seconds, passed in by the harness (`--timestamp` /
    /// `LRC_TIMESTAMP`) so committed stores stay reproducible; 0 for
    /// migrated artifacts.
    pub timestamp: u64,
    /// The executing host.
    pub host: HostFacts,
    /// Run parameters: `{"scale","procs","seed"}` (plus anything a future
    /// experiment needs). Kept as JSON so the manifest schema survives
    /// parameter growth.
    pub params: Value,
    /// The base machine configuration the experiment simulates
    /// ([`crate::experiments::machines`]), or the list of them when it
    /// simulates several; `null` for migrated artifacts.
    pub config: Value,
    /// [`config_hash`] over (experiment, params, config), or [`UNKNOWN`]
    /// for migrated artifacts.
    pub config_hash: String,
    /// Content hash of the artifact blob this manifest describes.
    pub artifact: String,
    /// True for a result imported from before the store existed (the
    /// committed store's `migrated` entries): provenance fields are
    /// placeholders and the staleness checker only verifies integrity, not
    /// freshness.
    pub migrated: bool,
}

json_struct!(RunManifest {
    schema,
    experiment,
    tool_version,
    git_commit,
    timestamp,
    host,
    params,
    config,
    config_hash,
    artifact,
    migrated,
});

/// A manifest's `config`: the one machine its experiment simulates, or
/// the list of them.
pub fn machines_json(machines: &[MachineConfig]) -> Value {
    match machines {
        [one] => one.to_json(),
        all => Value::Array(all.iter().map(ToJson::to_json).collect()),
    }
}

/// The configuration hash the *current* tool derives for a manifest's
/// experiment and parameters: the staleness oracle for
/// [`Store::check`](crate::Store::check).
pub fn current_config_hash(m: &RunManifest) -> Option<String> {
    let procs = usize::try_from(m.params["procs"].as_u64()?).ok()?;
    let machines = crate::experiments::machines(&m.experiment, procs);
    Some(config_hash(&m.experiment, &m.params, &machines_json(&machines)))
}

/// The configuration hash: SHA-256 over the canonical JSON of the triple
/// that determines a deterministic run's output. Invariant under field
/// reordering in `params`/`config` (canonicalization sorts keys).
pub fn config_hash(experiment: &str, params: &Value, config: &Value) -> String {
    let doc = json!({
        "experiment": experiment,
        "params": params.clone(),
        "config": config.clone(),
    });
    sha256_hex(canonical_dump(&doc).as_bytes())
}

impl RunManifest {
    /// A fresh manifest for an artifact just produced by this tool.
    pub fn new(
        experiment: &str,
        params: Value,
        config: Value,
        artifact_hash: &str,
        timestamp: u64,
    ) -> RunManifest {
        let config_hash = config_hash(experiment, &params, &config);
        RunManifest {
            schema: MANIFEST_SCHEMA.to_string(),
            experiment: experiment.to_string(),
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            git_commit: git_commit(),
            timestamp,
            host: HostFacts::capture(),
            params,
            config,
            config_hash,
            artifact: artifact_hash.to_string(),
            migrated: false,
        }
    }
}

/// Best-effort `git rev-parse --short HEAD`; [`UNKNOWN`] outside a
/// checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| UNKNOWN.to_string())
}

/// The manifest timestamp: an explicit harness value wins, then the
/// `LRC_TIMESTAMP` environment variable, then the system clock. The
/// explicit paths keep committed stores and CI runs byte-reproducible.
pub fn resolve_timestamp(explicit: Option<u64>) -> u64 {
    if let Some(t) = explicit {
        return t;
    }
    if let Some(t) = std::env::var("LRC_TIMESTAMP").ok().and_then(|s| s.parse().ok()) {
        return t;
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_json::{Ctx, FromJson};

    #[test]
    fn config_hash_ignores_field_order() {
        let p1 = json!({ "scale": "tiny", "procs": 8, "seed": 1 });
        let p2 = json!({ "seed": 1, "procs": 8, "scale": "tiny" });
        let c = json!({ "line_size": 128, "procs": 8 });
        assert_eq!(config_hash("fig4", &p1, &c), config_hash("fig4", &p2, &c));
        assert_ne!(config_hash("fig4", &p1, &c), config_hash("fig5", &p1, &c));
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = RunManifest::new(
            "table3",
            json!({ "scale": "tiny", "procs": 8, "seed": 0 }),
            json!({ "line_size": 128 }),
            "abc123",
            1_754_784_000,
        );
        let v = lrc_json::ToJson::to_json(&m);
        let back = RunManifest::decode(&v, Ctx::default()).expect("roundtrip");
        assert_eq!(back, m);
        assert_eq!(back.schema, MANIFEST_SCHEMA);
        assert!(!back.migrated);
    }
}
