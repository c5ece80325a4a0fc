//! Content-addressed artifact store under `results/store/`.
//!
//! Layout:
//!
//! ```text
//! <root>/objects/<sha256>.json   # blobs: artifacts and manifests, canonical JSON
//! <root>/index.json              # machine-readable index (schema lrc-exp-store-v1)
//! <root>/INDEX.md                # human-readable view, regenerated on every write
//! ```
//!
//! Blobs are written once and never rewritten: the name *is* the SHA-256
//! of the canonical JSON bytes, so re-running a deterministic experiment
//! reproduces the same hash, and any mutation is detectable by re-hashing
//! ([`Store::check`]). The index maps (experiment, scale, procs, seed) to
//! the artifact and manifest blobs that hold its latest result; it is the
//! only mutable file in the store and is rewritten deterministically
//! (sorted entries) so diffs stay reviewable.

use crate::manifest::{RunManifest, MANIFEST_SCHEMA};
use crate::sha::sha256_hex;
use lrc_json::{canonical_dump, json_struct, Ctx, FromJson, ToJson, Value};
use std::path::{Path, PathBuf};

/// Index schema tag.
pub const STORE_SCHEMA: &str = "lrc-exp-store-v1";

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble at `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A file that should be JSON did not parse.
    BadJson {
        /// The offending file.
        path: PathBuf,
        /// Parser diagnostic.
        message: String,
    },
    /// The index exists but has the wrong schema tag.
    BadSchema {
        /// What the index claimed.
        found: String,
    },
    /// A requested blob is not in the store.
    MissingBlob {
        /// The content hash asked for.
        hash: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store I/O error at {}: {message}", path.display())
            }
            StoreError::BadJson { path, message } => {
                write!(f, "store file {} is not valid JSON: {message}", path.display())
            }
            StoreError::BadSchema { found } => {
                write!(f, "store index has unknown schema '{found}' (expected {STORE_SCHEMA})")
            }
            StoreError::MissingBlob { hash } => write!(f, "blob {hash} is not in the store"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One row of the store index: the latest result for a
/// (experiment, scale, procs, seed) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Experiment id.
    pub experiment: String,
    /// Input scale name.
    pub scale: String,
    /// Processor count (0 = unknown, migrated).
    pub procs: u64,
    /// Workload seed.
    pub seed: u64,
    /// Configuration hash from the manifest ([`UNKNOWN`](crate::manifest::UNKNOWN) for migrated).
    pub config_hash: String,
    /// Artifact blob hash.
    pub artifact: String,
    /// Manifest blob hash.
    pub manifest: String,
    /// Synthesized from a pre-store legacy result?
    pub migrated: bool,
    /// Manifest timestamp (unix seconds; 0 = unknown).
    pub timestamp: u64,
}

json_struct!(IndexEntry {
    experiment,
    scale,
    procs,
    seed,
    config_hash,
    artifact,
    manifest,
    migrated,
    timestamp,
});

impl IndexEntry {
    fn key(&self) -> (String, String, u64, u64) {
        (self.experiment.clone(), self.scale.clone(), self.procs, self.seed)
    }

    /// Short human label for diagnostics.
    pub fn label(&self) -> String {
        format!(
            "{} scale={} procs={} seed={}",
            self.experiment, self.scale, self.procs, self.seed
        )
    }
}

/// One staleness-check failure ([`Store::check`]).
#[derive(Debug)]
pub struct CheckFailure {
    /// Which index entry failed.
    pub entry: String,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.entry, self.reason)
    }
}

/// The first 12 characters of a hash read from the index, or all of it
/// when it is shorter or its 12th byte falls inside a character.
fn short(hash: &str) -> &str {
    hash.get(..12).unwrap_or(hash)
}

/// The store handle.
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating directories as needed) the store at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        let objects = root.join("objects");
        std::fs::create_dir_all(&objects)
            .map_err(|e| StoreError::Io { path: objects.clone(), message: e.to_string() })?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the blob named `hash`.
    pub fn object_path(&self, hash: &str) -> PathBuf {
        self.root.join("objects").join(format!("{hash}.json"))
    }

    /// Store `value` as a content-addressed blob; returns its hash.
    /// Writing is idempotent (an existing blob with the same hash is left
    /// untouched) and atomic (tmp + rename), so a crashed writer never
    /// leaves a half-written object under a valid name.
    pub fn put(&self, value: &Value) -> Result<String, StoreError> {
        let bytes = canonical_dump(value);
        let hash = sha256_hex(bytes.as_bytes());
        let path = self.object_path(&hash);
        if !path.exists() {
            let tmp = self.root.join("objects").join(format!(".tmp-{hash}"));
            std::fs::write(&tmp, &bytes)
                .map_err(|e| StoreError::Io { path: tmp.clone(), message: e.to_string() })?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| StoreError::Io { path: path.clone(), message: e.to_string() })?;
        }
        Ok(hash)
    }

    /// Load the blob named `hash`.
    pub fn get(&self, hash: &str) -> Result<Value, StoreError> {
        let path = self.object_path(hash);
        let contents = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingBlob { hash: hash.to_string() }
            } else {
                StoreError::Io { path: path.clone(), message: e.to_string() }
            }
        })?;
        lrc_json::parse(&contents)
            .map_err(|e| StoreError::BadJson { path, message: e.to_string() })
    }

    /// All index entries (empty store ⇒ empty vec).
    pub fn entries(&self) -> Result<Vec<IndexEntry>, StoreError> {
        let path = self.root.join("index.json");
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io { path, message: e.to_string() }),
        };
        let doc = lrc_json::parse(&contents)
            .map_err(|e| StoreError::BadJson { path: path.clone(), message: e.to_string() })?;
        if doc["schema"].as_str() != Some(STORE_SCHEMA) {
            return Err(StoreError::BadSchema {
                found: doc["schema"].as_str().unwrap_or("<none>").to_string(),
            });
        }
        let mut out = Vec::new();
        for (i, v) in doc["entries"].as_array().cloned().unwrap_or_default().iter().enumerate() {
            match IndexEntry::decode(v, Ctx::default()) {
                Ok(e) => out.push(e),
                Err(e) => {
                    return Err(StoreError::BadJson {
                        path,
                        message: format!("index entry {i}: {e}"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Insert or replace the index row with `entry`'s
    /// (experiment, scale, procs, seed) key, then rewrite `index.json` and
    /// `INDEX.md` deterministically.
    pub fn record(&self, entry: IndexEntry) -> Result<(), StoreError> {
        let mut entries = self.entries()?;
        match entries.iter_mut().find(|e| e.key() == entry.key()) {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
        self.write_index(entries)
    }

    fn write_index(&self, mut entries: Vec<IndexEntry>) -> Result<(), StoreError> {
        entries.sort_by_key(|e| e.key());
        let doc = lrc_json::json!({
            "schema": STORE_SCHEMA,
            "entries": entries.iter().map(ToJson::to_json).collect::<Vec<_>>(),
        });
        let path = self.root.join("index.json");
        std::fs::write(&path, doc.pretty())
            .map_err(|e| StoreError::Io { path: path.clone(), message: e.to_string() })?;
        let md = self.render_index_md(&entries);
        let md_path = self.root.join("INDEX.md");
        std::fs::write(&md_path, md)
            .map_err(|e| StoreError::Io { path: md_path, message: e.to_string() })?;
        Ok(())
    }

    fn render_index_md(&self, entries: &[IndexEntry]) -> String {
        let mut out = String::from(
            "# Artifact store index\n\n\
             Content-addressed experiment results: every row's artifact and manifest\n\
             are blobs under `objects/`, named by the SHA-256 of their canonical JSON.\n\
             Regenerated by `lrc-exp`; do not edit by hand. Verify with\n\
             `lrc-exp report --store <this dir> --check`.\n\n\
             | experiment | scale | procs | seed | artifact | manifest | provenance |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for e in entries {
            let prov = if e.migrated {
                "migrated (unknown)".to_string()
            } else {
                format!("config {}", short(&e.config_hash))
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | [{}](objects/{}.json) | [{}](objects/{}.json) | {} |\n",
                e.experiment,
                e.scale,
                e.procs,
                e.seed,
                short(&e.artifact),
                e.artifact,
                short(&e.manifest),
                e.manifest,
                prov,
            ));
        }
        out
    }

    /// Load and decode the manifest blob for `entry`.
    pub fn manifest(&self, entry: &IndexEntry) -> Result<RunManifest, StoreError> {
        let v = self.get(&entry.manifest)?;
        RunManifest::decode(&v, Ctx::default()).map_err(|e| StoreError::BadJson {
            path: self.object_path(&entry.manifest),
            message: e.to_string(),
        })
    }

    /// The staleness/integrity walk behind `lrc-exp report --check`.
    ///
    /// For every index entry: both blobs must exist and re-hash to their
    /// names; the manifest must decode, carry a known schema, and agree
    /// with the index row; the experiment must still exist in
    /// `known_experiments`. For non-migrated entries the configuration
    /// hash must additionally (a) recompute identically from the
    /// manifest's own embedded params/config — catching a mutated
    /// manifest — and (b) match `current_hash` (the hash the *current*
    /// tool derives for those params), catching artifacts stranded by a
    /// config change. Migrated entries get integrity checks only.
    pub fn check(
        &self,
        known_experiments: &[&str],
        current_hash: &dyn Fn(&RunManifest) -> Option<String>,
    ) -> Result<Vec<CheckFailure>, StoreError> {
        let mut failures = Vec::new();
        let entries = self.entries()?;
        for e in &entries {
            if self.verify_blob(&e.artifact, "artifact", e, &mut failures).is_none() {
                continue;
            }
            let Some(mv) = self.verify_blob(&e.manifest, "manifest", e, &mut failures) else {
                continue;
            };
            let mut fail = |reason: String| {
                failures.push(CheckFailure { entry: e.label(), reason });
            };
            let m = match RunManifest::decode(&mv, Ctx::default()) {
                Ok(m) => m,
                Err(err) => {
                    fail(format!("manifest does not decode: {err}"));
                    continue;
                }
            };
            if m.schema != MANIFEST_SCHEMA {
                fail(format!("manifest schema '{}' unknown", m.schema));
                continue;
            }
            if m.artifact != e.artifact {
                fail("manifest names a different artifact than the index".to_string());
            }
            if m.experiment != e.experiment {
                fail("manifest names a different experiment than the index".to_string());
            }
            if !known_experiments.contains(&e.experiment.as_str()) {
                fail(format!(
                    "experiment '{}' is no longer in the current experiment list",
                    e.experiment
                ));
            }
            if m.migrated {
                continue; // provenance unknown by construction
            }
            let recomputed = crate::manifest::config_hash(&m.experiment, &m.params, &m.config);
            if recomputed != m.config_hash {
                fail(format!(
                    "manifest config_hash {} does not recompute from its own \
                     params/config ({recomputed}) — manifest mutated",
                    m.config_hash
                ));
            }
            if e.config_hash != m.config_hash {
                fail("index config_hash disagrees with the manifest".to_string());
            }
            match current_hash(&m) {
                Some(cur) if cur != m.config_hash => {
                    fail(format!(
                        "stale: current tool derives config hash {cur} for these \
                         params, artifact was produced under {}",
                        m.config_hash
                    ));
                }
                Some(_) => {}
                None => fail(format!(
                    "current tool cannot derive a configuration for params {}",
                    m.params.dump()
                )),
            }
        }
        Ok(failures)
    }

    /// Blob-integrity leg of [`Store::check`]: the blob must load and its
    /// content must re-hash to its name.
    fn verify_blob(
        &self,
        hash: &str,
        what: &str,
        entry: &IndexEntry,
        failures: &mut Vec<CheckFailure>,
    ) -> Option<Value> {
        match self.get(hash) {
            Err(err) => {
                failures.push(CheckFailure {
                    entry: entry.label(),
                    reason: format!("{what} blob unreadable: {err}"),
                });
                None
            }
            Ok(v) => {
                let actual = sha256_hex(canonical_dump(&v).as_bytes());
                if actual != hash {
                    failures.push(CheckFailure {
                        entry: entry.label(),
                        reason: format!(
                            "{what} blob content does not match its name \
                             (named {hash}, hashes to {actual})"
                        ),
                    });
                    None
                } else {
                    Some(v)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{config_hash, UNKNOWN};
    use lrc_json::json;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lrc-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn put_run(store: &Store, experiment: &str, seed: u64, payload: Value) -> IndexEntry {
        let artifact = store.put(&payload).expect("put artifact");
        let params = json!({ "scale": "tiny", "procs": 8, "seed": seed });
        let config = json!({ "line_size": 128 });
        let m = RunManifest::new(experiment, params, config, &artifact, 1_700_000_000);
        let manifest = store.put(&m.to_json()).expect("put manifest");
        let entry = IndexEntry {
            experiment: experiment.to_string(),
            scale: "tiny".to_string(),
            procs: 8,
            seed,
            config_hash: m.config_hash.clone(),
            artifact,
            manifest,
            migrated: false,
            timestamp: m.timestamp,
        };
        store.record(entry.clone()).expect("record");
        entry
    }

    #[test]
    fn put_is_content_addressed_and_idempotent() {
        let dir = tmpdir("put");
        let store = Store::open(&dir).unwrap();
        let a = json!({ "x": 1, "y": [1, 2] });
        let b = json!({ "y": [1, 2], "x": 1 }); // same value, different order
        let ha = store.put(&a).unwrap();
        let hb = store.put(&b).unwrap();
        assert_eq!(ha, hb, "canonicalization erases insertion order");
        assert_eq!(store.get(&ha).unwrap(), lrc_json::canonicalize(&a));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An index row is outside input: a hash whose 12th byte falls inside
    /// a character still renders into INDEX.md.
    #[test]
    fn record_renders_a_non_ascii_hash() {
        let dir = tmpdir("non-ascii");
        let store = Store::open(&dir).unwrap();
        let odd = "a".to_string() + &"é".repeat(10);
        let entry = put_run(&store, "fig4", 0, json!({ "v": 1 }));
        store.record(IndexEntry { seed: 1, artifact: odd.clone(), ..entry }).unwrap();
        let md = std::fs::read_to_string(dir.join("INDEX.md")).unwrap();
        assert!(md.contains(&format!("[{odd}](objects/{odd}.json)")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_upserts_and_sorts() {
        let dir = tmpdir("record");
        let store = Store::open(&dir).unwrap();
        put_run(&store, "fig4", 1, json!({ "v": 1 }));
        put_run(&store, "fig4", 0, json!({ "v": 2 }));
        let replaced = put_run(&store, "fig4", 1, json!({ "v": 3 }));
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 2, "same key replaces, not appends");
        assert_eq!(entries[0].seed, 0, "index is sorted");
        assert_eq!(entries[1].artifact, replaced.artifact);
        assert!(dir.join("INDEX.md").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_passes_clean_and_catches_mutation() {
        let dir = tmpdir("check");
        let store = Store::open(&dir).unwrap();
        let e = put_run(&store, "fig4", 0, json!({ "rows": [1, 2, 3] }));
        let current = |m: &RunManifest| Some(config_hash(&m.experiment, &m.params, &m.config));
        let clean = store.check(&["fig4"], &current).unwrap();
        assert!(clean.is_empty(), "clean store must pass: {clean:?}");

        // Mutate the artifact blob in place: --check must notice.
        let path = store.object_path(&e.artifact);
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents = contents.replace('1', "9");
        std::fs::write(&path, contents).unwrap();
        let failures = store.check(&["fig4"], &current).unwrap();
        assert!(
            failures.iter().any(|f| f.reason.contains("does not match its name")),
            "mutated blob must fail: {failures:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_flags_stale_config_and_dead_experiments() {
        let dir = tmpdir("stale");
        let store = Store::open(&dir).unwrap();
        put_run(&store, "fig4", 0, json!({ "v": 1 }));
        // Current tool now derives a *different* config for the same params.
        let drifted = |m: &RunManifest| {
            Some(config_hash(&m.experiment, &m.params, &json!({ "line_size": 256 })))
        };
        let failures = store.check(&["fig4"], &drifted).unwrap();
        assert!(failures.iter().any(|f| f.reason.contains("stale")), "{failures:?}");
        // Experiment dropped from the list.
        let current = |m: &RunManifest| Some(config_hash(&m.experiment, &m.params, &m.config));
        let failures = store.check(&["fig5"], &current).unwrap();
        assert!(
            failures.iter().any(|f| f.reason.contains("no longer in the current experiment list")),
            "{failures:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrated_entries_skip_freshness_checks() {
        let dir = tmpdir("migrated");
        let store = Store::open(&dir).unwrap();
        let artifact = store.put(&json!({ "legacy": true })).unwrap();
        let m = RunManifest {
            config_hash: UNKNOWN.into(),
            migrated: true,
            ..RunManifest::new("fig4", json!({ "scale": "paper" }), Value::Null, &artifact, 0)
        };
        let manifest = store.put(&m.to_json()).unwrap();
        store
            .record(IndexEntry {
                experiment: "fig4".into(),
                scale: "paper".into(),
                procs: 0,
                seed: 0,
                config_hash: UNKNOWN.into(),
                artifact,
                manifest,
                migrated: true,
                timestamp: 0,
            })
            .unwrap();
        // A current_hash that would fail any fresh manifest: migrated rows
        // must not consult it.
        let never = |_: &RunManifest| -> Option<String> { None };
        let failures = store.check(&["fig4"], &never).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
