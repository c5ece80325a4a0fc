//! `lrc-exp` — the experiment harness: regenerates every table and figure
//! of the paper (see DESIGN.md §4 for the experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod experiments;
pub mod manifest;
pub mod paper_ref;
pub mod paths;
pub mod report;
pub mod runner;
pub mod sha;
pub mod stats;
pub mod store;

pub use experiments::{run_by_id, Params, ALL_IDS};
pub use manifest::{config_hash, resolve_timestamp, HostFacts, RunManifest};
pub use paths::{prepare_out_dir, FlagPathError};
pub use report::{
    metrics, paper_stats, regeneration_index_md, render_html, report_json, splice_index_md,
    ExpStats, Metric, Report, ReportMeta, Table, REPORT_SCHEMA,
};
pub use runner::{execute, RunSpec, Runner};
pub use stats::{cohen_d, holm_adjust, paired_permutation_p, summarize, Effect, Summary};
pub use store::{CheckFailure, IndexEntry, Store, StoreError};
