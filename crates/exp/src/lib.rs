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
pub use manifest::{
    config_hash, current_config_hash, machines_json, resolve_timestamp, HostFacts, RunManifest,
};
pub use paths::{prepare_out_dir, FlagPathError};
pub use report::{
    metrics, paper_stats, regeneration_index_md, render_html, report_json, splice_index_md,
    ExpStats, Metric, Report, ReportMeta, Table, REPORT_SCHEMA,
};
pub use runner::{execute, RunSpec, Runner};
pub use stats::{cohen_d, holm_adjust, paired_permutation_p, summarize, Effect, Summary};
pub use store::{CheckFailure, IndexEntry, Store, StoreError};

/// The command-line arguments after the program name. `std::env::args`
/// panics on an argument that is not valid UTF-8; this returns an error
/// naming the argument instead, for the binaries to report as a usage
/// error (exit 2).
pub fn utf8_args() -> Result<Vec<String>, String> {
    std::env::args_os()
        .skip(1)
        .map(|a| a.into_string().map_err(|a| format!("argument {a:?} is not valid UTF-8")))
        .collect()
}

/// A numeric flag's value, parsed and checked against `range` (a NaN is in
/// no range). The error names the flag and the value, for the binaries to
/// report as a usage error (exit 2).
pub fn flag_number<T, R>(flag: &str, value: &str, range: R) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    match value.parse() {
        Ok(x) if range.contains(&x) => Ok(x),
        _ => Err(format!("{flag}: invalid value '{value}' (expected a number in {range:?})")),
    }
}
