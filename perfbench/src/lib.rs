//! `lrc-perfbench` — the simulator's benchmark: four workloads on the
//! paper's 64-node Table-1 machine, measured end to end with tracing off,
//! and layer by layer in a separate traced run built only from calls into
//! the layers' public APIs. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod host;
pub mod layers;
pub mod replay;
pub mod runner;
pub mod stats;
pub mod trace;
