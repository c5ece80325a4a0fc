//! `lrc-sim` — the simulation substrate for the lazy-release-consistency
//! study: fundamental types, the Table-1 machine configuration, the
//! deterministic discrete-event kernel, statistics plumbing, the workload
//! (front-end) interface, and a small deterministic PRNG.
//!
//! Everything higher in the stack — the interconnect model (`lrc-mesh`),
//! the memory system (`lrc-mem`), the protocols and machine (`lrc-core`),
//! and the applications (`lrc-workloads`) — builds on the vocabulary defined
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

pub mod config;
pub mod event;
pub mod json;
pub mod refint;
pub mod rng;
pub mod stats;
pub mod table;
pub mod types;
pub mod watchdog;
pub mod workload;

/// The JSON codec every simulator crate writes its records' field lists
/// with (see [`json`] for this crate's).
pub use lrc_json;

pub use config::{table1_rows, ConfigError, MachineConfig, Placement, ResourceLimits};
pub use event::EventQueue;
pub use rng::Rng;
pub use stats::{
    Breakdown, CrashStats, DataLossEvent, FaultStats, Histogram, LatencyStats, MachineStats,
    MissClass, MissCounts, ProcStats, RaceReport, RaceSite, RaceStats, ResourceStats, StallKind,
    Traffic, TrafficClass,
};
pub use watchdog::{StallDiagnosis, StallReason, StalledProc};
pub use table::{FoldHasher, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, LineMap, MultisetHash};
pub use types::{Addr, BarrierId, Cycle, LineAddr, LockId, NodeId, ProcId, Protocol};
pub use workload::{AddressAllocator, Op, Script, Workload};
