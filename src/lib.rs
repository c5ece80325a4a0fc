//! `lazy-rc` — a reproduction of *Lazy Release Consistency for
//! Hardware-Coherent Multiprocessors* (Kontothanassis, Scott & Bianchini,
//! Supercomputing '95) as a production-quality Rust library.
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`sim`] — simulation substrate: event kernel, machine configuration
//!   (Table 1), statistics, the workload interface.
//! * [`mesh`] — the 2D-mesh interconnect model.
//! * [`mem`] — caches, write buffers, the coalescing write-through buffer,
//!   and memory-module timing.
//! * [`classify`] — cold/true/false/eviction/write miss classification.
//! * [`core`] — the directory, the four coherence protocols (SC, eager RC,
//!   lazy RC, lazy-ext RC), synchronization services, and the machine.
//! * [`trace`] — the observability layer: structured trace records,
//!   filters, Perfetto/Chrome trace export, latency histograms, the metrics
//!   sampler, and the flight recorder.
//! * [`workloads`] — the seven SPLASH-like applications plus the mp3d
//!   solution-quality experiment.
//!
//! # Quickstart
//!
//! ```
//! use lazy_rc::prelude::*;
//!
//! // A 4-processor machine with the paper's Table-1 parameters.
//! let cfg = MachineConfig::paper_default(4);
//!
//! // A scripted program: P0 writes x then releases a lock; P1 acquires the
//! // lock and reads x.
//! let w = Script::new(
//!     "handoff",
//!     vec![
//!         vec![Op::Acquire(0), Op::Write(0), Op::Release(0)],
//!         vec![Op::Acquire(0), Op::Read(0), Op::Release(0)],
//!         vec![],
//!         vec![],
//!     ],
//! );
//!
//! let result = Machine::new(cfg, Protocol::Lrc).run(Box::new(w));
//! assert!(result.stats.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub use lrc_classify as classify;
pub use lrc_core as core;
pub use lrc_mem as mem;
pub use lrc_mesh as mesh;
pub use lrc_sim as sim;
pub use lrc_trace as trace;
pub use lrc_workloads as workloads;

/// Everything you need to configure and run a simulation.
pub mod prelude {
    pub use lrc_core::{
        CrashPlan, Fault, FaultPlan, FaultRates, Machine, MachineSnapshot, MsgClass, RunResult,
        SnapshotError, StallDiagnosis, StallReason, TraceFilter, TraceRecord, MIN_SNAPSHOT_VERSION,
        SNAPSHOT_VERSION,
    };
    pub use lrc_sim::{
        Breakdown, FaultStats, MachineConfig, MachineStats, MissClass, Op, Placement, ProcStats,
        Protocol, RaceReport, RaceSite, RaceStats, ResourceLimits, ResourceStats, Script, Workload,
    };
    pub use lrc_workloads::{paper_suite, WorkloadKind};
}
