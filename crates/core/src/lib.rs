//! `lrc-core` — the paper's contribution: four directory-based coherence
//! protocols (sequentially consistent, eager release-consistent, lazy
//! release-consistent, and the lazier "lazy-ext" variant) over a simulated
//! mesh multiprocessor with programmable protocol processors.
//!
//! * [`directory`] — the global block state machine (Figure 1 of the paper).
//! * [`msg`] — the protocol message catalogue and cost model.
//! * [`sync`] — queued locks and counter barriers.
//! * [`node`] — per-node state (caches, buffers, transaction table).
//! * [`machine`] — the event-driven machine tying it all together.
//!
//! # Example
//!
//! ```
//! use lrc_core::Machine;
//! use lrc_sim::{MachineConfig, Op, Protocol, Script};
//!
//! let cfg = MachineConfig::paper_default(2);
//! let w = Script::new(
//!     "handoff",
//!     vec![
//!         vec![Op::Acquire(0), Op::Write(0), Op::Release(0)],
//!         vec![Op::Acquire(0), Op::Read(0), Op::Release(0)],
//!     ],
//! );
//! let result = Machine::new(cfg, Protocol::Lrc).run(Box::new(w));
//! assert!(result.stats.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

pub mod directory;
pub mod machine;
pub mod msg;
pub mod node;
pub mod sync;

pub use directory::{nodes_in, AckCollection, DirEntry, DirState, NodeSet};
pub use machine::checker::{Failure, StuckState};
pub use machine::{
    Fault, Machine, MachineSnapshot, RunResult, SnapshotError, SymbolicMemory, Violation,
    MIN_SNAPSHOT_VERSION, SNAPSHOT_VERSION,
};
pub use msg::{Msg, MsgKind, WriteGrant};
// Fault-injection vocabulary, re-exported so harnesses need only lrc-core.
pub use lrc_mesh::{CrashPlan, FaultCounters, FaultPlan, FaultRates, MsgClass};
// Observability vocabulary, likewise.
pub use lrc_trace::{
    FlightRecorder, MsgMeta, RecData, ResourceEv, RingSink, StateChange, SyncOp, TimeSeries,
    TraceFilter, TraceRecord, TraceSink, VecSink,
};
pub use lrc_sim::{StallDiagnosis, StallReason, StalledProc};
pub use node::{Node, Outstanding, PendingSync, ProcStatus};
pub use sync::{BarrierManager, LockAction, LockManager};
