//! The simulated machine: nodes, network, directory, protocol engines, and
//! the event loop.
//!
//! One [`Machine`] instance simulates one run of one workload under one
//! protocol. The implementation is split by concern:
//!
//! * `step` — the processor front end: batched op issue, the write buffer
//!   pump, line installation and eviction.
//! * `home` — directory-side message handling (the home node's protocol
//!   processor).
//! * `remote` — cache-side message handling (invalidations, notices,
//!   forwards, replies).
//! * `sync_ops` — acquires, releases, barriers, fences, and the lock and
//!   barrier services.
//! * `obs` — the observer set: every passive instrument, reached through
//!   one typed machine-event entry point.

pub(crate) mod checker;
pub(crate) mod crash;
mod home;
pub(crate) mod invariants;
pub(crate) mod obs;
mod remote;
pub(crate) mod snapshot;
mod step;
mod sync_ops;
pub(crate) mod values;
pub(crate) mod xmit;

pub use invariants::Violation;
pub use snapshot::{MachineSnapshot, SnapshotError, MIN_SNAPSHOT_VERSION, SNAPSHOT_VERSION};
pub use values::SymbolicMemory;

use crate::directory::DirEntry;
use crate::msg::{Msg, MsgKind};
use crate::node::{Node, ProcStatus};
use lrc_mesh::{FaultPlan, Network};
use lrc_sim::{
    Addr, Cycle, EventQueue, LineAddr, LineMap, MachineConfig, MachineStats, NodeId, ProcId,
    Protocol, StallDiagnosis, StallKind, StallReason, StalledProc, Workload,
};
use lrc_trace::{
    FlightRecorder, ResourceEv, RingSink, TimeSeries, TraceFilter, TraceRecord, TraceSink,
};
use obs::Seen;
use xmit::{InFlight, XmitState};

/// A deliberately-introduced protocol bug, for validating that the model
/// checker actually catches violations. Never enabled in normal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the protocol as implemented.
    #[default]
    None,
    /// Eager protocols: on a write to a shared block, grant ownership
    /// immediately *without* invalidating the other copies (and without
    /// starting an ack collection). Stale read-only copies survive unknown
    /// to the directory — a safety violation the checker must find.
    SkipInvalidate,
    /// Lazy protocols: on a weak transition, count the write notices in the
    /// ack collection but never send them. The acks can never arrive, so
    /// the writer's release fence never clears — a liveness violation.
    SkipWriteNotice,
    /// Crash recovery: when a home declares a node dead, skip reclaiming
    /// the locks it held. Survivors queued on those locks wedge — the
    /// recovery liveness violation `lrc-check --crash-nth` must find.
    SkipLockReclaim,
}

/// Events driving the simulation.
#[derive(Debug, Clone, Hash)]
pub(crate) enum Event {
    /// Give processor `p` a chance to issue operations.
    ProcStep(ProcId),
    /// A message has been fully received at its destination.
    Msg(Msg),
    /// Background drain timer for a coalescing-buffer entry.
    CbFlush(ProcId, LineAddr),
    /// Link layer (fault plans only): a framed copy of `msg` with sequence
    /// number `seq` arrived at `msg.dst`, possibly failing its checksum.
    XMsg {
        /// The framed protocol message.
        msg: Msg,
        /// Link-layer sequence number (dedupe / ack key).
        seq: u64,
        /// The receiving NI's checksum check failed for this copy.
        corrupt: bool,
    },
    /// Link layer: a delivery acknowledgement (`ack`) or checksum NACK for
    /// sequence `seq`, arriving back at the original sender.
    LinkCtl {
        /// Sequence number being acknowledged or NACKed.
        seq: u64,
        /// True for an ACK, false for a checksum NACK.
        ack: bool,
    },
    /// Link layer: retransmit timer for in-flight sequence `seq`. Stale
    /// (superseded) and already-acknowledged timers fire as no-ops.
    RetryTimer {
        /// The sequence number the timer guards.
        seq: u64,
    },
    // New variants go *after* the existing ones: the derived `Hash` folds
    // the variant index, and the golden fingerprints depend on existing
    // indices staying put.
    /// Finite NI queues: re-attempt a send that a full queue rejected,
    /// after its backoff.
    NiRetry {
        /// The rejected message.
        msg: Msg,
        /// Attempts so far (drives the next backoff if rejected again).
        attempts: u32,
    },
    /// Finite directory request slots: re-send a request the home
    /// BUSY-NACKed, after its backoff.
    NackRetry {
        /// The reconstructed request.
        msg: Msg,
    },
    /// Metrics sampler tick: snapshot machine gauges into the time series
    /// and re-arm one interval later (only while the run is live).
    Sample,
    /// Crash plans only: periodic heartbeat/lease scan (armed only for
    /// lease-driven detection; re-arms itself while survivors run).
    LeaseTick,
    /// Crash plans only: kill `victim` now (scheduled at `start_run` from
    /// the plan's victim list).
    CrashNode {
        /// The node to kill.
        victim: NodeId,
    },
}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol simulated.
    pub protocol: Protocol,
    /// Workload name.
    pub workload: String,
    /// All collected statistics.
    pub stats: MachineStats,
    /// Discrete events the kernel handled during the run (simulator
    /// throughput = `events` / wall-clock).
    pub events: u64,
    /// High-water mark of the event queue (simulator working-set gauge).
    pub peak_queue_depth: usize,
    /// Wall-clock seconds spent inside the event loop itself — excludes
    /// workload construction, so it isolates kernel throughput.
    pub sim_wall_secs: f64,
    /// Peak NI ingress-queue occupancy over all nodes (0 when NI limits
    /// are not installed — occupancy is only tracked under finite queues).
    pub ni_peak_ingress: usize,
    /// Peak NI egress-queue occupancy over all nodes (0 when unbounded).
    pub ni_peak_egress: usize,
}

impl RunResult {
    /// Wall-clock of the run in cycles (last processor to finish).
    pub fn total_cycles(&self) -> u64 {
        self.stats.total_cycles
    }
}

/// A configured machine, ready to run one workload.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) protocol: Protocol,
    pub(crate) nodes: Vec<Node>,
    /// Directory entries, `Vec`-indexed by line address (dense by
    /// construction: workload allocators hand out compact address spaces).
    pub(crate) dir: LineMap<DirEntry>,
    /// Requests queued at their home because the directory entry was busy
    /// (3-hop in flight) or collecting acks. Real DASH NAKs these back for
    /// retry; we queue them (stable and livelock-free) and charge one NAK
    /// round trip when releasing, so hot-spot requests still pay the
    /// contention penalty the paper describes.
    pub(crate) parked: LineMap<std::collections::VecDeque<(Msg, Cycle)>>,
    pub(crate) net: Network,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) stats: MachineStats,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) finished: usize,
    pub(crate) max_cycles: u64,
    /// Sweep coherence invariants every N handled events (0 = off).
    pub(crate) check_every: u64,
    /// Every passive instrument: trace sink, flight recorder, latency
    /// probe, sampler, race detector, value tracker and miss classifier.
    /// `None` (the default) keeps every hook to one never-taken branch —
    /// the zero-cost-when-off guarantee (see [`Machine::observe`]).
    pub(crate) observers: Option<Box<obs::Observers>>,
    /// First-touch page→home assignments (only under
    /// `Placement::FirstTouch`), `Vec`-indexed by page number.
    pub(crate) page_home: LineMap<NodeId>,
    /// For each line with a 3-hop forward in flight, the episode record.
    /// Used to drop late 3-hop replies and to detect forwards that can
    /// never be served because the owner is itself blocked requesting the
    /// same line.
    pub(crate) busy_info: LineMap<ForwardEp>,
    /// Monotone forward-episode counter.
    pub(crate) forward_seq: u64,
    /// Injected protocol bug (checker validation only).
    pub(crate) fault: Fault,
    /// Link-layer reliable-delivery state. `Some` exactly when the network
    /// carries an active fault plan; `None` costs the send path one branch.
    pub(crate) xmit: Option<Box<XmitState>>,
    /// Per-processor stall horizon: abort with a [`StallDiagnosis`] when any
    /// processor stays continuously stalled this long while the machine
    /// keeps processing events (livelock detector). `None` = off.
    pub(crate) watchdog: Option<Cycle>,
    /// Every lock grant in the order the homes issued them, as
    /// `(lock, grantee)` — the synchronization order fed to the reference
    /// interpreter. Always recorded: by the lock service on each grant and
    /// by crash recovery when it passes a dead holder's lock on.
    pub(crate) grant_log: Vec<(lrc_sim::LockId, NodeId)>,
    /// Recycled `AckCollection::waiters` vectors: completed collections
    /// return their (cleared) allocation here and new collections reuse it,
    /// so the steady-state ack path allocates nothing.
    pub(crate) waiter_pool: Vec<Vec<NodeId>>,
    /// Scratch buffer reused by `process_pending_invals` (drained and
    /// returned empty each call).
    pub(crate) inval_scratch: Vec<u64>,
    /// BUSY-NACKs sent per line during its current busy episode (finite
    /// directory request slots only; cleared when the episode resolves).
    pub(crate) nacks_given: LineMap<u32>,
    /// Checker choice point: force a BUSY-NACK on the `n`-th park-eligible
    /// request of the run regardless of capacity (`None` in normal runs).
    pub(crate) nack_nth: Option<u64>,
    /// Count of park-eligible requests seen so far (indexes `nack_nth`).
    pub(crate) park_seq: u64,
    /// Cached `cfg.resources` NI-limits flag: the send hot path branches on
    /// this bool instead of re-deriving it per message.
    pub(crate) ni_limited: bool,
    /// NI-rejected sends currently waiting out their backoff.
    pub(crate) pending_ni_retries: u32,
    /// Most recent NI rejection, as `(node, occupancy, cap)` — names the
    /// congested queue in a watchdog diagnosis.
    pub(crate) last_ni_reject: Option<(NodeId, usize, usize)>,
    /// Per-node monotone counters backing the deterministic event tie-break
    /// keys (see [`Machine::ev_key`]). One counter per node keeps the key
    /// sequence a function of that node's protocol history alone. The
    /// golden fingerprints pin the event order these keys produce.
    pub(crate) ev_seq: Vec<u64>,
    /// Set as soon as the model checker drives this machine through
    /// [`Machine::step_choice`]: exploration fires pending events in
    /// arbitrary order, so channel-FIFO delivery assumptions no longer hold
    /// (see [`Machine::delivery_reordering_possible`]).
    pub(crate) choice_driven: bool,
    /// Events handled so far by [`Machine::run_until`] (drives the
    /// invariant-check cadence and `RunResult::events`). A field, not a
    /// loop local, so a restored machine continues the count — and with it
    /// the check cadence — exactly where the checkpoint left off.
    pub(crate) handled: u64,
    /// Ops consumed from the workload per processor (`next_op` calls).
    /// Checkpoints store these counts instead of workload internals: a
    /// restore replays them against a fresh workload instance, which the
    /// determinism contract of [`Workload::next_op`] makes exact.
    pub(crate) ops_consumed: Vec<u64>,
    /// Crash-stop failure subsystem (leases, suspicion, reclamation).
    /// `Some` exactly when the fault plan carries a [`lrc_mesh::CrashPlan`];
    /// `None` keeps every crash hook to one never-taken branch.
    pub(crate) crash: Option<Box<crash::CrashCtx>>,
}

impl Clone for Machine {
    /// Snapshot the whole machine (model-checker state exploration).
    ///
    /// # Panics
    /// If the installed workload does not support [`Workload::fork`].
    fn clone(&self) -> Self {
        Machine {
            cfg: self.cfg.clone(),
            protocol: self.protocol,
            nodes: self.nodes.clone(),
            dir: self.dir.clone(),
            parked: self.parked.clone(),
            net: self.net.clone(),
            queue: self.queue.clone(),
            stats: self.stats.clone(),
            workload: self.workload.fork().expect("workload does not support fork()"),
            finished: self.finished,
            max_cycles: self.max_cycles,
            check_every: self.check_every,
            observers: self.observers.clone(),
            page_home: self.page_home.clone(),
            busy_info: self.busy_info.clone(),
            forward_seq: self.forward_seq,
            fault: self.fault,
            xmit: self.xmit.clone(),
            watchdog: self.watchdog,
            grant_log: self.grant_log.clone(),
            // Pools hold only spare capacity, never state: fresh ones are
            // equivalent and keep snapshots lean.
            waiter_pool: Vec::new(),
            inval_scratch: Vec::new(),
            nacks_given: self.nacks_given.clone(),
            nack_nth: self.nack_nth,
            park_seq: self.park_seq,
            ni_limited: self.ni_limited,
            pending_ni_retries: self.pending_ni_retries,
            last_ni_reject: self.last_ni_reject,
            ev_seq: self.ev_seq.clone(),
            choice_driven: self.choice_driven,
            handled: self.handled,
            ops_consumed: self.ops_consumed.clone(),
            crash: self.crash.clone(),
        }
    }
}

/// Bookkeeping for one 3-hop forward episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ForwardEp {
    pub id: u64,
    pub owner: NodeId,
    pub requester: NodeId,
    pub for_write: bool,
    /// The owner has already supplied the data (CopyBack in flight).
    pub served: bool,
}

impl Machine {
    /// Build a machine for `cfg` running `protocol`.
    ///
    /// # Panics
    /// If the configuration is invalid or has more processors than a
    /// directory sharer set holds ([`NodeSet::CAPACITY`], 256).
    ///
    /// [`NodeSet::CAPACITY`]: crate::directory::NodeSet::CAPACITY
    pub fn new(cfg: MachineConfig, protocol: Protocol) -> Self {
        cfg.validate().expect("invalid machine configuration");
        assert!(
            cfg.num_procs <= crate::directory::NodeSet::CAPACITY,
            "directory sharer sets support ≤ {} processors",
            crate::directory::NodeSet::CAPACITY
        );
        let nodes = (0..cfg.num_procs).map(|_| Node::new(&cfg)).collect();
        let net = Network::new(&cfg);
        let stats = MachineStats::new(cfg.num_procs);
        Machine {
            protocol,
            nodes,
            dir: LineMap::new(),
            parked: LineMap::new(),
            net,
            queue: EventQueue::new(),
            stats,
            workload: Box::new(NullWorkload),
            finished: 0,
            max_cycles: u64::MAX / 4,
            check_every: 0,
            observers: None,
            page_home: LineMap::new(),
            busy_info: LineMap::new(),
            forward_seq: 0,
            fault: Fault::None,
            xmit: None,
            watchdog: None,
            grant_log: Vec::new(),
            waiter_pool: Vec::new(),
            inval_scratch: Vec::new(),
            nacks_given: LineMap::new(),
            nack_nth: None,
            park_seq: 0,
            ni_limited: cfg.resources.ni_ingress.is_some() || cfg.resources.ni_egress.is_some(),
            pending_ni_retries: 0,
            last_ni_reject: None,
            ev_seq: vec![0; cfg.num_procs],
            choice_driven: false,
            handled: 0,
            ops_consumed: vec![0; cfg.num_procs],
            crash: None,
            cfg,
        }
    }

    /// Checker choice point: BUSY-NACK the `n`-th (0-based, across the
    /// whole run) request that would otherwise be parked against a busy
    /// directory entry, regardless of configured capacity. This makes the
    /// NACK/retry path a deterministic branch the model checker can place
    /// anywhere in an interleaving — the bounded-resource analogue of
    /// `FaultPlan::drop_nth`.
    pub fn with_nack_nth(mut self, n: u64) -> Self {
        self.nack_nth = Some(n);
        self
    }

    /// Inject a deliberate protocol bug (see [`Fault`]) — used only to
    /// validate that the model checker catches violations.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = fault;
        self
    }

    /// Install a fault-injection plan on the interconnect and activate the
    /// link-layer reliable-delivery machinery (sequence numbers, ACK/NACK,
    /// retransmit timers with exponential backoff) that recovers from it.
    ///
    /// An inactive plan (all rates zero, no `drop_nth`) installs nothing:
    /// the run stays bit-identical to a machine built without a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        // The crash plan rides the fault plan but is not a link fault: it
        // arms its own subsystem and must not activate the link layer.
        let crash = plan.crash.clone();
        self.net = self.net.with_faults(plan);
        self.xmit = self.net.faults_active().then(|| Box::new(XmitState::default()));
        self.crash = crash.map(|p| Box::new(crash::CrashCtx::new(p, self.cfg.num_procs)));
        self
    }

    /// The fault plan installed on the interconnect, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.net.fault_plan()
    }

    /// Enable the progress watchdog: abort with a structured
    /// [`StallDiagnosis`] when any processor stays continuously stalled for
    /// `horizon` cycles while the machine is still processing events.
    /// Catches livelocks that `max_cycles` alone would only report long
    /// after the fact. Choose a horizon comfortably above the longest
    /// legitimate wait (barrier skew, a deep lock queue, link-layer
    /// backoff).
    pub fn with_watchdog(mut self, horizon: Cycle) -> Self {
        self.watchdog = Some(horizon.max(1));
        self
    }

    /// Track symbolic last-writer values and the lock-grant order, enabling
    /// the checker's final-memory comparison against the reference
    /// sequential interpreter.
    pub fn with_value_tracking(mut self) -> Self {
        let (n, words) = (self.cfg.num_procs, self.cfg.words_per_line());
        self.observers_mut().values = Some(values::ValueTracker::new(n, words));
        self
    }

    /// Enable the online happens-before race detector: per-processor vector
    /// clocks joined along the sync edges the machine executes (lock
    /// release→acquire, barrier arrive→depart), with FastTrack-style
    /// per-word epoch metadata. Results land in [`MachineStats::races`] at
    /// end of run; see [`Machine::race_stats`] for the live view.
    pub fn with_race_detection(mut self) -> Self {
        let (n, word) = (self.cfg.num_procs, self.cfg.word_size as u64);
        self.observers_mut().race = Some(lrc_race::RaceDetector::new(n, word));
        self
    }

    /// Live race-detection counters and reports (`None` when detection is
    /// off). After a completed run they are also folded into
    /// [`MachineStats::races`].
    pub fn race_stats(&self) -> Option<&lrc_sim::RaceStats> {
        Some(self.observers.as_deref()?.race.as_ref()?.stats())
    }

    /// True when race detection is enabled and has found no race so far.
    /// `None` when detection is off (no verdict — the DRF⇒SC value checks
    /// then rest on the workload's unchecked promise).
    pub fn race_free(&self) -> Option<bool> {
        Some(self.observers.as_deref()?.race.as_ref()?.race_free())
    }

    /// Enable miss classification (Table-2 instrumentation). Slows the run.
    pub fn with_classification(mut self) -> Self {
        let (n, words) = (self.cfg.num_procs, self.cfg.words_per_line());
        self.observers_mut().classifier = Some(lrc_classify::Classifier::new(n, words));
        self
    }

    /// Abort (panic) if simulated time exceeds `cycles` — a watchdog against
    /// protocol livelock.
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Record a structured trace: every record passing `filter` lands in a
    /// bounded ring keeping the most recent `cap` entries. Retrieve it from
    /// the machine returned by [`Machine::run_keep`] via
    /// [`Machine::trace_records`], or export it with `lrc_trace::export`.
    pub fn with_trace_filter(mut self, filter: TraceFilter, cap: usize) -> Self {
        let o = self.observers_mut();
        o.filter = filter;
        o.sink = Some(Box::new(RingSink::new(cap)));
        self
    }

    /// Like [`Machine::with_trace_filter`], but records into a
    /// caller-supplied sink (unbounded capture, streaming, custom
    /// aggregation).
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>, filter: TraceFilter) -> Self {
        let o = self.observers_mut();
        o.filter = filter;
        o.sink = Some(sink);
        self
    }

    /// Enable latency histograms: request→reply round-trips per message
    /// class, lock hold/wait times, barrier arrival skew, and NACK retry
    /// counts, folded into [`MachineStats::latencies`] at end of run.
    pub fn with_latency_histograms(mut self) -> Self {
        let n = self.cfg.num_procs;
        self.observers_mut().probe = Some(obs::Probe::new(n));
        self
    }

    /// Enable the interval metrics sampler: every `interval` cycles,
    /// snapshot per-node NI occupancy, directory busy entries, in-flight
    /// messages, write-notice buffer fill, and per-proc cycle-attribution
    /// deltas into a deterministic [`TimeSeries`] (see
    /// [`Machine::time_series`]).
    pub fn with_sampler(mut self, interval: Cycle) -> Self {
        let n = self.cfg.num_procs;
        self.observers_mut().sampler = Some(obs::Sampler::new(interval, n));
        self
    }

    /// Arm the flight recorder explicitly: a bounded ring of the most
    /// recent `cap` records per node, dumped into any [`StallDiagnosis`].
    /// Runs with a watchdog, fault plan, or finite resources arm a
    /// default-depth recorder automatically.
    pub fn with_flight_recorder(mut self, cap: usize) -> Self {
        let n = self.cfg.num_procs;
        self.observers_mut().recorder = Some(FlightRecorder::new(n, cap));
        self
    }

    /// The recorded trace (empty if tracing was off), sorted by
    /// `(at, seq)` into one deterministic timeline. Protocol processors
    /// run ahead of the event clock inside their occupancy windows, so
    /// raw emission order is not time-monotone; this accessor's order is.
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        let mut v = self
            .observers
            .as_ref()
            .and_then(|o| o.sink.as_ref())
            .map(|s| s.snapshot())
            .unwrap_or_default();
        v.sort_unstable_by_key(|r| (r.at, r.seq));
        v
    }

    /// The sampler's time series so far (`None` when sampling is off).
    pub fn time_series(&self) -> Option<&TimeSeries> {
        self.observers.as_ref().and_then(|o| o.sampler.as_ref()).map(|s| &s.series)
    }

    /// The flight recorder's merged tail (empty when no recorder is armed).
    pub fn flight_tail(&self) -> Vec<TraceRecord> {
        self.observers
            .as_ref()
            .and_then(|o| o.recorder.as_ref())
            .map(|r| r.tail())
            .unwrap_or_default()
    }

    /// Sweep the global coherence invariants every `events` handled events,
    /// panicking with a machine dump on the first violation. Expensive —
    /// meant for tests and debugging (see `machine::invariants`).
    pub fn with_invariant_checks(mut self, events: u64) -> Self {
        self.check_every = events.max(1);
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Finite-resource counters accumulated so far (NACKs, NI rejections,
    /// write-notice overflows). Live during checker-stepped runs, where no
    /// [`RunResult`] is produced.
    pub fn resource_stats(&self) -> &lrc_sim::ResourceStats {
        &self.stats.resources
    }

    /// Run `workload` to completion and return the collected statistics.
    ///
    /// # Panics
    /// On deadlock (event queue empty with unfinished processors) or when
    /// a watchdog fires — both indicate protocol bugs (or unrecoverable
    /// injected faults) and panic with the full [`StallDiagnosis`]. Use
    /// [`Machine::try_run`] to receive the diagnosis as an error value
    /// instead.
    pub fn run(self, workload: Box<dyn Workload>) -> RunResult {
        self.run_keep(workload).0
    }

    /// Like [`Machine::run`], but returns the machine alongside the result
    /// so callers can inspect the final directory and cache state (used by
    /// the protocol test suites and handy for debugging workloads).
    pub fn run_keep(self, workload: Box<dyn Workload>) -> (RunResult, Machine) {
        match self.try_run_keep(workload) {
            Ok(out) => out,
            Err(diag) => panic!("{diag}"),
        }
    }

    /// Run `workload` to completion, reporting no-progress as a structured
    /// [`StallDiagnosis`] instead of panicking. This is the entry point for
    /// harnesses that expect wedging (the chaos soak): an unrecoverable
    /// injected fault surfaces here as a diagnosis naming the stalled
    /// processors, pending fences, and abandoned deliveries.
    pub fn try_run(self, workload: Box<dyn Workload>) -> Result<RunResult, Box<StallDiagnosis>> {
        self.try_run_keep(workload).map(|(r, _)| r)
    }

    /// Like [`Machine::try_run`], but returns the machine alongside the
    /// result on success.
    pub fn try_run_keep(
        self,
        workload: Box<dyn Workload>,
    ) -> Result<(RunResult, Machine), Box<StallDiagnosis>> {
        self.try_run_wedge(workload).map_err(|(diag, _)| diag)
    }

    /// Like [`Machine::try_run_keep`], but a stall also hands back the
    /// wedged machine itself, so harnesses can checkpoint the exact state
    /// the watchdog fired in (the chaos soak dumps it next to the wedge
    /// report for offline replay).
    pub fn try_run_wedge(
        mut self,
        workload: Box<dyn Workload>,
    ) -> Result<(RunResult, Machine), (Box<StallDiagnosis>, Box<Machine>)> {
        self.start_run(workload);
        let run_started = std::time::Instant::now();
        match self.run_until(Cycle::MAX) {
            // The queue drained (or an event landed at `Cycle::MAX`, which
            // `max_cycles` — capped well below — would have rejected first).
            Ok(_) => {}
            Err(diag) => return Err((diag, Box::new(self))),
        }
        self.finish_run(run_started)
    }

    /// Install `workload` and seed the event queue for a fresh run:
    /// [`Machine::prepare`]'s one `ProcStep` per processor at t=0, then the
    /// flight recorder auto-armed for at-risk runs, the metrics sampler's
    /// first tick, and the crash plan's events. Drive the run
    /// with [`Machine::run_until`] and close it with
    /// [`Machine::finish_run`]; [`Machine::try_run`] composes the three.
    /// Restored checkpoints skip this — their queue already holds the
    /// mid-run events.
    pub fn start_run(&mut self, workload: Box<dyn Workload>) {
        self.prepare(workload);
        self.arm_default_recorder();
        // Seed the sampler's first tick only when one is configured, so an
        // unsampled run's event stream is bit-identical to builds without
        // the sampler.
        if let Some(iv) = self.sample_interval() {
            self.push_ev(iv, 0, Event::Sample);
        }
        if self.crash.is_some() {
            self.schedule_crash_events();
        }
    }

    /// At-risk runs (watchdog, fault plan, finite resources) arm a
    /// default-depth flight recorder so any StallDiagnosis carries the
    /// events leading up to the stall. The recorder only observes —
    /// statistics and event order are untouched. (Also used when restoring
    /// a checkpoint, which stores no ring contents: the re-armed recorder
    /// refills within `DEFAULT_FLIGHT_CAP` records.)
    pub(crate) fn arm_default_recorder(&mut self) {
        if self.watchdog.is_some()
            || self.xmit.is_some()
            || self.crash.is_some()
            || !self.cfg.resources.is_unbounded()
        {
            let n = self.cfg.num_procs;
            let o = self.observers_mut();
            if o.recorder.is_none() {
                o.recorder = Some(FlightRecorder::new(n, obs::DEFAULT_FLIGHT_CAP));
            }
        }
    }

    /// Drive the event loop until the queue drains or the next pending
    /// event is at or past `limit` (which is left unpopped). Returns
    /// `Ok(true)` when paused with events still pending, `Ok(false)` when
    /// the queue drained — the pause point is a quiescent kernel state a
    /// checkpoint can capture. Pausing does not disturb the run: resuming
    /// with a higher limit replays the uninterrupted event order exactly.
    pub fn run_until(&mut self, limit: Cycle) -> Result<bool, Box<StallDiagnosis>> {
        // The stall watchdog rescans the processors whenever simulated time
        // crosses a multiple of 2^scan_shift, the largest power of two at
        // most an eighth of its horizon: rare enough to stay off the hot
        // path, frequent enough that a stall is caught within an eighth of
        // the horizon past it, however few events the run handles. The
        // cadence depends only on the times of consecutive events, which a
        // restored machine brings back with its clock.
        let scan_shift = self.watchdog.map_or(0, |h| (h / 8).max(1).ilog2());

        loop {
            let before = self.queue.now();
            let Some((t, ev)) = self.queue.pop_before(limit) else {
                return Ok(!self.queue.is_empty());
            };
            if t > self.max_cycles {
                return Err(Box::new(
                    self.diagnose(StallReason::CycleHorizon(self.max_cycles), t),
                ));
            }
            self.dispatch(t, ev);
            self.handled += 1;
            if self.crash.is_some() {
                self.crash_nth_poll(t);
            }
            if self.watchdog.is_some() && t >> scan_shift != before >> scan_shift {
                if let Some(diag) = self.scan_stalls(t) {
                    return Err(Box::new(diag));
                }
            }
            if self.check_every != 0 && self.handled.is_multiple_of(self.check_every) {
                let handled = self.handled;
                self.check_invariants(&format!("event {handled} at t={t}"));
            }
        }
    }

    /// Close out a run whose queue has drained: end-of-run invariants, the
    /// deadlock check, statistics finalization, and the [`RunResult`].
    /// `run_started` anchors `sim_wall_secs`; a resumed run passes its own
    /// resume instant, so the wall clock covers only the post-restore
    /// segment (simulated results are unaffected).
    pub fn finish_run(
        mut self,
        run_started: std::time::Instant,
    ) -> Result<(RunResult, Machine), (Box<StallDiagnosis>, Box<Machine>)> {
        if self.check_every != 0 {
            self.check_invariants("end of run");
        }

        if self.finished != self.live_finish_target() {
            let at = self.queue.now();
            let diag = self.diagnose(StallReason::Deadlock, at);
            return Err((Box::new(diag), Box::new(self)));
        }

        self.collect_fault_stats();
        if let Some(o) = self.observers.as_deref_mut() {
            o.fold_into(&mut self.stats);
        }
        for (i, n) in self.nodes.iter().enumerate() {
            self.stats.procs[i].pp_busy = n.pp.busy_cycles();
            self.stats.procs[i].mem_busy = n.mem.busy_cycles();
        }
        self.stats.total_cycles = self
            .stats
            .procs
            .iter()
            .map(|p| p.finish_time)
            .max()
            .unwrap_or(0);
        let (ni_peak_ingress, ni_peak_egress) = self.net.ni_peaks();
        let result = RunResult {
            protocol: self.protocol,
            workload: self.workload.name().to_string(),
            stats: self.stats.clone(),
            events: self.handled,
            peak_queue_depth: self.queue.peak_len(),
            sim_wall_secs: run_started.elapsed().as_secs_f64(),
            ni_peak_ingress,
            ni_peak_egress,
        };
        Ok((result, self))
    }

    /// Route one popped event to its handler (shared by the normal run
    /// loop and the checker's [`Machine::step_choice`]).
    pub(crate) fn dispatch(&mut self, t: Cycle, ev: Event) {
        // Crash-stop: events from or to a dead node vanished with it.
        if let Some(c) = self.crash.as_deref() {
            if !c.crashed.is_empty() && self.crash_filter(&ev) {
                return;
            }
        }
        match ev {
            Event::ProcStep(p) => self.proc_step(p, t),
            Event::Msg(m) => self.handle_msg(t, m),
            Event::CbFlush(p, line) => self.cb_flush_timer(p, t, line),
            Event::XMsg { msg, seq, corrupt } => self.handle_xmsg(t, msg, seq, corrupt),
            Event::LinkCtl { seq, ack } => self.handle_link_ctl(t, seq, ack),
            Event::RetryTimer { seq } => self.handle_retry_timer(t, seq),
            Event::NiRetry { msg, attempts } => {
                self.pending_ni_retries -= 1;
                self.stats.resources.ni_retries += 1;
                self.observe(t, msg.src, Seen::Resource(ResourceEv::NiRetry));
                self.submit_bounded_attempt(t, msg, attempts);
            }
            Event::NackRetry { msg } => {
                self.stats.resources.nack_retries += 1;
                self.observe(t, msg.src, Seen::Resource(ResourceEv::NackRetry));
                self.send(t, msg.src, msg.dst, msg.kind);
            }
            Event::Sample => {
                self.take_sample(t);
                self.rearm_sampler(t);
            }
            Event::LeaseTick => self.lease_tick(t),
            Event::CrashNode { victim } => self.crash_now(t, victim),
        }
    }

    /// Fold the interconnect's and link layer's fault counters into the
    /// machine statistics (end of run).
    fn collect_fault_stats(&mut self) {
        let fc = self.net.fault_counters();
        let f = &mut self.stats.faults;
        f.dropped = fc.dropped;
        f.duplicated = fc.duplicated;
        f.delayed = fc.delayed;
        f.corrupted = fc.corrupted;
        if let Some(xm) = self.xmit.as_deref() {
            f.link_nacks = xm.counters.link_nacks;
            f.retries = xm.counters.retries;
            f.timeouts = xm.counters.timeouts;
            f.retries_exhausted = xm.counters.retries_exhausted;
            f.dup_suppressed = xm.counters.dup_suppressed;
            f.link_msgs = xm.counters.link_msgs;
        }
    }

    /// Watchdog scan: is any processor continuously stalled beyond the
    /// horizon at time `t`?
    fn scan_stalls(&self, t: Cycle) -> Option<StallDiagnosis> {
        let horizon = self.watchdog?;
        let tripped = self.nodes.iter().any(|n| {
            n.status != ProcStatus::Running
                && n.status != ProcStatus::Finished
                && n.status != ProcStatus::Crashed
                && t.saturating_sub(n.stall_start) > horizon
        });
        tripped.then(|| self.diagnose(StallReason::ProcStallHorizon(horizon), t))
    }

    /// When a generic horizon trip coincides with visible finite-resource
    /// pressure, name the resource: a spent NACK budget on a still-busy
    /// line is a NACK storm, senders waiting out NI backoff point at a
    /// full queue. `None` when neither pattern is present.
    fn classify_resource_pressure(&self) -> Option<StallReason> {
        if self.cfg.resources.dir_request_slots.is_some() {
            let budget = self.cfg.resources.nack_retry_budget;
            if let Some((line, &nacks)) =
                self.nacks_given.iter().max_by_key(|&(_, &n)| n)
            {
                if nacks > 0 && nacks >= budget {
                    return Some(StallReason::NackStorm { line, nacks });
                }
            }
        }
        if self.pending_ni_retries > 0 {
            if let Some((node, occupancy, cap)) = self.last_ni_reject {
                return Some(StallReason::NiQueueFull { node, occupancy, cap });
            }
        }
        None
    }

    /// Build the structured no-progress report.
    fn diagnose(&self, reason: StallReason, at: Cycle) -> StallDiagnosis {
        // Horizon trips and deadlocks are symptoms; if finite-resource
        // pressure is the visible cause, report that instead of the generic
        // reason. (A requester that spent its whole NACK budget falls back
        // to parking, so a never-resolving NACK storm ends as a drained
        // queue — a Deadlock by mechanism, a storm by cause.)
        let reason = match reason {
            StallReason::Deadlock
            | StallReason::CycleHorizon(_)
            | StallReason::ProcStallHorizon(_) => self
                .classify_crash()
                .or_else(|| self.classify_resource_pressure())
                .unwrap_or(reason),
            r => r,
        };
        let stalled: Vec<StalledProc> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.status != ProcStatus::Running && n.status != ProcStatus::Finished)
            .map(|(p, n)| StalledProc {
                proc: p,
                status: format!("{:?}", n.status),
                since: n.stall_start,
            })
            .collect();
        let pending_fences = self
            .nodes
            .iter()
            .filter(|n| matches!(n.status, ProcStatus::Releasing(_)))
            .count();
        let (in_flight_msgs, abandoned_msgs) = match self.xmit.as_deref() {
            Some(xm) => (
                xm.in_flight.len(),
                xm.gave_up.iter().map(XmitState::render_msg).collect(),
            ),
            None => (0, Vec::new()),
        };
        StallDiagnosis {
            reason,
            at,
            finished: self.finished,
            procs: self.cfg.num_procs,
            stalled,
            pending_fences,
            in_flight_msgs,
            abandoned_msgs,
            pending_events: self.queue.len(),
            recent_events: self
                .observers
                .as_ref()
                .and_then(|o| o.recorder.as_ref())
                .map(|r| r.render_tail())
                .unwrap_or_default(),
            machine_dump: self.dump(),
        }
    }

    /// Take a recycled waiters vector from the pool (or a fresh one).
    pub(crate) fn take_waiters(&mut self) -> Vec<NodeId> {
        self.waiter_pool.pop().unwrap_or_default()
    }

    /// Return a drained waiters vector to the pool for reuse.
    pub(crate) fn recycle_waiters(&mut self, mut v: Vec<NodeId>) {
        v.clear();
        if self.waiter_pool.len() < 64 {
            self.waiter_pool.push(v);
        }
    }

    // ---- shared helpers ----------------------------------------------------

    /// Next deterministic tie-break key for an event scheduled by `owner`
    /// (the node whose handler is doing the scheduling): the node id in the
    /// high bits, that node's private monotone counter in the low 48.
    /// Same-cycle events pop in key order, so the total event order is a
    /// pure function of the simulated machine's history — independent of
    /// queue insertion order. The golden fingerprints pin that order, and
    /// it is what lets [`MachineSnapshot::restore`] re-insert a captured
    /// queue in any order and still replay the uninterrupted run.
    #[inline]
    pub(crate) fn ev_key(&mut self, owner: NodeId) -> u64 {
        let s = self.ev_seq[owner];
        self.ev_seq[owner] = s + 1;
        ((owner as u64) << 48) | s
    }

    /// Schedule `ev` at `t` under a key owned by `owner`.
    #[inline]
    pub(crate) fn push_ev(&mut self, t: Cycle, owner: NodeId, ev: Event) {
        let key = self.ev_key(owner);
        self.queue.push(t, key, ev);
    }

    /// Can messages on one src→dst channel be observed out of send order?
    /// Only two mechanisms reorder deliveries: link-layer retransmission
    /// under an active fault plan, and the model checker's interleaving
    /// exploration (`pop_nth` choice points, NACK injection). The protocol's
    /// defensive cross-node peeks — stale evict hints, cancelled forwards —
    /// are gated on this, so fault-free production runs never read another
    /// node's state to resolve a race that FIFO channels rule out.
    #[inline]
    pub(crate) fn delivery_reordering_possible(&self) -> bool {
        self.xmit.is_some() || self.choice_driven || self.nack_nth.is_some()
    }

    /// Line containing byte address `a`.
    #[inline]
    pub(crate) fn line_of(&self, a: Addr) -> LineAddr {
        LineAddr::containing(a, self.cfg.line_size)
    }

    /// Word index of byte address `a` within its line.
    #[inline]
    pub(crate) fn word_of(&self, a: Addr) -> usize {
        self.line_of(a).word_index(a, self.cfg.line_size, self.cfg.word_size)
    }

    /// Page number of byte address `a` (pow2 page sizes shift — this sits
    /// on the home-lookup path of every miss).
    #[inline]
    fn page_of(&self, a: Addr) -> u64 {
        let ps = self.cfg.page_size as u64;
        if ps.is_power_of_two() {
            a >> ps.trailing_zeros()
        } else {
            a / ps
        }
    }

    /// Home node of `line` (static policies).
    #[inline]
    pub(crate) fn home_of(&self, line: LineAddr) -> NodeId {
        let addr = line.base(self.cfg.line_size);
        if self.cfg.placement == lrc_sim::Placement::FirstTouch {
            if let Some(&h) = self.page_home.get(self.page_of(addr)) {
                return h;
            }
        }
        self.cfg.home_of(addr)
    }

    /// Home node of `line`, assigning the page to `toucher` on first touch
    /// under `Placement::FirstTouch`. Use at reference-issue sites.
    #[inline]
    pub(crate) fn home_of_touch(&mut self, line: LineAddr, toucher: NodeId) -> NodeId {
        if self.cfg.placement == lrc_sim::Placement::FirstTouch {
            let page = self.page_of(line.base(self.cfg.line_size));
            return *self.page_home.entry_or_insert_with(page, || toucher);
        }
        self.home_of(line)
    }

    /// Send a protocol message, recording traffic and scheduling delivery.
    pub(crate) fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, kind: MsgKind) {
        if self.crash.is_some() && src != dst {
            // Degraded mode: the sender knows `dst` is dead — requests
            // forge their own replies, the rest is suppressed.
            if self.crash_suspects(src, dst) {
                self.degrade_send(now, src, kind);
                return;
            }
            // Track which peer owes each unacked write-through/write-back,
            // so a death writes off exactly the acks it can never send.
            let c = self.crash.as_deref_mut().expect("checked above");
            match kind {
                MsgKind::WriteThrough { .. } => c.wt_to[src][dst] += 1,
                MsgKind::WriteBack { .. } => c.wbk_to[src][dst] += 1,
                _ => {}
            }
        }
        let bytes = kind.bytes(
            self.cfg.ctrl_msg_bytes,
            self.cfg.line_size as u64,
            self.cfg.word_size as u64,
        );
        self.stats.procs[src].traffic.record(kind.traffic_class(), bytes);
        self.observe(now, src, Seen::Sent { dst, kind });
        if self.xmit.is_some() && src != dst {
            self.xmit_send(now, Msg { src, dst, kind });
            return;
        }
        if self.ni_limited {
            self.submit_bounded(now, Msg { src, dst, kind });
            return;
        }
        let arrival = self
            .net
            .send(now, src, dst, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
        let key = self.ev_key(src);
        self.queue.push(arrival, key, Event::Msg(Msg { src, dst, kind }));
    }

    /// Hand `msg` to the finite-queue NI: accepted sends schedule delivery
    /// as usual; a full queue rejects the send and schedules a retry after
    /// capped exponential backoff, charging nothing to the wire. Retries
    /// re-enter here with a growing `attempts`, so a persistently full
    /// queue backs its senders off harder and harder (never livelocking —
    /// the queue drains with time, and backoff always advances time).
    fn submit_bounded(&mut self, now: Cycle, msg: Msg) {
        self.submit_bounded_attempt(now, msg, 0);
    }

    fn submit_bounded_attempt(&mut self, now: Cycle, msg: Msg, attempts: u32) {
        let bytes = msg.kind.bytes(
            self.cfg.ctrl_msg_bytes,
            self.cfg.line_size as u64,
            self.cfg.word_size as u64,
        );
        let outcome = self
            .net
            .try_send(now, msg.src, msg.dst, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
        match outcome {
            Ok(arrival) => self.push_ev(arrival, msg.src, Event::Msg(msg)),
            Err(busy) => {
                let delay = self.cfg.resources.backoff(attempts);
                self.stats.resources.backpressure_stall_cycles += delay;
                self.pending_ni_retries += 1;
                self.ni_rejected(now, busy);
                self.push_ev(now + delay, msg.src, Event::NiRetry { msg, attempts: attempts + 1 });
            }
        }
    }

    /// Account one send a full NI queue rejected.
    fn ni_rejected(&mut self, now: Cycle, busy: lrc_mesh::NiBusy) {
        self.stats.resources.ni_rejects += 1;
        self.last_ni_reject = Some((busy.node, busy.occupancy, busy.cap));
        let clamp = |n: usize| n.min(u32::MAX as usize) as u32;
        let ev = ResourceEv::NiReject { occupancy: clamp(busy.occupancy), cap: clamp(busy.cap) };
        self.observe(now, busy.node, Seen::Resource(ev));
    }

    // ---- link-layer reliable delivery (active fault plans only) ------------

    /// Frame `msg` with a fresh sequence number, buffer it for
    /// retransmission, and put the first copy on the (faulty) wire.
    fn xmit_send(&mut self, now: Cycle, msg: Msg) {
        let xm = self.xmit.as_deref_mut().expect("xmit_send requires a fault plan");
        let seq = xm.next_seq;
        xm.next_seq += 1;
        xm.in_flight.insert(seq, InFlight { msg, attempts: 0, next_deadline: 0 });
        self.transmit(now, seq);
    }

    /// Put one copy of in-flight sequence `seq` on the wire and (re)arm its
    /// retry timer with exponential backoff.
    fn transmit(&mut self, now: Cycle, seq: u64) {
        let Some(inf) = self.xmit.as_deref().and_then(|xm| xm.in_flight.get(&seq)) else {
            return;
        };
        let (msg, attempts) = (inf.msg, inf.attempts);
        let bytes = msg.kind.bytes(
            self.cfg.ctrl_msg_bytes,
            self.cfg.line_size as u64,
            self.cfg.word_size as u64,
        );
        // Finite NI queues: a full queue rejects this transmission attempt
        // outright (nothing reaches the wire); the retry timer armed below
        // re-attempts after backoff, so the link layer's retransmit
        // machinery doubles as the backpressure loop under fault plans.
        let ni_rejected = match self.net.ni_busy(now, msg.src, msg.dst) {
            Some(busy) => {
                self.ni_rejected(now, busy);
                true
            }
            None => false,
        };
        if !ni_rejected {
            let delivery = self
                .net
                .send_classed(now, msg.src, msg.dst, bytes, msg.kind.msg_class())
                .unwrap_or_else(|e| panic!("{e}"));
            for a in [delivery.first, delivery.dup].into_iter().flatten() {
                self.push_ev(a.at, msg.src, Event::XMsg { msg, seq, corrupt: a.corrupt });
            }
        }
        let deadline = now
            + self
                .net
                .fault_plan()
                .expect("transmit requires a fault plan")
                .backoff(attempts);
        if let Some(inf) = self.xmit.as_deref_mut().and_then(|xm| xm.in_flight.get_mut(&seq)) {
            inf.next_deadline = deadline;
            // A rejected attempt never reached the wire, so it must not
            // spend the retry budget: a full queue is not a lost copy.
            if ni_rejected {
                inf.attempts = inf.attempts.saturating_sub(1);
            }
        }
        self.push_ev(deadline, msg.src, Event::RetryTimer { seq });
    }

    /// One framed copy arrived at its destination NI: checksum, ACK/NACK,
    /// dedupe, and hand clean first deliveries to the protocol.
    fn handle_xmsg(&mut self, t: Cycle, msg: Msg, seq: u64, corrupt: bool) {
        if corrupt {
            if let Some(xm) = self.xmit.as_deref_mut() {
                xm.counters.link_nacks += 1;
            }
            self.send_link_ctl(t, msg.dst, msg.src, seq, false);
            return;
        }
        self.send_link_ctl(t, msg.dst, msg.src, seq, true);
        let xm = self.xmit.as_deref_mut().expect("XMsg events require a fault plan");
        if !xm.seen.insert(seq) {
            xm.counters.dup_suppressed += 1;
            return;
        }
        self.handle_msg(t, msg);
    }

    /// Send a link-layer ACK or checksum NACK for `seq` back to the sender.
    /// Control copies that the fabric corrupts are discarded on arrival
    /// (the sender's retry timer covers the loss).
    fn send_link_ctl(&mut self, now: Cycle, src: NodeId, dst: NodeId, seq: u64, ack: bool) {
        if let Some(xm) = self.xmit.as_deref_mut() {
            xm.counters.link_msgs += 1;
        }
        let delivery = self
            .net
            .send_classed(now, src, dst, self.cfg.ctrl_msg_bytes, lrc_mesh::MsgClass::Link)
            .unwrap_or_else(|e| panic!("{e}"));
        for a in [delivery.first, delivery.dup].into_iter().flatten() {
            if !a.corrupt {
                self.push_ev(a.at, src, Event::LinkCtl { seq, ack });
            }
        }
    }

    /// A link ACK retires the in-flight entry; a checksum NACK triggers an
    /// immediate retransmission (or gives the message up once retries are
    /// exhausted).
    fn handle_link_ctl(&mut self, t: Cycle, seq: u64, ack: bool) {
        let xm = self.xmit.as_deref_mut().expect("LinkCtl events require a fault plan");
        if ack {
            xm.in_flight.remove(&seq);
            return;
        }
        if self.bump_attempts(seq) {
            self.transmit(t, seq);
        }
    }

    /// The retry timer for `seq` expired: retransmit unless the entry was
    /// acknowledged meanwhile or this timer was superseded by a NACK-driven
    /// retransmission's later deadline.
    fn handle_retry_timer(&mut self, t: Cycle, seq: u64) {
        let xm = self.xmit.as_deref_mut().expect("RetryTimer events require a fault plan");
        let Some(inf) = xm.in_flight.get(&seq) else {
            return;
        };
        if t < inf.next_deadline {
            return;
        }
        xm.counters.timeouts += 1;
        if self.bump_attempts(seq) {
            self.transmit(t, seq);
        }
    }

    /// Count one more delivery attempt for `seq`. Returns true when a
    /// retransmission should happen; false when the entry is gone or the
    /// link layer just gave the message up (retries exhausted).
    fn bump_attempts(&mut self, seq: u64) -> bool {
        let max_retries = self
            .net
            .fault_plan()
            .expect("link layer requires a fault plan")
            .max_retries;
        let xm = self.xmit.as_deref_mut().expect("link layer requires a fault plan");
        let Some(inf) = xm.in_flight.get_mut(&seq) else {
            return false;
        };
        inf.attempts += 1;
        if inf.attempts > max_retries {
            let inf = xm.in_flight.remove(&seq).expect("checked above");
            xm.counters.retries_exhausted += 1;
            xm.gave_up.push(inf.msg);
            return false;
        }
        xm.counters.retries += 1;
        true
    }

    /// Queue `msg` until its line's directory entry frees; the NAK probe
    /// occupies the home's protocol processor briefly.
    pub(crate) fn park(&mut self, msg: Msg, t: Cycle) {
        let _ = self.nodes[msg.dst].pp.occupy(t, self.cfg.write_notice_cost);
        let line = msg.kind.line().expect("parked messages concern a line");
        let q = self.parked.entry_or_default(line.0);
        q.push_back((msg, t));
        let depth = q.len() as u64;
        if depth > self.stats.resources.peak_parked {
            self.stats.resources.peak_parked = depth;
        }
    }

    /// Decide how the home treats a request that found `line`'s entry busy
    /// (after the dead-forward escape declined to handle it):
    /// `Some(attempt)` = send a BUSY-NACK back to the requester,
    /// `None` = park it in the home's queue.
    ///
    /// With unbounded request slots (the default) this always parks,
    /// preserving the assume-quiescent behavior bit-for-bit. With
    /// `dir_request_slots = Some(k)`, the first `k` racers still park and
    /// later ones are NACKed — but only `nack_retry_budget` times per busy
    /// episode; once the budget is spent, requests park regardless, so
    /// forward progress never depends on a retry winning a race (and the
    /// checker's state space stays finite). `nack_nth` (checker mode)
    /// forces a NACK at an exact request ordinal instead.
    pub(crate) fn busy_action(&mut self, line: LineAddr) -> Option<u32> {
        let forced = self.nack_nth == Some(self.park_seq);
        self.park_seq += 1;
        if forced {
            return Some(0);
        }
        let cap = self.cfg.resources.dir_request_slots?;
        if self.parked.get(line.0).map_or(0, |q| q.len()) < cap {
            return None;
        }
        let budget = self.cfg.resources.nack_retry_budget;
        let n = self.nacks_given.entry_or_default(line.0);
        if *n < budget {
            *n += 1;
            Some(*n - 1)
        } else {
            self.stats.resources.nack_park_fallbacks += 1;
            None
        }
    }

    /// BUSY-NACK `m` back to its sender: the home's protocol processor
    /// handles the rejection like a NAK probe, and the requester re-sends
    /// the request after `attempt`-scaled backoff. The NACK echoes enough
    /// of the request to reconstruct it verbatim at the requester.
    pub(crate) fn send_busy_nack(&mut self, t: Cycle, m: Msg, line: LineAddr, attempt: u32) {
        self.stats.resources.busy_nacks += 1;
        let done = self.nodes[m.dst].pp.occupy(t, self.cfg.write_notice_cost);
        let (for_write, had_copy, words) = match m.kind {
            MsgKind::WriteReq { had_copy, words, .. } => (true, had_copy, words),
            _ => (false, false, 0),
        };
        self.send(done, m.dst, m.src, MsgKind::BusyNack { line, for_write, had_copy, words, attempt });
    }

    /// Requester side of a BUSY-NACK: wait out the capped exponential
    /// backoff, then re-send the original request. The outstanding
    /// transaction entry is untouched — a NACKed retry is observationally a
    /// parked request re-dispatched later, just with the wait spent at the
    /// requester instead of in the home's queue.
    pub(crate) fn on_busy_nack(&mut self, t: Cycle, m: Msg) {
        let MsgKind::BusyNack { line, for_write, had_copy, words, attempt } = m.kind else {
            unreachable!("on_busy_nack dispatched on a non-BusyNack message");
        };
        let done = self.nodes[m.dst].pp.occupy(t, self.cfg.write_notice_cost);
        let delay = self.cfg.resources.backoff(attempt);
        self.stats.resources.backpressure_stall_cycles += delay;
        self.observe(t, m.dst, Seen::Resource(ResourceEv::BusyNack { attempt: attempt + 1 }));
        let kind = if for_write {
            MsgKind::WriteReq { line, had_copy, words }
        } else {
            MsgKind::ReadReq { line }
        };
        self.push_ev(done + delay, m.dst, Event::NackRetry { msg: Msg { src: m.dst, dst: m.src, kind } });
    }

    /// If `line`'s entry is free (no busy 3-hop, no ack collection) and a
    /// request is queued, re-dispatch the oldest one after one NAK retry
    /// round trip.
    pub(crate) fn maybe_release_parked(&mut self, t: Cycle, line: LineAddr) {
        let free = self
            .dir
            .get(line.0)
            .is_none_or(|e| !e.busy && e.pending.is_none());
        if !free {
            return;
        }
        // The busy episode is over: the next one gets a fresh NACK budget.
        // (Guarded — `nacks_given` stays untouched, hence empty, at the
        // default unbounded configuration.)
        if self.cfg.resources.dir_request_slots.is_some() {
            self.nacks_given.remove(line.0);
        }
        // A dead node's parked requests are dead weight: re-dispatching one
        // would evaporate in the crash filter and strand every live request
        // queued behind it (the release chain advances one message per
        // episode). Drop them here, where the queue is about to drive the
        // next episode — suspicion-time reclamation only covers requests
        // parked before the observer suspected.
        if let Some(c) = self.crash.as_deref() {
            let crashed = c.crashed;
            if let Some(q) = self.parked.get_mut(line.0) {
                let before = q.len();
                q.retain(|(m, _)| !crashed.contains(m.src));
                self.stats.crashes.parked_dropped += (before - q.len()) as u64;
                if q.is_empty() {
                    self.parked.remove(line.0);
                }
            }
        }
        let Some(q) = self.parked.get_mut(line.0) else {
            return;
        };
        if let Some((msg, parked_at)) = q.pop_front() {
            if q.is_empty() {
                self.parked.remove(line.0);
            }
            // A queued request models a DASH requester NAK-retrying: each
            // retry re-probes the home's protocol processor. Charge the
            // probes the wait implied (capped), then re-dispatch after one
            // final retry round trip. This is the hot-spot degradation the
            // paper attributes to the eager protocol's 3-hop/invalidated
            // windows; the lazy protocol never parks, so it never pays it.
            let waited = t.saturating_sub(parked_at);
            let probes = (waited / self.cfg.nack_retry_delay.max(1)).min(32);
            if probes > 0 {
                let _ = self.nodes[msg.dst]
                    .pp
                    .occupy(t, probes * self.cfg.write_notice_cost);
            }
            let owner = msg.dst;
            self.push_ev(t + self.cfg.nack_retry_delay, owner, Event::Msg(msg));
        }
    }

    /// Mark `p` blocked at local time `now` with the given stall bucket.
    pub(crate) fn block(&mut self, p: ProcId, now: Cycle, kind: StallKind, status: ProcStatus) {
        let n = &mut self.nodes[p];
        debug_assert_eq!(n.status, ProcStatus::Running);
        n.status = status;
        n.stall_start = now;
        n.stall_kind = kind;
    }

    /// Resume `p` at time `t`: attribute the stall and schedule a step.
    ///
    /// `t` is clamped to the blocking time: a processor that ran ahead of
    /// the global clock inside its skew quantum must never resume in its
    /// own past, or cycles would be attributed twice.
    pub(crate) fn resume(&mut self, p: ProcId, t: Cycle) {
        let n = &mut self.nodes[p];
        debug_assert!(n.status != ProcStatus::Running && n.status != ProcStatus::Finished);
        let t = t.max(n.stall_start);
        let stall = t - n.stall_start;
        let kind = n.stall_kind;
        n.status = ProcStatus::Running;
        self.stats.procs[p].breakdown.add(kind, stall);
        if !n.step_scheduled {
            n.step_scheduled = true;
            let at = t.max(self.queue.now());
            self.push_ev(at, p, Event::ProcStep(p));
        }
    }

    /// Schedule a `ProcStep` for `p` at `t` unless one is already queued.
    pub(crate) fn schedule_step(&mut self, p: ProcId, t: Cycle) {
        if !self.nodes[p].step_scheduled {
            self.nodes[p].step_scheduled = true;
            let at = t.max(self.queue.now());
            self.push_ev(at, p, Event::ProcStep(p));
        }
    }

    /// Route a received message to the right handler.
    fn handle_msg(&mut self, t: Cycle, m: Msg) {
        use MsgKind::*;
        self.observe(t, m.dst, Seen::Delivered { src: m.src, kind: m.kind });
        if let Some(c) = self.crash.as_deref_mut() {
            if m.src != m.dst {
                // Any delivery refreshes the receiver's lease on the
                // sender; acks settle the sender's per-peer write credit
                // (saturating: recovery may have written it off already).
                if c.last_heard[m.dst][m.src] < t {
                    c.last_heard[m.dst][m.src] = t;
                }
                match m.kind {
                    WriteThroughAck { .. } => {
                        let owed = &mut c.wt_to[m.dst][m.src];
                        *owed = owed.saturating_sub(1);
                    }
                    WriteBackAck { .. } => {
                        let owed = &mut c.wbk_to[m.dst][m.src];
                        *owed = owed.saturating_sub(1);
                    }
                    _ => {}
                }
            }
        }
        match m.kind {
            // Directory side (home node).
            ReadReq { .. } | WriteReq { .. } | WriteThrough { .. } | WriteBack { .. }
            | EvictNotify { .. } | InvAck { .. } | NoticeAck { .. } | CopyBack { .. }
            | ForwardNack { .. } => self.handle_at_home(t, m),
            // Cache side (requester / third party).
            ReadReply { .. } | WriteReply { .. } | WriteAck { .. } | WriteThroughAck { .. }
            | WriteBackAck { .. } | Invalidate { .. } | WriteNotice { .. } | Forward { .. }
            | OwnerData { .. } | BusyNack { .. } | ForwardCancel { .. } => self.handle_at_cache(t, m),
            // Synchronization.
            LockAcq { .. } | LockGrant { .. } | LockRel { .. } | BarrierArrive { .. }
            | BarrierRelease { .. } => self.handle_sync_msg(t, m),
            // Heartbeats exist only to refresh the lease updated above.
            Heartbeat => {}
        }
    }

    /// Human-readable machine dump for panic diagnostics.
    fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "protocol={} t={}", self.protocol, self.queue.now());
        self.dump_crash(&mut s);
        if !self.stats.resources.is_zero() {
            let _ = writeln!(s, "  resources: {:?}", self.stats.resources);
            let _ = writeln!(
                s,
                "  ni: pending_retries={} last_reject={:?} peaks(in,out)={:?}",
                self.pending_ni_retries,
                self.last_ni_reject,
                self.net.ni_peaks(),
            );
            for (l, &n) in self.nacks_given.iter() {
                let _ = writeln!(s, "  nacks line {l}: {n} this episode");
            }
        }
        if let Some(xm) = self.xmit.as_deref() {
            let _ = writeln!(
                s,
                "  link layer: next_seq={} in_flight={} gave_up={} {:?}",
                xm.next_seq,
                xm.in_flight.len(),
                xm.gave_up.len(),
                xm.counters,
            );
            let mut inflight: Vec<_> = xm.in_flight.iter().collect();
            inflight.sort_unstable_by_key(|&(&s, _)| s);
            for (seq, inf) in inflight.into_iter().take(16) {
                let _ = writeln!(
                    s,
                    "    seq {seq}: {} attempts={} due={}",
                    XmitState::render_msg(&inf.msg),
                    inf.attempts,
                    inf.next_deadline,
                );
            }
        }
        for (p, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  P{p}: {:?} wb={} cb={} out={} pend_inv={} delayed={} wt={} wbk={}",
                n.status,
                n.wb.len(),
                n.cb.len(),
                n.outstanding.len(),
                n.pending_invals.len(),
                n.delayed_writes.len(),
                n.wt_unacked,
                n.wbk_unacked,
            );
            let mut out: Vec<_> = n.outstanding.iter().collect();
            out.sort_unstable_by_key(|&(&l, _)| l);
            for (l, o) in out {
                let _ = writeln!(s, "    out line {l}: {o:?}");
            }
        }
        for (l, q) in self.parked.iter() {
            let e = self.dir.get(l);
            let _ = writeln!(
                s,
                "  parked line {l}: {} msgs {:?}; dir busy={:?} pending={:?} sharers={:b} writers={:b}",
                q.len(),
                q.iter().map(|(m, _)| (m.src, m.kind)).collect::<Vec<_>>(),
                e.map(|e| e.busy),
                e.map(|e| e.pending.is_some()),
                e.map_or(crate::directory::NodeSet::EMPTY, |e| e.sharers()),
                e.map_or(crate::directory::NodeSet::EMPTY, |e| e.writers()),
            );
        }
        // LineMap iteration is already in ascending line order.
        for (l, e) in self.dir.iter().filter(|(_, e)| e.pending.is_some()) {
            let _ = writeln!(
                s,
                "  dir line {l}: state={:?} sharers={:b} writers={:b} pending={:?}",
                e.state(),
                e.sharers(),
                e.writers(),
                e.pending
            );
        }
        s
    }

    /// The set of every node in the machine.
    #[inline]
    pub(crate) fn all_nodes_mask(&self) -> crate::directory::NodeSet {
        crate::directory::NodeSet::first_n(self.cfg.num_procs)
    }

    /// Apply the limited-pointer overflow rule to `line`'s entry after a
    /// sharer/writer was added (no-op for full-map directories).
    pub(crate) fn apply_pointer_limit(&mut self, line: LineAddr) {
        if let Some(k) = self.cfg.dir_pointers {
            if let Some(e) = self.dir.get_mut(line.0) {
                if e.sharer_count() as usize > k {
                    e.overflow = true;
                }
            }
        }
    }

    /// Immutable view of a directory entry (tests / invariant checks).
    pub fn dir_entry(&self, line: LineAddr) -> Option<&DirEntry> {
        self.dir.get(line.0)
    }

    /// Local cache permission of `line` at node `p` (tests / debugging).
    pub fn cache_state(&self, p: ProcId, line: LineAddr) -> lrc_mem::LineState {
        self.nodes[p].cache.state(line)
    }

    /// Lines queued for invalidation at `p`'s next acquire (lazy protocols).
    pub fn pending_invals(&self, p: ProcId) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> =
            self.nodes[p].pending_invals.iter().map(|&l| LineAddr(l)).collect();
        lines.sort_unstable_by_key(|l| l.0);
        lines
    }
}

/// Placeholder workload used before `run` installs the real one.
struct NullWorkload;

impl Workload for NullWorkload {
    fn name(&self) -> &str {
        "null"
    }
    fn num_procs(&self) -> usize {
        0
    }
    fn addr_space(&self) -> u64 {
        0
    }
    fn next_op(&mut self, _proc: ProcId) -> lrc_sim::Op {
        lrc_sim::Op::Done
    }
}
