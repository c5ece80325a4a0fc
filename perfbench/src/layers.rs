//! The metric registry: every end-to-end and per-layer metric the benchmark
//! reports, with its unit, which direction is better, and — for the layer
//! metrics — the layer it measures, the end-to-end metric and workload it
//! should move, and the workload where it should stay flat.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// What it is.
    pub about: &'static str,
}

/// The end-to-end metrics, reported with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
        better: "higher",
        about: "simulated cycles per host second inside the event loop, median over iterations",
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        about: "host seconds of one iteration, construction to verified result, median",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        about: "host seconds of op-stream generation plus machine construction, median of repeated set-ups",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        about: "resident-set high-water mark while the workload runs",
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: "lower",
        about: "MachineStats::total_cycles of the modelled machine (exact)",
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The layer measured.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change in this layer should move.
    pub moves: &'static str,
    /// The workload where it should stay flat.
    pub flat: &'static str,
}

const SIM: &str = "lrc-sim event kernel";
const OPS: &str = "lrc-workloads op generation";
const MEM: &str = "lrc-mem caches and buffers";
const CORE: &str = "lrc-core directory, home and protocol engines";
const MESH: &str = "lrc-mesh network and NI ports";
const LINK: &str = "lrc-core link layer (xmit)";
const RACE: &str = "lrc-race and value tracking";
const SNAP: &str = "lrc-core snapshot and lrc-json codec";
const CHECK: &str = "lrc-check exploration";
const BENCH: &str = "the benchmark itself";

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
    flat: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
        flat,
    }
}

const MOVES_SIM: &str = "sim_mcycles_per_s on mp3d-lazy";
const MOVES_OPS: &str =
    "sim_mcycles_per_s on gauss-sc; run_s on soak-fft (restore replays consumed ops)";
const MOVES_MEM: &str = "sim_mcycles_per_s on gauss-sc";
const MOVES_CORE: &str =
    "sim_mcycles_per_s on mp3d-lazy; sim_cycles there for a modelled-design change";
const MOVES_LINK: &str = "sim_mcycles_per_s and run_s on soak-fft";
const MOVES_RACE: &str = "sim_mcycles_per_s on soak-fft";
const MOVES_SNAP: &str = "run_s and peak_rss_mib on soak-fft";
const MOVES_CHECK: &str = "run_s on check-lazy";
const MOVES_BENCH: &str = "none: records the tracing cost and host noise";
const FLAT_COHERENCE: &str = "gauss-sc";
const FLAT_MP3D: &str = "mp3d-lazy";
const FLAT_RACE: &str = "mp3d-lazy and gauss-sc";

/// The per-layer metrics, reported by the traced run.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 67] = [
    m("sim.events", "count", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("sim.events_per_kcycle", "events/kcycle", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("sim.peak_queue_depth", "count", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("sim.ns_per_event", "ns", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("sim.slice_ms.p50", "ms", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("sim.slice_ms.max", "ms", "lower", SIM, MOVES_SIM, FLAT_COHERENCE),
    m("workloads.ops", "count", "lower", OPS, MOVES_OPS, FLAT_MP3D),
    m("workloads.refs", "count", "lower", OPS, MOVES_OPS, FLAT_MP3D),
    m("workloads.sync_ops", "count", "lower", OPS, MOVES_OPS, FLAT_MP3D),
    m("workloads.next_op_ns", "ns", "lower", OPS, MOVES_OPS, FLAT_MP3D),
    m("workloads.busy_frac", "fraction", "lower", OPS, MOVES_OPS, FLAT_MP3D),
    m("mem.refs", "count", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("mem.read_misses", "count", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("mem.write_misses", "count", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("mem.upgrades", "count", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("mem.hit_ratio", "fraction", "higher", MEM, MOVES_MEM, "check-lazy"),
    m("mem.busy_cycles", "cycles", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("mem.probe_ns", "ns", "lower", MEM, MOVES_MEM, "check-lazy"),
    m("core.msgs.control", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.msgs.data", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.msgs.write_data", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.bytes", "bytes", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.msgs_per_ref", "msgs/ref", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.three_hop", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.write_notices", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.acquire_invalidations", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.eager_invalidations", "count", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.notice_yield", "fraction", "higher", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.pp_busy_cycles", "cycles", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.cpu_cycles", "cycles", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.stall.read_cycles", "cycles", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.stall.write_cycles", "cycles", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("core.stall.sync_cycles", "cycles", "lower", CORE, MOVES_CORE, FLAT_COHERENCE),
    m("mesh.sends", "count", "lower", MESH, MOVES_SIM, FLAT_COHERENCE),
    m("mesh.bytes", "bytes", "lower", MESH, MOVES_SIM, FLAT_COHERENCE),
    m("mesh.send_ns", "ns", "lower", MESH, MOVES_SIM, FLAT_COHERENCE),
    m("mesh.faults.injected", "count", "lower", MESH, MOVES_LINK, FLAT_MP3D),
    m("link.retries", "count", "lower", LINK, MOVES_LINK, FLAT_MP3D),
    m("link.timeouts", "count", "lower", LINK, MOVES_LINK, FLAT_MP3D),
    m("link.msgs", "count", "lower", LINK, MOVES_LINK, FLAT_MP3D),
    m("link.dup_suppressed", "count", "lower", LINK, MOVES_LINK, FLAT_MP3D),
    m("link.retries_exhausted", "count", "lower", LINK, MOVES_LINK, FLAT_MP3D),
    m("link.goodput", "fraction", "higher", LINK, MOVES_LINK, FLAT_MP3D),
    m("race.words_monitored", "count", "lower", RACE, MOVES_RACE, FLAT_RACE),
    m("race.vector_promotions", "count", "lower", RACE, MOVES_RACE, FLAT_RACE),
    m("race.fast_path_ratio", "fraction", "higher", RACE, MOVES_RACE, FLAT_RACE),
    m("race.races_found", "count", "lower", RACE, MOVES_RACE, FLAT_RACE),
    m("race.cost_s", "s", "lower", RACE, MOVES_RACE, FLAT_RACE),
    m("values.cost_s", "s", "lower", RACE, MOVES_RACE, FLAT_RACE),
    m("snapshot.bytes", "bytes", "lower", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("snapshot.capture_s", "s", "lower", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("snapshot.encode_s", "s", "lower", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("snapshot.parse_s", "s", "lower", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("snapshot.restore_s", "s", "lower", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("json.encode_mib_per_s", "MiB/s", "higher", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("json.parse_mib_per_s", "MiB/s", "higher", SNAP, MOVES_SNAP, FLAT_MP3D),
    m("check.states", "count", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.terminals", "count", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.max_depth", "count", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.states_per_s", "1/s", "higher", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.clone_us", "us", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.step_us", "us", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.fingerprint_us", "us", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("check.violations_us", "us", "lower", CHECK, MOVES_CHECK, FLAT_MP3D),
    m("bench.trace_overhead", "fraction", "lower", BENCH, MOVES_BENCH, "all"),
    m("host.steal_frac", "fraction", "lower", BENCH, MOVES_BENCH, "all"),
    m("host.pace_ns", "ns", "lower", BENCH, MOVES_BENCH, "all"),
];

/// The unit of metric `name`, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
