//! Every observer output, pinned byte for byte.
//!
//! The other observability tests compare an instrumented run only with a
//! rerun or with an uninstrumented run, and the golden fingerprints pin
//! miss classes only. So a change that reordered trace records, moved a
//! race-detector join or dropped a latency sample would pass all of them.
//! This suite runs eight fully instrumented machines and pins one document
//! per machine: the structured trace, the sampler's time series, the final
//! statistics (latency histograms, miss classes and race reports included),
//! the symbolic final memory, the lock-grant log and the flight recorder's
//! tail. Each document's length and FNV-1a-64 digest change only when some
//! observer's output does.

use lazy_rc::prelude::*;
use lazy_rc::trace::export::jsonl;
use lazy_rc::workloads::Scale;
use lrc_json::ToJson;

const PROCS: usize = 8;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A machine with every observer installed.
fn observed(cfg: MachineConfig, protocol: Protocol) -> Machine {
    Machine::new(cfg, protocol)
        .with_max_cycles(50_000_000_000)
        .with_trace_filter(TraceFilter::all(), 1 << 20)
        .with_latency_histograms()
        .with_sampler(5_000)
        .with_flight_recorder(32)
        .with_classification()
        .with_race_detection()
        .with_value_tracking()
}

/// Run mp3d/tiny on `m` and render everything its observers produced.
/// Returns the trace record count and the document.
fn document(m: Machine) -> (usize, String) {
    let (r, m) = m.run_keep(WorkloadKind::Mp3d.build(PROCS, Scale::Tiny));
    let trace = m.trace_records();
    let parts = [
        jsonl(&trace),
        m.time_series().expect("sampler installed").to_csv(),
        r.stats.to_json().pretty(),
        format!("{:?}", m.final_memory()),
        format!("{:?}", m.grant_log()),
        jsonl(&m.flight_tail()),
    ];
    let mut doc = String::new();
    for p in parts {
        doc.push_str(&p);
        doc.push('\n');
    }
    (trace.len(), doc)
}

#[test]
fn observer_outputs_are_pinned() {
    let plain = || MachineConfig::paper_default(PROCS);
    let mut bounded = plain();
    bounded.resources.ni_ingress = Some(2);
    bounded.resources.ni_egress = Some(2);
    bounded.resources.dir_request_slots = Some(0);
    bounded.resources.write_notice_buffer = Some(4);
    let mut cp = CrashPlan::kill(2, 2_000);
    cp.heartbeat_every = 500;
    cp.lease_timeout = 4_000;

    let cases: [(&str, Machine, usize, usize, u64); 8] = [
        ("plain sc", observed(plain(), Protocol::Sc), 179_331, 21_142_203, 0x24a7_49f4_db14_d085),
        ("plain erc", observed(plain(), Protocol::Erc), 178_003, 20_979_134, 0x803b_12c1_ea9d_91e4),
        ("plain lrc", observed(plain(), Protocol::Lrc), 107_693, 13_260_565, 0x50d8_dded_8eaf_6fc1),
        (
            "plain lrc-ext",
            observed(plain(), Protocol::LrcExt),
            64_175,
            7_686_892,
            0xfa86_9469_f141_3ffb,
        ),
        (
            "faults lrc",
            observed(plain(), Protocol::Lrc).with_fault_plan(FaultPlan::uniform(0.005, 0xFEED)),
            106_421,
            13_113_441,
            0x6a44_25fa_decd_cf9b,
        ),
        (
            "bounded erc",
            observed(bounded.clone(), Protocol::Erc),
            273_534,
            28_297_771,
            0x035a_c506_1c5a_ea7f,
        ),
        (
            "bounded lrc",
            observed(bounded, Protocol::Lrc),
            743_302,
            58_741_349,
            0xf65d_f7dc_360f_f34e,
        ),
        (
            "crash lrc",
            observed(plain(), Protocol::Lrc)
                .with_fault_plan(FaultPlan::off(0xC0FFEE).with_crash(cp)),
            114_300,
            13_573_075,
            0x5bab_1304_5d01_839a,
        ),
    ];
    for (name, m, records, len, digest) in cases {
        let (n, doc) = document(m);
        assert_eq!(
            (n, doc.len(), format!("{:016x}", fnv1a64(doc.as_bytes()))),
            (records, len, format!("{digest:016x}")),
            "{name}: an observer's output changed"
        );
    }
}
