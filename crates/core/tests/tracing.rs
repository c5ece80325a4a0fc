//! Tests for the structured trace layer: record content, filters, ring
//! capacity, and ordering guarantees.

use lrc_core::{Machine, RecData, TraceFilter};
use lrc_sim::{MachineConfig, Op, Protocol, Script};

fn addr(line: u64, word: u64) -> u64 {
    line * 128 + word * 4
}

#[test]
fn trace_records_the_weak_transition_story() {
    let w = Script::new(
        "t",
        vec![
            vec![Op::Compute(400), Op::Write(addr(0, 0)), Op::Compute(2000)],
            vec![Op::Read(addr(0, 4)), Op::Compute(3000)],
        ],
    );
    let m = Machine::new(MachineConfig::paper_default(2), Protocol::Lrc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::line(0).sends_only(), 1024);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    assert!(!trace.is_empty());
    // The story must contain, in order: P1's read request, P0's write
    // request, and a write notice to P1.
    let names: Vec<&str> = trace.iter().map(|r| r.name()).collect();
    let read_pos = names.iter().position(|&n| n == "ReadReq");
    let write_pos = names.iter().position(|&n| n == "WriteReq");
    let notice_pos = names.iter().position(|&n| n == "WriteNotice");
    assert!(read_pos.is_some(), "{names:?}");
    assert!(write_pos.is_some(), "{names:?}");
    let notice = notice_pos.expect("weak transition sends a notice");
    assert!(notice > write_pos.unwrap(), "notice follows the write request");
    // The notice goes to the reader.
    let RecData::Send { dst, .. } = trace[notice].data else {
        panic!("sends_only filter kept a non-send: {:?}", trace[notice]);
    };
    assert_eq!(dst, 1);
}

#[test]
fn trace_is_monotone_per_source_node() {
    // The strong ordering guarantee the old test only gestured at: within
    // one emitting node, record timestamps never go backwards, and the
    // global (at, seq) order returned by trace_records() is strictly
    // increasing.
    let w = Script::new(
        "t",
        vec![
            vec![Op::Acquire(0), Op::Write(addr(0, 0)), Op::Release(0), Op::Barrier(0)],
            vec![Op::Acquire(0), Op::Read(addr(0, 0)), Op::Release(0), Op::Barrier(0)],
            vec![Op::Read(addr(1, 0)), Op::Write(addr(2, 0)), Op::Barrier(0)],
        ],
    );
    let m = Machine::new(MachineConfig::paper_default(3), Protocol::Lrc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::all(), 1 << 16);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    assert!(trace.len() > 20, "expected a substantial trace, got {}", trace.len());
    let mut last_at_per_node = [0u64; 3];
    let mut last_key = (0u64, 0u64);
    for (i, r) in trace.iter().enumerate() {
        assert!(r.node < 3, "{r:?}");
        assert!(
            r.at >= last_at_per_node[r.node],
            "node {} went backwards at index {i}: {} < {} ({r})",
            r.node,
            r.at,
            last_at_per_node[r.node],
        );
        last_at_per_node[r.node] = r.at;
        let key = (r.at, r.seq);
        if i > 0 {
            assert!(key > last_key, "global order not strictly increasing at {i}");
        }
        last_key = key;
    }
}

#[test]
fn trace_filter_restricts_to_one_line() {
    let w = Script::new(
        "t",
        vec![
            vec![
                Op::Read(addr(0, 0)),
                Op::Read(addr(1, 0)),
                Op::Read(addr(2, 0)),
            ],
            vec![],
        ],
    );
    let m = Machine::new(MachineConfig::paper_default(2), Protocol::Erc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::line(1), 1024);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    for rec in &trace {
        assert_eq!(rec.line(), Some(1), "{rec:?}");
    }
    assert!(!trace.is_empty());
}

#[test]
fn trace_filter_restricts_to_nodes() {
    let w = Script::new(
        "t",
        vec![
            vec![Op::Read(addr(0, 0))],
            vec![Op::Read(addr(1, 0))],
            vec![Op::Read(addr(2, 0))],
        ],
    );
    let m = Machine::new(MachineConfig::paper_default(3), Protocol::Erc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::all().with_nodes([2]), 1024);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    assert!(!trace.is_empty());
    for rec in &trace {
        let touches_p2 = match rec.data {
            RecData::Send { src, dst, .. } | RecData::Recv { src, dst, .. } => {
                src == 2 || dst == 2
            }
            _ => rec.node == 2,
        };
        assert!(touches_p2, "{rec:?}");
    }
}

#[test]
fn trace_cap_is_a_ring_buffer() {
    let ops: Vec<Op> = (0..64).map(|l| Op::Read(addr(l, 0))).collect();
    let w = Script::new("t", vec![ops, vec![]]);
    let m = Machine::new(MachineConfig::paper_default(2), Protocol::Erc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::all().sends_only(), 8);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    assert_eq!(trace.len(), 8, "capped at 8");
    // Kept the most recent events: the last traced record is a late one.
    assert!(trace.last().unwrap().at >= trace.first().unwrap().at);
}

#[test]
fn tracing_off_returns_empty() {
    let w = Script::new("t", vec![vec![Op::Read(0)]]);
    let (_, m) = Machine::new(MachineConfig::paper_default(1), Protocol::Sc)
        .with_max_cycles(10_000_000)
        .run_keep(Box::new(w));
    assert!(m.trace_records().is_empty());
    assert!(m.time_series().is_none());
    assert!(m.flight_tail().is_empty());
}

#[test]
fn full_trace_contains_sync_and_state_records() {
    let w = Script::new(
        "t",
        vec![
            vec![Op::Acquire(0), Op::Write(addr(0, 0)), Op::Release(0)],
            vec![Op::Acquire(0), Op::Read(addr(0, 0)), Op::Release(0)],
        ],
    );
    let m = Machine::new(MachineConfig::paper_default(2), Protocol::Lrc)
        .with_max_cycles(10_000_000)
        .with_trace_filter(TraceFilter::all(), 1 << 16);
    let (_, m) = m.run_keep(Box::new(w));
    let trace = m.trace_records();
    let has = |cat: &str| trace.iter().any(|r| r.category() == cat);
    assert!(has("send"), "no send records");
    assert!(has("recv"), "no recv records");
    assert!(has("sync"), "no sync records");
    assert!(has("state"), "no state records");
}
