//! Human-readable counterexample reports: the minimized schedule is
//! replayed on a trace-enabled machine and printed as a protocol message
//! timeline, followed by the violated property and everything needed to
//! reproduce the run.

use crate::explore::{build_machine_opts, replay_on, BuildOpts, Counterexample, Failure};
use crate::fault_name;
use crate::scenario::Scenario;
use lrc_core::{Fault, TraceFilter};
use lrc_sim::Protocol;
use std::fmt::Write as _;

/// Trace ring-buffer capacity — large enough to hold every message of a
/// bounded-configuration run.
const TRACE_CAP: usize = 10_000;

/// Flight-recorder depth per node for the last-events tail of a report.
const FLIGHT_CAP: usize = 16;

/// Render a counterexample found on machines built with `opts` as a full
/// report: reproduction header (the reproduce line carries every armed
/// option), failure description, and the protocol message timeline leading
/// to it, taken from a replay of the schedule on a trace-enabled machine.
pub fn render(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    cex: &Counterexample,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "counterexample: {} under {}", scenario.name, protocol.name());
    if fault != Fault::None {
        let _ = writeln!(out, "  injected fault: {}", fault_name(fault));
    }
    if let Some((node, n)) = opts.crash_nth {
        let _ = writeln!(out, "  crash choice point: node {node} dies after {n} handled events");
    }
    let _ = writeln!(out, "  schedule ({} forced choices): {:?}", cex.schedule.len(), cex.schedule);
    let mut flags = String::new();
    if opts.races {
        flags.push_str(" --races");
    }
    if let Some(n) = opts.nack_nth {
        let _ = write!(flags, " --nack-nth {n}");
    }
    if let Some((node, n)) = opts.crash_nth {
        let _ = write!(flags, " --crash-nth {n} --crash-node {node}");
    }
    let _ = writeln!(
        out,
        "  reproduce: lrc-check --scenario {} --protocol {} --fault {}{flags} --replay {}",
        scenario.name,
        protocol.name(),
        fault_name(fault),
        schedule_arg(&cex.schedule),
    );
    let _ = writeln!(out);

    let traced = build_machine_opts(scenario, protocol, fault, opts)
        .with_trace_filter(TraceFilter::all().sends_only(), TRACE_CAP)
        .with_flight_recorder(FLIGHT_CAP);
    let (_, m) = replay_on(traced, scenario, &cex.schedule);
    let trace = m.trace_records();
    let _ = writeln!(out, "  message timeline ({} messages):", trace.len());
    for rec in &trace {
        let _ = writeln!(out, "    {rec}");
    }
    let tail = m.flight_tail();
    if !tail.is_empty() {
        let _ = writeln!(out, "  last {} events before the failure:", tail.len());
        for rec in &tail {
            let _ = writeln!(out, "    {rec}");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  violated: {}", cex.failure);
    if matches!(cex.failure, Failure::Liveness(_)) {
        let _ = writeln!(
            out,
            "  (machine drained after {} pending events; nothing left to fire)",
            m.num_pending()
        );
    }
    out
}

/// Comma-separated schedule for the `--replay` CLI flag ("-" when empty:
/// the natural event order already fails).
pub fn schedule_arg(schedule: &[usize]) -> String {
    if schedule.is_empty() {
        "-".to_string()
    } else {
        schedule.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(",")
    }
}

/// Parse the `--replay` flag back into a schedule.
pub fn parse_schedule(s: &str) -> Result<Vec<usize>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|e| format!("bad choice {p:?}: {e}")))
        .collect()
}
