//! The benchmark's own checks: failed outputs count as failed iterations
//! (never panics), the traced run only observes, and a synthetic slowdown
//! in one layer is caught and attributed to it.
//!
//! Inputs are scaled down from the benchmark's (16 processors, tiny or
//! small inputs) so the suite runs in seconds; `cargo test --release` is
//! the fast way to run it.

use lrc_perfbench::bench::{plain_iteration, soak_iteration, soak_reference, Bench, SimSpec};
use lrc_perfbench::runner::Report;
use lrc_perfbench::trace::{Tracer, Untraced};
use lrc_sim::Protocol;
use lrc_workloads::{Scale, WorkloadKind};
use std::time::Duration;

fn spec(kind: WorkloadKind, protocol: Protocol, scale: Scale) -> SimSpec {
    SimSpec {
        kind,
        protocol,
        scale,
        procs: 16,
    }
}

fn soak_spec() -> SimSpec {
    spec(WorkloadKind::Fft, Protocol::LrcExt, Scale::Tiny)
}

fn report() -> Report {
    // Any workload will do: only the attempt counters are exercised.
    Report::new(Bench::SoakFft, 0, false)
}

#[test]
fn mutated_snapshot_counts_as_a_failed_iteration() {
    let spec = soak_spec();
    let reference = soak_reference(&spec, 0).expect("reference run passes its checks");
    let mut rep = report();
    let ok = rep.attempt(|| soak_iteration(&mut Untraced, &spec, 0, &reference, None));
    assert!(
        ok.is_some(),
        "unmutated iteration must pass: {:?}",
        rep.errors
    );

    let truncate = |s: &mut String| s.truncate(s.len() / 2);
    assert!(rep
        .attempt(|| soak_iteration(&mut Untraced, &spec, 0, &reference, Some(&truncate)))
        .is_none());

    // Flip the first digit of the event queue's clock: the restored run
    // then disagrees with the uninterrupted one.
    let skew = |s: &mut String| {
        let at = s.find("\"now\":").expect("snapshot records its clock");
        let digit = s[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a number follows")
            + at;
        let flipped = if &s[digit..=digit] == "9" { "1" } else { "9" };
        s.replace_range(digit..=digit, flipped);
    };
    assert!(rep
        .attempt(|| soak_iteration(&mut Untraced, &spec, 0, &reference, Some(&skew)))
        .is_none());
    assert_eq!(
        (rep.attempted, rep.failed),
        (3, 2),
        "failures: {:?}",
        rep.errors
    );
}

#[test]
fn mismatched_reference_counts_as_a_failed_iteration() {
    let soak = soak_spec();
    let mut reference = soak_reference(&soak, 0).expect("reference run passes its checks");
    reference.stats.total_cycles += 1;
    let mut rep = report();
    assert!(rep
        .attempt(|| soak_iteration(&mut Untraced, &soak, 0, &reference, None))
        .is_none());

    let plain = spec(WorkloadKind::Mp3d, Protocol::Lrc, Scale::Tiny);
    let mut stats = plain_iteration(&mut Untraced, &plain, 0, None)
        .expect("completes")
        .stats
        .remove(0);
    stats.procs[0].refs += 1;
    assert!(rep
        .attempt(|| plain_iteration(&mut Untraced, &plain, 0, Some(&stats)))
        .is_none());
    assert_eq!((rep.attempted, rep.failed), (2, 2));
}

#[test]
fn traced_runs_only_observe() {
    for plain in [
        spec(WorkloadKind::Mp3d, Protocol::Lrc, Scale::Tiny),
        spec(WorkloadKind::Gauss, Protocol::Sc, Scale::Tiny),
    ] {
        let untraced = plain_iteration(&mut Untraced, &plain, 3, None).expect("completes");
        let slice = (untraced.sim_cycles() / 16).max(1);
        let mut tracer = Tracer::new(Some(slice));
        tracer.next_iteration();
        // The reference argument makes the iteration itself compare stats.
        let traced = plain_iteration(&mut tracer, &plain, 3, Some(&untraced.stats[0]))
            .expect("traced = untraced");
        assert_eq!(traced.events, untraced.events);
        assert!(
            tracer.current("run_until").count() >= 16,
            "sliced into fixed-length slices"
        );
        assert!(tracer.send_log().sends > 0 && tracer.op_counts().refs > 0);
    }
    let spec = soak_spec();
    let reference = soak_reference(&spec, 5).expect("reference run passes its checks");
    let mut tracer = Tracer::new(Some((reference.pause_at / 8).max(1)));
    tracer.next_iteration();
    let (_, bytes) =
        soak_iteration(&mut tracer, &spec, 5, &reference, None).expect("traced soak = reference");
    assert!(bytes > 0);
    assert_eq!(tracer.current("MachineSnapshot::parse").count(), 1);
}

/// Simulated megacycles per host second and sampled `next_op` nanoseconds
/// of one traced iteration, with `delay` added to every op.
fn with_delay(spec: &SimSpec, delay: Option<Duration>) -> (f64, f64) {
    let mut tracer = Tracer::new(None);
    if let Some(d) = delay {
        tracer = tracer.with_op_delay(d);
    }
    tracer.next_iteration();
    let out = plain_iteration(&mut tracer, spec, 0, None).expect("completes");
    let ops = tracer.op_counts();
    (
        out.mcycles_per_s(),
        ops.sampled_ns as f64 / ops.sampled.max(1) as f64,
    )
}

#[test]
fn synthetic_op_generation_slowdown_is_attributed() {
    const DELAY_NS: f64 = 1000.0;
    let delay = Duration::from_nanos(DELAY_NS as u64);
    let mp3d = spec(WorkloadKind::Mp3d, Protocol::Lrc, Scale::Tiny);
    let gauss = spec(WorkloadKind::Gauss, Protocol::Sc, Scale::Tiny);
    let (mp3d_base, mp3d_op) = with_delay(&mp3d, None);
    let (mp3d_slow, mp3d_op_slow) = with_delay(&mp3d, Some(delay));
    let (gauss_base, gauss_op) = with_delay(&gauss, None);
    let (gauss_slow, gauss_op_slow) = with_delay(&gauss, Some(delay));

    // The layer's own timer sees the delay...
    for (base, slow) in [(mp3d_op, mp3d_op_slow), (gauss_op, gauss_op_slow)] {
        let rise = slow - base;
        assert!(
            (0.8 * DELAY_NS..2.0 * DELAY_NS).contains(&rise),
            "next_op_ns rose by {rise:.0} ns for a {DELAY_NS} ns delay"
        );
    }
    // ...and the end-to-end rate drops most where the layer map says op
    // generation dominates: gauss-sc, not mp3d-lazy.
    let drop_mp3d = 1.0 - mp3d_slow / mp3d_base;
    let drop_gauss = 1.0 - gauss_slow / gauss_base;
    assert!(
        drop_gauss > drop_mp3d,
        "sim_mcycles_per_s dropped {drop_gauss:.3} on gauss-sc but {drop_mp3d:.3} on mp3d-lazy"
    );
}
