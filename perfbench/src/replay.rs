//! Work the traced run does after its iterations: recorded or regenerated
//! streams replayed through single layers (`lrc-mem` caches, the `lrc-mesh`
//! network) and the checker's per-state calls timed one by one.

use crate::stats::median;
use crate::trace::SendRec;
use lrc_core::Machine;
use lrc_mem::{Cache, LineState};
use lrc_mesh::Network;
use lrc_sim::{LineAddr, MachineConfig, Op, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Median host nanoseconds one `Instant::now()` / `elapsed()` pair adds to
/// a timed interval (subtracted from sampled per-call timings).
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// References replayed through the caches: the whole stream of most
/// workloads, a bounded prefix of the longest (gauss's 18.7M).
const CACHE_PROBES_MAX: u64 = 4 << 20;
/// Minimum probes timed, repeating short streams (the checker scenarios).
const CACHE_PROBES_MIN: u64 = 1 << 18;
/// References pulled from the generator per processor between timed
/// probe batches (generation itself is not timed).
const CHUNK: usize = 4096;

/// Host nanoseconds per reference of a workload's reference stream
/// replayed through one `lrc_mem::Cache::new(cfg)` per processor: reads
/// `touch_hit` and `insert` read-only on a miss, writes `write_probe` and
/// `insert` read-write unless already writable. `make` yields fresh
/// workload instances; short ones are replayed until enough probes ran.
pub fn caches(cfg: &MachineConfig, make: &mut dyn FnMut() -> Box<dyn Workload>) -> f64 {
    let line_shift = cfg.line_size.trailing_zeros();
    let word_bytes = cfg.word_size as u64;
    let line_mask = cfg.line_size as u64 - 1;
    let (mut probes, mut ns) = (0u64, 0u128);
    let mut batch: Vec<(bool, LineAddr, usize)> = Vec::with_capacity(CHUNK);
    while probes < CACHE_PROBES_MIN {
        let mut w = make();
        let procs = w.num_procs();
        let mut caches: Vec<Cache> = (0..procs).map(|_| Cache::new(cfg)).collect();
        let mut done = vec![false; procs];
        while done.iter().any(|d| !d) && probes < CACHE_PROBES_MAX {
            for p in 0..procs {
                if done[p] {
                    continue;
                }
                batch.clear();
                while batch.len() < CHUNK {
                    match w.next_op(p) {
                        Op::Read(a) => batch.push((
                            false,
                            LineAddr(a >> line_shift),
                            ((a & line_mask) / word_bytes) as usize,
                        )),
                        Op::Write(a) => batch.push((
                            true,
                            LineAddr(a >> line_shift),
                            ((a & line_mask) / word_bytes) as usize,
                        )),
                        Op::Done => {
                            done[p] = true;
                            break;
                        }
                        _ => {}
                    }
                }
                let cache = &mut caches[p];
                let t = Instant::now();
                for &(write, line, word) in &batch {
                    if write {
                        if cache.write_probe(line, word) != LineState::ReadWrite {
                            black_box(cache.insert(line, LineState::ReadWrite));
                        }
                    } else if !cache.touch_hit(line) {
                        black_box(cache.insert(line, LineState::ReadOnly));
                    }
                }
                ns += t.elapsed().as_nanos();
                probes += batch.len() as u64;
            }
        }
        if probes == 0 {
            // A workload without references: nothing to time.
            return 0.0;
        }
    }
    ns as f64 / probes as f64
}

/// Host nanoseconds per send of `stream` replayed through a fresh
/// `lrc_mesh::Network::new(cfg).send_classed`, repeated until at least
/// `min_sends` sends ran.
pub fn network(cfg: &MachineConfig, stream: &[SendRec], min_sends: usize) -> f64 {
    let (mut sends, mut ns) = (0usize, 0u128);
    while sends < min_sends.max(1) {
        let mut net = Network::new(cfg);
        let t = Instant::now();
        for r in stream {
            let _ =
                black_box(net.send_classed(r.at, r.src as usize, r.dst as usize, r.bytes, r.class));
        }
        ns += t.elapsed().as_nanos();
        sends += stream.len();
    }
    ns as f64 / sends as f64
}

/// Median host microseconds of the checker's per-state calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckerCalls {
    /// `Machine::clone`.
    pub clone_us: f64,
    /// `Machine::step_choice`.
    pub step_us: f64,
    /// `Machine::fingerprint`.
    pub fingerprint_us: f64,
    /// `Machine::check_violations`.
    pub violations_us: f64,
}

/// Per-state calls timed (each root replayed repeatedly until reached).
const CHECKER_SAMPLES: usize = 4000;

/// Replay each root machine in natural event order (choice 0 at every
/// state), timing the four calls exploration makes per state.
pub fn checker_calls(roots: &[Machine]) -> CheckerCalls {
    let us = |t: Instant| t.elapsed().as_nanos() as f64 * 1e-3;
    let (mut clone, mut step, mut fp, mut viol) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while clone.len() < CHECKER_SAMPLES {
        for root in roots {
            let mut m = root.clone();
            while m.num_pending() > 0 {
                let t = Instant::now();
                let mut child = m.clone();
                clone.push(us(t));
                let t = Instant::now();
                black_box(child.step_choice(0));
                step.push(us(t));
                let t = Instant::now();
                black_box(child.fingerprint());
                fp.push(us(t));
                let t = Instant::now();
                black_box(child.check_violations());
                viol.push(us(t));
                m = child;
            }
        }
    }
    CheckerCalls {
        clone_us: median(&clone),
        step_us: median(&step),
        fingerprint_us: median(&fp),
        violations_us: median(&viol),
    }
}
