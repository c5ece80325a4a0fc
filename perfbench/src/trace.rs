//! The traced run's instruments, all built from the benchmark's own code
//! around the simulator's public calls:
//!
//! * [`Probe`] — the seam every iteration is written against. The
//!   untraced run uses [`Untraced`], whose methods compile to nothing; the
//!   traced run uses [`Tracer`], which records a span around each call
//!   into a layer, wraps the workload, attaches a counting trace sink and
//!   drives the event loop in fixed-length simulated-cycle slices.
//! * [`CountingWorkload`] — counts and samples the machine's calls into
//!   the op generator (`lrc-workloads`).
//! * [`CountingSink`] — counts the machine's message sends and records a
//!   bounded prefix of them for the `lrc-mesh` replay.
//!
//! Spans stay in memory; [`Tracer::spans_json`] renders them once the run
//! ends.

use lrc_core::Machine;
use lrc_core::{MsgClass, RecData, TraceFilter, TraceRecord, TraceSink};
use lrc_json::{json, Value};
use lrc_sim::{Cycle, Op, ProcId, Workload};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The seam between an iteration and its observers. Every method defaults
/// to doing nothing, which is what the untraced run gets.
pub trait Probe {
    /// Open a span named `name` around one call into a layer.
    fn enter(&mut self, _name: &'static str) {}
    /// Close the innermost open span.
    fn exit(&mut self) {}
    /// The workload the machine should pull ops from in place of `w`.
    fn workload(&mut self, w: Box<dyn Workload>) -> Box<dyn Workload> {
        w
    }
    /// Attach observers to a machine that may carry a trace sink
    /// (`MachineSnapshot::capture` refuses one, so snapshot runs skip this).
    fn sink(&mut self, m: Machine) -> Machine {
        m
    }
    /// Simulated cycles per `run_until` slice; `None` drives the event loop
    /// in one call.
    fn slice(&self) -> Option<Cycle> {
        None
    }
    /// Called right before a timed block that is a rate's denominator
    /// (`check-lazy`'s natural-order block), outside its timing.
    fn before_block(&mut self) {}
}

/// Run `f` inside a span named `name`.
pub fn in_span<P: Probe + ?Sized, T>(
    p: &mut P,
    name: &'static str,
    f: impl FnOnce(&mut P) -> T,
) -> T {
    p.enter(name);
    let out = f(p);
    p.exit();
    out
}

/// The untraced run's probe: observes nothing.
pub struct Untraced;

impl Probe for Untraced {}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call it wraps (`run_until`, `MachineSnapshot::parse`, ...).
    pub name: &'static str,
    /// Index of the enclosing span among the tracer's spans.
    pub parent: Option<usize>,
    /// Which traced iteration it belongs to.
    pub iter: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Op-generator counters kept by [`CountingWorkload`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// `next_op` calls.
    pub ops: u64,
    /// Reads and writes returned.
    pub refs: u64,
    /// Acquires, releases, barriers and fences returned.
    pub sync_ops: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host nanoseconds of the timed calls, clock reads included.
    pub sampled_ns: u64,
}

impl OpCounts {
    fn add(&mut self, o: &OpCounts) {
        self.ops += o.ops;
        self.refs += o.refs;
        self.sync_ops += o.sync_ops;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
    }
}

/// Time one `next_op` call in every `SAMPLE_EVERY`: two clock reads per 64
/// calls keeps the wrapper's own cost well under a nanosecond per op. The
/// first call of each wrapper is one of them, so a wrapper that lives for
/// fewer calls (a checker scenario's script) is sampled too.
const SAMPLE_EVERY: u64 = 64;

/// A benchmark-owned [`Workload`] around the real one: counts every op the
/// machine pulls, times a sample of the calls, and optionally adds a fixed
/// busy-wait per call (the attribution self-test's synthetic slowdown).
/// Its counts are published into a shared slot when the machine drops it.
pub struct CountingWorkload {
    inner: Box<dyn Workload>,
    counts: OpCounts,
    out: Arc<Mutex<OpCounts>>,
    delay: Option<Duration>,
}

impl CountingWorkload {
    /// Wrap `inner`, adding the counts to `out` when dropped.
    pub fn new(
        inner: Box<dyn Workload>,
        out: Arc<Mutex<OpCounts>>,
        delay: Option<Duration>,
    ) -> Self {
        CountingWorkload {
            inner,
            counts: OpCounts::default(),
            out,
            delay,
        }
    }

    fn pull(&mut self, proc: ProcId) -> Op {
        let op = self.inner.next_op(proc);
        if let Some(d) = self.delay {
            let start = Instant::now();
            while start.elapsed() < d {
                std::hint::spin_loop();
            }
        }
        op
    }
}

impl Workload for CountingWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }
    fn addr_space(&self) -> u64 {
        self.inner.addr_space()
    }
    fn num_locks(&self) -> u32 {
        self.inner.num_locks()
    }
    fn num_barriers(&self) -> u32 {
        self.inner.num_barriers()
    }
    fn state_token(&self) -> u64 {
        self.inner.state_token()
    }

    fn next_op(&mut self, proc: ProcId) -> Op {
        self.counts.ops += 1;
        let op = if self.counts.ops % SAMPLE_EVERY == 1 {
            let start = Instant::now();
            let op = self.pull(proc);
            self.counts.sampled_ns += start.elapsed().as_nanos() as u64;
            self.counts.sampled += 1;
            op
        } else {
            self.pull(proc)
        };
        match op {
            Op::Read(_) | Op::Write(_) => self.counts.refs += 1,
            Op::Acquire(_) | Op::Release(_) | Op::Barrier(_) | Op::Fence => {
                self.counts.sync_ops += 1
            }
            Op::Compute(_) | Op::Done => {}
        }
        op
    }
}

impl Drop for CountingWorkload {
    fn drop(&mut self) {
        // A poisoned slot means another iteration panicked mid-update; its
        // counts are lost with it, and this drop must not panic.
        if let Ok(mut out) = self.out.lock() {
            out.add(&self.counts);
        }
    }
}

/// One recorded message send.
#[derive(Debug, Clone, Copy)]
pub struct SendRec {
    /// Cycle the send was issued.
    pub at: Cycle,
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Wire bytes.
    pub bytes: u64,
    /// Message class.
    pub class: MsgClass,
}

/// Sends seen by [`CountingSink`].
#[derive(Debug, Clone, Default)]
pub struct SendLog {
    /// Send records received.
    pub sends: u64,
    /// Their wire bytes.
    pub bytes: u64,
    /// The first [`SEND_STREAM_CAP`] sends, in emission order.
    pub stream: Vec<SendRec>,
}

/// Sends kept for the network replay: enough for a steady per-send time,
/// small enough (16 MiB) to leave the traced run's footprint alone.
pub const SEND_STREAM_CAP: usize = 1 << 19;

/// A [`TraceSink`] that keeps counts instead of records and publishes them
/// into a shared slot when the machine drops it.
#[derive(Debug, Clone)]
pub struct CountingSink {
    log: SendLog,
    out: Arc<Mutex<SendLog>>,
}

impl CountingSink {
    /// A sink adding its log to `out` when dropped.
    pub fn new(out: Arc<Mutex<SendLog>>) -> Self {
        CountingSink {
            log: SendLog::default(),
            out,
        }
    }

    /// The filter it is attached with: message sends only.
    pub fn filter() -> TraceFilter {
        TraceFilter::all().sends_only()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if let RecData::Send { src, dst, msg } = rec.data {
            self.log.sends += 1;
            self.log.bytes += msg.bytes;
            if self.log.stream.len() < SEND_STREAM_CAP {
                self.log.stream.push(SendRec {
                    at: rec.at,
                    src: src as u16,
                    dst: dst as u16,
                    bytes: msg.bytes,
                    class: msg.class,
                });
            }
        }
    }
    fn snapshot(&self) -> Vec<TraceRecord> {
        Vec::new()
    }
    fn len(&self) -> usize {
        0
    }
    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }
}

impl Drop for CountingSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.sends += self.log.sends;
            out.bytes += self.log.bytes;
            if out.stream.is_empty() {
                out.stream = std::mem::take(&mut self.log.stream);
            }
        }
    }
}

/// The traced run's probe.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
    slice: Option<Cycle>,
    delay: Option<Duration>,
    /// Where the wrapped workloads publish their op counts.
    ops: Arc<Mutex<OpCounts>>,
    /// Where the counting sinks publish their send logs.
    sends: Arc<Mutex<SendLog>>,
}

impl Tracer {
    /// A tracer slicing the event loop every `slice` simulated cycles.
    pub fn new(slice: Option<Cycle>) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
            slice,
            delay: None,
            ops: Arc::default(),
            sends: Arc::default(),
        }
    }

    /// Add a fixed busy-wait to every op the wrapped workloads return.
    pub fn with_op_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Start the next traced iteration: spans recorded from now on carry
    /// its number, and the op and send counters start from zero.
    pub fn next_iteration(&mut self) {
        self.iter += 1;
        self.stack.clear();
        *self
            .ops
            .lock()
            .expect("op counters poisoned by a panicked iteration") = OpCounts::default();
        *self
            .sends
            .lock()
            .expect("send log poisoned by a panicked iteration") = SendLog::default();
    }

    /// The op counts of the current iteration.
    pub fn op_counts(&self) -> OpCounts {
        *self
            .ops
            .lock()
            .expect("op counters poisoned by a panicked iteration")
    }

    /// The send log of the current iteration.
    pub fn send_log(&self) -> SendLog {
        self.sends
            .lock()
            .expect("send log poisoned by a panicked iteration")
            .clone()
    }

    /// Spans of the current iteration named `name`.
    pub fn current<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let iter = self.iter;
        self.spans
            .iter()
            .filter(move |s| s.iter == iter && s.name == name)
    }

    /// Summed duration of the current iteration's spans named `name`.
    pub fn current_secs(&self, name: &str) -> f64 {
        self.current(name).map(Span::secs).sum()
    }

    /// Every span, plus each span name's total and self time (duration
    /// minus the time its child spans cover), as JSON.
    pub fn spans_json(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut totals: Vec<(u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let k = match names.iter().position(|n| *n == s.name) {
                Some(k) => k,
                None => {
                    names.push(s.name);
                    totals.push((0, 0, 0));
                    names.len() - 1
                }
            };
            totals[k].0 += 1;
            totals[k].1 += dur;
            totals[k].2 += dur.saturating_sub(child_ns[i]);
        }
        let summary: Vec<Value> = names
            .iter()
            .zip(&totals)
            .map(|(n, (count, total, own))| {
                json!({
                    "name": *n,
                    "count": *count,
                    "total_s": *total as f64 * 1e-9,
                    "self_s": *own as f64 * 1e-9,
                })
            })
            .collect();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "iter": s.iter,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        json!({ "by_name": summary, "spans": spans })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iter: self.iter,
            start_ns,
            end_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    fn workload(&mut self, w: Box<dyn Workload>) -> Box<dyn Workload> {
        Box::new(CountingWorkload::new(w, Arc::clone(&self.ops), self.delay))
    }

    fn sink(&mut self, m: Machine) -> Machine {
        m.with_trace_sink(
            Box::new(CountingSink::new(Arc::clone(&self.sends))),
            CountingSink::filter(),
        )
    }

    fn slice(&self) -> Option<Cycle> {
        self.slice
    }
}
