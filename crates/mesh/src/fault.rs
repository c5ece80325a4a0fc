//! Deterministic fault injection at the network-interface ports.
//!
//! A [`FaultPlan`] describes, per message class, the probability that the
//! fabric drops, duplicates, delays, or corrupts a message. Decisions are
//! drawn from dedicated [`lrc_sim::Rng`] streams forked from the plan's
//! seed — one stream per class — so a given `(seed, plan)` pair produces
//! the same fault pattern on every run regardless of what else the
//! simulator does, and fingerprints stay reproducible per seed.
//!
//! The plan also carries the link-layer recovery knobs (retransmit timeout,
//! backoff bound) consumed by `lrc-core`'s reliable-delivery layer, and a
//! deterministic `drop_nth` mode so the model checker can kill exactly one
//! chosen message without any randomness at all.

use lrc_sim::lrc_json::{json_struct, Ctx, Dec, DecodeError, DecodeReason, Defaulted, FromJson};
use lrc_sim::lrc_json::{List, Node, Opt, Plain, ToJson, Value};
use lrc_sim::{Cycle, NodeId, Rng};

/// Coarse class of a message for per-class fault rates. The mesh does not
/// know protocol payloads; `lrc-core` maps its `MsgKind` onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Requester → home control requests (read/write/flush requests).
    Request,
    /// Home → requester replies and acknowledgements.
    Response,
    /// Home → third-party traffic (invalidations, write notices, forwards)
    /// and third-party responses to it.
    Notice,
    /// Lock and barrier traffic.
    Sync,
    /// Link-layer control (delivery acks/nacks themselves).
    Link,
}

impl MsgClass {
    /// Number of classes (array dimension for per-class tables).
    pub const COUNT: usize = 5;

    /// All classes, in `index()` order.
    pub const ALL: [MsgClass; MsgClass::COUNT] = [
        MsgClass::Request,
        MsgClass::Response,
        MsgClass::Notice,
        MsgClass::Sync,
        MsgClass::Link,
    ];

    /// Dense index of this class.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Response => 1,
            MsgClass::Notice => 2,
            MsgClass::Sync => 3,
            MsgClass::Link => 4,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Request => "request",
            MsgClass::Response => "response",
            MsgClass::Notice => "notice",
            MsgClass::Sync => "sync",
            MsgClass::Link => "link",
        }
    }
}

/// Per-class fault probabilities (each an independent Bernoulli per
/// message transmission).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability the message vanishes in the fabric.
    pub drop: f64,
    /// Probability the fabric delivers a second copy.
    pub duplicate: f64,
    /// Probability delivery is delayed by [`FaultPlan::delay_cycles`].
    pub delay: f64,
    /// Probability the payload arrives corrupted (checksum failure at the
    /// receiving NI).
    pub corrupt: f64,
}

impl FaultRates {
    /// All four probabilities set to `p`.
    pub fn uniform(p: f64) -> Self {
        FaultRates { drop: p, duplicate: p, delay: p, corrupt: p }
    }

    /// True when every probability is zero.
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.delay == 0.0 && self.corrupt == 0.0
    }
}

/// Crash-stop failure schedule: deterministic node deaths plus the
/// lease/heartbeat parameters survivors use to detect them.
///
/// A crashed node's NI queues, in-flight messages, and all local state
/// vanish at the crash cycle; peers see permanent silence and declare the
/// node dead once its lease expires. A plan with no victims still arms the
/// heartbeat/lease machinery — useful for asserting that slow-but-alive
/// nodes are *not* declared dead under message delay faults.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    /// Nodes to kill, as `(node, at_cycle)` pairs. Deterministic: the same
    /// plan produces the same deaths on every run.
    pub victims: Vec<(NodeId, Cycle)>,
    /// Checker mode: kill `node` after exactly `n` handled events instead
    /// of at a wall-clock cycle, with instantaneous failure detection.
    /// This makes crash timing a deterministic choice point the model
    /// checker can place anywhere in an interleaving (the crash-stop
    /// analogue of [`FaultPlan::drop_nth`]).
    pub crash_nth: Option<(NodeId, u64)>,
    /// Heartbeat period: every live node pings every peer this often.
    pub heartbeat_every: Cycle,
    /// Lease bound: a peer silent for longer than this is declared dead.
    /// Must comfortably exceed the heartbeat period plus the worst-case
    /// fabric delay (including injected delay faults), or slow-but-alive
    /// nodes are falsely declared dead.
    pub lease_timeout: Cycle,
}

impl CrashPlan {
    /// A plan that kills `node` at `at_cycle`, with default lease timing.
    pub fn kill(node: NodeId, at_cycle: Cycle) -> Self {
        CrashPlan { victims: vec![(node, at_cycle)], ..CrashPlan::detection_only() }
    }

    /// Checker mode: kill `node` after exactly `n` handled events.
    pub fn kill_nth(node: NodeId, n: u64) -> Self {
        CrashPlan { crash_nth: Some((node, n)), ..CrashPlan::detection_only() }
    }

    /// Heartbeats and leases armed, nobody dies. The detector must stay
    /// quiet for the whole run.
    pub fn detection_only() -> Self {
        CrashPlan {
            victims: Vec::new(),
            crash_nth: None,
            heartbeat_every: 5_000,
            lease_timeout: 60_000,
        }
    }

    /// True when some node actually dies under this plan.
    pub fn has_victims(&self) -> bool {
        !self.victims.is_empty() || self.crash_nth.is_some()
    }
}

/// The default plan is [`CrashPlan::detection_only`].
impl Default for CrashPlan {
    fn default() -> Self {
        CrashPlan::detection_only()
    }
}

/// A complete, seeded description of the faults to inject during one run,
/// plus the link-layer recovery parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-class decision streams.
    pub seed: u64,
    /// Fault probabilities, indexed by [`MsgClass::index`].
    pub rates: [FaultRates; MsgClass::COUNT],
    /// Extra fabric latency applied by a delay fault.
    pub delay_cycles: Cycle,
    /// Deterministic mode: drop exactly the `n`-th (0-based) transmission
    /// of the given class, nothing else. Used by the model checker.
    pub drop_nth: Option<(MsgClass, u64)>,
    /// Base retransmit timeout for the link layer (doubles per attempt,
    /// capped at [`FaultPlan::BACKOFF_CAP`] doublings).
    pub retry_timeout: Cycle,
    /// Retransmissions attempted before the link layer gives a message up
    /// for lost (the protocol then wedges and the watchdog diagnoses it).
    pub max_retries: u32,
    /// Crash-stop failure schedule (`None` = nobody dies, no heartbeats).
    /// Orthogonal to the message faults: a crash-only plan does **not**
    /// activate the injector or link layer — see [`FaultPlan::is_active`].
    pub crash: Option<CrashPlan>,
}

// Snapshot field lists: cycles, seeds and counts that can carry high bits
// travel as decimal strings; victims are node ids.
json_struct!(FaultRates { drop, duplicate, delay, corrupt });
json_struct!(CrashPlan {
    victims: List<(Node, Dec)>,
    crash_nth: Opt<(Node, Dec)>,
    heartbeat_every: Dec,
    lease_timeout: Dec,
});
// v1 documents predate crash plans: an absent `crash` means none.
json_struct!(FaultPlan {
    seed: Dec,
    rates: List,
    delay_cycles: Dec,
    drop_nth: Opt<(Plain, Dec)>,
    retry_timeout: Dec,
    max_retries,
    crash: Defaulted,
});

/// A message class travels as its [`MsgClass::index`].
impl ToJson for MsgClass {
    fn to_json(&self) -> Value {
        self.index().to_json()
    }
}

impl FromJson for MsgClass {
    fn decode(v: &Value, cx: Ctx) -> Result<MsgClass, DecodeError> {
        let i = usize::decode(v, cx)?;
        MsgClass::ALL.get(i).copied().ok_or_else(|| {
            DecodeError::new(DecodeReason::UnknownTag(format!("message class {i}")))
        })
    }
}

impl FaultPlan {
    /// Maximum exponential-backoff doublings of `retry_timeout`.
    pub const BACKOFF_CAP: u32 = 6;

    /// An inactive plan: all rates zero. Installing it is exactly
    /// equivalent to not installing a plan at all.
    pub fn off(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [FaultRates::default(); MsgClass::COUNT],
            delay_cycles: 500,
            drop_nth: None,
            retry_timeout: 10_000,
            max_retries: 12,
            crash: None,
        }
    }

    /// Every fault type at probability `p` for every class.
    pub fn uniform(p: f64, seed: u64) -> Self {
        FaultPlan { rates: [FaultRates::uniform(p); MsgClass::COUNT], ..FaultPlan::off(seed) }
    }

    /// Deterministically drop only the `n`-th message of `class`.
    pub fn drop_nth(class: MsgClass, n: u64) -> Self {
        FaultPlan { drop_nth: Some((class, n)), ..FaultPlan::off(0) }
    }

    /// True when the plan can affect any message — deliberately *excluding*
    /// the crash schedule, which arms its own machinery in the machine layer
    /// instead of the injector/link layer. Inactive plans cost the hot path
    /// exactly one branch.
    pub fn is_active(&self) -> bool {
        self.drop_nth.is_some() || self.rates.iter().any(|r| !r.is_zero())
    }

    /// Attach a crash schedule to this plan.
    pub fn with_crash(mut self, crash: CrashPlan) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Retransmit timeout for the `attempt`-th retry (exponential backoff,
    /// capped).
    #[inline]
    pub fn backoff(&self, attempt: u32) -> Cycle {
        self.retry_timeout << attempt.min(Self::BACKOFF_CAP)
    }
}

/// What actually happened to one transmitted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Cycle at which the copy is fully received at the destination.
    pub at: Cycle,
    /// The receiving NI's checksum check fails for this copy.
    pub corrupt: bool,
}

/// Delivery outcome of one send through a faulty fabric: zero (dropped),
/// one, or two (duplicated) arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Primary copy, `None` when the fabric dropped the message.
    pub first: Option<Arrival>,
    /// Duplicate copy, when the fabric replicated the message.
    pub dup: Option<Arrival>,
}

impl Delivery {
    /// A clean single delivery at `at`.
    pub fn clean(at: Cycle) -> Self {
        Delivery { first: Some(Arrival { at, corrupt: false }), dup: None }
    }
}

/// Counts of injected faults, reported into `MachineStats` at end of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages the fabric swallowed.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Messages delivered with a failing checksum.
    pub corrupted: u64,
}

impl FaultCounters {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.corrupted
    }
}

/// Checkpointed injector state: raw decision-stream positions, per-class
/// transmission counts, and the fault counters. The plan itself is not
/// included — the restoring caller reinstalls it and must supply the same
/// one for the resumed fault pattern to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectorState {
    /// Raw [`Rng::state`] of each per-class decision stream.
    pub streams: [u64; MsgClass::COUNT],
    /// Transmissions seen per class (drives `drop_nth`).
    pub sent: [u64; MsgClass::COUNT],
    /// Faults injected so far.
    pub counters: FaultCounters,
}

json_struct!(FaultCounters { dropped: Dec, duplicated: Dec, delayed: Dec, corrupted: Dec });
json_struct!(InjectorState { streams: List<Dec>, sent: List<Dec>, counters });

/// The injector: the plan plus its live decision streams and counters.
#[derive(Debug, Clone)]
pub(crate) struct Injector {
    plan: FaultPlan,
    /// One decision stream per class, forked from the plan seed.
    streams: [Rng; MsgClass::COUNT],
    /// Transmissions seen per class (drives `drop_nth`).
    sent: [u64; MsgClass::COUNT],
    counters: FaultCounters,
}

/// Fault verdict for one transmission, before timing is applied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    pub drop: bool,
    pub duplicate: bool,
    pub delay: Cycle,
    pub corrupt: bool,
}

impl Injector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let mut root = Rng::new(plan.seed);
        let streams = [
            root.fork(1),
            root.fork(2),
            root.fork(3),
            root.fork(4),
            root.fork(5),
        ];
        Injector { plan, streams, sent: [0; MsgClass::COUNT], counters: FaultCounters::default() }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Checkpoint the live decision state.
    pub(crate) fn save_state(&self) -> InjectorState {
        InjectorState {
            streams: std::array::from_fn(|i| self.streams[i].state()),
            sent: self.sent,
            counters: self.counters,
        }
    }

    /// Restore a checkpoint taken by [`Injector::save_state`]; the plan is
    /// left untouched.
    pub(crate) fn restore_state(&mut self, st: &InjectorState) {
        self.streams = std::array::from_fn(|i| Rng::from_state(st.streams[i]));
        self.sent = st.sent;
        self.counters = st.counters;
    }

    /// Decide the fate of one transmission of `class`. Always draws the
    /// same number of variates per call so the per-class streams stay in
    /// lockstep regardless of outcomes.
    pub(crate) fn decide(&mut self, class: MsgClass) -> Verdict {
        let i = class.index();
        let n = self.sent[i];
        self.sent[i] += 1;
        let r = &self.plan.rates[i];
        let rng = &mut self.streams[i];
        // Fixed draw order: stream position is a function of the send
        // count alone, never of earlier outcomes.
        let drop_hit = r.drop > 0.0 && rng.chance(r.drop);
        let dup_hit = r.duplicate > 0.0 && rng.chance(r.duplicate);
        let delay_hit = r.delay > 0.0 && rng.chance(r.delay);
        let corrupt_hit = r.corrupt > 0.0 && rng.chance(r.corrupt);
        let nth_drop = self.plan.drop_nth == Some((class, n));
        let v = Verdict {
            drop: drop_hit || nth_drop,
            duplicate: dup_hit && !(drop_hit || nth_drop),
            delay: if delay_hit { self.plan.delay_cycles } else { 0 },
            corrupt: corrupt_hit,
        };
        if v.drop {
            self.counters.dropped += 1;
        }
        if v.duplicate {
            self.counters.duplicated += 1;
        }
        if v.delay > 0 && !v.drop {
            self.counters.delayed += 1;
        }
        if v.corrupt && !v.drop {
            self.counters.corrupted += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_inactive() {
        assert!(!FaultPlan::off(7).is_active());
        assert!(FaultPlan::uniform(1e-3, 7).is_active());
        assert!(FaultPlan::drop_nth(MsgClass::Request, 0).is_active());
        let mut p = FaultPlan::off(7);
        p.rates[MsgClass::Sync.index()].corrupt = 0.5;
        assert!(p.is_active());
    }

    #[test]
    fn crash_plans_do_not_activate_the_injector() {
        // A crash-only plan must leave the message-fault machinery off:
        // crashes arm their own subsystem in the machine layer.
        let p = FaultPlan::off(3).with_crash(CrashPlan::kill(2, 10_000));
        assert!(!p.is_active());
        assert!(p.crash.as_ref().is_some_and(CrashPlan::has_victims));
        assert!(!CrashPlan::detection_only().has_victims());
        assert!(CrashPlan::kill_nth(1, 500).has_victims());
    }

    #[test]
    fn backoff_is_capped() {
        let p = FaultPlan::off(0);
        assert_eq!(p.backoff(0), p.retry_timeout);
        assert_eq!(p.backoff(1), p.retry_timeout * 2);
        assert_eq!(p.backoff(40), p.retry_timeout << FaultPlan::BACKOFF_CAP);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = Injector::new(FaultPlan::uniform(0.3, seed));
            (0..200)
                .map(|i| {
                    let v = inj.decide(MsgClass::ALL[i % MsgClass::COUNT]);
                    (v.drop, v.duplicate, v.delay, v.corrupt)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn class_streams_are_independent() {
        // Interleaving decisions for other classes must not perturb the
        // sequence a given class sees.
        let mut a = Injector::new(FaultPlan::uniform(0.3, 9));
        let mut b = Injector::new(FaultPlan::uniform(0.3, 9));
        let seq_a: Vec<bool> = (0..50).map(|_| a.decide(MsgClass::Request).drop).collect();
        let seq_b: Vec<bool> = (0..50)
            .map(|_| {
                b.decide(MsgClass::Sync);
                b.decide(MsgClass::Link);
                b.decide(MsgClass::Request).drop
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn drop_nth_hits_exactly_one_message() {
        let mut inj = Injector::new(FaultPlan::drop_nth(MsgClass::Notice, 2));
        let drops: Vec<bool> = (0..6).map(|_| inj.decide(MsgClass::Notice).drop).collect();
        assert_eq!(drops, vec![false, false, true, false, false, false]);
        // Other classes untouched.
        assert!(!inj.decide(MsgClass::Request).drop);
        assert_eq!(inj.counters().dropped, 1);
    }
}
