//! Statistics plumbing: per-processor cycle attribution (the four overhead
//! categories of Figures 5/7/9), miss classification counters (Table 2), and
//! traffic counters.


/// Exclusive classification of a cache miss, following the algorithm of
/// Bianchini & Kontothanassis (paper reference [3]) as used in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First access by this processor to this block, ever.
    Cold,
    /// Coherence miss where the missing word was actually written by another
    /// processor since this processor last held the block.
    TrueShare,
    /// Coherence miss caused only by writes to *other* words of the block.
    FalseShare,
    /// Block was lost to a capacity/conflict replacement and not modified
    /// remotely in the interim.
    Eviction,
    /// "Write miss" in the paper's terminology: the block is present
    /// read-only and only write permission is missing. No data transfer.
    Upgrade,
}

impl MissClass {
    /// All five classes in Table-2 column order.
    pub const ALL: [MissClass; 5] = [
        MissClass::Cold,
        MissClass::TrueShare,
        MissClass::FalseShare,
        MissClass::Eviction,
        MissClass::Upgrade,
    ];

    /// Stable lowercase name used in report columns.
    pub fn name(self) -> &'static str {
        match self {
            MissClass::Cold => "cold",
            MissClass::TrueShare => "true",
            MissClass::FalseShare => "false",
            MissClass::Eviction => "eviction",
            MissClass::Upgrade => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            MissClass::Cold => 0,
            MissClass::TrueShare => 1,
            MissClass::FalseShare => 2,
            MissClass::Eviction => 3,
            MissClass::Upgrade => 4,
        }
    }
}

/// Counter per miss class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissCounts {
    counts: [u64; 5],
}

impl MissCounts {
    /// Count one miss of the given class.
    pub fn record(&mut self, class: MissClass) {
        self.counts[class.index()] += 1;
    }

    /// Number of misses recorded for `class`.
    pub fn get(&self, class: MissClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total misses across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage of all misses falling in `class` (0.0 if no misses).
    pub fn percent(&self, class: MissClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            100.0 * self.get(class) as f64 / t as f64
        }
    }

    /// Raw counters in [`MissClass::ALL`] order (serialization support).
    pub fn as_array(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuild from raw counters in [`MissClass::ALL`] order.
    pub fn from_array(counts: [u64; 5]) -> Self {
        MissCounts { counts }
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &MissCounts) {
        for i in 0..5 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// Which of the four overhead buckets a stall belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Useful work: compute cycles and cache-hit accesses.
    Cpu,
    /// Waiting for a read miss to be satisfied.
    Read,
    /// Write-buffer-full stalls (relaxed protocols) or blocking write/upgrade
    /// stalls (SC).
    Write,
    /// Lock acquire waits, release-fence waits, and barrier waits.
    Sync,
}

/// The aggregate cycle breakdown used by the overhead-analysis figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Useful work: compute cycles and cache-hit accesses.
    pub cpu: u64,
    /// Read-miss stall cycles.
    pub read: u64,
    /// Write-buffer and blocking-write stall cycles.
    pub write: u64,
    /// Synchronization (acquire/release/barrier) stall cycles.
    pub sync: u64,
}

impl Breakdown {
    /// Attribute `cycles` to the given bucket.
    pub fn add(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::Cpu => self.cpu += cycles,
            StallKind::Read => self.read += cycles,
            StallKind::Write => self.write += cycles,
            StallKind::Sync => self.sync += cycles,
        }
    }

    /// Sum of all four buckets.
    pub fn total(&self) -> u64 {
        self.cpu + self.read + self.write + self.sync
    }

    /// Accumulate another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        self.cpu += other.cpu;
        self.read += other.read;
        self.write += other.write;
        self.sync += other.sync;
    }

    /// Each bucket as a fraction of `denom` total cycles (the figures
    /// normalize against the sequentially consistent run's total).
    pub fn normalized(&self, denom: u64) -> [f64; 4] {
        let d = denom.max(1) as f64;
        [
            self.cpu as f64 / d,
            self.read as f64 / d,
            self.write as f64 / d,
            self.sync as f64 / d,
        ]
    }
}

/// Coarse message classes for traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Header-only protocol messages (requests, acks, notices, sync).
    Control,
    /// Messages carrying a full cache line.
    Data,
    /// Write-through / write-back payloads (header + dirty words).
    WriteData,
}

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Header-only messages sent.
    pub control_msgs: u64,
    /// Line-carrying messages sent.
    pub data_msgs: u64,
    /// Write-through / write-back payload messages sent.
    pub write_data_msgs: u64,
    /// Total bytes put on the network.
    pub bytes: u64,
}

impl Traffic {
    /// Count one message of `class` totalling `bytes` on the wire.
    pub fn record(&mut self, class: TrafficClass, bytes: u64) {
        match class {
            TrafficClass::Control => self.control_msgs += 1,
            TrafficClass::Data => self.data_msgs += 1,
            TrafficClass::WriteData => self.write_data_msgs += 1,
        }
        self.bytes += bytes;
    }

    /// Total messages of any class.
    pub fn total_msgs(&self) -> u64 {
        self.control_msgs + self.data_msgs + self.write_data_msgs
    }

    /// Accumulate another traffic counter into this one.
    pub fn merge(&mut self, other: &Traffic) {
        self.control_msgs += other.control_msgs;
        self.data_msgs += other.data_msgs;
        self.write_data_msgs += other.write_data_msgs;
        self.bytes += other.bytes;
    }
}

/// Machine-level fault-injection and recovery counters: what the fabric
/// did to messages and what the link layer did about it. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages the fabric dropped.
    pub dropped: u64,
    /// Messages the fabric delivered twice.
    pub duplicated: u64,
    /// Messages the fabric delivered late.
    pub delayed: u64,
    /// Messages that arrived with a failing checksum.
    pub corrupted: u64,
    /// Checksum-failure NACKs the receiving NIs sent back.
    pub link_nacks: u64,
    /// Retransmissions (timeout- or NACK-triggered).
    pub retries: u64,
    /// Retransmit timers that fired and found their message unacked.
    pub timeouts: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub retries_exhausted: u64,
    /// Duplicate deliveries suppressed by receiver-side dedupe.
    pub dup_suppressed: u64,
    /// Link-layer control messages (delivery acks/nacks) sent.
    pub link_msgs: u64,
}

impl FaultStats {
    /// True when nothing was injected and nothing recovered — the
    /// fault-free signature.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Add another counter set into this one, field by field (e.g. to
    /// total several runs).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.corrupted += other.corrupted;
        self.link_nacks += other.link_nacks;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.retries_exhausted += other.retries_exhausted;
        self.dup_suppressed += other.dup_suppressed;
        self.link_msgs += other.link_msgs;
    }

    /// Faults the fabric injected (drop + duplicate + delay + corrupt).
    pub fn injected(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.corrupted
    }

    /// Counters as words, in field order (fingerprinting support).
    pub fn as_words(&self) -> [u64; 10] {
        [
            self.dropped,
            self.duplicated,
            self.delayed,
            self.corrupted,
            self.link_nacks,
            self.retries,
            self.timeouts,
            self.retries_exhausted,
            self.dup_suppressed,
            self.link_msgs,
        ]
    }
}

/// Machine-level finite-resource pressure counters: what the bounded
/// queues, directory request slots, and write-notice buffers rejected,
/// retried, or degraded. All zero when every limit is unbounded (the
/// default), so a default run's stats are bit-identical to a build without
/// resource modeling. The two `peak_*` gauges are tracked unconditionally
/// (they cost one compare on already-cold paths) so a bounded-but-roomy
/// run can be proven identical to an unbounded one stats-and-all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// BUSY-NACKs homes sent to requests that raced an in-flight
    /// transaction with no request slot free.
    pub busy_nacks: u64,
    /// NACKed requests re-sent after their backoff expired.
    pub nack_retries: u64,
    /// Requests parked after exhausting the per-episode NACK budget — the
    /// forward-progress fallback.
    pub nack_park_fallbacks: u64,
    /// Sends rejected by a full NI ingress or egress queue.
    pub ni_rejects: u64,
    /// NI-rejected sends retried after their backoff expired.
    pub ni_retries: u64,
    /// Cycles of retry backoff charged to NACKed and NI-rejected messages
    /// (an upper bound on the latency the backpressure added).
    pub backpressure_stall_cycles: u64,
    /// Write-notice buffer overflows: the moments a node's pending-inval
    /// set hit its cap and collapsed to the invalidate-all bit.
    pub wn_overflows: u64,
    /// Acquires served by the conservative invalidate-all fallback instead
    /// of the precise pending-invalidation list.
    pub overflow_fallbacks: u64,
    /// Lines invalidated by those fallback acquires (the degradation cost;
    /// compare against `acquire_invalidations` for the precise path).
    pub overflow_invalidations: u64,
    /// Largest pending-invalidation set any node ever held.
    pub peak_pending_invals: u64,
    /// Deepest any home's parked-request queue for one line ever got.
    pub peak_parked: u64,
}

impl ResourceStats {
    /// True when no limit was ever hit (always true at default config).
    /// The peaks are observations, not pressure, so they are excluded.
    pub fn is_zero(&self) -> bool {
        let ResourceStats {
            busy_nacks,
            nack_retries,
            nack_park_fallbacks,
            ni_rejects,
            ni_retries,
            backpressure_stall_cycles,
            wn_overflows,
            overflow_fallbacks,
            overflow_invalidations,
            peak_pending_invals: _,
            peak_parked: _,
        } = *self;
        busy_nacks == 0
            && nack_retries == 0
            && nack_park_fallbacks == 0
            && ni_rejects == 0
            && ni_retries == 0
            && backpressure_stall_cycles == 0
            && wn_overflows == 0
            && overflow_fallbacks == 0
            && overflow_invalidations == 0
    }
}

/// Everything recorded about one simulated processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Cycle attribution (sums to this processor's finish time).
    pub breakdown: Breakdown,
    /// Total memory references issued (reads + writes).
    pub refs: u64,
    /// Read references issued.
    pub reads: u64,
    /// Write references issued.
    pub writes: u64,
    /// Read misses that required a data transfer.
    pub read_misses: u64,
    /// Write misses that required a data transfer (line absent).
    pub write_misses: u64,
    /// Write permission faults on a present, read-only line.
    pub upgrades: u64,
    /// Classified misses (only populated when classification is enabled).
    pub miss_classes: MissCounts,
    /// Write notices received from homes (lazy protocols).
    pub notices_received: u64,
    /// Lines invalidated at acquire points (lazy protocols).
    pub acquire_invalidations: u64,
    /// Eager invalidations applied on receipt (SC/ERC).
    pub eager_invalidations: u64,
    /// Lock acquires completed.
    pub lock_acquires: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Messages this node's protocol processor sent.
    pub traffic: Traffic,
    /// Coherence transactions that required a third hop (forwarding).
    pub three_hop: u64,
    /// Cycle at which this processor executed its `Done` op.
    pub finish_time: u64,
    /// Cycles this node's protocol processor was busy.
    pub pp_busy: u64,
    /// Cycles this node's memory module was busy.
    pub mem_busy: u64,
}

impl ProcStats {
    /// Accumulate another processor row into this one (e.g. to total a
    /// run's processors or several runs): counters add, and
    /// `finish_time`, a timestamp rather than a count, takes the later of
    /// the two.
    pub fn merge(&mut self, other: &ProcStats) {
        self.breakdown.merge(&other.breakdown);
        self.refs += other.refs;
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.upgrades += other.upgrades;
        self.miss_classes.merge(&other.miss_classes);
        self.notices_received += other.notices_received;
        self.acquire_invalidations += other.acquire_invalidations;
        self.eager_invalidations += other.eager_invalidations;
        self.lock_acquires += other.lock_acquires;
        self.barriers += other.barriers;
        self.traffic.merge(&other.traffic);
        self.three_hop += other.three_hop;
        self.finish_time = self.finish_time.max(other.finish_time);
        self.pp_busy += other.pp_busy;
        self.mem_busy += other.mem_busy;
    }

    /// All misses involving the coherence protocol (upgrades included, since
    /// the paper's Table 2 counts "write misses" as a miss category).
    pub fn total_misses(&self) -> u64 {
        self.read_misses + self.write_misses + self.upgrades
    }

    /// Miss rate over all references, as used by the paper's Table 3.
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.total_misses() as f64 / self.refs as f64
        }
    }
}

/// Number of log₂ buckets a [`Histogram`] keeps: bucket 0 holds the value
/// 0, bucket `b` (1..=64) holds values in `[2^(b-1), 2^b - 1]`, so the full
/// `u64` range is covered with no saturation.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (latencies in cycles,
/// retry counts). Fixed-size and allocation-free so recording is a few
/// arithmetic ops; merging is element-wise addition and therefore
/// associative and commutative — folding per-probe histograms into the
/// machine total is order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, saturating (for the mean).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Bucket counters; see [`HIST_BUCKETS`] for the bucket bounds.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index holding `v`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else {
            (1 << (b - 1), if b == 64 { u64::MAX } else { (1 << b) - 1 })
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 < p <= 100) as an upper bound: the top of
    /// the bucket containing the target rank, clamped to the observed max
    /// (so `percentile(100) == max` exactly). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// Accumulate another histogram into this one (element-wise).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Named latency histograms, sorted by name. Entries appear on first
/// record, so a run with latency probes off contributes an empty (and
/// default-equal) value — the stats fingerprint of an untraced run is
/// unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    entries: Vec<(String, Histogram)>,
}

impl LatencyStats {
    /// Empty set.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// True when no histogram holds any sample.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|(_, h)| h.is_empty())
    }

    /// The histogram named `name`, created empty if absent.
    pub fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        let idx = match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (name.to_string(), Histogram::new()));
                i
            }
        };
        &mut self.entries[idx].1
    }

    /// Record one sample into the histogram named `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.hist_mut(name).record(v);
    }

    /// Look up a histogram by name.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// All histograms in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.entries.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Accumulate another set into this one, merging same-named histograms.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (name, h) in &other.entries {
            self.hist_mut(name).merge(h);
        }
    }

    /// Entries as `(name, histogram)` pairs (serialization support).
    pub fn entries(&self) -> &[(String, Histogram)] {
        &self.entries
    }

    /// Rebuild from pairs (sorted and deduplicated by merge).
    pub fn from_entries(pairs: Vec<(String, Histogram)>) -> Self {
        let mut out = LatencyStats::new();
        for (name, h) in pairs {
            out.hist_mut(&name).merge(&h);
        }
        out
    }
}

/// One access site in a [`RaceReport`]: which processor touched the word,
/// the program-order ordinal of that reference on its processor (the N-th
/// read-or-write the processor issued, counting from 1), and the access
/// kind. The ordinal is replay-stable: rerunning the same workload puts
/// the same reference at the same ordinal regardless of timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceSite {
    /// Processor that issued the access.
    pub proc: u64,
    /// Program-order reference ordinal on that processor (1-based).
    pub ref_index: u64,
    /// True for a write, false for a read.
    pub write: bool,
}

impl RaceSite {
    /// Short `w@p2#17` / `r@p0#3` rendering used by reports.
    pub fn render(&self) -> String {
        format!("{}@p{}#{}", if self.write { "w" } else { "r" }, self.proc, self.ref_index)
    }
}

/// One detected happens-before race: two accesses to the same word, at
/// least one a write, with neither ordered before the other by program
/// order or the sync edges (lock release→acquire, barrier arrive→depart).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// Byte address of the racy word.
    pub addr: u64,
    /// The earlier access (by detection order): the stored metadata the
    /// conflicting access raced against.
    pub prior: RaceSite,
    /// The access whose arrival exposed the race.
    pub current: RaceSite,
    /// The current accessor's vector clock at the moment of detection,
    /// indexed by processor — the evidence that `prior` is not in its
    /// happens-before past.
    pub clocks: Vec<u64>,
}

impl RaceReport {
    /// One-line rendering: kind, address, both sites.
    pub fn render(&self) -> String {
        let kind = match (self.prior.write, self.current.write) {
            (true, true) => "write/write",
            (true, false) => "write/read",
            (false, true) => "read/write",
            (false, false) => "read/read",
        };
        format!(
            "{} race on word {:#x}: {} vs {}",
            kind,
            self.addr,
            self.prior.render(),
            self.current.render()
        )
    }

    /// Fields as words, in a stable order (fingerprinting support).
    pub fn as_words(&self, out: &mut Vec<u64>) {
        out.push(self.addr);
        for s in [&self.prior, &self.current] {
            out.push(s.proc);
            out.push(s.ref_index);
            out.push(u64::from(s.write));
        }
        out.extend_from_slice(&self.clocks);
    }
}

/// Happens-before race-detection counters and the first few reports.
/// All zero/empty when detection is off (the default), so a default run's
/// stats are bit-identical to a build without the detector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Distinct shared words that acquired read/write metadata.
    pub words_monitored: u64,
    /// Accesses resolved on the O(1) same-epoch fast path.
    pub epoch_fast_hits: u64,
    /// Words whose read metadata was promoted from an epoch to a full
    /// vector clock (concurrent readers).
    pub vector_promotions: u64,
    /// Races detected (first race per word; later conflicts on an
    /// already-racy word are not recounted).
    pub races_found: u64,
    /// The first [`RaceStats::REPORT_CAP`] reports, in detection order.
    pub reports: Vec<RaceReport>,
}

impl RaceStats {
    /// Cap on stored reports; `races_found` keeps counting past it.
    pub const REPORT_CAP: usize = 64;

    /// True when detection never ran (the detection-off signature).
    pub fn is_zero(&self) -> bool {
        *self == RaceStats::default()
    }

    /// True when detection ran and found no race.
    pub fn race_free(&self) -> bool {
        self.races_found == 0
    }
}

/// One dirty line whose only up-to-date copy died with a crashed node: the
/// typed `DataLoss` outcome the recovery protocol surfaces instead of
/// silently serving stale memory. `detected_at` is the cycle the home
/// declared the owner dead and reclaimed the line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataLossEvent {
    /// Line address of the lost update.
    pub line: u64,
    /// Node that held the line dirty when it crashed.
    pub owner: u64,
    /// Home node that reclaimed the line.
    pub home: u64,
    /// Cycle at which the loss was detected.
    pub detected_at: u64,
}

impl DataLossEvent {
    /// One-line rendering used by reports.
    pub fn render(&self) -> String {
        format!(
            "data loss on line {:#x}: dirty owner n{} crashed, home n{} reclaimed stale memory at cycle {}",
            self.line, self.owner, self.home, self.detected_at
        )
    }

    /// Fields as words, in a stable order (fingerprinting support).
    pub fn as_words(&self) -> [u64; 4] {
        [self.line, self.owner, self.home, self.detected_at]
    }
}

/// Crash-stop failure and recovery counters: nodes killed, lease-based
/// suspicions, what the directory reclaimed, and how the survivors made
/// degraded-mode progress. All zero/empty when no crash plan is armed
/// (the default), so a default run's stats are bit-identical to a build
/// without the crash subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Nodes that crashed.
    pub crashes: u64,
    /// (observer, dead-peer) pairs where a lease expired — each survivor
    /// independently suspects each dead node exactly once.
    pub suspicions: u64,
    /// Heartbeat messages sent while detection was armed.
    pub heartbeats_sent: u64,
    /// Dirty-owned lines reclaimed from a dead node: lost updates.
    pub dirty_lines_lost: u64,
    /// Clean lines (shared or notified copies) reclaimed silently.
    pub clean_lines_reclaimed: u64,
    /// Invalidation/write-notice acks the home forged on behalf of a dead
    /// node so a pending collection could complete.
    pub forged_acks: u64,
    /// Busy forwarding episodes cancelled because the dead node was the
    /// owner or the requester; survivors were served from (possibly stale)
    /// memory.
    pub forwards_cancelled: u64,
    /// Requests parked at a home that were dropped because their sender
    /// died.
    pub parked_dropped: u64,
    /// Outstanding miss transactions a survivor aborted and completed
    /// locally because the home or owner died (degraded fill).
    pub degraded_fills: u64,
    /// Lock acquires self-granted because the lock's home died (mutual
    /// exclusion is lost for those locks — counted, never silent).
    pub degraded_lock_grants: u64,
    /// Barrier waits self-released because the barrier's home died.
    pub degraded_barrier_releases: u64,
    /// Locks whose dead holder was evicted and the grant passed on (or the
    /// lock freed) by the home.
    pub locks_reclaimed: u64,
    /// Barrier slots of dead arrivers released by the home.
    pub barrier_slots_reclaimed: u64,
    /// Write-through acks a survivor stopped waiting for because they were
    /// owed by a dead home.
    pub wt_acks_written_off: u64,
    /// Write-back acks a survivor stopped waiting for because they were
    /// owed by a dead home.
    pub wbk_acks_written_off: u64,
    /// Messages suppressed at the send boundary because their destination
    /// (or source) was known dead.
    pub suppressed_sends: u64,
    /// The first [`CrashStats::REPORT_CAP`] data-loss events, in detection
    /// order; `dirty_lines_lost` keeps counting past the cap.
    pub data_loss: Vec<DataLossEvent>,
}

impl CrashStats {
    /// Cap on stored data-loss reports.
    pub const REPORT_CAP: usize = 64;

    /// True when no crash plan ever armed (the crashes-off signature).
    pub fn is_zero(&self) -> bool {
        *self == CrashStats::default()
    }

    /// Record a data-loss event, capping stored reports.
    pub fn record_data_loss(&mut self, ev: DataLossEvent) {
        self.dirty_lines_lost += 1;
        if self.data_loss.len() < Self::REPORT_CAP {
            self.data_loss.push(ev);
        }
    }

    /// Counters as words, in field order (fingerprinting support; the
    /// data-loss reports are folded separately via their own `as_words`).
    pub fn as_words(&self) -> [u64; 16] {
        [
            self.crashes,
            self.suspicions,
            self.heartbeats_sent,
            self.dirty_lines_lost,
            self.clean_lines_reclaimed,
            self.forged_acks,
            self.forwards_cancelled,
            self.parked_dropped,
            self.degraded_fills,
            self.degraded_lock_grants,
            self.degraded_barrier_releases,
            self.locks_reclaimed,
            self.barrier_slots_reclaimed,
            self.wt_acks_written_off,
            self.wbk_acks_written_off,
            self.suppressed_sends,
        ]
    }
}

/// Machine-level view: per-processor stats plus the run's wall-clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Per-processor statistics, indexed by `ProcId`.
    pub procs: Vec<ProcStats>,
    /// Cycle at which the last processor finished: the figure-4 metric.
    pub total_cycles: u64,
    /// Fault-injection and link-layer recovery counters (all zero on a
    /// fault-free run).
    pub faults: FaultStats,
    /// Finite-resource pressure counters (all zero at the default,
    /// unbounded configuration).
    pub resources: ResourceStats,
    /// Latency histograms (round-trips, lock hold/wait, barrier skew, NACK
    /// retries). Empty unless the machine ran with latency probes enabled.
    pub latencies: LatencyStats,
    /// Happens-before race-detection results. Zero/empty unless the machine
    /// ran with race detection enabled.
    pub races: RaceStats,
    /// Crash-stop failure and recovery counters. Zero/empty unless the
    /// machine ran with a crash plan armed.
    pub crashes: CrashStats,
}

impl MachineStats {
    /// Empty statistics for a `num_procs`-processor machine.
    pub fn new(num_procs: usize) -> Self {
        MachineStats {
            procs: vec![ProcStats::default(); num_procs],
            total_cycles: 0,
            faults: FaultStats::default(),
            resources: ResourceStats::default(),
            latencies: LatencyStats::default(),
            races: RaceStats::default(),
            crashes: CrashStats::default(),
        }
    }

    /// Aggregate cycle breakdown over all processors (the figure-5 metric).
    pub fn aggregate_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for p in &self.procs {
            b.merge(&p.breakdown);
        }
        b
    }

    /// Classified-miss totals over all processors (Table 2).
    pub fn aggregate_misses(&self) -> MissCounts {
        let mut m = MissCounts::default();
        for p in &self.procs {
            m.merge(&p.miss_classes);
        }
        m
    }

    /// Total memory references over all processors.
    pub fn total_refs(&self) -> u64 {
        self.procs.iter().map(|p| p.refs).sum()
    }

    /// Total misses (upgrades included) over all processors.
    pub fn total_miss_count(&self) -> u64 {
        self.procs.iter().map(|p| p.total_misses()).sum()
    }

    /// Whole-machine miss rate (Table 3).
    pub fn miss_rate(&self) -> f64 {
        let refs = self.total_refs();
        if refs == 0 {
            0.0
        } else {
            self.total_miss_count() as f64 / refs as f64
        }
    }

    /// Total network traffic over all nodes.
    pub fn aggregate_traffic(&self) -> Traffic {
        let mut t = Traffic::default();
        for p in &self.procs {
            t.merge(&p.traffic);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_counts_are_exclusive_and_total() {
        let mut m = MissCounts::default();
        for c in MissClass::ALL {
            m.record(c);
        }
        assert_eq!(m.total(), 5);
        for c in MissClass::ALL {
            assert_eq!(m.get(c), 1);
            assert!((m.percent(c) - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn breakdown_buckets() {
        let mut b = Breakdown::default();
        b.add(StallKind::Cpu, 10);
        b.add(StallKind::Read, 20);
        b.add(StallKind::Write, 30);
        b.add(StallKind::Sync, 40);
        assert_eq!(b.total(), 100);
        let n = b.normalized(200);
        assert!((n[0] - 0.05).abs() < 1e-12);
        assert!((n[3] - 0.20).abs() < 1e-12);
    }

    #[test]
    fn machine_aggregation() {
        let mut s = MachineStats::new(2);
        s.procs[0].breakdown.add(StallKind::Cpu, 5);
        s.procs[1].breakdown.add(StallKind::Sync, 7);
        s.procs[0].refs = 10;
        s.procs[0].read_misses = 2;
        s.procs[1].refs = 10;
        s.procs[1].upgrades = 3;
        let b = s.aggregate_breakdown();
        assert_eq!(b.cpu, 5);
        assert_eq!(b.sync, 7);
        assert_eq!(s.total_refs(), 20);
        assert_eq!(s.total_miss_count(), 5);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_counts_upgrades() {
        let p = ProcStats {
            refs: 100,
            read_misses: 1,
            write_misses: 1,
            upgrades: 2,
            ..Default::default()
        };
        assert_eq!(p.total_misses(), 4);
        assert!((p.miss_rate() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn traffic_classes() {
        let mut t = Traffic::default();
        t.record(TrafficClass::Control, 8);
        t.record(TrafficClass::Data, 136);
        t.record(TrafficClass::WriteData, 24);
        assert_eq!(t.total_msgs(), 3);
        assert_eq!(t.bytes, 168);
    }

    #[test]
    fn resource_stats_zero_ignores_peaks() {
        let mut r = ResourceStats::default();
        assert!(r.is_zero());
        r.peak_pending_invals = 12;
        r.peak_parked = 3;
        assert!(r.is_zero(), "peaks are observations, not pressure");
        r.busy_nacks = 1;
        assert!(!r.is_zero());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds only 0; bucket b holds [2^(b-1), 2^b - 1].
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b, "lower bound of bucket {b}");
            assert_eq!(Histogram::bucket_of(hi), b, "upper bound of bucket {b}");
            if b > 0 {
                assert_eq!(Histogram::bucket_bounds(b - 1).1 + 1, lo, "buckets are contiguous");
            }
        }
    }

    #[test]
    fn histogram_percentiles_clamp_to_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.max, 1000);
        assert_eq!(h.percentile(100.0), 1000, "p100 is exactly the max");
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(50.0) >= 3, "p50 bucket upper bound covers the median sample");
        assert!((h.mean() - 221.2).abs() < 1e-9);
        let empty = Histogram::new();
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 5, 9]), mk(&[0, 1 << 20]), mk(&[7, 7, 7, u64::MAX]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "a+b == b+a");
        // Merging equals recording the concatenated sample stream.
        assert_eq!(ab_c, mk(&[1, 5, 9, 0, 1 << 20, 7, 7, 7, u64::MAX]));
    }

    #[test]
    fn latency_stats_sorted_named_merge() {
        let mut a = LatencyStats::new();
        a.record("rt.read", 10);
        a.record("lock.wait", 5);
        let mut b = LatencyStats::new();
        b.record("rt.read", 20);
        b.record("barrier.skew", 2);
        a.merge(&b);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["barrier.skew", "lock.wait", "rt.read"], "name-sorted");
        assert_eq!(a.get("rt.read").unwrap().count, 2);
        assert_eq!(a.get("rt.read").unwrap().max, 20);
        assert!(a.get("absent").is_none());
        let rebuilt = LatencyStats::from_entries(a.entries().to_vec());
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn race_stats_zero_and_render() {
        let r = RaceStats::default();
        assert!(r.is_zero());
        assert!(r.race_free());
        let report = RaceReport {
            addr: 0x40,
            prior: RaceSite { proc: 2, ref_index: 17, write: true },
            current: RaceSite { proc: 0, ref_index: 3, write: false },
            clocks: vec![5, 0, 1, 0],
        };
        assert_eq!(report.render(), "write/read race on word 0x40: w@p2#17 vs r@p0#3");
        let stats = RaceStats { races_found: 1, reports: vec![report.clone()], ..Default::default() };
        assert!(!stats.is_zero());
        assert!(!stats.race_free());
        let mut words = Vec::new();
        report.as_words(&mut words);
        assert_eq!(words, vec![0x40, 2, 17, 1, 0, 3, 0, 5, 0, 1, 0]);
    }

    #[test]
    fn crash_stats_zero_cap_and_render() {
        let mut c = CrashStats::default();
        assert!(c.is_zero());
        let ev = DataLossEvent { line: 0x80, owner: 3, home: 1, detected_at: 42_000 };
        assert_eq!(
            ev.render(),
            "data loss on line 0x80: dirty owner n3 crashed, home n1 reclaimed stale memory at cycle 42000"
        );
        assert_eq!(ev.as_words(), [0x80, 3, 1, 42_000]);
        for _ in 0..(CrashStats::REPORT_CAP + 10) {
            c.record_data_loss(ev);
        }
        assert!(!c.is_zero());
        assert_eq!(c.dirty_lines_lost, CrashStats::REPORT_CAP as u64 + 10, "count passes the cap");
        assert_eq!(c.data_loss.len(), CrashStats::REPORT_CAP, "reports stop at the cap");
        assert_eq!(c.as_words()[3], c.dirty_lines_lost, "field order is stable");
    }

    #[test]
    fn zero_division_is_safe() {
        let m = MissCounts::default();
        assert_eq!(m.percent(MissClass::Cold), 0.0);
        let p = ProcStats::default();
        assert_eq!(p.miss_rate(), 0.0);
        let b = Breakdown::default();
        assert_eq!(b.normalized(0), [0.0; 4]);
    }
}
