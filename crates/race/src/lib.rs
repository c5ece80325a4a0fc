//! `lrc-race` — an online happens-before race detector in the FastTrack
//! style (Flanagan & Freund), driven by the simulated machine's own
//! synchronization operations.
//!
//! The detector maintains one vector clock per processor, advanced by
//! program order and joined along exactly the edges the protocols
//! implement:
//!
//! * **lock release → acquire**: the releaser's clock is folded into the
//!   lock's clock at the release; the next holder joins the lock's clock
//!   when its grant arrives.
//! * **barrier arrival → departure**: each arrival folds the arriving
//!   processor's clock into the episode's gather clock; once all
//!   processors have arrived the gather clock becomes the episode clock,
//!   and every departure joins it.
//! * **fence**: *no* edge. The paper offers `fence` as an escape hatch for
//!   programs with data races — it forces local invalidations so stale
//!   copies are refetched, but it synchronizes with nobody, so it creates
//!   no happens-before order and does not silence the detector.
//!
//! Per word, the detector keeps adaptive FastTrack metadata: the last
//! write as an *epoch* (`proc@clock`), and reads as an epoch that promotes
//! to a full per-processor vector only when genuinely concurrent readers
//! appear. The common same-epoch case (a processor re-touching a word it
//! just touched, private data, lock-protected data between hand-offs) is
//! a single compare — O(1) with no allocation.
//!
//! Word metadata is reached in O(1) by word number (the address shifted
//! down by the word-size bits) through a [`LineMap`]: a 4-byte slot per
//! word of range into packed metadata for the words touched so far.
//! Listings, fingerprints and equality walk that index, so they visit words
//! in ascending address order whatever order they were touched in.
//!
//! Everything here is deterministic: races are reported in detection order
//! (which the simulator's deterministic event order fixes), and only the
//! first race per word is reported, so reruns of the same program produce
//! bit-identical [`RaceStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

use lrc_sim::lrc_json::{json_struct, Dec, List, Opt, Plain};
use lrc_sim::{LineMap, RaceReport, RaceSite, RaceStats};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A vector clock: one logical-time component per processor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    c: Vec<u64>,
}

impl VectorClock {
    /// The bottom clock (all zeros) for `n` processors.
    pub fn new(n: usize) -> Self {
        VectorClock { c: vec![0; n] }
    }

    /// Component for processor `p`.
    #[inline]
    pub fn get(&self, p: usize) -> u64 {
        self.c[p]
    }

    /// Advance processor `p`'s own component.
    #[inline]
    pub fn tick(&mut self, p: usize) {
        self.c[p] += 1;
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.c.iter_mut().zip(other.c.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// The raw components, indexed by processor.
    pub fn components(&self) -> &[u64] {
        &self.c
    }
}

/// An epoch `proc@clock`: one component of a vector clock, identifying one
/// segment of one processor's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch {
    proc: u32,
    clock: u64,
}

impl Epoch {
    /// `self` happens-before (or equals) the accessor whose clock is `c`.
    #[inline]
    fn ordered_before(self, c: &VectorClock) -> bool {
        self.clock <= c.get(self.proc as usize)
    }
}

/// Read metadata for one word: an epoch while reads are totally ordered,
/// promoted to per-processor clocks once concurrent readers appear.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadMeta {
    /// No read since the last write.
    None,
    /// All reads so far are ordered; only the latest matters.
    Epoch(Epoch, RaceSite),
    /// Concurrent readers: last read clock and site per processor.
    Vector(Vec<u64>, Vec<RaceSite>),
}

/// Per-word FastTrack metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WordMeta {
    write: Option<(Epoch, RaceSite)>,
    read: ReadMeta,
    /// A race was already reported on this word; later conflicts on the
    /// same word are suppressed so one buggy word cannot flood the report.
    racy: bool,
}

impl WordMeta {
    fn new() -> Self {
        WordMeta { write: None, read: ReadMeta::None, racy: false }
    }
}

/// Checkpointed read metadata for one word (plain-data mirror of the
/// detector's internal adaptive representation).
#[derive(Debug, Clone, PartialEq)]
pub enum ReadState {
    /// No read since the last write.
    None,
    /// All reads so far ordered: `(proc, clock, site)` of the latest.
    Epoch(u32, u64, RaceSite),
    /// Concurrent readers: per-processor last-read clocks and sites.
    Vector(Vec<u64>, Vec<RaceSite>),
}

/// Checkpointed per-word metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WordState {
    /// Word-aligned byte address.
    pub addr: u64,
    /// Last write as `(proc, clock, site)`, if any.
    pub write: Option<(u32, u64, RaceSite)>,
    /// Read metadata.
    pub read: ReadState,
    /// A race was already reported on this word.
    pub racy: bool,
}

/// Checkpointed per-barrier episode state.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierState {
    /// Barrier id.
    pub id: u32,
    /// Gather clock of the in-progress episode.
    pub gather: Vec<u64>,
    /// Arrivals gathered so far.
    pub arrivals: usize,
    /// Clock of the most recently completed episode.
    pub completed: Vec<u64>,
}

/// Complete checkpointed detector state, produced by
/// [`RaceDetector::save_state`] and consumed by
/// [`RaceDetector::from_state`]. Pure data, serialized by the field lists
/// below as part of a machine snapshot (clocks as decimal strings).
#[derive(Debug, Clone, PartialEq)]
pub struct RaceDetectorState {
    /// Number of processors.
    pub num_procs: usize,
    /// Word granularity in bytes.
    pub word_size: u64,
    /// Per-processor vector clocks (each `num_procs` components).
    pub clocks: Vec<Vec<u64>>,
    /// Per-processor program-order reference ordinals.
    pub refs: Vec<u64>,
    /// Per-lock clocks, sorted by lock id.
    pub locks: Vec<(u32, Vec<u64>)>,
    /// Per-barrier episode state, sorted by barrier id.
    pub barriers: Vec<BarrierState>,
    /// Per-word metadata, sorted by address.
    pub words: Vec<WordState>,
    /// Counters and reports accumulated so far.
    pub stats: RaceStats,
}

json_struct!(enum ReadState {
    None = "none",
    Epoch(proc, clock: Dec, site) = "epoch",
    Vector(clocks: List<Dec>, sites) = "vector",
});
json_struct!(WordState { addr: Dec, write: Opt<(Plain, Dec, Plain)>, read, racy });
json_struct!(BarrierState { id, gather: List<Dec>, arrivals, completed: List<Dec> });
json_struct!(RaceDetectorState {
    num_procs,
    word_size: Dec,
    clocks: List<List<Dec>>,
    refs: List<Dec>,
    locks: List<(Plain, List<Dec>)>,
    barriers,
    words,
    stats,
});

/// The online happens-before race detector.
///
/// The machine drives it through six hooks: [`on_read`](Self::on_read) /
/// [`on_write`](Self::on_write) at each data reference, and the four sync
/// hooks at the edges the protocols execute. The detector never inspects
/// protocol state — a race verdict is a property of the *program* (its
/// reference streams and sync order), which is exactly why it is the
/// precondition the DRF⇒SC value checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceDetector {
    num_procs: usize,
    /// log2 of the word size in bytes.
    word_bits: u32,
    /// Per-processor vector clocks.
    clocks: Vec<VectorClock>,
    /// Per-processor program-order reference ordinal (1-based in reports).
    refs: Vec<u64>,
    /// Per-lock clocks: the join of every past releaser.
    locks: BTreeMap<u32, VectorClock>,
    /// Per-barrier episode state.
    barriers: BTreeMap<u32, BarrierClock>,
    /// Per-word metadata, keyed by word number (`addr >> word_bits`).
    words: LineMap<WordMeta>,
    /// Counters and reports, folded into `MachineStats` at end of run.
    stats: RaceStats,
}

/// Gather/episode clocks for one barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BarrierClock {
    /// Join of the clocks of everyone who arrived at the current episode.
    gather: VectorClock,
    arrivals: usize,
    /// Clock of the most recently completed episode; departures join it.
    completed: VectorClock,
}

impl RaceDetector {
    /// A detector for `num_procs` processors and `word_size`-byte words.
    /// A word size of 0 counts as 1.
    ///
    /// # Panics
    ///
    /// If `word_size` is not a power of two.
    pub fn new(num_procs: usize, word_size: u64) -> Self {
        let word_size = word_size.max(1);
        assert!(word_size.is_power_of_two(), "word size {word_size} is not a power of two");
        // Each processor's own component starts at 1 (the FastTrack
        // convention): clock 0 then unambiguously means "never accessed",
        // so an untouched slot in a read vector can never satisfy the
        // same-epoch fast path and mask a write/read check.
        let clocks: Vec<VectorClock> = (0..num_procs)
            .map(|p| {
                let mut c = VectorClock::new(num_procs);
                c.tick(p);
                c
            })
            .collect();
        RaceDetector {
            num_procs,
            word_bits: word_size.trailing_zeros(),
            clocks,
            refs: vec![0; num_procs],
            locks: BTreeMap::new(),
            barriers: BTreeMap::new(),
            words: LineMap::new(),
            stats: RaceStats::default(),
        }
    }

    /// Counters and reports accumulated so far.
    pub fn stats(&self) -> &RaceStats {
        &self.stats
    }

    /// Take the accumulated stats (end-of-run fold into `MachineStats`).
    pub fn take_stats(&mut self) -> RaceStats {
        std::mem::take(&mut self.stats)
    }

    /// True when no race has been detected so far.
    pub fn race_free(&self) -> bool {
        self.stats.race_free()
    }

    fn site(&mut self, p: usize, write: bool) -> RaceSite {
        self.refs[p] += 1;
        RaceSite { proc: p as u64, ref_index: self.refs[p], write }
    }

    fn report(
        stats: &mut RaceStats,
        racy: &mut bool,
        addr: u64,
        prior: RaceSite,
        current: RaceSite,
        clock: &VectorClock,
    ) {
        *racy = true;
        stats.races_found += 1;
        if stats.reports.len() < RaceStats::REPORT_CAP {
            stats.reports.push(RaceReport {
                addr,
                prior,
                current,
                clocks: clock.components().to_vec(),
            });
        }
    }

    /// Processor `p` reads the word containing byte address `a`.
    pub fn on_read(&mut self, p: usize, a: u64) {
        let site = self.site(p, false);
        let w = a >> self.word_bits;
        let addr = w << self.word_bits;
        let clock = &self.clocks[p];
        let stats = &mut self.stats;
        let word = self.words.entry_or_insert_with(w, || {
            stats.words_monitored += 1;
            WordMeta::new()
        });

        // Same-epoch fast path: this processor already read the word in its
        // current segment, so every check below would re-pass.
        let own = Epoch { proc: p as u32, clock: clock.get(p) };
        match &word.read {
            ReadMeta::Epoch(e, _) if *e == own => {
                stats.epoch_fast_hits += 1;
                return;
            }
            ReadMeta::Vector(c, _) if c[p] == clock.get(p) => {
                stats.epoch_fast_hits += 1;
                return;
            }
            _ => {}
        }

        // Write/read check: the last write must be in our past.
        if let Some((w, wsite)) = word.write {
            if !w.ordered_before(clock) && !word.racy {
                Self::report(stats, &mut word.racy, addr, wsite, site, clock);
            }
        }

        // Update read metadata, promoting to a vector only on concurrency.
        match &mut word.read {
            r @ ReadMeta::None => *r = ReadMeta::Epoch(own, site),
            ReadMeta::Epoch(e, s) => {
                if e.ordered_before(clock) {
                    *e = own;
                    *s = site;
                } else {
                    stats.vector_promotions += 1;
                    let mut c = vec![0u64; self.num_procs];
                    let mut sites = vec![RaceSite::default(); self.num_procs];
                    c[e.proc as usize] = e.clock;
                    sites[e.proc as usize] = *s;
                    c[p] = own.clock;
                    sites[p] = site;
                    word.read = ReadMeta::Vector(c, sites);
                }
            }
            ReadMeta::Vector(c, sites) => {
                c[p] = own.clock;
                sites[p] = site;
            }
        }
    }

    /// Processor `p` writes the word containing byte address `a`.
    pub fn on_write(&mut self, p: usize, a: u64) {
        let site = self.site(p, true);
        let w = a >> self.word_bits;
        let addr = w << self.word_bits;
        let clock = &self.clocks[p];
        let stats = &mut self.stats;
        let word = self.words.entry_or_insert_with(w, || {
            stats.words_monitored += 1;
            WordMeta::new()
        });

        // Same-epoch fast path: we already wrote this word in this segment.
        let own = Epoch { proc: p as u32, clock: clock.get(p) };
        if let Some((w, _)) = word.write {
            if w == own {
                stats.epoch_fast_hits += 1;
                return;
            }
        }

        // Write/write check.
        if let Some((w, wsite)) = word.write {
            if !w.ordered_before(clock) && !word.racy {
                Self::report(stats, &mut word.racy, addr, wsite, site, clock);
            }
        }

        // Read/write check: every prior read must be in our past.
        match &word.read {
            ReadMeta::None => {}
            ReadMeta::Epoch(e, rsite) => {
                if !e.ordered_before(clock) && !word.racy {
                    Self::report(stats, &mut word.racy, addr, *rsite, site, clock);
                }
            }
            ReadMeta::Vector(c, sites) => {
                if !word.racy {
                    // Smallest offending processor, for deterministic reports.
                    if let Some(r) = (0..self.num_procs).find(|&r| c[r] > clock.get(r)) {
                        let prior = sites[r];
                        Self::report(stats, &mut word.racy, addr, prior, site, clock);
                    }
                }
            }
        }

        // The write supersedes all ordered reads (and any racy ones are
        // already reported): future conflicts are caught against it.
        word.write = Some((own, site));
        word.read = ReadMeta::None;
    }

    /// Processor `p` releases lock `l`: publish `p`'s clock to the lock and
    /// open a new segment.
    pub fn on_release(&mut self, p: usize, l: u32) {
        let lock = self.locks.entry(l).or_insert_with(|| VectorClock::new(self.num_procs));
        lock.join(&self.clocks[p]);
        self.clocks[p].tick(p);
    }

    /// Processor `p`'s acquire of lock `l` is granted: join the lock's
    /// clock (everything every past releaser did is now ordered before us).
    pub fn on_acquire(&mut self, p: usize, l: u32) {
        if let Some(lock) = self.locks.get(&l) {
            self.clocks[p].join(lock);
        }
    }

    /// Processor `p` arrives at barrier `b`: fold `p`'s clock into the
    /// episode and open a new segment. An episode completes when every
    /// processor has arrived. The machine blocks each processor until the
    /// episode completes, so at most one episode per barrier gathers at a
    /// time.
    pub fn on_barrier_arrive(&mut self, p: usize, b: u32) {
        let n = self.num_procs;
        let bar = self.barriers.entry(b).or_insert_with(|| BarrierClock {
            gather: VectorClock::new(n),
            arrivals: 0,
            completed: VectorClock::new(n),
        });
        bar.gather.join(&self.clocks[p]);
        self.clocks[p].tick(p);
        bar.arrivals += 1;
        if bar.arrivals == n {
            bar.completed = std::mem::replace(&mut bar.gather, VectorClock::new(n));
            bar.arrivals = 0;
        }
    }

    /// Processor `p` departs barrier `b`: join the completed episode's
    /// clock — everything anyone did before arriving is now in `p`'s past.
    pub fn on_barrier_depart(&mut self, p: usize, b: u32) {
        if let Some(bar) = self.barriers.get(&b) {
            let completed = bar.completed.clone();
            self.clocks[p].join(&completed);
        }
    }

    /// Checkpoint the complete detector state as plain data (see
    /// [`RaceDetectorState`]). Tables flatten to listings sorted by key
    /// (words by address), so two captures of equal detectors are equal.
    pub fn save_state(&self) -> RaceDetectorState {
        RaceDetectorState {
            num_procs: self.num_procs,
            word_size: 1 << self.word_bits,
            clocks: self.clocks.iter().map(|c| c.components().to_vec()).collect(),
            refs: self.refs.clone(),
            locks: self
                .locks
                .iter()
                .map(|(&l, c)| (l, c.components().to_vec()))
                .collect(),
            barriers: self
                .barriers
                .iter()
                .map(|(&b, bar)| BarrierState {
                    id: b,
                    gather: bar.gather.components().to_vec(),
                    arrivals: bar.arrivals,
                    completed: bar.completed.components().to_vec(),
                })
                .collect(),
            words: self
                .words
                .iter()
                .map(|(w_num, w)| WordState {
                    addr: w_num << self.word_bits,
                    write: w.write.map(|(e, s)| (e.proc, e.clock, s)),
                    read: match &w.read {
                        ReadMeta::None => ReadState::None,
                        ReadMeta::Epoch(e, s) => ReadState::Epoch(e.proc, e.clock, *s),
                        ReadMeta::Vector(c, s) => ReadState::Vector(c.clone(), s.clone()),
                    },
                    racy: w.racy,
                })
                .collect(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuild a detector from a checkpoint taken by
    /// [`RaceDetector::save_state`]. Fails with a description when any
    /// vector length disagrees with `num_procs`, the word size is not a
    /// power of two, or a word address is not a multiple of it.
    ///
    /// The word table is indexed by word number, so the largest address
    /// sizes its index: a caller restoring untrusted input bounds the
    /// addresses first.
    pub fn from_state(st: RaceDetectorState) -> Result<RaceDetector, String> {
        let n = st.num_procs;
        let vc = |c: Vec<u64>, what: &str| -> Result<VectorClock, String> {
            if c.len() != n {
                return Err(format!("{what}: clock has {} components, expected {n}", c.len()));
            }
            Ok(VectorClock { c })
        };
        if st.clocks.len() != n || st.refs.len() != n {
            return Err(format!(
                "detector checkpoint shape mismatch: {} clocks / {} refs for {n} procs",
                st.clocks.len(),
                st.refs.len()
            ));
        }
        let word_size = st.word_size.max(1);
        if !word_size.is_power_of_two() {
            return Err(format!("word size {word_size} is not a power of two"));
        }
        if let Some(w) = st.words.iter().find(|w| w.addr % word_size != 0) {
            let addr = w.addr;
            return Err(format!("word {addr:#x} is not a multiple of the word size {word_size}"));
        }
        let mut d = RaceDetector::new(n, word_size);
        d.clocks = st
            .clocks
            .into_iter()
            .map(|c| vc(c, "processor clock"))
            .collect::<Result<_, _>>()?;
        d.refs = st.refs;
        d.locks = st
            .locks
            .into_iter()
            .map(|(l, c)| Ok((l, vc(c, "lock clock")?)))
            .collect::<Result<_, String>>()?;
        d.barriers = st
            .barriers
            .into_iter()
            .map(|b| {
                Ok((
                    b.id,
                    BarrierClock {
                        gather: vc(b.gather, "barrier gather clock")?,
                        arrivals: b.arrivals,
                        completed: vc(b.completed, "barrier episode clock")?,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        for w in st.words {
            let read = match w.read {
                ReadState::None => ReadMeta::None,
                ReadState::Epoch(proc, clock, s) => ReadMeta::Epoch(Epoch { proc, clock }, s),
                ReadState::Vector(c, s) => {
                    if c.len() != n || s.len() != n {
                        return Err(format!(
                            "word {:#x}: read vector has {} entries, expected {n}",
                            w.addr,
                            c.len()
                        ));
                    }
                    ReadMeta::Vector(c, s)
                }
            };
            let write = w.write.map(|(proc, clock, s)| (Epoch { proc, clock }, s));
            d.words.insert(w.addr >> d.word_bits, WordMeta { write, read, racy: w.racy });
        }
        d.stats = st.stats;
        Ok(d)
    }

    /// Fold the detector's state into a hasher (model-checker fingerprint
    /// support). Two machine states that differ only in detector state must
    /// not be merged by pruning, or races could go unreported on some
    /// interleavings. Every table iterates in key order (words by address),
    /// so equal detectors fold equal sequences.
    pub fn hash_into<H: Hasher>(&self, h: &mut H) {
        self.clocks.hash(h);
        self.refs.hash(h);
        for (l, c) in &self.locks {
            l.hash(h);
            c.hash(h);
        }
        for (b, bar) in &self.barriers {
            b.hash(h);
            bar.gather.hash(h);
            bar.arrivals.hash(h);
            bar.completed.hash(h);
        }
        for (w_num, w) in self.words.iter() {
            (w_num << self.word_bits).hash(h);
            w.racy.hash(h);
            if let Some((e, s)) = &w.write {
                e.proc.hash(h);
                e.clock.hash(h);
                s.ref_index.hash(h);
            }
            match &w.read {
                ReadMeta::None => 0u8.hash(h),
                ReadMeta::Epoch(e, _) => {
                    1u8.hash(h);
                    e.proc.hash(h);
                    e.clock.hash(h);
                }
                ReadMeta::Vector(c, _) => {
                    2u8.hash(h);
                    c.hash(h);
                }
            }
        }
        self.stats.races_found.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORD: u64 = 4;

    fn det(n: usize) -> RaceDetector {
        RaceDetector::new(n, WORD)
    }

    #[test]
    fn vector_clock_join_and_tick() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new(3);
        b.tick(1);
        a.join(&b);
        assert_eq!(a.components(), &[2, 1, 0]);
        assert_eq!(a.get(1), 1);
    }

    #[test]
    fn lock_handoff_is_race_free() {
        let mut d = det(2);
        // P0: acquire, write x, release. P1: acquire, read+write x, release.
        d.on_acquire(0, 0);
        d.on_write(0, 0x100);
        d.on_release(0, 0);
        d.on_acquire(1, 0);
        d.on_read(1, 0x100);
        d.on_write(1, 0x100);
        d.on_release(1, 0);
        assert!(d.race_free());
        assert_eq!(d.stats().words_monitored, 1);
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        d.on_write(1, 0x40);
        assert!(!d.race_free());
        let r = &d.stats().reports[0];
        assert_eq!(r.addr, 0x40);
        assert_eq!((r.prior.proc, r.prior.write), (0, true));
        assert_eq!((r.current.proc, r.current.write), (1, true));
    }

    #[test]
    fn unsynchronized_write_read_races() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        d.on_read(1, 0x40);
        assert_eq!(d.stats().races_found, 1);
        let r = &d.stats().reports[0];
        assert!(r.prior.write);
        assert!(!r.current.write);
    }

    #[test]
    fn concurrent_reads_do_not_race_but_promote() {
        let mut d = det(3);
        d.on_write(0, 0x40);
        d.on_release(0, 0);
        for p in [1, 2] {
            d.on_acquire(p, 0);
            d.on_read(p, 0x40);
        }
        assert!(d.race_free());
        assert_eq!(d.stats().vector_promotions, 1);
        // A later unordered write must race against one of the reads.
        d.on_write(0, 0x40);
        assert_eq!(d.stats().races_found, 1);
        let r = &d.stats().reports[0];
        assert_eq!(r.prior.proc, 1, "smallest concurrent reader is reported");
    }

    #[test]
    fn same_epoch_accesses_take_the_fast_path() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        d.on_write(0, 0x40);
        d.on_read(0, 0x80);
        d.on_read(0, 0x80);
        assert_eq!(d.stats().epoch_fast_hits, 2);
        assert!(d.race_free());
    }

    #[test]
    fn barrier_orders_phases() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        d.on_barrier_arrive(0, 0);
        d.on_barrier_arrive(1, 0);
        d.on_barrier_depart(0, 0);
        d.on_barrier_depart(1, 0);
        d.on_read(1, 0x40); // ordered by the barrier
        d.on_write(1, 0x40);
        assert!(d.race_free());
        // Next episode reuses the same barrier id without leaking edges.
        d.on_barrier_arrive(0, 0);
        d.on_barrier_arrive(1, 0);
        d.on_barrier_depart(0, 0);
        d.on_barrier_depart(1, 0);
        d.on_read(0, 0x40);
        assert!(d.race_free());
    }

    #[test]
    fn missing_barrier_races() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        d.on_read(1, 0x40); // no barrier between them
        assert!(!d.race_free());
    }

    #[test]
    fn only_first_race_per_word_is_reported() {
        let mut d = det(3);
        d.on_write(0, 0x40);
        d.on_write(1, 0x40);
        d.on_write(2, 0x40);
        assert_eq!(d.stats().races_found, 1);
        assert_eq!(d.stats().reports.len(), 1);
        // A second racy word is reported separately.
        d.on_write(0, 0x80);
        d.on_write(1, 0x80);
        assert_eq!(d.stats().races_found, 2);
    }

    #[test]
    fn distinct_locks_do_not_order() {
        let mut d = det(2);
        d.on_acquire(0, 0);
        d.on_write(0, 0x40);
        d.on_release(0, 0);
        d.on_acquire(1, 1); // different lock: no edge
        d.on_read(1, 0x40);
        d.on_release(1, 1);
        assert!(!d.race_free());
    }

    #[test]
    fn reports_are_deterministic_across_reruns() {
        let run = || {
            let mut d = det(4);
            for i in 0..32u64 {
                let p = (i % 4) as usize;
                d.on_write(p, 0x40 + (i % 8) * 4);
                if i % 4 == 3 {
                    d.on_release(p, 0);
                    d.on_acquire((p + 1) % 4, 0);
                }
            }
            d.take_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn word_granularity_groups_subword_bytes() {
        let mut d = det(2);
        d.on_write(0, 0x41); // same 4-byte word as 0x40
        d.on_read(1, 0x43);
        assert_eq!(d.stats().races_found, 1);
        assert_eq!(d.stats().words_monitored, 1);
        assert_eq!(d.stats().reports[0].addr, 0x40);
    }

    #[test]
    fn save_restore_round_trips_exactly() {
        let mut d = det(3);
        d.on_write(0, 0x40);
        d.on_release(0, 0);
        d.on_acquire(1, 0);
        d.on_read(1, 0x40);
        d.on_read(2, 0x40); // concurrent reader: promotes + races
        d.on_barrier_arrive(0, 1);
        let st = d.save_state();
        let d2 = RaceDetector::from_state(st.clone()).expect("restore");
        assert_eq!(d, d2);
        assert_eq!(d2.save_state(), st);
    }

    #[test]
    fn restore_rejects_malformed_shapes() {
        let mut d = det(2);
        d.on_write(0, 0x40);
        let mut st = d.save_state();
        st.clocks[0].push(9); // wrong component count
        assert!(RaceDetector::from_state(st).is_err());
        let mut st = d.save_state();
        st.refs.pop();
        assert!(RaceDetector::from_state(st).is_err());
        let mut st = d.save_state();
        st.word_size = 6;
        assert!(RaceDetector::from_state(st).is_err());
        let mut st = d.save_state();
        st.words[0].addr = 0x41; // off its word boundary
        assert!(RaceDetector::from_state(st).is_err());
    }

    /// Words list, compare and fold in address order whatever order they
    /// were first touched in, so a restored detector equals the live one.
    #[test]
    fn words_are_ordered_by_address_not_by_first_touch() {
        let (mut down, mut up) = (det(3), det(3));
        for (p, a) in [(0, 0x80), (1, 0x44), (2, 0x40)] {
            down.on_write(p, a);
        }
        for (p, a) in [(2, 0x40), (1, 0x44), (0, 0x80)] {
            up.on_write(p, a);
        }
        let addrs: Vec<u64> = down.save_state().words.iter().map(|w| w.addr).collect();
        assert_eq!(addrs, [0x40, 0x44, 0x80]);
        assert_eq!(down, up);
        assert_eq!(down.save_state(), up.save_state());
        let fp = |d: &RaceDetector| {
            let mut h = lrc_sim::FoldHasher::default();
            d.hash_into(&mut h);
            h.finish()
        };
        assert_eq!(fp(&down), fp(&up));
        assert_eq!(RaceDetector::from_state(down.save_state()).expect("restore"), up);
    }

    #[test]
    fn hash_reflects_detector_state() {
        use std::collections::hash_map::DefaultHasher;
        let fp = |d: &RaceDetector| {
            let mut h = DefaultHasher::new();
            d.hash_into(&mut h);
            h.finish()
        };
        let mut a = det(2);
        let mut b = det(2);
        assert_eq!(fp(&a), fp(&b));
        a.on_write(0, 0x40);
        assert_ne!(fp(&a), fp(&b), "word metadata must distinguish states");
        b.on_write(0, 0x40);
        assert_eq!(fp(&a), fp(&b));
        a.on_release(0, 0);
        assert_ne!(fp(&a), fp(&b), "lock clocks must distinguish states");
    }
}
