//! Randomized property tests for the simulation kernel, driven by the
//! crate's own deterministic PRNG (the workspace builds offline, so no
//! external property-testing framework is used).

use lrc_sim::{EventQueue, LineAddr, MachineConfig, Rng};

#[test]
fn event_queue_is_time_ordered() {
    let mut rng = Rng::new(0x5eed_0001);
    for _ in 0..50 {
        let n = 1 + rng.below(300) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(rng.below(1000), i as u64, i);
        }
        let mut last_t = 0;
        let mut seen_at_t: Vec<usize> = Vec::new();
        while let Some((t, i)) = q.pop() {
            assert!(t >= last_t);
            if t != last_t {
                seen_at_t.clear();
                last_t = t;
            }
            // Key order within a timestamp: indices (= keys) increase.
            if let Some(&prev) = seen_at_t.last() {
                assert!(i > prev);
            }
            seen_at_t.push(i);
        }
    }
}

#[test]
fn pop_nth_fires_any_pending_event_and_keeps_time_monotone() {
    let mut rng = Rng::new(0x5eed_0002);
    for _ in 0..50 {
        let n = 1 + rng.below(40) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(rng.below(100), i as u64, i);
        }
        let mut remaining = n;
        let mut last_now = 0;
        while remaining > 0 {
            let pending = q.pending_times();
            assert_eq!(pending.len(), remaining);
            let pick = rng.below(remaining as u64) as usize;
            let (t, _) = q.pop_nth(pick).expect("index in range");
            // Effective firing time is monotone even when events fire out
            // of schedule order, and never before the event's schedule.
            assert!(t >= last_now);
            assert!(t >= pending[pick]);
            assert_eq!(q.now(), t);
            last_now = t;
            remaining -= 1;
        }
        assert!(q.pop_nth(0).is_none());
    }
}

#[test]
fn line_addr_roundtrip() {
    let mut rng = Rng::new(0x5eed_0003);
    for _ in 0..500 {
        let addr = rng.below(1_000_000);
        let shift = 5 + rng.below(4) as u32;
        let line_size = 1usize << shift;
        let line = LineAddr::containing(addr, line_size);
        assert!(line.base(line_size) <= addr);
        assert!(addr < line.base(line_size) + line_size as u64);
        let w = line.word_index(addr, line_size, 4);
        assert!(w < line_size / 4);
    }
}

#[test]
fn placement_is_total() {
    let mut rng = Rng::new(0x5eed_0004);
    for _ in 0..500 {
        let addr = rng.below(100_000_000);
        let procs = 1 + rng.below(64) as usize;
        let cfg = MachineConfig::paper_default(procs);
        assert!(cfg.home_of(addr) < procs);
    }
}

#[test]
fn rng_below_is_bounded() {
    let mut seeds = Rng::new(0x5eed_0005);
    for _ in 0..100 {
        let mut r = Rng::new(seeds.next_u64());
        let n = 1 + seeds.below(10_000);
        for _ in 0..50 {
            assert!(r.below(n) < n);
        }
    }
}

/// Reference event queue: a plain binary heap over `(time, key, seq)` —
/// the caller's tie key first, a global insertion counter to keep equal
/// keys stable — plus the same `now` clamp/advance rules as the real
/// queue. Obviously correct, O(log n) everywhere — the oracle the
/// calendar implementation must match.
struct RefQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u64, u32)>>,
    seq: u64,
    now: u64,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue { heap: std::collections::BinaryHeap::new(), seq: 0, now: 0 }
    }

    fn push(&mut self, time: u64, key: u64, payload: u32) {
        let time = time.max(self.now);
        self.heap.push(std::cmp::Reverse((time, key, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let std::cmp::Reverse((t, _, _, v)) = self.heap.pop()?;
        self.now = self.now.max(t);
        Some((self.now, v))
    }

    /// The `n`-th event in (time, key) order: pop `n + 1`, reinsert the
    /// first `n`.
    fn pop_nth(&mut self, n: usize) -> Option<(u64, u32)> {
        if n >= self.heap.len() {
            return None;
        }
        let mut skipped = Vec::with_capacity(n);
        for _ in 0..n {
            skipped.push(self.heap.pop().expect("length checked"));
        }
        let std::cmp::Reverse((t, _, _, v)) = self.heap.pop().expect("length checked");
        for e in skipped {
            self.heap.push(e);
        }
        self.now = self.now.max(t);
        Some((self.now, v))
    }

    fn pending_times(&self) -> Vec<u64> {
        let mut all: Vec<(u64, u64, u64)> =
            self.heap.iter().map(|&std::cmp::Reverse((t, k, s, _))| (t, k, s)).collect();
        all.sort_unstable();
        all.into_iter().map(|(t, ..)| t).collect()
    }

    /// The scheduled time of the earliest event.
    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&std::cmp::Reverse((t, ..))| t)
    }

    fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }
}

/// The two-tier calendar queue is observationally equivalent to the
/// reference binary heap under random interleavings of push / pop /
/// pop_nth, including same-cycle FIFO ties, the far-future overflow rung,
/// and the tiny-to-calendar promotion boundary.
#[test]
fn event_queue_matches_binary_heap_reference() {
    let mut rng = Rng::new(0x5eed_0006);
    for case in 0..60 {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r = RefQueue::new();
        // Small cases stay on the flat tier; large ones promote mid-stream.
        let ops = if case % 2 == 0 { 80 } else { 600 };
        let mut next_payload = 0u32;
        for _ in 0..ops {
            match rng.below(100) {
                // Push: mostly near-future (the simulator's regime), with
                // occasional same-cycle ties and far-future outliers that
                // must take the calendar's overflow rung.
                0..=59 => {
                    let t = match rng.below(10) {
                        0 => q.now(),                    // same-cycle tie
                        1 => q.now() + 2_000 + rng.below(3_000), // overflow
                        _ => q.now() + rng.below(400),
                    };
                    // Random keys: same-cycle order must follow the key,
                    // not insertion order (equal keys stay stable).
                    let k = rng.below(8);
                    q.push(t, k, next_payload);
                    r.push(t, k, next_payload);
                    next_payload += 1;
                }
                60..=84 => {
                    assert_eq!(q.pop(), r.pop());
                    assert_eq!(q.now(), r.now);
                }
                85..=94 => {
                    let n = rng.below(1 + q.len() as u64 + 2) as usize;
                    assert_eq!(q.pop_nth(n), r.pop_nth(n));
                    assert_eq!(q.now(), r.now);
                }
                _ => {
                    assert_eq!(q.len(), r.heap.len());
                    assert_eq!(q.pending_times(), r.pending_times());
                }
            }
        }
        // Drain both to empty, comparing every remaining event.
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Drive the queue and the reference through `ops` seeded steps shaped
/// like a simulation's pushes: per-node tie keys that mostly rise, a
/// pending depth that wanders between 50 and 5,000, and delays drawn from
/// the measured mix (a few percent same-cycle; about 10% past the
/// 512-cycle horizon, half of those 4,096-16,383 cycles ahead like the link
/// layer's retry timers). Rarer steps pop below a limit at, under and over
/// the next event's time, push bursts of 100-300 events at one time with
/// repeated keys inside the window and past the horizon, `pop_nth` the
/// last event of a time and append to that time, and rebuild the queue
/// with `from_entries` from a shuffled `pending_entries` listing.
fn arena_matches_reference(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut r = RefQueue::new();
    let mut counters = [0u64; 64];
    let mut next_payload = 0u32;
    let mut target = 60;
    let mut push = |q: &mut EventQueue<u32>, r: &mut RefQueue, t: u64, k: u64| {
        q.push(t, k, next_payload);
        r.push(t, k, next_payload);
        next_payload += 1;
    };
    for step in 0..ops {
        if step % 10_000 == 0 {
            target = 50 + rng.below(4_951) as usize;
        }
        let roll = rng.below(10_000);
        if roll < 4 {
            // A burst at one time, in the window or past the horizon.
            let t = q.now() + if roll < 2 { rng.below(400) } else { 600 + rng.below(15_000) };
            for _ in 0..100 + rng.below(201) {
                push(&mut q, &mut r, t, rng.below(8));
            }
        } else if roll < 84 {
            let next = r.peek_time().unwrap_or(0);
            let limit = match rng.below(3) {
                0 => next,
                1 => next.saturating_sub(1 + rng.below(50)),
                _ => next + 1 + rng.below(50),
            };
            assert_eq!(q.pop_before(limit), r.pop_before(limit), "step {step}");
        } else if roll < 124 && !q.is_empty() {
            // Remove the last event of some pending time, then append there.
            let times = q.pending_times();
            let t = times[rng.below(times.len() as u64) as usize];
            let last = times.iter().rposition(|&u| u == t).expect("t is pending");
            assert_eq!(q.pop_nth(last), r.pop_nth(last), "step {step}");
            let t = t.max(q.now());
            push(&mut q, &mut r, t, rng.below(8));
        } else if roll < 134 {
            let mut listing: Vec<(u64, u64, u32)> =
                q.pending_entries().into_iter().map(|(t, k, &v)| (t, k, v)).collect();
            assert_eq!(listing.iter().map(|e| e.0).collect::<Vec<_>>(), r.pending_times());
            // Shuffle, then give each (time, key) group its arrival order
            // back: only the order of distinct (time, key) pairs is free.
            let mut groups = std::collections::BTreeMap::<(u64, u64), Vec<u32>>::new();
            for &(t, k, v) in listing.iter().rev() {
                groups.entry((t, k)).or_default().push(v);
            }
            for i in (1..listing.len()).rev() {
                listing.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for e in &mut listing {
                e.2 = groups.get_mut(&(e.0, e.1)).and_then(Vec::pop).expect("group entry");
            }
            q = EventQueue::from_entries(listing, q.now(), q.peak_len());
        } else if roll < if q.len() < target { 6_500 } else { 4_500 } {
            let delay = match rng.below(100) {
                0..=3 => 0,
                4..=89 => {
                    // Short delays are the common ones.
                    let cap = 1 + rng.below(400);
                    rng.below(cap)
                }
                90..=94 => 512 + rng.below(3_584),
                _ => 4_096 + rng.below(12_288),
            };
            let node = rng.below(64) as usize;
            // Keys mostly rise per node; now and then one repeats.
            counters[node] += u64::from(rng.below(8) != 0);
            let t = q.now() + delay;
            push(&mut q, &mut r, t, (node as u64) << 48 | counters[node]);
        } else {
            assert_eq!(q.pop(), r.pop(), "step {step}");
        }
        assert_eq!((q.len(), q.now()), (r.heap.len(), r.now), "step {step}");
    }
    // The depth wandered well past the flat tier.
    assert!(q.peak_len() > 1_000, "peak {}", q.peak_len());
    while let Some(ev) = r.pop() {
        assert_eq!(q.pop(), Some(ev));
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn event_queue_matches_reference_under_bursts_limits_and_rebuilds() {
    for seed in 0..8 {
        arena_matches_reference(0x5eed_0007 + seed, 20_000);
    }
}

/// The long sweep: `cargo test --release -p lrc-sim --test props -- --ignored`.
#[test]
#[ignore]
fn event_queue_long_sweep_matches_reference() {
    for seed in 0..4 {
        arena_matches_reference(0x5eed_1000 + seed, 300_000);
    }
}
