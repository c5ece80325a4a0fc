//! Deterministic discrete-event queue.
//!
//! Events fire in nondecreasing time order; events scheduled for the same
//! cycle fire in ascending **tie-key** order. The key is supplied by the
//! caller at push time and makes the queue's total order independent of
//! insertion order. The golden fingerprints pin that order, and a snapshot
//! restore that re-inserts a captured queue in its own order lands every
//! event at the position it held before the capture.
//!
//! # Two-tier calendar-queue implementation
//!
//! Simulation events are near-monotone: almost everything is scheduled
//! within a couple of hundred cycles of `now` (Table-1 latencies — memory,
//! network hops, the coalescing-buffer flush delay, the clock-skew quantum —
//! are all well under `HORIZON`, 512 cycles). Large queues exploit that
//! with a calendar of `HORIZON` one-cycle-wide buckets covering the window
//! `[window_lo, window_lo + HORIZON)`; an event at time `t` in the window
//! lives in bucket `t % HORIZON`. Because the bucket width is one cycle,
//! every bucket holds events of exactly one time value, so each bucket is
//! simply a key-sorted list. An occupancy bitmap (one bit per bucket) finds
//! the next non-empty bucket in a handful of word scans, and a pop slides
//! the window up to each fired time so the full horizon always extends
//! ahead of `now`.
//!
//! Every calendar event lives in one arena of nodes (key, link, event);
//! a bucket is the head and tail index of a singly linked list through it.
//! A push appends when the tail's key is at most its own, as about two
//! thirds of an LRC run's pushes do, and otherwise walks the list from the
//! head; equal keys stay in arrival order. A pop frees its node onto a
//! last-in-first-out free list, so the next push reuses it while it is
//! still in cache, and the queue allocates nothing once the arena has
//! reached the run's peak depth.
//!
//! The far-future event (beyond the window: a few percent of pushes, and
//! the link layer's retry timers) goes to an overflow rung, a `BTreeMap`
//! from time to that time's list, whose earliest time is cached. Window
//! invariants: every bucketed event's time is in
//! `[window_lo, window_lo + HORIZON)` and every overflow time is
//! `>= window_lo + HORIZON`, so all bucketed events fire before all
//! overflow events; sliding the window moves each newly-in-window overflow
//! list, whole, into its (necessarily empty) bucket.
//!
//! Queues that never grow past `TINY_MAX` (64) pending events — the model
//! checker's scenario machines, unit-test scripts — instead stay on a flat
//! bottom tier: one (time, key)-sorted deque. That keeps `Machine::clone`
//! (which the checker performs for nearly every child it explores) a
//! single small memcpy instead of a 512-bucket traversal. The first push
//! that would exceed `TINY_MAX` promotes the queue to the calendar for the
//! rest of its life.
//!
//! Both tiers list their pending entries through one in-place walk
//! ([`EventQueue::iter_pending`], and the collected
//! [`EventQueue::pending_times`] and [`EventQueue::pending_entries`]),
//! which the checker's state fingerprint folds without allocating.

use crate::types::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// Width of the calendar window in cycles (and number of buckets). A power
/// of two so `time % HORIZON` is a mask. Must comfortably exceed the
/// machine's largest routine scheduling delay (~200 cycles: the clock-skew
/// quantum) so the overflow rung stays cold.
const HORIZON: usize = 512;
const MASK: u64 = HORIZON as u64 - 1;
const WORDS: usize = HORIZON / 64;

/// Queues at or below this many pending events use the flat bottom tier.
const TINY_MAX: usize = 64;

/// One arena slot: a pending event and the link to the next node of its
/// list, or a freed slot (`ev` is `None`) linked into the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    key: u64,
    next: u32,
    ev: Option<E>,
}

/// A key-sorted singly linked list of arena nodes, equal keys in arrival
/// order. `u32::MAX` links nowhere: an empty list has it as head and tail.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    fn empty() -> Self {
        List { head: u32::MAX, tail: u32::MAX }
    }

    fn is_empty(self) -> bool {
        self.head == u32::MAX
    }
}

/// Calendar tier: the bucketed window plus the far-future overflow rung,
/// both holding lists of nodes in one arena.
#[derive(Debug, Clone)]
struct Calendar<E> {
    /// Every pending event's node, plus freed slots awaiting reuse.
    nodes: Vec<Node<E>>,
    /// Head of the last-in-first-out list of freed slots.
    free: u32,
    /// `buckets[t % HORIZON]` lists the events at window time `t`.
    buckets: Vec<List>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Low edge of the calendar window; never decreases.
    window_lo: Cycle,
    /// Far-future rung: time -> the events at that time.
    overflow: BTreeMap<Cycle, List>,
    /// The overflow rung's earliest time (`Cycle::MAX` when it is empty).
    next_overflow: Cycle,
}

impl<E> Calendar<E> {
    fn new(window_lo: Cycle) -> Self {
        Calendar {
            nodes: Vec::new(),
            free: u32::MAX,
            buckets: vec![List::empty(); HORIZON],
            occupied: [0; WORDS],
            window_lo,
            overflow: BTreeMap::new(),
            next_overflow: Cycle::MAX,
        }
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// The unique window time stored in bucket `idx`.
    #[inline]
    fn bucket_time(&self, idx: usize) -> Cycle {
        self.window_lo + ((idx as u64).wrapping_sub(self.window_lo) & MASK)
    }

    /// Index of the earliest non-empty bucket (circular bitmap scan starting
    /// at the window's low edge), or `None` if all buckets are empty.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        let start = (self.window_lo & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let head = self.occupied[sw] & (!0u64 << sb);
        if head != 0 {
            return Some(sw * 64 + head.trailing_zeros() as usize);
        }
        for k in 1..WORDS {
            let wi = (sw + k) % WORDS;
            if self.occupied[wi] != 0 {
                return Some(wi * 64 + self.occupied[wi].trailing_zeros() as usize);
            }
        }
        let tail = self.occupied[sw] & !(!0u64 << sb);
        if tail != 0 {
            return Some(sw * 64 + tail.trailing_zeros() as usize);
        }
        None
    }

    /// Indices of all non-empty buckets in increasing-time order: the
    /// window-edge word's bits at and above the edge, the other words in
    /// circular order, then the edge word's bits below the edge.
    fn occupied_buckets(&self) -> impl Iterator<Item = usize> + '_ {
        let start = (self.window_lo & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let words = std::iter::once((sw, self.occupied[sw] & (!0u64 << sb)))
            .chain((1..WORDS).map(move |k| ((sw + k) % WORDS, self.occupied[(sw + k) % WORDS])))
            .chain(std::iter::once((sw, self.occupied[sw] & !(!0u64 << sb))));
        words.flat_map(|(wi, mut word)| {
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
                word &= word - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// The nodes of `list`, head to tail.
    fn walk(&self, list: List) -> impl Iterator<Item = &Node<E>> + '_ {
        let mut at = list.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node)
        })
    }

    /// Every pending `(time, key, event)`, in (time, key) order.
    fn entries(&self) -> impl Iterator<Item = (Cycle, u64, &E)> + '_ {
        let window = self.occupied_buckets().map(|idx| (self.bucket_time(idx), self.buckets[idx]));
        let lists = window.chain(self.overflow.iter().map(|(&t, &list)| (t, list)));
        lists.flat_map(move |(t, list)| {
            self.walk(list).map(move |n| (t, n.key, n.ev.as_ref().expect("listed node is live")))
        })
    }

    /// Earliest pending time (`Cycle::MAX` when the calendar is empty).
    fn min_time(&self) -> Cycle {
        self.first_bucket().map_or(self.next_overflow, |idx| self.bucket_time(idx))
    }

    /// Slide the window's low edge up to `t` (the caller guarantees every
    /// pending event's time is `>= t`) and move each overflow list that the
    /// move brings inside the horizon, whole, into its (necessarily empty)
    /// bucket.
    fn advance_window(&mut self, t: Cycle) {
        debug_assert!(t >= self.window_lo);
        self.window_lo = t;
        while self.next_overflow < t + HORIZON as Cycle {
            let (time, list) = self.overflow.pop_first().expect("cached time is pending");
            let idx = (time & MASK) as usize;
            debug_assert!(self.buckets[idx].is_empty(), "bucket collision at t={time}");
            self.buckets[idx] = list;
            self.mark(idx);
            self.recache_next_overflow();
        }
    }

    fn recache_next_overflow(&mut self) {
        self.next_overflow = self.overflow.first_key_value().map_or(Cycle::MAX, |(&t, _)| t);
    }

    /// Insert `event` at `(time, key)` (`time >= window_lo` — the queue
    /// clamps to `now` first, and `now` never trails the window). The node
    /// reuses the slot the last pop freed, and joins its list at the tail
    /// unless the tail's key is larger.
    fn insert(&mut self, time: Cycle, key: u64, event: E) {
        let node = Node { key, next: u32::MAX, ev: Some(event) };
        let at = if let Some(slot) = self.nodes.get_mut(self.free as usize) {
            let at = self.free;
            self.free = slot.next;
            *slot = node;
            at
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        let list = if time < self.window_lo + HORIZON as Cycle {
            let idx = (time & MASK) as usize;
            self.mark(idx);
            &mut self.buckets[idx]
        } else {
            self.next_overflow = self.next_overflow.min(time);
            self.overflow.entry(time).or_insert(List::empty())
        };
        let nodes = &mut self.nodes;
        if list.is_empty() {
            *list = List { head: at, tail: at };
        } else if nodes[list.tail as usize].key <= key {
            nodes[list.tail as usize].next = at;
            list.tail = at;
        } else {
            // The tail's key is larger, so the walk stops before the tail.
            let (mut prev, mut cur) = (u32::MAX, list.head);
            while nodes[cur as usize].key <= key {
                (prev, cur) = (cur, nodes[cur as usize].next);
            }
            nodes[at as usize].next = cur;
            match nodes.get_mut(prev as usize) {
                Some(p) => p.next = at,
                None => list.head = at,
            }
        }
    }

    /// Unlink the `pos`-th node of the list at time `t` (`pos` in range),
    /// free its slot and return its event.
    fn remove(&mut self, t: Cycle, pos: usize) -> E {
        let in_window = t < self.window_lo + HORIZON as Cycle;
        let idx = (t & MASK) as usize;
        let list = if in_window {
            &mut self.buckets[idx]
        } else {
            self.overflow.get_mut(&t).expect("overflow list exists")
        };
        let nodes = &mut self.nodes;
        let (mut prev, mut at) = (u32::MAX, list.head);
        for _ in 0..pos {
            (prev, at) = (at, nodes[at as usize].next);
        }
        let next = nodes[at as usize].next;
        match nodes.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => list.head = next,
        }
        if list.tail == at {
            list.tail = prev;
        }
        if list.is_empty() {
            if in_window {
                self.unmark(idx);
            } else {
                self.overflow.remove(&t);
                self.recache_next_overflow();
            }
        }
        let slot = &mut self.nodes[at as usize];
        slot.next = self.free;
        self.free = at;
        slot.ev.take().expect("listed node is live")
    }

    /// Remove the earliest event if its time is below `limit`, sliding the
    /// window to that time.
    #[inline]
    fn pop_before(&mut self, limit: Cycle) -> Option<(Cycle, E)> {
        let t = self.min_time();
        if t >= limit {
            return None;
        }
        self.advance_window(t);
        Some((t, self.remove(t, 0)))
    }

    /// Remove the `n`-th event in (time, key) order (`n` in range).
    fn remove_nth(&mut self, n: usize) -> (Cycle, E) {
        let (t, ..) = self.entries().nth(n).expect("pop_nth index in range");
        let before = self.entries().take_while(|&(u, ..)| u < t).count();
        (t, self.remove(t, n - before))
    }
}

/// Storage tier: flat sorted vec for small queues, calendar for large ones.
#[derive(Debug, Clone)]
enum Tier<E> {
    /// (time, key)-sorted flat storage. A deque so the hot `pop` is O(1)
    /// at the front while pushes (almost always near the back, times being
    /// near-monotone) shift only the short side.
    Tiny(VecDeque<(Cycle, u64, E)>),
    Calendar(Calendar<E>),
}

/// A (time, tie-key)-ordered event queue.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    tier: Tier<E>,
    len: usize,
    peak_len: usize,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue { tier: Tier::Tiny(VecDeque::new()), len: 0, peak_len: 0, now: 0 }
    }

    /// Current simulated time: the firing time of the most recently popped
    /// event (0 before any pop).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Move a queue that outgrew the bottom tier onto the calendar,
    /// preserving (time, key) order: the tiny vec is already sorted, so
    /// appending front-to-back lands each same-time run in its bucket in
    /// key order.
    fn promote(&mut self) {
        let Tier::Tiny(flat) = &mut self.tier else { return };
        let flat = std::mem::take(flat);
        // Pending events may sit before `now` (fired "late" after an
        // out-of-order pop_nth); the window must start at the earliest.
        let window_lo = flat.front().map_or(self.now, |&(t, ..)| t.min(self.now));
        let mut cal = Calendar::new(window_lo);
        for (t, k, ev) in flat {
            cal.insert(t, k, ev);
        }
        self.tier = Tier::Calendar(cal);
    }

    /// Schedule `event` to fire at absolute time `time`, ordered among
    /// same-cycle events by ascending `key`. The caller owns key
    /// assignment; keys must be deterministic for reproducible runs (the
    /// machine derives them from the scheduling node and a per-node
    /// counter, which makes the total order insertion-order independent).
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// release builds clamp to `now` so a small modelling slip degrades
    /// accuracy rather than ordering.
    pub fn push(&mut self, time: Cycle, key: u64, event: E) {
        debug_assert!(time >= self.now, "event scheduled in the past: {} < {}", time, self.now);
        let time = time.max(self.now);
        if matches!(&self.tier, Tier::Tiny(_)) && self.len >= TINY_MAX {
            self.promote();
        }
        match &mut self.tier {
            Tier::Tiny(flat) => {
                // Times are near-monotone, so the insertion point is almost
                // always at (or a step from) the back — a backward linear
                // scan beats binary search here. Strict `>` keeps insertion
                // order for equal (time, key) pairs.
                let mut at = flat.len();
                while at > 0 && (flat[at - 1].0, flat[at - 1].1) > (time, key) {
                    at -= 1;
                }
                flat.insert(at, (time, key, event));
            }
            Tier::Calendar(cal) => cal.insert(time, key, event),
        }
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// Schedule `event` to fire `delay` cycles from now.
    pub fn push_after(&mut self, delay: Cycle, key: u64, event: E) {
        self.push(self.now + delay, key, event);
    }

    /// Remove and return the earliest event, advancing `now`.
    ///
    /// `now` never moves backwards: if [`EventQueue::pop_nth`] already
    /// advanced past this event's scheduled time, the event fires "late" at
    /// the current time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_before(Cycle::MAX)
    }

    /// [`EventQueue::pop`], but only if the earliest event's scheduled
    /// time is below `limit`; otherwise the queue is left as it is. One
    /// scan both finds the earliest event and removes it.
    #[inline]
    pub fn pop_before(&mut self, limit: Cycle) -> Option<(Cycle, E)> {
        let (t, ev) = match &mut self.tier {
            Tier::Tiny(flat) => {
                if flat.front()?.0 >= limit {
                    return None;
                }
                let (t, _, ev) = flat.pop_front()?;
                (t, ev)
            }
            Tier::Calendar(cal) => cal.pop_before(limit)?,
        };
        self.len -= 1;
        self.now = self.now.max(t);
        Some((self.now, ev))
    }

    /// Remove and return the `n`-th pending event in (time, key) order —
    /// the model checker's choice-point hook. `pop_nth(0)` is
    /// [`EventQueue::pop`]; larger `n` fires a later-scheduled event first,
    /// exploring an alternative interleaving of in-flight activity.
    ///
    /// Advances `now` to the fired event's time if that is later than the
    /// current time (time is monotone even under out-of-order firing).
    /// Returns `None` when fewer than `n + 1` events are pending.
    ///
    /// Cost: O(n) on both tiers (the calendar walks its lists up to the
    /// event, then splices it out of its own).
    pub fn pop_nth(&mut self, n: usize) -> Option<(Cycle, E)> {
        if n >= self.len {
            return None;
        }
        if n == 0 {
            return self.pop();
        }
        let (t, ev) = match &mut self.tier {
            Tier::Tiny(flat) => {
                let (t, _, ev) = flat.remove(n).expect("index checked");
                (t, ev)
            }
            Tier::Calendar(cal) => {
                // Keep the window hugging the earliest pending event so
                // overflow migration stays amortized even when firing
                // out of order.
                cal.advance_window(cal.min_time());
                cal.remove_nth(n)
            }
        };
        self.len -= 1;
        self.now = self.now.max(t);
        Some((self.now, ev))
    }

    /// Every pending `(time, key, event)` in (time, key) order, walked in
    /// place: the flat tier front to back, or the calendar's occupied
    /// buckets in window order and then its overflow rung.
    fn entries(&self) -> impl Iterator<Item = (Cycle, u64, &E)> + '_ {
        let (flat, cal) = match &self.tier {
            Tier::Tiny(flat) => (Some(flat), None),
            Tier::Calendar(cal) => (None, Some(cal)),
        };
        let flat = flat.into_iter().flatten().map(|(t, k, ev)| (*t, *k, ev));
        flat.chain(cal.into_iter().flat_map(Calendar::entries))
    }

    /// Scheduled firing times of every pending event, in (time, key)
    /// order — index `i` here is the `n` accepted by
    /// [`EventQueue::pop_nth`]. Cost is O(len) (plus an O(HORIZON/64)
    /// bitmap scan on the calendar tier).
    pub fn pending_times(&self) -> Vec<Cycle> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.entries().map(|(t, ..)| t));
        out
    }

    /// Every pending event payload, in (time, key) order — item `i` is the
    /// event [`EventQueue::pop_nth`]`(i)` fires. The walk is in place and
    /// allocates nothing, so the model checker folds it into every state
    /// fingerprint. Cost matches [`EventQueue::pending_times`].
    pub fn iter_pending(&self) -> impl Iterator<Item = &E> + '_ {
        self.entries().map(|(.., ev)| ev)
    }

    /// Every pending entry as `(time, key, event)`, in (time, key) order —
    /// the full pending state, tie keys included, for checkpointing. A
    /// queue rebuilt from this listing via [`EventQueue::from_entries`]
    /// pops identically to this one.
    pub fn pending_entries(&self) -> Vec<(Cycle, u64, &E)> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.entries());
        out
    }

    /// Rebuild a queue from a checkpoint: the pending entries (any order),
    /// the simulated time, and the lifetime high-water mark. The restored
    /// queue pops the same (time, key, event) sequence the checkpointed
    /// queue would have.
    pub fn from_entries(entries: Vec<(Cycle, u64, E)>, now: Cycle, peak_len: usize) -> Self {
        let mut q = EventQueue::new();
        // Push against now = 0 so no entry is clamped, then pin the clock
        // and the high-water mark to their checkpointed values.
        for (t, k, ev) in entries {
            q.push(t, k, ev);
        }
        q.now = now;
        q.peak_len = peak_len;
        q
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// cheap in-situ observability for performance work.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Force a queue onto the calendar tier regardless of its size, so the
    /// small-queue tests below can exercise both representations.
    fn promoted<E>(mut q: EventQueue<E>) -> EventQueue<E> {
        q.promote();
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 0, "c");
        q.push(10, 1, "a");
        q.push(20, 2, "b");
        for q in [&mut promoted(q.clone()), &mut q] {
            assert_eq!(q.pop(), Some((10, "a")));
            assert_eq!(q.pop(), Some((20, "b")));
            assert_eq!(q.pop(), Some((30, "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn same_time_key_order_is_insertion_independent() {
        // The same set of (time, key) pairs pushed in two different orders
        // pops identically — what a snapshot restore relies on.
        // 100 same-cycle events also crosses TINY_MAX, covering the
        // mid-stream promotion path splitting one run across tiers.
        let mut fwd = EventQueue::new();
        for i in 0..100u64 {
            fwd.push(5, i, i);
        }
        let mut rev = EventQueue::new();
        for i in (0..100u64).rev() {
            rev.push(5, i, i);
        }
        assert!(matches!(fwd.tier, Tier::Calendar(_)));
        for q in [&mut fwd, &mut rev] {
            for i in 0..100 {
                assert_eq!(q.pop(), Some((5, i)));
            }
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(7, 0, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.push_after(3, 0, ());
        assert_eq!(q.pop(), Some((10, ())));
    }

    #[test]
    fn far_future_events_take_the_overflow_rung() {
        let mut q = promoted(EventQueue::new());
        // Straddle the horizon in both directions, including exact-boundary
        // times and key ordering within the overflow rung.
        q.push(HORIZON as Cycle * 10, 7, "far-c");
        q.push(3, 0, "near");
        q.push(HORIZON as Cycle * 10, 2, "far-b");
        q.push(HORIZON as Cycle - 1, 0, "edge-in");
        q.push(HORIZON as Cycle, 0, "edge-out");
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((HORIZON as Cycle - 1, "edge-in")));
        assert_eq!(q.pop(), Some((HORIZON as Cycle, "edge-out")));
        assert_eq!(q.pop(), Some((HORIZON as Cycle * 10, "far-b")));
        assert_eq!(q.pop(), Some((HORIZON as Cycle * 10, "far-c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_wraps_across_many_horizons() {
        // A self-rescheduling timer marches the window through dozens of
        // wraps; interleave short and long hops to stress migration.
        let mut q = promoted(EventQueue::new());
        let mut t = 0;
        q.push(0, 0, 0u64);
        for i in 1..200u64 {
            let (fired, _) = q.pop().expect("timer pending");
            assert_eq!(fired, t);
            let hop = if i % 3 == 0 { HORIZON as Cycle + 37 } else { 17 };
            t = fired + hop;
            q.push(t, i, i);
        }
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_nth_orders_and_is_monotone() {
        let mut q = EventQueue::new();
        q.push(10, 0, "a");
        q.push(10, 1, "b");
        q.push(2000, 0, "z"); // overflow rung once promoted
        q.push(20, 0, "c");
        for q in [&mut promoted(q.clone()), &mut q] {
            // Pending order: a(10,0), b(10,1), c(20), z(2000).
            assert_eq!(q.pending_times(), vec![10, 10, 20, 2000]);
            assert_eq!(q.pop_nth(3), Some((2000, "z")));
            // Remaining events fire "late" at the advanced time.
            assert_eq!(q.pop_nth(1), Some((2000, "b")));
            assert_eq!(q.pop(), Some((2000, "a")));
            assert_eq!(q.pop(), Some((2000, "c")));
            assert_eq!(q.pop_nth(0), None);
        }
    }

    #[test]
    fn small_queues_stay_on_the_flat_tier() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..8 {
                q.push(round * 100 + i, i, i);
            }
            for _ in 0..8 {
                q.pop();
            }
        }
        // Never exceeded TINY_MAX pending events, so no calendar was built
        // (keeps clone-heavy users like the model checker cheap).
        assert!(matches!(q.tier, Tier::Tiny(_)));
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 8);
    }

    #[test]
    fn promotion_preserves_order_and_recycles_buckets() {
        let mut q = EventQueue::new();
        for i in 0..(TINY_MAX as u64 + 40) {
            q.push(i / 3, i, i); // runs of 3 same-time events
        }
        assert!(matches!(q.tier, Tier::Calendar(_)));
        let mut expect = 0;
        while let Some((t, v)) = q.pop() {
            assert_eq!((t, v), (expect / 3, expect));
            expect += 1;
        }
        assert_eq!(expect, TINY_MAX as u64 + 40);
        let Tier::Calendar(cal) = &q.tier else { panic!("still calendar") };
        assert_eq!(cal.buckets.len(), HORIZON);
        assert!(cal.overflow.is_empty());
    }

    #[test]
    fn pop_before_pops_only_below_its_limit() {
        let mut q = EventQueue::new();
        q.push(42, 0, 1);
        q.push(41, 0, 2);
        q.push(2000, 0, 3); // overflow rung once promoted
        for q in [&mut promoted(q.clone()), &mut q] {
            assert_eq!(q.pop_before(41), None);
            assert_eq!(q.pop_before(42), Some((41, 2)));
            assert_eq!(q.pop_before(42), None);
            assert_eq!(q.pop_before(43), Some((42, 1)));
            assert_eq!(q.pop_before(2000), None);
            assert_eq!((q.len(), q.now()), (1, 42));
            assert_eq!(q.pop_before(Cycle::MAX), Some((2000, 3)));
            assert_eq!(q.pop_before(Cycle::MAX), None);
        }
    }

    #[test]
    fn a_list_whose_tail_was_removed_appends_after_the_new_tail() {
        let mut q = promoted(EventQueue::new());
        for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
            q.push(7, k, v);
            q.push(900, k, v); // the same run on the overflow rung
        }
        assert_eq!(q.pop_nth(5), Some((900, "c")));
        assert_eq!(q.pop_nth(2), Some((900, "c")));
        q.push(900, 3, "d");
        q.push(900, 2, "e");
        let Tier::Calendar(cal) = &q.tier else { panic!("still calendar") };
        assert_eq!(cal.free, u32::MAX, "both freed slots were reused");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, [(900, "a"), (900, "b"), (900, "a"), (900, "b"), (900, "e"), (900, "d")]);
    }

    #[test]
    fn pending_listings_agree_with_pop_order() {
        let mut q = EventQueue::new();
        for (t, k, v) in [(600, 1, 0), (5, 9, 1), (5, 10, 2), (90, 0, 3), (600, 0, 4), (1300, 0, 5)]
        {
            q.push(t, k, v);
        }
        for q in [&mut promoted(q.clone()), &mut q] {
            assert_eq!(q.pending_times(), vec![5, 5, 90, 600, 600, 1300]);
            assert_eq!(q.iter_pending().collect::<Vec<_>>(), vec![&1, &2, &3, &4, &0, &5]);
            let mut popped = Vec::new();
            while let Some((_, v)) = q.pop() {
                popped.push(v);
            }
            assert_eq!(popped, vec![1, 2, 3, 4, 0, 5]);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(10, 0, ());
        q.pop();
        q.push(5, 0, ());
    }
}
