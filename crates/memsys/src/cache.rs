//! Finite-size cache model with per-line local state and per-word dirty
//! masks.
//!
//! The paper distinguishes the *global* state kept by the directory
//! (Uncached/Shared/Dirty/Weak) from the *local* state of each cached copy,
//! which only records the access permission: invalid, read-only, or
//! read-write. This module models the local side. Per-word dirty bits
//! support the lazy protocols' write-through merging and let write-backs
//! carry only the modified words.

use lrc_sim::lrc_json::json_struct;
use lrc_sim::{LineAddr, MachineConfig};

/// Local access permission of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Not present (or invalidated).
    Invalid,
    /// Present; reads hit, writes need (at least) a protocol action.
    ReadOnly,
    /// Present and writable by the local processor.
    ReadWrite,
}

json_struct!(enum LineState as str { Invalid = "inv", ReadOnly = "ro", ReadWrite = "rw" });

/// A resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentLine {
    /// Line address (tag + index combined — we store the full line address).
    pub line: LineAddr,
    /// Current permission.
    pub state: LineState,
    /// Bit `i` set ⇒ word `i` has been written locally and not yet flushed.
    pub dirty_words: u64,
    /// Insertion timestamp used for LRU within a set.
    stamp: u64,
}

/// Result of inserting a line into a full set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The victim's line address.
    pub line: LineAddr,
    /// The victim's permission at eviction time.
    pub state: LineState,
    /// The victim's unflushed dirty words.
    pub dirty_words: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    state: LineState,
    dirty_words: u64,
    stamp: u64,
}

/// Vacant-slot sentinel: `state` is the authority ([`LineState::Invalid`] =
/// empty); the address is set to an impossible value so tag compares can
/// skip the state check.
const VACANT: Slot =
    Slot { line: LineAddr(u64::MAX), state: LineState::Invalid, dirty_words: 0, stamp: 0 };

/// A set-associative cache (direct-mapped when `assoc == 1`, as in Table 1).
///
/// Storage is one flat slot array (`num_sets * assoc`, set `i` owning slots
/// `[i * assoc, (i + 1) * assoc)`): a lookup is a single indexed probe over
/// contiguous memory rather than a pointer chase through per-set vectors —
/// this sits on the simulator's hottest path (every load/store hit).
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Vec<Slot>,
    num_sets: usize,
    assoc: usize,
    /// `num_sets - 1` when `num_sets` is a power of two (the set index is
    /// then a mask instead of a modulo — this indexes every cache probe,
    /// the simulator's single hottest operation); `u64::MAX` otherwise.
    set_mask: u64,
    tick: u64,
}

impl Cache {
    /// Cache sized per `cfg` (capacity, line size, associativity).
    pub fn new(cfg: &MachineConfig) -> Self {
        let lines = cfg.lines_per_cache();
        let assoc = cfg.cache_assoc;
        assert!(lines.is_multiple_of(assoc));
        Self::with_geometry(lines / assoc, assoc)
    }

    /// Build a cache with an explicit geometry (tests).
    pub fn with_geometry(num_sets: usize, assoc: usize) -> Self {
        let set_mask =
            if num_sets.is_power_of_two() { num_sets as u64 - 1 } else { u64::MAX };
        Cache { slots: vec![VACANT; num_sets * assoc], num_sets, assoc, set_mask, tick: 0 }
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = if self.set_mask != u64::MAX {
            (line.0 & self.set_mask) as usize
        } else {
            (line.0 % self.num_sets as u64) as usize
        };
        set * self.assoc..(set + 1) * self.assoc
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<&Slot> {
        self.slots[self.set_range(line)].iter().find(|s| s.line == line)
    }

    #[inline]
    fn find_mut(&mut self, line: LineAddr) -> Option<&mut Slot> {
        let range = self.set_range(line);
        self.slots[range].iter_mut().find(|s| s.line == line)
    }

    /// Current permission for `line` ([`LineState::Invalid`] if absent).
    #[inline]
    pub fn state(&self, line: LineAddr) -> LineState {
        self.find(line).map_or(LineState::Invalid, |s| s.state)
    }

    /// True if the line is present with any permission.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Touch `line` for LRU purposes (call on every hit).
    #[inline]
    pub fn touch(&mut self, line: LineAddr) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(s) = self.find_mut(line) {
            s.stamp = tick;
        }
    }

    /// Commit a retired write in one probe: if `line` is present, raise it
    /// to read-write, touch it, and OR `words` into its dirty mask —
    /// replacing `contains` + `upgrade` + `touch` + `mark_dirty_words`.
    /// Returns false (cache untouched) if the line is absent.
    #[inline]
    pub fn promote_written(&mut self, line: LineAddr, words: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.find_mut(line) {
            Some(s) => {
                s.state = LineState::ReadWrite;
                s.stamp = tick;
                s.dirty_words |= words;
                true
            }
            None => false,
        }
    }

    /// Single-probe write-hit check: when `line` is present *read-write*,
    /// touch it and mark `word` dirty; always returns the line's state so
    /// the caller can start the right coherence action otherwise. (A
    /// read-only line is deliberately left untouched — raising it needs a
    /// protocol transaction.)
    #[inline]
    pub fn write_probe(&mut self, line: LineAddr, word: usize) -> LineState {
        debug_assert!(word < 64);
        self.tick += 1;
        let tick = self.tick;
        match self.find_mut(line) {
            Some(s) => {
                if s.state == LineState::ReadWrite {
                    s.stamp = tick;
                    s.dirty_words |= 1 << word;
                }
                s.state
            }
            None => LineState::Invalid,
        }
    }

    /// Touch `line` if present and report whether it was — the read-hit
    /// fast path, probing the set once instead of `contains` + `touch`.
    /// (The LRU tick advances even on a miss; only the *relative* order of
    /// resident stamps matters, so this is observationally neutral.)
    #[inline]
    pub fn touch_hit(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.find_mut(line) {
            Some(s) => {
                s.stamp = tick;
                true
            }
            None => false,
        }
    }

    /// Insert `line` with permission `state`, evicting the LRU victim if the
    /// set is full. If the line is already present its permission is
    /// replaced (dirty words preserved).
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Eviction> {
        debug_assert!(state != LineState::Invalid);
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let set = &mut self.slots[range];
        if let Some(s) = set.iter_mut().find(|s| s.line == line) {
            s.state = state;
            s.stamp = tick;
            return None;
        }
        // Prefer a vacant slot; otherwise evict the LRU victim (stamps are
        // globally unique, so the minimum is unambiguous).
        let mut evicted = None;
        let slot = match set.iter_mut().find(|s| s.state == LineState::Invalid) {
            Some(s) => s,
            None => {
                let v = set.iter_mut().min_by_key(|s| s.stamp).expect("full set has a victim");
                evicted =
                    Some(Eviction { line: v.line, state: v.state, dirty_words: v.dirty_words });
                v
            }
        };
        *slot = Slot { line, state, dirty_words: 0, stamp: tick };
        evicted
    }

    /// Raise permission of a present line to read-write (upgrade). Returns
    /// false if the line is absent.
    #[inline]
    pub fn upgrade(&mut self, line: LineAddr) -> bool {
        match self.find_mut(line) {
            Some(s) => {
                s.state = LineState::ReadWrite;
                true
            }
            None => false,
        }
    }

    /// OR a whole dirty-word mask into a present line in one probe —
    /// equivalent to [`Cache::mark_dirty`] once per set bit. Returns false
    /// if the line is absent.
    #[inline]
    pub fn mark_dirty_words(&mut self, line: LineAddr, words: u64) -> bool {
        match self.find_mut(line) {
            Some(s) => {
                s.dirty_words |= words;
                true
            }
            None => false,
        }
    }

    /// Mark word `word` of a present line dirty. Returns false if absent.
    #[inline]
    pub fn mark_dirty(&mut self, line: LineAddr, word: usize) -> bool {
        debug_assert!(word < 64);
        match self.find_mut(line) {
            Some(s) => {
                s.dirty_words |= 1 << word;
                true
            }
            None => false,
        }
    }

    /// Remove `line`; returns its state at removal for write-back decisions.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Eviction> {
        let s = self.find_mut(line)?;
        let ev = Eviction { line: s.line, state: s.state, dirty_words: s.dirty_words };
        *s = VACANT;
        Some(ev)
    }

    /// Clear the dirty mask of a present line (after a flush/write-back).
    pub fn clear_dirty(&mut self, line: LineAddr) {
        if let Some(s) = self.find_mut(line) {
            s.dirty_words = 0;
        }
    }

    /// Dirty-word mask of a present line (0 if absent or clean).
    pub fn dirty_words(&self, line: LineAddr) -> u64 {
        self.find(line).map_or(0, |s| s.dirty_words)
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.state != LineState::Invalid).count()
    }

    /// Iterate over all resident lines (used by invariant checks and the
    /// model checker's fingerprint, which folds them as a multiset — slot
    /// order is incidental).
    pub fn iter(&self) -> impl Iterator<Item = ResidentLine> + '_ {
        self.slots.iter().filter(|s| s.state != LineState::Invalid).map(|s| ResidentLine {
            line: s.line,
            state: s.state,
            dirty_words: s.dirty_words,
            stamp: s.stamp,
        })
    }

    /// Checkpoint the full slot array in storage order, vacant slots
    /// included, as `(line, state, dirty_words, stamp)` tuples, plus the
    /// LRU tick. Slot *positions* matter (victim choice scans the set in
    /// storage order), so unlike [`Cache::iter`] this listing is exact.
    pub fn save_slots(&self) -> (Vec<(LineAddr, LineState, u64, u64)>, u64) {
        (self.slots.iter().map(|s| (s.line, s.state, s.dirty_words, s.stamp)).collect(), self.tick)
    }

    /// Restore a checkpoint taken by [`Cache::save_slots`] into a cache of
    /// identical geometry. Returns false (cache unchanged) on a slot-count
    /// mismatch.
    pub fn restore_slots(&mut self, slots: &[(LineAddr, LineState, u64, u64)], tick: u64) -> bool {
        if slots.len() != self.slots.len() {
            return false;
        }
        for (dst, &(line, state, dirty_words, stamp)) in self.slots.iter_mut().zip(slots) {
            *dst = Slot { line, state, dirty_words, stamp };
        }
        self.tick = tick;
        true
    }

    /// Geometry accessor: number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Geometry accessor: associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn insert_then_hit() {
        let mut c = Cache::with_geometry(4, 1);
        assert_eq!(c.state(line(1)), LineState::Invalid);
        assert!(c.insert(line(1), LineState::ReadOnly).is_none());
        assert_eq!(c.state(line(1)), LineState::ReadOnly);
        assert!(c.contains(line(1)));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = Cache::with_geometry(4, 1);
        c.insert(line(1), LineState::ReadWrite);
        c.mark_dirty(line(1), 3);
        // line 5 maps to the same set (5 % 4 == 1).
        let ev = c.insert(line(5), LineState::ReadOnly).expect("conflict eviction");
        assert_eq!(ev.line, line(1));
        assert_eq!(ev.state, LineState::ReadWrite);
        assert_eq!(ev.dirty_words, 1 << 3);
        assert_eq!(c.state(line(1)), LineState::Invalid);
        assert_eq!(c.state(line(5)), LineState::ReadOnly);
    }

    #[test]
    fn two_way_lru() {
        let mut c = Cache::with_geometry(2, 2);
        c.insert(line(0), LineState::ReadOnly);
        c.insert(line(2), LineState::ReadOnly); // same set as 0
        c.touch(line(0)); // 0 is now MRU
        let ev = c.insert(line(4), LineState::ReadOnly).unwrap();
        assert_eq!(ev.line, line(2), "LRU line evicted");
        assert!(c.contains(line(0)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn upgrade_and_dirty_tracking() {
        let mut c = Cache::with_geometry(4, 1);
        c.insert(line(7), LineState::ReadOnly);
        assert!(c.upgrade(line(7)));
        assert_eq!(c.state(line(7)), LineState::ReadWrite);
        assert!(c.mark_dirty(line(7), 0));
        assert!(c.mark_dirty(line(7), 31));
        assert_eq!(c.dirty_words(line(7)), (1 << 0) | (1 << 31));
        c.clear_dirty(line(7));
        assert_eq!(c.dirty_words(line(7)), 0);
        assert!(!c.upgrade(line(99)));
        assert!(!c.mark_dirty(line(99), 0));
    }

    #[test]
    fn invalidate_returns_final_state() {
        let mut c = Cache::with_geometry(4, 1);
        c.insert(line(9), LineState::ReadWrite);
        c.mark_dirty(line(9), 1);
        let ev = c.invalidate(line(9)).unwrap();
        assert_eq!(ev.dirty_words, 2);
        assert!(c.invalidate(line(9)).is_none());
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn reinsert_preserves_dirty_words() {
        let mut c = Cache::with_geometry(4, 1);
        c.insert(line(3), LineState::ReadWrite);
        c.mark_dirty(line(3), 2);
        // Re-insert (e.g. a permission refresh) keeps the dirty mask.
        assert!(c.insert(line(3), LineState::ReadOnly).is_none());
        assert_eq!(c.dirty_words(line(3)), 4);
    }

    #[test]
    fn table1_geometry() {
        let cfg = MachineConfig::paper_default(64);
        let c = Cache::new(&cfg);
        assert_eq!(c.num_sets(), 1024);
        assert_eq!(c.assoc(), 1);
    }

    #[test]
    fn capacity_bounded() {
        let mut c = Cache::with_geometry(8, 2);
        for i in 0..100 {
            c.insert(line(i), LineState::ReadOnly);
        }
        assert_eq!(c.resident(), 16);
        assert_eq!(c.iter().count(), 16);
    }
}
