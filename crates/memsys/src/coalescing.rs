//! The coalescing write-through buffer (Jouppi-style coalescing buffer,
//! paper reference \[12\]).
//!
//! The lazy protocols use write-through caches for correctness (memory must
//! hold a mergeable, word-granularity master copy under multiple writers),
//! but raw write-through traffic would be prohibitive. A small fully
//! associative buffer between the cache and memory coalesces writes to the
//! same line and drains to the home node in the background; a release must
//! wait until the buffer has drained and all flushes are acknowledged.

use lrc_sim::LineAddr;
use std::collections::VecDeque;

/// One coalescing-buffer entry: a line and the words of it written since the
/// entry was allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbEntry {
    /// Destination line.
    pub line: LineAddr,
    /// Mask of dirty words to flush.
    pub words: u64,
}

/// Result of offering a write to the coalescing buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbPush {
    /// Merged into an existing entry.
    Merged,
    /// Allocated a fresh entry.
    Allocated,
    /// Buffer was full: the returned victim (oldest entry) must be flushed
    /// to its home node; the new write took its slot.
    Displaced(CbEntry),
}

/// Fully associative FIFO-replacement coalescing buffer.
#[derive(Debug, Clone)]
pub struct CoalescingBuffer {
    entries: VecDeque<CbEntry>,
    capacity: usize,
}

impl CoalescingBuffer {
    /// Buffer with `capacity` entries (Table-1 machines use 16).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        // `capacity` is a limit, not an allocation: a corrupt or absurd
        // configuration must not reserve memory it will never fill.
        CoalescingBuffer { entries: VecDeque::with_capacity(capacity.min(64)), capacity }
    }

    /// Offer a write of `word` within `line`.
    pub fn push(&mut self, line: LineAddr, word: usize) -> CbPush {
        debug_assert!(word < 64);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.words |= 1 << word;
            return CbPush::Merged;
        }
        let displaced = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(CbEntry { line, words: 1 << word });
        match displaced {
            Some(v) => CbPush::Displaced(v),
            None => CbPush::Allocated,
        }
    }

    /// Offer a whole dirty-word mask for `line` in one buffer search —
    /// equivalent to [`CoalescingBuffer::push`] once per set bit (the first
    /// allocates or displaces, the rest merge), but probing the buffer once.
    pub fn push_words(&mut self, line: LineAddr, words: u64) -> CbPush {
        debug_assert!(words != 0);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.words |= words;
            return CbPush::Merged;
        }
        let displaced = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(CbEntry { line, words });
        match displaced {
            Some(v) => CbPush::Displaced(v),
            None => CbPush::Allocated,
        }
    }

    /// Remove and return the entry for `line`, if present (flush on demand —
    /// e.g. when the line is invalidated or evicted while still buffered).
    pub fn take(&mut self, line: LineAddr) -> Option<CbEntry> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        self.entries.remove(pos)
    }

    /// Remove and return the oldest entry (background drain / release flush).
    pub fn pop_oldest(&mut self) -> Option<CbEntry> {
        self.entries.pop_front()
    }

    /// Drain everything (release flush), oldest first.
    pub fn drain_all(&mut self) -> Vec<CbEntry> {
        self.entries.drain(..).collect()
    }

    /// Does the buffer hold a write to `line`?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &CbEntry> {
        self.entries.iter()
    }

    /// Replace the buffered entries with a checkpointed FIFO listing
    /// (oldest first). Returns false (buffer unchanged) if the listing
    /// exceeds capacity.
    pub fn restore_entries(&mut self, entries: &[CbEntry]) -> bool {
        if entries.len() > self.capacity {
            return false;
        }
        self.entries.clear();
        self.entries.extend(entries.iter().copied());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn merges_same_line() {
        let mut cb = CoalescingBuffer::new(16);
        assert_eq!(cb.push(l(1), 0), CbPush::Allocated);
        assert_eq!(cb.push(l(1), 7), CbPush::Merged);
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.iter().next().unwrap().words, 0b1000_0001);
    }

    #[test]
    fn displaces_oldest_when_full() {
        let mut cb = CoalescingBuffer::new(2);
        cb.push(l(1), 0);
        cb.push(l(2), 0);
        match cb.push(l(3), 0) {
            CbPush::Displaced(v) => assert_eq!(v.line, l(1)),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert!(cb.contains(l(2)));
        assert!(cb.contains(l(3)));
        assert!(!cb.contains(l(1)));
    }

    #[test]
    fn take_specific_line() {
        let mut cb = CoalescingBuffer::new(4);
        cb.push(l(1), 0);
        cb.push(l(2), 3);
        let e = cb.take(l(2)).unwrap();
        assert_eq!(e.words, 1 << 3);
        assert!(cb.take(l(2)).is_none());
        assert_eq!(cb.len(), 1);
    }

    #[test]
    fn drain_is_fifo() {
        let mut cb = CoalescingBuffer::new(4);
        cb.push(l(5), 0);
        cb.push(l(6), 0);
        cb.push(l(7), 0);
        let order: Vec<u64> = cb.drain_all().iter().map(|e| e.line.0).collect();
        assert_eq!(order, vec![5, 6, 7]);
        assert!(cb.is_empty());
    }

    #[test]
    fn pop_oldest_order() {
        let mut cb = CoalescingBuffer::new(4);
        cb.push(l(9), 0);
        cb.push(l(8), 0);
        assert_eq!(cb.pop_oldest().unwrap().line, l(9));
        assert_eq!(cb.pop_oldest().unwrap().line, l(8));
        assert!(cb.pop_oldest().is_none());
    }
}
