//! The processor write buffer used by the relaxed-consistency protocols.
//!
//! Per Section 4.2 of the paper: 4 entries, coalesces writes to the same
//! cache line, and lets reads bypass pending writes (with forwarding when a
//! read matches a buffered line). Entries retire in FIFO order once the
//! protocol marks them ready; a full buffer stalls the processor — those
//! stall cycles are the "write buffer" bucket of the overhead figures.

use lrc_sim::LineAddr;
use std::collections::VecDeque;

/// One buffered write: a target line and the set of words written to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbEntry {
    /// Destination cache line.
    pub line: LineAddr,
    /// Bit mask of words written (coalesced).
    pub words: u64,
    /// Set by the protocol when the entry may retire (e.g. ownership or
    /// write-permission reply has arrived).
    pub ready: bool,
    /// Set once the protocol has issued the coherence action for this entry,
    /// so a coalesced second write doesn't trigger a duplicate request.
    pub issued: bool,
}

/// Outcome of offering a write to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbPush {
    /// Merged into an existing entry for the same line.
    Coalesced,
    /// A new entry was allocated.
    Allocated,
    /// Buffer full: the processor must stall until an entry retires.
    Full,
}

/// FIFO, coalescing write buffer.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: VecDeque<WbEntry>,
    capacity: usize,
}

impl WriteBuffer {
    /// Buffer with `capacity` entries (Table-1 machines use 4).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        // `capacity` is a limit, not an allocation (see `CoalescingBuffer`).
        WriteBuffer { entries: VecDeque::with_capacity(capacity.min(64)), capacity }
    }

    /// Offer a write of `word` within `line`.
    pub fn push(&mut self, line: LineAddr, word: usize) -> WbPush {
        debug_assert!(word < 64);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.words |= 1 << word;
            return WbPush::Coalesced;
        }
        if self.entries.len() == self.capacity {
            return WbPush::Full;
        }
        self.entries.push_back(WbEntry { line, words: 1 << word, ready: false, issued: false });
        WbPush::Allocated
    }

    /// Read bypass check: does a buffered write cover `line`? (If so a read
    /// of that line can be forwarded from the buffer.)
    pub fn matches(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Mark the entry for `line` ready to retire.
    pub fn mark_ready(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.ready = true;
        }
    }

    /// Mark the entry for `line` as having had its coherence action issued.
    pub fn mark_issued(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.issued = true;
        }
    }

    /// The oldest entry, if any (the only retirement candidate — FIFO).
    pub fn front(&self) -> Option<&WbEntry> {
        self.entries.front()
    }

    /// Mutable access to the oldest entry.
    pub fn front_mut(&mut self) -> Option<&mut WbEntry> {
        self.entries.front_mut()
    }

    /// Retire the oldest entry if it is ready; returns it.
    pub fn pop_ready(&mut self) -> Option<WbEntry> {
        if self.entries.front().is_some_and(|e| e.ready) {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Oldest un-issued entry, if any (next coherence action to start).
    pub fn next_unissued(&mut self) -> Option<&mut WbEntry> {
        self.entries.iter_mut().find(|e| !e.issued)
    }

    /// Index of the oldest un-issued entry, if any. Pairing this with
    /// [`WriteBuffer::entry_mut`] lets the write-buffer pump revisit the
    /// same entry by position instead of re-searching by line.
    pub fn next_unissued_idx(&self) -> Option<usize> {
        self.entries.iter().position(|e| !e.issued)
    }

    /// Mutable access to the entry at `idx` (FIFO position).
    pub fn entry_mut(&mut self, idx: usize) -> &mut WbEntry {
        &mut self.entries[idx]
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a new (non-coalescing) write would stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Iterate entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &WbEntry> {
        self.entries.iter()
    }

    /// Replace the buffered entries with a checkpointed FIFO listing
    /// (oldest first). Returns false (buffer unchanged) if the listing
    /// exceeds capacity.
    pub fn restore_entries(&mut self, entries: &[WbEntry]) -> bool {
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
    fn coalesces_same_line() {
        let mut wb = WriteBuffer::new(4);
        assert_eq!(wb.push(l(1), 0), WbPush::Allocated);
        assert_eq!(wb.push(l(1), 5), WbPush::Coalesced);
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.front().unwrap().words, 0b100001);
    }

    #[test]
    fn fills_at_capacity() {
        let mut wb = WriteBuffer::new(4);
        for i in 0..4 {
            assert_eq!(wb.push(l(i), 0), WbPush::Allocated);
        }
        assert!(wb.is_full());
        assert_eq!(wb.push(l(99), 0), WbPush::Full);
        // Coalescing still works when full.
        assert_eq!(wb.push(l(2), 1), WbPush::Coalesced);
    }

    #[test]
    fn fifo_retirement_requires_ready() {
        let mut wb = WriteBuffer::new(4);
        wb.push(l(1), 0);
        wb.push(l(2), 0);
        assert!(wb.pop_ready().is_none());
        wb.mark_ready(l(2));
        // Front (line 1) not ready: nothing retires even though 2 is ready.
        assert!(wb.pop_ready().is_none());
        wb.mark_ready(l(1));
        assert_eq!(wb.pop_ready().unwrap().line, l(1));
        assert_eq!(wb.pop_ready().unwrap().line, l(2));
        assert!(wb.is_empty());
    }

    #[test]
    fn read_bypass_matching() {
        let mut wb = WriteBuffer::new(4);
        wb.push(l(3), 2);
        assert!(wb.matches(l(3)));
        assert!(!wb.matches(l(4)));
    }

    #[test]
    fn issue_tracking() {
        let mut wb = WriteBuffer::new(4);
        wb.push(l(1), 0);
        wb.push(l(2), 0);
        assert_eq!(wb.next_unissued().unwrap().line, l(1));
        wb.mark_issued(l(1));
        assert_eq!(wb.next_unissued().unwrap().line, l(2));
        wb.mark_issued(l(2));
        assert!(wb.next_unissued().is_none());
    }
}
