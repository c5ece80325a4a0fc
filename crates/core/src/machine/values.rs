//! Symbolic last-writer tracking for the model checker's DRF ⇒ SC check.
//!
//! The checker's central correctness question — "is this protocol execution
//! equivalent to some sequentially consistent execution?" — needs the final
//! memory contents, but the simulator models addresses and timing, not
//! data. So writes are tracked *symbolically*: the value stored by
//! processor `p`'s `k`-th write (1-based, program order) is the token
//! `WriteId { proc: p, seq: k }`, exactly the numbering the reference
//! interpreter in `lrc_sim::refint` uses. Two executions then have "the
//! same final memory" iff the `(line, word) → WriteId` maps agree.
//!
//! Tracking mirrors the hardware's two-stage write path:
//!
//! * [`ValueTracker::on_write`] fires when the processor *issues* a store —
//!   the word's latest id lands in the writer's per-line *unflushed* set
//!   (the union of its cache dirty bits, write/coalescing-buffer contents,
//!   and deferred-notice words).
//! * [`ValueTracker::on_flush`] fires when dirty words leave the node for
//!   home memory (write-through, write-back, 3-hop copy-back, or a
//!   lazy-ext deferred-notice `WriteReq`) — the flushed words move to the
//!   *home* image in flush order.
//!
//! For a data-race-free program flush order equals memory commit order
//! (conflicting flushes are separated by a release/acquire chain, and the
//! release fence waits for flush acks), so the home image is exact. The
//! final memory is the home image overlaid with each node's unflushed
//! words; DRF guarantees at most one node holds an unflushed id per word
//! at quiescence — two holders are reported as a conflict.

use lrc_sim::refint::WriteId;
use lrc_sim::ProcId;
use std::collections::BTreeMap;

/// Final symbolic memory image: `(line, word) → last writer`.
pub type SymbolicMemory = BTreeMap<(u64, usize), WriteId>;

/// Machine-side symbolic write tracking (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct ValueTracker {
    /// Per-processor count of writes issued so far (program order).
    seq: Vec<u64>,
    /// Last writer of each word, as committed at its home.
    home: BTreeMap<(u64, usize), WriteId>,
    /// Written-but-unflushed words per (processor, line): `word → id`.
    unflushed: BTreeMap<(ProcId, u64), BTreeMap<usize, WriteId>>,
}

impl ValueTracker {
    pub(crate) fn new(num_procs: usize) -> Self {
        ValueTracker { seq: vec![0; num_procs], home: BTreeMap::new(), unflushed: BTreeMap::new() }
    }

    /// Processor `p` issues its next store to `(line, word)`.
    pub(crate) fn on_write(&mut self, p: ProcId, line: u64, word: usize) {
        self.seq[p] += 1;
        let id = WriteId { proc: p, seq: self.seq[p] };
        self.unflushed.entry((p, line)).or_default().insert(word, id);
    }

    /// Processor `p` flushes the words in `mask` of `line` toward home.
    /// Words with no unflushed id (already flushed by an earlier path, e.g.
    /// a coalescing-buffer drain racing an eviction) are ignored.
    pub(crate) fn on_flush(&mut self, p: ProcId, line: u64, mask: u64) {
        let Some(words) = self.unflushed.get_mut(&(p, line)) else {
            return;
        };
        let mut m = mask;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(id) = words.remove(&w) {
                self.home.insert((line, w), id);
            }
        }
        if words.is_empty() {
            self.unflushed.remove(&(p, line));
        }
    }

    /// The final symbolic memory: home overlaid with unflushed words.
    /// Returns the memory plus every `(line, word)` two nodes both held
    /// unflushed — nonempty only for racy programs.
    pub(crate) fn final_memory(&self) -> (SymbolicMemory, Vec<(u64, usize)>) {
        let mut mem = self.home.clone();
        let mut owner: BTreeMap<(u64, usize), ProcId> = BTreeMap::new();
        let mut conflicts = Vec::new();
        for (&(p, line), words) in &self.unflushed {
            for (&w, &id) in words {
                if let Some(&prev) = owner.get(&(line, w)) {
                    if prev != p {
                        conflicts.push((line, w));
                    }
                }
                owner.insert((line, w), p);
                mem.insert((line, w), id);
            }
        }
        (mem, conflicts)
    }

    /// Borrow the tracker's three components for checkpointing:
    /// `(seq, home, unflushed)`. All `BTreeMap`s, so iteration is sorted
    /// and two captures of equal trackers serialize identically.
    #[allow(clippy::type_complexity)]
    pub(crate) fn save_parts(
        &self,
    ) -> (&[u64], &SymbolicMemory, &BTreeMap<(ProcId, u64), BTreeMap<usize, WriteId>>) {
        (&self.seq, &self.home, &self.unflushed)
    }

    /// Rebuild a tracker from checkpointed parts.
    pub(crate) fn from_parts(
        seq: Vec<u64>,
        home: SymbolicMemory,
        unflushed: BTreeMap<(ProcId, u64), BTreeMap<usize, WriteId>>,
    ) -> Self {
        ValueTracker { seq, home, unflushed }
    }

    /// Fold the tracker state into a hasher (state fingerprinting).
    pub(crate) fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.seq.hash(h);
        for (k, v) in &self.home {
            (k, v).hash(h);
        }
        for (k, words) in &self.unflushed {
            k.hash(h);
            for (w, id) in words {
                (w, id).hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_flush_moves_word_home() {
        let mut v = ValueTracker::new(2);
        v.on_write(0, 5, 1);
        v.on_write(0, 5, 2);
        let (mem, _) = v.final_memory();
        assert_eq!(mem[&(5, 1)], WriteId { proc: 0, seq: 1 });
        v.on_flush(0, 5, 0b110);
        let (mem, conflicts) = v.final_memory();
        assert_eq!(mem[&(5, 2)], WriteId { proc: 0, seq: 2 });
        assert!(conflicts.is_empty());
        assert!(v.unflushed.is_empty());
    }

    #[test]
    fn later_write_wins_at_home() {
        let mut v = ValueTracker::new(2);
        v.on_write(0, 3, 0);
        v.on_flush(0, 3, 1);
        v.on_write(1, 3, 0);
        v.on_flush(1, 3, 1);
        let (mem, _) = v.final_memory();
        assert_eq!(mem[&(3, 0)], WriteId { proc: 1, seq: 1 });
    }

    #[test]
    fn unflushed_overlays_home() {
        let mut v = ValueTracker::new(2);
        v.on_write(0, 7, 4);
        v.on_flush(0, 7, 1 << 4);
        v.on_write(1, 7, 4); // unflushed, newer
        let (mem, conflicts) = v.final_memory();
        assert_eq!(mem[&(7, 4)], WriteId { proc: 1, seq: 1 });
        assert!(conflicts.is_empty());
    }

    #[test]
    fn racy_double_unflushed_reports_conflict() {
        let mut v = ValueTracker::new(2);
        v.on_write(0, 9, 0);
        v.on_write(1, 9, 0);
        let (_, conflicts) = v.final_memory();
        assert_eq!(conflicts, vec![(9, 0)]);
    }

    #[test]
    fn flush_of_unwritten_words_is_ignored() {
        let mut v = ValueTracker::new(1);
        v.on_write(0, 1, 0);
        v.on_flush(0, 1, 0b10); // word 1 was never written
        let (mem, _) = v.final_memory();
        assert_eq!(mem.get(&(1, 1)), None);
        // Word 0 is still unflushed and appears via the overlay.
        assert_eq!(mem[&(1, 0)], WriteId { proc: 0, seq: 1 });
    }
}
