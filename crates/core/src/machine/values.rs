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
//!   the word's latest id lands in the writer's per-line *unflushed* record
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
//!
//! Both run on every store and flush, so both are indexed, not searched:
//! the home image is a [`LineMap`] keyed by word number (`line << log2
//! words-per-line | word`), and the unflushed words one [`LineMap`] of
//! fixed-width records keyed by `line << log2 procs | proc`. Every listing
//! walks those indexes, so it comes out in ascending `(line, word)` order,
//! or `(proc, line, word)` for unflushed words, with no sort.

use lrc_sim::refint::WriteId;
use lrc_sim::{LineMap, ProcId};
use std::collections::BTreeMap;

/// Final symbolic memory image: `(line, word) → last writer`.
pub type SymbolicMemory = BTreeMap<(u64, usize), WriteId>;

/// Machine-side symbolic write tracking (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct ValueTracker {
    /// Per-processor count of writes issued so far (program order).
    seq: Vec<u64>,
    /// log2 of the words per line.
    word_bits: u32,
    /// Last writer of each word, as committed at its home, keyed by
    /// `line << word_bits | word`.
    home: LineMap<WriteId>,
    /// log2 of the processor count, rounded up.
    proc_bits: u32,
    /// Written-but-unflushed words of each (processor, line), keyed by
    /// `line << proc_bits | proc`.
    unflushed: LineMap<Rec>,
    /// One past the largest line in `unflushed` since it was last empty:
    /// the range a `(proc, line)` walk scans.
    lines: u64,
}

/// One processor's unflushed words of one line: a mask of the words
/// written, and where set, the sequence number of the word's latest write
/// (the processor is in the record's key).
#[derive(Debug, Clone)]
struct Rec {
    mask: u64,
    seqs: [u64; 64],
}

/// The word indices set in `mask`, ascending.
fn words_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let w = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(w)
    })
}

impl ValueTracker {
    /// A tracker for `num_procs` processors and lines of `words_per_line`
    /// words (a power of two, at most 64). Its tables start empty and grow
    /// on first touch.
    pub(crate) fn new(num_procs: usize, words_per_line: usize) -> Self {
        debug_assert!(words_per_line.is_power_of_two() && words_per_line <= 64);
        ValueTracker {
            seq: vec![0; num_procs],
            word_bits: words_per_line.trailing_zeros(),
            home: LineMap::new(),
            proc_bits: num_procs.next_power_of_two().trailing_zeros(),
            unflushed: LineMap::new(),
            lines: 0,
        }
    }

    #[inline]
    fn key(&self, p: ProcId, line: u64) -> u64 {
        (line << self.proc_bits) | p as u64
    }

    /// Processor `p`'s latest unflushed store to `word` of `line` is its
    /// `seq`-th.
    #[inline]
    fn record(&mut self, p: ProcId, line: u64, word: usize, seq: u64) {
        let key = self.key(p, line);
        let rec = self.unflushed.entry_or_insert_with(key, || Rec { mask: 0, seqs: [0; 64] });
        rec.mask |= 1 << word;
        rec.seqs[word] = seq;
        self.lines = self.lines.max(line + 1);
    }

    /// Processor `p` issues its next store to `(line, word)`.
    pub(crate) fn on_write(&mut self, p: ProcId, line: u64, word: usize) {
        self.seq[p] += 1;
        self.record(p, line, word, self.seq[p]);
    }

    /// Processor `p` flushes the words in `mask` of `line` toward home.
    /// Words with no unflushed id (already flushed by an earlier path, e.g.
    /// a coalescing-buffer drain racing an eviction) are ignored.
    pub(crate) fn on_flush(&mut self, p: ProcId, line: u64, mask: u64) {
        let key = self.key(p, line);
        let Some(rec) = self.unflushed.get_mut(key) else {
            return;
        };
        for w in words_in(rec.mask & mask) {
            let id = WriteId { proc: p, seq: rec.seqs[w] };
            self.home.insert((line << self.word_bits) | w as u64, id);
        }
        rec.mask &= !mask;
        if rec.mask == 0 {
            self.unflushed.remove(key);
            if self.unflushed.is_empty() {
                self.lines = 0;
            }
        }
    }

    /// The home image as `(line, word, id)`, in ascending `(line, word)`
    /// order.
    fn home_rows(&self) -> impl Iterator<Item = (u64, usize, WriteId)> + '_ {
        let low = (1u64 << self.word_bits) - 1;
        self.home.iter().map(move |(k, &id)| (k >> self.word_bits, (k & low) as usize, id))
    }

    /// Every unflushed record in `(proc, line)` order, with its words in
    /// ascending order.
    fn unflushed_rows(
        &self,
    ) -> impl Iterator<Item = (ProcId, u64, impl Iterator<Item = (usize, WriteId)> + '_)> + '_ {
        let keys = (0..self.seq.len()).flat_map(move |p| (0..self.lines).map(move |l| (p, l)));
        keys.filter_map(move |(p, line)| {
            let rec = self.unflushed.get(self.key(p, line))?;
            let ids = words_in(rec.mask).map(move |w| (w, WriteId { proc: p, seq: rec.seqs[w] }));
            Some((p, line, ids))
        })
    }

    /// The final symbolic memory: home overlaid with unflushed words.
    /// Returns the memory plus every `(line, word)` two nodes both held
    /// unflushed — nonempty only for racy programs.
    pub(crate) fn final_memory(&self) -> (SymbolicMemory, Vec<(u64, usize)>) {
        let mut mem: SymbolicMemory = self.home_rows().map(|(l, w, id)| ((l, w), id)).collect();
        let mut owner: BTreeMap<(u64, usize), ProcId> = BTreeMap::new();
        let mut conflicts = Vec::new();
        for (p, line, words) in self.unflushed_rows() {
            for (w, id) in words {
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

    /// The tracker's three components for checkpointing: the per-processor
    /// write counts, the home image as `(line, word, id)` rows in ascending
    /// `(line, word)` order, and the unflushed records as `(proc, line,
    /// words)` in ascending `(proc, line)` order with ascending words. Two
    /// captures of equal trackers therefore serialize identically.
    #[allow(clippy::type_complexity)]
    pub(crate) fn save_parts(
        &self,
    ) -> (
        &[u64],
        impl Iterator<Item = (u64, usize, WriteId)> + '_,
        impl Iterator<Item = (ProcId, u64, impl Iterator<Item = (usize, WriteId)> + '_)> + '_,
    ) {
        (&self.seq, self.home_rows(), self.unflushed_rows())
    }

    /// Rebuild a tracker from checkpointed parts: `home` rows are `(line,
    /// word, id)` and `unflushed` rows `(proc, line, word, seq)`, and a
    /// later row for a word replaces an earlier one. Lines size the indexes
    /// and procs must lie below `seq.len()`, so a caller restoring
    /// untrusted input bounds them first, and every word must lie below
    /// `words_per_line`.
    pub(crate) fn from_parts(
        seq: Vec<u64>,
        words_per_line: usize,
        home: impl Iterator<Item = (u64, usize, WriteId)>,
        unflushed: impl Iterator<Item = (ProcId, u64, usize, u64)>,
    ) -> Self {
        let mut vt = ValueTracker::new(seq.len(), words_per_line);
        vt.seq = seq;
        for (line, w, id) in home {
            vt.home.insert((line << vt.word_bits) | w as u64, id);
        }
        for (p, line, w, seq) in unflushed {
            vt.record(p, line, w, seq);
        }
        vt
    }

    /// Fold the tracker state into a hasher (state fingerprinting). The
    /// tables fold in the order [`ValueTracker::save_parts`] lists them,
    /// so equal trackers fold equal sequences.
    pub(crate) fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.seq.hash(h);
        for (line, w, id) in self.home_rows() {
            ((line, w), id).hash(h);
        }
        for (p, line, words) in self.unflushed_rows() {
            (p, line).hash(h);
            for (w, id) in words {
                (w, id).hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_empty(v: &ValueTracker) -> bool {
        v.unflushed.is_empty()
    }

    #[test]
    fn write_then_flush_moves_word_home() {
        let mut v = ValueTracker::new(2, 8);
        v.on_write(0, 5, 1);
        v.on_write(0, 5, 2);
        let (mem, _) = v.final_memory();
        assert_eq!(mem[&(5, 1)], WriteId { proc: 0, seq: 1 });
        v.on_flush(0, 5, 0b110);
        let (mem, conflicts) = v.final_memory();
        assert_eq!(mem[&(5, 2)], WriteId { proc: 0, seq: 2 });
        assert!(conflicts.is_empty());
        assert!(is_empty(&v));
    }

    #[test]
    fn later_write_wins_at_home() {
        let mut v = ValueTracker::new(2, 8);
        v.on_write(0, 3, 0);
        v.on_flush(0, 3, 1);
        v.on_write(1, 3, 0);
        v.on_flush(1, 3, 1);
        let (mem, _) = v.final_memory();
        assert_eq!(mem[&(3, 0)], WriteId { proc: 1, seq: 1 });
    }

    #[test]
    fn unflushed_overlays_home() {
        let mut v = ValueTracker::new(2, 8);
        v.on_write(0, 7, 4);
        v.on_flush(0, 7, 1 << 4);
        v.on_write(1, 7, 4); // unflushed, newer
        let (mem, conflicts) = v.final_memory();
        assert_eq!(mem[&(7, 4)], WriteId { proc: 1, seq: 1 });
        assert!(conflicts.is_empty());
    }

    #[test]
    fn racy_double_unflushed_reports_conflict() {
        let mut v = ValueTracker::new(2, 8);
        v.on_write(0, 9, 0);
        v.on_write(1, 9, 0);
        let (_, conflicts) = v.final_memory();
        assert_eq!(conflicts, vec![(9, 0)]);
    }

    #[test]
    fn flush_of_unwritten_words_is_ignored() {
        let mut v = ValueTracker::new(1, 8);
        v.on_write(0, 1, 0);
        v.on_flush(0, 1, 0b10); // word 1 was never written
        let (mem, _) = v.final_memory();
        assert_eq!(mem.get(&(1, 1)), None);
        // Word 0 is still unflushed and appears via the overlay.
        assert_eq!(mem[&(1, 0)], WriteId { proc: 0, seq: 1 });
    }

    /// Rows come out in `(line, word)` and `(proc, line, word)` order
    /// whatever order the stores and flushes came in, a flushed-out record
    /// gives up its slot, and `from_parts` rebuilds an equal tracker.
    #[test]
    fn listings_are_ordered_and_round_trip() {
        let mut v = ValueTracker::new(2, 64);
        for (p, line, w) in [(1, 9, 63), (0, 4, 2), (1, 2, 0), (0, 4, 0), (1, 9, 1)] {
            v.on_write(p, line, w);
        }
        v.on_flush(0, 4, u64::MAX);
        v.on_flush(1, 9, 1 << 63);
        v.on_write(0, 3, 5);
        let id = |proc, seq| WriteId { proc, seq };
        let (seq, home, unflushed) = v.save_parts();
        let seq = seq.to_vec();
        let home: Vec<_> = home.collect();
        let unflushed: Vec<_> =
            unflushed.flat_map(|(p, l, words)| words.map(move |(w, id)| (p, l, w, id))).collect();
        assert_eq!(seq, [3, 3]);
        assert_eq!(home, [(4, 0, id(0, 2)), (4, 2, id(0, 1)), (9, 63, id(1, 1))]);
        assert_eq!(unflushed, [(0, 3, 5, id(0, 3)), (1, 2, 0, id(1, 2)), (1, 9, 1, id(1, 3))]);
        assert_eq!(v.unflushed.len(), 3, "line 4's record left no slot behind");

        let fp = |v: &ValueTracker| {
            let mut h = lrc_sim::FoldHasher::default();
            v.hash_into(&mut h);
            std::hash::Hasher::finish(&h)
        };
        let unflushed = unflushed.into_iter().map(|(p, l, w, id)| (p, l, w, id.seq));
        let back = ValueTracker::from_parts(seq, 64, home.into_iter(), unflushed);
        assert_eq!(back.final_memory(), v.final_memory());
        assert_eq!(fp(&back), fp(&v));
    }
}
