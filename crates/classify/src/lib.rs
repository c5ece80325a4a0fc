//! `lrc-classify` — online miss classification in the style of Bianchini &
//! Kontothanassis (paper reference \[3\]), producing the five categories of
//! the paper's Table 2: **cold**, **true-sharing**, **false-sharing**,
//! **eviction**, and **write** (upgrade) misses.
//!
//! # Classification rules
//!
//! Every block keeps, per word, the identity of the last writer and a global
//! write version; and, per processor, whether the processor has ever cached
//! the block and how it last lost it (replacement vs. invalidation). A miss
//! by processor `P` on word `w` is then classified with the following
//! priority:
//!
//! 1. **Write (upgrade)** — the block is present read-only and only write
//!    permission is missing (no data transfer happens).
//! 2. **Cold** — `P` has never cached the block.
//! 3. Block was lost to an **invalidation**: if some other processor wrote
//!    `w` after the loss, the miss is **true-sharing**; otherwise the
//!    invalidation was caused purely by writes to other words and the miss
//!    is **false-sharing**.
//! 4. Block was lost to a **replacement**: if some other processor wrote `w`
//!    after the loss the data is genuinely new and we report
//!    **true-sharing**; otherwise **eviction**.
//!
//! The classifier is protocol-agnostic: the machine reports writes,
//! invalidations, evictions, and misses; the classifier never influences
//! timing. It is optional (Table-2 runs enable it; performance runs skip it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

use lrc_sim::{LineAddr, LineMap, MissClass, ProcId};

const NO_WRITER: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
struct WordInfo {
    version: u32,
    writer: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)]
enum Lost {
    /// Currently cached (or never cached — see `ever_cached`).
    NotLost,
    Evicted { at_version: u32 },
    Invalidated { at_version: u32 },
}

#[derive(Debug, Clone, Copy)]
struct ProcView {
    ever_cached: bool,
    lost: Lost,
}

#[derive(Debug, Clone)]
struct BlockInfo {
    words: Box<[WordInfo]>,
    procs: Box<[ProcView]>,
}

/// Online miss classifier. One instance observes one simulation run.
#[derive(Debug, Clone)]
pub struct Classifier {
    num_procs: usize,
    words_per_line: usize,
    version: u32,
    /// Per-line history, indexed by line address.
    blocks: LineMap<BlockInfo>,
}

impl Classifier {
    /// Classifier for `num_procs` processors and `words_per_line` words per
    /// cache line.
    pub fn new(num_procs: usize, words_per_line: usize) -> Self {
        assert!(num_procs < NO_WRITER as usize);
        assert!(words_per_line > 0 && words_per_line <= 64);
        Classifier { num_procs, words_per_line, version: 0, blocks: LineMap::new() }
    }

    fn block(&mut self, line: LineAddr) -> &mut BlockInfo {
        let (np, wpl) = (self.num_procs, self.words_per_line);
        self.blocks.entry_or_insert_with(line.0, || BlockInfo {
            words: vec![WordInfo { version: 0, writer: NO_WRITER }; wpl].into_boxed_slice(),
            procs: vec![ProcView { ever_cached: false, lost: Lost::NotLost }; np].into_boxed_slice(),
        })
    }

    /// Record that `proc` wrote word `word` of `line`.
    pub fn record_write(&mut self, proc: ProcId, line: LineAddr, word: usize) {
        debug_assert!(word < self.words_per_line);
        self.version += 1;
        let v = self.version;
        let b = self.block(line);
        b.words[word] = WordInfo { version: v, writer: proc as u8 };
    }

    /// Record that `proc` lost `line` to a capacity/conflict replacement.
    pub fn on_evict(&mut self, proc: ProcId, line: LineAddr) {
        let v = self.version;
        let b = self.block(line);
        b.procs[proc].lost = Lost::Evicted { at_version: v };
    }

    /// Record that `proc`'s copy of `line` was invalidated by the coherence
    /// protocol (eager invalidation or acquire-time invalidation).
    pub fn on_invalidate(&mut self, proc: ProcId, line: LineAddr) {
        let v = self.version;
        let b = self.block(line);
        b.procs[proc].lost = Lost::Invalidated { at_version: v };
    }

    /// Classify a miss by `proc` on `word` of `line`.
    ///
    /// `upgrade_only` is true when the block is present read-only and the
    /// miss is purely for write permission. Calling this marks the block
    /// cached by `proc` again.
    pub fn classify_miss(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        word: usize,
        upgrade_only: bool,
    ) -> MissClass {
        debug_assert!(word < self.words_per_line);
        let b = self.block(line);
        let view = b.procs[proc];
        let class = if upgrade_only {
            MissClass::Upgrade
        } else if !view.ever_cached {
            MissClass::Cold
        } else {
            let w = b.words[word];
            let remote_wrote_since =
                |at: u32| w.writer != NO_WRITER && w.writer as usize != proc && w.version > at;
            match view.lost {
                Lost::Invalidated { at_version } => {
                    if remote_wrote_since(at_version) {
                        MissClass::TrueShare
                    } else {
                        MissClass::FalseShare
                    }
                }
                Lost::Evicted { at_version } => {
                    if remote_wrote_since(at_version) {
                        MissClass::TrueShare
                    } else {
                        MissClass::Eviction
                    }
                }
                // Never lost but missing: can happen if the protocol dropped
                // the line without telling us (shouldn't); treat as eviction.
                Lost::NotLost => MissClass::Eviction,
            }
        };
        b.procs[proc].ever_cached = true;
        b.procs[proc].lost = Lost::NotLost;
        class
    }

    /// Number of blocks the classifier has metadata for.
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn first_access_is_cold() {
        let mut c = Classifier::new(4, 32);
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::Cold);
        // Second processor's first access is also cold.
        assert_eq!(c.classify_miss(1, l(1), 0, false), MissClass::Cold);
    }

    #[test]
    fn upgrade_wins_over_everything() {
        let mut c = Classifier::new(4, 32);
        assert_eq!(c.classify_miss(0, l(1), 0, true), MissClass::Upgrade);
    }

    #[test]
    fn true_sharing_after_remote_write_to_same_word() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false); // P0 caches it (cold)
        c.on_invalidate(0, l(1)); // ...loses it to an invalidation
        c.record_write(1, l(1), 0); // P1 writes the word P0 will read
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::TrueShare);
    }

    #[test]
    fn false_sharing_when_other_word_written() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false);
        c.on_invalidate(0, l(1));
        c.record_write(1, l(1), 5); // different word
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::FalseShare);
    }

    #[test]
    fn write_before_loss_does_not_count() {
        let mut c = Classifier::new(4, 32);
        c.record_write(1, l(1), 0); // remote write BEFORE P0 loses the block
        c.classify_miss(0, l(1), 0, false); // cold
        c.on_invalidate(0, l(1));
        // No writes since the invalidation → false sharing.
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::FalseShare);
    }

    #[test]
    fn eviction_miss_when_no_remote_write() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false);
        c.on_evict(0, l(1));
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::Eviction);
    }

    #[test]
    fn evicted_then_remotely_written_is_true_sharing() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false);
        c.on_evict(0, l(1));
        c.record_write(2, l(1), 0);
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::TrueShare);
    }

    #[test]
    fn own_writes_never_cause_sharing() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false);
        c.on_invalidate(0, l(1));
        c.record_write(0, l(1), 0); // own write (e.g. before the inval took effect)
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::FalseShare);
    }

    #[test]
    fn reacquire_resets_loss_state() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 0, false);
        c.on_invalidate(0, l(1));
        c.record_write(1, l(1), 0);
        c.classify_miss(0, l(1), 0, false); // true share; re-cached now
        c.on_evict(0, l(1));
        // Nothing written since the eviction → plain eviction miss.
        assert_eq!(c.classify_miss(0, l(1), 0, false), MissClass::Eviction);
    }

    #[test]
    fn blocks_are_tracked_lazily() {
        let mut c = Classifier::new(2, 32);
        assert_eq!(c.tracked_blocks(), 0);
        c.record_write(0, l(10), 0);
        c.classify_miss(1, l(20), 0, false);
        assert_eq!(c.tracked_blocks(), 2);
    }

    #[test]
    fn per_word_granularity_distinguishes_words() {
        let mut c = Classifier::new(4, 32);
        c.classify_miss(0, l(1), 3, false);
        c.on_invalidate(0, l(1));
        c.record_write(1, l(1), 3);
        c.record_write(1, l(1), 4);
        // Miss on word 4 (remotely written) → true.
        assert_eq!(c.classify_miss(0, l(1), 4, false), MissClass::TrueShare);
        c.on_invalidate(0, l(1));
        // Miss on word 9 (never written remotely) → false.
        assert_eq!(c.classify_miss(0, l(1), 9, false), MissClass::FalseShare);
    }
}
