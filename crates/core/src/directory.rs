//! The distributed directory: one entry per cache block, held at the block's
//! home node.
//!
//! The paper's Figure 1 gives the global state machine:
//!
//! ```text
//!              read                     write
//!   Uncached ───────► Shared   Uncached ───────► Dirty
//!
//!              write (only sharer)               write (others share)
//!   Shared ───────► Dirty           Shared ───────► Weak  + send notices
//!
//!              read/write by another
//!   Dirty ───────► Weak  + notice to the writer
//!
//!              last writer leaves              last sharer leaves
//!   Weak ───────► Shared            Shared ───────► Uncached
//! ```
//!
//! State is **derived** from the sharer and writer sets rather than stored,
//! which makes the "counters match the bitmasks" invariant structural:
//!
//! * `Uncached` — no sharers.
//! * `Shared`   — ≥ 1 sharer, no writers.
//! * `Dirty`    — exactly one sharer, who is also a writer.
//! * `Weak`     — ≥ 2 sharers with ≥ 1 writer (lazy protocols only).
//!
//! Each entry also carries the per-sharer *notified* bits ("this processor
//! has been told the block is weak") and the in-flight acknowledgement
//! collection used when a weak transition fans out write notices (the paper
//! collects acks at the home and acknowledges all pending writers at once).

use lrc_sim::NodeId;

/// A set of node ids, wide enough for the largest supported machine
/// (256 nodes — a 16×16 mesh). Semantically a plain bitmask; it replaces
/// the former single-`u64` sharer masks so directories scale past 64
/// processors without changing any set algebra at the call sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NodeSet([u64; 4]);

impl NodeSet {
    /// Maximum node id + 1 a set can represent.
    pub const CAPACITY: usize = 256;
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet([0; 4]);

    /// The singleton set `{node}`.
    #[inline]
    pub fn one(node: NodeId) -> Self {
        let mut s = NodeSet::EMPTY;
        s.insert(node);
        s
    }

    /// The set `{0, 1, …, n-1}` — every node of an `n`-processor machine.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::CAPACITY, "NodeSet holds at most {} nodes", Self::CAPACITY);
        let mut s = NodeSet::EMPTY;
        for (i, limb) in s.0.iter_mut().enumerate() {
            let lo = i * 64;
            *limb = if n >= lo + 64 {
                u64::MAX
            } else if n > lo {
                (1u64 << (n - lo)) - 1
            } else {
                0
            };
        }
        s
    }

    /// Is `node` in the set?
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.0[node / 64] & (1u64 << (node % 64)) != 0
    }

    /// Add `node`.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.0[node / 64] |= 1u64 << (node % 64);
    }

    /// Remove `node`.
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        self.0[node / 64] &= !(1u64 << (node % 64));
    }

    /// True when no node is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0u64; 4]
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|l| l.count_ones()).sum()
    }

    /// Smallest node id in the set, if any.
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        for (i, limb) in self.0.iter().enumerate() {
            if *limb != 0 {
                return Some(i * 64 + limb.trailing_zeros() as usize);
            }
        }
        None
    }
}

impl std::ops::BitAnd for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn bitand(self, rhs: NodeSet) -> NodeSet {
        NodeSet([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl std::ops::BitOr for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn bitor(self, rhs: NodeSet) -> NodeSet {
        NodeSet([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl std::ops::Not for NodeSet {
    type Output = NodeSet;
    /// Complement over the full 256-bit capacity; intersect with a machine's
    /// node set (e.g. `Machine::all_nodes_mask`) before iterating.
    #[inline]
    fn not(self) -> NodeSet {
        NodeSet([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl std::ops::BitAndAssign for NodeSet {
    #[inline]
    fn bitand_assign(&mut self, rhs: NodeSet) {
        *self = *self & rhs;
    }
}

impl std::ops::BitOrAssign for NodeSet {
    #[inline]
    fn bitor_assign(&mut self, rhs: NodeSet) {
        *self = *self | rhs;
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl std::fmt::Binary for NodeSet {
    /// Renders like the binary of the old `u64` masks (no leading zeros),
    /// so directory dumps and violation reports keep their shape.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut started = false;
        for limb in self.0.iter().rev() {
            if started {
                write!(f, "{limb:064b}")?;
            } else if *limb != 0 {
                write!(f, "{limb:b}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// Global (directory) state of a block. Derived from the sharer/writer sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies.
    Uncached,
    /// Cached read-only by one or more processors.
    Shared,
    /// Cached by exactly one processor, which is writing it.
    Dirty,
    /// Cached by two or more processors, at least one of which is writing.
    Weak,
}

/// An in-progress acknowledgement collection (invalidation acks for the
/// eager protocols, write-notice acks for the lazy ones). The home collects
/// them and then releases every waiter with a single ack apiece.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckCollection {
    /// Acks still outstanding.
    pub awaiting: u32,
    /// Requesters to notify when the collection completes.
    pub waiters: Vec<NodeId>,
    /// The nodes the outstanding acks are owed by, as a multiset (overflow
    /// broadcasts can owe one node two acks across joined rounds), with
    /// `from.len() == awaiting` at all times. Crash recovery uses this to
    /// forge exactly the acks a dead node can never send.
    pub from: Vec<NodeId>,
}

impl AckCollection {
    /// Remove one owed ack from `node`. Returns false when none was owed
    /// (a stray or already-forged ack).
    pub fn take_owed(&mut self, node: NodeId) -> bool {
        match self.from.iter().position(|&n| n == node) {
            Some(i) => {
                self.from.remove(i);
                true
            }
            None => false,
        }
    }
}

/// Directory entry for one block.
#[derive(Debug, Clone, Default)]
pub struct DirEntry {
    sharers: NodeSet,
    writers: NodeSet,
    notified: NodeSet,
    /// Outstanding ack collection, if any.
    pub pending: Option<AckCollection>,
    /// A 3-hop forward is in flight (eager protocols): the home must not
    /// process further requests for this block until the owner's
    /// `CopyBack` or `ForwardNack` arrives, or ownership could rotate
    /// among requesters that never received data (a NACK livelock).
    pub busy: bool,
    /// Limited-pointer directories: more sharers than pointers — precise
    /// membership is lost and coherence actions must broadcast. Cleared
    /// when the block returns to Uncached.
    pub overflow: bool,
}

impl DirEntry {
    /// A fresh entry (Uncached).
    pub fn new() -> Self {
        DirEntry::default()
    }

    /// Rebuild an entry from checkpointed parts. Fails when the structural
    /// invariants (writers ⊆ sharers, notified ⊆ sharers) do not hold —
    /// corrupt checkpoints surface as typed errors, not debug panics.
    pub fn from_parts(
        sharers: NodeSet,
        writers: NodeSet,
        notified: NodeSet,
        pending: Option<AckCollection>,
        busy: bool,
        overflow: bool,
    ) -> Result<Self, String> {
        if !(writers & !sharers).is_empty() {
            return Err("directory entry: writers must be a subset of sharers".into());
        }
        if !(notified & !sharers).is_empty() {
            return Err("directory entry: notified must be a subset of sharers".into());
        }
        Ok(DirEntry { sharers, writers, notified, pending, busy, overflow })
    }

    /// Current derived state.
    pub fn state(&self) -> DirState {
        if self.sharers.is_empty() {
            DirState::Uncached
        } else if self.writers.is_empty() {
            DirState::Shared
        } else if self.sharers.count_ones() == 1 {
            debug_assert_eq!(self.sharers, self.writers);
            DirState::Dirty
        } else {
            DirState::Weak
        }
    }

    /// Set of processors caching the block.
    pub fn sharers(&self) -> NodeSet {
        self.sharers
    }

    /// Set of processors writing the block (⊆ sharers).
    pub fn writers(&self) -> NodeSet {
        self.writers
    }

    /// Sharers already told the block is weak (⊆ sharers).
    pub fn notified(&self) -> NodeSet {
        self.notified
    }

    /// Number of processors caching the block.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// Number of processors writing the block.
    pub fn writer_count(&self) -> u32 {
        self.writers.count_ones()
    }

    /// Is `node` a sharer?
    pub fn is_sharer(&self, node: NodeId) -> bool {
        self.sharers.contains(node)
    }

    /// Is `node` a writer?
    pub fn is_writer(&self, node: NodeId) -> bool {
        self.writers.contains(node)
    }

    /// Is `node` recorded as notified of the weak state?
    pub fn is_notified(&self, node: NodeId) -> bool {
        self.notified.contains(node)
    }

    /// The single owner when the block is [`DirState::Dirty`].
    pub fn dirty_owner(&self) -> Option<NodeId> {
        if self.state() == DirState::Dirty {
            self.writers.first()
        } else {
            None
        }
    }

    /// Add `node` as a reader.
    pub fn add_sharer(&mut self, node: NodeId) {
        self.sharers.insert(node);
        self.check();
    }

    /// Add `node` as a writer (implies sharer).
    pub fn add_writer(&mut self, node: NodeId) {
        self.sharers.insert(node);
        self.writers.insert(node);
        self.check();
    }

    /// Record that `node` has been told the block is weak.
    pub fn mark_notified(&mut self, node: NodeId) {
        debug_assert!(self.is_sharer(node), "notified must be a sharer");
        self.notified.insert(node);
        self.check();
    }

    /// Remove `node` entirely (invalidation at acquire, eviction, or an
    /// eager-protocol invalidation). Reverts Weak→Shared / →Uncached
    /// automatically because state is derived; an overflowed
    /// limited-pointer entry regains precision only at Uncached.
    pub fn remove(&mut self, node: NodeId) {
        self.sharers.remove(node);
        self.writers.remove(node);
        self.notified.remove(node);
        if self.sharers.is_empty() {
            self.overflow = false;
        }
        self.check();
    }

    /// Demote `node` from writer to plain sharer (eager read-forward).
    pub fn demote_writer(&mut self, node: NodeId) {
        self.writers.remove(node);
        self.check();
    }

    /// Remove every sharer except `keep` (eager write: invalidation of all
    /// other copies). Returns the set of removed sharers.
    pub fn remove_all_except(&mut self, keep: NodeId) -> NodeSet {
        let keep_mask = NodeSet::one(keep);
        let removed = self.sharers & !keep_mask;
        self.sharers &= keep_mask;
        self.writers &= keep_mask;
        self.notified &= keep_mask;
        if self.sharers.is_empty() {
            self.overflow = false;
        }
        self.check();
        removed
    }

    /// Sharers other than `node` that have *not* yet been notified of the
    /// weak state: the targets of a new round of write notices.
    pub fn unnotified_others(&self, node: NodeId) -> NodeSet {
        self.sharers & !self.notified & !NodeSet::one(node)
    }

    /// Structural invariants (debug builds).
    #[inline]
    fn check(&self) {
        debug_assert!((self.writers & !self.sharers).is_empty(), "writers ⊆ sharers");
        debug_assert!((self.notified & !self.sharers).is_empty(), "notified ⊆ sharers");
    }
}

/// Iterate the node ids set in `mask`, ascending. A hand-rolled word loop
/// (rather than a `flat_map` chain) because write-notice and invalidation
/// fan-out sits on the simulator's hottest path: `next` clears one bit and
/// only advances limbs when the current one drains.
pub fn nodes_in(mask: NodeSet) -> NodesIn {
    NodesIn { limbs: mask.0, i: 0 }
}

/// Ascending iterator over a [`NodeSet`] (see [`nodes_in`]).
#[derive(Debug, Clone)]
pub struct NodesIn {
    limbs: [u64; 4],
    i: usize,
}

impl Iterator for NodesIn {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.i < self.limbs.len() {
            let limb = self.limbs[self.i];
            if limb != 0 {
                let n = self.i * 64 + limb.trailing_zeros() as usize;
                self.limbs[self.i] = limb & (limb - 1);
                return Some(n);
            }
            self.i += 1;
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.limbs[self.i..].iter().map(|l| l.count_ones() as usize).sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodesIn {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_uncached() {
        let e = DirEntry::new();
        assert_eq!(e.state(), DirState::Uncached);
        assert_eq!(e.sharer_count(), 0);
    }

    #[test]
    fn figure1_read_from_uncached() {
        let mut e = DirEntry::new();
        e.add_sharer(3);
        assert_eq!(e.state(), DirState::Shared);
        e.add_sharer(5);
        assert_eq!(e.state(), DirState::Shared);
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    fn figure1_write_from_uncached_goes_dirty() {
        let mut e = DirEntry::new();
        e.add_writer(2);
        assert_eq!(e.state(), DirState::Dirty);
        assert_eq!(e.dirty_owner(), Some(2));
    }

    #[test]
    fn figure1_write_by_only_sharer_goes_dirty() {
        let mut e = DirEntry::new();
        e.add_sharer(1);
        e.add_writer(1);
        assert_eq!(e.state(), DirState::Dirty);
    }

    #[test]
    fn figure1_write_with_other_sharers_goes_weak() {
        let mut e = DirEntry::new();
        e.add_sharer(0);
        e.add_sharer(1);
        e.add_writer(1);
        assert_eq!(e.state(), DirState::Weak);
        assert_eq!(e.unnotified_others(1), NodeSet::one(0));
    }

    #[test]
    fn figure1_read_of_dirty_goes_weak() {
        let mut e = DirEntry::new();
        e.add_writer(4);
        e.add_sharer(7);
        assert_eq!(e.state(), DirState::Weak);
        // The current writer is the one that must be notified.
        assert_eq!(e.unnotified_others(7), NodeSet::one(4));
    }

    #[test]
    fn weak_reverts_to_shared_then_uncached() {
        let mut e = DirEntry::new();
        e.add_sharer(0);
        e.add_writer(1);
        e.add_writer(2);
        assert_eq!(e.state(), DirState::Weak);
        e.remove(1);
        assert_eq!(e.state(), DirState::Weak); // still writer 2 + sharer 0
        e.remove(2);
        assert_eq!(e.state(), DirState::Shared);
        e.remove(0);
        assert_eq!(e.state(), DirState::Uncached);
    }

    #[test]
    fn notified_is_cleared_on_removal() {
        let mut e = DirEntry::new();
        e.add_sharer(0);
        e.add_writer(1);
        e.mark_notified(0);
        assert!(e.is_notified(0));
        assert_eq!(e.unnotified_others(1), NodeSet::EMPTY);
        e.remove(0);
        assert!(!e.is_notified(0));
    }

    #[test]
    fn notices_sent_once_per_sharer() {
        let mut e = DirEntry::new();
        e.add_sharer(0);
        e.add_sharer(1);
        e.add_writer(2);
        assert_eq!(e.state(), DirState::Weak);
        assert_eq!(e.unnotified_others(2), NodeSet::from_iter([0, 1]));
        e.mark_notified(0);
        e.mark_notified(1);
        // Second writer arrives: nobody new to notify except... writer 2,
        // which has not been notified.
        e.add_writer(3);
        assert_eq!(e.unnotified_others(3), NodeSet::one(2));
    }

    #[test]
    fn demote_writer_on_read_forward() {
        let mut e = DirEntry::new();
        e.add_writer(5);
        e.add_sharer(6);
        e.demote_writer(5);
        assert_eq!(e.state(), DirState::Shared);
        assert!(e.is_sharer(5) && e.is_sharer(6));
    }

    #[test]
    fn remove_all_except_for_eager_write() {
        let mut e = DirEntry::new();
        e.add_sharer(0);
        e.add_sharer(1);
        e.add_sharer(2);
        let removed = e.remove_all_except(1);
        assert_eq!(removed, NodeSet::from_iter([0, 2]));
        assert_eq!(e.sharers(), NodeSet::one(1));
        e.add_writer(1);
        assert_eq!(e.state(), DirState::Dirty);
    }

    #[test]
    fn counters_match_popcounts() {
        let mut e = DirEntry::new();
        for n in [0usize, 3, 7, 12, 63] {
            e.add_sharer(n);
        }
        e.add_writer(7);
        assert_eq!(e.sharer_count(), 5);
        assert_eq!(e.writer_count(), 1);
        assert_eq!(e.sharers().count_ones(), e.sharer_count());
        assert_eq!(e.writers().count_ones(), e.writer_count());
    }

    #[test]
    fn nodes_in_iterates_ascending() {
        let v: Vec<_> = nodes_in(NodeSet::from_iter([1, 2, 5, 7])).collect();
        assert_eq!(v, vec![1, 2, 5, 7]);
        assert_eq!(nodes_in(NodeSet::EMPTY).count(), 0);
        assert_eq!(nodes_in(NodeSet::one(63)).collect::<Vec<_>>(), vec![63]);
        assert_eq!(nodes_in(NodeSet::one(255)).collect::<Vec<_>>(), vec![255]);
    }

    #[test]
    fn dirty_owner_only_when_dirty() {
        let mut e = DirEntry::new();
        assert_eq!(e.dirty_owner(), None);
        e.add_sharer(2);
        assert_eq!(e.dirty_owner(), None);
        e.add_writer(2);
        assert_eq!(e.dirty_owner(), Some(2));
        e.add_sharer(3);
        assert_eq!(e.dirty_owner(), None); // weak now
    }
}
