//! Synchronization services: message-based queued locks and a counter
//! barrier, served by the protocol processor at each primitive's home node.
//!
//! Locks are acquire points and unlocks are release points in the RC sense;
//! barriers act as a release (on arrival) plus an acquire (on departure).
//! The managers here are pure state machines — the machine layer charges
//! protocol-processor time and sends the messages they prescribe.

use lrc_sim::{BarrierId, LockId, MultisetHash, NodeId};
use std::collections::{HashMap, VecDeque};

/// State of all locks homed at one node (keyed by lock id).
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    locks: HashMap<LockId, LockState>,
}

#[derive(Debug, Clone, Default)]
struct LockState {
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
}

/// What the home should do in response to a lock message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockAction {
    /// Send a grant to this node.
    Grant(NodeId),
    /// Nothing to send (requester queued, or lock simply freed).
    None,
}

impl LockManager {
    /// Fresh manager with no locks held.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// A node requests the lock. Returns `Grant(node)` if it is free.
    pub fn acquire(&mut self, lock: LockId, node: NodeId) -> LockAction {
        let st = self.locks.entry(lock).or_default();
        match st.holder {
            None => {
                st.holder = Some(node);
                LockAction::Grant(node)
            }
            Some(_) => {
                st.queue.push_back(node);
                LockAction::None
            }
        }
    }

    /// The holder releases the lock. Returns a grant for the next waiter,
    /// if any.
    pub fn release(&mut self, lock: LockId, node: NodeId) -> LockAction {
        let st = self.locks.entry(lock).or_default();
        debug_assert_eq!(st.holder, Some(node), "release by non-holder");
        match st.queue.pop_front() {
            Some(next) => {
                st.holder = Some(next);
                LockAction::Grant(next)
            }
            None => {
                st.holder = None;
                LockAction::None
            }
        }
    }

    /// Current holder of `lock` (tests / diagnostics).
    pub fn holder(&self, lock: LockId) -> Option<NodeId> {
        self.locks.get(&lock).and_then(|s| s.holder)
    }

    /// Number of nodes queued on `lock`.
    pub fn queue_len(&self, lock: LockId) -> usize {
        self.locks.get(&lock).map_or(0, |s| s.queue.len())
    }

    /// Locks with a holder or a waiter. An idle entry behaves exactly like
    /// an absent one, so neither fingerprints nor checkpoints list it.
    fn active(&self) -> impl Iterator<Item = (LockId, &LockState)> {
        self.locks
            .iter()
            .filter(|(_, s)| s.holder.is_some() || !s.queue.is_empty())
            .map(|(&l, s)| (l, s))
    }

    /// Order-independent hash of every active lock's `(lock, holder,
    /// waiters)`, the waiters in FIFO order — the lock service's part of
    /// the model checker's state fingerprint. A used-then-freed lock
    /// hashes like a never-used one.
    pub fn state_hash(&self) -> MultisetHash {
        self.active().map(|(l, s)| (l, s.holder, &s.queue)).collect()
    }

    /// Exact checkpoint: every active lock as `(lock, holder, waiters)`,
    /// sorted by id, the waiter lists in FIFO order (which decides future
    /// grants). Restorable via [`LockManager::restore`].
    pub fn save_exact(&self) -> Vec<(LockId, Option<NodeId>, Vec<NodeId>)> {
        let mut out: Vec<_> =
            self.active().map(|(l, s)| (l, s.holder, s.queue.iter().copied().collect())).collect();
        out.sort_unstable_by_key(|&(l, ..)| l);
        out
    }

    /// Replace all lock state with a checkpoint from
    /// [`LockManager::save_exact`].
    pub fn restore(&mut self, locks: &[(LockId, Option<NodeId>, Vec<NodeId>)]) {
        self.locks.clear();
        for (l, holder, queue) in locks {
            self.locks.insert(
                *l,
                LockState { holder: *holder, queue: queue.iter().copied().collect() },
            );
        }
    }

    /// Crash-stop reclamation: expunge `dead` from every lock it holds or
    /// waits on. A lock held by the dead node passes to its next live
    /// waiter; dead waiters are simply dropped. Returns the grants to send
    /// (`(lock, next_holder)`), sorted by lock id for determinism, plus
    /// the number of locks whose dead holder was evicted.
    pub fn purge(&mut self, dead: NodeId) -> (Vec<(LockId, NodeId)>, u64) {
        let mut grants = Vec::new();
        let mut reclaimed = 0u64;
        for (&lock, st) in self.locks.iter_mut() {
            st.queue.retain(|&n| n != dead);
            if st.holder == Some(dead) {
                reclaimed += 1;
                match st.queue.pop_front() {
                    Some(next) => {
                        st.holder = Some(next);
                        grants.push((lock, next));
                    }
                    None => st.holder = None,
                }
            }
        }
        grants.sort_unstable_by_key(|&(l, _)| l);
        (grants, reclaimed)
    }
}

/// State of all barriers homed at one node.
#[derive(Debug, Clone, Default)]
pub struct BarrierManager {
    barriers: HashMap<BarrierId, BarrierState>,
}

#[derive(Debug, Clone, Default)]
struct BarrierState {
    arrived: Vec<NodeId>,
}

impl BarrierManager {
    /// Fresh manager.
    pub fn new() -> Self {
        BarrierManager::default()
    }

    /// A node arrives at `bar`, which completes when `expected` nodes have
    /// arrived. Returns the full arrival list (to broadcast the release to)
    /// when this arrival is the last one.
    pub fn arrive(&mut self, bar: BarrierId, node: NodeId, expected: usize) -> Option<Vec<NodeId>> {
        let st = self.barriers.entry(bar).or_default();
        debug_assert!(!st.arrived.contains(&node), "double arrival at barrier");
        st.arrived.push(node);
        if st.arrived.len() == expected {
            // Reset for reuse: workloads re-enter the same barrier id each
            // phase.
            Some(std::mem::take(&mut st.arrived))
        } else {
            None
        }
    }

    /// How many nodes are currently waiting at `bar`.
    pub fn waiting(&self, bar: BarrierId) -> usize {
        self.barriers.get(&bar).map_or(0, |s| s.arrived.len())
    }

    /// Order-independent hash of every barrier's arrival *set* (arrival
    /// order ignored), empty episodes omitted — the barrier service's part
    /// of the model checker's state fingerprint.
    pub fn state_hash(&self) -> MultisetHash {
        self.barriers
            .iter()
            .filter(|(_, s)| !s.arrived.is_empty())
            .map(|(&b, s)| (b, s.arrived.iter().collect::<MultisetHash>()))
            .collect()
    }

    /// Exact checkpoint: sorted by barrier id, empty episodes omitted, but
    /// each arrival list in **arrival order** (which fixes the release
    /// broadcast order), unlike the fingerprint-oriented
    /// [`BarrierManager::state_hash`]. Restorable via
    /// [`BarrierManager::restore`].
    pub fn save_exact(&self) -> Vec<(BarrierId, Vec<NodeId>)> {
        let mut out: Vec<_> = self
            .barriers
            .iter()
            .filter(|(_, s)| !s.arrived.is_empty())
            .map(|(&b, s)| (b, s.arrived.clone()))
            .collect();
        out.sort_unstable_by_key(|&(b, _)| b);
        out
    }

    /// Replace all barrier state with a checkpoint from
    /// [`BarrierManager::save_exact`].
    pub fn restore(&mut self, barriers: &[(BarrierId, Vec<NodeId>)]) {
        self.barriers.clear();
        for (b, arrived) in barriers {
            self.barriers.insert(*b, BarrierState { arrived: arrived.clone() });
        }
    }

    /// Crash-stop reclamation: remove `dead` from every in-progress
    /// episode, then re-check completion against the post-crash
    /// `expected` count — with one fewer participant, an episode the dead
    /// node never reached may now be full. Returns the completed barriers
    /// with their (live) arrival lists to release, sorted by barrier id,
    /// plus the number of dead arrival slots dropped.
    pub fn purge(
        &mut self,
        dead: NodeId,
        expected: usize,
    ) -> (Vec<(BarrierId, Vec<NodeId>)>, u64) {
        let mut released = Vec::new();
        let mut slots = 0u64;
        for (&bar, st) in self.barriers.iter_mut() {
            let before = st.arrived.len();
            st.arrived.retain(|&n| n != dead);
            slots += (before - st.arrived.len()) as u64;
            if !st.arrived.is_empty() && st.arrived.len() >= expected {
                released.push((bar, std::mem::take(&mut st.arrived)));
            }
        }
        released.sort_unstable_by_key(|&(b, _)| b);
        (released, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_lock_grants_immediately() {
        let mut m = LockManager::new();
        assert_eq!(m.acquire(0, 3), LockAction::Grant(3));
        assert_eq!(m.holder(0), Some(3));
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let mut m = LockManager::new();
        m.acquire(0, 1);
        assert_eq!(m.acquire(0, 2), LockAction::None);
        assert_eq!(m.acquire(0, 3), LockAction::None);
        assert_eq!(m.queue_len(0), 2);
        assert_eq!(m.release(0, 1), LockAction::Grant(2));
        assert_eq!(m.release(0, 2), LockAction::Grant(3));
        assert_eq!(m.release(0, 3), LockAction::None);
        assert_eq!(m.holder(0), None);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut m = LockManager::new();
        assert_eq!(m.acquire(0, 1), LockAction::Grant(1));
        assert_eq!(m.acquire(1, 2), LockAction::Grant(2));
        assert_eq!(m.holder(0), Some(1));
        assert_eq!(m.holder(1), Some(2));
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut b = BarrierManager::new();
        assert_eq!(b.arrive(0, 0, 3), None);
        assert_eq!(b.arrive(0, 1, 3), None);
        assert_eq!(b.waiting(0), 2);
        let released = b.arrive(0, 2, 3).unwrap();
        assert_eq!(released.len(), 3);
        assert!(released.contains(&0) && released.contains(&1) && released.contains(&2));
    }

    #[test]
    fn barrier_is_reusable() {
        let mut b = BarrierManager::new();
        for round in 0..5 {
            assert_eq!(b.arrive(7, 0, 2), None, "round {round}");
            assert!(b.arrive(7, 1, 2).is_some(), "round {round}");
            assert_eq!(b.waiting(7), 0);
        }
    }

    #[test]
    fn single_proc_barrier_releases_instantly() {
        let mut b = BarrierManager::new();
        assert_eq!(b.arrive(0, 0, 1), Some(vec![0]));
    }

    #[test]
    fn lock_purge_passes_grant_over_dead_holder_and_waiters() {
        let mut m = LockManager::new();
        m.acquire(0, 1); // 1 holds lock 0
        m.acquire(0, 2); // 2 queued
        m.acquire(0, 3); // 3 queued
        m.acquire(1, 2); // 2 holds lock 1, nobody queued
        m.acquire(2, 4); // 4 holds lock 2
        m.acquire(2, 1); // dead node also waits on a live lock

        // Node 1 dies: lock 0 passes to 2; its slot in lock 2's queue goes.
        let (grants, reclaimed) = m.purge(1);
        assert_eq!(grants, vec![(0, 2)]);
        assert_eq!(reclaimed, 1);
        assert_eq!(m.holder(0), Some(2));
        assert_eq!(m.queue_len(2), 0);

        // Node 2 dies holding both: lock 0 passes to 3, lock 1 frees.
        let (grants, reclaimed) = m.purge(2);
        assert_eq!(grants, vec![(0, 3)]);
        assert_eq!(reclaimed, 2);
        assert_eq!(m.holder(1), None);
    }

    #[test]
    fn barrier_purge_completes_short_handed_episodes() {
        let mut b = BarrierManager::new();
        // 3 of 4 arrived; the missing node dies, expected drops to 3.
        assert_eq!(b.arrive(0, 0, 4), None);
        assert_eq!(b.arrive(0, 1, 4), None);
        assert_eq!(b.arrive(0, 2, 4), None);
        let (released, slots) = b.purge(3, 3);
        assert_eq!(slots, 0, "the dead node had not arrived");
        assert_eq!(released, vec![(0, vec![0, 1, 2])]);
        assert_eq!(b.waiting(0), 0);

        // The dead node *had* arrived: its slot is dropped, the episode
        // waits for the remaining live arrivals.
        assert_eq!(b.arrive(1, 3, 4), None);
        assert_eq!(b.arrive(1, 0, 4), None);
        let (released, slots) = b.purge(3, 3);
        assert_eq!(slots, 1);
        assert!(released.is_empty());
        assert_eq!(b.waiting(1), 1);
    }
}
