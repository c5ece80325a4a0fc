//! Per-node simulation state: the processor's execution status, the node's
//! memory-system components, the protocol processor's local tables, and the
//! outstanding-transaction table (the equivalent of DASH RAC entries).

use crate::sync::{BarrierManager, LockManager};
use lrc_mem::{Bus, Cache, CoalescingBuffer, MemoryModule, TimedResource, WriteBuffer};
use lrc_sim::{
    BarrierId, Cycle, FxHashMap, FxHashSet, LineAddr, LockId, MachineConfig, Op, Protocol,
    StallKind,
};

/// Why a processor is not currently issuing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcStatus {
    /// Issuing operations (a `ProcStep` event is or will be scheduled).
    Running,
    /// Blocked on a read miss to this line.
    StalledRead(LineAddr),
    /// Blocked because the write buffer was full when this write was issued.
    StalledWriteFull,
    /// SC only: blocked until the current write transaction completes.
    StalledWrite(LineAddr),
    /// Performing the release fence before a lock release or barrier
    /// arrival: waiting for buffers and outstanding transactions to drain.
    Releasing(PendingSync),
    /// Waiting for a lock grant (and, lazy protocols, for the acquire-time
    /// invalidations to finish).
    WaitingLock(LockId),
    /// Waiting for the barrier release broadcast.
    InBarrier(BarrierId),
    /// Executed `Done`.
    Finished,
    // (Appended last: the derived `Hash` folds the variant index, and the
    // checker fingerprints depend on the indices above staying put.)
    /// Crash-stop victim: the node's state vanished and it will never
    /// issue, send, or receive again.
    Crashed,
}

/// What to do once the release fence completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingSync {
    /// Send `LockRel` and continue.
    LockRelease(LockId),
    /// Send `BarrierArrive` and wait in the barrier.
    Barrier(BarrierId),
}

/// An outstanding coherence transaction for one line (RAC entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Outstanding {
    /// A data reply (read or write fill) is still expected.
    pub waiting_data: bool,
    /// A final `WriteAck` (collection completion) is still expected.
    pub waiting_ack: bool,
    /// The `WriteAck` overtook the `WriteReply{Pending}` that announces it
    /// (the reply can lag behind on the home's memory access): remember it
    /// so the late reply doesn't wait for an ack that already came.
    pub early_ack: bool,
    /// The stalled processor should resume when data arrives (read miss or
    /// SC write miss).
    pub resume_proc: bool,
    /// A write-buffer entry retires when this transaction's reply arrives.
    pub retire_wb: bool,
    /// Words to commit to the cache when the transaction's data/grant
    /// arrives (SC blocking writes).
    pub apply_words: u64,
    /// An invalidation (eager) or write notice (lazy) arrived while the
    /// fill was in flight — the RAC race. The fill satisfies the one
    /// waiting access, then the copy is dropped (eager) or queued for
    /// acquire-time invalidation (lazy).
    pub stale_on_fill: bool,
}

impl Outstanding {
    /// Transaction fully complete (entry can be deallocated)?
    pub fn done(&self) -> bool {
        !self.waiting_data && !self.waiting_ack
    }
}

/// All state co-located at one node of the machine.
#[derive(Debug, Clone)]
pub struct Node {
    /// The processor's execution status.
    pub status: ProcStatus,
    /// When the current stall began (for cycle attribution).
    pub stall_start: Cycle,
    /// Which bucket the current stall belongs to.
    pub stall_kind: StallKind,
    /// Operation that could not be issued and must be retried on resume.
    pub deferred_op: Option<Op>,
    /// True when a `ProcStep` event is already queued for this processor.
    pub step_scheduled: bool,

    /// Data cache.
    pub cache: Cache,
    /// Processor write buffer (relaxed protocols; unused under SC).
    pub wb: WriteBuffer,
    /// Coalescing write-through buffer (lazy protocols).
    pub cb: CoalescingBuffer,
    /// This node's slice of main memory.
    pub mem: MemoryModule,
    /// Local bus (cache-fill path).
    pub bus: Bus,
    /// Protocol processor occupancy.
    pub pp: TimedResource,

    /// Outstanding transactions by line. Fx-hashed (iteration order is
    /// arbitrary; every order-sensitive consumer sorts, and the checker's
    /// fingerprint folds the table as a multiset).
    pub outstanding: FxHashMap<u64, Outstanding>,
    /// Lines to invalidate at the next acquire (lazy protocols): received
    /// write notices and weak-flagged fills. Processed in ascending line
    /// order (`process_pending_invals` sorts its batch).
    pub pending_invals: FxHashSet<u64>,
    /// Conservative overflow fallback (finite write-notice buffers only):
    /// the pending-inval set hit its cap, so the next acquire invalidates
    /// *every* cached shared line instead of a precise list. Set ⇒
    /// `pending_invals` is empty (the set collapsed into this bit).
    pub inval_all: bool,
    /// Lazy-ext: writes whose notices are deferred to the next release,
    /// keyed by line, value = accumulated dirty-word mask. Flushed in
    /// ascending line order (`flush_release_buffers` sorts).
    pub delayed_writes: FxHashMap<u64, u64>,
    /// Write-throughs sent but not yet acknowledged.
    pub wt_unacked: u32,
    /// Write-backs sent but not yet acknowledged.
    pub wbk_unacked: u32,
    /// Completion time of the most recent acquire-time invalidation batch.
    pub inval_done_at: Cycle,
    /// Forwards (eager 3-hop) that arrived while this node's own data for
    /// the line was still in flight: served as soon as the fill lands,
    /// instead of NACKing a copy that is about to exist ("phantom owner").
    pub parked_forwards: FxHashMap<u64, crate::msg::Msg>,

    /// Lock service for locks homed here.
    pub locks: LockManager,
    /// Barrier service for barriers homed here.
    pub barriers: BarrierManager,
}

impl Node {
    /// Build a node for `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Node {
            status: ProcStatus::Running,
            stall_start: 0,
            stall_kind: StallKind::Cpu,
            deferred_op: None,
            step_scheduled: false,
            cache: Cache::new(cfg),
            wb: WriteBuffer::new(cfg.write_buffer_entries),
            cb: CoalescingBuffer::new(cfg.coalescing_buffer_entries),
            mem: MemoryModule::new(cfg),
            bus: Bus::new(cfg),
            pp: TimedResource::new(),
            outstanding: FxHashMap::default(),
            pending_invals: FxHashSet::default(),
            inval_all: false,
            delayed_writes: FxHashMap::default(),
            wt_unacked: 0,
            wbk_unacked: 0,
            inval_done_at: 0,
            parked_forwards: FxHashMap::default(),
            locks: LockManager::new(),
            barriers: BarrierManager::new(),
        }
    }

    /// The release fence condition: every prior write has globally
    /// performed. Exactly the paper's three conditions — write buffer
    /// flushed, outstanding transactions serviced, write-backs/-throughs
    /// acknowledged.
    pub fn fence_clear(&self, protocol: Protocol) -> bool {
        let buffers = self.wb.is_empty()
            && self.outstanding.is_empty()
            && self.wbk_unacked == 0;
        let lazy = !protocol.is_lazy() || (self.cb.is_empty() && self.wt_unacked == 0);
        let ext = protocol != Protocol::LrcExt || self.delayed_writes.is_empty();
        buffers && lazy && ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(&MachineConfig::paper_default(4))
    }

    #[test]
    fn fresh_node_fence_is_clear() {
        let n = node();
        for p in Protocol::ALL {
            assert!(n.fence_clear(p), "{p}");
        }
    }

    #[test]
    fn outstanding_blocks_fence() {
        let mut n = node();
        n.outstanding.insert(3, Outstanding { waiting_ack: true, ..Default::default() });
        assert!(!n.fence_clear(Protocol::Erc));
        n.outstanding.remove(&3);
        assert!(n.fence_clear(Protocol::Erc));
    }

    #[test]
    fn coalescing_buffer_blocks_lazy_fence_only() {
        let mut n = node();
        n.cb.push(LineAddr(1), 0);
        assert!(n.fence_clear(Protocol::Erc));
        assert!(!n.fence_clear(Protocol::Lrc));
        assert!(!n.fence_clear(Protocol::LrcExt));
    }

    #[test]
    fn unacked_write_through_blocks_lazy_fence() {
        let mut n = node();
        n.wt_unacked = 1;
        assert!(!n.fence_clear(Protocol::Lrc));
        assert!(n.fence_clear(Protocol::Sc));
    }

    #[test]
    fn delayed_writes_block_lazy_ext_only() {
        let mut n = node();
        n.delayed_writes.insert(5, 0b1);
        assert!(n.fence_clear(Protocol::Lrc));
        assert!(!n.fence_clear(Protocol::LrcExt));
    }

    #[test]
    fn outstanding_done_logic() {
        let mut o = Outstanding { waiting_data: true, waiting_ack: true, ..Default::default() };
        assert!(!o.done());
        o.waiting_data = false;
        assert!(!o.done());
        o.waiting_ack = false;
        assert!(o.done());
    }
}
