//! The front-end interface: workloads feed each simulated processor a
//! deterministic stream of abstract operations.
//!
//! This is the substitute for the paper's Mint (MIPS II) execution-driven
//! front end. The coherence protocols are sensitive to the *address stream
//! and synchronization structure* of a program, not to its instruction
//! semantics, so each application is expressed as a per-processor generator
//! of [`Op`]s. Synchronization operations (locks and barriers) are resolved
//! by the simulated machine, so the interleaving — and therefore all timing —
//! is decided by the simulated protocol exactly as in an execution-driven
//! simulation of a data-race-free program.

use crate::types::{Addr, BarrierId, LockId, ProcId};
use std::sync::Arc;

/// One abstract operation issued by a simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Execute `cycles` of purely local computation.
    Compute(u32),
    /// Load one word at the given byte address.
    Read(Addr),
    /// Store one word at the given byte address.
    Write(Addr),
    /// Acquire the given lock (an *acquire* in the RC sense).
    Acquire(LockId),
    /// Release the given lock (a *release* in the RC sense).
    Release(LockId),
    /// Wait at the given barrier (a release on arrival + acquire on exit).
    Barrier(BarrierId),
    /// Force pending invalidations to be applied without acquiring anything
    /// (the "fence" the paper suggests for programs with data races).
    Fence,
    /// This processor has finished; it will issue no further operations.
    Done,
}

/// A parallel program presented as per-processor operation streams.
///
/// Implementations must be deterministic: `next_op(p)` depends only on the
/// sequence of previous calls for processor `p`, never on simulated time.
/// That per-processor independence is also what lets a snapshot restore
/// fast-forward a fresh instance by replaying each processor's consumed-op
/// count. `Send` is required so machines (which own their workload) can
/// move onto worker threads.
pub trait Workload: Send {
    /// Short stable name (used in reports: `gauss`, `fft`, ...).
    fn name(&self) -> &str;

    /// Number of processors this instance was built for.
    fn num_procs(&self) -> usize;

    /// Size in bytes of the shared address space the workload touches.
    /// Addresses produced by `next_op` must be `< addr_space()`.
    fn addr_space(&self) -> u64;

    /// Number of distinct lock variables used (lock ids are `0..num_locks`).
    fn num_locks(&self) -> u32 {
        0
    }

    /// Number of distinct barriers used (ids are `0..num_barriers`).
    fn num_barriers(&self) -> u32 {
        0
    }

    /// Produce the next operation for processor `proc`. After returning
    /// [`Op::Done`] for a processor, every subsequent call for that
    /// processor must also return [`Op::Done`].
    fn next_op(&mut self, proc: ProcId) -> Op;

    /// Clone this workload mid-run, for machine snapshotting during state
    /// exploration. Workloads that cannot be forked return `None` (the
    /// default); [`Script`] supports forking.
    fn fork(&self) -> Option<Box<dyn Workload>> {
        None
    }

    /// A value summarizing front-end progress (e.g. cursor positions),
    /// folded into state fingerprints by the model checker. Two forked
    /// copies in the same logical state must return equal tokens. The
    /// default (always 0) is sound but prevents no revisits.
    fn state_token(&self) -> u64 {
        0
    }
}

/// A scripted workload: explicit per-processor op vectors.
///
/// The workhorse of the protocol test suites — lets a test express an exact
/// interleaving-constrained scenario ("P0 writes x, releases L; P1 acquires
/// L, reads x") in a couple of lines.
///
/// The name and op streams never change after [`Script::new`], so they sit
/// behind one `Arc`: a clone or [`Workload::fork`] (the model checker
/// forks at every explored state) copies only the per-processor cursors.
#[derive(Debug, Clone)]
pub struct Script {
    program: Arc<Program>,
    addr_space: u64,
    num_locks: u32,
    num_barriers: u32,
    cursor: Vec<usize>,
}

/// The immutable part of a [`Script`], shared by all its forks.
#[derive(Debug)]
struct Program {
    name: String,
    streams: Vec<Vec<Op>>,
}

impl Script {
    /// Create a script with one op vector per processor. `Done` is appended
    /// automatically if missing.
    pub fn new(name: impl Into<String>, mut streams: Vec<Vec<Op>>) -> Self {
        let mut addr_space: u64 = 0;
        let mut num_locks = 0u32;
        let mut num_barriers = 0u32;
        for s in &mut streams {
            if s.last() != Some(&Op::Done) {
                s.push(Op::Done);
            }
            for op in s.iter() {
                match *op {
                    Op::Read(a) | Op::Write(a) => addr_space = addr_space.max(a + 8),
                    Op::Acquire(l) | Op::Release(l) => num_locks = num_locks.max(l + 1),
                    Op::Barrier(b) => num_barriers = num_barriers.max(b + 1),
                    _ => {}
                }
            }
        }
        let cursor = vec![0; streams.len()];
        Script {
            program: Arc::new(Program { name: name.into(), streams }),
            addr_space: addr_space.max(64),
            num_locks,
            num_barriers,
            cursor,
        }
    }

    /// The per-processor op vectors (reference-interpreter input).
    pub fn streams(&self) -> &[Vec<Op>] {
        &self.program.streams
    }
}

impl Workload for Script {
    fn name(&self) -> &str {
        &self.program.name
    }

    fn num_procs(&self) -> usize {
        self.cursor.len()
    }

    fn addr_space(&self) -> u64 {
        self.addr_space
    }

    fn num_locks(&self) -> u32 {
        self.num_locks
    }

    fn num_barriers(&self) -> u32 {
        self.num_barriers
    }

    fn next_op(&mut self, proc: ProcId) -> Op {
        let stream = &self.program.streams[proc];
        let i = self.cursor[proc];
        if i >= stream.len() {
            return Op::Done;
        }
        let op = stream[i];
        if op != Op::Done {
            self.cursor[proc] = i + 1;
        }
        op
    }

    fn fork(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn state_token(&self) -> u64 {
        // FNV-1a over the cursor positions.
        let mut h: u64 = 0xcbf29ce484222325;
        for &c in &self.cursor {
            h ^= c as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Bump allocator for laying out a workload's shared data structures in the
/// simulated address space, with line/page alignment helpers.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    next: u64,
    align: u64,
}

impl AddressAllocator {
    /// Allocator whose allocations are aligned to `align` bytes (typically
    /// the line size, so distinct arrays never falsely share a line).
    pub fn new(align: usize) -> Self {
        assert!(align.is_power_of_two());
        AddressAllocator { next: 0, align: align as u64 }
    }

    /// Reserve `bytes` bytes; returns the base address of the region.
    pub fn alloc(&mut self, bytes: u64) -> Addr {
        let base = self.next;
        self.next = (self.next + bytes + self.align - 1) & !(self.align - 1);
        base
    }

    /// Reserve an array of `n` elements of `elem_bytes` bytes each.
    pub fn alloc_array(&mut self, n: u64, elem_bytes: u64) -> Addr {
        self.alloc(n * elem_bytes)
    }

    /// Total bytes reserved so far (suitable for `Workload::addr_space`).
    pub fn used(&self) -> u64 {
        self.next.max(self.align)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_streams_and_done_sticks() {
        let mut s = Script::new(
            "t",
            vec![vec![Op::Read(0), Op::Write(4)], vec![Op::Compute(3)]],
        );
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.next_op(0), Op::Read(0));
        assert_eq!(s.next_op(0), Op::Write(4));
        assert_eq!(s.next_op(0), Op::Done);
        assert_eq!(s.next_op(0), Op::Done);
        assert_eq!(s.next_op(1), Op::Compute(3));
        assert_eq!(s.next_op(1), Op::Done);
    }

    #[test]
    fn forks_share_ops_and_advance_independently() {
        let mut s = Script::new("t", vec![vec![Op::Read(0), Op::Write(8)], vec![Op::Fence]]);
        assert_eq!(s.next_op(0), Op::Read(0));
        let mut f = s.fork().expect("scripts fork");
        assert_eq!(f.state_token(), s.state_token());
        assert_eq!(f.next_op(0), Op::Write(8));
        assert_ne!(f.state_token(), s.state_token());
        assert_eq!(s.next_op(0), Op::Write(8));
        assert_eq!(f.state_token(), s.state_token());
        let c = s.clone();
        assert!(Arc::ptr_eq(&c.program, &s.program), "a clone copies the cursors only");
        assert_eq!((f.name(), f.num_procs()), ("t", 2));
    }

    #[test]
    fn script_infers_metadata() {
        let s = Script::new(
            "t",
            vec![vec![
                Op::Acquire(2),
                Op::Write(1000),
                Op::Release(2),
                Op::Barrier(1),
            ]],
        );
        assert_eq!(s.num_locks(), 3);
        assert_eq!(s.num_barriers(), 2);
        assert!(s.addr_space() >= 1008);
    }

    #[test]
    fn allocator_alignment() {
        let mut a = AddressAllocator::new(128);
        let x = a.alloc(4);
        let y = a.alloc(300);
        let z = a.alloc(1);
        assert_eq!(x, 0);
        assert_eq!(y, 128);
        assert_eq!(z, 128 + 384);
        assert_eq!(a.used(), 128 + 384 + 128);
    }

    #[test]
    fn allocator_arrays() {
        let mut a = AddressAllocator::new(64);
        let base = a.alloc_array(10, 8);
        assert_eq!(base, 0);
        assert_eq!(a.alloc(1), 128); // 80 rounded to 128
    }
}
