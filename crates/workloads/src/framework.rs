//! Chunked per-processor op-stream framework.
//!
//! Workloads are written as *chunk generators*: for each processor, a
//! closure fills a buffer with the ops of the next program phase (one outer
//! loop iteration, one task, one time step). Memory stays bounded — only
//! one chunk per processor is materialized — while the generator code reads
//! like the natural loop nest of the original program.

use lrc_sim::{Op, ProcId, Workload};

/// A per-processor chunk generator: append the next chunk of ops to `out`;
/// return `false` when the processor's program is complete.
pub type ChunkFn = Box<dyn FnMut(&mut Vec<Op>) -> bool + Send>;

/// A [`Workload`] assembled from per-processor chunk generators.
pub struct Streams {
    name: String,
    addr_space: u64,
    num_locks: u32,
    num_barriers: u32,
    fills: Vec<ChunkFn>,
    bufs: Vec<Vec<Op>>,
    cursors: Vec<usize>,
    done: Vec<bool>,
}

impl Streams {
    /// Assemble a workload. `fills.len()` fixes the processor count.
    pub fn new(
        name: impl Into<String>,
        addr_space: u64,
        num_locks: u32,
        num_barriers: u32,
        fills: Vec<ChunkFn>,
    ) -> Self {
        let n = fills.len();
        Streams {
            name: name.into(),
            addr_space,
            num_locks,
            num_barriers,
            fills,
            bufs: (0..n).map(|_| Vec::with_capacity(4096)).collect(),
            cursors: vec![0; n],
            done: vec![false; n],
        }
    }

    /// Rotate the processor→stream assignment: processor `p` executes the
    /// stream originally built for processor `(p + by) % P`.
    ///
    /// This is the seed knob for the *dense* deterministic workloads (LU,
    /// FFT, Gauss) whose access patterns contain no randomness to reseed:
    /// rotating the placement moves each slice of the data onto a
    /// different mesh node, perturbing home-node distances and contention
    /// timing without changing the computation. SPMD phase structure makes
    /// this safe — every stream participates in the same barrier episodes.
    /// `by % P == 0` is the identity, so seed 0 stays bit-identical to the
    /// unrotated build.
    pub fn rotate(mut self, by: usize) -> Self {
        let n = self.fills.len();
        if n > 0 {
            self.fills.rotate_left(by % n);
        }
        self
    }
}

impl Workload for Streams {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_procs(&self) -> usize {
        self.fills.len()
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
        loop {
            if self.cursors[proc] < self.bufs[proc].len() {
                let op = self.bufs[proc][self.cursors[proc]];
                self.cursors[proc] += 1;
                return op;
            }
            if self.done[proc] {
                return Op::Done;
            }
            self.bufs[proc].clear();
            self.cursors[proc] = 0;
            if !(self.fills[proc])(&mut self.bufs[proc]) {
                self.done[proc] = true;
            }
        }
    }
}

/// Fixed inter-array alignment: generous enough for both the default
/// (128-byte) and future-machine (256-byte) line sizes, so distinct data
/// structures never share a line by accident. False sharing *within* an
/// array is a property of the workload and is preserved.
pub const ARRAY_ALIGN: usize = 256;

/// Per-processor private data region.
///
/// Real programs spend most of their references on private data — locals,
/// scalars, loop state, per-processor buffers — which hit in the cache after
/// warm-up. The paper's miss rates (Table 3: 0.4–4.8%) are fractions of
/// *all* references, so reproducing them (and the cpu fractions of the
/// overhead figures) requires modelling that private-access stream. Each
/// workload interleaves `Scratch::work` calls with its shared accesses.
#[derive(Debug, Clone)]
pub struct Scratch {
    base: u64,
    words: u64,
    cursor: u64,
}

impl Scratch {
    /// A private region of `bytes` bytes carved from `alloc`.
    pub fn new(alloc: &mut lrc_sim::AddressAllocator, bytes: u64) -> Self {
        let base = alloc.alloc(bytes);
        Scratch { base, words: (bytes / 4).max(1), cursor: 0 }
    }

    /// Emit `reads` private reads, one private "stack" write per four reads,
    /// and `compute` cycles of arithmetic.
    ///
    /// Reads cycle through the whole region; writes rotate over a small
    /// stack-top window (64 words), matching the strong temporal locality of
    /// real private writes — under the write-through protocols they coalesce
    /// in the buffer instead of flooding the network.
    pub fn work(&mut self, out: &mut Vec<Op>, reads: u32, compute: u32) {
        const STACK_WORDS: u64 = 64;
        for k in 0..reads {
            self.cursor += 1;
            if k % 4 == 3 {
                let a = self.base + (self.cursor % STACK_WORDS) * 4;
                out.push(Op::Write(a));
            } else {
                let a = self.base
                    + (STACK_WORDS + self.cursor % (self.words - STACK_WORDS).max(1)) % self.words * 4;
                out.push(Op::Read(a));
            }
        }
        if compute > 0 {
            out.push(Op::Compute(compute));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_deliver_chunks_in_order() {
        let mut calls = 0usize;
        let fills: Vec<ChunkFn> = vec![Box::new(move |out| {
            calls += 1;
            if calls <= 2 {
                out.push(Op::Compute(calls as u32));
                out.push(Op::Read(calls as u64 * 8));
                true
            } else {
                false
            }
        })];
        let mut w = Streams::new("t", 64, 0, 0, fills);
        assert_eq!(w.next_op(0), Op::Compute(1));
        assert_eq!(w.next_op(0), Op::Read(8));
        assert_eq!(w.next_op(0), Op::Compute(2));
        assert_eq!(w.next_op(0), Op::Read(16));
        assert_eq!(w.next_op(0), Op::Done);
        assert_eq!(w.next_op(0), Op::Done);
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let mut calls = 0usize;
        let fills: Vec<ChunkFn> = vec![Box::new(move |out| {
            calls += 1;
            match calls {
                1 | 2 => true, // empty chunk
                3 => {
                    out.push(Op::Compute(7));
                    true
                }
                _ => false,
            }
        })];
        let mut w = Streams::new("t", 64, 0, 0, fills);
        assert_eq!(w.next_op(0), Op::Compute(7));
        assert_eq!(w.next_op(0), Op::Done);
    }

    #[test]
    fn procs_are_independent() {
        let mk = |tag: u32| -> ChunkFn {
            let mut sent = false;
            Box::new(move |out| {
                if sent {
                    return false;
                }
                sent = true;
                out.push(Op::Compute(tag));
                true
            })
        };
        let mut w = Streams::new("t", 64, 0, 0, vec![mk(1), mk(2)]);
        assert_eq!(w.next_op(1), Op::Compute(2));
        assert_eq!(w.next_op(0), Op::Compute(1));
        assert_eq!(w.next_op(1), Op::Done);
        assert_eq!(w.next_op(0), Op::Done);
    }
}
