//! `blu` — blocked right-looking LU decomposition of an `n × n` matrix
//! (paper: 448 × 448, reference \[5\] of the paper), with 16 × 16 blocks
//! assigned round-robin to processors.
//!
//! The matrix is stored row-major, so a block's rows are 128-byte strips;
//! with the paper's 128-byte lines the strips of horizontally adjacent
//! blocks share cache lines whenever `n` is not a multiple of the line
//! size, and block edges interleave between owners — the source of blu's
//! substantial false-sharing component (Table 2).

use crate::framework::{ChunkFn, Scratch, Streams, ARRAY_ALIGN};
use crate::scale::Scale;
use lrc_sim::{AddressAllocator, Op};

const B: usize = 16; // block edge

/// Matrix dimension for `scale`.
pub fn size(scale: Scale) -> usize {
    scale.pick(448, 320, 224, 112, 48)
}

/// Build with an explicit input seed. LU's access pattern is fully
/// deterministic — there is no randomness to reseed — so the seed rotates
/// the processor→stream placement instead (see [`Streams::rotate`]),
/// moving each block set onto a different mesh node. Seed 0 is
/// bit-identical to [`build`].
pub fn build_seeded(p: usize, scale: Scale, seed: u64) -> Streams {
    build(p, scale).rotate((seed % p.max(1) as u64) as usize)
}

/// Build the workload for `p` processors.
pub fn build(p: usize, scale: Scale) -> Streams {
    let n = size(scale);
    let nb = n / B; // blocks per dimension
    assert!(nb >= 1);

    let mut alloc = AddressAllocator::new(ARRAY_ALIGN);
    let a = alloc.alloc_array((n * n) as u64, 8);
    let mut scratches: Vec<Scratch> = (0..p).map(|_| Scratch::new(&mut alloc, 4096)).collect();
    let addr_space = alloc.used();
    // Element (r, c) of block (bi, bj), row-major storage.
    let at = move |bi: usize, bj: usize, r: usize, c: usize| {
        a + (((bi * B + r) * n + (bj * B + c)) as u64) * 8
    };
    let owner = move |bi: usize, bj: usize| (bi + bj * nb) % p;

    let fills: Vec<ChunkFn> = (0..p)
        .map(|proc| {
            // Phases per outer iteration k: 0 = factor diagonal, 1 = solve
            // row/column panels, 2 = update trailing blocks. Phase 3 is a
            // one-time init before k = 0.
            let mut scratch = scratches.remove(0);
            let mut k = 0usize;
            let mut phase = 3u32;
            let f: ChunkFn = Box::new(move |out| {
                if phase == 3 {
                    // Initialize owned blocks.
                    for bi in 0..nb {
                        for bj in 0..nb {
                            if owner(bi, bj) == proc {
                                for r in 0..B {
                                    for c in 0..B {
                                        out.push(Op::Write(at(bi, bj, r, c)));
                                    }
                                    out.push(Op::Compute(8));
                                }
                            }
                        }
                    }
                    out.push(Op::Barrier(0));
                    phase = 0;
                    return true;
                }
                if k >= nb {
                    return false;
                }
                match phase {
                    0 => {
                        // Factor the diagonal block (its owner only).
                        if owner(k, k) == proc {
                            for r in 0..B {
                                for c in 0..B {
                                    out.push(Op::Read(at(k, k, r, c)));
                                    out.push(Op::Compute(6));
                                    out.push(Op::Write(at(k, k, r, c)));
                                }
                            }
                        }
                        out.push(Op::Barrier(1));
                        phase = 1;
                    }
                    1 => {
                        // Triangular solves on panel blocks (column k and
                        // row k), reading the diagonal block.
                        for i in (k + 1)..nb {
                            for (bi, bj) in [(i, k), (k, i)] {
                                if owner(bi, bj) == proc {
                                    for r in 0..B {
                                        for c in 0..B {
                                            out.push(Op::Read(at(k, k, r, c)));
                                            out.push(Op::Read(at(bi, bj, r, c)));
                                            out.push(Op::Compute(4));
                                            out.push(Op::Write(at(bi, bj, r, c)));
                                        }
                                    }
                                }
                            }
                        }
                        out.push(Op::Barrier(2));
                        phase = 2;
                    }
                    2 => {
                        // Trailing update: A[i][j] -= L[i][k] · U[k][j].
                        for bi in (k + 1)..nb {
                            for bj in (k + 1)..nb {
                                if owner(bi, bj) == proc {
                                    for r in 0..B {
                                        for c in 0..B {
                                            // One dot-product step per
                                            // element (inner loop folded
                                            // into the compute cost).
                                            out.push(Op::Read(at(bi, k, r, c % B)));
                                            out.push(Op::Read(at(k, bj, r % B, c)));
                                            out.push(Op::Read(at(bi, bj, r, c)));
                                            out.push(Op::Compute(2 * B as u32));
                                            out.push(Op::Write(at(bi, bj, r, c)));
                                            scratch.work(out, 3, 4);
                                        }
                                    }
                                }
                            }
                        }
                        out.push(Op::Barrier(0));
                        phase = 0;
                        k += 1;
                    }
                    _ => unreachable!(),
                }
                true
            });
            f
        })
        .collect();

    Streams::new("blu", addr_space, 0, 3, fills)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn tiny_blu_is_well_formed() {
        let mut w = build(4, Scale::Tiny);
        let s = validate(&mut w).expect("valid streams");
        let nb = size(Scale::Tiny) / B;
        assert_eq!(s.barrier_rounds, 1 + 3 * nb as u64);
        assert!(s.refs > 10_000);
    }

    #[test]
    fn block_ownership_is_balanced() {
        let nb = size(Scale::Small) / B;
        let p = 7;
        let mut counts = vec![0usize; p];
        for bi in 0..nb {
            for bj in 0..nb {
                counts[(bi + bj * nb) % p] += 1;
            }
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 2, "{counts:?}");
    }
}
