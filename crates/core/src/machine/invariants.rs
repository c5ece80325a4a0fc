//! Global coherence-invariant checking (test/debug instrumentation and the
//! model checker's safety oracle).
//!
//! [`Machine::check_violations`] sweeps the entire machine state and returns
//! every violated invariant as a structured [`Violation`] value; the model
//! checker (`lrc-check`) calls it after every explored transition. When
//! enabled with [`Machine::with_invariant_checks`], the machine additionally
//! sweeps every N events during a normal run and panics with a detailed
//! report on the first violation (the historical behavior, preserved for the
//! protocol test suites). The checks encode the correctness conditions of
//! DESIGN.md §5:
//!
//! * directory bookkeeping: `writers ⊆ sharers`, `notified ⊆ sharers`;
//! * **eager single-writer**: under SC/ERC no two caches ever hold the same
//!   line writable, and a writable copy excludes all other copies (modulo
//!   transactions currently in flight for that line, which are skipped);
//! * **directory soundness**: a cached line's holder appears in the home's
//!   sharer set (again modulo in-flight transactions and, for the lazy
//!   protocols, copies whose invalidation is pending at an acquire);
//! * cache geometry: no set exceeds its associativity (checked structurally
//!   by `lrc-mem`, re-asserted here end-to-end).
//!
//! The sweep is O(machine size) and intended for tests — the protocol test
//! suite runs every scripted scenario and the tiny application suite with
//! checks on.

use super::Machine;
use crate::directory::NodeSet;
use crate::node::ProcStatus;
use lrc_mem::LineState;
use lrc_sim::LineAddr;

/// One violated coherence invariant, as found by a full machine sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Directory bookkeeping: a line's writer mask is not a subset of its
    /// sharer mask.
    WritersNotSharers {
        /// The offending line.
        line: u64,
        /// Writer set.
        writers: NodeSet,
        /// Sharer set.
        sharers: NodeSet,
    },
    /// Directory bookkeeping: a line's notified mask is not a subset of its
    /// sharer mask.
    NotifiedNotSharers {
        /// The offending line.
        line: u64,
        /// Notified set.
        notified: NodeSet,
        /// Sharer set.
        sharers: NodeSet,
    },
    /// A processor caches a line its home directory does not record — under
    /// a lazy protocol, not even as a pending acquire-time invalidation.
    UnknownCachedCopy {
        /// The offending line.
        line: u64,
        /// The processor holding the unknown copy.
        proc: usize,
        /// Cache permission of the unknown copy.
        writable: bool,
    },
    /// Under an eager protocol (SC/ERC), more than one processor holds the
    /// line writable at once.
    MultipleWriters {
        /// The offending line.
        line: u64,
        /// Every processor holding the line writable.
        holders: Vec<usize>,
    },
    /// A processor reported finished while still holding a deferred op.
    FinishedWithDeferredOp {
        /// The offending processor.
        proc: usize,
    },
    /// A node's `inval_all` overflow bit is set but its pending-inval set is
    /// non-empty — the collapse must clear the set (the acquire hot path
    /// relies on `inval_all ⇒ pending_invals empty`).
    OverflowResidue {
        /// The offending processor.
        proc: usize,
        /// Entries still in the supposedly-collapsed set.
        pending: usize,
    },
    /// A node's pending-inval set exceeds the configured write-notice
    /// buffer capacity (the bound was not enforced).
    WriteNoticeOverCap {
        /// The offending processor.
        proc: usize,
        /// Entries in the set.
        pending: usize,
        /// The configured capacity.
        cap: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::WritersNotSharers { line, writers, sharers } => write!(
                f,
                "line {line}: writers ⊄ sharers (writers={writers:b}, sharers={sharers:b})"
            ),
            Violation::NotifiedNotSharers { line, notified, sharers } => write!(
                f,
                "line {line}: notified ⊄ sharers (notified={notified:b}, sharers={sharers:b})"
            ),
            Violation::UnknownCachedCopy { line, proc, writable } => write!(
                f,
                "P{proc} caches line {line} ({}) unknown to its home",
                if *writable { "writable" } else { "read-only" }
            ),
            Violation::MultipleWriters { line, holders } => {
                write!(f, "line {line} writable at {holders:?} (eager requires exclusivity)")
            }
            Violation::FinishedWithDeferredOp { proc } => {
                write!(f, "finished P{proc} still holds a deferred op")
            }
            Violation::OverflowResidue { proc, pending } => write!(
                f,
                "P{proc}: inval_all set with {pending} pending inval(s) left uncollapsed"
            ),
            Violation::WriteNoticeOverCap { proc, pending, cap } => {
                write!(f, "P{proc}: {pending} pending inval(s) exceed the {cap}-entry buffer")
            }
        }
    }
}

impl Machine {
    /// Sweep all machine state and return every violated coherence
    /// invariant (empty = the machine is coherent). Non-panicking: this is
    /// the model checker's safety oracle, usable mid-exploration on cloned
    /// machines.
    pub fn check_violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();

        // Directory structural invariants.
        for (l, e) in self.dir.iter() {
            if !(e.writers() & !e.sharers()).is_empty() {
                out.push(Violation::WritersNotSharers {
                    line: l,
                    writers: e.writers(),
                    sharers: e.sharers(),
                });
            }
            if !(e.notified() & !e.sharers()).is_empty() {
                out.push(Violation::NotifiedNotSharers {
                    line: l,
                    notified: e.notified(),
                    sharers: e.sharers(),
                });
            }
        }

        // Cache-vs-directory soundness. Lines with any transaction in
        // flight — at the holder (outstanding entry) or at the home (ack
        // collection or 3-hop forward in progress, which implies
        // invalidations may still be in transit) — are legitimately in a
        // transient state and skipped.
        let mut multi_writer_seen: Vec<u64> = Vec::new();
        for (p, node) in self.nodes.iter().enumerate() {
            for line in node.cache.iter() {
                if node.outstanding.contains_key(&line.line.0) {
                    continue;
                }
                let entry = self.dir.get(line.line.0);
                if entry.is_some_and(|e| e.is_busy()) {
                    continue;
                }
                if !self.protocol.is_lazy() {
                    // Eager protocols: every cached copy is directory-known,
                    // and a writable copy is exclusive.
                    if !entry.is_some_and(|e| e.is_sharer(p)) {
                        out.push(Violation::UnknownCachedCopy {
                            line: line.line.0,
                            proc: p,
                            writable: line.state == LineState::ReadWrite,
                        });
                    }
                    if line.state == LineState::ReadWrite
                        && !multi_writer_seen.contains(&line.line.0)
                    {
                        let holders = self.writable_holders(line.line);
                        if holders.len() > 1 {
                            multi_writer_seen.push(line.line.0);
                            out.push(Violation::MultipleWriters { line: line.line.0, holders });
                        }
                    }
                } else {
                    // Lazy protocols: a cached copy is either known to the
                    // home or queued for acquire-time invalidation (a notice
                    // raced with our refetch), never silently unknown.
                    let known = entry.is_some_and(|e| e.is_sharer(p))
                        || node.pending_invals.contains(&line.line.0)
                        || node.inval_all;
                    if !known {
                        out.push(Violation::UnknownCachedCopy {
                            line: line.line.0,
                            proc: p,
                            writable: line.state == LineState::ReadWrite,
                        });
                    }
                }
            }
        }

        // Accounting sanity: finished processors hold no deferred work.
        for (p, node) in self.nodes.iter().enumerate() {
            if node.status == ProcStatus::Finished && node.deferred_op.is_some() {
                out.push(Violation::FinishedWithDeferredOp { proc: p });
            }
        }

        // Finite write-notice buffers: the overflow collapse must leave the
        // precise set empty, and an enforced cap is never exceeded.
        for (p, node) in self.nodes.iter().enumerate() {
            if node.inval_all && !node.pending_invals.is_empty() {
                out.push(Violation::OverflowResidue { proc: p, pending: node.pending_invals.len() });
            }
            if let Some(cap) = self.cfg.resources.write_notice_buffer {
                if node.pending_invals.len() > cap {
                    out.push(Violation::WriteNoticeOverCap {
                        proc: p,
                        pending: node.pending_invals.len(),
                        cap,
                    });
                }
            }
        }

        out
    }

    /// Sweep all machine state for coherence-invariant violations, panicking
    /// with a detailed report on the first one (the behavior behind
    /// [`Machine::with_invariant_checks`]).
    ///
    /// `context` is included in the panic message.
    pub(crate) fn check_invariants(&self, context: &str) {
        let violations = self.check_violations();
        if let Some(v) = violations.first() {
            panic!(
                "{context}: {} invariant violation(s); first: {v}\n{}",
                violations.len(),
                self.dump()
            );
        }
    }

    /// Every processor holding `line` writable.
    fn writable_holders(&self, line: LineAddr) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.cache.state(line) == LineState::ReadWrite
                    && !n.outstanding.contains_key(&line.0)
            })
            .map(|(p, _)| p)
            .collect()
    }
}
