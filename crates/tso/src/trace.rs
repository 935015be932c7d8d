//! Per-execution operation traces for downstream analysis passes.
//!
//! The model checker's environment can record the complete per-thread
//! stream of persistency-relevant operations — stores, flushes, fences
//! and locked RMWs — as it executes a guest. The resulting [`OpTrace`]
//! is the input to the `jaaru-analysis` lint engine, which rebuilds the
//! persist-ordering constraints of the paper's Figure 7/8 buffer rules
//! from it and reports stores that can reach a commit store unpersisted.
//!
//! A trace is strictly program-ordered: the checker executes guest
//! threads deterministically, so the recording order *is* the program
//! order, and [`TraceOp::seq`] is simply the op's index in the trace.
//! Every op carries its guest source location (captured with
//! `#[track_caller]`) so diagnostics can point at the exact line.

use jaaru_pmem::{PmAddr, CACHE_LINE_SIZE};

use crate::event::{SourceLoc, ThreadId};

/// The persistency-relevant operation classes a trace distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOpKind {
    /// A store of `len` bytes starting at `addr`.
    Store { addr: PmAddr, len: u32 },
    /// A load of `len` bytes starting at `addr`. Loads never constrain
    /// persist order; they are recorded so analysis passes can tell
    /// which lines a recovery execution actually reads. `recovery` marks
    /// loads issued by a post-failure execution, the lines
    /// `jaaru_analysis::recovery_read_lines` collects.
    Load {
        addr: PmAddr,
        len: u32,
        recovery: bool,
    },
    /// A `clflush` covering the inclusive cache-line range
    /// `first_line..=last_line` (takes effect immediately).
    Clflush { first_line: u64, last_line: u64 },
    /// A `clflushopt`/`clwb` covering `first_line..=last_line` (deferred
    /// until the issuing thread's next ordering instruction).
    Clflushopt { first_line: u64, last_line: u64 },
    /// A store fence (`sfence`): applies the thread's pending
    /// `clflushopt` effects.
    Sfence,
    /// A full fence (`mfence`): same flush-buffer effect as `sfence`.
    Mfence,
    /// A locked read-modify-write at `addr` (fences on both sides; the
    /// constituent fences and store are recorded as separate ops).
    /// `success` is whether the compare-exchange actually mutated the
    /// cell: failed attempts are still locked instructions — they fence
    /// the flush buffer and *acquire* from prior successful RMWs on the
    /// line — but publish nothing, so they carry no release edge.
    /// `recovery` marks RMWs issued by a post-failure execution: a
    /// failed recovery-phase CAS still *reads* the line, so it counts
    /// as a recovery read like a load.
    Rmw {
        addr: PmAddr,
        success: bool,
        recovery: bool,
    },
}

impl TraceOpKind {
    /// The inclusive cache-line range a store or flush touches; `None`
    /// for fences and RMW markers.
    pub fn line_range(&self) -> Option<(u64, u64)> {
        match *self {
            TraceOpKind::Store { addr, len } | TraceOpKind::Load { addr, len, .. } => {
                let first = addr.cache_line().index();
                let last = (addr + (len.max(1) as u64 - 1)).cache_line().index();
                Some((first, last))
            }
            TraceOpKind::Clflush {
                first_line,
                last_line,
            }
            | TraceOpKind::Clflushopt {
                first_line,
                last_line,
            } => Some((first_line, last_line)),
            _ => None,
        }
    }

    /// Whether this op orders the issuing thread's flush buffer (fences
    /// and locked RMWs do; plain stores and flushes do not).
    pub fn is_ordering(&self) -> bool {
        matches!(
            self,
            TraceOpKind::Sfence | TraceOpKind::Mfence | TraceOpKind::Rmw { .. }
        )
    }

    /// Whether this op reads persistent memory during a post-failure
    /// (recovery) execution: a recovery-flagged load, or a
    /// recovery-flagged RMW (even a failed CAS observes the cell).
    pub fn is_recovery_read(&self) -> bool {
        matches!(
            self,
            TraceOpKind::Load { recovery: true, .. } | TraceOpKind::Rmw { recovery: true, .. }
        )
    }
}

/// One recorded operation.
#[derive(Clone, Copy, Debug)]
pub struct TraceOp {
    /// Operation class and operands.
    pub kind: TraceOpKind,
    /// Guest thread that issued the op.
    pub thread: ThreadId,
    /// Guest source location (`#[track_caller]` call site).
    pub loc: SourceLoc,
    /// Program-order index within the execution's trace.
    pub seq: u32,
}

impl TraceOp {
    /// The op's source location rendered as `file:line:column` — the
    /// format used throughout bug and diagnostic reports.
    pub fn site(&self) -> String {
        format!(
            "{}:{}:{}",
            self.loc.file(),
            self.loc.line(),
            self.loc.column()
        )
    }
}

/// The recorded op stream of one execution, in program order.
#[derive(Clone, Debug, Default)]
pub struct OpTrace {
    ops: Vec<TraceOp>,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op, assigning it the next program-order sequence
    /// number.
    pub fn record(&mut self, thread: ThreadId, loc: SourceLoc, kind: TraceOpKind) {
        let seq = self.ops.len() as u32;
        self.ops.push(TraceOp {
            kind,
            thread,
            loc,
            seq,
        });
    }

    /// The recorded ops in program order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The number of bytes per simulated cache line (re-exported for
/// convenience of trace consumers computing line ids from addresses).
pub const TRACE_LINE_SIZE: usize = CACHE_LINE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    #[track_caller]
    fn here() -> SourceLoc {
        Location::caller()
    }

    #[test]
    fn seq_numbers_follow_program_order() {
        let mut t = OpTrace::new();
        let loc = here();
        t.record(
            ThreadId(0),
            loc,
            TraceOpKind::Store {
                addr: PmAddr::new(64),
                len: 8,
            },
        );
        t.record(
            ThreadId(0),
            loc,
            TraceOpKind::Clflush {
                first_line: 1,
                last_line: 1,
            },
        );
        t.record(ThreadId(0), loc, TraceOpKind::Sfence);
        assert_eq!(t.len(), 3);
        let seqs: Vec<u32> = t.ops().iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn line_ranges_cover_straddling_stores() {
        let k = TraceOpKind::Store {
            addr: PmAddr::new(CACHE_LINE_SIZE as u64 * 2 - 4),
            len: 8,
        };
        assert_eq!(k.line_range(), Some((1, 2)));
        let k = TraceOpKind::Store {
            addr: PmAddr::new(64),
            len: 1,
        };
        assert_eq!(k.line_range(), Some((1, 1)));
        let k = TraceOpKind::Load {
            addr: PmAddr::new(CACHE_LINE_SIZE as u64 * 3 - 1),
            len: 2,
            recovery: false,
        };
        assert_eq!(k.line_range(), Some((2, 3)));
        assert_eq!(TraceOpKind::Sfence.line_range(), None);
    }

    #[test]
    fn loads_do_not_order() {
        assert!(!TraceOpKind::Load {
            addr: PmAddr::new(64),
            len: 8,
            recovery: false
        }
        .is_ordering());
    }

    #[test]
    fn recovery_reads_are_classified() {
        assert!(TraceOpKind::Load {
            addr: PmAddr::new(64),
            len: 8,
            recovery: true
        }
        .is_recovery_read());
        assert!(!TraceOpKind::Load {
            addr: PmAddr::new(64),
            len: 8,
            recovery: false
        }
        .is_recovery_read());
        // A failed recovery CAS still observes the cell.
        assert!(TraceOpKind::Rmw {
            addr: PmAddr::new(64),
            success: false,
            recovery: true
        }
        .is_recovery_read());
        assert!(!TraceOpKind::Sfence.is_recovery_read());
    }

    #[test]
    fn ordering_ops_are_classified() {
        assert!(TraceOpKind::Sfence.is_ordering());
        assert!(TraceOpKind::Mfence.is_ordering());
        assert!(TraceOpKind::Rmw {
            addr: PmAddr::new(64),
            success: true,
            recovery: false
        }
        .is_ordering());
        // A failed CAS is still a locked instruction: it fences.
        assert!(TraceOpKind::Rmw {
            addr: PmAddr::new(64),
            success: false,
            recovery: false
        }
        .is_ordering());
        assert!(!TraceOpKind::Clflush {
            first_line: 0,
            last_line: 0
        }
        .is_ordering());
    }

    #[test]
    fn site_renders_file_line_column() {
        let mut t = OpTrace::new();
        t.record(ThreadId(1), here(), TraceOpKind::Mfence);
        assert!(t.ops()[0].site().contains("trace.rs"));
    }
}
