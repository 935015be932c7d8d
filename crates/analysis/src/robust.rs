//! The constraint-based robustness checker.
//!
//! Rebuilds the persist-ordering facts of one execution from its
//! recorded [`OpTrace`] and checks the *commit-store discipline* the
//! paper's Figure 4 idiom relies on: once a guard store `C` is itself
//! flushed and fenced (a **commit store**), every program-order-earlier
//! store to a different cache line must already be persist-ordered
//! before `C` executes — otherwise recovery may observe `C` while the
//! earlier store's line still holds stale data.
//!
//! The persist-ordering facts come from the
//! [`PersistGraph`](crate::PersistGraph) — one replay of the Figure 7/8
//! buffer rules shared by every analysis pass. This pass queries the
//! graph's per-store facts; stores to the *same* line as the commit
//! store are exempt (a line's writeback is atomic, so observing the
//! commit pins them too).
//!
//! Each violated store yields a [`Candidate`] classified as
//! `MissingFlush` (no flush of the line before the commit),
//! `MissingFence` (flushed with `clflushopt` but never fenced) or
//! `FlushNotFenced` (fenced only after the commit), with a concrete fix
//! suggestion naming both the store and the commit store it races with.

use jaaru_pmem::PmAddr;
use jaaru_tso::{OpTrace, SourceLoc};

use crate::diagnostic::{Diagnostic, DiagnosticKind};
use crate::graph::PersistGraph;
use crate::repair::FixEdit;

/// A robustness violation: `store` can reach `commit` unpersisted.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Violation class (`MissingFlush`, `MissingFence` or
    /// `FlushNotFenced`).
    pub kind: DiagnosticKind,
    /// Site the fix anchors to: the store for `MissingFlush`, the
    /// unfenced flush otherwise.
    pub site: SourceLoc,
    /// Source site of the unordered store — the key the
    /// bug-localization pass correlates with read-from evidence.
    pub store_loc: SourceLoc,
    /// First byte of the unordered store.
    pub addr: PmAddr,
    /// The concrete fix, rendered for humans.
    pub suggestion: String,
    /// The same fix as a machine-applicable edit.
    pub fix: Option<FixEdit>,
    /// Whether the store does persist later in the trace (a late flush
    /// or late fence), just not before the commit store. Late-ordered
    /// stores are only wrong if recovery actually observes the window,
    /// so static reporting restricts itself to never-persisted stores
    /// and leaves this class to dynamic (race-confirmed) localization.
    pub persists_eventually: bool,
}

impl Candidate {
    /// Renders the candidate as a reportable [`Diagnostic`] (one
    /// occurrence).
    pub fn into_diagnostic(self) -> Diagnostic {
        Diagnostic {
            kind: self.kind,
            site: self.site,
            message: self.suggestion,
            suggestion: self.fix,
            addr: Some(self.addr),
            occurrences: 1,
        }
    }
}

/// Builds the persist-order graph for `trace` and returns every store
/// that violates the commit-store discipline, in program order.
pub fn analyze_trace(trace: &OpTrace) -> Vec<Candidate> {
    robustness_candidates(&PersistGraph::build(trace))
}

/// The commit-store discipline check, querying an already-built
/// persist-order graph.
pub fn robustness_candidates(graph: &PersistGraph<'_>) -> Vec<Candidate> {
    let stores = graph.stores();

    // Commit stores: stores that are themselves flushed and fenced.
    // Their trace indices, ascending (stores are already in program
    // order), plus a parallel index into `stores`.
    let commits: Vec<usize> = (0..stores.len())
        .filter(|&s| stores[s].persist_point.is_some())
        .collect();
    let commit_ops: Vec<usize> = commits.iter().map(|&s| stores[s].op_idx).collect();

    let mut out = Vec::new();
    for s in stores {
        let horizon = s.persist_point.unwrap_or(usize::MAX);
        // First commit store strictly after the store and strictly
        // before its persist point whose lines are disjoint from the
        // store's.
        let start = commit_ops.partition_point(|&c| c <= s.op_idx);
        let violating = commits[start..]
            .iter()
            .take_while(|&&c| stores[c].op_idx < horizon)
            .find(|&&c| {
                let commit = &stores[c];
                commit.last_line < s.first_line || commit.first_line > s.last_line
            });
        let Some(&c) = violating else { continue };
        let commit = &stores[c];
        let commit_loc = graph.site(commit.op_idx);
        let store_loc = graph.site(s.op_idx);
        let store_line = Some(s.addr.cache_line().index());
        let candidate = match s.flush {
            Some(f) if f.op_idx < commit.op_idx && f.opt => match s.persist_point {
                None => Candidate {
                    kind: DiagnosticKind::MissingFence,
                    site: graph.site(f.op_idx),
                    suggestion: format!(
                        "the clflushopt at {} is never fenced, so the store at \
                         {store_loc} may not persist; insert an sfence after the \
                         flush, before the commit store at {commit_loc}",
                        graph.site(f.op_idx)
                    ),
                    fix: Some(FixEdit::InsertFence {
                        site: graph.site(f.op_idx),
                        line: store_line,
                    }),
                    store_loc,
                    addr: s.addr,
                    persists_eventually: false,
                },
                Some(p) => Candidate {
                    kind: DiagnosticKind::FlushNotFenced,
                    site: graph.site(f.op_idx),
                    suggestion: format!(
                        "the clflushopt at {} takes effect only at {} — after the \
                         commit store at {commit_loc}; insert an sfence between the \
                         flush and the commit store",
                        graph.site(f.op_idx),
                        graph.site(p)
                    ),
                    fix: Some(FixEdit::InsertFence {
                        site: graph.site(f.op_idx),
                        line: store_line,
                    }),
                    store_loc,
                    addr: s.addr,
                    persists_eventually: true,
                },
            },
            Some(f) if f.op_idx > commit.op_idx => Candidate {
                kind: DiagnosticKind::MissingFlush,
                site: store_loc,
                suggestion: format!(
                    "the store at {store_loc} is flushed only at {} — after the \
                     commit store at {commit_loc}; move the flush (plus its fence) \
                     before the commit store",
                    graph.site(f.op_idx)
                ),
                fix: Some(FixEdit::InsertFlush {
                    site: store_loc,
                    line: store_line,
                }),
                store_loc,
                addr: s.addr,
                persists_eventually: true,
            },
            _ => Candidate {
                kind: DiagnosticKind::MissingFlush,
                site: store_loc,
                suggestion: format!(
                    "insert clflush + sfence (or clflushopt + sfence) after the \
                     store at {store_loc}, before the commit store at {commit_loc}"
                ),
                fix: Some(FixEdit::InsertFlush {
                    site: store_loc,
                    line: store_line,
                }),
                store_loc,
                addr: s.addr,
                persists_eventually: s.persist_point.is_some(),
            },
        };
        out.push(candidate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru_tso::{OpTrace, ThreadId, TraceOpKind};
    use std::panic::Location;

    const LINE: u64 = 64;

    fn store(t: &mut OpTrace, addr: u64, len: u32) {
        t.record(
            ThreadId(0),
            Location::caller(),
            TraceOpKind::Store {
                addr: PmAddr::new(addr),
                len,
            },
        );
    }

    #[track_caller]
    fn flush(t: &mut OpTrace, line: u64) {
        t.record(
            ThreadId(0),
            Location::caller(),
            TraceOpKind::Clflush {
                first_line: line,
                last_line: line,
            },
        );
    }

    #[track_caller]
    fn flushopt(t: &mut OpTrace, line: u64, tid: u32) {
        t.record(
            ThreadId(tid),
            Location::caller(),
            TraceOpKind::Clflushopt {
                first_line: line,
                last_line: line,
            },
        );
    }

    #[track_caller]
    fn sfence(t: &mut OpTrace, tid: u32) {
        t.record(ThreadId(tid), Location::caller(), TraceOpKind::Sfence);
    }

    #[test]
    fn figure4_discipline_is_clean() {
        // store data; flush; fence; store commit; flush; fence.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flush(&mut t, 2);
        sfence(&mut t, 0);
        store(&mut t, 3 * LINE, 8);
        flush(&mut t, 3);
        sfence(&mut t, 0);
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn missing_flush_before_commit_is_flagged() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8); // data, never flushed
        store(&mut t, 3 * LINE, 8); // commit
        flush(&mut t, 3);
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFlush);
        assert_eq!(cands[0].addr, PmAddr::new(2 * LINE));
        assert!(cands[0].suggestion.contains("insert clflush + sfence"));
        assert!(cands[0].site.file().ends_with("robust.rs"));
    }

    #[test]
    fn late_flush_is_still_missing_at_the_commit() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8); // data
        store(&mut t, 3 * LINE, 8); // commit
        flush(&mut t, 3);
        sfence(&mut t, 0);
        flush(&mut t, 2); // data flushed only after the commit
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFlush);
        assert!(cands[0].suggestion.contains("move the flush"), "{cands:?}");
    }

    #[test]
    fn unfenced_clflushopt_is_missing_fence() {
        // Same-thread flushopt + sfence before the commit: clean.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flushopt(&mut t, 2, 0);
        sfence(&mut t, 0);
        store(&mut t, 3 * LINE, 8); // commit
        flush(&mut t, 3);
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert!(cands.is_empty(), "fenced flushopt is ordered: {cands:?}");

        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flushopt(&mut t, 2, 1); // thread 1 flushes, never fences
        store(&mut t, 3 * LINE, 8);
        flush(&mut t, 3);
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFence);
        assert!(cands[0].suggestion.contains("never fenced"));
    }

    #[test]
    fn fence_after_commit_is_flush_not_fenced() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flushopt(&mut t, 2, 0);
        store(&mut t, 3 * LINE, 8); // commit, before the fence
        flush(&mut t, 3);
        sfence(&mut t, 0); // orders the flushopt — but too late
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::FlushNotFenced);
        assert!(cands[0].suggestion.contains("takes effect only at"));
    }

    #[test]
    fn same_line_stores_are_exempt() {
        // Store and commit share a cache line: line writeback is atomic,
        // observing the commit pins the earlier store.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        store(&mut t, 2 * LINE + 8, 8); // commit on the same line
        flush(&mut t, 2);
        sfence(&mut t, 0);
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn no_commit_store_means_no_constraints() {
        // Checksum-style code with no flushes at all: nothing commits,
        // nothing is violated.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        store(&mut t, 3 * LINE, 8);
        store(&mut t, 4 * LINE, 8);
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn stores_after_the_commit_are_unconstrained() {
        let mut t = OpTrace::new();
        store(&mut t, 3 * LINE, 8); // commit
        flush(&mut t, 3);
        sfence(&mut t, 0);
        store(&mut t, 2 * LINE, 8); // after every commit: fine
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn straddling_store_needs_both_lines_flushed() {
        let mut t = OpTrace::new();
        store(&mut t, 3 * LINE - 4, 8); // straddles lines 2 and 3
        flush(&mut t, 2); // only half flushed
        sfence(&mut t, 0);
        store(&mut t, 5 * LINE, 8); // commit
        flush(&mut t, 5);
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFlush);

        // Flushing both lines clears it.
        let mut t = OpTrace::new();
        store(&mut t, 3 * LINE - 4, 8);
        flush(&mut t, 2);
        flush(&mut t, 3);
        sfence(&mut t, 0);
        store(&mut t, 5 * LINE, 8);
        flush(&mut t, 5);
        sfence(&mut t, 0);
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn rmw_orders_the_flush_buffer() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flushopt(&mut t, 2, 0);
        t.record(
            ThreadId(0),
            Location::caller(),
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: true,
                recovery: false,
            },
        );
        store(&mut t, 3 * LINE, 8); // commit
        flush(&mut t, 3);
        sfence(&mut t, 0);
        assert!(analyze_trace(&t).is_empty());
    }

    #[test]
    fn commit_stores_themselves_can_be_violated() {
        // C1 is flushed+fenced late; C2 commits first.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8); // C1-to-be
        store(&mut t, 3 * LINE, 8); // C2
        flush(&mut t, 3);
        sfence(&mut t, 0);
        flush(&mut t, 2); // C1 persists only here
        sfence(&mut t, 0);
        let cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].addr, PmAddr::new(2 * LINE));
    }

    #[test]
    fn candidates_convert_to_error_diagnostics() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        store(&mut t, 3 * LINE, 8);
        flush(&mut t, 3);
        sfence(&mut t, 0);
        let d = analyze_trace(&t).remove(0).into_diagnostic();
        assert!(d.is_error());
        assert_eq!(d.occurrences, 1);
        assert_eq!(d.addr, Some(PmAddr::new(2 * LINE)));
    }
}
