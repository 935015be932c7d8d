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
//! A candidate keeps the sites its suggestion names ([`Cause`]); the
//! text is rendered only when the candidate becomes a [`Diagnostic`],
//! so the many candidates that are never reported cost no formatting.

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
    /// What the fix suggestion names besides `site` and `store_loc`.
    pub cause: Cause,
    /// The fix as a machine-applicable edit.
    pub fix: FixEdit,
    /// Whether the store does persist later in the trace (a late flush
    /// or late fence), just not before the commit store. Late-ordered
    /// stores are only wrong if recovery actually observes the window,
    /// so static reporting restricts itself to never-persisted stores
    /// and leaves this class to dynamic (race-confirmed) localization.
    pub persists_eventually: bool,
}

/// What a candidate's fix suggestion names besides its own site and
/// store: the commit store it races with and the flush or fence that
/// came too late, or a torn store's per-line persist points.
#[derive(Clone, Debug)]
pub enum Cause {
    /// `MissingFlush`: no flush of the store's line before the commit
    /// store at `commit`.
    Unflushed { commit: SourceLoc },
    /// `MissingFlush`: the store is flushed only at `flush`, after the
    /// commit store at `commit`.
    FlushedLate { flush: SourceLoc, commit: SourceLoc },
    /// `MissingFence`: the `clflushopt` at the candidate's site is never
    /// fenced, and the commit store at `commit` follows it.
    Unfenced { commit: SourceLoc },
    /// `FlushNotFenced`: the `clflushopt` at the candidate's site takes
    /// effect only at `fence`, after the commit store at `commit`.
    FencedLate { fence: SourceLoc, commit: SourceLoc },
    /// `TornStore`: the store covers lines `first_line..=last_line`, and
    /// `halves` holds where each of them persists (`None`: never), in
    /// line order.
    Torn {
        first_line: u64,
        last_line: u64,
        halves: Vec<Option<SourceLoc>>,
    },
}

impl Candidate {
    /// Renders the candidate as a reportable [`Diagnostic`] (one
    /// occurrence).
    pub fn into_diagnostic(self) -> Diagnostic {
        Diagnostic {
            kind: self.kind,
            site: self.site,
            message: self.message(),
            suggestion: Some(self.fix),
            addr: Some(self.addr),
            occurrences: 1,
        }
    }

    /// The fix suggestion, rendered for humans.
    fn message(&self) -> String {
        let (site, store_loc) = (self.site, self.store_loc);
        match &self.cause {
            Cause::Unfenced { commit } => format!(
                "the clflushopt at {site} is never fenced, so the store at \
                 {store_loc} may not persist; insert an sfence after the \
                 flush, before the commit store at {commit}"
            ),
            Cause::FencedLate { fence, commit } => format!(
                "the clflushopt at {site} takes effect only at {fence} — after the \
                 commit store at {commit}; insert an sfence between the \
                 flush and the commit store"
            ),
            Cause::FlushedLate { flush, commit } => format!(
                "the store at {store_loc} is flushed only at {flush} — after the \
                 commit store at {commit}; move the flush (plus its fence) \
                 before the commit store"
            ),
            Cause::Unflushed { commit } => format!(
                "insert clflush + sfence (or clflushopt + sfence) after the \
                 store at {store_loc}, before the commit store at {commit}"
            ),
            Cause::Torn {
                first_line,
                last_line,
                halves,
            } => {
                let halves = halves
                    .iter()
                    .zip(*first_line..)
                    .map(|(point, line)| match point {
                        Some(p) => format!("line {line} persists at {p}"),
                        None => format!("line {line} never persists"),
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "the store at {site} straddles cache lines {first_line}..={last_line} \
                     and its halves persist independently ({halves}); a crash between \
                     the writebacks recovers a torn value — split the store at the line \
                     boundary or keep it within one line"
                )
            }
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

    // Commit stores: stores that are themselves flushed and fenced, as
    // indices into `stores` (already in program order).
    let commits: Vec<usize> = (0..stores.len())
        .filter(|&s| stores[s].persist_point.is_some())
        .collect();

    let mut out = Vec::new();
    for s in stores {
        let horizon = s.persist_point.unwrap_or(usize::MAX);
        // First commit store strictly after the store and strictly
        // before its persist point whose lines are disjoint from the
        // store's.
        let start = commits.partition_point(|&c| stores[c].op_idx <= s.op_idx);
        let violating = commits[start..]
            .iter()
            .take_while(|&&c| stores[c].op_idx < horizon)
            .find(|&&c| {
                let commit = &stores[c];
                commit.last_line < s.first_line || commit.first_line > s.last_line
            });
        let Some(&c) = violating else { continue };
        let commit_op = stores[c].op_idx;
        let commit = graph.site(commit_op);
        let store_loc = graph.site(s.op_idx);
        let store_line = Some(s.addr.cache_line().index());
        let (kind, site, cause, persists_eventually) = match s.flush {
            Some(f) if f.op_idx < commit_op && f.opt => {
                let site = graph.site(f.op_idx);
                match s.persist_point {
                    None => (
                        DiagnosticKind::MissingFence,
                        site,
                        Cause::Unfenced { commit },
                        false,
                    ),
                    Some(p) => (
                        DiagnosticKind::FlushNotFenced,
                        site,
                        Cause::FencedLate {
                            fence: graph.site(p),
                            commit,
                        },
                        true,
                    ),
                }
            }
            Some(f) if f.op_idx > commit_op => (
                DiagnosticKind::MissingFlush,
                store_loc,
                Cause::FlushedLate {
                    flush: graph.site(f.op_idx),
                    commit,
                },
                true,
            ),
            _ => (
                DiagnosticKind::MissingFlush,
                store_loc,
                Cause::Unflushed { commit },
                s.persist_point.is_some(),
            ),
        };
        let fix = if kind == DiagnosticKind::MissingFlush {
            FixEdit::InsertFlush {
                site,
                line: store_line,
            }
        } else {
            FixEdit::InsertFence {
                site,
                line: store_line,
            }
        };
        out.push(Candidate {
            kind,
            site,
            store_loc,
            addr: s.addr,
            cause,
            fix,
            persists_eventually,
        });
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
        let mut cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFlush);
        assert_eq!(cands[0].addr, PmAddr::new(2 * LINE));
        assert!(cands[0].site.file().ends_with("robust.rs"));
        let message = cands.remove(0).into_diagnostic().message;
        assert!(message.contains("insert clflush + sfence"), "{message}");
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
        let mut cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFlush);
        let message = cands.remove(0).into_diagnostic().message;
        assert!(message.contains("move the flush"), "{message}");
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
        let mut cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::MissingFence);
        let message = cands.remove(0).into_diagnostic().message;
        assert!(message.contains("never fenced"), "{message}");
    }

    #[test]
    fn fence_after_commit_is_flush_not_fenced() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE, 8);
        flushopt(&mut t, 2, 0);
        store(&mut t, 3 * LINE, 8); // commit, before the fence
        flush(&mut t, 3);
        sfence(&mut t, 0); // orders the flushopt — but too late
        let mut cands = analyze_trace(&t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::FlushNotFenced);
        let message = cands.remove(0).into_diagnostic().message;
        assert!(message.contains("takes effect only at"), "{message}");
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
