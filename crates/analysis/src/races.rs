//! Cross-thread persistency races and torn stores.
//!
//! Both passes query the [`PersistGraph`]: the per-thread robustness
//! scan cannot see them, because each needs facts that span threads
//! (who flushed whose line, and under which synchronization) or span
//! the two halves of one store.
//!
//! **Cross-thread races** ([`cross_thread_races`]): a store's
//! flush/fence chain runs on a different thread than the store, with
//! no happens-before edge ordering them. Two shapes exist under the
//! Figure 7/8 rules:
//!
//! 1. *flush on the wrong thread* — the flush that covers the store's
//!    line is issued by another thread with no synchronizing RMW chain
//!    from the store: under a different interleaving the flush can run
//!    first and persist nothing;
//! 2. *fence on the wrong thread* — a `clflushopt` parks the line in
//!    the issuing thread's flush buffer, but only *other* threads
//!    fence afterwards: a fence drains only its own thread's buffer,
//!    so the flush never takes effect anywhere.
//!
//! **Torn stores** ([`torn_candidates`]): a store straddling a
//! cache-line boundary whose halves persist at different trace points
//! (or one never does). Line writeback is atomic per line but not
//! across lines, so a crash between the two persist points recovers
//! half-old half-new bytes. Candidates are confirmed against read-from
//! evidence like the robustness candidates — recovery must actually be
//! able to observe the window.

use std::collections::HashSet;

use jaaru_tso::{OpTrace, TraceOpKind};

use crate::diagnostic::{Diagnostic, DiagnosticKind, DiagnosticSet};
use crate::graph::PersistGraph;
use crate::repair::FixEdit;
use crate::robust::{Candidate, Cause};

/// Reports stores whose flush/fence chain spans threads without a
/// synchronizing edge, deduplicated by site.
pub fn cross_thread_races(graph: &PersistGraph<'_>) -> Vec<Diagnostic> {
    let ops = graph.ops();
    let mut out = DiagnosticSet::new();

    // Ordering ops per thread, for the fence-on-wrong-thread shape.
    let fences: Vec<usize> = (0..ops.len())
        .filter(|&i| ops[i].kind.is_ordering())
        .collect();

    for s in graph.stores() {
        let store_thread = ops[s.op_idx].thread;
        for fact in graph.lines(s) {
            let Some(flush) = fact.flush else { continue };
            let flush_thread = ops[flush.op_idx].thread;

            // Shape 1: the flush itself runs on another thread,
            // unordered with the store.
            if flush_thread != store_thread && !graph.happens_before(s.op_idx, flush.op_idx) {
                let site = graph.site(s.op_idx);
                out.insert_with(DiagnosticKind::CrossThreadRace, site, || Diagnostic {
                    kind: DiagnosticKind::CrossThreadRace,
                    site,
                    message: format!(
                        "the store at {site} (thread {}) is flushed only by thread {} \
                         (at {}) with no synchronization ordering the flush after \
                         the store; under another interleaving the flush runs first \
                         and persists nothing — flush on the storing thread or \
                         synchronize via a locked RMW",
                        store_thread.0,
                        flush_thread.0,
                        graph.site(flush.op_idx),
                    ),
                    suggestion: Some(FixEdit::InsertFlush {
                        site,
                        line: Some(fact.line),
                    }),
                    addr: Some(s.addr),
                    occurrences: 1,
                });
                continue;
            }

            // Shape 2: a clflushopt parked forever in its thread's
            // buffer while some other thread fences after it — the
            // programmer fenced on the wrong thread.
            if flush.opt && fact.persist_point.is_none() {
                let wrong_fence = fences
                    .iter()
                    .copied()
                    .find(|&f| f > flush.op_idx && ops[f].thread != flush_thread);
                if let Some(fence) = wrong_fence {
                    let site = graph.site(flush.op_idx);
                    out.insert_with(DiagnosticKind::CrossThreadRace, site, || Diagnostic {
                        kind: DiagnosticKind::CrossThreadRace,
                        site,
                        message: format!(
                            "the clflushopt at {site} parks line {} in thread {}'s \
                             flush buffer, but only thread {} fences afterwards \
                             (at {}); a fence drains only its own thread's buffer, \
                             so the flush never takes effect — fence on thread {}",
                            fact.line,
                            flush_thread.0,
                            ops[fence].thread.0,
                            graph.site(fence),
                            flush_thread.0,
                        ),
                        suggestion: Some(FixEdit::InsertFence {
                            site,
                            line: Some(fact.line),
                        }),
                        addr: Some(s.addr),
                        occurrences: 1,
                    });
                }
            }
        }
    }
    out.into_vec()
}

/// Reports straddling stores whose line halves persist at different
/// points, as candidates for read-from confirmation.
pub fn torn_candidates(graph: &PersistGraph<'_>) -> Vec<Candidate> {
    let mut out = Vec::new();
    for s in graph.stores() {
        if !s.straddles() {
            continue;
        }
        let lines = graph.lines(s);
        let first = lines[0].persist_point;
        if lines.iter().all(|f| f.persist_point == first) {
            // All halves persist at the same op (one wide flush, or one
            // fence draining every line) — or none ever does, which is
            // the robustness pass's missing-flush domain, not a tear.
            continue;
        }
        let site = graph.site(s.op_idx);
        out.push(Candidate {
            kind: DiagnosticKind::TornStore,
            site,
            cause: Cause::Torn {
                first_line: s.first_line,
                last_line: s.last_line,
                halves: lines
                    .iter()
                    .map(|f| f.persist_point.map(|p| graph.site(p)))
                    .collect(),
            },
            // One wide clflush spanning the store's byte range is a
            // single trace op, so both halves persist at the same
            // point — the mechanical fix for a tear.
            fix: FixEdit::InsertFlush {
                site,
                line: Some(s.first_line),
            },
            store_loc: site,
            addr: s.addr,
            persists_eventually: s.persist_point.is_some(),
        });
    }
    out
}

/// The cache lines a scenario's recovery executions actually read:
/// recovery-flagged `Load` and `Rmw` ops (a failed recovery CAS still
/// observes its cell). Buggy scenarios use this to keep cross-thread
/// reports tied to state the failing recovery could observe.
pub fn recovery_read_lines<'a>(traces: impl IntoIterator<Item = &'a OpTrace>) -> HashSet<u64> {
    let mut lines = HashSet::new();
    for trace in traces {
        for op in trace.ops() {
            if !op.kind.is_recovery_read() {
                continue;
            }
            match op.kind {
                TraceOpKind::Load { .. } => {
                    if let Some((first, last)) = op.kind.line_range() {
                        lines.extend(first..=last);
                    }
                }
                TraceOpKind::Rmw { addr, .. } => {
                    lines.insert(addr.cache_line().index());
                }
                _ => {}
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru_pmem::PmAddr;
    use jaaru_tso::ThreadId;
    use std::panic::Location;

    const LINE: u64 = 64;

    #[track_caller]
    fn rec(t: &mut OpTrace, tid: u32, kind: TraceOpKind) {
        t.record(ThreadId(tid), Location::caller(), kind);
    }

    fn store(t: &mut OpTrace, tid: u32, addr: u64, len: u32) {
        rec(
            t,
            tid,
            TraceOpKind::Store {
                addr: PmAddr::new(addr),
                len,
            },
        );
    }

    fn flush(t: &mut OpTrace, tid: u32, line: u64) {
        rec(
            t,
            tid,
            TraceOpKind::Clflush {
                first_line: line,
                last_line: line,
            },
        );
    }

    fn flushopt(t: &mut OpTrace, tid: u32, line: u64) {
        rec(
            t,
            tid,
            TraceOpKind::Clflushopt {
                first_line: line,
                last_line: line,
            },
        );
    }

    fn sfence(t: &mut OpTrace, tid: u32) {
        rec(t, tid, TraceOpKind::Sfence);
    }

    #[test]
    fn flush_on_another_thread_is_a_race() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        flush(&mut t, 1, 2); // thread 1 flushes thread 0's store
        let races = cross_thread_races(&PersistGraph::build(&t));
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind, DiagnosticKind::CrossThreadRace);
        assert_eq!(races[0].addr, Some(PmAddr::new(2 * LINE)));
        assert!(races[0].message.contains("thread 1"), "{races:?}");
    }

    #[test]
    fn rmw_synchronized_cross_thread_flush_is_clean() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        rec(
            &mut t,
            0,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: true,
                recovery: false,
            },
        );
        rec(
            &mut t,
            1,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: true,
                recovery: false,
            },
        );
        flush(&mut t, 1, 2); // ordered after the store by the RMW pair
        let races = cross_thread_races(&PersistGraph::build(&t));
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fence_on_the_wrong_thread_is_a_race() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        flushopt(&mut t, 0, 2); // parked in thread 0's buffer
        sfence(&mut t, 1); // thread 1 fences: drains nothing
        let races = cross_thread_races(&PersistGraph::build(&t));
        assert_eq!(races.len(), 1, "{races:?}");
        assert!(races[0].message.contains("fence on thread 0"), "{races:?}");
        assert!(
            matches!(races[0].suggestion, Some(FixEdit::InsertFence { .. })),
            "{races:?}"
        );
    }

    #[test]
    fn same_thread_flush_and_fence_are_clean() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        flushopt(&mut t, 0, 2);
        sfence(&mut t, 0);
        assert!(cross_thread_races(&PersistGraph::build(&t)).is_empty());
    }

    #[test]
    fn torn_store_with_split_persist_points_is_flagged() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 3 * LINE - 4, 8); // straddles lines 2 and 3
        flush(&mut t, 0, 2);
        sfence(&mut t, 0);
        // Line 3 never flushed: halves persist independently.
        let cands = torn_candidates(&PersistGraph::build(&t));
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].kind, DiagnosticKind::TornStore);
        let message = cands[0].clone().into_diagnostic().message;
        assert!(message.contains("line 3 never persists"), "{message}");

        // Flushing both lines separately still tears (a crash can land
        // between the two clflushes).
        let mut t = OpTrace::new();
        store(&mut t, 0, 3 * LINE - 4, 8);
        flush(&mut t, 0, 2);
        flush(&mut t, 0, 3);
        sfence(&mut t, 0);
        let cands = torn_candidates(&PersistGraph::build(&t));
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert!(cands[0].persists_eventually);
    }

    #[test]
    fn atomically_drained_straddle_is_not_torn() {
        // Both lines parked, one fence drains them at the same op: no
        // crash point separates the halves.
        let mut t = OpTrace::new();
        store(&mut t, 0, 3 * LINE - 4, 8);
        flushopt(&mut t, 0, 2);
        flushopt(&mut t, 0, 3);
        sfence(&mut t, 0);
        assert!(torn_candidates(&PersistGraph::build(&t)).is_empty());
        // Single-line stores are never torn.
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        assert!(torn_candidates(&PersistGraph::build(&t)).is_empty());
    }

    #[test]
    fn recovery_read_lines_come_from_recovery_flagged_ops() {
        let mut pre = OpTrace::new();
        rec(
            &mut pre,
            0,
            TraceOpKind::Load {
                addr: PmAddr::new(2 * LINE),
                len: 8,
                recovery: false,
            },
        );
        let mut rec1 = OpTrace::new();
        rec(
            &mut rec1,
            0,
            TraceOpKind::Load {
                addr: PmAddr::new(5 * LINE - 2),
                len: 4,
                recovery: true,
            },
        );
        rec(
            &mut rec1,
            0,
            TraceOpKind::Rmw {
                addr: PmAddr::new(7 * LINE),
                success: false,
                recovery: true,
            },
        );
        let lines = recovery_read_lines([&pre, &rec1]);
        assert!(!lines.contains(&2), "pre-failure loads don't count");
        assert!(lines.contains(&4) && lines.contains(&5), "{lines:?}");
        assert!(lines.contains(&7), "failed recovery CAS reads its line");
    }
}
