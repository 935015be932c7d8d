//! The flush-redundancy performance pass (Bentō-style).
//!
//! Persistency operations are expensive; tuned PM code routinely
//! carries flushes and fences that order nothing. This pass replays a
//! trace with per-line dirty bits and reports three wasted-op shapes:
//!
//! * **redundant flush** — a `clflush`/`clflushopt` whose whole line
//!   range has no stores since the last flush of those lines;
//! * **flush before store** — a flush of a line that has never been
//!   stored to but will be later in the trace: the flush persists
//!   nothing and the store it was presumably meant to cover stays
//!   dirty;
//! * **redundant fence** — an `sfence`/`mfence` with no stores or
//!   flushes anywhere since the last ordering op.
//!
//! The dirty bits are deliberately simpler than the simulator's cache
//! state: a line counts as covered once *any* flush targets it,
//! regardless of which thread's flush buffer the line is parked in.
//! That makes the pass a pure function of the trace — aggregation
//! across executions and workers stays digest-stable — at the cost of
//! not modelling flushes that race with their own fence (the
//! cross-thread pass owns those).

use std::collections::{HashMap, HashSet};

use jaaru_tso::{LineSet, TraceOpKind};

use crate::diagnostic::{Diagnostic, DiagnosticKind, DiagnosticSet};
use crate::graph::PersistGraph;
use crate::repair::FixEdit;

/// Replays `graph`'s trace with per-line dirty bits and reports wasted
/// persistency operations, deduplicated by site with occurrence
/// counts.
pub fn flush_redundancy(graph: &PersistGraph<'_>) -> Vec<Diagnostic> {
    let ops = graph.ops();

    // First store to each line, for the flush-before-store shape.
    let mut first_store: HashMap<u64, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let TraceOpKind::Store { .. } = op.kind {
            let (first, last) = op.kind.line_range().unwrap();
            for l in first..=last {
                first_store.entry(l).or_insert(i);
            }
        }
    }

    let mut out = DiagnosticSet::new();
    let mut dirty: HashSet<u64> = HashSet::new();
    let mut work_since_fence = 0u64;

    for (i, op) in ops.iter().enumerate() {
        match op.kind {
            TraceOpKind::Store { .. } => {
                let (first, last) = op.kind.line_range().unwrap();
                dirty.extend(first..=last);
                work_since_fence += 1;
            }
            TraceOpKind::Load { .. } => {}
            TraceOpKind::Clflush { .. } | TraceOpKind::Clflushopt { .. } => {
                let opt = matches!(op.kind, TraceOpKind::Clflushopt { .. });
                let (first, last) = op.kind.line_range().unwrap();
                if (first..=last).all(|l| !dirty.contains(&l)) {
                    // Nothing to write back. Classify: a flush whose
                    // line is only stored to later was meant to cover
                    // that store; otherwise it is a plain re-flush.
                    let premature =
                        (first..=last).any(|l| first_store.get(&l).is_some_and(|&s| s > i));
                    let kind = if premature {
                        DiagnosticKind::FlushBeforeStore
                    } else if opt {
                        DiagnosticKind::RedundantFlushOpt
                    } else {
                        DiagnosticKind::RedundantFlush
                    };
                    let message = if premature {
                        format!(
                            "the flush at {} covers lines {first}..={last} before \
                             any store to them; move it after the store it is \
                             meant to persist",
                            graph.site(i)
                        )
                    } else {
                        format!(
                            "the flush at {} covers lines {first}..={last} with no \
                             stores since their last flush; remove it",
                            graph.site(i)
                        )
                    };
                    out.insert(Diagnostic {
                        kind,
                        site: graph.site(i),
                        message,
                        // The line filter keeps the deletion from
                        // swallowing useful flushes issued through the
                        // same (interpreter-style) call site.
                        suggestion: Some(FixEdit::DeleteFlush {
                            site: graph.site(i),
                            line: Some(first),
                        }),
                        addr: None,
                        occurrences: 1,
                    });
                }
                for l in first..=last {
                    dirty.remove(&l);
                }
                work_since_fence += 1;
            }
            TraceOpKind::Sfence | TraceOpKind::Mfence => {
                if work_since_fence == 0 {
                    out.insert(Diagnostic {
                        kind: DiagnosticKind::RedundantFence,
                        site: graph.site(i),
                        message: format!(
                            "the fence at {} has no stores or flushes to order \
                             since the previous ordering op; remove it",
                            graph.site(i)
                        ),
                        // No DeleteFence in the edit vocabulary:
                        // removing a fence can unorder flushes the
                        // dirty-bit replay doesn't see.
                        suggestion: None,
                        addr: None,
                        occurrences: 1,
                    });
                }
                work_since_fence = 0;
            }
            TraceOpKind::Rmw { .. } => {
                // A locked RMW fences both sides but is never itself
                // redundant — it does real work.
                work_since_fence = 0;
            }
        }
    }
    out.into_vec()
}

/// Reports flushes whose entire line range lies outside the recovery
/// read footprint: no recovery execution ever reads those lines, so
/// persisting them buys nothing and the flush can be deleted outright.
///
/// The footprint must come from an *exhaustive* exploration (every
/// recovery branch observed), otherwise a line read only on a rare
/// recovery path would be misreported; the checker guarantees this by
/// running the pass only after an untruncated run. An empty footprint
/// means no recovery ever ran (or read nothing) — the pass stays
/// silent rather than condemning every flush in the program.
pub fn dead_flushes(graph: &PersistGraph<'_>, footprint: &LineSet) -> Vec<Diagnostic> {
    if footprint.is_empty() {
        return Vec::new();
    }
    let mut out = DiagnosticSet::new();
    for (i, op) in graph.ops().iter().enumerate() {
        if !matches!(
            op.kind,
            TraceOpKind::Clflush { .. } | TraceOpKind::Clflushopt { .. }
        ) {
            continue;
        }
        let (first, last) = op.kind.line_range().unwrap();
        if (first..=last).any(|l| footprint.contains(&l)) {
            continue;
        }
        out.insert(Diagnostic {
            kind: DiagnosticKind::DeadFlush,
            site: graph.site(i),
            message: format!(
                "the flush at {} covers lines {first}..={last}, which no \
                 recovery execution ever reads; remove it",
                graph.site(i)
            ),
            suggestion: Some(FixEdit::DeleteFlush {
                site: graph.site(i),
                line: Some(first),
            }),
            addr: None,
            occurrences: 1,
        });
    }
    out.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru_pmem::PmAddr;
    use jaaru_tso::{OpTrace, ThreadId};
    use std::panic::Location;

    const LINE: u64 = 64;

    #[track_caller]
    fn rec(t: &mut OpTrace, kind: TraceOpKind) {
        t.record(ThreadId(0), Location::caller(), kind);
    }

    fn store(t: &mut OpTrace, addr: u64) {
        rec(
            t,
            TraceOpKind::Store {
                addr: PmAddr::new(addr),
                len: 8,
            },
        );
    }

    fn flush(t: &mut OpTrace, line: u64) {
        rec(
            t,
            TraceOpKind::Clflush {
                first_line: line,
                last_line: line,
            },
        );
    }

    fn run(t: &OpTrace) -> Vec<Diagnostic> {
        flush_redundancy(&PersistGraph::build(t))
    }

    #[test]
    fn re_flush_without_intervening_store_is_redundant() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        flush(&mut t, 2); // nothing dirty anymore
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind, DiagnosticKind::RedundantFlush);

        // An intervening store makes the second flush useful.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        store(&mut t, 2 * LINE + 8);
        flush(&mut t, 2);
        assert!(run(&t).is_empty());
    }

    #[test]
    fn redundant_clflushopt_is_distinguished() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        rec(
            &mut t,
            TraceOpKind::Clflushopt {
                first_line: 2,
                last_line: 2,
            },
        );
        rec(
            &mut t,
            TraceOpKind::Clflushopt {
                first_line: 2,
                last_line: 2,
            },
        );
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind, DiagnosticKind::RedundantFlushOpt);
    }

    #[test]
    fn flush_before_any_store_is_premature() {
        let mut t = OpTrace::new();
        flush(&mut t, 2);
        store(&mut t, 2 * LINE);
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind, DiagnosticKind::FlushBeforeStore);
        assert!(d[0].message.contains("before any store"), "{d:?}");

        // A flush of a line never stored at all is a plain redundant
        // flush, not a premature one.
        let mut t = OpTrace::new();
        flush(&mut t, 9);
        let d = run(&t);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DiagnosticKind::RedundantFlush);
    }

    #[test]
    fn fence_over_empty_buffers_is_redundant() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        rec(&mut t, TraceOpKind::Sfence); // orders the flush: useful
        rec(&mut t, TraceOpKind::Sfence); // orders nothing
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind, DiagnosticKind::RedundantFence);
    }

    #[test]
    fn occurrences_aggregate_per_site() {
        // The same wasted flush executed in a loop dedups to one entry
        // with a summed count.
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        let loc = Location::caller();
        for _ in 0..3 {
            t.record(
                ThreadId(0),
                loc,
                TraceOpKind::Clflush {
                    first_line: 2,
                    last_line: 2,
                },
            );
        }
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].occurrences, 3);
    }

    #[test]
    fn flush_outside_the_footprint_is_dead() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2); // line 2: recovery reads it — live
        store(&mut t, 5 * LINE);
        flush(&mut t, 5); // line 5: recovery never reads it — dead
        rec(&mut t, TraceOpKind::Sfence);
        let footprint: LineSet = [2].into_iter().collect();
        let d = dead_flushes(&PersistGraph::build(&t), &footprint);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind, DiagnosticKind::DeadFlush);
        assert!(d[0].message.contains("lines 5..=5"), "{d:?}");
        assert!(
            matches!(
                d[0].suggestion,
                Some(FixEdit::DeleteFlush { line: Some(5), .. })
            ),
            "{d:?}"
        );
    }

    #[test]
    fn empty_footprint_silences_the_dead_flush_pass() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        assert!(dead_flushes(&PersistGraph::build(&t), &LineSet::default()).is_empty());
    }

    #[test]
    fn straddling_flush_with_one_live_line_is_not_dead() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        rec(
            &mut t,
            TraceOpKind::Clflush {
                first_line: 2,
                last_line: 3,
            },
        );
        let footprint: LineSet = [3].into_iter().collect();
        assert!(dead_flushes(&PersistGraph::build(&t), &footprint).is_empty());
    }

    #[test]
    fn clean_figure4_idiom_has_no_findings() {
        let mut t = OpTrace::new();
        store(&mut t, 2 * LINE);
        flush(&mut t, 2);
        rec(&mut t, TraceOpKind::Sfence);
        store(&mut t, 3 * LINE);
        flush(&mut t, 3);
        rec(&mut t, TraceOpKind::Sfence);
        assert!(run(&t).is_empty());
    }
}
