//! The persist-order constraint graph.
//!
//! One replay of the paper's Figure 7/8 buffer rules over a recorded
//! [`OpTrace`] produces the *persist-before* facts that every analysis
//! pass queries, instead of each pass re-walking the trace with its own
//! ad-hoc state machine:
//!
//! * **nodes** are the trace ops themselves (identified by trace
//!   index), with a [`StoreNode`] of reconstructed facts per store:
//!   which flush first covered each of its cache lines, and at which
//!   op each line — and the store as a whole — became persist-ordered.
//!   That op is a `clflush` of the line, or for a `clflushopt` the
//!   same-thread fence or locked RMW that applied it, or a `clflush` of
//!   the same line issued by *any* thread (the simulator's eager
//!   writeback forcing parked lines out);
//! * **vector clocks** give happens-before reachability: per-thread
//!   program order plus locked RMWs on a shared cache line as
//!   release/acquire pairs — the only cross-thread synchronization the
//!   guest API offers. Spawns are not recorded in traces, so the
//!   relation is deliberately conservative: an op on another thread is
//!   unordered unless an RMW chain connects them.
//!
//! A site is the op's own [`SourceLoc`]: passes copy that reference into
//! the diagnostics they emit, and nothing is rendered to text until a
//! report is written.

use std::collections::HashMap;

use jaaru_pmem::PmAddr;
use jaaru_tso::{OpTrace, SourceLoc, TraceOp, TraceOpKind};

use crate::vclock::VClock;

/// The first flush instruction that covered a store's cache line.
#[derive(Clone, Copy, Debug)]
pub struct FlushRef {
    /// Trace index of the flush.
    pub op_idx: usize,
    /// `true` for `clflushopt`/`clwb` (deferred), `false` for `clflush`
    /// (eager).
    pub opt: bool,
}

/// Per-cache-line persist facts of one store.
#[derive(Clone, Copy, Debug)]
pub struct LinePersist {
    /// The cache line index.
    pub line: u64,
    /// First flush covering this line after the store, if any.
    pub flush: Option<FlushRef>,
    /// Trace index at which this line's copy of the store persisted
    /// (`None` if it never did).
    pub persist_point: Option<usize>,
}

/// Reconstructed persist-ordering facts of one store.
#[derive(Clone, Debug)]
pub struct StoreNode {
    /// Trace index of the store.
    pub op_idx: usize,
    /// First byte stored.
    pub addr: PmAddr,
    /// First cache line touched.
    pub first_line: u64,
    /// Last cache line touched (`> first_line` for straddling stores).
    pub last_line: u64,
    /// Trace index at which the *whole* store became persist-ordered
    /// (all lines flushed and, for `clflushopt`, fenced); `None` if it
    /// never was.
    pub persist_point: Option<usize>,
    /// First flush that covered any of the store's lines.
    pub flush: Option<FlushRef>,
    /// Per-line persist facts, in ascending line order — the torn-store
    /// pass compares these.
    pub lines: Vec<LinePersist>,
}

impl StoreNode {
    /// Whether the store straddles a cache-line boundary.
    pub fn straddles(&self) -> bool {
        self.last_line > self.first_line
    }
}

/// The persist-order constraint graph of one execution's trace.
#[derive(Debug)]
pub struct PersistGraph<'a> {
    trace: &'a OpTrace,
    stores: Vec<StoreNode>,
    /// Per-op vector clock (the op's own event included).
    clocks: Vec<VClock>,
    /// Per-op tick within its own thread's component.
    ticks: Vec<u32>,
}

impl<'a> PersistGraph<'a> {
    /// Replays the buffer rules over `trace` and materializes the
    /// graph.
    pub fn build(trace: &'a OpTrace) -> Self {
        let ops = trace.ops();
        let mut stores: Vec<StoreNode> = Vec::new();
        let mut clocks: Vec<VClock> = Vec::with_capacity(ops.len());
        let mut ticks: Vec<u32> = Vec::with_capacity(ops.len());
        // Remaining unpersisted lines per store, parallel to `stores`.
        let mut lines_pending: Vec<u32> = Vec::new();
        // line -> indices into `stores` with that line still unflushed.
        let mut dirty: HashMap<u64, Vec<usize>> = HashMap::new();
        // thread -> (line, stores) entries awaiting a fence.
        let mut waiting: HashMap<usize, Vec<(u64, Vec<usize>)>> = HashMap::new();
        // Happens-before state: per-thread clocks plus the release
        // clock of the last locked RMW per cache line.
        let mut thread_clocks: HashMap<usize, VClock> = HashMap::new();
        let mut last_sync: HashMap<u64, VClock> = HashMap::new();

        let persist = |stores: &mut Vec<StoreNode>,
                       lines_pending: &mut [u32],
                       idxs: &[usize],
                       line: u64,
                       at: usize| {
            for &s in idxs {
                let node = &mut stores[s];
                if let Some(fact) = node.lines.iter_mut().find(|f| f.line == line) {
                    fact.persist_point.get_or_insert(at);
                }
                lines_pending[s] = lines_pending[s].saturating_sub(1);
                if lines_pending[s] == 0 && node.persist_point.is_none() {
                    node.persist_point = Some(at);
                }
            }
        };

        for (i, op) in ops.iter().enumerate() {
            // Happens-before bookkeeping first: acquire on RMW, then
            // the op's own tick, then release on RMW. A *failed* CAS
            // still acquires (the locked load observed the line) but
            // releases nothing: it made no store another thread could
            // synchronize with, so giving it a release edge would
            // fabricate happens-before out of a lost race.
            let (sync_line, releases) = match op.kind {
                TraceOpKind::Rmw { addr, success, .. } => {
                    (Some(addr.cache_line().index()), success)
                }
                _ => (None, false),
            };
            let t = op.thread.0 as usize;
            let clock = thread_clocks.entry(t).or_default();
            if let Some(line) = sync_line {
                if let Some(rel) = last_sync.get(&line) {
                    clock.join(rel);
                }
            }
            ticks.push(clock.advance(t));
            clocks.push(clock.clone());
            if releases {
                if let Some(line) = sync_line {
                    last_sync.insert(line, clock.clone());
                }
            }

            match op.kind {
                TraceOpKind::Store { addr, .. } => {
                    let (first_line, last_line) = op.kind.line_range().unwrap();
                    let idx = stores.len();
                    stores.push(StoreNode {
                        op_idx: i,
                        addr,
                        first_line,
                        last_line,
                        persist_point: None,
                        flush: None,
                        lines: (first_line..=last_line)
                            .map(|line| LinePersist {
                                line,
                                flush: None,
                                persist_point: None,
                            })
                            .collect(),
                    });
                    lines_pending.push((last_line - first_line + 1) as u32);
                    for l in first_line..=last_line {
                        dirty.entry(l).or_default().push(idx);
                    }
                }
                TraceOpKind::Load { .. } => {}
                TraceOpKind::Clflush {
                    first_line,
                    last_line,
                } => {
                    for l in first_line..=last_line {
                        if let Some(idxs) = dirty.remove(&l) {
                            for &s in &idxs {
                                let node = &mut stores[s];
                                let flush = FlushRef {
                                    op_idx: i,
                                    opt: false,
                                };
                                node.flush.get_or_insert(flush);
                                if let Some(fact) = node.lines.iter_mut().find(|f| f.line == l) {
                                    fact.flush.get_or_insert(flush);
                                }
                            }
                            persist(&mut stores, &mut lines_pending, &idxs, l, i);
                        }
                        // A clflush also forces lines parked in any
                        // thread's flush buffer: the eager writeback
                        // covers them.
                        for entries in waiting.values_mut() {
                            let mut k = 0;
                            while k < entries.len() {
                                if entries[k].0 == l {
                                    let (_, idxs) = entries.swap_remove(k);
                                    persist(&mut stores, &mut lines_pending, &idxs, l, i);
                                } else {
                                    k += 1;
                                }
                            }
                        }
                    }
                }
                TraceOpKind::Clflushopt {
                    first_line,
                    last_line,
                } => {
                    for l in first_line..=last_line {
                        if let Some(idxs) = dirty.remove(&l) {
                            for &s in &idxs {
                                let node = &mut stores[s];
                                let flush = FlushRef {
                                    op_idx: i,
                                    opt: true,
                                };
                                node.flush.get_or_insert(flush);
                                if let Some(fact) = node.lines.iter_mut().find(|f| f.line == l) {
                                    fact.flush.get_or_insert(flush);
                                }
                            }
                            waiting.entry(t).or_default().push((l, idxs));
                        }
                    }
                }
                TraceOpKind::Sfence | TraceOpKind::Mfence | TraceOpKind::Rmw { .. } => {
                    if let Some(entries) = waiting.remove(&t) {
                        for (l, idxs) in entries {
                            persist(&mut stores, &mut lines_pending, &idxs, l, i);
                        }
                    }
                }
            }
        }

        PersistGraph {
            trace,
            stores,
            clocks,
            ticks,
        }
    }

    /// The underlying trace ops, in program order.
    pub fn ops(&self) -> &[TraceOp] {
        self.trace.ops()
    }

    /// Reconstructed store facts, in program order.
    pub fn stores(&self) -> &[StoreNode] {
        &self.stores
    }

    /// The source site of op `op_idx`.
    pub fn site(&self, op_idx: usize) -> SourceLoc {
        self.trace.ops()[op_idx].loc
    }

    /// Whether op `a` happens-before op `b` under per-thread program
    /// order plus RMW release/acquire synchronization.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let ta = self.trace.ops()[a].thread.0 as usize;
        self.clocks[b].get(ta) >= self.ticks[a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn store_flush_fence_chain_builds_edges() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0
        flushopt(&mut t, 0, 2); // op 1
        rec(&mut t, 0, TraceOpKind::Sfence); // op 2
        let g = PersistGraph::build(&t);
        assert_eq!(g.stores().len(), 1);
        assert_eq!(g.stores()[0].persist_point, Some(2));
        assert_eq!(g.stores()[0].lines[0].persist_point, Some(2));
        assert_eq!(g.stores()[0].flush.unwrap().op_idx, 1);
        assert!(g.stores()[0].flush.unwrap().opt);
    }

    #[test]
    fn clflush_persists_at_the_flush_itself() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0
        flush(&mut t, 0, 2); // op 1
        let g = PersistGraph::build(&t);
        assert_eq!(g.stores()[0].persist_point, Some(1));
        assert!(!g.stores()[0].flush.unwrap().opt);
    }

    #[test]
    fn eager_clflush_drains_other_threads_parked_lines() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0
        flushopt(&mut t, 1, 2); // op 1: parked in thread 1's buffer
        flush(&mut t, 0, 2); // op 2: forces it out
        let g = PersistGraph::build(&t);
        assert_eq!(g.stores()[0].persist_point, Some(2));
        assert_eq!(g.stores()[0].flush.unwrap().op_idx, 1);
    }

    #[test]
    fn straddling_store_has_per_line_persist_points() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 3 * LINE - 4, 8); // op 0: lines 2 and 3
        flush(&mut t, 0, 2); // op 1
        flush(&mut t, 0, 3); // op 2
        let g = PersistGraph::build(&t);
        let s = &g.stores()[0];
        assert!(s.straddles());
        assert_eq!(s.lines.len(), 2);
        assert_eq!(s.lines[0].persist_point, Some(1));
        assert_eq!(s.lines[1].persist_point, Some(2));
        assert_eq!(s.persist_point, Some(2));
    }

    #[test]
    fn program_order_is_happens_before_but_threads_are_not() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0, thread 0
        store(&mut t, 0, 3 * LINE, 8); // op 1, thread 0
        store(&mut t, 1, 4 * LINE, 8); // op 2, thread 1
        let g = PersistGraph::build(&t);
        assert!(g.happens_before(0, 1));
        assert!(!g.happens_before(1, 0));
        assert!(!g.happens_before(0, 2), "no sync edge between threads");
        assert!(!g.happens_before(2, 0));
        assert!(!g.happens_before(0, 0));
    }

    #[test]
    fn rmw_on_a_shared_line_synchronizes_threads() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0, thread 0
        rec(
            &mut t,
            0,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: true,
                recovery: false,
            },
        ); // op 1: release
        rec(
            &mut t,
            1,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: true,
                recovery: false,
            },
        ); // op 2: acquire
        flush(&mut t, 1, 2); // op 3, thread 1
        let g = PersistGraph::build(&t);
        assert!(g.happens_before(0, 3), "RMW chain orders the flush");

        // Different RMW lines do not synchronize.
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
                addr: PmAddr::new(7 * LINE),
                success: true,
                recovery: false,
            },
        );
        flush(&mut t, 1, 2);
        let g = PersistGraph::build(&t);
        assert!(!g.happens_before(0, 3));
    }

    #[test]
    fn failed_cas_acquires_but_does_not_release() {
        // Thread 0's *failed* CAS must not act as a release: thread 1's
        // acquire on the same line gains no edge back to the store.
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0, thread 0
        rec(
            &mut t,
            0,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: false,
                recovery: false,
            },
        ); // op 1: failed CAS — no release
        rec(
            &mut t,
            1,
            TraceOpKind::Rmw {
                addr: PmAddr::new(6 * LINE),
                success: false,
                recovery: false,
            },
        ); // op 2: failed CAS — still acquires, but nothing was released
        flush(&mut t, 1, 2); // op 3, thread 1
        let g = PersistGraph::build(&t);
        assert!(
            !g.happens_before(0, 3),
            "a failed CAS must not publish a release edge"
        );

        // The acquire side of a failed CAS is real: after a *successful*
        // release, a failed attempt on the other thread still gains the
        // edge (it observed the line under the bus lock).
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
                success: false,
                recovery: false,
            },
        );
        flush(&mut t, 1, 2);
        let g = PersistGraph::build(&t);
        assert!(
            g.happens_before(0, 3),
            "a failed CAS still acquires from a successful release"
        );
    }

    #[test]
    fn loads_are_inert_in_the_replay() {
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8);
        rec(
            &mut t,
            0,
            TraceOpKind::Load {
                addr: PmAddr::new(2 * LINE),
                len: 8,
                recovery: false,
            },
        );
        flush(&mut t, 0, 2);
        let g = PersistGraph::build(&t);
        assert_eq!(g.stores().len(), 1);
        assert_eq!(g.stores()[0].persist_point, Some(2));
    }
}
