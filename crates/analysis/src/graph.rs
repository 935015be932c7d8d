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
//!   writeback forcing parked lines out). The per-line facts of every
//!   store sit in one array of the graph; a node holds its range
//!   ([`PersistGraph::lines`]);
//! * **happens-before** reachability is per-thread program order plus
//!   locked RMWs on a shared cache line as release/acquire pairs — the
//!   only cross-thread synchronization the guest API offers. Spawns are
//!   not recorded in traces, so the relation is deliberately
//!   conservative: an op on another thread is unordered unless an RMW
//!   chain connects them. Only the cross-thread pass asks, so the
//!   vector clocks behind it are built on the first
//!   [`happens_before`](PersistGraph::happens_before) query: one `u32`
//!   per guest thread per op, in one flat array.
//!
//! A site is the op's own [`SourceLoc`]: passes copy that reference into
//! the diagnostics they emit, and nothing is rendered to text until a
//! report is written.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::Range;

use jaaru_pmem::PmAddr;
use jaaru_tso::{OpTrace, SourceLoc, TraceOp, TraceOpKind};

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
    /// Where the store's per-line persist facts sit among the graph's,
    /// one per line in ascending line order; read them through
    /// [`PersistGraph::lines`]. The torn-store pass compares them.
    pub lines: Range<usize>,
}

impl StoreNode {
    /// Whether the store straddles a cache-line boundary.
    pub fn straddles(&self) -> bool {
        self.last_line > self.first_line
    }

    /// Index of `line`'s fact among the graph's (`line` is one of the
    /// store's).
    fn fact(&self, line: u64) -> usize {
        self.lines.start + (line - self.first_line) as usize
    }
}

/// The persist-order constraint graph of one execution's trace.
#[derive(Debug)]
pub struct PersistGraph<'a> {
    trace: &'a OpTrace,
    stores: Vec<StoreNode>,
    /// Every store's per-line facts, store after store.
    lines: Vec<LinePersist>,
    /// Per-op vector clocks (the op's own event included), built on the
    /// first happens-before query.
    clocks: OnceCell<Clocks>,
}

impl<'a> PersistGraph<'a> {
    /// Replays the buffer rules over `trace` and materializes the
    /// graph.
    pub fn build(trace: &'a OpTrace) -> Self {
        let ops = trace.ops();
        let mut stores: Vec<StoreNode> = Vec::new();
        let mut lines: Vec<LinePersist> = Vec::new();
        // Remaining unpersisted lines per store, parallel to `stores`.
        let mut lines_pending: Vec<u32> = Vec::new();
        // line -> indices into `stores` with that line still unflushed.
        let mut dirty: HashMap<u64, Vec<usize>> = HashMap::new();
        // thread -> (line, stores) entries awaiting a fence.
        let mut waiting: HashMap<usize, Vec<(u64, Vec<usize>)>> = HashMap::new();

        let persist = |stores: &mut [StoreNode],
                       lines: &mut [LinePersist],
                       lines_pending: &mut [u32],
                       idxs: &[usize],
                       line: u64,
                       at: usize| {
            for &s in idxs {
                let node = &mut stores[s];
                lines[node.fact(line)].persist_point.get_or_insert(at);
                lines_pending[s] = lines_pending[s].saturating_sub(1);
                if lines_pending[s] == 0 && node.persist_point.is_none() {
                    node.persist_point = Some(at);
                }
            }
        };
        let cover = |stores: &mut [StoreNode],
                     lines: &mut [LinePersist],
                     idxs: &[usize],
                     line: u64,
                     flush: FlushRef| {
            for &s in idxs {
                let node = &mut stores[s];
                node.flush.get_or_insert(flush);
                lines[node.fact(line)].flush.get_or_insert(flush);
            }
        };

        for (i, op) in ops.iter().enumerate() {
            let t = op.thread.0 as usize;
            match op.kind {
                TraceOpKind::Store { addr, .. } => {
                    let (first_line, last_line) = op.kind.line_range().unwrap();
                    let idx = stores.len();
                    let start = lines.len();
                    lines.extend((first_line..=last_line).map(|line| LinePersist {
                        line,
                        flush: None,
                        persist_point: None,
                    }));
                    stores.push(StoreNode {
                        op_idx: i,
                        addr,
                        first_line,
                        last_line,
                        persist_point: None,
                        flush: None,
                        lines: start..lines.len(),
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
                    let flush = FlushRef {
                        op_idx: i,
                        opt: false,
                    };
                    for l in first_line..=last_line {
                        if let Some(idxs) = dirty.remove(&l) {
                            cover(&mut stores, &mut lines, &idxs, l, flush);
                            persist(&mut stores, &mut lines, &mut lines_pending, &idxs, l, i);
                        }
                        // A clflush also forces lines parked in any
                        // thread's flush buffer: the eager writeback
                        // covers them.
                        for entries in waiting.values_mut() {
                            let mut k = 0;
                            while k < entries.len() {
                                if entries[k].0 == l {
                                    let (_, idxs) = entries.swap_remove(k);
                                    persist(
                                        &mut stores,
                                        &mut lines,
                                        &mut lines_pending,
                                        &idxs,
                                        l,
                                        i,
                                    );
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
                    let flush = FlushRef {
                        op_idx: i,
                        opt: true,
                    };
                    for l in first_line..=last_line {
                        if let Some(idxs) = dirty.remove(&l) {
                            cover(&mut stores, &mut lines, &idxs, l, flush);
                            waiting.entry(t).or_default().push((l, idxs));
                        }
                    }
                }
                TraceOpKind::Sfence | TraceOpKind::Mfence | TraceOpKind::Rmw { .. } => {
                    if let Some(entries) = waiting.remove(&t) {
                        for (l, idxs) in entries {
                            persist(&mut stores, &mut lines, &mut lines_pending, &idxs, l, i);
                        }
                    }
                }
            }
        }

        PersistGraph {
            trace,
            stores,
            lines,
            clocks: OnceCell::new(),
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

    /// `store`'s per-line persist facts, in ascending line order.
    pub fn lines(&self, store: &StoreNode) -> &[LinePersist] {
        &self.lines[store.lines.clone()]
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
        let clocks = self.clocks.get_or_init(|| Clocks::build(self.ops()));
        let ta = self.trace.ops()[a].thread.0 as usize;
        // `a`'s own component of its clock is its tick on its thread.
        clocks.of(b)[ta] >= clocks.of(a)[ta]
    }
}

/// Vector clocks of every op of a trace: component `t` of an op's clock
/// counts the events of thread `t` that happen-before the op, or are
/// the op. `width` components per op (the highest thread id plus one),
/// op after op, in one array.
#[derive(Debug)]
struct Clocks {
    width: usize,
    ticks: Vec<u32>,
}

impl Clocks {
    fn build(ops: &[TraceOp]) -> Clocks {
        let width = ops
            .iter()
            .map(|op| op.thread.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ticks = vec![0u32; width * ops.len()];
        // The last op of each thread: the clock its next op starts from.
        let mut last: Vec<Option<usize>> = vec![None; width];
        // The last successful locked RMW on each cache line: the clock
        // an RMW on that line acquires.
        let mut released: HashMap<u64, usize> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let t = op.thread.0 as usize;
            let (before, rest) = ticks.split_at_mut(i * width);
            let clock = &mut rest[..width];
            let row = |j: usize| &before[j * width..(j + 1) * width];
            if let Some(prev) = last[t] {
                clock.copy_from_slice(row(prev));
            }
            last[t] = Some(i);
            // Acquire on RMW, then the op's own tick, then release on
            // RMW. A *failed* CAS still acquires (the locked load
            // observed the line) but releases nothing: it made no store
            // another thread could synchronize with, so giving it a
            // release edge would fabricate happens-before out of a lost
            // race.
            let TraceOpKind::Rmw { addr, success, .. } = op.kind else {
                clock[t] += 1;
                continue;
            };
            let line = addr.cache_line().index();
            if let Some(&rel) = released.get(&line) {
                for (tick, &seen) in clock.iter_mut().zip(row(rel)) {
                    *tick = (*tick).max(seen);
                }
            }
            clock[t] += 1;
            if success {
                released.insert(line, i);
            }
        }
        Clocks { width, ticks }
    }

    /// Op `i`'s clock.
    fn of(&self, i: usize) -> &[u32] {
        &self.ticks[i * self.width..(i + 1) * self.width]
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
        assert_eq!(g.lines(&g.stores()[0])[0].persist_point, Some(2));
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
        let lines = g.lines(s);
        assert_eq!(lines.len(), 2);
        assert_eq!((lines[0].line, lines[1].line), (2, 3));
        assert_eq!(lines[0].persist_point, Some(1));
        assert_eq!(lines[1].persist_point, Some(2));
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

    fn rmw(t: &mut OpTrace, tid: u32, line: u64) {
        rec(
            t,
            tid,
            TraceOpKind::Rmw {
                addr: PmAddr::new(line * LINE),
                success: true,
                recovery: false,
            },
        );
    }

    #[test]
    fn release_acquire_chains_order_a_third_thread() {
        // Thread 0 releases on line A, thread 1 acquires A and releases
        // on line B, thread 2 acquires B: three clock components, and
        // happens-before is transitive along the chain.
        let (a, b) = (6, 7);
        let mut t = OpTrace::new();
        store(&mut t, 0, 2 * LINE, 8); // op 0, thread 0
        rmw(&mut t, 0, a); // op 1: release A
        store(&mut t, 0, 3 * LINE, 8); // op 2, thread 0, after the release
        rmw(&mut t, 1, a); // op 3: acquire A
        rmw(&mut t, 1, b); // op 4: release B
        rmw(&mut t, 2, b); // op 5: acquire B
        flush(&mut t, 2, 2); // op 6, thread 2
        let g = PersistGraph::build(&t);
        assert!(g.happens_before(0, 6), "the chain orders the store");
        assert!(g.happens_before(1, 5) && g.happens_before(3, 6));
        assert!(
            !g.happens_before(2, 6),
            "an op after the release is not ordered before the chain's end"
        );
        assert!(!g.happens_before(6, 0) && !g.happens_before(5, 4));
        assert!(!g.happens_before(2, 3), "thread 1 acquired before op 2");
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
