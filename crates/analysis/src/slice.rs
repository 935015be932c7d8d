//! Static persistence slicing.
//!
//! An analysis over recorded operation traces that computes what a
//! recovery execution can actually *observe* of the pre-crash persist
//! order, and from it which crash points recovery cannot tell apart:
//!
//! * the **recovery read footprint** — the cache lines whose persisted
//!   contents any recovery execution reads, seeded from the
//!   recovery-flagged `Load`/`Rmw` ops of post-failure traces;
//! * **absorption facts** — a line whose last pre-crash store is
//!   flushed and fenced masks every earlier store's writeback-interval
//!   choice: after the absorbing fence, recovery always reads the
//!   final value, so the earlier intervals collapse;
//! * **crash-point equivalence classes** — maximal runs of consecutive
//!   injection points with no footprint-line activity between them.
//!   Two crash points in the same class expose byte-identical
//!   persisted footprint state to recovery, so recovery cannot
//!   distinguish them.
//!
//! The report is advisory: the explorer still expands every crash
//! point. `jaaru_cli analyze` surfaces it.

use std::collections::{BTreeMap, HashMap, HashSet};

use jaaru_tso::{OpTrace, TraceOpKind};

use crate::json::json_string;
use crate::races::recovery_read_lines;

/// One absorption fact: the last store to `line` is flushed and
/// fenced, so the writeback-interval choices of every earlier store to
/// the line are masked — recovery always observes the final value.
#[derive(Clone, Debug)]
pub struct Absorption {
    /// The absorbed cache line.
    pub line: u64,
    /// How many earlier stores to the line lose their writeback choice.
    pub masked_stores: u64,
    /// Site (`file:line:column`) of the absorbing flush.
    pub absorbing_site: String,
}

/// One equivalence class of crash points: consecutive injection points
/// of the pre-failure execution between which nothing touched a
/// footprint line. Recovery observes identical persisted footprint
/// state at every member, so exploring the representative covers the
/// whole class.
#[derive(Clone, Debug)]
pub struct CrashPointClass {
    /// Ordinal (0-based injection-point index) of the representative —
    /// the first member.
    pub representative: usize,
    /// Ordinals of the other members, which recovery cannot tell apart
    /// from the representative.
    pub members: Vec<usize>,
}

/// The computed persistence slice of one scenario's traces.
#[derive(Clone, Debug, Default)]
pub struct SliceReport {
    /// Sorted cache lines recovery reads.
    pub footprint: Vec<u64>,
    /// Per-line recovery read-op counts, sorted by line.
    pub reads_per_line: Vec<(u64, u64)>,
    /// Per-line pre-failure store-op counts, sorted by line.
    pub writes_per_line: Vec<(u64, u64)>,
    /// Lines whose final store absorbs earlier writeback choices.
    pub absorptions: Vec<Absorption>,
    /// Crash-point equivalence classes, in program order.
    pub classes: Vec<CrashPointClass>,
    /// Total predicted injection points in the pre-failure execution.
    pub total_points: usize,
    /// Points predicted to behave like their class representative
    /// (`total_points` minus one representative per class).
    pub predicted_skipped: usize,
}

impl SliceReport {
    /// Builds the slice from a scenario's recorded traces: `traces[0]`
    /// is the pre-failure execution, later entries are recoveries
    /// (their loads carry the recovery flag either way).
    pub fn build(traces: &[OpTrace]) -> SliceReport {
        let footprint = recovery_read_lines(traces);
        let pre = match traces.first() {
            Some(t) => t,
            None => return SliceReport::default(),
        };

        let mut reads: BTreeMap<u64, u64> = BTreeMap::new();
        for trace in traces {
            for op in trace.ops() {
                if !op.kind.is_recovery_read() {
                    continue;
                }
                match op.kind {
                    TraceOpKind::Load { .. } => {
                        if let Some((first, last)) = op.kind.line_range() {
                            for l in first..=last {
                                *reads.entry(l).or_insert(0) += 1;
                            }
                        }
                    }
                    TraceOpKind::Rmw { addr, .. } => {
                        *reads.entry(addr.cache_line().index()).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
        }

        let mut writes: BTreeMap<u64, u64> = BTreeMap::new();
        for op in pre.ops() {
            if let TraceOpKind::Store { .. } = op.kind {
                let (first, last) = op.kind.line_range().unwrap();
                for l in first..=last {
                    *writes.entry(l).or_insert(0) += 1;
                }
            }
        }

        let absorptions = absorption_facts(pre, &footprint);
        let (classes, total_points) = crash_point_classes(pre, &footprint);
        let predicted_skipped = classes.iter().map(|c| c.members.len()).sum();

        let mut footprint: Vec<u64> = footprint.into_iter().collect();
        footprint.sort_unstable();
        SliceReport {
            footprint,
            reads_per_line: reads.into_iter().collect(),
            writes_per_line: writes.into_iter().collect(),
            absorptions,
            classes,
            total_points,
            predicted_skipped,
        }
    }

    /// The slice as a hand-rolled JSON object (the repo carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let pairs = |v: &[(u64, u64)]| {
            let items: Vec<String> = v
                .iter()
                .map(|(l, n)| format!("{{\"line\":{l},\"count\":{n}}}"))
                .collect();
            format!("[{}]", items.join(","))
        };
        let lines: Vec<String> = self.footprint.iter().map(|l| l.to_string()).collect();
        let absorptions: Vec<String> = self
            .absorptions
            .iter()
            .map(|a| {
                format!(
                    "{{\"line\":{},\"masked_stores\":{},\"absorbing_site\":{}}}",
                    a.line,
                    a.masked_stores,
                    json_string(&a.absorbing_site)
                )
            })
            .collect();
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                let members: Vec<String> = c.members.iter().map(|m| m.to_string()).collect();
                format!(
                    "{{\"representative\":{},\"members\":[{}]}}",
                    c.representative,
                    members.join(",")
                )
            })
            .collect();
        format!(
            "{{\"footprint\":[{}],\"reads_per_line\":{},\"writes_per_line\":{},\
             \"absorptions\":[{}],\"classes\":[{}],\"total_points\":{},\
             \"predicted_skipped\":{}}}",
            lines.join(","),
            pairs(&self.reads_per_line),
            pairs(&self.writes_per_line),
            absorptions.join(","),
            classes.join(","),
            self.total_points,
            self.predicted_skipped,
        )
    }
}

/// Lines whose *last* store is covered by a flush that takes effect
/// (a `clflush`, or a `clflushopt` followed by a same-thread ordering
/// op): every earlier store to the line is masked.
fn absorption_facts(pre: &OpTrace, footprint: &HashSet<u64>) -> Vec<Absorption> {
    let ops = pre.ops();
    // line -> store count and index of the last store.
    let mut stores_per_line: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let TraceOpKind::Store { .. } = op.kind {
            let (first, last) = op.kind.line_range().unwrap();
            for l in first..=last {
                let e = stores_per_line.entry(l).or_insert((0, i));
                e.0 += 1;
                e.1 = i;
            }
        }
    }

    let mut out = Vec::new();
    for (&line, &(count, last_store)) in &stores_per_line {
        if count < 2 || !footprint.contains(&line) {
            continue;
        }
        // Find a flush of the line after its last store that takes
        // effect before the end of the trace.
        let mut absorbing: Option<usize> = None;
        for (i, op) in ops.iter().enumerate().skip(last_store + 1) {
            match op.kind {
                TraceOpKind::Clflush { .. } => {
                    let (first, last) = op.kind.line_range().unwrap();
                    if (first..=last).contains(&line) {
                        absorbing = Some(i);
                        break;
                    }
                }
                TraceOpKind::Clflushopt { .. } => {
                    let (first, last) = op.kind.line_range().unwrap();
                    if (first..=last).contains(&line) {
                        // Only absorbs once the issuing thread fences.
                        let fenced = ops[i + 1..]
                            .iter()
                            .any(|o| o.thread == op.thread && o.kind.is_ordering());
                        if fenced {
                            absorbing = Some(i);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(i) = absorbing {
            out.push(Absorption {
                line,
                masked_stores: count - 1,
                absorbing_site: ops[i].site(),
            });
        }
    }
    out
}

/// Predicts the pre-failure execution's injection points and groups
/// them into equivalence classes: a point joins its predecessor's class iff nothing since the
/// previous point touched a footprint line — counting stores, eager
/// flushes, and parked `clflushopt`s applied by a later fence or RMW.
fn crash_point_classes(pre: &OpTrace, footprint: &HashSet<u64>) -> (Vec<CrashPointClass>, usize) {
    let mut classes: Vec<CrashPointClass> = Vec::new();
    let mut touched: HashSet<u64> = HashSet::new();
    let mut parked: HashMap<u32, HashSet<u64>> = HashMap::new();
    let mut ordinal = 0usize;

    let mut visit_point = |touched: &mut HashSet<u64>, ordinal: &mut usize, at_end: bool| {
        let distinct = at_end || *ordinal == 0 || touched.iter().any(|l| footprint.contains(l));
        if distinct || classes.is_empty() {
            classes.push(CrashPointClass {
                representative: *ordinal,
                members: Vec::new(),
            });
        } else {
            classes.last_mut().unwrap().members.push(*ordinal);
        }
        *ordinal += 1;
        touched.clear();
    };

    for op in pre.ops() {
        match op.kind {
            TraceOpKind::Store { .. } => {
                let (first, last) = op.kind.line_range().unwrap();
                touched.extend(first..=last);
            }
            TraceOpKind::Clflush { .. } => {
                // The checker injects a point before every flush call.
                visit_point(&mut touched, &mut ordinal, false);
                let (first, last) = op.kind.line_range().unwrap();
                touched.extend(first..=last);
            }
            TraceOpKind::Clflushopt { .. } => {
                visit_point(&mut touched, &mut ordinal, false);
                let (first, last) = op.kind.line_range().unwrap();
                touched.extend(first..=last);
                parked.entry(op.thread.0).or_default().extend(first..=last);
            }
            TraceOpKind::Sfence | TraceOpKind::Mfence => {
                let pending = parked.get(&op.thread.0).is_some_and(|p| !p.is_empty());
                if pending {
                    // A fence over parked flushes is an injection point.
                    visit_point(&mut touched, &mut ordinal, false);
                }
                if let Some(p) = parked.get_mut(&op.thread.0) {
                    // Applying parked flushes (re)touches their lines.
                    touched.extend(p.drain());
                }
            }
            TraceOpKind::Rmw { addr, .. } => {
                if let Some(p) = parked.get_mut(&op.thread.0) {
                    touched.extend(p.drain());
                }
                touched.insert(addr.cache_line().index());
            }
            TraceOpKind::Load { .. } => {}
        }
    }
    // The end-of-execution point (`inject_at_end`) anchors its own
    // class: it is never skipped.
    visit_point(&mut touched, &mut ordinal, true);
    (classes, ordinal)
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

    fn store(t: &mut OpTrace, addr: u64) {
        rec(
            t,
            0,
            TraceOpKind::Store {
                addr: PmAddr::new(addr),
                len: 8,
            },
        );
    }

    fn flush(t: &mut OpTrace, line: u64) {
        rec(
            t,
            0,
            TraceOpKind::Clflush {
                first_line: line,
                last_line: line,
            },
        );
    }

    fn recovery_load(t: &mut OpTrace, addr: u64) {
        rec(
            t,
            0,
            TraceOpKind::Load {
                addr: PmAddr::new(addr),
                len: 8,
                recovery: true,
            },
        );
    }

    fn slice_of(pre: OpTrace, rec_trace: OpTrace) -> SliceReport {
        SliceReport::build(&[pre, rec_trace])
    }

    #[test]
    fn footprint_and_counts_come_from_recovery_reads() {
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE);
        store(&mut pre, 5 * LINE);
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        assert_eq!(s.footprint, vec![2]);
        assert_eq!(s.reads_per_line, vec![(2, 2)]);
        assert_eq!(s.writes_per_line, vec![(2, 1), (5, 1)]);
    }

    #[test]
    fn consecutive_points_without_footprint_activity_share_a_class() {
        // Recovery reads only line 2. The flushes of lines 5 and 6 are
        // injection points recovery cannot tell apart from the point
        // before them: nothing in between touched line 2.
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE);
        flush(&mut pre, 2); // point 0: anchor (first point)
        store(&mut pre, 5 * LINE);
        flush(&mut pre, 5); // point 1: flush of 2 touched line 2 -> anchor
        store(&mut pre, 6 * LINE);
        flush(&mut pre, 6); // point 2: only line 5/6 activity -> member
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        // end-of-execution point (ordinal 3) always anchors itself.
        assert_eq!(s.total_points, 4);
        assert_eq!(s.classes.len(), 3, "{:?}", s.classes);
        assert_eq!(s.classes[1].representative, 1);
        assert_eq!(s.classes[1].members, vec![2]);
        assert_eq!(s.predicted_skipped, 1);
    }

    #[test]
    fn parked_flushopt_of_a_footprint_line_splits_classes_at_the_fence() {
        // A clflushopt of footprint line 2 parks; the later sfence
        // applies it, so the next point must not join the fence's class.
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE);
        rec(
            &mut pre,
            0,
            TraceOpKind::Clflushopt {
                first_line: 2,
                last_line: 2,
            },
        ); // point 0 (anchor), parks line 2
        store(&mut pre, 5 * LINE);
        rec(&mut pre, 0, TraceOpKind::Sfence); // point 1, then applies line 2
        flush(&mut pre, 5); // point 2: the drained line 2 counts as touched
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        let reps: Vec<usize> = s.classes.iter().map(|c| c.representative).collect();
        assert!(
            reps.contains(&2),
            "point 2 must anchor its own class: {reps:?}"
        );
    }

    #[test]
    fn last_fenced_store_absorbs_earlier_writeback_choices() {
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE); // masked
        store(&mut pre, 2 * LINE); // masked
        store(&mut pre, 2 * LINE); // final value
        flush(&mut pre, 2);
        rec(&mut pre, 0, TraceOpKind::Sfence);
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        assert_eq!(s.absorptions.len(), 1, "{:?}", s.absorptions);
        assert_eq!(s.absorptions[0].line, 2);
        assert_eq!(s.absorptions[0].masked_stores, 2);
    }

    #[test]
    fn unflushed_last_store_absorbs_nothing() {
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE);
        flush(&mut pre, 2);
        store(&mut pre, 2 * LINE); // last store never flushed
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        assert!(s.absorptions.is_empty(), "{:?}", s.absorptions);
    }

    #[test]
    fn json_rendering_is_complete() {
        let mut pre = OpTrace::new();
        store(&mut pre, 2 * LINE);
        store(&mut pre, 2 * LINE);
        flush(&mut pre, 2);
        rec(&mut pre, 0, TraceOpKind::Sfence);
        let mut rec1 = OpTrace::new();
        recovery_load(&mut rec1, 2 * LINE);
        let s = slice_of(pre, rec1);
        let json = s.to_json();
        for key in [
            "\"footprint\"",
            "\"reads_per_line\"",
            "\"writes_per_line\"",
            "\"absorptions\"",
            "\"classes\"",
            "\"total_points\"",
            "\"predicted_skipped\"",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn empty_traces_yield_an_empty_slice() {
        let s = SliceReport::build(&[]);
        assert!(s.footprint.is_empty());
        assert_eq!(s.total_points, 0);
    }
}
