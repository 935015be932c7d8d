//! Decision traces: the replay mechanism behind exhaustive exploration.
//!
//! The original Jaaru forks the process to roll executions back; this
//! reproduction re-executes failure scenarios from scratch, steering each
//! run with a recorded *decision trace*. A decision is made whenever the
//! checker faces nondeterminism it must explore exhaustively:
//!
//! * at every failure injection point: continue, or inject a power
//!   failure ([`ChoiceKind::Crash`]),
//! * at every post-failure load with more than one possible store to read
//!   from ([`ChoiceKind::ReadFrom`], the `rfset` loop of Figure 11).
//!
//! Depth-first search over decision traces visits every leaf exactly once,
//! which is precisely "one post-failure state per equivalence class of
//! post-failure executions".

use std::fmt;

/// What a decision chooses between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceKind {
    /// Inject a power failure at this injection point? (0 = continue,
    /// 1 = crash.)
    Crash,
    /// Which store does this load read from? (Index into the
    /// `BuildMayReadFrom` set, newest first.)
    ReadFrom,
}

/// One recorded decision.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// Alternative taken (0-based).
    pub chosen: usize,
    /// Number of alternatives that existed.
    pub total: usize,
    /// What was being decided.
    pub kind: ChoiceKind,
    /// Which execution of the scenario made the decision.
    pub exec_index: usize,
}

impl Decision {
    /// Whether an alternative after the chosen one is left.
    fn has_alternatives(&self) -> bool {
        self.chosen + 1 < self.total
    }
}

/// A replayable decision trace with DFS backtracking.
///
/// During a run, [`DecisionLog::next`] either replays a recorded decision
/// or appends a fresh one choosing alternative `0`. Between runs,
/// [`DecisionLog::backtrack`] advances to the next unexplored trace. The
/// decisions below the log's *floor* are fixed: they name the subtree
/// this log explores, and [`DecisionLog::split`] raises the floor when it
/// hands subtrees to another explorer.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    decisions: Vec<Decision>,
    cursor: usize,
    prefix_len: usize,
    floor: usize,
}

impl DecisionLog {
    /// Creates an empty log (first scenario: all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log that replays a recorded trace (the `trace` field of
    /// a [`BugReport`](crate::BugReport)): the k-th decision takes the
    /// k-th alternative. Alternative counts are re-derived during the
    /// run; an out-of-range index means the trace does not belong to
    /// this program and panics.
    pub fn from_trace(trace: &[usize]) -> Self {
        DecisionLog {
            decisions: trace
                .iter()
                .map(|&chosen| Decision {
                    chosen,
                    total: usize::MAX, // filled in on replay
                    kind: ChoiceKind::Crash,
                    exec_index: 0,
                })
                .collect(),
            cursor: 0,
            prefix_len: trace.len(),
            floor: 0,
        }
    }

    /// Makes or replays the next decision.
    ///
    /// # Panics
    ///
    /// Panics if a replayed decision disagrees with the recorded one in
    /// kind or alternative count — that means the guest program is
    /// nondeterministic, which the checker requires it not to be.
    pub fn next(&mut self, total: usize, kind: ChoiceKind, exec_index: usize) -> usize {
        assert!(total >= 1, "decision with no alternatives");
        let idx = self.cursor;
        self.cursor += 1;
        if idx < self.decisions.len() {
            let d = &mut self.decisions[idx];
            if d.total == usize::MAX {
                // Replaying an external trace: adopt the real metadata.
                assert!(
                    d.chosen < total,
                    "trace does not match this program: decision {idx} chose \
                     alternative {} of {total}",
                    d.chosen,
                );
                d.total = total;
                d.kind = kind;
                d.exec_index = exec_index;
                return d.chosen;
            }
            let d = *d;
            assert!(
                d.kind == kind && d.total == total,
                "nondeterministic guest program: replay expected {:?} with {} alternatives, \
                 got {:?} with {}",
                d.kind,
                d.total,
                kind,
                total,
            );
            d.chosen
        } else {
            self.decisions.push(Decision {
                chosen: 0,
                total,
                kind,
                exec_index,
            });
            0
        }
    }

    /// Index of the first decision that was *fresh* (not a replay) in the
    /// most recent run.
    #[cfg(test)]
    pub fn first_fresh_index(&self) -> usize {
        self.prefix_len
    }

    /// The execution index from which the most recent run diverged from
    /// the previous one (0 for the first run: everything is fresh).
    pub fn divergence_exec_index(&self) -> usize {
        if self.prefix_len == 0 {
            0
        } else {
            // The last prefix decision is the one backtracking flipped.
            self.decisions
                .get(self.prefix_len - 1)
                .map(|d| d.exec_index)
                .unwrap_or(0)
        }
    }

    /// The alternatives chosen, as a compact reproduction trace.
    pub fn trace(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }

    /// Whether decision `index` injects a power failure: a crash
    /// decision that takes alternative 1.
    pub fn crashes_at(&self, index: usize) -> bool {
        self.decisions
            .get(index)
            .is_some_and(|d| d.kind == ChoiceKind::Crash && d.chosen == 1)
    }

    /// Number of decisions consumed so far in the current run.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// Marks the first `len` decisions consumed, as if the executions
    /// before a restored checkpoint had replayed them. The restore skips
    /// those executions, so the decisions keep the metadata recorded by
    /// the run that made them.
    ///
    /// # Panics
    ///
    /// Panics unless the last of the `len` decisions is a taken crash:
    /// the one whose checkpoint is being restored.
    pub fn adopt_prefix(&mut self, len: usize) {
        assert_eq!(self.cursor, 0, "adopt_prefix requires an unconsumed log");
        assert!(
            len > 0 && self.crashes_at(len - 1),
            "a checkpoint does not prefix the planned trace: its {len} decisions \
             do not end in a crash the plan takes"
        );
        self.cursor = len;
    }

    /// Length of the prescribed prefix of the most recent run (decisions
    /// replayed rather than made fresh).
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Splits off the subtrees of the shallowest decision at or above
    /// the floor that has untaken alternatives: one log per such
    /// alternative, holding the path up to that decision (with full
    /// metadata) with the alternative taken, and its own length as its
    /// floor. This log's floor rises past the decision, so
    /// [`backtrack`](Self::backtrack) never enters a split-off subtree.
    /// The donated logs and what this log still explores cover the
    /// leaves it had left, each exactly once. Empty when nothing at or
    /// above the floor is left to explore.
    pub fn split(&mut self) -> Vec<DecisionLog> {
        let Some(at) =
            (self.floor..self.decisions.len()).find(|&i| self.decisions[i].has_alternatives())
        else {
            return Vec::new();
        };
        self.floor = at + 1;
        let taken = self.decisions[at];
        (taken.chosen + 1..taken.total)
            .map(|alt| {
                let mut decisions = self.decisions[..=at].to_vec();
                decisions[at].chosen = alt;
                DecisionLog {
                    decisions,
                    cursor: 0,
                    prefix_len: at + 1,
                    floor: at + 1,
                }
            })
            .collect()
    }

    /// Advances to the next unexplored trace: flips the deepest decision
    /// at or above the floor with remaining alternatives and truncates
    /// everything after it. Returns `false` when this log's subtree has
    /// been explored.
    pub fn backtrack(&mut self) -> bool {
        while self.decisions.len() > self.floor {
            let last = self.decisions.last_mut().expect("above the floor");
            if last.has_alternatives() {
                last.chosen += 1;
                self.cursor = 0;
                self.prefix_len = self.decisions.len();
                return true;
            }
            self.decisions.pop();
        }
        false
    }

    /// Whether no decision has been recorded.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

impl fmt::Display for DecisionLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let tag = match d.kind {
                ChoiceKind::Crash => "c",
                ChoiceKind::ReadFrom => "r",
            };
            write!(f, "{tag}{}/{}", d.chosen, d.total)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates a program with a fixed tree: one binary choice followed
    /// by a ternary choice only when the first choice was 1.
    fn run(log: &mut DecisionLog) -> (usize, Option<usize>) {
        let a = log.next(2, ChoiceKind::Crash, 0);
        let b = (a == 1).then(|| log.next(3, ChoiceKind::ReadFrom, 1));
        (a, b)
    }

    #[test]
    fn dfs_visits_every_leaf_once() {
        let mut log = DecisionLog::new();
        let mut leaves = Vec::new();
        loop {
            leaves.push(run(&mut log));
            if !log.backtrack() {
                break;
            }
        }
        assert_eq!(
            leaves,
            vec![(0, None), (1, Some(0)), (1, Some(1)), (1, Some(2))]
        );
    }

    #[test]
    fn fresh_index_tracks_divergence() {
        let mut log = DecisionLog::new();
        run(&mut log);
        assert_eq!(log.first_fresh_index(), 0);
        assert_eq!(log.divergence_exec_index(), 0);
        assert!(log.backtrack());
        run(&mut log);
        // The flipped decision is the first one (exec 0); the ReadFrom
        // decision afterwards is fresh.
        assert_eq!(log.first_fresh_index(), 1);
        assert_eq!(log.divergence_exec_index(), 0);
        assert!(log.backtrack());
        run(&mut log);
        assert_eq!(log.first_fresh_index(), 2);
        assert_eq!(log.divergence_exec_index(), 1);
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn replay_mismatch_is_detected() {
        let mut log = DecisionLog::new();
        log.next(2, ChoiceKind::Crash, 0);
        log.next(2, ChoiceKind::Crash, 0);
        assert!(log.backtrack());
        // Same position now claims a different alternative count.
        log.next(3, ChoiceKind::Crash, 0);
    }

    #[test]
    fn empty_tree_terminates_immediately() {
        let mut log = DecisionLog::new();
        assert!(!log.backtrack());
        assert!(log.is_empty());
    }

    #[test]
    fn display_is_compact() {
        let mut log = DecisionLog::new();
        log.next(2, ChoiceKind::Crash, 0);
        log.next(3, ChoiceKind::ReadFrom, 1);
        assert_eq!(log.to_string(), "[c0/2 r0/3]");
    }

    #[test]
    fn singleton_decisions_do_not_branch() {
        let mut log = DecisionLog::new();
        log.next(1, ChoiceKind::ReadFrom, 0);
        assert!(
            !log.backtrack(),
            "a 1-way decision leaves nothing to explore"
        );
    }

    #[test]
    fn sibling_prefixes_enumerate_untaken_alternatives() {
        let mut log = DecisionLog::new();
        run(&mut log); // (0, None): one binary decision, alternative 0
        let donated: Vec<Vec<usize>> = log.split().iter().map(DecisionLog::trace).collect();
        assert_eq!(donated, vec![vec![1]]);
        // The floor is now past every decision: nothing is left here.
        assert!(log.split().is_empty());
        assert!(!log.backtrack());
    }

    #[test]
    fn adopt_prefix_rehydrates_from_trace_placeholders() {
        // A restore consumes the plan up to its crash; the run resumes at
        // the next decision, and a `from_trace` placeholder there adopts
        // the real metadata as it replays.
        let mut log = DecisionLog::from_trace(&[1, 2]);
        log.adopt_prefix(1);
        assert_eq!(log.consumed(), 1);
        assert_eq!(log.next(3, ChoiceKind::ReadFrom, 1), 2);
        assert_eq!(log.divergence_exec_index(), 1);
        assert!(log.to_string().ends_with("r2/3]"), "{log}");
    }

    #[test]
    #[should_panic(expected = "does not prefix")]
    fn adopt_prefix_rejects_mismatched_keys() {
        let mut log = DecisionLog::new();
        run(&mut log); // (0, None): the crash decision continues
        assert!(log.backtrack());
        run(&mut log); // (1, Some(0))
        assert!(log.backtrack()); // (1, Some(1)) planned
                                  // Decision 1 is a read-from choice, not a crash.
        log.adopt_prefix(2);
    }

    #[test]
    fn consumed_trace_tracks_the_cursor() {
        let mut log = DecisionLog::new();
        assert_eq!(log.consumed(), 0);
        log.next(2, ChoiceKind::Crash, 0);
        assert_eq!(log.consumed(), 1);
        log.next(3, ChoiceKind::ReadFrom, 1);
        assert_eq!(log.consumed(), 2);
        assert_eq!(log.trace()[..log.consumed()], [0, 0]);
    }

    #[test]
    fn crashes_at_names_the_taken_crash_decisions() {
        let mut log = DecisionLog::new();
        run(&mut log); // (0, None): the crash decision continues
        assert!(!log.crashes_at(0));
        assert!(log.backtrack());
        run(&mut log); // (1, Some(0)): crash, then a read-from choice
        assert!(log.crashes_at(0));
        assert!(!log.crashes_at(1), "a read-from decision never crashes");
        assert!(!log.crashes_at(2), "past the end");
    }

    /// The DFS leaves of a log walked by `walk` until it is exhausted,
    /// in visit order.
    fn walk_all(mut log: DecisionLog, walk: fn(&mut DecisionLog) -> Vec<usize>) -> Vec<Vec<usize>> {
        let mut leaves = Vec::new();
        loop {
            leaves.push(walk(&mut log));
            if !log.backtrack() {
                return leaves;
            }
        }
    }

    #[test]
    fn frontier_expansion_covers_the_dfs_tree_exactly_once() {
        // Splitting after every scenario and exploring the donated logs
        // as a worklist must visit the same leaf set as the plain
        // backtracking walk, each leaf once.
        let leaf = |log: &mut DecisionLog| {
            let (a, b) = run(log);
            vec![a, b.map_or(9, |b| b)]
        };
        let dfs_leaves = walk_all(DecisionLog::new(), leaf);

        let mut work = vec![DecisionLog::new()];
        let mut frontier_leaves = Vec::new();
        while let Some(mut log) = work.pop() {
            loop {
                frontier_leaves.push(leaf(&mut log));
                work.extend(log.split());
                if !log.backtrack() {
                    break;
                }
            }
        }

        frontier_leaves.sort();
        let mut expected = dfs_leaves.clone();
        expected.sort();
        assert_eq!(frontier_leaves, expected);
        assert_eq!(
            frontier_leaves.len(),
            dfs_leaves.len(),
            "no leaf visited twice"
        );
    }

    /// A deeper tree: a crash decision, then (after a crash) two
    /// read-from choices of 3 and 2 alternatives and a second crash
    /// decision; without the first crash, a second crash decision. The
    /// leaf is the full trace.
    fn deep(log: &mut DecisionLog) -> Vec<usize> {
        if log.next(2, ChoiceKind::Crash, 0) == 1 {
            log.next(3, ChoiceKind::ReadFrom, 1);
            log.next(2, ChoiceKind::ReadFrom, 1);
            log.next(2, ChoiceKind::Crash, 1);
        } else {
            log.next(2, ChoiceKind::Crash, 0);
        }
        log.trace()
    }

    #[test]
    fn split_hands_off_every_leaf_exactly_once() {
        let dfs_leaves = walk_all(DecisionLog::new(), deep);
        assert_eq!(dfs_leaves.len(), 2 + 3 * 2 * 2);
        // Split after every `every`-th scenario, so the donor splits at
        // different depths; the donor and every donated log must
        // together visit each leaf once, and a donor must never
        // backtrack below its floor.
        for every in 1..=4 {
            let mut work = vec![DecisionLog::new()];
            let mut leaves = Vec::new();
            while let Some(mut log) = work.pop() {
                // The floor: a donated log's own length, raised by split.
                let mut fixed = log.prefix_len();
                for scenario in 1.. {
                    leaves.push(deep(&mut log));
                    if scenario % every == 0 {
                        let donated = log.split();
                        if let Some(first) = donated.first() {
                            fixed = first.prefix_len();
                            let trace = log.trace();
                            for d in &donated {
                                // Same path up to the split decision,
                                // then an alternative the donor had left.
                                let at = d.prefix_len() - 1;
                                assert_eq!(d.trace()[..at], trace[..at]);
                                assert!(d.trace()[at] > trace[at]);
                            }
                        }
                        work.extend(donated);
                    }
                    let before = log.trace();
                    if !log.backtrack() {
                        break;
                    }
                    assert!(log.prefix_len() > fixed, "backtracked below the floor");
                    assert_eq!(log.trace()[..fixed], before[..fixed]);
                }
            }
            leaves.sort();
            let mut expected = dfs_leaves.clone();
            expected.sort();
            assert_eq!(leaves, expected, "split every {every} scenario(s)");
        }
    }
}
