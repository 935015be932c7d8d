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

/// A replayable decision trace with DFS backtracking.
///
/// During a run, [`DecisionLog::next`] either replays a recorded decision
/// or appends a fresh one choosing alternative `0`. Between runs,
/// [`DecisionLog::backtrack`] advances to the next unexplored trace.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    decisions: Vec<Decision>,
    cursor: usize,
    prefix_len: usize,
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

    /// Copies of the first `len` decisions, with full metadata. Stored
    /// alongside a snapshot so [`adopt_prefix`](Self::adopt_prefix) can
    /// rehydrate placeholder logs built by [`from_trace`](Self::from_trace).
    pub fn prefix_decisions(&self, len: usize) -> Vec<Decision> {
        self.decisions[..len].to_vec()
    }

    /// Adopts snapshot-recorded metadata for the first `prefix.len()`
    /// decisions and marks them consumed, as if the prefix executions
    /// had replayed them. `from_trace` placeholders (unknown alternative
    /// counts) take the snapshot's metadata; already-known decisions are
    /// cross-checked instead.
    ///
    /// # Panics
    ///
    /// Panics if the prefix disagrees with the planned trace in chosen
    /// alternatives (the checkpoint was not taken on the plan's path) or
    /// in metadata (a nondeterministic guest program).
    pub fn adopt_prefix(&mut self, prefix: &[Decision]) {
        assert_eq!(self.cursor, 0, "adopt_prefix requires an unconsumed log");
        assert!(
            prefix.len() <= self.decisions.len(),
            "snapshot prefix longer than the planned trace"
        );
        for (i, snap) in prefix.iter().enumerate() {
            let d = &mut self.decisions[i];
            assert_eq!(
                d.chosen, snap.chosen,
                "snapshot prefix does not prefix the planned trace at decision {i}"
            );
            if d.total == usize::MAX {
                d.total = snap.total;
                d.kind = snap.kind;
                d.exec_index = snap.exec_index;
            } else {
                assert!(
                    d.total == snap.total && d.kind == snap.kind,
                    "nondeterministic guest program: snapshot recorded {:?} with {} \
                     alternatives at decision {i}, plan has {:?} with {}",
                    snap.kind,
                    snap.total,
                    d.kind,
                    d.total,
                );
            }
        }
        self.cursor = prefix.len();
    }

    /// Length of the prescribed prefix of the most recent run (decisions
    /// replayed rather than made fresh).
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The unexplored sibling subtrees of this completed run, rooted at
    /// or after decision `start`, as trace prefixes: for each decision
    /// `i >= start` and each alternative it did *not* take, the prefix
    /// `trace[..i] + [alt]`. Running each prefix (and recursively
    /// expanding *its* fresh decisions) enumerates exactly the leaves a
    /// depth-first [`backtrack`](Self::backtrack) walk would visit after
    /// this one within the subtree rooted at `trace[..start]` — the
    /// frontier-splitting rule behind parallel exploration.
    pub fn sibling_prefixes(&self, start: usize) -> Vec<Vec<usize>> {
        let chosen: Vec<usize> = self.trace();
        let mut out = Vec::new();
        for (i, d) in self.decisions.iter().enumerate().skip(start) {
            for alt in (d.chosen + 1)..d.total {
                let mut prefix = chosen[..i].to_vec();
                prefix.push(alt);
                out.push(prefix);
            }
        }
        out
    }

    /// Advances to the next unexplored trace: flips the deepest decision
    /// with remaining alternatives and truncates everything after it.
    /// Returns `false` when the whole tree has been explored.
    pub fn backtrack(&mut self) -> bool {
        while let Some(last) = self.decisions.last_mut() {
            if last.chosen + 1 < last.total {
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
        assert_eq!(log.sibling_prefixes(0), vec![vec![1]]);
        // Prefixes starting past every decision are empty.
        assert_eq!(log.sibling_prefixes(1), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn adopt_prefix_rehydrates_from_trace_placeholders() {
        // Record a real run to harvest decision metadata.
        let mut recorded = DecisionLog::new();
        run(&mut recorded);
        assert!(recorded.backtrack());
        run(&mut recorded); // (1, Some(0)): two decisions with metadata
        let prefix = recorded.prefix_decisions(1);

        // A worker log for the same subtree starts as placeholders.
        let mut log = DecisionLog::from_trace(&[1, 2]);
        log.adopt_prefix(&prefix);
        assert_eq!(log.consumed(), 1);
        assert!(log.crashes_at(0), "the adopted crash is taken");
        // The run continues from the adopted point: the next decision is
        // the ReadFrom one, replaying alternative 2.
        assert_eq!(log.next(3, ChoiceKind::ReadFrom, 1), 2);
        assert_eq!(log.divergence_exec_index(), 1);
    }

    #[test]
    #[should_panic(expected = "does not prefix")]
    fn adopt_prefix_rejects_mismatched_keys() {
        let mut recorded = DecisionLog::new();
        run(&mut recorded);
        assert!(recorded.backtrack());
        run(&mut recorded);
        let prefix = recorded.prefix_decisions(1); // chose 1
        let mut log = DecisionLog::from_trace(&[0]);
        log.adopt_prefix(&prefix);
    }

    #[test]
    fn consumed_trace_tracks_the_cursor() {
        let mut log = DecisionLog::new();
        assert_eq!(log.consumed(), 0);
        log.next(2, ChoiceKind::Crash, 0);
        assert_eq!(log.consumed(), 1);
        log.next(3, ChoiceKind::ReadFrom, 1);
        assert_eq!(log.consumed(), 2);
        let consumed: Vec<usize> = log
            .prefix_decisions(log.consumed())
            .iter()
            .map(|d| d.chosen)
            .collect();
        assert_eq!(consumed, vec![0, 0]);
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

    #[test]
    fn frontier_expansion_covers_the_dfs_tree_exactly_once() {
        // Worklist exploration via sibling_prefixes must visit the same
        // leaf set as the sequential backtracking walk, each leaf once.
        let mut log = DecisionLog::new();
        let mut dfs_leaves = Vec::new();
        loop {
            dfs_leaves.push(run(&mut log));
            if !log.backtrack() {
                break;
            }
        }

        let mut work = vec![Vec::new()];
        let mut frontier_leaves = Vec::new();
        while let Some(prefix) = work.pop() {
            let mut log = DecisionLog::from_trace(&prefix);
            frontier_leaves.push(run(&mut log));
            work.extend(log.sibling_prefixes(prefix.len()));
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
}
