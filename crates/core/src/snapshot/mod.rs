//! Crash-point checkpoints of checker state.
//!
//! A power failure discards the guest's volatile state by definition, so
//! the guest closure never needs to be resumed mid-flight — recovery
//! always runs `Program::run` fresh. The only state that must round-trip
//! is the *checker's*: the stack of crashed executions' storage, crash
//! bookkeeping, race records, lint traces, and the decision-log position.
//!
//! A checkpoint is taken where the original system forks: at each
//! crash-eligible injection point whose decision is fresh, the
//! environment builds from live state what
//! [`advance_execution`](crate::checker_env::CheckerEnv::advance_execution)
//! would leave after a crash there. A fresh decision continues, so the
//! checkpoint belongs to that decision's crash branch, which exploration
//! takes later, and nothing ever looks it up. One rule hands checkpoints
//! on: the exploration walk keeps the checkpoints of the crash decisions on
//! its current decision path, drops each when backtracking pops its
//! decision, and restores the deepest one the next plan takes. A subtree
//! the walk donates to another worker carries the deepest checkpoint its
//! path takes, by the same rule.
//!
//! Like `fork()`, a capture copies nothing the running execution goes on
//! to write. The crashed state of the running execution is a prefix of the
//! store log it finishes with, since stores only append, in `σ` order. So
//! a capture keeps only that execution's writeback intervals, each ending
//! at the capture's `σ + 1` ([`jaaru_tso::CrashPrefix`]), and when the
//! scenario ends, `CheckerEnv::finish` completes every capture with a view
//! of the execution's final log ([`jaaru_tso::ExecutionStorage::view`]).
//! That is sound because every decision after a fresh one is fresh and
//! continues, so a capturing execution never crashes later in its
//! scenario, and every consumer of a checkpoint runs after the scenario
//! that captured it. The stack of executions that had already crashed is
//! copied as it stands, an `Arc` of each frozen log plus its intervals;
//! race records keep source sites, so copying them bumps one `Arc` each.
//! A scenario whose log no checkpoint views hands it back to the walk,
//! whose next scenario records into it, cleared.
//!
//! Restoring clones the stack too, since post-failure reads refine
//! intervals in place. A scenario therefore starts directly at its last
//! execution: restoring is equivalent to replaying the executions before
//! it, minus the replay. The restored plan's decisions up to the crash
//! keep the metadata their original run recorded.

use std::collections::HashSet;

use jaaru_tso::{ExecutionStorage, OpTrace};

use crate::report::RaceReport;

/// Everything a post-failure execution needs from the checker's past:
/// the state of a [`CheckerEnv`](crate::checker_env::CheckerEnv) as a
/// power failure injected at one point would leave it, minus the
/// per-execution volatile state that `advance_execution` resets anyway
/// (op budget, bump cursor, thread ids — re-initialized fresh on
/// restore).
pub(crate) struct CheckerSnapshot {
    /// Storage of every crashed execution, oldest first; the last is a
    /// view of the capturing execution's final log. Post-failure reads
    /// *mutate* their intervals (refinement), so restoring clones: an
    /// `Arc` bump of each frozen store log plus a copy of its intervals.
    pub(crate) stack: Vec<ExecutionStorage>,
    /// Executions completed so far — exactly the `Program::run`
    /// invocations a restore saves over full replay.
    pub(crate) exec_index: usize,
    /// Injection points of the scenario's first execution.
    pub(crate) failure_points: usize,
    pub(crate) crash_points: Vec<usize>,
    pub(crate) races: Vec<RaceReport>,
    pub(crate) load_choice_points: u64,
    pub(crate) max_rf_set: usize,
    pub(crate) op_traces: Vec<OpTrace>,
    /// Cache lines the snapshotted executions' recoveries read (the
    /// dead-flush footprint up to this point; empty unless that pass
    /// is on).
    pub(crate) recovery_reads: HashSet<u64>,
    /// Index of the crash decision this checkpoint forks: a plan that
    /// restores it has taken that crash, and resumes right after it.
    pub(crate) decision: usize,
}

impl CheckerSnapshot {
    /// `Program::run` invocations restoring this snapshot skips.
    pub(crate) fn executions_saved(&self) -> usize {
        self.exec_index
    }
}
