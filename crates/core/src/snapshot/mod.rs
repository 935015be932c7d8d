//! Crash-point checkpoints of checker state.
//!
//! A power failure discards the guest's volatile state by definition, so
//! the guest closure never needs to be resumed mid-flight — recovery
//! always runs `Program::run` fresh. The only state that must round-trip
//! is the *checker's*: the stack of crashed executions' storage (store
//! logs, frozen at the crash and shared by every capture and restore, and
//! writeback intervals, which post-failure reads refine in place — hence
//! copy-on-restore, of the intervals only), crash bookkeeping, race
//! accumulators, lint traces, and the decision-log position.
//!
//! A checkpoint is taken where the original system forks: at each
//! crash-eligible injection point whose decision is fresh, the
//! environment builds from live state what
//! [`advance_execution`](crate::checker_env::CheckerEnv::advance_execution)
//! would leave after a crash there. A fresh decision continues, so the
//! checkpoint belongs to that decision's crash branch, which exploration
//! takes later, and nothing ever looks it up:
//!
//! * the sequential walk keeps the checkpoints of the crash decisions on
//!   its current decision path, drops each when backtracking pops its
//!   decision, and restores the deepest one the next plan takes;
//! * the parallel engine hands each checkpoint to the work item of its
//!   crash sibling, and read-from siblings inherit their parent item's
//!   (fresh decisions never crash, so that is still the deepest crash
//!   their trace takes).
//!
//! A scenario therefore starts directly at its last execution: restoring
//! is equivalent to replaying the executions before it, minus the
//! replay.

use std::collections::HashSet;

use jaaru_tso::{ExecutionStorage, OpTrace};

use crate::checker_env::LoadSite;
use crate::decision::Decision;
use crate::report::RaceReport;

/// Everything a post-failure execution needs from the checker's past:
/// the state of a [`CheckerEnv`](crate::checker_env::CheckerEnv) as a
/// power failure injected at one point would leave it, minus the
/// per-execution volatile state that `advance_execution` resets anyway
/// (op budget, bump cursor, thread ids — re-initialized fresh on
/// restore).
pub(crate) struct CheckerSnapshot {
    /// Storage of every crashed execution, oldest first. Post-failure
    /// reads *mutate* their intervals (refinement), so restoring clones:
    /// an `Arc` bump of each frozen store log plus a copy of its intervals.
    pub(crate) stack: Vec<ExecutionStorage>,
    /// Executions completed so far — exactly the `Program::run`
    /// invocations a restore saves over full replay.
    pub(crate) exec_index: usize,
    pub(crate) points_per_exec: Vec<usize>,
    pub(crate) crash_points: Vec<usize>,
    pub(crate) races: Vec<RaceReport>,
    pub(crate) race_keys: HashSet<LoadSite>,
    pub(crate) load_choice_points: u64,
    pub(crate) max_rf_set: usize,
    pub(crate) op_traces: Vec<OpTrace>,
    /// Cache lines the snapshotted executions' recoveries read (the
    /// dead-flush footprint up to this point; empty unless that pass
    /// is on).
    pub(crate) recovery_reads: HashSet<u64>,
    /// Full metadata of the consumed decision prefix, ending in the
    /// crash, so a restore into a `DecisionLog::from_trace` placeholder
    /// log can rehydrate the alternative counts and execution indices
    /// replay would have derived (divergence accounting and sibling
    /// expansion depend on them).
    pub(crate) prefix: Vec<Decision>,
}

impl CheckerSnapshot {
    /// `Program::run` invocations restoring this snapshot skips.
    pub(crate) fn executions_saved(&self) -> usize {
        self.exec_index
    }
}
