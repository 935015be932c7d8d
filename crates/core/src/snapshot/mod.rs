//! Crash-point checkpoints of checker state.
//!
//! A power failure discards the guest's volatile state by definition, so
//! recovery always runs `Program::run` fresh, and only the *checker's*
//! state must round-trip. One type holds it: [`Crashed`], what a
//! scenario's failures leave (the stack of crashed executions' storage,
//! crash bookkeeping, race records, lint traces). The walk's environment
//! holds one for the running scenario; a checkpoint is one plus the
//! decision it forks; a scenario's record carries the one it ended with.
//! The dead-flush footprint (the lines recoveries read) is not part of
//! it: it is only ever unioned across scenarios, and the scenario that
//! captured a checkpoint ran the executions a restore skips.
//!
//! A checkpoint is taken where the original system forks: at each
//! crash-eligible injection point whose decision is fresh, the
//! environment builds from live state the [`Crashed`] that
//! [`advance_execution`](crate::checker_env::CheckerEnv::advance_execution)
//! would leave after a crash there. A fresh decision continues, so the
//! checkpoint belongs to that decision's crash branch, which exploration
//! takes later. The walk keeps the checkpoints of the crash decisions on
//! its current decision path, drops each when backtracking pops its
//! decision, and restores the deepest one the next plan takes; a subtree
//! it donates to another worker carries the deepest one its path takes.
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
//! that captured it. The executions that had already crashed are copied
//! as they stand, an `Arc` of each frozen log and op trace plus the
//! intervals; race records keep source sites, so copying them bumps one
//! `Arc` each.
//!
//! Restoring is a [`clone_from`](Clone::clone_from) into the
//! environment's own [`Crashed`], field by field, since post-failure
//! reads refine intervals in place: the intervals are copied into the
//! vectors the last scenario's stack left, so a restore allocates only
//! where the stack grows. Running the scenario's last execution on the
//! result is equivalent to replaying the executions before it, minus the
//! replay.

use std::sync::Arc;

use jaaru_pmem::PmAddr;
use jaaru_tso::{ExecutionStorage, OpTrace, RfCandidate, RfSource, SourceLoc};

use crate::report::RaceReport;

/// Cap on remembered race reports (debugging aid, not a bug list).
const MAX_RACES: usize = 256;

/// The checker state a power failure leaves: the crashed executions'
/// storage and the scenario's bookkeeping so far, everything a
/// post-failure execution needs from the checker's past. The running
/// execution's loads add to the races and counts; its volatile state (op
/// budget, bump cursor, thread ids, the trace being recorded) is not part
/// of it, since a power failure loses it.
pub(crate) struct Crashed {
    /// Storage of every crashed execution, oldest first (the paper's
    /// `exec` stack minus the running execution), so its length is the
    /// running execution's index. Post-failure reads *mutate* the
    /// intervals (refinement), so a restore copies them.
    pub(crate) stack: Vec<ExecutionStorage>,
    /// Injection-point ordinal at which each failure was injected.
    pub(crate) crash_points: Vec<usize>,
    /// Injection points of the scenario's first execution, once it has
    /// crashed or the scenario has ended.
    pub(crate) failure_points: usize,
    /// One per load site, in the order the sites first raced.
    pub(crate) races: Vec<RaceReport>,
    pub(crate) load_choice_points: u64,
    /// Largest may-read-from set a load met; 1 when none did, which the
    /// report's statistics (and so every digest) count from.
    pub(crate) max_rf_set: usize,
    /// The crashed executions' op traces, oldest first (empty unless
    /// lints are on). A crashed execution's trace never changes again,
    /// so checkpoints share it.
    pub(crate) op_traces: Vec<Arc<OpTrace>>,
}

impl Crashed {
    /// The state before any failure.
    pub(crate) const NONE: Crashed = Crashed {
        stack: Vec::new(),
        crash_points: Vec::new(),
        failure_points: 0,
        races: Vec::new(),
        load_choice_points: 0,
        max_rf_set: 1,
        op_traces: Vec::new(),
    };

    /// Records the first race of each load site, up to [`MAX_RACES`]: a
    /// load of the running execution at `addr` that chose among `cands`.
    pub(crate) fn record_race(&mut self, addr: PmAddr, load: SourceLoc, cands: &[RfCandidate]) {
        if self.races.len() >= MAX_RACES || self.races.iter().any(|race| race.load == load) {
            return;
        }
        let candidates = cands
            .iter()
            .map(|c| match c.source {
                RfSource::Initial => (c.value, None),
                RfSource::Store { exec, store } => {
                    (c.value, Some((exec, self.stack[exec].event(store).loc)))
                }
            })
            .collect();
        self.races.push(RaceReport {
            addr,
            load,
            execution_index: self.stack.len(),
            candidates,
        });
    }
}

impl Clone for Crashed {
    fn clone(&self) -> Self {
        let mut crashed = Crashed::NONE;
        crashed.clone_from(self);
        crashed
    }

    /// Copies `source` into the vectors this state already has.
    fn clone_from(&mut self, source: &Self) {
        self.stack.clone_from(&source.stack);
        self.crash_points.clone_from(&source.crash_points);
        self.failure_points = source.failure_points;
        self.races.clone_from(&source.races);
        self.load_choice_points = source.load_choice_points;
        self.max_rf_set = source.max_rf_set;
        self.op_traces.clone_from(&source.op_traces);
    }
}

/// A crash-point checkpoint: the state a crash at one injection point
/// leaves, for the scenarios that take that crash.
pub(crate) struct CheckerSnapshot {
    /// What the crash leaves; the last execution of its stack is a view
    /// of the capturing execution's final log.
    pub(crate) crashed: Crashed,
    /// Index of the crash decision this checkpoint forks: a plan that
    /// restores it has taken that crash, and resumes right after it.
    pub(crate) decision: usize,
}
