//! The exploration walk every worker runs.
//!
//! A worker takes a subtree from the scheduler and walks it depth-first
//! with [`DecisionLog::backtrack`]: it runs the planned scenario through
//! [`run_scenario`], hands the outcome on, and moves to the next plan.
//! It keeps the checkpoints of the crash decisions on its current path
//! and restores the deepest one each plan takes, so a scenario starts at
//! its last execution. When a peer is idle, the walk donates the
//! subtrees of its shallowest open decision, each with the deepest
//! checkpoint its path takes, and goes on above its raised floor.
//! Restores are outcome-equivalent to replays, so which worker captured
//! a checkpoint changes performance, never results.

use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::decision::DecisionLog;
use crate::explorer::{bug_dedup_key, run_scenario, ScenarioOutcome};
use crate::report::WorkerStats;
use crate::snapshot::CheckerSnapshot;
use crate::Program;

use super::scheduler::{Scheduler, WorkItem};

/// Walks subtrees until the tree is exhausted or the scheduler stops,
/// passing each scenario's outcome to `sink` as it completes.
pub(crate) fn worker_loop(
    worker: usize,
    scheduler: &Scheduler,
    config: &Config,
    program: &dyn Program,
    sink: &mut dyn FnMut(ScenarioOutcome),
) -> WorkerStats {
    let start = Instant::now();
    let mut walk = Walk {
        worker,
        scheduler,
        config,
        program,
        stats: WorkerStats {
            worker,
            ..WorkerStats::default()
        },
        sink,
    };
    while let Some(item) = scheduler.take() {
        if item.donor.is_some_and(|donor| donor != worker) {
            walk.stats.steals += 1;
        }
        if !walk.run(item) {
            break;
        }
    }
    walk.stats.busy = start.elapsed();
    walk.stats
}

struct Walk<'a> {
    worker: usize,
    scheduler: &'a Scheduler,
    config: &'a Config,
    program: &'a dyn Program,
    stats: WorkerStats,
    sink: &'a mut dyn FnMut(ScenarioOutcome),
}

impl Walk<'_> {
    /// Explores `item`'s subtree, minus what it donates. Returns `false`
    /// when the scheduler stopped exploration.
    fn run(&mut self, item: WorkItem) -> bool {
        let mut decisions = item.decisions;
        // The checkpoints of the crash decisions on the current path,
        // shallowest first.
        let mut checkpoints: Vec<Arc<CheckerSnapshot>> = item.checkpoint.into_iter().collect();
        loop {
            if !self.scheduler.claim_scenario() {
                return false;
            }
            let checkpoint = deepest_taken(&checkpoints, &decisions);
            let (outcome, log, captures) = run_scenario(
                self.config,
                self.program,
                decisions,
                checkpoint.map(|snap| &**snap),
            );
            decisions = log;
            checkpoints.extend(captures.into_iter().map(Arc::new));
            self.account(&outcome);
            if let Some(bug) = &outcome.bug {
                self.scheduler.record_bug((bug.kind, bug_dedup_key(bug)));
            }
            (self.sink)(outcome);

            if self.scheduler.hungry() {
                let items = decisions
                    .split()
                    .into_iter()
                    .map(|decisions| WorkItem {
                        checkpoint: deepest_taken(&checkpoints, &decisions).cloned(),
                        decisions,
                        donor: Some(self.worker),
                    })
                    .collect();
                self.scheduler.donate(items);
            }
            if !decisions.backtrack() {
                return true;
            }
            // Backtracking popped every decision past the flipped one:
            // their subtrees are done.
            let depth = decisions.prefix_len();
            checkpoints.truncate(checkpoints.partition_point(|snap| snap.decision < depth));
        }
    }

    fn account(&mut self, outcome: &ScenarioOutcome) {
        let stats = &mut self.stats;
        stats.scenarios += 1;
        // Same fork-equivalent formula as ReportAccumulator::add, over
        // the scenario's logical execution count.
        let execs = outcome.executions_replayed + outcome.executions_restored;
        stats.executions += (execs - outcome.divergence.min(execs - 1)) as u64;
        stats.executions_replayed += outcome.executions_replayed as u64;
        stats.executions_restored += outcome.executions_restored as u64;
    }
}

/// The checkpoint of the deepest crash `plan` takes, among the
/// checkpoints of the crash decisions on the path it shares with the
/// walk.
fn deepest_taken<'a>(
    checkpoints: &'a [Arc<CheckerSnapshot>],
    plan: &DecisionLog,
) -> Option<&'a Arc<CheckerSnapshot>> {
    checkpoints
        .iter()
        .rev()
        .find(|snap| plan.crashes_at(snap.decision))
}
