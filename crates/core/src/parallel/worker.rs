//! The per-thread worker loop.
//!
//! Each worker is a self-contained sequential checker: it owns its own
//! [`CheckerEnv`](crate::checker_env::CheckerEnv) — and therefore its
//! own TSO machine — per scenario, buffers its outcomes locally until
//! the merge, and shares only the scheduler with the other workers. A
//! scenario restores the checkpoint its work item carries, and hands
//! each checkpoint it captures to the crash sibling of that decision;
//! read-from siblings inherit the item's own. Restores are
//! outcome-equivalent to replays, so whichever worker captured a
//! checkpoint, restoring it changes performance, never results.

use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::decision::DecisionLog;
use crate::explorer::{bug_dedup_key, run_scenario, ScenarioOutcome};
use crate::report::WorkerStats;
use crate::Program;

use super::scheduler::{Scheduler, WorkItem};

/// What one worker hands to the merge layer.
pub(crate) struct WorkerPartial {
    pub stats: WorkerStats,
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Runs scenarios until the frontier drains or the scheduler stops.
pub(crate) fn worker_loop(
    worker: usize,
    scheduler: &Scheduler,
    config: &Config,
    program: &dyn Program,
) -> WorkerPartial {
    let start = Instant::now();
    let mut stats = WorkerStats {
        worker,
        ..WorkerStats::default()
    };
    let mut outcomes = Vec::new();

    loop {
        if scheduler.stopped() {
            break;
        }
        let Some((item, stolen)) = scheduler.pop(worker) else {
            if scheduler.drained() {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        if stolen {
            stats.steals += 1;
        }
        if !scheduler.claim_scenario() {
            // The item stays unexplored; claim_scenario raised the stop
            // flag and marked the run truncated.
            scheduler.complete();
            break;
        }

        let (outcome, log, captures) = run_scenario(
            config,
            program,
            DecisionLog::from_trace(&item.trace),
            item.checkpoint.as_deref(),
        );
        // Both run in decision order, and every capture is at a fresh
        // crash decision, whose one sibling takes the crash.
        let mut captures = captures.into_iter().peekable();
        let children = log
            .sibling_prefixes(log.prefix_len())
            .into_iter()
            .map(|trace| {
                let decision = trace.len() - 1;
                let checkpoint = match captures.next_if(|(index, _)| *index == decision) {
                    Some((_, snap)) => Some(Arc::new(snap)),
                    None => item.checkpoint.clone(),
                };
                WorkItem { trace, checkpoint }
            })
            .collect();
        scheduler.push_children(worker, children);
        scheduler.complete();

        stats.scenarios += 1;
        // Same fork-equivalent formula as ReportAccumulator::add, over the
        // scenario's logical execution count.
        let execs = outcome.executions_replayed + outcome.executions_restored;
        stats.executions += (execs - outcome.divergence.min(execs - 1)) as u64;
        stats.executions_replayed += outcome.executions_replayed as u64;
        stats.executions_restored += outcome.executions_restored as u64;
        if let Some(bug) = &outcome.bug {
            scheduler.record_bug((bug.kind, bug_dedup_key(bug)));
        }
        outcomes.push(outcome);
    }

    stats.busy = start.elapsed();
    WorkerPartial { stats, outcomes }
}
