//! Exploration: one depth-first walk, run by one or more workers, with
//! deterministic report merging.
//!
//! The paper's lazy interval refinement makes each failure scenario an
//! independent deterministic re-execution (steered by its decision
//! trace), so disjoint subtrees of the decision tree can be explored in
//! parallel. This module runs every check, in three layers:
//!
//! * [`worker`] — the walk: [`DecisionLog::backtrack`] over the
//!   decision tree, one [`run_scenario`](crate::explorer::run_scenario)
//!   per leaf, restoring the checkpoint of the deepest crash each plan
//!   takes; when a peer is idle it donates subtrees and raises its
//!   floor;
//! * [`scheduler`] — the pool of donated subtrees, termination, and the
//!   scenario/bug budgets and abort flag every worker count shares;
//! * [`merge`] — folds outcomes into the report. At one worker the walk
//!   runs on the calling thread and its outcomes are folded as they
//!   arrive, in depth-first order. At more, every outcome is sorted into
//!   canonical trace order before folding, making the report
//!   byte-identical (per [`CheckReport::digest`]) to the one-worker run
//!   for non-truncated explorations, regardless of worker count or
//!   interleaving.
//!
//! Truncated runs (scenario budget, bug cap) keep their early-exit
//! *semantics* with several workers but may differ from the one-worker
//! run in which scenarios they visited before stopping — see DESIGN.md,
//! "Parallel exploration".
//!
//! [`DecisionLog::backtrack`]: crate::decision::DecisionLog::backtrack
//! [`CheckReport::digest`]: crate::CheckReport::digest

pub(crate) mod merge;
pub(crate) mod scheduler;
pub(crate) mod worker;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::config::Config;
use crate::explorer::ScenarioOutcome;
use crate::report::ParallelStats;
use crate::Program;

use scheduler::Scheduler;
use worker::worker_loop;

/// Explores `program`'s decision tree on [`Config::effective_jobs`]
/// workers and feeds every scenario outcome to `fold` in depth-first
/// order. Returns whether the run was truncated, and the per-worker
/// statistics of a run with more than one worker.
pub(crate) fn explore(
    config: &Config,
    program: &(dyn Program + Sync),
    abort: Option<Arc<AtomicBool>>,
    mut fold: impl FnMut(ScenarioOutcome),
) -> (bool, Option<ParallelStats>) {
    let jobs = config.effective_jobs();
    let scheduler = Scheduler::new(jobs, config, abort);
    if jobs == 1 {
        worker_loop(0, &scheduler, config, program, &mut fold);
        return (scheduler.truncated(), None);
    }

    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let scheduler = &scheduler;
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let stats = worker_loop(worker, scheduler, config, program, &mut |outcome| {
                        outcomes.push(outcome)
                    });
                    (stats, outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect::<Vec<_>>()
    });
    let (outcomes, parallel) = merge::merge_partials(partials, jobs);
    outcomes.into_iter().for_each(fold);
    (scheduler.truncated(), Some(parallel))
}

#[cfg(test)]
mod tests {
    use crate::{Config, ModelChecker, PmEnv};

    fn config_with_jobs(jobs: usize) -> Config {
        let mut c = Config::new();
        c.pool_size(8192).jobs(jobs);
        c
    }

    fn fan_out_program(env: &dyn PmEnv) {
        // Several flushed lines: enough injection points and read-from
        // choices to give the workers a real tree.
        let root = env.root();
        if env.is_recovery() {
            for i in 0..4 {
                let _ = env.load_u64(root + i * 64);
            }
            return;
        }
        for i in 0..4 {
            env.store_u64(root + i * 64, i + 1);
            env.clflush(root + i * 64, 8);
        }
        env.sfence();
    }

    #[test]
    fn parallel_report_matches_sequential_digest() {
        let sequential = ModelChecker::new(config_with_jobs(1)).check(&fan_out_program);
        for jobs in [2usize, 3, 4] {
            let parallel = ModelChecker::new(config_with_jobs(jobs)).check(&fan_out_program);
            assert_eq!(
                sequential.digest(),
                parallel.digest(),
                "jobs={jobs} diverged from sequential"
            );
        }
    }

    #[test]
    fn parallel_run_attaches_worker_stats() {
        let report = ModelChecker::new(config_with_jobs(3)).check(&fan_out_program);
        let parallel = report.parallel.expect("parallel stats present");
        assert_eq!(parallel.jobs, 3);
        assert_eq!(parallel.workers.len(), 3);
        let scenario_sum: u64 = parallel.workers.iter().map(|w| w.scenarios).sum();
        assert_eq!(
            scenario_sum, report.stats.scenarios,
            "per-worker counts add up"
        );
        let exec_sum: u64 = parallel.workers.iter().map(|w| w.executions).sum();
        assert_eq!(exec_sum, report.stats.executions);
        let replayed_sum: u64 = parallel.workers.iter().map(|w| w.executions_replayed).sum();
        let restored_sum: u64 = parallel.workers.iter().map(|w| w.executions_restored).sum();
        assert_eq!(replayed_sum, report.stats.executions_replayed);
        assert_eq!(restored_sum, report.stats.executions_restored);
    }

    #[test]
    fn parallel_run_reports_shared_cache_stats() {
        let report = ModelChecker::new(config_with_jobs(2)).check(&fan_out_program);
        let stats = report.snapshots.expect("snapshots on by default");
        assert!(stats.inserts > 0, "{stats}");
        assert_eq!(stats.misses, 1, "only the root item starts cold: {stats}");
        assert_eq!(stats.hits + stats.misses, report.stats.scenarios);

        let mut config = config_with_jobs(2);
        config.snapshots(false);
        let off = ModelChecker::new(config).check(&fan_out_program);
        assert!(off.snapshots.is_none());
        assert_eq!(off.stats.executions_restored, 0);
        assert_eq!(
            report.digest(),
            off.digest(),
            "snapshots are invisible to results"
        );
    }

    #[test]
    fn sequential_run_has_no_parallel_stats() {
        let report = ModelChecker::new(config_with_jobs(1)).check(&fan_out_program);
        assert!(report.parallel.is_none());
    }

    #[test]
    fn parallel_finds_the_same_bugs() {
        let buggy = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let sequential = ModelChecker::new(config_with_jobs(1)).check(&buggy);
        let parallel = ModelChecker::new(config_with_jobs(4)).check(&buggy);
        assert_eq!(sequential.digest(), parallel.digest());
        assert_eq!(parallel.bugs.len(), 1);
        assert_eq!(parallel.bugs[0].trace, sequential.bugs[0].trace);
    }

    #[test]
    fn parallel_scenario_budget_truncates() {
        let mut config = config_with_jobs(4);
        config.max_scenarios(3);
        let report = ModelChecker::new(config).check(&fan_out_program);
        assert!(report.truncated);
        assert!(report.stats.scenarios <= 3);
    }

    #[test]
    fn a_nondeterministic_guest_is_caught_at_every_worker_count() {
        use std::cell::Cell;
        thread_local! {
            /// Pre-failure runs of the guest on this thread so far.
            static RUNS: Cell<u64> = const { Cell::new(0) };
        }
        // Stores to an unflushed line two or three times, alternating
        // from one pre-failure run to the next on the same thread, so
        // recovery's load of that line faces three or four stores: a
        // replayed read-from decision changes its alternative count.
        let guest = |env: &dyn PmEnv| {
            let line = env.root() + 64;
            if env.is_recovery() {
                let _ = env.load_u64(line);
                return;
            }
            let run = RUNS.with(|runs| runs.replace(runs.get() + 1));
            for i in 0..2 + run % 2 {
                env.store_u64(line, i + 1);
            }
        };
        for jobs in [1usize, 2] {
            let mut config = config_with_jobs(jobs);
            // Every scenario replays its prefix, so every replayed
            // decision is compared with the one recorded for it.
            config.snapshots(false);
            let report = ModelChecker::new(config).check(&guest);
            assert_eq!(report.bugs.len(), 1, "jobs={jobs}: {report}");
            assert!(
                report.bugs[0]
                    .message
                    .starts_with("nondeterministic guest program"),
                "jobs={jobs}: {report}"
            );
        }
    }

    #[test]
    fn jobs_zero_uses_available_parallelism() {
        let report = ModelChecker::new(config_with_jobs(0)).check(&fan_out_program);
        let sequential = ModelChecker::new(config_with_jobs(1)).check(&fan_out_program);
        assert_eq!(report.digest(), sequential.digest());
    }
}
