//! Parallel exploration: a work-stealing scheduler over the failure-
//! scenario frontier with deterministic report merging.
//!
//! The paper's lazy interval refinement makes each failure scenario an
//! independent deterministic re-execution (steered by its decision
//! trace), so the scenario space is embarrassingly parallel. This module
//! exploits that in three layers:
//!
//! * [`scheduler`] — partitions the frontier by decision-trace prefix
//!   and balances it across workers with work stealing, while enforcing
//!   the scenario/bug budgets through shared atomics;
//! * [`worker`] — each worker runs its items through the same
//!   [`run_scenario`](crate::explorer::run_scenario) machinery the
//!   sequential walk uses, with a private TSO machine per scenario; an
//!   item carries the crash-point checkpoint of the deepest crash its
//!   trace takes, so the scenario starts at its last execution (restores
//!   are outcome-equivalent to replays, so which worker captured a
//!   checkpoint never matters);
//! * [`merge`] — orders every outcome by canonical trace order and folds
//!   them through the sequential path's accumulator, making the final
//!   report byte-identical (per [`CheckReport::digest`]) to the
//!   sequential run for non-truncated explorations, regardless of worker
//!   count or interleaving.
//!
//! Truncated runs (scenario budget, bug caps, stop-on-first-bug) keep
//! their early-exit *semantics* under parallelism but may differ from
//! the sequential run in which scenarios they visited before stopping —
//! see DESIGN.md, "Parallel exploration".

pub(crate) mod merge;
pub(crate) mod scheduler;
pub(crate) mod worker;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::explorer::ExploreAux;
use crate::report::CheckReport;
use crate::signal::install_panic_hook;
use crate::Program;

use scheduler::Scheduler;
use worker::worker_loop;

/// Explores `program`'s scenario tree on `jobs` worker threads.
pub(crate) fn check_parallel(
    config: &Config,
    program: &(dyn Program + Sync),
    jobs: usize,
    abort: Option<Arc<AtomicBool>>,
) -> (CheckReport, ExploreAux) {
    install_panic_hook();
    let start = Instant::now();
    let scheduler = Scheduler::new(jobs, config, abort);

    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let scheduler = &scheduler;
                scope.spawn(move || worker_loop(worker, scheduler, config, program))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect::<Vec<_>>()
    });

    merge::merge_partials(
        partials,
        jobs,
        scheduler.truncated(),
        start.elapsed(),
        config.snapshots_value(),
    )
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
    fn parallel_stop_on_first_bug_stops_early() {
        let buggy = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                env.pm_assert(env.load_u8(root) != 1, "saw intermediate");
                return;
            }
            env.store_u8(root, 1);
            env.store_u8(root, 2);
            env.clflush(root, 1);
        };
        let mut config = config_with_jobs(4);
        config.stop_on_first_bug(true);
        let report = ModelChecker::new(config).check(&buggy);
        assert!(!report.is_clean());
        assert!(report.truncated);
    }

    #[test]
    fn jobs_zero_uses_available_parallelism() {
        let report = ModelChecker::new(config_with_jobs(0)).check(&fan_out_program);
        let sequential = ModelChecker::new(config_with_jobs(1)).check(&fan_out_program);
        assert_eq!(report.digest(), sequential.digest());
    }
}
