//! Parallel exploration scaling: the same synthetic workload checked at
//! increasing worker counts (`Config::jobs`). The workload fans out into
//! several hundred failure scenarios, each with enough per-execution
//! work that the scenario cost dominates scheduling overhead — the
//! regime in which donating subtrees to idle workers pays.
//!
//! Run with: `cargo bench -p jaaru-bench --bench parallel_scaling`

use jaaru::{CheckReport, Config, ModelChecker, PmEnv};
use jaaru_bench::timing::{bench, ratio};

/// Flushed lines: each `clflush` is a failure-injection point, and the
/// recovery loads give every crash scenario read-from choices.
const LINES: u64 = 14;
/// Overwrites per line before its flush: each unflushed overwrite is
/// another store the post-failure load may read from, multiplying the
/// read-from choice points per crash scenario.
const VERSIONS: u64 = 4;
/// Store-loop iterations per pre-failure execution. The scratch line is
/// never flushed, so the loop adds no failure points — only the O(m)
/// re-execution cost the paper's model predicts per scenario.
const WORK: u64 = 4_000;

fn synthetic(env: &dyn PmEnv) {
    let root = env.root();
    if env.is_recovery() {
        // A repairing recovery: summarize what survived and persist the
        // summary. The flush is a failure point inside recovery, so with
        // `max_failures(2)` every crash scenario spawns nested crash
        // scenarios — the multi-failure tree the engine partitions.
        let mut sum = 0u64;
        for i in 0..LINES {
            sum = sum.wrapping_add(env.load_u64(root + (i + 1) * 64));
        }
        let repair = root + (LINES + 1) * 64;
        env.store_u64(repair, sum);
        env.clflush(repair, 8);
        env.sfence();
        return;
    }
    for w in 0..WORK {
        env.store_u64(root, w);
    }
    for i in 0..LINES {
        for v in 0..VERSIONS {
            env.store_u64(root + (i + 1) * 64, i * VERSIONS + v + 1);
        }
        env.clflush(root + (i + 1) * 64, 8);
    }
    env.sfence();
}

fn check(jobs: usize) -> CheckReport {
    let mut config = Config::new();
    config
        .pool_size(1 << 12)
        .max_ops_per_execution(50_000)
        .max_failures(2)
        .jobs(jobs);
    ModelChecker::new(config).check(&synthetic)
}

fn main() {
    let baseline = check(1);
    assert!(baseline.is_clean());
    assert!(
        baseline.stats.scenarios >= 200,
        "workload too small to measure scaling ({} scenarios)",
        baseline.stats.scenarios
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "workload: {} scenarios, {} executions ({} replayed + {} restored); {} core(s) available",
        baseline.stats.scenarios,
        baseline.stats.executions_replayed + baseline.stats.executions_restored,
        baseline.stats.executions_replayed,
        baseline.stats.executions_restored,
        cores
    );
    if cores < 2 {
        println!("note: single-core machine — expect ~1.0x; speedup needs >= 2 cores");
    }

    const SAMPLES: usize = 5;
    let t1 = bench("parallel_scaling", "jobs=1", SAMPLES, 1, || {
        check(1);
    });
    let mut t4 = t1;
    for jobs in [2usize, 4] {
        let report = check(jobs);
        assert_eq!(baseline.digest(), report.digest(), "jobs={jobs} diverged");
        let t = bench(
            "parallel_scaling",
            &format!("jobs={jobs}"),
            SAMPLES,
            1,
            || {
                check(jobs);
            },
        );
        if jobs == 4 {
            t4 = t;
        }
    }
    ratio("speedup at 4 workers", t1, t4);
}
