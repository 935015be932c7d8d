//! Determinism regression tests for the exploration engine.
//!
//! The checker's contract is that exploration is a pure function of the
//! program and the configuration: re-running yields the same bugs, the
//! same traces, and the same statistics, and running the walk on several
//! workers (`Config::jobs`) must be indistinguishable from one worker in
//! everything but wall-clock time. `CheckReport::digest` is the
//! comparison surface — it covers every bug, race, diagnostic,
//! and exploration statistic, excluding only timing, per-worker
//! scheduling stats, and snapshot counters (crash-point snapshots are
//! required to be invisible to results; the tests below enforce it).

use jaaru::{CheckReport, Config, ModelChecker, PmEnv, Program};
use jaaru_bench::registry::recipe_fixed_cases;
use jaaru_workloads::recipe::{
    fast_fair::{FastFair, FastFairFault},
    pclht::{Pclht, PclhtFault},
    IndexWorkload,
};

fn config(jobs: usize) -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(20_000)
        .max_scenarios(2_000)
        .jobs(jobs);
    c
}

fn run(program: &(dyn Program + Sync), jobs: usize) -> CheckReport {
    ModelChecker::new(config(jobs)).check(program)
}

/// A small closure program with several independent flushed lines, so
/// the decision tree fans out enough for workers to donate subtrees.
fn fan_out(env: &dyn PmEnv) {
    let root = env.root();
    if env.is_recovery() {
        for i in 0..5 {
            let _ = env.load_u64(root + i * 64);
        }
        return;
    }
    for i in 0..5 {
        env.store_u64(root + i * 64, i + 1);
        env.clflush(root + i * 64, 8);
    }
    env.sfence();
}

#[test]
fn repeated_sequential_runs_are_byte_identical() {
    let a = run(&fan_out, 1);
    let b = run(&fan_out, 1);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(
        a.summary().rsplit_once(',').unwrap().0,
        b.summary().rsplit_once(',').unwrap().0
    );
}

#[test]
fn repeated_parallel_runs_are_byte_identical() {
    let a = run(&fan_out, 4);
    let b = run(&fan_out, 4);
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn parallel_matches_sequential_on_a_clean_workload() {
    let program = IndexWorkload::<FastFair>::new(FastFairFault::None, 6);
    let sequential = run(&program, 1);
    assert!(sequential.is_clean());
    for jobs in [2usize, 4] {
        assert_eq!(
            sequential.digest(),
            run(&program, jobs).digest(),
            "jobs={jobs} diverged on clean FAST_FAIR"
        );
    }
}

#[test]
fn parallel_matches_sequential_on_a_buggy_workload() {
    let program = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    let sequential = run(&program, 1);
    assert!(!sequential.is_clean());
    let parallel = run(&program, 4);
    assert_eq!(sequential.digest(), parallel.digest());
    // The first reported bug carries the same reproduction trace.
    assert_eq!(sequential.bugs[0].trace, parallel.bugs[0].trace);
}

fn lint_config(jobs: usize) -> Config {
    let mut c = config(jobs);
    c.lints(true);
    c
}

/// Diagnostics flow through the same sequential accumulator and
/// parallel merge as bugs and races, so a lint-enabled run must be just
/// as deterministic — and the digest must actually cover the
/// diagnostics, or a lint regression could hide from these tests.
#[test]
fn diagnostics_are_deterministic_across_worker_counts() {
    let buggy = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    let fixed = IndexWorkload::<FastFair>::new(FastFairFault::None, 6);
    for program in [&buggy as &(dyn Program + Sync), &fixed] {
        let sequential = ModelChecker::new(lint_config(1)).check(program);
        let parallel = ModelChecker::new(lint_config(4)).check(program);
        assert_eq!(sequential.digest(), parallel.digest());
    }
    let report = ModelChecker::new(lint_config(1)).check(&buggy);
    assert!(!report.diagnostics.is_empty());
    assert!(report.digest().contains("lint:"));
}

fn graph_lint_config(jobs: usize) -> Config {
    let mut c = config(jobs);
    c.lints(true)
        .lint_cross_thread(true)
        .lint_torn_stores(true)
        .lint_flush_redundancy(true);
    c
}

/// The graph-based passes (cross-thread races, torn stores, flush
/// redundancy) feed the same accumulator as the robustness lints, so
/// enabling every pass must leave the digest invariant across worker
/// counts on buggy and fixed workloads alike.
#[test]
fn graph_pass_diagnostics_are_deterministic_across_worker_counts() {
    let buggy = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    let fixed = IndexWorkload::<FastFair>::new(FastFairFault::None, 6);
    for program in [&buggy as &(dyn Program + Sync), &fixed] {
        let sequential = ModelChecker::new(graph_lint_config(1)).check(program);
        for jobs in [2usize, 4] {
            let parallel = ModelChecker::new(graph_lint_config(jobs)).check(program);
            assert_eq!(
                sequential.digest(),
                parallel.digest(),
                "jobs={jobs} diverged with every graph pass enabled"
            );
        }
    }
}

/// SARIF rendering is a pure function of the diagnostic list, and the
/// list itself is worker-count invariant — so the SARIF document must
/// be byte-identical at every `--jobs` setting.
#[test]
fn sarif_output_is_byte_identical_across_worker_counts() {
    let buggy = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    let baseline = jaaru::to_sarif(
        &ModelChecker::new(graph_lint_config(1))
            .check(&buggy)
            .diagnostics,
        "test",
    );
    assert!(baseline.contains("\"version\": \"2.1.0\""), "{baseline}");
    assert!(!baseline.is_empty());
    for jobs in [2usize, 4] {
        let sarif = jaaru::to_sarif(
            &ModelChecker::new(graph_lint_config(jobs))
                .check(&buggy)
                .diagnostics,
            "test",
        );
        assert_eq!(baseline, sarif, "jobs={jobs} changed the SARIF bytes");
    }
}

/// A tiny deterministic PRNG (SplitMix64) so the property test below
/// can sweep many generated programs without an external crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Property: for randomly generated store/flush/fence programs, every
/// exploration — sequential, parallel, repeated — produces the same
/// digest. Programs are derived purely from the seed, so a failure
/// reproduces by its seed alone.
#[test]
fn seeded_random_programs_replay_stably() {
    for seed in 0..8u64 {
        let program = move |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                for i in 0..4 {
                    let _ = env.load_u64(root + i * 64);
                }
                return;
            }
            let mut rng = SplitMix64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
            for _ in 0..12 {
                let line = rng.next() % 4;
                match rng.next() % 4 {
                    0 | 1 => env.store_u64(root + line * 64, rng.next()),
                    2 => env.clflushopt(root + line * 64, 8),
                    _ => env.sfence(),
                }
            }
            env.sfence();
        };
        let baseline = ModelChecker::new(lint_config(1)).check(&program);
        let again = ModelChecker::new(lint_config(1)).check(&program);
        assert_eq!(baseline.digest(), again.digest(), "seed {seed} unstable");
        let parallel = ModelChecker::new(lint_config(4)).check(&program);
        assert_eq!(
            baseline.digest(),
            parallel.digest(),
            "seed {seed} diverged under jobs=4"
        );
    }
}

#[test]
fn worker_count_does_not_leak_into_the_digest() {
    // digest() must ignore the parallel block entirely, or any two
    // worker counts would trivially differ.
    let report = run(&fan_out, 3);
    assert!(report.parallel.is_some());
    assert!(!report.digest().contains("worker"));
}

/// Crash-point snapshots are a pure performance substitution: every
/// combination of snapshot setting and worker count must land on the
/// same digest. This is the subsystem's determinism contract — restore
/// must be observably equivalent to replay. With snapshots on, every
/// scenario also restores the checkpoint of its last crash, so every
/// guest run is some scenario's last execution — on a real program,
/// three failures deep, under the default snapshot settings.
#[test]
fn snapshots_do_not_change_the_digest_at_any_worker_count() {
    let (_, pclht) = recipe_fixed_cases(1)
        .into_iter()
        .find(|(name, _)| *name == "P-CLHT")
        .expect("P-CLHT is registered");
    let programs: [(&(dyn Program + Sync), usize); 2] = [(&fan_out, 2), (&*pclht, 3)];
    for (program, max_failures) in programs {
        let mut off = config(1);
        off.max_failures(max_failures).snapshots(false);
        let baseline = ModelChecker::new(off).check(program);
        assert!(!baseline.truncated, "max_failures={max_failures}");
        for jobs in [1usize, 2, 4] {
            for snapshots in [true, false] {
                let mut c = config(jobs);
                c.max_failures(max_failures).snapshots(snapshots);
                let report = ModelChecker::new(c).check(program);
                let at = format!("max_failures={max_failures} jobs={jobs} snapshots={snapshots}");
                assert_eq!(baseline.digest(), report.digest(), "{at} diverged");
                if snapshots {
                    assert!(report.snapshots.is_some(), "{at}");
                    assert_eq!(
                        report.stats.executions_replayed, report.stats.scenarios,
                        "{at}: every guest run is a scenario's last execution"
                    );
                } else {
                    assert!(report.snapshots.is_none(), "{at}");
                    assert_eq!(report.stats.executions_restored, 0, "{at}");
                }
            }
        }
    }
}

/// Same contract on a real workload with bugs and lints in play.
#[test]
fn snapshots_do_not_change_bug_or_lint_results() {
    let program = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    // Two failures deep, snapshots also carry recovery executions' op
    // traces and races.
    for max_failures in [1usize, 2] {
        let mut on = lint_config(1);
        on.max_failures(max_failures);
        let baseline = ModelChecker::new(on.clone()).check(&program);
        assert!(!baseline.is_clean());
        on.snapshots(false);
        let replayed = ModelChecker::new(on).check(&program);
        assert_eq!(
            baseline.digest(),
            replayed.digest(),
            "max_failures={max_failures}"
        );
        for jobs in [2usize, 4] {
            let mut c = lint_config(jobs);
            c.max_failures(max_failures).snapshots(false);
            assert_eq!(
                baseline.digest(),
                ModelChecker::new(c).check(&program).digest(),
                "jobs={jobs} without snapshots diverged at max_failures={max_failures}"
            );
        }
    }
}
