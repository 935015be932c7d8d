//! Multi-failure scenarios: the paper's command-line option that lets
//! failures hit post-failure (recovery) executions too, bounding the
//! depth of the `exec` stack.

use std::collections::BTreeSet;
use std::sync::Mutex;

use jaaru::{Config, ModelChecker, PmEnv};

fn config(max_failures: usize) -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 12).max_failures(max_failures);
    c
}

/// A generation counter that each execution bumps durably.
fn generation_program(env: &dyn PmEnv) {
    let cell = env.root();
    let g = env.load_u64(cell);
    env.pm_assert(g <= 8, "generation corrupt");
    env.store_u64(cell, g + 1);
    env.persist(cell, 8);
}

#[test]
fn deeper_failure_budgets_explore_more() {
    let one = ModelChecker::new(config(1)).check(&generation_program);
    let two = ModelChecker::new(config(2)).check(&generation_program);
    let three = ModelChecker::new(config(3)).check(&generation_program);
    assert!(one.is_clean() && two.is_clean() && three.is_clean());
    assert!(two.stats.scenarios > one.stats.scenarios);
    assert!(three.stats.scenarios > two.stats.scenarios);
}

#[test]
fn generations_observed_grow_with_depth() {
    // With k failures, recovery executions can observe generations up
    // to k (each crashed execution may or may not have persisted its
    // bump).
    for depth in 1..=3usize {
        let observed = Mutex::new(BTreeSet::new());
        let program = |env: &dyn PmEnv| {
            let cell = env.root();
            let g = env.load_u64(cell);
            observed.lock().unwrap().insert((env.execution_index(), g));
            env.store_u64(cell, g + 1);
            env.persist(cell, 8);
        };
        let report = ModelChecker::new(config(depth)).check(&program);
        assert!(report.is_clean());
        let max_gen = observed
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|(_, g)| g)
            .max()
            .unwrap();
        assert_eq!(
            max_gen, depth as u64,
            "an execution after {depth} failures can see {depth} persisted bumps"
        );
    }
}

/// An undo-style protocol must also survive a crash *during recovery*:
/// the rollback itself is re-entrant. The protocol guards a (data, gen)
/// pair with a backup + stage flag, and a monotonic `committed` counter
/// (persisted last) witnesses completed updates.
fn guarded_update_program(flush_backup: bool) -> impl jaaru::Program {
    move |env: &dyn PmEnv| {
        let stage = env.root();
        let data = env.root() + 64;
        let backup = env.root() + 128; // (data, gen) pair
        let gen = env.root() + 192;
        let committed = env.root() + 256;

        // Recovery: roll back an in-flight update (idempotent).
        if env.load_u64(stage) == 1 {
            let (bv, bg) = (env.load_u64(backup), env.load_u64(backup + 8));
            env.store_u64(data, bv);
            env.store_u64(gen, bg);
            env.clflush(data, 8);
            env.clflush(gen, 8);
            env.sfence();
            env.store_u64(stage, 0);
            env.persist(stage, 8);
        }
        let v = env.load_u64(data);
        let g = env.load_u64(gen);
        env.pm_assert(v == g * 10, "data does not match its generation");
        env.pm_assert(
            g >= env.load_u64(committed),
            "a committed update was rolled back",
        );
        if g >= 2 {
            return;
        }

        // One guarded update: backup, mark, mutate (torn on purpose),
        // flush, unmark, then witness completion.
        env.store_u64(backup, v);
        env.store_u64(backup + 8, g);
        if flush_backup {
            env.persist(backup, 16);
        }
        env.store_u64(stage, 1);
        env.persist(stage, 8);
        env.store_u64(data, v + 5); // torn intermediate
        env.store_u64(data, v + 10);
        env.store_u64(gen, g + 1);
        env.clflush(data, 8);
        env.clflush(gen, 8);
        env.sfence();
        env.store_u64(stage, 0);
        env.persist(stage, 8);
        env.store_u64(committed, g + 1);
        env.persist(committed, 8);
    }
}

#[test]
fn reentrant_recovery_is_checked() {
    for depth in 1..=3usize {
        let report = ModelChecker::new(config(depth)).check(&guarded_update_program(true));
        assert!(report.is_clean(), "depth {depth}: {report}");
    }
}

/// The same protocol with the backup flush removed rolls a committed
/// update back to a stale snapshot — caught only because exploration
/// reaches the second update's crash window (two failures deep).
#[test]
fn broken_reentrant_recovery_is_caught() {
    let report = ModelChecker::new(config(2)).check(&guarded_update_program(false));
    assert!(!report.is_clean(), "lost backup must surface: {report}");
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("committed update was rolled back")
                || b.message.contains("generation")),
        "{report}"
    );
}

#[test]
fn crash_points_are_recorded_per_failure() {
    let program = |env: &dyn PmEnv| {
        let cell = env.root();
        let g = env.load_u64(cell);
        env.pm_assert(g < 2, "third generation reached"); // trips at depth 2
        env.store_u64(cell, g + 1);
        env.persist(cell, 8);
    };
    let report = ModelChecker::new(config(2)).check(&program);
    assert!(!report.is_clean());
    let bug = &report.bugs[0];
    assert_eq!(
        bug.crash_points.len(),
        2,
        "two failures preceded the symptom: {bug}"
    );
    assert_eq!(bug.execution_index, 2);
}

/// Execution 0 persists 1 in a cell, the first recovery reads the cell's
/// line and rewrites it to 2, then persists a done flag on another line;
/// the third execution, after a failure in the first recovery, reads the
/// cell and the flag and records what it saw in `seen`.
fn rewritten_line_program(seen: &Mutex<BTreeSet<(u64, u64)>>) -> impl jaaru::Program + '_ {
    move |env: &dyn PmEnv| {
        let (cell, done) = (env.root(), env.root() + 64);
        let value = env.load_u64(cell);
        match env.execution_index() {
            0 => {
                env.store_u64(cell, 1);
                env.persist(cell, 8);
            }
            1 => {
                env.store_u64(cell, 2);
                env.persist(cell, 8);
                env.store_u64(done, 1);
                env.persist(done, 8);
            }
            _ => {
                let flag = env.load_u64(done);
                seen.lock().unwrap().insert((value, flag));
                env.pm_assert(
                    flag == 0 || value == 2,
                    "the third execution read a value the second overwrote",
                );
            }
        }
    }
}

/// A recovery load resolves each pre-failure line once per execution, and
/// keeps what it settled only while the crashed executions stay the same:
/// a line the first recovery read, then rewrote and persisted, reads as
/// rewritten in the third execution. Every combination of worker count
/// and snapshot setting must also give the digest of replay, where every
/// scenario runs every execution.
#[test]
fn a_line_a_recovery_rewrote_reads_as_rewritten_after_the_next_failure() {
    let check = |jobs: usize, snapshots: bool| {
        let seen = Mutex::new(BTreeSet::new());
        let mut c = config(2);
        c.jobs(jobs).snapshots(snapshots);
        let report = ModelChecker::new(c).check(&rewritten_line_program(&seen));
        (report, seen.into_inner().unwrap())
    };
    let (replay, seen) = check(1, false);
    assert!(replay.is_clean(), "{replay}");
    assert!(
        seen.contains(&(2, 1)),
        "the rewrite was never read: {seen:?}"
    );
    for jobs in [1usize, 2] {
        for snapshots in [true, false] {
            let (report, again) = check(jobs, snapshots);
            let at = format!("jobs={jobs} snapshots={snapshots}");
            assert_eq!(replay.digest(), report.digest(), "{at} diverged");
            assert_eq!(seen, again, "{at}");
        }
    }
}

/// Execution 0 stores 1 to `x` and lifts `σ`; then a spawned thread
/// fences and flushes `x`'s line with a `clflushopt` it never fences, so
/// a failure injected after it leaves the thread an unfenced flush and a
/// fence stamp, both later than anything execution 1 does before its own
/// fence. Execution 1 stores 2 to `x`; its spawned thread (the same
/// thread id) flushes `y`'s line with a `clflushopt`, stores 5 to `y`
/// and fences, and then `done` is set. After a failure there, the third
/// execution records what it reads of `x` and `y` in `seen` if `done`
/// reads 1, that is, if execution 1's fence ran.
fn leftover_flush_program(seen: &Mutex<BTreeSet<(u8, u8)>>) -> impl jaaru::Program + '_ {
    move |env: &dyn PmEnv| {
        let root = env.root();
        let (x, y, done, other, filler) = (root, root + 64, root + 128, root + 192, root + 256);
        match env.execution_index() {
            0 => {
                env.store_u8(x, 1);
                for i in 0..8 {
                    env.store_u8(filler + i, 1);
                }
                env.spawn(&mut |t| {
                    t.sfence();
                    t.clflushopt(x, 1);
                });
                env.store_u8(other, 1);
                env.clflush(other, 1);
            }
            1 => {
                env.store_u8(x, 2);
                env.spawn(&mut |t| {
                    t.clflushopt(y, 1);
                    t.store_u8(y, 5);
                    t.sfence();
                });
                env.store_u8(done, 1);
                env.clflush(done, 1);
            }
            _ => {
                if env.load_u8(done) == 1 {
                    let (x, y) = (env.load_u8(x), env.load_u8(y));
                    seen.lock().unwrap().insert((x, y));
                }
            }
        }
    }
}

/// A failure discards every buffered operation, so the execution after it
/// starts with empty thread buffers, although the machine keeps them for
/// their capacity, and so does a scenario that restores a checkpoint on
/// the machine the last scenario left. Execution 1's fence then applies
/// only its own flush of `y`'s line, ordered before its store of 5 to
/// `y`, and nothing of `x`'s line: the third execution can read each of
/// 2, 1 and 0 from `x` and each of 5 and 0 from `y`. Had execution 1
/// inherited execution 0's flush, its fence would pin `x` at 2; had it
/// inherited the fence stamp, it would pin `y` at 5.
#[test]
fn a_failure_leaves_no_flush_or_fence_stamp_to_the_next_execution() {
    let expected: BTreeSet<(u8, u8)> = [2, 1, 0]
        .into_iter()
        .flat_map(|x| [(x, 5), (x, 0)])
        .collect();
    for snapshots in [false, true] {
        let seen = Mutex::new(BTreeSet::new());
        let mut c = config(2);
        c.snapshots(snapshots);
        let report = ModelChecker::new(c).check(&leftover_flush_program(&seen));
        assert!(report.is_clean(), "snapshots={snapshots}: {report}");
        assert_eq!(
            seen.into_inner().unwrap(),
            expected,
            "snapshots={snapshots}"
        );
        if snapshots {
            assert!(
                report.stats.executions_restored > 0,
                "no scenario restored a checkpoint"
            );
        }
    }
}
