//! `ModelChecker::replay` round-trips: every bug a check reports comes
//! with a decision trace, and replaying that trace alone reproduces the
//! same symptom. This is the paper's "strong witness" property — a
//! reported bug is not a statistical claim but a recipe.

use jaaru::{Config, ModelChecker, PmEnv};
use jaaru_workloads::recipe::{
    pclht::{Pclht, PclhtFault},
    IndexWorkload,
};

fn checker() -> ModelChecker {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(20_000)
        .max_scenarios(2_000);
    ModelChecker::new(c)
}

/// The Figure 4 commit-store pattern with the data flush removed: the
/// recovery assertion can observe the commit flag without the data.
fn missing_flush(env: &dyn PmEnv) {
    let commit = env.root();
    let data = commit + 64;
    if env.load_u64(commit) != 0 {
        env.pm_assert(env.load_u64(data) == 42, "committed data lost");
        return;
    }
    env.store_u64(data, 42);
    env.store_u64(commit, 1);
    env.persist(commit, 8);
}

#[test]
fn replaying_a_bug_trace_reproduces_the_bug() {
    let checker = checker();
    let report = checker.check(&missing_flush);
    assert!(!report.is_clean());
    for bug in &report.bugs {
        let replayed = checker
            .replay(&missing_flush, &bug.trace)
            .expect("the bug's own trace");
        assert_eq!(
            replayed.stats.scenarios, 1,
            "replay runs exactly one scenario"
        );
        assert_eq!(
            replayed.bugs.len(),
            1,
            "trace {:?} must reproduce its bug",
            bug.trace
        );
        assert_eq!(replayed.bugs[0].kind, bug.kind);
        assert_eq!(replayed.bugs[0].message, bug.message);
        assert_eq!(replayed.bugs[0].trace, bug.trace);
    }
}

#[test]
fn replaying_the_root_scenario_of_a_clean_program_is_clean() {
    let clean = |env: &dyn PmEnv| {
        let commit = env.root();
        let data = commit + 64;
        if env.load_u64(commit) != 0 {
            env.pm_assert(env.load_u64(data) == 42, "committed data lost");
            return;
        }
        env.store_u64(data, 42);
        env.persist(data, 8);
        env.store_u64(commit, 1);
        env.persist(commit, 8);
    };
    let checker = checker();
    assert!(checker.check(&clean).is_clean());
    // The empty trace steers to the all-defaults scenario.
    let replayed = checker.replay(&clean, &[]).expect("the empty trace");
    assert!(replayed.is_clean());
    assert_eq!(replayed.stats.scenarios, 1);
}

#[test]
fn workload_bug_traces_round_trip() {
    let program = IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, 4);
    let checker = checker();
    let report = checker.check(&program);
    assert!(!report.is_clean());
    let bug = &report.bugs[0];
    let replayed = checker
        .replay(&program, &bug.trace)
        .expect("the bug's own trace");
    assert_eq!(replayed.bugs.len(), 1);
    assert_eq!(replayed.bugs[0].kind, bug.kind);
    assert_eq!(replayed.bugs[0].execution_index, bug.execution_index);
}

#[test]
fn parallel_bug_traces_replay_identically() {
    // Traces found by the parallel engine must be valid replay witnesses
    // through the same (sequential) replay path.
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(20_000)
        .max_scenarios(2_000)
        .jobs(4);
    let checker = ModelChecker::new(c);
    let report = checker.check(&missing_flush);
    assert!(!report.is_clean());
    for bug in &report.bugs {
        let replayed = checker
            .replay(&missing_flush, &bug.trace)
            .expect("the bug's own trace");
        assert_eq!(replayed.bugs.len(), 1);
        assert_eq!(replayed.bugs[0].kind, bug.kind);
    }
}
