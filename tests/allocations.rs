//! Heap allocations per explored scenario.
//!
//! A scenario restores its checkpoint, runs one execution and hands its
//! outcome on. Four things keep that nearly allocation-free: a
//! checkpoint is a prefix view of its execution's final store log, so
//! capturing one never makes the running execution copy its log; every
//! scenario of a walk starts on the walk's one checker environment, whose
//! machine's thread buffers are emptied in place and whose store log is
//! cleared unless a checkpoint holds it; a restore copies the checkpoint's
//! crashed state, stack and intervals included, into the vectors the
//! environment's last scenario left, and the candidate buffer of recovery
//! loads stays with the environment too; and race records keep source
//! sites, not strings.
//! This binary counts the allocations the checking thread makes, through
//! its own global allocator, and pins the count per scenario on every
//! fixed RECIPE and PMDK row under the Figure 14 depth-3 configuration.
//!
//! A linted scenario also records op traces and lifts them into persist
//! graphs. That stays cheap because the graph builds no per-op clocks
//! and keeps every store's line facts in one array, lint candidates
//! render no message until they are reported, and checkpoints share
//! crashed executions' traces instead of copying them. The second test
//! pins the count per linted scenario on the bug rows a served CI stream
//! lints.
//!
//! It is a test target of its own, so its allocator counts for no other
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jaaru::ModelChecker;
use jaaru_bench::registry::{
    lockfree_bug_cases, pmdk_bug_cases, pmdk_fixed_cases, recipe_bug_cases, recipe_fixed_cases,
};
use jaaru_serve::{one_shot_config, JobKind};

/// Allocations and reallocations a scenario may make on average.
const MAX_PER_SCENARIO: f64 = 16.0;

/// Allocations and reallocations a linted scenario may make on average.
const MAX_PER_LINT_SCENARIO: f64 = 120.0;

/// Bug rows left out of the lint bound, as `(suite, row)`: the rows a
/// served CI stream skips, because each of their jobs takes half a
/// second or more (RECIPE rows 1, 9 and 17 exhaust the op budget in an
/// infinite loop, and row 17 runs up to the scenario cap).
const SLOW_ROWS: [(&str, usize); 5] = [
    ("recipe", 1),
    ("recipe", 9),
    ("recipe", 13),
    ("recipe", 17),
    ("pmdk", 6),
];

thread_local! {
    /// Allocations and reallocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation
/// against the thread that asks for it.
struct Counting;

fn count() {
    // `try_with`: a thread's last deallocations may run after its
    // thread-locals are gone; allocations then go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_depth_three_scenario_makes_at_most_16_allocations() {
    // The Figure 14 depth-3 configuration: a one-shot check at 1 key,
    // three failures deep. One worker walks the tree on this thread, so
    // the count sees every allocation of the check.
    let mut config = one_shot_config(JobKind::Check, 1);
    config.max_failures(3);
    let mut over = Vec::new();
    for (name, program) in recipe_fixed_cases(1).into_iter().chain(pmdk_fixed_cases(1)) {
        let checker = ModelChecker::new(config.clone());
        let before = allocations();
        let report = checker.check(&*program);
        let made = allocations() - before;
        assert!(!report.truncated, "{name}: {report}");
        let per_scenario = made as f64 / report.stats.scenarios as f64;
        println!(
            "{name:<15} {:>6} scenarios {per_scenario:>6.1} allocations per scenario",
            report.stats.scenarios
        );
        if per_scenario > MAX_PER_SCENARIO {
            over.push(format!("{name}: {per_scenario:.1}"));
        }
    }
    assert!(
        over.is_empty(),
        "more than {MAX_PER_SCENARIO} allocations per scenario: {over:?}"
    );
}

#[test]
fn a_linted_bug_row_scenario_makes_at_most_120_allocations() {
    // A one-shot lint job at the serve default of 5 keys, on every bug
    // row but the slow ones: RECIPE 2-8, 10-12, 14-16 and 18, PMDK 1-5
    // and 7, and lock-free 1-8.
    let config = one_shot_config(JobKind::Lint, 1);
    let rows = recipe_bug_cases(5)
        .into_iter()
        .map(|case| ("recipe", case))
        .chain(pmdk_bug_cases(5).into_iter().map(|case| ("pmdk", case)))
        .chain(
            lockfree_bug_cases()
                .into_iter()
                .map(|case| ("lockfree", case)),
        )
        .filter(|(suite, case)| !SLOW_ROWS.contains(&(suite, case.id)));
    let mut over = Vec::new();
    let mut checked = 0;
    for (suite, case) in rows {
        let checker = ModelChecker::new(config.clone());
        let before = allocations();
        let report = checker.check(&*case.program);
        let made = allocations() - before;
        assert!(!report.truncated, "{suite} {}: {report}", case.id);
        assert!(!report.is_clean(), "{suite} {}: {report}", case.id);
        let per_scenario = made as f64 / report.stats.scenarios as f64;
        println!(
            "{suite:<8} {:>2} {:>6} scenarios {per_scenario:>6.1} allocations per scenario",
            case.id, report.stats.scenarios
        );
        if per_scenario > MAX_PER_LINT_SCENARIO {
            over.push(format!("{suite} {}: {per_scenario:.1}", case.id));
        }
        checked += 1;
    }
    assert_eq!(checked, 28, "the served bug rows");
    assert!(
        over.is_empty(),
        "more than {MAX_PER_LINT_SCENARIO} allocations per linted scenario: {over:?}"
    );
}
