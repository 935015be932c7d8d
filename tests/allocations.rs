//! Heap allocations per explored scenario.
//!
//! A scenario restores its checkpoint, runs one execution and hands its
//! outcome on. Three things keep that nearly allocation-free: a
//! checkpoint is a prefix view of its execution's final store log, so
//! capturing one never makes the running execution copy its log; the walk
//! records every scenario whose log no checkpoint holds into the same
//! store log, cleared; and race records keep source sites, not strings.
//! This binary counts the allocations the checking thread makes, through
//! its own global allocator, and pins the count per scenario on every
//! fixed RECIPE and PMDK row under the Figure 14 depth-3 configuration.
//! It is a test target of its own, so its allocator counts for no other
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jaaru::ModelChecker;
use jaaru_bench::registry::{pmdk_fixed_cases, recipe_fixed_cases};
use jaaru_serve::{one_shot_config, JobKind};

/// Allocations and reallocations a scenario may make on average.
const MAX_PER_SCENARIO: f64 = 35.0;

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
fn a_depth_three_scenario_makes_at_most_35_allocations() {
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
