//! Figure 13 end-to-end: every seeded RECIPE bug is found, every fixed
//! configuration is clean, and the Figure 15 symptom classes line up.
//! (The per-fault fine-grained assertions live in each structure's unit
//! tests; this is the cross-crate sweep the paper's artifact scripts
//! run.)

use jaaru::{BugKind, Config, ModelChecker};
use jaaru_workloads::recipe::{
    cceh::{Cceh, CcehFault},
    fast_fair::{FastFair, FastFairFault},
    part::{Part, PartFault},
    pbwtree::{Pbwtree, PbwtreeFault},
    pclht::{Pclht, PclhtFault},
    pmasstree::{Pmasstree, PmasstreeFault},
    IndexWorkload, PmIndex,
};

fn config() -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(20_000)
        .max_scenarios(2_000);
    c
}

fn check<I: PmIndex>(fault: I::Fault, n: usize) -> jaaru::CheckReport {
    ModelChecker::new(config()).check(&IndexWorkload::<I>::new(fault, n))
}

#[test]
fn all_fixed_recipe_structures_are_clean() {
    assert!(check::<Cceh>(CcehFault::None, 6).is_clean());
    assert!(check::<FastFair>(FastFairFault::None, 6).is_clean());
    assert!(check::<Part>(PartFault::None, 6).is_clean());
    assert!(check::<Pbwtree>(PbwtreeFault::None, 6).is_clean());
    assert!(check::<Pclht>(PclhtFault::None, 6).is_clean());
    assert!(check::<Pmasstree>(PmasstreeFault::None, 6).is_clean());
}

#[test]
fn all_18_seeded_bugs_are_found() {
    // (benchmark row id, found, any-kind) — mirrors Figure 13 ordering.
    let reports = vec![
        check::<Cceh>(CcehFault::CtorDirectoryHeaderNotFlushed, 4),
        check::<Cceh>(CcehFault::CtorDirectoryEntriesNotFlushed, 4),
        check::<Cceh>(CcehFault::CtorRootNotFlushed, 4),
        check::<FastFair>(FastFairFault::HeaderCtorNotFlushed, 4),
        check::<FastFair>(FastFairFault::EntryCtorNotFlushed, 6),
        check::<FastFair>(FastFairFault::BtreeCtorNotFlushed, 4),
        check::<Part>(PartFault::EpochNotPersistent, 4),
        check::<Part>(PartFault::TreeCtorNotFlushed, 4),
        check::<Part>(PartFault::VolatileRecoverySet, 4),
        check::<Pbwtree>(PbwtreeFault::GcRetireBeforeCommit, 8),
        check::<Pbwtree>(PbwtreeFault::GcMetaPointerNotFlushed, 4),
        check::<Pbwtree>(PbwtreeFault::GcMetadataNotFlushed, 8),
        // Bug 13 (AllocationMeta) is exercised separately below.
        check::<Pbwtree>(PbwtreeFault::CtorNotFlushed, 4),
        check::<Pclht>(PclhtFault::CtorNotFlushed, 4),
        check::<Pclht>(PclhtFault::TableObjectNotFlushed, 4),
        check::<Pclht>(PclhtFault::ArrayNotFlushed, 13),
        check::<Pmasstree>(PmasstreeFault::FlushedObjectInsteadOfPointer, 5),
    ];
    for (i, report) in reports.iter().enumerate() {
        assert!(!report.is_clean(), "seeded bug #{i} not found");
    }

    // Bug 13: allocator metadata constructor (shared PBump fault).
    let workload = IndexWorkload::<Pbwtree>::new(PbwtreeFault::None, 4).with_alloc_fault(
        jaaru_workloads::alloc::AllocFault {
            skip_cursor_flush: true,
        },
    );
    let report = ModelChecker::new(config()).check(&workload);
    assert!(!report.is_clean(), "allocator-metadata bug not found");
}

#[test]
fn symptom_classes_cover_the_paper_matrix() {
    // Figure 15 has three manifestation classes; each must be produced
    // by at least one seeded RECIPE bug.
    let loop_bug = check::<Cceh>(CcehFault::CtorDirectoryHeaderNotFlushed, 4);
    assert!(loop_bug
        .bugs
        .iter()
        .any(|b| b.kind == BugKind::InfiniteLoop));

    let segv_bug = check::<FastFair>(FastFairFault::BtreeCtorNotFlushed, 4);
    assert!(segv_bug
        .bugs
        .iter()
        .any(|b| b.kind == BugKind::IllegalAccess));

    let assert_bug = check::<Pclht>(PclhtFault::ArrayNotFlushed, 13);
    assert!(assert_bug
        .bugs
        .iter()
        .any(|b| matches!(b.kind, BugKind::AssertionFailure | BugKind::GuestPanic)));
}

#[test]
fn bug_reports_carry_reproduction_traces() {
    let report = check::<FastFair>(FastFairFault::BtreeCtorNotFlushed, 4);
    for bug in &report.bugs {
        assert!(!bug.trace.is_empty(), "decision trace missing: {bug}");
        assert!(!bug.crash_points.is_empty(), "crash point missing: {bug}");
        assert!(bug.execution_index >= 1, "bugs manifest in recovery: {bug}");
    }
}

#[test]
fn races_flag_the_missing_flush_sites() {
    // The §4 debugging aid: ctor-missing-flush bugs produce loads that
    // can read from multiple stores, with candidate store locations.
    let report = check::<Pclht>(PclhtFault::CtorNotFlushed, 4);
    assert!(!report.races.is_empty());
    assert!(report
        .races
        .iter()
        .any(|r| r.candidates.iter().any(|(_, store)| store.is_some())));
}

/// Fixed FAST_FAIR at 16 keys, checked with the configuration a
/// `jaaru_cli check` user gets, reports one known defect: an allocator
/// store flushed only after the commit store lets recovery follow a
/// stale pointer. The benchmark's fig14-d1 workload lists the same
/// defect (`KNOWN_DEFECTS` in perfbench/src/fig14.rs); fixing the
/// workload deletes this test together with that entry.
#[test]
fn fixed_fast_fair_at_16_keys_reports_its_known_defect() {
    let line = r#"{"kind":"check","benchmark":"FAST_FAIR","keys":16}"#;
    let value = jaaru_serve::json::parse(line).expect("valid spec");
    let Ok(jaaru_serve::Request::Job(spec)) = jaaru_serve::Request::from_value(&value, 1) else {
        panic!("{line} is a job spec");
    };
    let (_, program) = jaaru_bench::registry::recipe_fixed_cases(16)
        .into_iter()
        .find(|(name, _)| *name == "FAST_FAIR")
        .expect("FAST_FAIR is a fixed registry program");
    let report = ModelChecker::new(jaaru_serve::job_config(&spec, None)).check(&*program);

    assert_eq!(report.bugs.len(), 1, "{report}");
    let bug = &report.bugs[0];
    assert_eq!(bug.execution_index, 1, "{bug}");
    assert_eq!(bug.crash_points, vec![53], "{bug}");
    assert_eq!(bug.occurrences, 42, "{bug}");
    // Where debug assertions are on, `debug_assert!(count < CAP)` in
    // `fast_insert` fires first; otherwise the stale pointer is read
    // out of bounds.
    let site = if cfg!(debug_assertions) {
        "fast_fair.rs:131:"
    } else {
        "fast_fair.rs:104:"
    };
    let location = bug.location.as_deref().unwrap_or_default();
    assert!(location.contains(site), "{bug}");
}
