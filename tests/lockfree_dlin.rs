//! Lock-free workload family under the durable-linearizability oracle:
//! every seeded fault is detected with the violating op localized, every
//! fixed variant checks clean (and lint-clean), digests are identical
//! across job counts and snapshot modes, and the flush-level faults
//! auto-repair while the control-flow double-apply fault is refused.

use jaaru::{synthesize_repair, CheckReport, Config, FixEdit, Lints, ModelChecker, Program};
use jaaru_workloads::lockfree::clevel::ClevelHash;
use jaaru_workloads::lockfree::harris::HarrisList;
use jaaru_workloads::lockfree::msqueue::MsQueue;
use jaaru_workloads::lockfree::treiber::TreiberStack;
use jaaru_workloads::lockfree::{LfFault, LockFree, LockFreeWorkload};

/// With `lints`, the error-severity passes: the lint setting repair
/// runs, where flush-redundancy advisories cannot fight inserted flushes
/// during minimization.
fn config(jobs: usize, lints: bool, snapshots: bool) -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_scenarios(20_000)
        .max_ops_per_execution(20_000)
        .jobs(jobs)
        .lints(if lints { Lints::Errors } else { Lints::Off })
        .snapshots(snapshots);
    c
}

fn check<S: LockFree>(fault: LfFault, jobs: usize, lints: bool, snapshots: bool) -> CheckReport {
    ModelChecker::new(config(jobs, lints, snapshots)).check(&LockFreeWorkload::<S>::faulted(fault))
}

fn assert_dlin_bug(report: &CheckReport, needle: &str, what: &str) {
    assert!(!report.is_clean(), "{what}: fault not detected");
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("durable linearizability violation")
                && b.message.contains(needle)),
        "{what}: no dlin bug localizing {needle:?}; got {:?}",
        report
            .bugs
            .iter()
            .map(|b| b.message.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn fixed_variants_are_durably_linearizable_and_lint_clean() {
    let stack = check::<TreiberStack>(LfFault::None, 2, true, true);
    assert!(stack.is_clean(), "lf-stack: {stack}");
    let queue = check::<MsQueue>(LfFault::None, 2, true, true);
    assert!(queue.is_clean(), "lf-queue: {queue}");
    let list = check::<HarrisList>(LfFault::None, 2, true, true);
    assert!(list.is_clean(), "lf-list: {list}");
    let hash = check::<ClevelHash>(LfFault::None, 2, true, true);
    assert!(hash.is_clean(), "lf-hash: {hash}");
    for (name, report) in [
        ("lf-stack", &stack),
        ("lf-queue", &queue),
        ("lf-list", &list),
        ("lf-hash", &hash),
    ] {
        assert!(
            report.diagnostics.iter().all(|d| !d.is_error()),
            "{name} must lint clean, got {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn stack_unpersisted_cas_loses_a_completed_push() {
    let report = check::<TreiberStack>(LfFault::UnpersistedCas, 2, false, true);
    assert_dlin_bug(&report, "push(", "lf-stack unpersisted-cas");
}

#[test]
fn stack_double_apply_is_detected() {
    let report = check::<TreiberStack>(LfFault::DoubleApply, 2, false, true);
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("durable linearizability violation")),
        "lf-stack double-apply: {:?}",
        report
            .bugs
            .iter()
            .map(|b| b.message.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn queue_missing_link_flush_loses_a_completed_enqueue() {
    let report = check::<MsQueue>(LfFault::MissingLinkFlush, 2, false, true);
    assert_dlin_bug(&report, "enqueue(", "lf-queue missing-link-flush");
}

#[test]
fn queue_double_apply_is_detected() {
    let report = check::<MsQueue>(LfFault::DoubleApply, 2, false, true);
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("durable linearizability violation")),
        "lf-queue double-apply: {:?}",
        report
            .bugs
            .iter()
            .map(|b| b.message.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn list_unpersisted_cas_loses_a_completed_insert() {
    let report = check::<HarrisList>(LfFault::UnpersistedCas, 2, false, true);
    assert_dlin_bug(&report, "insert(", "lf-list unpersisted-cas");
}

#[test]
fn list_unflushed_init_breaks_the_sentinel_chain() {
    let report = check::<HarrisList>(LfFault::UnflushedInit, 2, false, true);
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("sentinel chain")),
        "lf-list unflushed-init: {:?}",
        report
            .bugs
            .iter()
            .map(|b| b.message.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn hash_missing_link_flush_corrupts_a_published_entry() {
    let report = check::<ClevelHash>(LfFault::MissingLinkFlush, 2, false, true);
    assert_dlin_bug(&report, "could have produced", "lf-hash missing-link-flush");
}

#[test]
fn hash_unflushed_init_loses_the_geometry_word() {
    let report = check::<ClevelHash>(LfFault::UnflushedInit, 2, false, true);
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.message.contains("geometry word")),
        "lf-hash unflushed-init: {:?}",
        report
            .bugs
            .iter()
            .map(|b| b.message.as_str())
            .collect::<Vec<_>>()
    );
}

/// Digest identity across `--jobs` 1/2/4 and snapshots on/off: the
/// exploration is deterministic and mode-independent for both a fixed
/// and a faulted workload of the new family.
#[test]
fn digests_are_identical_across_jobs_and_snapshot_modes() {
    let baseline_fixed = check::<TreiberStack>(LfFault::None, 1, true, true).digest();
    let baseline_faulted = check::<MsQueue>(LfFault::MissingLinkFlush, 1, true, true).digest();
    for jobs in [2, 4] {
        assert_eq!(
            check::<TreiberStack>(LfFault::None, jobs, true, true).digest(),
            baseline_fixed,
            "lf-stack digest diverges at jobs={jobs}"
        );
        assert_eq!(
            check::<MsQueue>(LfFault::MissingLinkFlush, jobs, true, true).digest(),
            baseline_faulted,
            "lf-queue digest diverges at jobs={jobs}"
        );
    }
    assert_eq!(
        check::<TreiberStack>(LfFault::None, 2, true, false).digest(),
        baseline_fixed,
        "lf-stack digest diverges with snapshots off"
    );
    assert_eq!(
        check::<MsQueue>(LfFault::MissingLinkFlush, 2, true, false).digest(),
        baseline_faulted,
        "lf-queue digest diverges with snapshots off"
    );
}

/// The flush-level faults must auto-repair to verified, flush-only edit
/// sets; the recovery-logic double-apply fault has no store-level fix
/// and must be refused (left unverified).
#[test]
fn repair_sweep_fixes_flush_faults_and_refuses_double_apply() {
    let cfg = config(2, true, true);
    let fixable: [(&str, Box<dyn Program + Sync>); 2] = [
        (
            "lf-queue missing-link-flush",
            Box::new(LockFreeWorkload::<MsQueue>::faulted(
                LfFault::MissingLinkFlush,
            )),
        ),
        (
            "lf-hash missing-link-flush",
            Box::new(LockFreeWorkload::<ClevelHash>::faulted(
                LfFault::MissingLinkFlush,
            )),
        ),
    ];
    for (what, program) in &fixable {
        let outcome = synthesize_repair(&cfg, program.as_ref());
        assert!(
            outcome.verified,
            "{what}: expected a verified repair, got edits {:?}",
            outcome.edits
        );
        assert!(!outcome.edits.is_empty(), "{what}: empty edit set");
        assert!(
            outcome
                .edits
                .iter()
                .all(|e| matches!(e, FixEdit::InsertFlush { .. } | FixEdit::InsertFence { .. })),
            "{what}: non-flush edit in {:?}",
            outcome.edits
        );
    }

    let double_apply = LockFreeWorkload::<TreiberStack>::faulted(LfFault::DoubleApply);
    let outcome = synthesize_repair(&cfg, &double_apply);
    assert!(
        !outcome.verified,
        "double-apply is a recovery-logic bug: flush/fence edits must not verify, got {:?}",
        outcome.edits
    );
}
