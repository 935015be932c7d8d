//! Repair-synthesis roundtrip sweep: every seeded RECIPE/PMDK
//! flush/fence-class fault must auto-repair — the synthesizer derives a
//! verified, 1-minimal edit set whose application makes the program
//! crash consistent *and* lint clean under the same configuration that
//! diagnosed it. The faults with no flush/fence-level fix (see
//! [`store_level_fix_exists`]) must be refused, not papered over:
//! repair synthesis never claims a fix it cannot prove.
//!
//! Determinism rides along: edit sets, JSON artifacts, SARIF fixes, and
//! repaired-report digests must be byte-identical across `--jobs`
//! settings, and every committed fuzz-corpus reproducer must
//! auto-repair through the same entry point the `fuzz --repair` loop
//! uses.

use std::path::Path;

use jaaru::{
    synthesize_repair, to_sarif_with_verified, CheckReport, Config, Lints, ModelChecker,
    RepairedProgram,
};
use jaaru_bench::registry::{pmdk_bug_cases, recipe_bug_cases, BugCase};
use jaaru_fuzz::{load_dir, repair_seeded, Reproducer};

/// Same knobs as the lint-localization sweep (`lint_localization.rs`),
/// and the same passes as `jaaru_cli repair`: the error-severity ones,
/// but *not* flush redundancy — repair must converge on the
/// crash-consistency fix, not chase advisory warnings about flushes the
/// workloads emit on purpose.
fn repair_config(jobs: usize) -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(40_000)
        .max_scenarios(2_000)
        .jobs(jobs)
        .lints(Lints::Errors);
    c
}

/// Rows with no store-level flush/fence fix, which repair synthesis
/// must *refuse* to verify rather than paper over:
///
/// * recipe 9 (P-ART volatile recovery set): the lock words are stored
///   unflushed and may persist spontaneously at a crash; only the
///   recovery-side lock sweep — an algorithmic change — fixes it.
/// * recipe 10 (P-BwTree GC retire-before-commit): an atomicity
///   violation in the retire ordering, not a persist-ordering bug.
/// * pmdk 7 (rbtree counter outside the transaction): the unlogged
///   counter bump may persist while the rollback restores the link;
///   the fix is `tx_add_range` logging, not a flush or fence.
fn store_level_fix_exists(suite: &str, id: usize) -> bool {
    !matches!((suite, id), ("recipe", 9 | 10) | ("pmdk", 7))
}

/// The file each seeded fault lives in, by (suite, row); mirrors the
/// lint-localization map.
fn expected_file(suite: &str, id: usize) -> Option<&'static str> {
    match (suite, id) {
        ("recipe", 1..=3) => Some("recipe/cceh.rs"),
        ("recipe", 4..=6) => Some("recipe/fast_fair.rs"),
        ("recipe", 7..=9) => Some("recipe/part.rs"),
        ("recipe", 10) => None,
        ("recipe", 11 | 12 | 14) => Some("recipe/pbwtree.rs"),
        ("recipe", 13) => Some("src/alloc.rs"),
        ("recipe", 15..=17) => Some("recipe/pclht.rs"),
        ("recipe", 18) => Some("recipe/pmasstree.rs"),
        ("pmdk", 1) => Some("pmdk/btree_map.rs"),
        ("pmdk", 2) => Some("pmdk/pool.rs"),
        ("pmdk", 3 | 5) => Some("pmdk/pmalloc.rs"),
        ("pmdk", 4) => Some("pmdk/ctree_map.rs"),
        ("pmdk", 6) => Some("pmdk/tx.rs"),
        ("pmdk", 7) => Some("pmdk/rbtree_map.rs"),
        _ => panic!("unknown row {suite} {id}"),
    }
}

/// The repair success predicate, restated independently of the
/// synthesizer so the minimality probes below cannot inherit one of its
/// bugs: crash consistent, no error diagnostic, and nothing left that
/// carries an applicable edit.
fn is_fixed(report: &CheckReport) -> bool {
    report.is_clean()
        && report
            .diagnostics
            .iter()
            .all(|d| !d.is_error() && d.suggestion.is_none())
}

fn sweep(suite: &str, cases: Vec<BugCase>) {
    for case in cases {
        let config = repair_config(1);
        let outcome = synthesize_repair(&config, &*case.program);
        assert!(
            !outcome.baseline.is_clean(),
            "{suite} row {}: the seeded bug must manifest before repair",
            case.id
        );
        if !store_level_fix_exists(suite, case.id) {
            // No flush/fence fix exists: the synthesizer must give up
            // rather than report an unproven repair.
            assert!(
                !outcome.verified,
                "{suite} row {} ({}): verified a repair for a fault with no \
                 store-level fix; edits {:?}",
                case.id, case.cause, outcome.edits
            );
            continue;
        }
        let file = expected_file(suite, case.id).expect("repairable rows have a seeded file");
        assert!(
            outcome.verified,
            "{suite} row {} ({}): no verified repair; {} rounds, {} rechecks, \
             diagnosed {:#?}",
            case.id, case.cause, outcome.rounds, outcome.rechecks, outcome.diagnosed
        );
        assert!(
            !outcome.edits.is_empty(),
            "{suite} row {}: a buggy baseline cannot repair to the empty set",
            case.id
        );
        assert!(
            outcome.edits.iter().any(|e| e.site().contains(file)),
            "{suite} row {} ({}): no edit lands in {file}; got {:#?}",
            case.id,
            case.cause,
            outcome.edits
        );

        // The repaired program is crash consistent and lint clean.
        let repaired = outcome
            .repaired
            .as_ref()
            .expect("verified => final report present");
        assert!(repaired.is_clean(), "{suite} row {}", case.id);
        assert!(
            repaired.diagnostics.iter().all(|d| !d.is_error()),
            "{suite} row {}: repaired program must lint clean, got {:#?}",
            case.id,
            repaired.diagnostics
        );

        // 1-minimality. For single-edit repairs the baseline already
        // witnesses that the empty set fails; for multi-edit repairs,
        // dropping any one edit must re-break the program.
        if outcome.edits.len() > 1 {
            for i in 0..outcome.edits.len() {
                let mut subset = outcome.edits.clone();
                let dropped = subset.remove(i);
                let probe = RepairedProgram::new(&*case.program, &subset);
                let report = ModelChecker::new(repair_config(1)).check(&probe);
                assert!(
                    !is_fixed(&report),
                    "{suite} row {}: edit set not minimal — dropping {dropped} \
                     still verifies",
                    case.id
                );
            }
        }
    }
}

#[test]
fn recipe_faults_auto_repair_to_verified_minimal_edits() {
    sweep("recipe", recipe_bug_cases(4));
}

#[test]
fn pmdk_faults_auto_repair_to_verified_minimal_edits() {
    sweep("pmdk", pmdk_bug_cases(4));
}

/// Repair is deterministic across worker counts: same edits, same JSON
/// artifact bytes, same SARIF fixes, and the repaired program's report
/// digest is worker-invariant.
#[test]
fn repair_is_deterministic_across_jobs() {
    for (suite, row) in [("recipe", 1), ("pmdk", 1)] {
        let outcomes: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|jobs| {
                let cases = match suite {
                    "recipe" => recipe_bug_cases(4),
                    _ => pmdk_bug_cases(4),
                };
                let case = cases.into_iter().find(|c| c.id == row).expect("row exists");
                synthesize_repair(&repair_config(jobs), &*case.program)
            })
            .collect();
        let baseline = &outcomes[0];
        assert!(baseline.verified, "{suite} row {row}");
        for other in &outcomes[1..] {
            assert_eq!(baseline.edits, other.edits, "{suite} row {row}");
            assert_eq!(
                baseline.to_json(),
                other.to_json(),
                "{suite} row {row}: JSON artifact must be byte-identical"
            );
            assert_eq!(
                to_sarif_with_verified(&baseline.diagnosed, "test", &baseline.edits),
                to_sarif_with_verified(&other.diagnosed, "test", &other.edits),
                "{suite} row {row}: SARIF fixes must be byte-identical"
            );
            assert_eq!(
                baseline.repaired.as_ref().map(CheckReport::digest),
                other.repaired.as_ref().map(CheckReport::digest),
                "{suite} row {row}: repaired report digest must be worker-invariant"
            );
        }
    }
}

fn corpus() -> Vec<Reproducer> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let corpus = load_dir(&dir).expect("corpus parses");
    assert!(!corpus.is_empty(), "committed corpus must not be empty");
    corpus
}

/// Every committed fuzz reproducer — a minimized seeded-fault program
/// harvested from a campaign — auto-repairs through the same entry
/// point `jaaru_cli fuzz --repair` uses. Generated programs funnel all
/// stores through one interpreter line, so this also pins the
/// cache-line anchoring of edits.
#[test]
fn every_corpus_reproducer_auto_repairs() {
    for repro in corpus() {
        let outcome = repair_seeded(&repro.program, 1);
        assert!(
            outcome.verified,
            "{}: reproducer unrepaired; diagnosed {:#?}",
            repro.name, outcome.diagnosed
        );
        assert!(!outcome.edits.is_empty(), "{}", repro.name);
    }
}

/// Spot-check the differential-oracle claim on one reproducer: the
/// repair and its artifact are identical whether the re-checks run on
/// 1, 2, or 4 workers.
#[test]
fn corpus_repair_matches_across_jobs() {
    let repro = &corpus()[0];
    let one = repair_seeded(&repro.program, 1);
    assert!(one.verified, "{}", repro.name);
    for jobs in [2usize, 4] {
        let other = repair_seeded(&repro.program, jobs);
        assert_eq!(one.edits, other.edits, "{}", repro.name);
        assert_eq!(one.to_json(), other.to_json(), "{}", repro.name);
        assert_eq!(
            one.repaired.as_ref().map(CheckReport::digest),
            other.repaired.as_ref().map(CheckReport::digest),
            "{}",
            repro.name
        );
    }
}
