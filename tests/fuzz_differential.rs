//! The satellite acceptance tests for `jaaru-fuzz`: a differential
//! campaign over ~200 seeds with every oracle in agreement, plus the
//! planted-divergence drill — mislabel a seeded-fault program, watch
//! the harness catch the disagreement and shrink it to a ≤10-op
//! reproducer.
//!
//! Campaign determinism is asserted at the JSON level: the exact bytes
//! `jaaru_cli fuzz --format json` would print must not change between
//! runs or with the base run's worker count.

use jaaru_fuzz::{generate, minimize_divergence, run_campaign, FaultMode, Oracle};

/// Seeds the campaign sweeps. Matches the acceptance command
/// (`jaaru_cli fuzz --seeds 200 --differential`).
const SEEDS: u64 = 200;
const OPS_MAX: usize = 14;

#[test]
fn campaign_of_200_seeds_has_zero_divergences() {
    let oracle = Oracle::default();
    let report = run_campaign(&oracle, 0, SEEDS, OPS_MAX, None, |_, _| {});
    assert!(
        report.is_clean(),
        "oracles disagreed:\n{}",
        report
            .divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.buggy + report.clean, SEEDS);
    // FaultMode::Auto plants faults in a deterministic fraction of
    // seeds; both populations must be represented for the campaign to
    // mean anything.
    assert!(report.buggy > 0, "no seeded faults in {SEEDS} seeds");
    assert!(report.clean > 0, "no fault-free programs in {SEEDS} seeds");
    assert_eq!(report.yat_skipped, 0, "eager baseline covered every seed");
}

#[test]
fn campaign_json_is_identical_across_runs_and_worker_counts() {
    let sequential = Oracle::default();
    let parallel = Oracle {
        jobs: 4,
        ..Oracle::default()
    };
    // Smaller sweep than the full campaign: this test pins bytes, the
    // one above pins verdicts.
    let a = run_campaign(&sequential, 0, 60, OPS_MAX, None, |_, _| {});
    let b = run_campaign(&sequential, 0, 60, OPS_MAX, None, |_, _| {});
    let c = run_campaign(&parallel, 0, 60, OPS_MAX, None, |_, _| {});
    assert_eq!(a.to_json(), b.to_json(), "re-run changed the report");
    assert_eq!(a.to_json(), c.to_json(), "worker count changed the report");
    assert_eq!(a.fingerprint, c.fingerprint);
}

/// Plant a divergence by breaking the *expectation* rather than the
/// checker: a seeded-fault program labelled as clean. The oracle must
/// flag it and the minimizer must shrink the reproducer to ≤10 ops
/// while the divergence persists, and its replay must be deterministic.
#[test]
fn planted_divergence_is_caught_and_minimized() {
    let oracle = Oracle {
        differential: false,
        ..Oracle::default()
    };
    // A forced-fault program with a deliberately wrong expectation.
    let program = generate(42, 18, FaultMode::Force);
    let outcome = oracle.check_program_expecting(&program, false);
    assert!(
        outcome.divergences.iter().any(|d| d.axis == "ground-truth"),
        "mislabelled program must diverge: {:?}",
        outcome.divergences
    );

    let repro = minimize_divergence(&oracle, &program, false)
        .expect("divergence observed above must minimize");
    assert_eq!(repro.axis, "ground-truth");
    assert!(
        repro.program.ops.len() <= 10,
        "reproducer must shrink to <=10 ops, got {}: {:?}",
        repro.program.ops.len(),
        repro.program.ops
    );
    // The minimized program still diverges...
    let again = oracle.check_program_expecting(&repro.program, false);
    assert!(!again.divergences.is_empty());
    // ...and deterministically: digest and trace are stable.
    assert_eq!(again.digest, repro.digest);
    assert_eq!(again.trace, repro.trace);
}
