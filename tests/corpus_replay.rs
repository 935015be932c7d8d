//! Replays the committed corpus of minimized reproducers
//! (`tests/corpus/*.repro`) and holds the checker to its recorded
//! behaviour byte-for-byte:
//!
//! * a full check of each reproducer's program must yield exactly the
//!   stored digest (exploration order, bug dedup, race reporting, and
//!   digest formatting are all pinned), and
//! * replaying the stored decision trace must reproduce the recorded
//!   bug — the paper's "strong witness" property for harvested
//!   findings.
//!
//! The corpus is regenerated with
//! `jaaru_cli fuzz --seeds 60 --harvest --corpus tests/corpus`
//! (see `tests/corpus/README.md`).

use std::path::Path;

use jaaru::{Config, Lints, ModelChecker};
use jaaru_fuzz::corpus::load_dir;
use jaaru_fuzz::oracle::POOL_SIZE;

fn corpus() -> Vec<jaaru_fuzz::Reproducer> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let corpus = load_dir(&dir).expect("corpus parses");
    assert!(
        !corpus.is_empty(),
        "committed corpus must not be empty ({})",
        dir.display()
    );
    corpus
}

fn checker() -> ModelChecker {
    let mut config = Config::new();
    config.pool_size(POOL_SIZE);
    ModelChecker::new(config)
}

#[test]
fn every_reproducer_checks_to_its_recorded_digest() {
    let checker = checker();
    for repro in corpus() {
        let report = checker.check(&repro.program);
        assert_eq!(
            report.digest(),
            repro.digest,
            "{}: digest drifted from the committed reproducer",
            repro.name
        );
        // Harvested reproducers are seeded-fault programs: buggy, with
        // every bug naming the faulted line.
        assert_eq!(repro.axis, "seeded-fault", "{}", repro.name);
        let fault = repro.program.fault.expect("harvested => fault label");
        assert!(!report.is_clean(), "{}: fault must manifest", repro.name);
        for bug in &report.bugs {
            assert!(
                bug.message.contains(&format!("(line {fault})")),
                "{}: bug blames the wrong line: {}",
                repro.name,
                bug.message
            );
        }
    }
}

#[test]
fn every_stored_trace_replays_its_bug() {
    let checker = checker();
    for repro in corpus() {
        let replayed = checker
            .replay(&repro.program, &repro.trace)
            .expect("the stored trace");
        assert!(
            !replayed.bugs.is_empty(),
            "{}: stored trace no longer reproduces the bug",
            repro.name
        );
        let fault = repro.program.fault.expect("harvested => fault label");
        assert!(
            replayed
                .bugs
                .iter()
                .any(|b| b.message.contains(&format!("(line {fault})"))),
            "{}: replayed bug does not match the recorded one",
            repro.name
        );
    }
}

/// Enabling every graph-based analysis pass must not perturb
/// exploration on the committed corpus: the passes read recorded
/// traces, they never add or reorder scenarios.
#[test]
fn graph_passes_do_not_perturb_corpus_exploration() {
    let base = checker();
    let mut config = Config::new();
    config.pool_size(POOL_SIZE).lints(Lints::All);
    let linted = ModelChecker::new(config);
    for repro in corpus() {
        assert_eq!(
            base.check(&repro.program).exploration_digest(),
            linted.check(&repro.program).exploration_digest(),
            "{}: graph passes changed exploration",
            repro.name
        );
    }
}

/// Replay twice: the trace is a strong witness, so both the replay
/// digest and the full-check digest must be run-to-run stable.
#[test]
fn corpus_replay_is_deterministic() {
    let checker = checker();
    for repro in corpus() {
        let replay = || {
            checker
                .replay(&repro.program, &repro.trace)
                .expect("the stored trace")
        };
        let (a, b) = (replay(), replay());
        assert_eq!(a.digest(), b.digest(), "{}", repro.name);
    }
}
