//! Px86 conformance: the named litmus corpus must pass under **both**
//! the operational machine (`jaaru::litmus`) and the independent
//! axiomatic reference checker (`jaaru_litmus::ax`), and the exhaustive
//! conformance sweep must be clean and byte-deterministic across
//! worker counts.
//!
//! These are the cross-crate guarantees the `litmus-smoke` CI job
//! relies on; the per-crate unit tests in `jaaru-litmus` cover the
//! axiom set itself.

use jaaru_litmus::ax::{AxChecker, AxOp, AxProgram};
use jaaru_litmus::conform::{self, Verdict};
use jaaru_litmus::corpus::{self, run_corpus_report, X, Y};
use jaaru_litmus::sweep::{run_sweep, SweepBound};

/// Every corpus entry's allowed/forbidden expectations hold under both
/// checkers, and the two outcome sets agree exactly.
#[test]
fn corpus_passes_under_both_checkers() {
    let report = run_corpus_report();
    for r in &report.results {
        assert!(r.passed(), "{}: {:?}", r.name, r.failures);
        assert!(r.conformant, "{}: checkers disagree", r.name);
    }
    assert!(report.is_clean());
}

/// The corpus names the paper's probes; renaming one silently would
/// orphan the CLI examples and the docs.
#[test]
fn corpus_covers_the_paper_probes() {
    let names: Vec<&str> = corpus::corpus().iter().map(|t| t.name).collect();
    for expected in [
        "sb",
        "sb+mfence",
        "sb+rmw",
        "mp",
        "flush-epoch",
        "flush-unfenced",
        "flushopt-reorders",
        "clwb-epoch",
        "rmw-orders-flush",
        "mp+persist",
    ] {
        assert!(names.contains(&expected), "missing corpus entry {expected}");
    }
}

/// Independent re-derivation of the store-buffering classic, without
/// going through the corpus plumbing: both checkers must allow the
/// relaxed 0/0 outcome, and mfence must remove it from both.
#[test]
fn store_buffering_agrees_across_checkers() {
    let sb = AxProgram {
        threads: vec![
            vec![AxOp::Store(X, 1), AxOp::Load(Y)],
            vec![AxOp::Store(Y, 1), AxOp::Load(X)],
        ],
    };
    let relaxed = vec![vec![0], vec![0]];
    for (p, expect) in [(sb.clone(), true), (fence(&sb), false)] {
        let ax = AxChecker::new(&p).allowed();
        let op = conform::operational_outcomes(&p);
        assert_eq!(ax, op, "checkers must agree on {p:?}");
        assert_eq!(
            ax.iter().any(|o| o.regs == relaxed),
            expect,
            "relaxed outcome of {p:?}"
        );
        assert_eq!(conform::check(&p), Verdict::Match);
    }
}

fn fence(p: &AxProgram) -> AxProgram {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut fenced = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                fenced.push(op);
                if i + 1 < ops.len() {
                    fenced.push(AxOp::Mfence);
                }
            }
            fenced
        })
        .collect();
    AxProgram { threads }
}

/// The sweep report — counts, divergence list, fingerprint, and the
/// exact JSON bytes — is identical for 1, 2, and 4 worker threads.
#[test]
fn sweep_report_is_jobs_invariant() {
    let bound = SweepBound {
        max_threads: 2,
        max_ops_per_thread: 3,
        max_total_ops: 3,
    };
    let one = run_sweep(&bound, 1, None);
    assert!(one.is_clean(), "{}", one.to_text());
    assert!(one.programs > 1_000, "bound actually exercises the space");
    for jobs in [2, 4] {
        let parallel = run_sweep(&bound, jobs, None);
        assert_eq!(one, parallel, "report differs at jobs={jobs}");
        assert_eq!(
            one.to_json(),
            parallel.to_json(),
            "JSON bytes differ at jobs={jobs}"
        );
    }
}

/// Corpus JSON is byte-stable across runs (no wall-clock, no ambient
/// ordering), so served replies cache and diff cleanly.
#[test]
fn corpus_report_is_deterministic() {
    let a = run_corpus_report();
    let b = run_corpus_report();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_text(), b.to_text());
}
