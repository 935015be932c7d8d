//! The bug-localization pass.
//!
//! The robustness checker ([`analyze_trace`](crate::analyze_trace))
//! produces *candidates*: stores that static persist-ordering analysis
//! says can reach a commit store unpersisted. When exploration actually
//! finds a bug, the model checker also knows exactly which post-failure
//! loads faced a choice of stores, and which pre-failure stores they
//! could have read — the read-from evidence of the paper's §4 debugging
//! support.
//!
//! Localization is the join of the two: a candidate is **confirmed**
//! when the failing scenario contains a racy load whose read-from set
//! includes the candidate's store, matched by execution index and by
//! the store's source site. Both sides hold that site as the guest's
//! `&'static Location` (the race report takes it from the store event,
//! the candidate from the trace), so the join renders nothing. The
//! unordered store *caused* the nondeterminism
//! the failing read-from choice exploited, so the confirmed candidate's
//! site is the root cause of the observed symptom — and its suggestion
//! is the fix.
//!
//! Confirmation is what keeps the lint engine precise on correct code:
//! a fixed configuration explores cleanly, produces no bug and hence no
//! confirmed candidates, so `jaaru_cli lint` reports zero diagnostics.

use std::collections::HashSet;

use jaaru_tso::SourceLoc;

use crate::diagnostic::Diagnostic;
use crate::robust::Candidate;

/// Read-from evidence extracted from one scenario's racy loads: the
/// execution index that performed a candidate store, and the store's
/// source site, as the race report holds it.
pub type RfEvidence = HashSet<(usize, SourceLoc)>;

/// Filters per-execution candidates down to those corroborated by the
/// scenario's read-from evidence, converting each confirmed candidate
/// into a diagnostic. `candidates` pairs each candidate with the index
/// of the execution whose trace produced it.
pub fn localize(candidates: Vec<(usize, Candidate)>, evidence: &RfEvidence) -> Vec<Diagnostic> {
    candidates
        .into_iter()
        .filter(|(exec, c)| evidence.contains(&(*exec, c.store_loc)))
        .map(|(_, c)| c.into_diagnostic())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_trace;
    use jaaru_pmem::PmAddr;
    use jaaru_tso::{OpTrace, ThreadId, TraceOpKind};
    use std::panic::Location;

    fn buggy_trace() -> (OpTrace, SourceLoc) {
        let mut t = OpTrace::new();
        let store_loc = Location::caller();
        t.record(
            ThreadId(0),
            store_loc,
            TraceOpKind::Store {
                addr: PmAddr::new(128),
                len: 8,
            },
        );
        t.record(
            ThreadId(0),
            Location::caller(),
            TraceOpKind::Store {
                addr: PmAddr::new(192),
                len: 8,
            },
        );
        t.record(
            ThreadId(0),
            Location::caller(),
            TraceOpKind::Clflush {
                first_line: 3,
                last_line: 3,
            },
        );
        t.record(ThreadId(0), Location::caller(), TraceOpKind::Sfence);
        (t, store_loc)
    }

    #[test]
    fn corroborated_candidates_are_confirmed() {
        let (trace, store_site) = buggy_trace();
        let cands: Vec<(usize, Candidate)> = analyze_trace(&trace)
            .into_iter()
            .map(|c| (0usize, c))
            .collect();
        assert_eq!(cands.len(), 1);
        let mut evidence = RfEvidence::new();
        evidence.insert((0, store_site));
        let confirmed = localize(cands, &evidence);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].site, store_site);
    }

    #[test]
    fn unrelated_evidence_confirms_nothing() {
        let (trace, _) = buggy_trace();
        let cands: Vec<(usize, Candidate)> = analyze_trace(&trace)
            .into_iter()
            .map(|c| (0usize, c))
            .collect();
        let mut evidence = RfEvidence::new();
        evidence.insert((0, Location::caller()));
        assert!(localize(cands, &evidence).is_empty());
    }

    #[test]
    fn execution_index_must_match() {
        let (trace, store_site) = buggy_trace();
        let cands: Vec<(usize, Candidate)> = analyze_trace(&trace)
            .into_iter()
            .map(|c| (0usize, c))
            .collect();
        let mut evidence = RfEvidence::new();
        evidence.insert((1, store_site));
        assert!(localize(cands, &evidence).is_empty());
    }
}
