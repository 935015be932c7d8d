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
//! A failing scenario confirms the same finding many times over: a
//! store site runs once per loop iteration and again in every
//! execution, and each run that reaches a commit store unpersisted is a
//! candidate of its own. Confirmed candidates fold by
//! `(kind, site)` through a [`DiagnosticSet`], and a diagnostic (with
//! its rendered message) is built only for the first candidate of each
//! pair; the rest add occurrences.
//!
//! Confirmation is what keeps the lint engine precise on correct code:
//! a fixed configuration explores cleanly, produces no bug and hence no
//! confirmed candidates, so `jaaru_cli lint` reports zero diagnostics.

use std::collections::HashSet;

use jaaru_tso::SourceLoc;

use crate::diagnostic::{Diagnostic, DiagnosticSet};
use crate::robust::Candidate;
use crate::site_key::{SiteHash, SiteKey};

/// Read-from evidence extracted from one scenario's racy loads: pairs of
/// the execution index that performed a candidate store and the store's
/// source site, as the race report holds it. Every lint candidate of a
/// buggy scenario is looked up in it, so a lookup hashes the execution
/// and the site's line and column, not its file path (see `SiteKey`).
#[derive(Clone, Debug, Default)]
pub struct RfEvidence(HashSet<SiteKey<usize>, SiteHash>);

impl RfEvidence {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a racy load could read a store of execution `exec` at
    /// `site`.
    pub(crate) fn contains(&self, exec: usize, site: SourceLoc) -> bool {
        self.0.contains(&SiteKey(exec, site))
    }
}

impl Extend<(usize, SourceLoc)> for RfEvidence {
    fn extend<I: IntoIterator<Item = (usize, SourceLoc)>>(&mut self, pairs: I) {
        self.0
            .extend(pairs.into_iter().map(|(exec, site)| SiteKey(exec, site)));
    }
}

/// Filters per-execution candidates down to those corroborated by the
/// scenario's read-from evidence, and folds the confirmed ones into
/// diagnostics by `(kind, site)`, in first-confirmation order, each
/// counting its confirmed candidates as occurrences. `candidates` pairs
/// each candidate with the index of the execution whose trace produced
/// it; they are borrowed, so the candidates of a trace that many
/// scenarios share are computed once.
pub fn localize<'a>(
    candidates: impl IntoIterator<Item = (usize, &'a Candidate)>,
    evidence: &RfEvidence,
) -> Vec<Diagnostic> {
    let mut confirmed = DiagnosticSet::new();
    for (exec, c) in candidates {
        if evidence.contains(exec, c.store_loc) {
            confirmed.insert_with(c.kind, c.site, || c.clone().into_diagnostic());
        }
    }
    confirmed.into_vec()
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
        let cands = analyze_trace(&trace);
        assert_eq!(cands.len(), 1);
        let mut evidence = RfEvidence::new();
        evidence.extend([(0, store_site)]);
        let confirmed = localize(cands.iter().map(|c| (0, c)), &evidence);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].site, store_site);
    }

    #[test]
    fn confirmed_candidates_fold_by_kind_and_site() {
        // The same buggy execution twice over: one diagnostic, two
        // occurrences, the first candidate's message.
        let (trace, store_site) = buggy_trace();
        let mut cands = analyze_trace(&trace);
        cands.extend(analyze_trace(&trace));
        assert_eq!(cands.len(), 2);
        let message = cands[0].clone().into_diagnostic().message;
        let mut evidence = RfEvidence::new();
        evidence.extend([(0, store_site)]);
        let confirmed = localize(cands.iter().map(|c| (0, c)), &evidence);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].occurrences, 2);
        assert_eq!(confirmed[0].message, message);
    }

    #[test]
    fn unrelated_evidence_confirms_nothing() {
        let (trace, _) = buggy_trace();
        let cands = analyze_trace(&trace);
        let mut evidence = RfEvidence::new();
        evidence.extend([(0, Location::caller())]);
        assert!(localize(cands.iter().map(|c| (0, c)), &evidence).is_empty());
    }

    #[test]
    fn execution_index_must_match() {
        let (trace, store_site) = buggy_trace();
        let cands = analyze_trace(&trace);
        let mut evidence = RfEvidence::new();
        evidence.extend([(1, store_site)]);
        assert!(localize(cands.iter().map(|c| (0, c)), &evidence).is_empty());
    }
}
