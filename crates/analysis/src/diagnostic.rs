//! The unified diagnostic framework.
//!
//! Every non-bug finding the checker produces — robustness violations
//! from the lint engine and wasted persistency operations from the
//! performance pass — is a [`Diagnostic`]: a kind, a severity, the
//! source site it anchors to, a concrete fix suggestion, and an
//! occurrence count. [`DiagnosticSet`] is the single accumulation path
//! shared by the analysis passes, the sequential explorer and the
//! parallel merge: diagnostics dedup by `(kind, site)` and their
//! occurrence counts add, so folding the same scenarios in the same
//! order always yields the same list.

use std::collections::HashMap;
use std::fmt;

use jaaru_pmem::PmAddr;
use jaaru_tso::SourceLoc;

use crate::repair::FixEdit;

/// What a diagnostic is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagnosticKind {
    /// A store can reach a commit store with no flush of its cache line
    /// in between: recovery may observe the commit while the store's
    /// line still holds stale data.
    MissingFlush,
    /// A store's line is `clflushopt`ed but the issuing thread never
    /// fences, so the flush never takes effect.
    MissingFence,
    /// A store's line is `clflushopt`ed before the commit store, but the
    /// ordering fence lands only after it — the flush is still pending
    /// when the commit becomes observable.
    FlushNotFenced,
    /// A store whose flush/fence chain spans threads without a
    /// synchronizing edge: the persist may be reordered against the
    /// store (or never happen) depending on the interleaving.
    CrossThreadRace,
    /// A store straddling a cache-line boundary whose line halves
    /// persist at different points: a crash between them leaves the
    /// value torn.
    TornStore,
    /// A `clflush` of a cache line with no unflushed stores (the §5.1
    /// performance-bug extension).
    RedundantFlush,
    /// A `clflushopt`/`clwb` of a cache line with no unflushed stores.
    RedundantFlushOpt,
    /// An `sfence` with no buffered flushes or stores to order.
    RedundantFence,
    /// A flush of a cache line that is only stored to later: the flush
    /// does nothing and the store it was meant to persist stays dirty.
    FlushBeforeStore,
    /// A flush of a cache line outside the recovery read footprint: no
    /// recovery execution ever reads the line, so persisting it buys
    /// nothing and the flush can be deleted outright.
    DeadFlush,
}

impl DiagnosticKind {
    /// The kebab-case tag used in JSON output and digests.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticKind::MissingFlush => "missing-flush",
            DiagnosticKind::MissingFence => "missing-fence",
            DiagnosticKind::FlushNotFenced => "flush-not-fenced",
            DiagnosticKind::CrossThreadRace => "cross-thread-race",
            DiagnosticKind::TornStore => "torn-store",
            DiagnosticKind::RedundantFlush => "redundant-flush",
            DiagnosticKind::RedundantFlushOpt => "redundant-flushopt",
            DiagnosticKind::RedundantFence => "redundant-fence",
            DiagnosticKind::FlushBeforeStore => "flush-before-store",
            DiagnosticKind::DeadFlush => "dead-flush",
        }
    }

    /// Every kind, in declaration order — the canonical rule order for
    /// SARIF output.
    pub const ALL: [DiagnosticKind; 10] = [
        DiagnosticKind::MissingFlush,
        DiagnosticKind::MissingFence,
        DiagnosticKind::FlushNotFenced,
        DiagnosticKind::CrossThreadRace,
        DiagnosticKind::TornStore,
        DiagnosticKind::RedundantFlush,
        DiagnosticKind::RedundantFlushOpt,
        DiagnosticKind::RedundantFence,
        DiagnosticKind::FlushBeforeStore,
        DiagnosticKind::DeadFlush,
    ];

    /// One-line description of the rule, for SARIF rule metadata.
    pub fn describe(self) -> &'static str {
        match self {
            DiagnosticKind::MissingFlush => {
                "a store can reach a commit store with no flush of its cache line in between"
            }
            DiagnosticKind::MissingFence => {
                "a clflushopt is never fenced, so the flushed store may not persist"
            }
            DiagnosticKind::FlushNotFenced => {
                "the fence ordering a clflushopt lands only after the commit store"
            }
            DiagnosticKind::CrossThreadRace => {
                "a store's flush/fence chain spans threads without a synchronizing edge"
            }
            DiagnosticKind::TornStore => {
                "a store straddling cache lines whose halves persist independently"
            }
            DiagnosticKind::RedundantFlush => "a clflush of a cache line with no unflushed stores",
            DiagnosticKind::RedundantFlushOpt => {
                "a clflushopt/clwb of a cache line with no unflushed stores"
            }
            DiagnosticKind::RedundantFence => "a fence with no buffered flushes or stores to order",
            DiagnosticKind::FlushBeforeStore => {
                "a flush of a cache line that is only stored to later"
            }
            DiagnosticKind::DeadFlush => "a flush of a cache line no recovery execution ever reads",
        }
    }

    /// The default severity of this kind: ordering violations are
    /// errors (crash-consistency is at stake), wasted operations are
    /// warnings (a cost, not a correctness bug).
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::MissingFlush
            | DiagnosticKind::MissingFence
            | DiagnosticKind::FlushNotFenced
            | DiagnosticKind::CrossThreadRace
            | DiagnosticKind::TornStore => Severity::Error,
            DiagnosticKind::RedundantFlush
            | DiagnosticKind::RedundantFlushOpt
            | DiagnosticKind::RedundantFence
            | DiagnosticKind::FlushBeforeStore
            | DiagnosticKind::DeadFlush => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// A crash-consistency hazard; `jaaru_cli` exits nonzero on these.
    Error,
    /// A performance or hygiene finding.
    Warning,
}

impl Severity {
    /// Lower-case tag (`error` / `warning`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analysis passes.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Finding class.
    pub kind: DiagnosticKind,
    /// The source site the finding anchors to — the unordered store for
    /// `MissingFlush`, the unfenced flush for
    /// `MissingFence`/`FlushNotFenced`, the wasted op for the redundant
    /// kinds.
    pub site: SourceLoc,
    /// A concrete, actionable fix, rendered for humans ("insert
    /// clflush + sfence after the store at …, before the commit store
    /// at …").
    pub message: String,
    /// The same fix as a machine-applicable edit, when the kind has
    /// one (`RedundantFence` has no edit in the repair vocabulary —
    /// deleting a fence could unorder unrelated flushes).
    pub suggestion: Option<FixEdit>,
    /// A representative persistent address involved, when meaningful.
    pub addr: Option<PmAddr>,
    /// How many scenarios (or sites-executions, for warnings)
    /// exhibited the finding.
    pub occurrences: u64,
}

impl Diagnostic {
    /// The diagnostic's severity (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// `true` for error-severity diagnostics.
    pub fn is_error(&self) -> bool {
        self.severity() == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity(),
            self.kind,
            self.site,
            self.message
        )?;
        if let Some(addr) = self.addr {
            write!(f, " (addr {addr})")?;
        }
        write!(f, " ({} occurrence(s))", self.occurrences)
    }
}

/// An order-preserving, deduplicating collection of diagnostics.
///
/// Insertion order is kept for the first occurrence of each
/// `(kind, site)` pair; later insertions of the same pair only add
/// their occurrence counts. This is the one accumulation path used by
/// the checker environment (within a scenario), the sequential
/// explorer and the parallel merge (across scenarios), so a given
/// scenario sequence always folds to the same list.
#[derive(Clone, Debug, Default)]
pub struct DiagnosticSet {
    items: Vec<Diagnostic>,
    index: HashMap<(DiagnosticKind, SourceLoc), usize>,
}

impl DiagnosticSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one diagnostic: a new `(kind, site)` appends, a known
    /// one adds its occurrences to the existing entry. Merging keeps
    /// the richer typed edit: an edit-carrying duplicate upgrades an
    /// entry recorded without one.
    pub fn insert(&mut self, d: Diagnostic) {
        match self.index.get(&(d.kind, d.site)) {
            Some(&i) => {
                self.items[i].occurrences += d.occurrences;
                if self.items[i].suggestion.is_none() {
                    self.items[i].suggestion = d.suggestion;
                }
            }
            None => {
                self.index.insert((d.kind, d.site), self.items.len());
                self.items.push(d);
            }
        }
    }

    /// Folds in every diagnostic of an iterator, in order.
    pub fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, iter: I) {
        for d in iter {
            self.insert(d);
        }
    }

    /// The accumulated diagnostics, in first-insertion order.
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Consumes the set, yielding the ordered diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }

    /// Number of distinct `(kind, site)` entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    fn diag(kind: DiagnosticKind, site: SourceLoc) -> Diagnostic {
        Diagnostic {
            kind,
            site,
            message: "do the thing".into(),
            suggestion: None,
            addr: None,
            occurrences: 1,
        }
    }

    #[test]
    fn severity_follows_kind() {
        assert_eq!(DiagnosticKind::MissingFlush.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::MissingFence.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::FlushNotFenced.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::CrossThreadRace.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::TornStore.severity(), Severity::Error);
        assert_eq!(DiagnosticKind::RedundantFlush.severity(), Severity::Warning);
        assert_eq!(DiagnosticKind::RedundantFence.severity(), Severity::Warning);
        assert_eq!(
            DiagnosticKind::FlushBeforeStore.severity(),
            Severity::Warning
        );
        assert!(diag(DiagnosticKind::MissingFlush, Location::caller()).is_error());
        assert!(!diag(DiagnosticKind::RedundantFlush, Location::caller()).is_error());
    }

    #[test]
    fn rule_ids_are_stable_and_cover_all_kinds() {
        let ids: Vec<&str> = DiagnosticKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            ids,
            [
                "missing-flush",
                "missing-fence",
                "flush-not-fenced",
                "cross-thread-race",
                "torn-store",
                "redundant-flush",
                "redundant-flushopt",
                "redundant-fence",
                "flush-before-store",
                "dead-flush",
            ]
        );
        for k in DiagnosticKind::ALL {
            assert!(!k.describe().is_empty());
        }
    }

    #[test]
    fn set_dedups_by_kind_and_site() {
        let (a, b) = (Location::caller(), Location::caller());
        let mut set = DiagnosticSet::new();
        set.insert(diag(DiagnosticKind::MissingFlush, a));
        set.insert(diag(DiagnosticKind::MissingFlush, b));
        set.insert(diag(DiagnosticKind::MissingFlush, a));
        set.insert(diag(DiagnosticKind::RedundantFlush, a));
        assert_eq!(set.len(), 3);
        assert_eq!(set.items()[0].occurrences, 2);
        assert_eq!(set.items()[0].site, a);
        assert_eq!(set.items()[1].site, b);
    }

    #[test]
    fn occurrence_counts_add() {
        let mut set = DiagnosticSet::new();
        let mut d = diag(DiagnosticKind::RedundantFence, Location::caller());
        d.occurrences = 3;
        set.insert(d.clone());
        d.occurrences = 4;
        set.insert(d);
        assert_eq!(set.items()[0].occurrences, 7);
    }

    #[test]
    fn display_mentions_severity_kind_and_site() {
        let site = Location::caller();
        let d = diag(DiagnosticKind::FlushNotFenced, site);
        let s = d.to_string();
        assert!(s.contains("error[flush-not-fenced]"), "{s}");
        assert!(s.contains(&format!(" at {site}: ")), "{s}");
        assert!(s.contains("diagnostic.rs:"), "{s}");
        assert!(s.contains("1 occurrence(s)"), "{s}");
    }
}
