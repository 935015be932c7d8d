//! Typed repair edits and delta-debugging minimization.
//!
//! Every error-class diagnostic the lint engine emits names a concrete
//! persistency edit — insert a flush, insert a fence, delete a wasted
//! flush — anchored at the source site the persist-order graph blamed:
//! the guest's own `&'static Location`, as the trace recorded it.
//! [`FixEdit`] is that edit as data: precise enough for the repair
//! engine (`jaaru::repair`) to apply it to the recorded guest program
//! and re-check, by comparing its site with each guest operation's
//! `Location::caller()`, and for the SARIF exporter to render it as a
//! machine-applicable `fix` object.
//!
//! Edits carry an optional cache-line filter. Interpreter-style guests
//! (the fuzz generator, any table-driven workload) funnel every store
//! through one source call site, so "flush after the store at
//! gen.rs:390:17" would over-apply; the filter narrows the edit to
//! operations touching one cache line, which is exactly the
//! granularity the graph passes localize at.
//!
//! [`minimize_edits`] is the delta-debugging step: greedy drop-one
//! reduction to a fixpoint, so the surviving set is 1-minimal —
//! removing any single edit makes the verification oracle fail. The
//! oracle is a plain closure; the caller decides what "still verifies"
//! means (and is expected to memoize, since the reducer may probe the
//! same subset twice on its way to the fixpoint).

use std::fmt;

use jaaru_tso::SourceLoc;

/// One machine-applicable persistency edit at a source site.
///
/// `site` is the source site the diagnostic anchors to; `line` is an
/// optional cache-line index (pool offset / 64) narrowing the edit to
/// operations that touch that line at that site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FixEdit {
    /// Insert `clflush(addr, len); sfence()` immediately after the
    /// store at `site` — the repair for `MissingFlush`, `TornStore`
    /// (one flush covering both halves persists them at one point) and
    /// shape-1 `CrossThreadRace` (flush on the storing thread).
    InsertFlush { site: SourceLoc, line: Option<u64> },
    /// Insert `sfence()` immediately after the flush at `site` — the
    /// repair for `MissingFence`, `FlushNotFenced` and shape-2
    /// `CrossThreadRace` (fence on the flushing thread).
    InsertFence { site: SourceLoc, line: Option<u64> },
    /// Delete the flush at `site` — the repair for `RedundantFlush`,
    /// `RedundantFlushOpt` and `FlushBeforeStore`.
    DeleteFlush { site: SourceLoc, line: Option<u64> },
}

impl FixEdit {
    /// The kebab-case tag used in JSON output.
    pub fn kind_str(&self) -> &'static str {
        match self {
            FixEdit::InsertFlush { .. } => "insert-flush",
            FixEdit::InsertFence { .. } => "insert-fence",
            FixEdit::DeleteFlush { .. } => "delete-flush",
        }
    }

    /// The source site the edit anchors to.
    pub fn site(&self) -> SourceLoc {
        match *self {
            FixEdit::InsertFlush { site, .. }
            | FixEdit::InsertFence { site, .. }
            | FixEdit::DeleteFlush { site, .. } => site,
        }
    }

    /// The cache-line filter, when the edit is narrowed to one line.
    pub fn cache_line(&self) -> Option<u64> {
        match self {
            FixEdit::InsertFlush { line, .. }
            | FixEdit::InsertFence { line, .. }
            | FixEdit::DeleteFlush { line, .. } => *line,
        }
    }

    /// The same edit widened to every cache line at its site.
    ///
    /// The repair engine falls back to this when a site keeps
    /// resurfacing with fresh cache lines round after round — the
    /// signature of a shared helper (an allocator's zeroing loop, a
    /// node constructor) whose every call touches new memory. Chasing
    /// those lines one by one never converges; the site-wide edit
    /// covers them all at once.
    pub fn generalized(&self) -> FixEdit {
        match *self {
            FixEdit::InsertFlush { site, .. } => FixEdit::InsertFlush { site, line: None },
            FixEdit::InsertFence { site, .. } => FixEdit::InsertFence { site, line: None },
            FixEdit::DeleteFlush { site, .. } => FixEdit::DeleteFlush { site, line: None },
        }
    }

    /// Whether `other` is the same kind of edit at the same site,
    /// ignoring the cache-line filter.
    pub fn same_fix(&self, other: &FixEdit) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other) && self.site() == other.site()
    }

    /// The source text a patch would insert after the anchored
    /// operation; `None` for deletions.
    pub fn inserted_text(&self) -> Option<&'static str> {
        match self {
            FixEdit::InsertFlush { .. } => Some("env.clflush(addr, len); env.sfence();"),
            FixEdit::InsertFence { .. } => Some("env.sfence();"),
            FixEdit::DeleteFlush { .. } => None,
        }
    }
}

impl fmt::Display for FixEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixEdit::InsertFlush { site, .. } => {
                write!(f, "insert clflush + sfence after the store at {site}")?;
            }
            FixEdit::InsertFence { site, .. } => {
                write!(f, "insert sfence after the flush at {site}")?;
            }
            FixEdit::DeleteFlush { site, .. } => {
                write!(f, "delete the flush at {site}")?;
            }
        }
        if let Some(line) = self.cache_line() {
            write!(f, " (cache line {line})")?;
        }
        Ok(())
    }
}

/// Delta-debugging reduction of an edit set against a verification
/// oracle: greedily drops any edit whose removal still verifies, and
/// repeats until no single removal does. The result is 1-minimal.
///
/// `verifies(&[])` being true is fine (the program needed no repair
/// and the empty set is returned); the caller guarantees only that
/// `verifies(&edits)` held for the initial set.
pub fn minimize_edits<F>(mut edits: Vec<FixEdit>, mut verifies: F) -> Vec<FixEdit>
where
    F: FnMut(&[FixEdit]) -> bool,
{
    loop {
        let mut dropped = false;
        let mut i = 0;
        while i < edits.len() {
            let mut trial = edits.clone();
            trial.remove(i);
            if verifies(&trial) {
                edits = trial;
                dropped = true;
            } else {
                i += 1;
            }
        }
        // Removing a later edit can make an earlier one droppable, so
        // sweep again until the set is stable.
        if !dropped {
            break;
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    #[track_caller]
    fn insert_flush(line: Option<u64>) -> FixEdit {
        FixEdit::InsertFlush {
            site: Location::caller(),
            line,
        }
    }

    #[test]
    fn display_names_the_edit_and_site() {
        let e = insert_flush(Some(3));
        let s = e.to_string();
        assert!(s.contains("clflush + sfence"), "{s}");
        assert!(
            s.ends_with(&format!(" at {} (cache line 3)", e.site())),
            "{s}"
        );
        assert!(s.contains("repair.rs:"), "{s}");
        let fence = FixEdit::InsertFence {
            site: Location::caller(),
            line: None,
        };
        assert!(fence.to_string().contains("insert sfence after the flush"));
        let del = FixEdit::DeleteFlush {
            site: Location::caller(),
            line: None,
        };
        assert!(del.to_string().contains("delete the flush"));
        assert!(del.inserted_text().is_none());
        assert_eq!(del.kind_str(), "delete-flush");
    }

    #[test]
    fn minimize_drops_every_unneeded_edit() {
        let edits = vec![insert_flush(None), insert_flush(None), insert_flush(None)];
        // Only the second edit is load-bearing.
        let needed = edits[1];
        let mut probes = 0;
        let minimal = minimize_edits(edits, |subset| {
            probes += 1;
            subset.contains(&needed)
        });
        assert_eq!(minimal, vec![needed]);
        assert!(probes >= 3);
    }

    #[test]
    fn minimize_result_is_one_minimal_not_globally_minimal() {
        let a = insert_flush(None);
        let b = insert_flush(None);
        // The oracle accepts {a, b} and {} but rejects both singletons:
        // no single removal verifies, so the pair survives. 1-minimal
        // is the contract — removing any single edit breaks the check.
        let minimal = minimize_edits(vec![a, b], |subset| subset.len() != 1);
        assert_eq!(minimal, vec![a, b]);
    }

    #[test]
    fn minimize_resweeps_after_a_late_drop() {
        let a = insert_flush(None);
        let b = insert_flush(None);
        // Rejecting only {b} means sweep 1 keeps a (trial {b} fails),
        // then drops b (trial {a} passes) and ends; only the second
        // sweep can probe the now-reachable empty set.
        let reject = vec![b];
        let minimal = minimize_edits(vec![a, b], |subset| subset != reject.as_slice());
        assert!(minimal.is_empty(), "{minimal:?}");
    }
}
