//! The per-scenario lint pass: graph-based analysis plus localization.
//!
//! With [`Config::lints`](crate::Config::lints) on, every execution's
//! operation stream is recorded, lifted into a [`PersistGraph`] — one
//! replay of the Figure 7/8 buffer rules shared by all passes — and
//! queried. [`Lints::Errors`] runs the three passes that produce
//! error-severity diagnostics:
//!
//! * the **robustness pass** infers commit stores (the
//!   flushed-and-fenced guard-store idiom of the paper's Figure 4) and
//!   flags stores that can reach a commit store without being
//!   persist-ordered before it;
//! * the **torn-store pass** flags straddling stores whose line halves
//!   persist at different points;
//! * the **cross-thread race pass** flags stores whose flush/fence
//!   chain spans threads without a synchronizing edge.
//!
//! [`Lints::All`] adds the **flush-redundancy pass**, which flags wasted
//! persistency ops as warnings.
//!
//! Findings are emitted through two complementary routes, chosen per
//! scenario:
//!
//! * **Static route** — the *clean* scenario (no injected failure, no
//!   bug) covers the program's full pre-failure operation stream, so
//!   its findings describe the program text itself. Reported directly:
//!   never-fenced `clflushopt`s, cross-thread races, and redundancy
//!   warnings need no failure to be wrong (or wasteful).
//! * **Dynamic route** — a *buggy* scenario additionally proves which
//!   violations matter: the failing execution's racy loads name the
//!   stores they could have read from, and a robustness or torn-store
//!   candidate whose unordered store appears among them is the root
//!   cause of an observed symptom. Cross-thread reports are kept only
//!   when the failing recovery actually read the store's cache lines.

use std::collections::HashSet;

use jaaru_analysis::{
    cross_thread_races, flush_redundancy, localize, recovery_read_lines, robustness_candidates,
    torn_candidates, Candidate, Diagnostic, DiagnosticKind, PersistGraph, RfEvidence,
};

use crate::checker_env::ScenarioRecord;
use crate::config::{Config, Lints};

/// Runs the selected analysis passes over one scenario's recorded
/// traces and returns the diagnostics they contribute. Empty under
/// [`Lints::Off`] (no traces were recorded).
pub(crate) fn lint_scenario(
    record: &ScenarioRecord,
    had_bug: bool,
    config: &Config,
) -> Vec<Diagnostic> {
    if record.op_traces.is_empty() {
        return Vec::new();
    }
    let crash_free = record.crash_points.is_empty();
    if !crash_free && !had_bug {
        // Crashed-but-clean scenarios prove nothing the clean scenario
        // does not already cover; skip the analysis cost.
        return Vec::new();
    }
    let static_route = crash_free && !had_bug;

    // One graph per execution trace; every selected pass queries it.
    // Robustness and torn candidates carry the index of the execution
    // whose stores they constrain (localization matches racy loads
    // against stores of that same execution). Cross-thread and
    // redundancy findings describe the pre-failure program stream, so
    // only execution 0's graph feeds them.
    let mut candidates: Vec<(usize, Candidate)> = Vec::new();
    let mut cross: Vec<Diagnostic> = Vec::new();
    let mut redundancy: Vec<Diagnostic> = Vec::new();
    for (exec, trace) in record.op_traces.iter().enumerate() {
        let graph = PersistGraph::build(trace);
        let found = robustness_candidates(&graph)
            .into_iter()
            .chain(torn_candidates(&graph));
        candidates.extend(found.map(|c| (exec, c)));
        if exec == 0 {
            cross = cross_thread_races(&graph);
            if config.lints_value() == Lints::All && static_route {
                redundancy = flush_redundancy(&graph);
            }
        }
    }

    let mut out: Vec<Diagnostic> = if static_route {
        // Static route: of the clean scenario's candidates, only the
        // `MissingFence` class is reported unconditionally — the
        // `clflushopt` proves the program *meant* to persist the store,
        // so a missing ordering fence is a genuine mistake even before
        // any failure demonstrates it. `MissingFlush` candidates are a
        // different matter: never-flushed stores are routinely benign
        // (node locks, epoch counters, allocator bookkeeping), and
        // late-flushed stores (ordered after an unrelated commit such
        // as an allocator's cursor persist) are a common idiom. Those —
        // and torn-store candidates — are reported only when a failing
        // scenario proves recovery can observe the window, in the
        // dynamic route below. Dedup by (kind, site) — the same flush
        // can precede many commit stores.
        let mut seen = HashSet::new();
        candidates
            .into_iter()
            .filter(|(_, c)| c.kind == DiagnosticKind::MissingFence && !c.persists_eventually)
            .filter(|(_, c)| seen.insert((c.kind, c.site)))
            .map(|(_, c)| c.into_diagnostic())
            .collect()
    } else {
        // Dynamic route: keep only candidates whose unordered store is
        // named by a racy load of this failing scenario.
        let mut evidence = RfEvidence::new();
        for race in &record.races {
            evidence.extend(race.candidates.iter().filter_map(|&(_, store)| store));
        }
        localize(candidates, &evidence)
    };

    if !cross.is_empty() {
        if static_route {
            out.extend(cross);
        } else {
            // A buggy scenario ties cross-thread reports to state the
            // failing recovery observed: keep a report only when some
            // recovery execution read the store's cache line.
            let read = recovery_read_lines(&record.op_traces);
            out.extend(cross.into_iter().filter(|d| {
                d.addr
                    .is_some_and(|addr| read.contains(&addr.cache_line().index()))
            }));
        }
    }
    out.extend(redundancy);
    out
}
