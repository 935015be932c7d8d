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
//!
//! Scenarios restored from one checkpoint share their crashed executions'
//! traces, execution 0's above all, so a walk keeps the analysis of the
//! last execution-0 trace it linted ([`FirstTraceLint`]) and reuses it
//! for every scenario that shares the trace.

use std::collections::HashSet;
use std::sync::Arc;

use jaaru_analysis::{
    cross_thread_races, flush_redundancy, localize, recovery_read_lines, robustness_candidates,
    torn_candidates, Candidate, Diagnostic, DiagnosticKind, PersistGraph, RfEvidence,
};
use jaaru_tso::OpTrace;

use crate::config::{Config, Lints};
use crate::snapshot::Crashed;

/// The analysis of one execution-0 trace: its robustness and torn-store
/// candidates and its cross-thread findings. A trace never changes once
/// its execution has crashed, so the analysis holds for every scenario
/// that shares it (the same `Arc`).
#[derive(Default)]
pub(crate) struct FirstTraceLint {
    trace: Option<Arc<OpTrace>>,
    candidates: Vec<Candidate>,
    cross: Vec<Diagnostic>,
}

impl FirstTraceLint {
    /// Analyses `trace` unless it is the trace analysed last.
    /// `redundancy` asks for the flush-redundancy findings too, which are
    /// never kept: only the clean scenario wants them.
    fn analyse(&mut self, trace: &Arc<OpTrace>, redundancy: bool) -> Vec<Diagnostic> {
        let held = self.trace.as_ref().is_some_and(|t| Arc::ptr_eq(t, trace));
        if held && !redundancy {
            return Vec::new();
        }
        let graph = PersistGraph::build(trace);
        self.candidates = robustness_candidates(&graph);
        self.candidates.extend(torn_candidates(&graph));
        self.cross = cross_thread_races(&graph);
        self.trace = Some(Arc::clone(trace));
        if redundancy {
            flush_redundancy(&graph)
        } else {
            Vec::new()
        }
    }
}

/// Runs the selected analysis passes over the traces a scenario ended
/// with (`crashed`) and returns the diagnostics they contribute. Empty under
/// [`Lints::Off`] (no traces were recorded). `first` is the analysis of
/// the last execution-0 trace linted, reused when this scenario shares
/// that trace and replaced otherwise.
pub(crate) fn lint_scenario(
    crashed: &Crashed,
    had_bug: bool,
    config: &Config,
    first: &mut FirstTraceLint,
) -> Vec<Diagnostic> {
    if crashed.op_traces.is_empty() {
        return Vec::new();
    }
    let crash_free = crashed.crash_points.is_empty();
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
    let redundancy = first.analyse(
        &crashed.op_traces[0],
        config.lints_value() == Lints::All && static_route,
    );
    let mut recovery: Vec<(usize, Candidate)> = Vec::new();
    for (exec, trace) in crashed.op_traces.iter().enumerate().skip(1) {
        let graph = PersistGraph::build(trace);
        let found = robustness_candidates(&graph)
            .into_iter()
            .chain(torn_candidates(&graph));
        recovery.extend(found.map(|c| (exec, c)));
    }
    let candidates = first
        .candidates
        .iter()
        .map(|c| (0, c))
        .chain(recovery.iter().map(|(exec, c)| (*exec, c)));
    let cross = &first.cross;

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
            .filter(|(_, c)| c.kind == DiagnosticKind::MissingFence && !c.persists_eventually)
            .filter(|(_, c)| seen.insert((c.kind, c.site)))
            .map(|(_, c)| c.clone().into_diagnostic())
            .collect()
    } else {
        // Dynamic route: keep only candidates whose unordered store is
        // named by a racy load of this failing scenario.
        let mut evidence = RfEvidence::new();
        for race in &crashed.races {
            evidence.extend(race.candidates.iter().filter_map(|&(_, store)| store));
        }
        localize(candidates, &evidence)
    };

    if !cross.is_empty() {
        if static_route {
            out.extend(cross.iter().cloned());
        } else {
            // A buggy scenario ties cross-thread reports to state the
            // failing recovery observed: keep a report only when some
            // recovery execution read the store's cache line.
            let read = recovery_read_lines(crashed.op_traces.iter().map(|t| &**t));
            out.extend(
                cross
                    .iter()
                    .filter(|d| {
                        d.addr
                            .is_some_and(|addr| read.contains(&addr.cache_line().index()))
                    })
                    .cloned(),
            );
        }
    }
    out.extend(redundancy);
    out
}
