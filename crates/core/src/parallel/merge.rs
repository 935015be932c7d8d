//! Deterministic result merging.
//!
//! Workers finish scenarios in a nondeterministic interleaving, but the
//! scenario *set* is fixed and every scenario is identified by its
//! decision trace. Because no complete trace is a strict prefix of
//! another (a deterministic guest makes the same decisions after the
//! same prefix), sorting outcomes lexicographically by trace reproduces
//! exactly the order a one-worker depth-first walk discovers them in.
//! Folding the sorted outcomes through the [`ReportAccumulator`] the
//! one-worker walk folds into as it goes therefore yields a
//! byte-identical report — same representative bug per dedup key, same
//! insertion order, same statistics — regardless of worker count.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use jaaru_analysis::{DiagnosticSet, SiteHash, SiteKey};
use jaaru_snapshot::SnapshotStats;

use crate::explorer::{bug_dedup_key, ExploreAux, ScenarioOutcome};
use crate::report::{
    BugKind, BugReport, CheckReport, CheckStats, ParallelStats, RaceReport, WorkerStats,
};

/// Folds [`ScenarioOutcome`]s into the deduplicated, ordered contents of
/// a [`CheckReport`]. Feeding outcomes in canonical (depth-first
/// discovery) order makes the result independent of how they were
/// produced. Diagnostics fold through [`DiagnosticSet`] — the same
/// `(kind, site)` dedup the analysis passes use.
#[derive(Debug, Default)]
pub(crate) struct ReportAccumulator {
    stats: CheckStats,
    bugs: Vec<BugReport>,
    bug_index: HashMap<(BugKind, String), usize>,
    races: Vec<RaceReport>,
    /// The load sites `races` reports.
    race_sites: HashSet<SiteKey<()>, SiteHash>,
    diagnostics: DiagnosticSet,
    aux: ExploreAux,
    snapshots: SnapshotStats,
}

impl ReportAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one scenario's results.
    pub fn add(&mut self, outcome: ScenarioOutcome) {
        self.stats.scenarios += 1;
        self.stats.executions += outcome.executions as u64;
        self.stats.executions_replayed += outcome.executions_replayed as u64;
        self.stats.executions_restored += outcome.executions_restored as u64;
        if outcome.executions_restored > 0 {
            self.snapshots.hits += 1;
        } else {
            self.snapshots.misses += 1;
        }
        self.snapshots.inserts += outcome.checkpoints_captured as u64;
        self.stats.load_choice_points += outcome.load_choice_points;
        self.stats.max_rf_set = self.stats.max_rf_set.max(outcome.max_rf_set);
        self.stats.failure_points = self.stats.failure_points.max(outcome.failure_points);

        self.aux.recovery_reads.extend(outcome.recovery_reads);
        if self.aux.clean_trace.is_none() {
            self.aux.clean_trace = outcome.clean_trace;
        }

        for race in outcome.races {
            if self.race_sites.insert(SiteKey((), race.load)) {
                self.races.push(race);
            }
        }
        self.diagnostics.extend(outcome.diagnostics);
        if let Some(bug) = outcome.bug {
            let key = (bug.kind, bug_dedup_key(&bug));
            match self.bug_index.get(&key) {
                Some(&i) => self.bugs[i].occurrences += 1,
                None => {
                    self.bug_index.insert(key, self.bugs.len());
                    self.bugs.push(bug);
                }
            }
        }
    }

    /// Takes the accumulated exploration by-products (the recovery read
    /// footprint and the crash-free trace). Call before
    /// [`into_report`](Self::into_report).
    pub fn take_aux(&mut self) -> ExploreAux {
        std::mem::take(&mut self.aux)
    }

    /// Finalizes the report; `snapshots` says whether the run had
    /// crash-point snapshots on, so it reports their counters.
    pub fn into_report(
        mut self,
        truncated: bool,
        duration: Duration,
        parallel: Option<ParallelStats>,
        snapshots: bool,
    ) -> CheckReport {
        self.stats.duration = duration;
        CheckReport {
            bugs: self.bugs,
            races: self.races,
            diagnostics: self.diagnostics.into_vec(),
            stats: self.stats,
            truncated,
            parallel,
            snapshots: snapshots.then_some(self.snapshots),
            slice: None,
        }
    }
}

/// Merges the workers' results: every outcome in canonical trace order
/// (the order the one-worker walk discovers them in), and the scheduling
/// statistics.
pub(crate) fn merge_partials(
    partials: Vec<(WorkerStats, Vec<ScenarioOutcome>)>,
    jobs: usize,
) -> (Vec<ScenarioOutcome>, ParallelStats) {
    let mut workers = Vec::with_capacity(jobs);
    let mut outcomes = Vec::new();
    for (stats, partial) in partials {
        workers.push(stats);
        outcomes.extend(partial);
    }
    workers.sort_by_key(|w| w.worker);
    outcomes.sort_by(|a, b| a.trace.cmp(&b.trace));
    let steals = workers.iter().map(|w| w.steals).sum();
    let parallel = ParallelStats {
        jobs,
        steals,
        workers,
    };
    (outcomes, parallel)
}
