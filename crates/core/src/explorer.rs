//! The exploration driver: depth-first search over failure scenarios.
//!
//! This is the re-execution form of the paper's `Explore` algorithm
//! (Figure 11). Each iteration runs one complete failure scenario — a
//! pre-failure execution, zero or more injected power failures, and the
//! recovery executions between them — steered by a decision trace
//! ([`run_scenario`]). When a scenario finishes, the walk backtracks to
//! the deepest decision with unexplored alternatives and reruns. The
//! tree is exhausted when no decision can be advanced, at which point
//! every equivalence class of post-failure executions (defined by which
//! pre-failure stores the post-failure loads read) has been explored
//! exactly once. The walk itself lives in `crate::parallel`: one worker
//! runs it on the calling thread, several split the tree by donating
//! subtrees to idle peers. Each walk owns one checker environment
//! (`CheckerEnv`) for its lifetime and starts every scenario on it.
//!
//! Re-execution normally replays a scenario's pre-failure prefix from
//! scratch. With snapshots enabled (the default), the environment instead
//! checkpoints, at each fresh crash decision, the crashed state a crash
//! there would leave — where the original system forks, without a guest
//! process to fork (see `crate::snapshot`). The walk keeps the
//! checkpoints of the crash decisions on its current decision path; when
//! depth-first search flips one of those decisions to crash, each
//! scenario below it starts from the crashed state of the deepest
//! checkpoint its plan takes, directly at recovery, so every guest run is
//! some scenario's last execution.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use jaaru_analysis::{dead_flushes, Diagnostic, PersistGraph};
use jaaru_tso::{LineSet, OpTrace};

use crate::checker_env::CheckerEnv;
use crate::config::{Config, Lints};
use crate::decision::{DecisionLog, ForeignTrace};
use crate::lint::{lint_scenario, FirstTraceLint};
use crate::parallel::explore;
use crate::parallel::merge::ReportAccumulator;
use crate::report::{BugKind, BugReport, CheckReport, CheckStats, RaceReport};
use crate::signal::{
    panic_message, take_last_panic_location, with_quiet_panics, AbortSignal, CrashSignal,
};
use crate::snapshot::CheckerSnapshot;
use crate::{PmEnv, Program};

/// Everything one completed failure scenario contributes to the final
/// report. The exploration walk produces these; [`ReportAccumulator`]
/// folds them — in canonical trace order — into a [`CheckReport`].
#[derive(Clone, Debug)]
pub(crate) struct ScenarioOutcome {
    /// The scenario's complete decision trace (its identity, and the
    /// canonical sort key for deterministic merging).
    pub trace: Vec<usize>,
    /// `Program::run` invocations this scenario actually performed
    /// (replayed prefix executions included, restored ones not).
    pub executions_replayed: usize,
    /// Prefix executions skipped by restoring a crash-point snapshot
    /// instead of replaying them. `executions_replayed +
    /// executions_restored` is the scenario's logical execution count —
    /// invariant across snapshot settings.
    pub executions_restored: usize,
    /// Crash-point checkpoints this scenario captured.
    pub checkpoints_captured: usize,
    /// Executions a fork-based checker runs for this scenario: its
    /// logical (replayed + restored) executions from the one where it
    /// diverged from its predecessor on, so invariant across snapshot
    /// settings.
    pub executions: usize,
    /// Loads that faced more than one possible store.
    pub load_choice_points: u64,
    /// Largest may-read-from set encountered.
    pub max_rf_set: usize,
    /// Injection points in the scenario's first execution.
    pub failure_points: u64,
    /// Racy loads observed (when race flagging is on), one per load site.
    pub races: Vec<RaceReport>,
    /// Lint findings this scenario contributes (when lints are on).
    pub diagnostics: Vec<Diagnostic>,
    /// The bug this scenario hit, if any, with crash points and trace
    /// filled in.
    pub bug: Option<BugReport>,
    /// Cache lines this scenario's recoveries read (collected only for
    /// the dead-flush pass).
    pub recovery_reads: LineSet,
    /// The complete pre-failure operation trace, present only for the
    /// crash-free, bug-free scenario with lints on (one per run): the
    /// input of the footprint-driven dead-flush pass.
    pub clean_trace: Option<Arc<OpTrace>>,
}

/// Exploration by-products the dead-flush pass needs beyond the report:
/// the union of the lines recovery read (the footprint) and the
/// canonical crash-free trace.
#[derive(Debug, Default)]
pub(crate) struct ExploreAux {
    pub recovery_reads: LineSet,
    pub clean_trace: Option<Arc<OpTrace>>,
}

/// Runs one complete failure scenario steered by `decisions` on the
/// walk's environment `env` and returns its outcome, the decision log
/// (with alternative counts filled in), ready for
/// [`DecisionLog::backtrack`] or [`DecisionLog::split`], and the
/// checkpoints it captured.
///
/// `checkpoint`, when given, is the checkpoint of the deepest crash the
/// planned trace takes: the scenario starts from the crashed state it
/// holds instead of replaying the executions before that crash (counted
/// in `executions_restored`). With [`Config::snapshots`] on, every fresh
/// crash decision the scenario makes captures a checkpoint for the
/// scenarios that later take that crash.
///
/// A walk runs every scenario on one environment, which keeps its
/// machine, stack and buffers from one scenario to the next (see
/// [`CheckerEnv::start`]). `lint` keeps the analysis of the last
/// execution-0 trace linted, for the scenarios that share that trace.
pub(crate) fn run_scenario(
    config: &Config,
    env: &mut CheckerEnv,
    program: &dyn Program,
    decisions: DecisionLog,
    checkpoint: Option<&CheckerSnapshot>,
    lint: &mut FirstTraceLint,
) -> (ScenarioOutcome, DecisionLog, Vec<CheckerSnapshot>) {
    env.start(decisions, checkpoint);
    // The executions before the running one are the restored ones.
    let executions_restored = env.execution_index();
    let mut executions_replayed = 0usize;
    let mut scenario_bug: Option<BugReport> = None;

    loop {
        executions_replayed += 1;
        let exec_index = env.execution_index();
        let result = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                program.run(&*env);
                env.end_of_execution_point();
            }))
        });
        match result {
            Ok(()) => break,
            Err(payload) => {
                if payload.is::<CrashSignal>() {
                    env.advance_execution();
                    continue;
                }
                let (kind, message, location) = match payload.downcast::<AbortSignal>() {
                    Ok(sig) => (sig.kind, sig.message, sig.location.map(|l| l.to_string())),
                    // Not the program's fault: `replay` reports it.
                    Err(payload) if payload.is::<ForeignTrace>() => resume_unwind(payload),
                    Err(payload) => (
                        BugKind::GuestPanic,
                        panic_message(payload.as_ref()),
                        take_last_panic_location(),
                    ),
                };
                scenario_bug = Some(BugReport {
                    kind,
                    message,
                    location,
                    execution_index: exec_index,
                    crash_points: Vec::new(), // filled below
                    trace: Vec::new(),        // filled below
                    occurrences: 1,
                });
                break;
            }
        }
    }

    let record = env.finish();
    let crashed = record.crashed;
    let mut bug = scenario_bug;
    if let Some(b) = &mut bug {
        b.crash_points = crashed.crash_points.clone();
        b.trace = record.decisions.trace();
    }
    let diagnostics = lint_scenario(&crashed, bug.is_some(), config, lint);
    // Exactly one scenario per run never crashes and never hits a bug:
    // the all-continue one. Its first (and only) trace is the canonical
    // complete pre-failure trace, which the dead-flush pass consumes.
    let clean_trace = if crashed.crash_points.is_empty() && bug.is_none() {
        crashed.op_traces.first().cloned()
    } else {
        None
    };
    let logical = executions_replayed + executions_restored;
    let divergence = record.decisions.divergence_exec_index();
    let outcome = ScenarioOutcome {
        trace: record.decisions.trace(),
        executions_replayed,
        executions_restored,
        checkpoints_captured: record.captures.len(),
        executions: logical - divergence.min(logical - 1),
        load_choice_points: crashed.load_choice_points,
        max_rf_set: crashed.max_rf_set,
        failure_points: crashed.failure_points as u64,
        races: crashed.races,
        diagnostics,
        bug,
        recovery_reads: record.recovery_reads,
        clean_trace,
    };
    (outcome, record.decisions, record.captures)
}

/// The Jaaru model checker.
///
/// # Example: finding a missing flush
///
/// ```
/// use jaaru::{Config, ModelChecker, PmEnv};
///
/// // A program that commits before persisting its data: recovery can see
/// // `committed == 1` while `data` still reads 0.
/// let buggy = |env: &dyn PmEnv| {
///     let root = env.root();
///     let data = root + 64; // different cache line
///     if env.load_u8(root) == 1 {
///         // Recovery path: the commit flag promises the data is there.
///         env.pm_assert(env.load_u64(data) == 42, "committed data lost");
///         return;
///     }
///     env.store_u64(data, 42);
///     // BUG: missing clflush(data) before the commit store.
///     env.store_u8(root, 1);
///     env.persist(root, 1);
/// };
///
/// let report = ModelChecker::new(Config::new()).check(&buggy);
/// assert!(!report.is_clean());
/// ```
#[derive(Debug)]
pub struct ModelChecker {
    config: Config,
    abort: Option<Arc<AtomicBool>>,
}

impl ModelChecker {
    /// Creates a checker with the given configuration.
    pub fn new(config: Config) -> Self {
        ModelChecker {
            config,
            abort: None,
        }
    }

    /// Creates a checker with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(Config::new())
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Installs a cooperative abort flag: when `flag` becomes `true`,
    /// exploration winds down at the next scenario boundary and the
    /// report comes back with `truncated` set (like hitting a scenario
    /// budget). This is how a serving daemon enforces per-job deadlines
    /// and cancellation without killing worker threads mid-scenario.
    pub fn abort_flag(&mut self, flag: Arc<AtomicBool>) -> &mut Self {
        self.abort = Some(flag);
        self
    }

    /// Exhaustively model checks `program` and reports every distinct bug
    /// found, with statistics matching the paper's Figure 14 columns.
    ///
    /// With [`Config::jobs`] > 1 the depth-first walk runs on that many
    /// threads, which split the tree by donating subtrees to idle peers;
    /// for non-truncated runs the report is byte-identical (per
    /// [`CheckReport::digest`]) to the one-thread one.
    ///
    /// Under [`Lints::All`], an untruncated run also reports dead
    /// flushes: flushes of lines no recovery execution read (see
    /// [`jaaru_analysis::dead_flushes`]).
    pub fn check(&self, program: &(dyn Program + Sync)) -> CheckReport {
        let start = Instant::now();
        let mut acc = ReportAccumulator::new();
        let (truncated, parallel) = explore(&self.config, program, self.abort.clone(), |outcome| {
            acc.add(outcome)
        });
        let aux = acc.take_aux();
        let mut report = acc.into_report(
            truncated,
            start.elapsed(),
            parallel,
            self.config.snapshots_value(),
        );
        // The footprint is complete only when every recovery branch ran:
        // a truncated run may have skipped the one that reads a line.
        if self.config.lints_value() == Lints::All && !report.truncated {
            if let Some(trace) = &aux.clean_trace {
                let graph = PersistGraph::build(trace);
                report
                    .diagnostics
                    .extend(dead_flushes(&graph, &aux.recovery_reads));
            }
        }
        report
    }

    /// Replays a single recorded failure scenario — the `trace` of a
    /// [`BugReport`] — and returns its outcome. This is the paper's
    /// "strong witness" property made executable: a reported bug comes
    /// with the exact decision trace that reproduces it.
    ///
    /// # Errors
    ///
    /// [`ForeignTrace`] if the trace does not belong to this program: one
    /// of its decisions chooses an alternative the program does not have,
    /// or the program makes fewer decisions than the trace holds.
    pub fn replay(
        &self,
        program: &dyn Program,
        trace: &[usize],
    ) -> Result<CheckReport, ForeignTrace> {
        let start = Instant::now();
        let mut config = self.config.clone();
        config.snapshots(false);
        let mut env = CheckerEnv::new(&config);
        let scenario = catch_unwind(AssertUnwindSafe(|| {
            run_scenario(
                &config,
                &mut env,
                program,
                DecisionLog::from_trace(trace),
                None,
                &mut FirstTraceLint::default(),
            )
        }));
        let (outcome, decisions, _) = scenario.map_err(|payload| {
            *payload
                .downcast::<ForeignTrace>()
                .unwrap_or_else(|p| resume_unwind(p))
        })?;
        let made = decisions.consumed();
        if let Some(&chosen) = trace.get(made) {
            return Err(ForeignTrace {
                decision: made,
                chosen,
                alternatives: 0,
            });
        }
        let bugs: Vec<BugReport> = outcome
            .bug
            .into_iter()
            .map(|bug| BugReport {
                trace: trace.to_vec(),
                ..bug
            })
            .collect();
        Ok(CheckReport {
            bugs,
            races: outcome.races,
            diagnostics: outcome.diagnostics,
            stats: CheckStats {
                scenarios: 1,
                executions: outcome.executions_replayed as u64,
                executions_replayed: outcome.executions_replayed as u64,
                failure_points: outcome.failure_points,
                duration: start.elapsed(),
                ..Default::default()
            },
            truncated: false,
            parallel: None,
            snapshots: None,
            slice: None,
        })
    }
}

/// Bugs are deduplicated by symptom location (or message when no location
/// is known) — the paper likewise groups failure injections leading to the
/// same symptom as one bug.
pub(crate) fn bug_dedup_key(bug: &BugReport) -> String {
    bug.location.clone().unwrap_or_else(|| bug.message.clone())
}

/// Convenience: model check `program` with default configuration.
///
/// ```
/// use jaaru::{check, PmEnv};
///
/// let report = check(&|env: &dyn PmEnv| {
///     let root = env.root();
///     env.store_u64(root, 9);
///     env.persist(root, 8);
/// });
/// assert!(report.is_clean());
/// ```
pub fn check(program: &(dyn Program + Sync)) -> CheckReport {
    ModelChecker::with_defaults().check(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Config {
        let mut c = Config::new();
        c.pool_size(8192);
        c
    }

    #[test]
    fn straight_line_correct_program_is_clean() {
        let report = ModelChecker::new(small_config()).check(&|env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
        });
        assert!(report.is_clean(), "{report}");
        assert!(
            report.stats.scenarios >= 2,
            "clean run + at least one crash scenario"
        );
    }

    #[test]
    fn commit_store_pattern_counts_match_figure_4() {
        // addChild/readChild from Figure 4: two cache lines, data then
        // commit pointer, each flushed. Three injection points; the paper
        // predicts 1, 2 and 2 post-failure executions respectively, i.e.
        // 1 (clean) + 5 (post-failure) executions and 6 scenarios.
        let program = |env: &dyn PmEnv| {
            let root = env.root(); // holds the child "pointer" (commit)
            let data = root + 64; // the child node, separate line
            if env.is_recovery() {
                // readChild
                if env.load_u64(root) != 0 {
                    let v = env.load_u64(data);
                    env.pm_assert(v == 42, "child data must be persistent once committed");
                }
                return;
            }
            // addChild
            env.store_u64(data, 42);
            env.clflush(data, 8); // injection point 0
            env.store_u64(root, data.to_bits());
            env.clflush(root, 8); // injection point 1
            env.sfence();
            // end-of-execution: injection point 2
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.failure_points, 3);
        // Scenarios: the clean run, plus 1 post-failure execution for the
        // crash before clflush(data), 2 for the crash before clflush(root)
        // (commit pointer null / non-null), and 1 for the crash at the end
        // (both flushes landed, everything forced) — 5 total.
        assert_eq!(report.stats.scenarios, 5, "{report}");
    }

    #[test]
    fn missing_flush_before_commit_is_found() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42);
            // BUG: no clflush(data) here.
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert_eq!(report.bugs.len(), 1, "{report}");
        assert_eq!(report.bugs[0].kind, BugKind::AssertionFailure);
        assert!(report.bugs[0].message.contains("lost committed data"));
        assert!(!report.races.is_empty(), "the racy data load is flagged");
    }

    #[test]
    fn bug_trace_reproduces_the_failure() {
        // The bug report's decision trace, replayed, must hit the same bug.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        let bug = &report.bugs[0];
        assert!(!bug.trace.is_empty());
        assert_eq!(bug.crash_points.len(), 1, "single failure scenario");
    }

    #[test]
    fn guest_panics_are_reported_as_bugs() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                let v = env.load_u64(root);
                assert!(v == 0 || v == 7, "corrupt value {v}");
                return;
            }
            env.store_u64(root, 7);
            env.store_u64(root, 13); // unflushed torn state possible? No
            env.store_u64(root, 7);
            env.clflush(root, 8);
        };
        // v can be 0, 7 or 13 in recovery; 13 trips the guest assert.
        let report = ModelChecker::new(small_config()).check(&program);
        assert_eq!(report.bugs.len(), 1, "{report}");
        assert_eq!(report.bugs[0].kind, BugKind::GuestPanic);
        assert!(report.bugs[0].message.contains("corrupt value 13"));
    }

    #[test]
    fn skip_unchanged_reduces_failure_points() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8); // point: writes happened
            env.clflush(root, 8); // no writes since → skipped
            env.clflush(root, 8); // skipped
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert_eq!(
            report.stats.failure_points, 2,
            "first flush + end: {report}"
        );

        let mut config = small_config();
        config.skip_unchanged(false);
        let report = ModelChecker::new(config).check(&program);
        assert_eq!(report.stats.failure_points, 4, "3 flushes + end");
    }

    #[test]
    fn multi_failure_scenarios_explore_recovery_crashes() {
        // Recovery itself writes and flushes; with max_failures = 2 the
        // checker crashes inside recovery too.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let generation = env.load_u64(root);
            env.store_u64(root, generation + 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let mut one = small_config();
        one.max_failures(1);
        let single = ModelChecker::new(one).check(&program);

        let mut two = small_config();
        two.max_failures(2);
        let double = ModelChecker::new(two).check(&program);

        assert!(double.stats.scenarios > single.stats.scenarios);
        assert!(single.is_clean() && double.is_clean());
    }

    #[test]
    fn executions_leq_replayed_executions() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.load_u64(root) == 0 {
                env.store_u64(root, 1);
                env.clflush(root, 8);
                env.store_u64(root + 64, 2);
                env.clflush(root + 64, 8);
                env.sfence();
            } else {
                let _ = env.load_u64(root + 64);
            }
        };
        let report = ModelChecker::new(small_config()).check(&program);
        let logical = report.stats.executions_replayed + report.stats.executions_restored;
        assert!(report.stats.executions <= logical);
        assert!(report.stats.executions >= report.stats.scenarios);
    }

    #[test]
    fn snapshots_halve_guest_runs_on_deep_scenarios() {
        // The acceptance bar from the snapshot subsystem: with two
        // injected failures per scenario, restoring crash-point snapshots
        // must cut actual `Program::run` invocations by at least 2x while
        // leaving the digest byte-identical. (With a single failure each
        // post-failure scenario costs 2 runs replayed vs 1 restored, so
        // the ratio only approaches 2x; the second failure level is what
        // pushes it past.)
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs = AtomicUsize::new(0);
        let program = |env: &dyn PmEnv| {
            runs.fetch_add(1, Ordering::Relaxed);
            let root = env.root();
            let generation = env.load_u64(root);
            // Unflushed lines read back every execution: each read has
            // several candidate stores, so many scenarios share each
            // crash prefix and the restored snapshot is reused often.
            for i in 0..3u64 {
                let _ = env.load_u64(root + 8 + i * 64);
            }
            for i in 0..3u64 {
                env.store_u64(root + 8 + i * 64, generation + i);
            }
            env.store_u64(root, generation + 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let mut config = small_config();
        config.max_failures(2);

        let on = ModelChecker::new(config.clone()).check(&program);
        let on_runs = runs.swap(0, Ordering::Relaxed);

        config.snapshots(false);
        let off = ModelChecker::new(config).check(&program);
        let off_runs = runs.load(Ordering::Relaxed);

        assert_eq!(
            on.digest(),
            off.digest(),
            "snapshots must not change results"
        );
        assert_eq!(
            on_runs, on.stats.executions_replayed as usize,
            "every guest run is counted as replayed"
        );
        assert_eq!(
            on.stats.executions_replayed + on.stats.executions_restored,
            off.stats.executions_replayed,
            "restored executions account for exactly the skipped replays"
        );
        assert!(
            off_runs >= 2 * on_runs,
            "expected >= 2x fewer guest runs with snapshots: {on_runs} on vs {off_runs} off"
        );
        let stats = on.snapshots.expect("snapshot stats are reported");
        assert!(stats.hits > 0, "{stats}");
        assert!(off.snapshots.is_none(), "disabled runs report no cache");
    }

    #[test]
    fn every_guest_run_is_a_scenarios_last_execution() {
        // A checkpoint is taken at every fresh crash decision and handed
        // to the scenarios that take that crash, so every scenario
        // restores its last crash and runs only its final execution,
        // sequential or parallel. The program is the one of
        // `snapshots_halve_guest_runs_on_deep_scenarios`.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs = AtomicUsize::new(0);
        let program = |env: &dyn PmEnv| {
            runs.fetch_add(1, Ordering::Relaxed);
            let root = env.root();
            let generation = env.load_u64(root);
            for i in 0..3u64 {
                let _ = env.load_u64(root + 8 + i * 64);
            }
            for i in 0..3u64 {
                env.store_u64(root + 8 + i * 64, generation + i);
            }
            env.store_u64(root, generation + 1);
            env.clflush(root, 8);
            env.sfence();
        };
        for max_failures in 1..=3 {
            let mut config = small_config();
            config.max_failures(max_failures);
            let mut off = config.clone();
            off.snapshots(false);
            let replayed = ModelChecker::new(off).check(&program);
            for jobs in [1usize, 2, 4] {
                config.jobs(jobs);
                runs.store(0, Ordering::Relaxed);
                let report = ModelChecker::new(config.clone()).check(&program);
                let runs = runs.load(Ordering::Relaxed) as u64;
                let at = format!("max_failures={max_failures} jobs={jobs}");
                assert_eq!(report.digest(), replayed.digest(), "{at}");
                assert_eq!(runs, report.stats.scenarios, "{at}");
                assert_eq!(runs, report.stats.executions_replayed, "{at}");
            }
        }
    }

    #[test]
    fn bugs_found_via_restored_prefixes_match_replayed_ones() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(root + 64) == 42, "lost committed data");
                return;
            }
            env.store_u64(root + 64, 42);
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let on = ModelChecker::new(small_config()).check(&program);
        let mut config = small_config();
        config.snapshots(false);
        let off = ModelChecker::new(config).check(&program);
        assert_eq!(on.digest(), off.digest());
        assert_eq!(on.bugs.len(), 1);
        assert_eq!(on.bugs[0].trace, off.bugs[0].trace);
        assert_eq!(on.bugs[0].crash_points, off.bugs[0].crash_points);
    }

    #[test]
    fn max_scenarios_truncates() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            for i in 0..8 {
                env.store_u64(root + i * 8, i);
                env.clflush(root + i * 8, 8);
            }
            env.sfence();
        };
        let mut config = small_config();
        config.max_scenarios(3);
        let report = ModelChecker::new(config).check(&program);
        assert_eq!(report.stats.scenarios, 3);
        assert!(report.truncated);
    }

    #[test]
    fn torn_multibyte_write_is_observable_without_flush() {
        // A two-byte value written with two one-byte stores straddling a
        // flush boundary can tear; the checker must surface the torn state.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                let lo = env.load_u8(root);
                let hi = env.load_u8(root + 1);
                env.pm_assert(!(lo == 1 && hi == 0), "torn write observed");
                return;
            }
            env.store_u8(root, 1);
            env.store_u8(root + 1, 1);
            env.clflush(root, 2);
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(!report.is_clean(), "torn state must be explored");
    }

    #[test]
    fn atomic_multibyte_store_never_tears() {
        // The same value written with one 2-byte store cannot tear.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                let lo = env.load_u8(root);
                let hi = env.load_u8(root + 1);
                // Both bytes are 0 (initial) or 1 (stored); a mismatch is a tear.
                env.pm_assert(lo == hi, "torn");
                return;
            }
            env.store_u16(root, 0x0101);
            env.clflush(root, 2);
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn wide_recovery_loads_explore_like_byte_loads() {
        // Recovery reads a u64 at line offset 60, so its bytes 0-3 are in
        // one line and 4-7 in the next. Byte 0 is pinned by a flush; bytes
        // 1, 3 and 5 have several pre-failure candidates (choosing byte 1
        // can leave byte 3 just one); byte 2 was stored by the recovery
        // itself; bytes 6-7 are a u16 that OnFence eviction still holds in
        // the store buffer; byte 4 was never stored. One u64 load must
        // explore exactly as eight byte loads do.
        use jaaru_tso::EvictionPolicy;
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let explore = |policy, jobs, wide: bool| {
            let observed = Mutex::new(BTreeSet::new());
            let program = |env: &dyn PmEnv| {
                let w = env.root() + 124;
                if env.is_recovery() {
                    env.store_u8(w + 2, 0x44);
                    env.sfence();
                    env.store_u16(w + 6, 0x6655);
                    let v = if wide {
                        env.load_u64(w)
                    } else {
                        u64::from_le_bytes(std::array::from_fn(|i| env.load_u8(w + i as u64)))
                    };
                    observed.lock().unwrap().insert(v);
                    return;
                }
                env.store_u8(w, 9);
                env.store_u8(w + 5, 3);
                env.sfence();
                env.clflush(w, 1);
                env.store_u8(w + 1, 1);
                env.store_u8(w + 3, 7);
                env.store_u8(w + 1, 2);
                env.mfence();
            };
            let mut config = small_config();
            config.eviction(policy).jobs(jobs);
            let report = ModelChecker::new(config).check(&program);
            assert!(report.is_clean(), "{report}");
            let observed = observed.into_inner().unwrap();
            (observed, report.stats.scenarios, report.stats.executions)
        };
        for policy in [EvictionPolicy::Eager, EvictionPolicy::OnFence] {
            for jobs in [1, 2] {
                let wide = explore(policy, jobs, true);
                assert!(wide.0.len() >= 8, "{policy:?}: {:x?}", wide.0);
                assert!(
                    wide.0
                        .iter()
                        .all(|v| v >> 48 == 0x6655 && v >> 16 & 0xff == 0x44),
                    "{policy:?}: {:x?}",
                    wide.0
                );
                let bytes = explore(policy, jobs, false);
                assert_eq!(wide, bytes, "{policy:?} at jobs {jobs}");
            }
        }
    }

    #[test]
    fn same_symptom_from_multiple_scenarios_dedups() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                env.pm_assert(env.load_u8(root) == 0, "nonzero");
                return;
            }
            for i in 0..4 {
                env.store_u8(root, i + 1);
                env.clflush(root, 1);
            }
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert_eq!(report.bugs.len(), 1, "one distinct symptom: {report}");
        assert!(report.bugs[0].occurrences > 1);
    }

    #[test]
    fn bug_traces_replay_to_the_same_bug() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let checker = ModelChecker::new(small_config());
        let report = checker.check(&program);
        let bug = &report.bugs[0];
        let replayed = checker
            .replay(&program, &bug.trace)
            .expect("the bug's own trace");
        assert_eq!(replayed.bugs.len(), 1, "{replayed}");
        assert_eq!(replayed.bugs[0].kind, bug.kind);
        assert_eq!(replayed.bugs[0].message, bug.message);
        assert_eq!(replayed.bugs[0].crash_points, bug.crash_points);
        assert_eq!(replayed.stats.executions, 2, "pre-failure + recovery");
    }

    #[test]
    fn clean_traces_replay_cleanly() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
        };
        let checker = ModelChecker::new(small_config());
        // The empty trace is the all-defaults scenario: the clean run.
        let replayed = checker.replay(&program, &[]).expect("the empty trace");
        assert!(replayed.is_clean());
    }

    #[test]
    fn foreign_traces_are_rejected() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
        };
        let checker = ModelChecker::new(small_config());
        let err = checker.replay(&program, &[7]).unwrap_err();
        assert_eq!(
            err,
            ForeignTrace {
                decision: 0,
                chosen: 7,
                alternatives: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "trace does not match this program: decision 0 chose alternative 7 of 2"
        );
    }

    #[test]
    fn traces_with_decisions_the_program_never_makes_are_rejected() {
        // Two injection points: before the flush and at the end.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
        };
        let checker = ModelChecker::new(small_config());
        for trace in [&[0, 0][..], &[0, 1], &[1]] {
            let replayed = checker.replay(&program, trace);
            assert!(replayed.is_ok(), "{trace:?}: {replayed:?}");
        }
        let err = checker.replay(&program, &[0, 0, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(
            err,
            ForeignTrace {
                decision: 2,
                chosen: 0,
                alternatives: 0
            }
        );
        assert_eq!(
            err.to_string(),
            "trace does not match this program: the program makes no decision 2"
        );
        // A crash at the first point leaves a recovery that decides nothing.
        let err = checker.replay(&program, &[1, 1]).unwrap_err();
        assert_eq!((err.decision, err.chosen, err.alternatives), (1, 1, 0));
    }

    #[test]
    fn a_guest_panic_naming_a_foreign_trace_is_a_guest_bug() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
            if env.is_recovery() {
                panic!("trace does not match this program");
            }
        };
        let checker = ModelChecker::new(small_config());
        let replayed = checker
            .replay(&program, &[1])
            .expect("the program's own trace");
        assert_eq!(replayed.bugs.len(), 1, "{replayed}");
        assert_eq!(replayed.bugs[0].kind, BugKind::GuestPanic);
    }

    #[test]
    fn redundant_flushes_are_flagged_when_enabled() {
        use jaaru_analysis::DiagnosticKind;
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.clflush(root, 8); // nothing dirty: wasted clflush
            env.clflushopt(root, 8); // wasted clflushopt
            env.sfence(); // orders the clflushopt: not redundant
            env.sfence(); // nothing to order: wasted fence
        };
        let mut config = small_config();
        config.lints(Lints::All);
        let report = ModelChecker::new(config).check(&program);
        assert!(report.is_clean(), "perf issues are not bugs: {report}");
        assert!(!report.has_errors(), "perf warnings are not errors");
        let kinds: Vec<DiagnosticKind> = report.diagnostics.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DiagnosticKind::RedundantFlush), "{kinds:?}");
        assert!(
            kinds.contains(&DiagnosticKind::RedundantFlushOpt),
            "{kinds:?}"
        );
        assert!(kinds.contains(&DiagnosticKind::RedundantFence), "{kinds:?}");
        for d in &report.diagnostics {
            assert!(d.site.file().ends_with("explorer.rs"), "{d}");
        }
    }

    #[test]
    fn perf_flagging_is_off_by_default_and_changes_nothing() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.clflush(root, 8);
        };
        let off = ModelChecker::new(small_config()).check(&program);
        assert!(off.diagnostics.is_empty());
        let mut config = small_config();
        config.lints(Lints::All);
        let on = ModelChecker::new(config).check(&program);
        assert_eq!(off.exploration_digest(), on.exploration_digest());
        assert!(!on.diagnostics.is_empty());
    }

    #[test]
    fn necessary_flushes_are_not_flagged() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8); // dirty: necessary
            env.store_u64(root + 64, 2);
            env.clflushopt(root + 64, 8); // dirty: necessary
            env.sfence(); // orders the clflushopt: necessary
        };
        let mut config = small_config();
        config.lints(Lints::All);
        let report = ModelChecker::new(config).check(&program);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn lints_localize_a_missing_flush_to_the_store() {
        use jaaru_analysis::DiagnosticKind;
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42); // BUG: never flushed before the commit
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.sfence();
        };
        let mut config = small_config();
        config.lints(Lints::Errors);
        let report = ModelChecker::new(config).check(&program);
        assert!(!report.is_clean(), "the bug is still found: {report}");
        assert!(report.has_errors(), "{report}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagnosticKind::MissingFlush)
            .expect("missing-flush diagnostic");
        assert!(d.site.file().ends_with("explorer.rs"), "{d}");
        assert!(d.message.contains("commit store"), "{d}");
    }

    #[test]
    fn lints_are_quiet_on_the_fixed_program() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
                return;
            }
            env.store_u64(data, 42);
            env.persist(data, 8); // the fix
            env.store_u64(root, 1);
            env.persist(root, 8);
        };
        let mut config = small_config();
        config.lints(Lints::Errors);
        let report = ModelChecker::new(config).check(&program);
        assert!(report.is_clean(), "{report}");
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn lints_off_by_default_and_do_not_change_exploration() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 5);
            env.persist(root, 8);
        };
        let off = ModelChecker::new(small_config()).check(&program);
        assert!(off.diagnostics.is_empty());
        let mut config = small_config();
        config.lints(Lints::Errors);
        let on = ModelChecker::new(config).check(&program);
        assert_eq!(off.stats.scenarios, on.stats.scenarios, "analysis only");
        assert_eq!(off.digest(), on.digest(), "clean program: same digest");
    }

    #[test]
    fn buffered_stores_are_definitely_lost_under_on_fence_eviction() {
        // Under the OnFence policy a store still sitting in the store
        // buffer at the failure is *definitely* lost (unlike unflushed
        // cache content, which is maybe-persistent). Recovery must read
        // only the initial value.
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let observed = Mutex::new(BTreeSet::new());
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                observed.lock().unwrap().insert(env.load_u64(root));
                return;
            }
            env.store_u64(root, 7); // buffered, never fenced
            env.clflush(root + 64, 8); // unrelated flush = injection point
        };
        let mut config = small_config();
        config
            .eviction(jaaru_tso::EvictionPolicy::OnFence)
            .skip_unchanged(false);
        let report = ModelChecker::new(config).check(&program);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            *observed.lock().unwrap(),
            BTreeSet::from([0]),
            "buffered store must vanish"
        );

        // The same program under Eager eviction explores both outcomes.
        observed.lock().unwrap().clear();
        let mut config = small_config();
        config.skip_unchanged(false);
        let report = ModelChecker::new(config).check(&program);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            *observed.lock().unwrap(),
            BTreeSet::from([0, 7]),
            "cached store is maybe-persistent"
        );
    }

    #[test]
    fn guest_threads_have_independent_flush_buffers() {
        // A child thread's clflushopt is not ordered by the main thread's
        // sfence (per-thread flush buffers, Figure 8): the line may stay
        // unconstrained, so recovery can read 0 or 1.
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let observed = Mutex::new(BTreeSet::new());
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                observed.lock().unwrap().insert(env.load_u64(root));
                return;
            }
            env.store_u64(root, 1);
            env.spawn(&mut |t| t.clflushopt(root, 8));
            env.sfence(); // main thread: does NOT order the child's flush
            env.store_u64(root + 64, 2);
            env.persist(root + 64, 8);
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            *observed.lock().unwrap(),
            BTreeSet::from([0, 1]),
            "{report}"
        );

        // With the fence in the *child* thread the flush is ordered and
        // the value is pinned once the later commit is visible.
        let pinned = Mutex::new(BTreeSet::new());
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                if env.load_u64(root + 64) == 2 {
                    pinned.lock().unwrap().insert(env.load_u64(root));
                }
                return;
            }
            env.store_u64(root, 1);
            env.spawn(&mut |t| {
                t.clflushopt(root, 8);
                t.sfence();
            });
            env.store_u64(root + 64, 2);
            env.persist(root + 64, 8);
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            *pinned.lock().unwrap(),
            BTreeSet::from([1]),
            "fenced flush pins the store"
        );
    }

    /// Commit-store pattern plus a tail of scratch lines recovery never
    /// reads: every scratch flush is a dead flush.
    fn scratch_tail_program(env: &dyn PmEnv, bug: bool) {
        let root = env.root();
        let data = root + 64;
        if env.is_recovery() {
            if env.load_u64(root) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "lost committed data");
            }
            return;
        }
        env.store_u64(data, 42);
        if !bug {
            env.clflush(data, 8);
        }
        env.store_u64(root, 1);
        env.clflush(root, 8);
        env.sfence();
        for i in 2..10u64 {
            env.store_u64(root + i * 64, i);
            env.clflush(root + i * 64, 8);
        }
        env.sfence();
    }

    fn dead_flushes_of(report: &CheckReport) -> Vec<&Diagnostic> {
        use jaaru_analysis::DiagnosticKind;
        report
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DeadFlush)
            .collect()
    }

    #[test]
    fn lints_flag_dead_flushes_from_the_recovery_footprint() {
        use jaaru_analysis::{FixEdit, Severity};
        // Recovery reads lines 1 (root) and 2 (data), with or without
        // the missing data flush: the scratch-tail flush site (lines
        // 3..=10, eight times) is dead, nothing else.
        for bug in [true, false] {
            let program = move |env: &dyn PmEnv| scratch_tail_program(env, bug);
            let mut config = small_config();
            config.lints(Lints::All);
            let report = ModelChecker::new(config.clone()).check(&program);
            assert_eq!(report.is_clean(), !bug, "{report}");
            let dead = dead_flushes_of(&report);
            assert_eq!(dead.len(), 1, "bug={bug}: {dead:?}");
            assert_eq!(dead[0].occurrences, 8);
            assert_eq!(dead[0].severity(), Severity::Warning);
            assert!(
                matches!(
                    dead[0].suggestion,
                    Some(FixEdit::DeleteFlush { line: Some(3), .. })
                ),
                "bug={bug}: {}",
                dead[0]
            );

            for jobs in [2usize, 4] {
                let mut config = config.clone();
                config.jobs(jobs);
                let parallel = ModelChecker::new(config).check(&program);
                assert_eq!(report.digest(), parallel.digest(), "bug={bug} jobs={jobs}");
            }
        }
    }

    #[test]
    fn truncated_lint_runs_report_no_dead_flushes() {
        // Recovery reads B only when A did not persist, which only a
        // crash before clflush(B) shows. Depth-first order explores the
        // crash at the end first, so a run cut after two scenarios has
        // seen recovery read A alone.
        let program = |env: &dyn PmEnv| {
            let a = env.root();
            let b = a + 64;
            if env.is_recovery() {
                if env.load_u64(a) == 0 {
                    let _ = env.load_u64(b);
                }
                return;
            }
            env.store_u64(b, 1);
            env.clflush(b, 8);
            env.store_u64(a, 1);
            env.clflush(a, 8);
            env.sfence();
        };
        let mut config = small_config();
        config.lints(Lints::All);
        let full = ModelChecker::new(config.clone()).check(&program);
        assert!(!full.truncated && full.is_clean(), "{full}");
        assert!(dead_flushes_of(&full).is_empty(), "{:?}", full.diagnostics);

        config.max_scenarios(2);
        let cut = ModelChecker::new(config).check(&program);
        assert!(cut.truncated, "{cut}");
        assert!(dead_flushes_of(&cut).is_empty(), "{:?}", cut.diagnostics);
    }

    /// A line joins the recovery footprint when a recovery reads a byte of
    /// it that the recovery never wrote, so that the load consulted what
    /// the failure left. A recovery that writes line B and reads back only
    /// what it wrote leaves the flush of B dead; one more load, of a byte
    /// of B it never wrote, makes it live.
    #[test]
    fn the_footprint_holds_lines_recovery_read_beyond_its_own_writes() {
        for unwritten in [false, true] {
            let program = move |env: &dyn PmEnv| {
                let a = env.root();
                let b = a + 64;
                if env.is_recovery() {
                    let _ = env.load_u64(a);
                    env.store_u64(b, 9);
                    env.pm_assert(env.load_u64(b) == 9, "own store lost");
                    env.pm_assert(env.load_u8(b + 3) == 0, "own store torn");
                    if unwritten {
                        let _ = env.load_u8(b + 8);
                    }
                    return;
                }
                env.store_u64(b, 1);
                env.clflush(b, 8);
                env.store_u64(a, 1);
                env.clflush(a, 8);
                env.sfence();
            };
            let mut config = small_config();
            config.lints(Lints::All);
            let report = ModelChecker::new(config.clone()).check(&program);
            assert!(report.is_clean(), "{report}");
            let dead = dead_flushes_of(&report);
            if unwritten {
                assert!(dead.is_empty(), "{dead:?}");
            } else {
                assert_eq!(dead.len(), 1, "{dead:?}");
                assert!(dead[0].message.contains("lines 2..=2"), "{}", dead[0]);
            }
            for (snapshots, jobs) in [(true, 2), (false, 1), (false, 2)] {
                let mut config = config.clone();
                config.snapshots(snapshots).jobs(jobs);
                let other = ModelChecker::new(config).check(&program);
                assert_eq!(
                    report.digest(),
                    other.digest(),
                    "unwritten={unwritten} snapshots={snapshots} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn checksum_recovery_is_checked_without_flushes() {
        // Checksum-based recovery (paper §4): data + checksum written with
        // no flushes at all; recovery validates the checksum and only
        // trusts data when it matches. Correct code is clean even though
        // every load is maximally nondeterministic.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            if env.is_recovery() {
                let a = env.load_u64(root + 8);
                let b = env.load_u64(root + 16);
                let sum = env.load_u64(root + 24);
                if sum == a ^ b ^ 0xabcd && sum != 0 {
                    env.pm_assert(a == 11 && b == 22, "checksum matched but data stale");
                }
                return;
            }
            env.store_u64(root + 8, 11);
            env.store_u64(root + 16, 22);
            env.store_u64(root + 24, 11 ^ 22 ^ 0xabcd);
            env.clflush(root, 64);
            env.sfence();
        };
        let report = ModelChecker::new(small_config()).check(&program);
        assert!(report.is_clean(), "{report}");
    }
}
