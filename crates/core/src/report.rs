//! Bug reports, persistency-race reports, and check statistics.

use std::fmt;
use std::panic::Location;
use std::sync::Arc;
use std::time::Duration;

use jaaru_analysis::{json_string, Diagnostic};
use jaaru_pmem::PmAddr;
use jaaru_snapshot::SnapshotStats;
use jaaru_tso::SourceLoc;

/// The symptom class of a detected bug, mirroring the paper's bug tables
/// (Figures 12/13/15/16).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BugKind {
    /// Out-of-bounds or null-page access ("segmentation fault" /
    /// "illegal memory access" in the paper's tables).
    IllegalAccess,
    /// A failed program sanity check (`pm_assert` / `bug()` — the paper's
    /// "assertion failure" symptom).
    AssertionFailure,
    /// A Rust panic inside guest code (e.g. a failed `assert!` or an
    /// `unwrap` on corrupted data).
    GuestPanic,
    /// The per-execution operation budget was exhausted (the paper's
    /// "getting stuck in an infinite loop" symptom).
    InfiniteLoop,
    /// The persistent pool was exhausted.
    OutOfMemory,
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugKind::IllegalAccess => "illegal memory access",
            BugKind::AssertionFailure => "assertion failure",
            BugKind::GuestPanic => "guest panic",
            BugKind::InfiniteLoop => "infinite loop",
            BugKind::OutOfMemory => "out of persistent memory",
        };
        f.write_str(s)
    }
}

/// A bug found by the model checker, with everything needed to reproduce
/// it: the decision trace identifies the exact failure scenario.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// Symptom class.
    pub kind: BugKind,
    /// Human-readable description.
    pub message: String,
    /// Guest source location (`file:line:column`) where the symptom
    /// manifested, when known.
    pub location: Option<String>,
    /// Execution within the scenario that hit the bug (0 = pre-failure).
    pub execution_index: usize,
    /// Ordinals (within their executions) of the failure injection points
    /// where power was lost in this scenario.
    pub crash_points: Vec<usize>,
    /// The decision trace reproducing the scenario.
    pub trace: Vec<usize>,
    /// How many explored scenarios manifested this same bug.
    pub occurrences: u64,
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if let Some(loc) = &self.location {
            write!(f, " at {loc}")?;
        }
        write!(
            f,
            " (execution {}, crash points {:?}, seen in {} scenario(s))",
            self.execution_index, self.crash_points, self.occurrences
        )
    }
}

/// One candidate store a racy load could have read (the paper's §4
/// debugging output lists each store, its trace position, and its source
/// location).
#[derive(Clone, Debug)]
pub struct RaceCandidate {
    /// Execution that performed the store (`None` = the initial zeroed
    /// pool contents).
    pub exec_index: Option<usize>,
    /// Byte value observed.
    pub value: u8,
    /// Source location of the store (`file:line:column`).
    pub location: Option<String>,
}

/// A load that could read from more than one pre-failure store — the
/// typical signature of a missing cache-line flush.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// First byte of the racy load.
    pub addr: PmAddr,
    /// Source location of the load.
    pub load_location: String,
    /// Execution performing the load.
    pub execution_index: usize,
    /// The stores it may read from, newest first.
    pub candidates: Vec<RaceCandidate>,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "load at {} (addr {}, execution {}) may read from {} stores:",
            self.load_location,
            self.addr,
            self.execution_index,
            self.candidates.len()
        )?;
        for c in &self.candidates {
            match (&c.exec_index, &c.location) {
                (Some(e), Some(loc)) => {
                    writeln!(f, "  - {:#04x} stored by execution {e} at {loc}", c.value)?
                }
                _ => writeln!(f, "  - {:#04x} from initial pool contents", c.value)?,
            }
        }
        Ok(())
    }
}

/// A source site as reports name it: file, line and column.
pub(crate) type Site = (&'static str, u32, u32);

/// The site `loc` names.
pub(crate) fn site(loc: &Location<'static>) -> Site {
    (loc.file(), loc.line(), loc.column())
}

/// The execution that made a store, and the store's site.
pub(crate) type StoreSite = (usize, SourceLoc);

/// A racy load as exploration records it: source sites, not text, so
/// checkpoints copy it cheaply. [`RaceRecord::render`] gives the public
/// [`RaceReport`] once the race leaves the walk.
#[derive(Clone, Debug)]
pub(crate) struct RaceRecord {
    pub addr: PmAddr,
    pub load: SourceLoc,
    pub execution_index: usize,
    /// The values the load may read, newest first, each with its store
    /// (`None` for the initial pool contents).
    pub candidates: Arc<[(u8, Option<StoreSite>)]>,
}

impl RaceRecord {
    /// The report of this race, its sites written `file:line:column`.
    pub(crate) fn render(&self) -> RaceReport {
        RaceReport {
            addr: self.addr,
            load_location: self.load.to_string(),
            execution_index: self.execution_index,
            candidates: self
                .candidates
                .iter()
                .map(|&(value, store)| RaceCandidate {
                    exec_index: store.map(|(exec, _)| exec),
                    value,
                    location: store.map(|(_, loc)| loc.to_string()),
                })
                .collect(),
        }
    }
}

/// Exploration statistics (the quantities reported in Figure 14).
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// Distinct failure scenarios explored (leaves of the decision tree).
    pub scenarios: u64,
    /// Program executions a fork-based implementation would perform (the
    /// paper's `#JExec.`): executions from each scenario's divergence
    /// point onward. Fork-equivalent accounting: per scenario this counts
    /// `total - divergence` executions, where `total` is the scenario's
    /// logical execution count (`executions_replayed +
    /// executions_restored` for that scenario) and `divergence` is the
    /// execution index it shares with its predecessor — so the figure is
    /// invariant across snapshot settings and worker counts.
    pub executions: u64,
    /// `Program::run` invocations actually performed, replayed prefixes
    /// included (the residual cost of re-execution over fork-based
    /// rollback).
    pub executions_replayed: u64,
    /// Prefix executions skipped by restoring crash-point snapshots
    /// instead of replaying. `executions_replayed + executions_restored`
    /// is the logical execution count — what a pure re-execution run
    /// reports as `executions_replayed` — and is what the digest pins.
    pub executions_restored: u64,
    /// Failure injection points in the initial pre-failure execution (the
    /// paper's `#FPoints`).
    pub failure_points: u64,
    /// Loads that faced a choice of more than one store.
    pub load_choice_points: u64,
    /// Largest may-read-from set encountered.
    pub max_rf_set: usize,
    /// Wall-clock exploration time (the paper's `JTime`).
    pub duration: Duration,
}

/// Per-worker exploration statistics from a parallel run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Failure scenarios this worker ran.
    pub scenarios: u64,
    /// Fork-equivalent executions this worker performed.
    pub executions: u64,
    /// `Program::run` invocations this worker actually performed.
    pub executions_replayed: u64,
    /// Prefix executions this worker skipped by restoring checkpoints.
    pub executions_restored: u64,
    /// Subtrees this worker took that another worker donated.
    pub steals: u64,
    /// Wall-clock time the worker spent between start and exit.
    pub busy: Duration,
}

/// Aggregate statistics of a parallel exploration (absent from
/// one-worker runs).
#[derive(Clone, Debug, Default)]
pub struct ParallelStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Total subtrees taken from another worker (see
    /// [`WorkerStats::steals`]).
    pub steals: u64,
    /// Per-worker breakdown, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} worker(s), {} steal(s)", self.jobs, self.steals)?;
        for w in &self.workers {
            write!(
                f,
                "; w{}: {} scenario(s), {} execution(s), {} steal(s), {:.3}s",
                w.worker,
                w.scenarios,
                w.executions,
                w.steals,
                w.busy.as_secs_f64()
            )?;
        }
        Ok(())
    }
}

/// Crash-point pruning counters. The checker no longer prunes and never
/// sets [`CheckReport::slice`], so these read 0. The type stays only
/// because the benchmark harness (`perfbench`) reads them into its
/// `prune.*` per-layer metrics, until the next benchmark change drops
/// that reader.
#[derive(Clone, Debug, Default)]
pub struct SliceSummary {
    /// Injection points skipped (always 0).
    pub points_skipped: u64,
    /// Pruning rounds run (always 0).
    pub rounds: u64,
    /// Executions of the final pruning round (always 0).
    pub final_round_executions: u64,
}

/// The result of a model-checking run.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Distinct bugs found, in discovery order.
    pub bugs: Vec<BugReport>,
    /// Loads flagged as able to read multiple stores (missing-flush
    /// debugging aid), deduplicated by load location.
    pub races: Vec<RaceReport>,
    /// Findings of the analysis passes, deduplicated by `(kind, site)`:
    /// error-severity persistency violations (from
    /// [`Lints::Errors`](crate::Lints::Errors)) and warning-severity
    /// wasted persistency operations (from
    /// [`Lints::All`](crate::Lints::All)).
    pub diagnostics: Vec<Diagnostic>,
    /// Exploration statistics.
    pub stats: CheckStats,
    /// Whether exploration stopped early (scenario/bug caps).
    pub truncated: bool,
    /// Worker-level statistics when the check ran with
    /// [`Config::jobs`](crate::Config::jobs) > 1; `None` for sequential
    /// runs.
    pub parallel: Option<ParallelStats>,
    /// Crash-point checkpoint counters of this run: `hits` counts
    /// scenarios restored from a checkpoint, `misses` scenarios run from
    /// the start, `inserts` checkpoints captured, and the other axes read
    /// 0; `None` when snapshots were disabled. Excluded from
    /// [`digest`](Self::digest): they describe how the run was executed,
    /// not what it explored.
    pub snapshots: Option<SnapshotStats>,
    /// Always `None`: kept only for the benchmark harness's reader (see
    /// [`SliceSummary`]).
    pub slice: Option<SliceSummary>,
}

impl CheckReport {
    /// `true` when no bug was found.
    pub fn is_clean(&self) -> bool {
        self.bugs.is_empty()
    }

    /// `true` when any diagnostic is error-severity (a robustness
    /// violation from the lint engine); `jaaru_cli lint` exits nonzero
    /// on these.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_error())
    }

    /// A one-paragraph summary suitable for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} bug(s), {} race-flagged load(s), {} diagnostic(s); \
             {} scenarios, {} executions \
             ({} replayed + {} restored), {} failure points, {:.3}s{}",
            self.bugs.len(),
            self.races.len(),
            self.diagnostics.len(),
            self.stats.scenarios,
            self.stats.executions,
            self.stats.executions_replayed,
            self.stats.executions_restored,
            self.stats.failure_points,
            self.stats.duration.as_secs_f64(),
            if self.truncated { " [truncated]" } else { "" },
        )
    }

    /// A deterministic fingerprint of the check's *outcome*: every bug,
    /// race, diagnostic, and exploration statistic — excluding
    /// wall-clock time and worker-level scheduling stats, which
    /// legitimately vary between runs. Two runs of the same program and
    /// configuration (at any worker count, absent truncation) must
    /// produce byte-identical digests; the determinism regression tests
    /// compare exactly this string.
    pub fn digest(&self) -> String {
        self.digest_impl(true)
    }

    /// [`digest`](Self::digest) minus the analysis-pass diagnostics: the
    /// fingerprint of the *exploration* outcome only (stats, bugs,
    /// races). The fuzzing oracle compares configurations that disagree
    /// on which analyses run — lints on vs off — on exactly this view:
    /// turning an analysis on may add diagnostics, but must never change
    /// what exploration finds.
    pub fn exploration_digest(&self) -> String {
        self.digest_impl(false)
    }

    fn digest_impl(&self, include_diagnostics: bool) -> String {
        use fmt::Write;
        let mut out = String::new();
        // `executions_replayed + executions_restored` is printed in the
        // historical "with replay" slot: it is the snapshot-invariant
        // logical execution count, so digests stay byte-identical whether
        // prefixes were replayed or restored.
        let _ = writeln!(
            out,
            "stats: {} scenarios, {} executions, {} with replay, {} failure points, \
             {} load choice points, max rf set {}, truncated {}",
            self.stats.scenarios,
            self.stats.executions,
            self.stats.executions_replayed + self.stats.executions_restored,
            self.stats.failure_points,
            self.stats.load_choice_points,
            self.stats.max_rf_set,
            self.truncated,
        );
        for b in &self.bugs {
            let _ = writeln!(out, "bug: {b} trace {:?}", b.trace);
        }
        for r in &self.races {
            let _ = write!(out, "race: {r}");
        }
        if include_diagnostics {
            for d in &self.diagnostics {
                let _ = writeln!(out, "lint: {d}");
            }
        }
        out
    }

    /// The report as a JSON object (machine-readable `--format json`
    /// output of `jaaru_cli`). Hand-rolled — the checker has no
    /// serialization dependency — but proper JSON: strings are escaped,
    /// optional fields are `null`.
    pub fn to_json(&self) -> String {
        self.json_impl(true)
    }

    /// [`to_json`](Self::to_json) restricted to the run-invariant view:
    /// wall-clock time and snapshot counters are omitted, so two runs
    /// of the same program and configuration — at any worker count, with
    /// snapshots on or off, absent truncation — produce byte-identical
    /// output. This is the artifact contract of the serving daemon
    /// (`--format json-canonical`): a cached reply must match a freshly
    /// computed one to the byte.
    pub fn to_canonical_json(&self) -> String {
        self.json_impl(false)
    }

    fn json_impl(&self, timings: bool) -> String {
        use fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"has_errors\": {},", self.has_errors());
        let _ = writeln!(out, "  \"truncated\": {},", self.truncated);
        if timings {
            let _ = write!(
                out,
                "  \"stats\": {{\"scenarios\": {}, \"executions\": {}, \
                 \"executions_replayed\": {}, \"executions_restored\": {}, \
                 \"failure_points\": {}, \
                 \"load_choice_points\": {}, \"max_rf_set\": {}, \
                 \"duration_secs\": {:.6}",
                self.stats.scenarios,
                self.stats.executions,
                self.stats.executions_replayed,
                self.stats.executions_restored,
                self.stats.failure_points,
                self.stats.load_choice_points,
                self.stats.max_rf_set,
                self.stats.duration.as_secs_f64(),
            );
        } else {
            // The replayed/restored split depends on cache state and
            // worker scheduling; only their sum (the logical execution
            // count the digest pins) is run-invariant.
            let _ = write!(
                out,
                "  \"stats\": {{\"scenarios\": {}, \"executions\": {}, \
                 \"executions_logical\": {}, \"failure_points\": {}, \
                 \"load_choice_points\": {}, \"max_rf_set\": {}",
                self.stats.scenarios,
                self.stats.executions,
                self.stats.executions_replayed + self.stats.executions_restored,
                self.stats.failure_points,
                self.stats.load_choice_points,
                self.stats.max_rf_set,
            );
        }
        out.push_str("},\n");
        if timings {
            match &self.snapshots {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  \"snapshots\": {{\"hits\": {}, \"misses\": {}, \
                         \"inserts\": {}, \"evictions\": {}, \"bytes\": {}, \
                         \"peak_bytes\": {}, \"shared_hits\": {}, \
                         \"shared_misses\": {}, \"shared_evictions\": {}}},",
                        s.hits,
                        s.misses,
                        s.inserts,
                        s.evictions,
                        s.bytes,
                        s.peak_bytes,
                        s.shared_hits,
                        s.shared_misses,
                        s.shared_evictions,
                    );
                }
                None => {
                    let _ = writeln!(out, "  \"snapshots\": null,");
                }
            }
        }
        out.push_str("  \"bugs\": [");
        for (i, b) in self.bugs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kind\": {}, \"message\": {}, \"location\": {}, \
                 \"execution_index\": {}, \"crash_points\": {:?}, \
                 \"trace\": {:?}, \"occurrences\": {}}}",
                json_string(&b.kind.to_string()),
                json_string(&b.message),
                json_opt_string(b.location.as_deref()),
                b.execution_index,
                b.crash_points,
                b.trace,
                b.occurrences,
            );
        }
        out.push_str("],\n");
        out.push_str("  \"races\": [");
        for (i, r) in self.races.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"addr\": {}, \"load_location\": {}, \"execution_index\": {}, \
                 \"candidates\": [",
                r.addr.offset(),
                json_string(&r.load_location),
                r.execution_index,
            );
            for (j, c) in r.candidates.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let exec = match c.exec_index {
                    Some(e) => e.to_string(),
                    None => "null".into(),
                };
                let _ = write!(
                    out,
                    "{{\"exec_index\": {}, \"value\": {}, \"location\": {}}}",
                    exec,
                    c.value,
                    json_opt_string(c.location.as_deref()),
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let addr = match d.addr {
                Some(a) => a.offset().to_string(),
                None => "null".into(),
            };
            let fix = match &d.suggestion {
                Some(edit) => format!(
                    "{{\"edit\": {}, \"site\": {}, \"cache_line\": {}}}",
                    json_string(edit.kind_str()),
                    json_string(edit.site()),
                    match edit.cache_line() {
                        Some(line) => line.to_string(),
                        None => "null".into(),
                    }
                ),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "{{\"kind\": {}, \"severity\": {}, \"site\": {}, \
                 \"message\": {}, \"fix\": {fix}, \"addr\": {}, \"occurrences\": {}}}",
                json_string(d.kind.as_str()),
                json_string(d.severity().as_str()),
                json_string(&d.site),
                json_string(&d.message),
                addr,
                d.occurrences,
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_opt_string(s: Option<&str>) -> String {
    match s {
        Some(s) => json_string(s),
        None => "null".into(),
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        if let Some(p) = &self.parallel {
            writeln!(f, "  parallel: {p}")?;
        }
        if let Some(s) = &self.snapshots {
            writeln!(f, "  snapshots: {s}")?;
        }
        for b in &self.bugs {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_kinds_display() {
        assert_eq!(BugKind::IllegalAccess.to_string(), "illegal memory access");
        assert_eq!(BugKind::InfiniteLoop.to_string(), "infinite loop");
    }

    #[test]
    fn bug_report_display_mentions_scenario() {
        let b = BugReport {
            kind: BugKind::AssertionFailure,
            message: "lost committed key".into(),
            location: Some("tree.rs:10:5".into()),
            execution_index: 1,
            crash_points: vec![3],
            trace: vec![0, 1, 0],
            occurrences: 2,
        };
        let s = b.to_string();
        assert!(s.contains("assertion failure"));
        assert!(s.contains("tree.rs:10:5"));
        assert!(s.contains("execution 1"));
        assert!(s.contains("2 scenario(s)"));
    }

    #[test]
    fn race_report_lists_candidates() {
        let r = RaceReport {
            addr: PmAddr::new(64),
            load_location: "recovery.rs:5:9".into(),
            execution_index: 1,
            candidates: vec![
                RaceCandidate {
                    exec_index: Some(0),
                    value: 7,
                    location: Some("init.rs:3:5".into()),
                },
                RaceCandidate {
                    exec_index: None,
                    value: 0,
                    location: None,
                },
            ],
        };
        let s = r.to_string();
        assert!(s.contains("may read from 2 stores"));
        assert!(s.contains("initial pool contents"));
        assert!(s.contains("init.rs:3:5"));
    }

    #[test]
    fn clean_report() {
        let r = CheckReport::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert!(r.summary().contains("0 bug(s)"));
    }

    #[test]
    fn error_diagnostics_flip_has_errors() {
        use jaaru_analysis::DiagnosticKind;
        let mut r = CheckReport::default();
        r.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::RedundantFlush,
            site: "a.rs:1:1".into(),
            message: "remove it".into(),
            suggestion: None,
            addr: None,
            occurrences: 1,
        });
        assert!(!r.has_errors(), "warnings are not errors");
        r.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::MissingFlush,
            site: "b.rs:2:2".into(),
            message: "insert a flush".into(),
            suggestion: None,
            addr: Some(PmAddr::new(64)),
            occurrences: 1,
        });
        assert!(r.has_errors());
        assert!(r.digest().contains("lint: error[missing-flush]"));
        assert!(
            !r.exploration_digest().contains("lint:"),
            "exploration digest excludes diagnostics"
        );
        assert!(r.digest().starts_with(&r.exploration_digest()));
    }

    #[test]
    fn json_output_is_well_formed() {
        use jaaru_analysis::DiagnosticKind;
        let mut r = CheckReport::default();
        r.bugs.push(BugReport {
            kind: BugKind::GuestPanic,
            message: "saw \"quoted\" value".into(),
            location: None,
            execution_index: 1,
            crash_points: vec![0],
            trace: vec![1, 0],
            occurrences: 3,
        });
        r.diagnostics.push(Diagnostic {
            kind: DiagnosticKind::MissingFence,
            site: "lib.rs:10:5".into(),
            message: "insert an sfence".into(),
            suggestion: Some(jaaru_analysis::FixEdit::InsertFence {
                site: "lib.rs:10:5".into(),
                line: Some(2),
            }),
            addr: Some(PmAddr::new(128)),
            occurrences: 2,
        });
        let json = r.to_json();
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(json.contains("\"snapshots\": null"), "{json}");
        r.snapshots = Some(SnapshotStats {
            hits: 4,
            misses: 2,
            inserts: 6,
            evictions: 1,
            bytes: 512,
            peak_bytes: 1024,
            shared_hits: 3,
            shared_misses: 1,
            shared_evictions: 0,
        });
        let json = r.to_json();
        assert!(json.contains("\"hits\": 4"), "{json}");
        assert!(json.contains("\"peak_bytes\": 1024"), "{json}");
        assert!(json.contains("\"shared_hits\": 3"), "{json}");
        assert!(json.contains("\"has_errors\": true"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "escaped quotes: {json}");
        assert!(json.contains("\"location\": null"), "{json}");
        assert!(json.contains("\"kind\": \"missing-fence\""), "{json}");
        assert!(json.contains("\"severity\": \"error\""), "{json}");
        assert!(json.contains("\"addr\": 128"), "{json}");
        assert!(json.contains("\"message\": \"insert an sfence\""), "{json}");
        assert!(
            json.contains(
                "\"fix\": {\"edit\": \"insert-fence\", \"site\": \"lib.rs:10:5\", \
                 \"cache_line\": 2}"
            ),
            "{json}"
        );
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn canonical_json_omits_run_varying_fields() {
        let mut r = CheckReport::default();
        r.stats.executions_replayed = 3;
        r.stats.executions_restored = 2;
        r.stats.duration = Duration::from_millis(125);
        r.snapshots = Some(SnapshotStats {
            hits: 4,
            ..Default::default()
        });
        let canonical = r.to_canonical_json();
        assert!(!canonical.contains("duration_secs"), "{canonical}");
        assert!(!canonical.contains("snapshots"), "{canonical}");
        assert!(!canonical.contains("executions_replayed"), "{canonical}");
        assert!(
            canonical.contains("\"executions_logical\": 5"),
            "{canonical}"
        );

        // Two runs differing only in timing/cache state agree.
        let mut other = r.clone();
        other.stats.duration = Duration::from_secs(9);
        other.stats.executions_replayed = 1;
        other.stats.executions_restored = 4;
        other.snapshots = None;
        assert_eq!(canonical, other.to_canonical_json());

        let opens = canonical.matches('{').count() + canonical.matches('[').count();
        let closes = canonical.matches('}').count() + canonical.matches(']').count();
        assert_eq!(opens, closes, "{canonical}");
    }
}
