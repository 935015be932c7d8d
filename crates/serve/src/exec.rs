//! Job execution: builds the one-shot configuration for a job, looks
//! its program up in the bench registry, and runs it with panic
//! isolation, one retry, cooperative cancellation, and a deadline
//! watchdog.
//!
//! A run yields a [`JobResult`], which holds no format. Every artifact
//! is rendered from it by [`JobResult::render`], which is also what
//! `jaaru_cli --format json-canonical` / `--format sarif` prints, so a
//! served reply is byte-identical to the one-shot output for the same
//! job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use jaaru::{
    to_sarif_with_verified, CheckReport, Config, FixEdit, Lints, ModelChecker, Program,
    RepairDriver, RepairOutcome,
};
use jaaru_bench::registry::{find_fixed, lockfree_bug_cases, pmdk_bug_cases, recipe_bug_cases};
use jaaru_fuzz::{run_campaign, Oracle};
use jaaru_litmus::corpus::run_corpus_report;
use jaaru_litmus::sweep::{run_sweep, SweepBound};
use jaaru_snapshot::SnapshotPayload;

use crate::job::{ArtifactFormat, JobKind, JobSpec, Suite, Workload};
use crate::metrics::JobStatus;

/// A hidden workload name that panics *outside* the checker's own
/// guest-panic guard, as if the checking infrastructure itself blew up.
/// The batch tests (and operators running failure drills) submit it to
/// prove such a panic turns into a `failed` reply instead of taking the
/// daemon down. (A panic *inside* a guest program is different: the
/// checker reports it as a `GuestPanic` bug, i.e. a `violation` reply
/// with a full artifact.)
pub const PANIC_WORKLOAD: &str = "__panic__";

fn is_panic_workload(workload: &Workload) -> bool {
    matches!(workload, Workload::Fixed { benchmark, .. } if benchmark == PANIC_WORKLOAD)
}

/// A completed job's result, before it is rendered in any format.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// The report of a `check`, `bug` or `lint` job.
    Check(Box<CheckReport>),
    /// The outcome of a `repair` job.
    Repair(Box<RepairOutcome>),
    /// The JSON report of a `fuzz` or `litmus` job. Neither has a SARIF
    /// view, so every format renders these bytes.
    Json(String),
}

impl JobResult {
    /// The artifact in `format`: the bytes `jaaru_cli` prints for the
    /// same job. A pure function of the result, so a cached result
    /// renders the bytes a fresh run of the job would.
    pub fn render(&self, format: ArtifactFormat) -> String {
        match (self, format) {
            (JobResult::Check(report), ArtifactFormat::JsonCanonical) => report.to_canonical_json(),
            (JobResult::Check(report), ArtifactFormat::Sarif) => {
                jaaru::to_sarif(&report.diagnostics, env!("CARGO_PKG_VERSION"))
            }
            (JobResult::Repair(outcome), ArtifactFormat::JsonCanonical) => outcome.to_json(),
            // The diagnosed findings, with proven fixes flagged
            // `verified`.
            (JobResult::Repair(outcome), ArtifactFormat::Sarif) => {
                let verified: &[FixEdit] = if outcome.verified {
                    &outcome.edits
                } else {
                    &[]
                };
                to_sarif_with_verified(&outcome.diagnosed, env!("CARGO_PKG_VERSION"), verified)
            }
            (JobResult::Json(json), _) => json.clone(),
        }
    }
}

/// One finished job, ready to be rendered into a reply envelope.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub status: JobStatus,
    /// The result; present only for `ok`/`violation`.
    pub result: Option<JobResult>,
    /// Human-readable failure reason for every other status.
    pub error: Option<String>,
    /// Whether the run was retried after a panic before succeeding.
    pub retried: bool,
}

impl JobOutcome {
    fn failed(error: String) -> JobOutcome {
        JobOutcome {
            status: JobStatus::Failed,
            result: None,
            error: Some(error),
            retried: false,
        }
    }
}

/// A result-cache payload: the terminal status and the shared result of
/// a completed job, which every reply renders in its own format. Only
/// `ok`/`violation` results are cached — failures, cancellations, and
/// deadline kills always re-run (fail closed, never fail cached).
#[derive(Clone, Debug)]
pub struct CachedReply {
    pub status: JobStatus,
    pub result: Arc<JobResult>,
    /// The byte charge against the cache budget, fixed at insert: the
    /// length of the inserting reply's artifact.
    pub bytes: usize,
}

impl SnapshotPayload for CachedReply {
    fn approx_bytes(&self) -> usize {
        self.bytes + std::mem::size_of::<CachedReply>()
    }
}

/// The checker configuration of a `kind` job on `jobs` workers. Both
/// front ends build their check, bug, lint, repair and perf runs with
/// it, so result groups and artifacts line up between `jaaru_cli` and
/// the daemon.
///
/// A lint runs every pass. A repair runs only the error-severity
/// passes: it must converge on the crash-consistency fix, not chase
/// advisory flush-hygiene warnings on flushes the bug rows plant on
/// purpose.
pub fn one_shot_config(kind: JobKind, jobs: usize) -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(40_000)
        .max_scenarios(20_000)
        .jobs(jobs)
        .lints(match kind {
            JobKind::Lint => Lints::All,
            JobKind::Repair => Lints::Errors,
            _ => Lints::Off,
        });
    c
}

/// The checker configuration for a job: [`one_shot_config`] for its
/// kind and worker count.
///
/// The second argument is retired and ignored: it was the snapshot
/// cache's byte budget, and checkpoints are no longer cached. It stays
/// only so existing callers keep compiling.
pub fn job_config(spec: &JobSpec, _retired: Option<usize>) -> Config {
    one_shot_config(spec.kind, spec.jobs)
}

/// Looks the job's program up in the bench registry.
fn find_program(workload: &Workload) -> Result<Box<dyn Program + Sync>, String> {
    match workload {
        // The drill workload never actually runs — `execute` panics
        // before reaching the checker — but admission still needs a
        // program value.
        Workload::Fixed { benchmark, .. } if benchmark == PANIC_WORKLOAD => {
            Ok(Box::new(|_: &dyn jaaru::PmEnv| {}))
        }
        Workload::Fixed { benchmark, keys } => find_fixed(benchmark, *keys)
            .map(|(_, p)| p)
            .ok_or_else(|| format!("unknown benchmark {benchmark:?}")),
        Workload::Row { suite, row, keys } => {
            let cases = match suite {
                Suite::Recipe => recipe_bug_cases(*keys),
                Suite::Pmdk => pmdk_bug_cases(*keys),
                Suite::Lockfree => lockfree_bug_cases(),
            };
            cases
                .into_iter()
                .find(|c| c.id == *row)
                .map(|c| c.program)
                .ok_or_else(|| format!("no row {row} in {} bug table", suite.as_str()))
        }
        Workload::Campaign { .. } => Err("fuzz campaigns have no registry program".into()),
        Workload::Litmus { .. } => Err("litmus runs have no registry program".into()),
    }
}

/// Runs one job to a terminal outcome.
///
/// `cancel` is the registry flag for this job's id: set before the run
/// starts → `cancelled` without executing; set mid-run → the checker (or
/// the fuzz campaign or litmus sweep) winds down at the next scenario,
/// seed or program and the reply fails closed (no artifact). A run that
/// returns at or after its deadline reports `deadline` the same way, and
/// a watchdog thread trips the cooperative stop once the deadline
/// passes. A panicking run is caught and retried once; a second panic is
/// a `failed` outcome.
pub fn execute(spec: &JobSpec, config: &Config, cancel: &Arc<AtomicBool>) -> JobOutcome {
    if cancel.load(Ordering::Relaxed) {
        return JobOutcome {
            status: JobStatus::Cancelled,
            result: None,
            error: Some("cancelled before execution".into()),
            retried: false,
        };
    }
    let program = match &spec.workload {
        Workload::Campaign { .. } | Workload::Litmus { .. } => None,
        workload => match find_program(workload) {
            Ok(program) => Some(program),
            Err(error) => return JobOutcome::failed(error),
        },
    };

    // The deadline: a run that returns at or after it fails closed, and
    // a watchdog trips the job's cooperative stop once it passes, so a
    // long run winds down. `done` disarms the watchdog when the run
    // finishes first.
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = deadline.map(|deadline| {
        let cancel = Arc::clone(cancel);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if Instant::now() >= deadline {
                    cancel.store(true, Ordering::Relaxed);
                    return;
                }
                thread::sleep(Duration::from_millis(1));
            }
        })
    });

    let mut retried = false;
    let outcome = loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            run(spec, config, cancel, program.as_deref())
        }));
        match attempt {
            Ok((status, result)) => {
                if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                    break JobOutcome {
                        status: JobStatus::Deadline,
                        result: None,
                        error: Some(format!(
                            "deadline of {} ms exceeded",
                            spec.deadline_ms.unwrap_or(0)
                        )),
                        retried,
                    };
                }
                if cancel.load(Ordering::Relaxed) {
                    break JobOutcome {
                        status: JobStatus::Cancelled,
                        result: None,
                        error: Some("cancelled during execution".into()),
                        retried,
                    };
                }
                break JobOutcome {
                    status,
                    result: Some(result),
                    error: None,
                    retried,
                };
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if retried || cancel.load(Ordering::Relaxed) {
                    break JobOutcome {
                        status: JobStatus::Failed,
                        result: None,
                        error: Some(format!("job panicked: {message}")),
                        retried,
                    };
                }
                retried = true;
            }
        }
    };
    done.store(true, Ordering::Relaxed);
    if let Some(handle) = watchdog {
        let _ = handle.join();
    }
    outcome
}

/// One attempt at a job: its verdict and result. `program` is the
/// registry program of a check, bug, lint or repair job. Every run
/// stops cooperatively once `cancel` is raised.
fn run(
    spec: &JobSpec,
    config: &Config,
    cancel: &Arc<AtomicBool>,
    program: Option<&(dyn Program + Sync)>,
) -> (JobStatus, JobResult) {
    if is_panic_workload(&spec.workload) {
        panic!("injected panic workload");
    }
    let (clean, result) = match spec.workload {
        Workload::Campaign {
            seeds,
            seed_start,
            ops_max,
            differential,
        } => {
            let oracle = Oracle {
                jobs: spec.jobs,
                differential,
                ..Oracle::default()
            };
            let report = run_campaign(&oracle, seed_start, seeds, ops_max, Some(cancel), |_, _| {});
            (report.is_clean(), JobResult::Json(report.to_json()))
        }
        // The named corpus or the exhaustive conformance sweep; a
        // divergence or corpus failure is a `violation` reply so batch
        // mode fails the pipeline.
        Workload::Litmus {
            sweep,
            max_threads,
            max_ops_per_thread,
            max_total_ops,
        } => {
            let bound = SweepBound {
                max_threads,
                max_ops_per_thread,
                max_total_ops,
            };
            let (clean, json) = if sweep {
                let report = run_sweep(&bound, spec.jobs.max(1), Some(cancel));
                (report.is_clean(), report.to_json())
            } else {
                let report = run_corpus_report();
                (report.is_clean(), report.to_json())
            };
            (clean, JobResult::Json(json))
        }
        _ => {
            let program = program.expect("registry workloads have a program");
            run_program(spec.kind, config, program, cancel)
        }
    };
    let status = if clean {
        JobStatus::Ok
    } else {
        JobStatus::Violation
    };
    (status, result)
}

/// Runs a check, bug or lint job (a model check) or a repair job (repair
/// synthesis) of `program` under `config`, stopping cooperatively once
/// `cancel` is raised. Returns whether the run is clean, and its result.
/// A check is clean with no bug and no error-severity diagnostic; a
/// repair, when it verified.
pub fn run_program(
    kind: JobKind,
    config: &Config,
    program: &(dyn Program + Sync),
    cancel: &Arc<AtomicBool>,
) -> (bool, JobResult) {
    if kind == JobKind::Repair {
        let mut driver = RepairDriver::new(config.clone());
        driver.abort_flag(Arc::clone(cancel));
        let outcome = driver.synthesize(program);
        (outcome.verified, JobResult::Repair(Box::new(outcome)))
    } else {
        let mut checker = ModelChecker::new(config.clone());
        checker.abort_flag(Arc::clone(cancel));
        let report = checker.check(program);
        let clean = report.is_clean() && !report.has_errors();
        (clean, JobResult::Check(Box::new(report)))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, Request};
    use crate::json::parse;

    fn spec(line: &str) -> JobSpec {
        match Request::from_value(&parse(line).unwrap(), 1).unwrap() {
            Request::Job(spec) => spec,
            other => panic!("expected job, got {other:?}"),
        }
    }

    fn run(spec: &JobSpec) -> JobOutcome {
        let config = job_config(spec, None);
        execute(spec, &config, &Arc::new(AtomicBool::new(false)))
    }

    /// The outcome's canonical JSON artifact, if it has a result.
    fn artifact(out: &JobOutcome) -> Option<String> {
        out.result
            .as_ref()
            .map(|result| result.render(ArtifactFormat::JsonCanonical))
    }

    #[test]
    fn unknown_benchmark_fails_closed() {
        let out = run(&spec(r#"{"kind":"check","benchmark":"no-such-bench"}"#));
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out.result.is_none());
        assert!(out.error.unwrap().contains("no-such-bench"));
    }

    #[test]
    fn bad_row_fails_closed() {
        let out = run(&spec(r#"{"kind":"bug","suite":"recipe","row":9999}"#));
        assert_eq!(out.status, JobStatus::Failed);
    }

    #[test]
    fn panic_workload_is_isolated_and_retried_once() {
        let out = run(&spec(&format!(
            r#"{{"kind":"check","benchmark":"{PANIC_WORKLOAD}"}}"#
        )));
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out.retried, "one retry before giving up");
        assert!(out.error.unwrap().contains("injected panic"));
    }

    #[test]
    fn precancelled_job_never_runs() {
        let spec = spec(r#"{"kind":"check","benchmark":"p-clht"}"#);
        let config = job_config(&spec, None);
        let cancel = Arc::new(AtomicBool::new(true));
        let out = execute(&spec, &config, &cancel);
        assert_eq!(out.status, JobStatus::Cancelled);
        assert!(out.result.is_none(), "fails closed");
    }

    #[test]
    fn litmus_jobs_reply_ok_with_deterministic_artifacts() {
        let corpus = run(&spec(r#"{"kind":"litmus"}"#));
        assert_eq!(corpus.status, JobStatus::Ok, "{:?}", corpus.error);
        let report = artifact(&corpus).expect("corpus report");
        assert!(report.contains("\"clean\": true"), "{report}");
        let again = run(&spec(r#"{"kind":"litmus"}"#));
        assert_eq!(Some(report), artifact(&again), "byte-identical replies");

        let sweep = run(&spec(
            r#"{"kind":"litmus","mode":"sweep","max_ops_per_thread":2,"max_total_ops":2,"jobs":2}"#,
        ));
        assert_eq!(sweep.status, JobStatus::Ok, "{:?}", sweep.error);
        let report = artifact(&sweep).expect("sweep report");
        assert!(report.contains("\"clean\": true"), "{report}");
        assert!(report.contains("\"fingerprint\""), "{report}");
    }

    #[test]
    fn fuzz_and_litmus_jobs_obey_their_deadline() {
        for line in [
            r#"{"kind":"fuzz","seeds":2000,"deadline_ms":1}"#,
            r#"{"kind":"litmus","mode":"sweep","max_total_ops":3,"deadline_ms":1}"#,
        ] {
            let out = run(&spec(line));
            assert_eq!(out.status, JobStatus::Deadline, "{line}: {:?}", out.error);
            assert!(out.result.is_none(), "{line}: fails closed");
        }
    }

    #[test]
    fn seeded_bug_reports_violation_with_canonical_artifact() {
        let spec = spec(r#"{"kind":"bug","suite":"recipe","row":10}"#);
        let out = run(&spec);
        assert_eq!(out.status, JobStatus::Violation);
        let artifact = artifact(&out).expect("violation still carries the report");
        assert!(artifact.contains("\"executions_logical\""));
        assert!(!artifact.contains("duration_secs"), "canonical view");
        assert_eq!(spec.kind, JobKind::Bug);
    }

    #[test]
    fn prune_off_job_reaches_the_same_verdict_and_bug() {
        // `prune` is a retired job key. Specs that still send it (the
        // benchmark harness does) are accepted and run the same job.
        let plain = spec(r#"{"kind":"bug","suite":"recipe","row":10}"#);
        let legacy = spec(r#"{"kind":"bug","suite":"recipe","row":10,"prune":false}"#);
        assert_eq!(plain, legacy);
        let (plain, legacy) = (run(&plain), run(&legacy));
        assert_eq!(plain.status, JobStatus::Violation);
        assert_eq!(artifact(&plain), artifact(&legacy));
        let artifact = artifact(&plain).expect("violation carries the report");
        assert!(
            artifact.contains("durably committed key lost"),
            "{artifact}"
        );
    }

    #[test]
    fn repair_job_verifies_a_bug_row_and_reports_ok() {
        let spec = spec(r#"{"kind":"repair","suite":"recipe","row":3,"keys":3}"#);
        let out = run(&spec);
        assert_eq!(out.status, JobStatus::Ok, "{:?}", out.error);
        let artifact = artifact(&out).expect("verified repair carries the outcome");
        assert!(artifact.contains("\"verified\": true"), "{artifact}");
        assert!(artifact.contains("\"edit\": \"insert-"), "{artifact}");
    }

    #[test]
    fn repair_config_drops_flush_redundancy_but_keeps_lints() {
        let repair = spec(r#"{"kind":"repair","benchmark":"p-clht"}"#);
        let lint = spec(r#"{"kind":"lint","benchmark":"p-clht"}"#);
        let config = job_config(&repair, None);
        assert_eq!(config.lints_value(), Lints::Errors);
        assert_eq!(job_config(&lint, None).lints_value(), Lints::All);
        assert_ne!(
            config.fingerprint(),
            job_config(&lint, None).fingerprint(),
            "repair verifies under its own semantic config"
        );
    }

    #[test]
    fn lint_config_matches_cli_lint_knobs() {
        let lint = spec(r#"{"kind":"lint","benchmark":"p-clht"}"#);
        let check = spec(r#"{"kind":"check","benchmark":"p-clht"}"#);
        assert_ne!(
            job_config(&lint, None).fingerprint(),
            job_config(&check, None).fingerprint(),
            "lint passes are semantic"
        );
    }
}
