//! The wire protocol's request side: job specifications and control
//! requests, parsed from newline-delimited JSON.
//!
//! One line, one request. Job requests name a program out of the bench
//! registry (the same identities `jaaru_cli check`/`bug`/`lint` accept)
//! plus per-job knobs; control requests (`stats`, `cancel`, `shutdown`)
//! steer the daemon itself.
//!
//! ```text
//! {"kind": "check", "benchmark": "P-CLHT", "keys": 6}
//! {"kind": "bug", "suite": "recipe", "row": 10, "format": "sarif"}
//! {"kind": "lint", "suite": "pmdk", "row": 2, "jobs": 4}
//! {"kind": "repair", "suite": "recipe", "row": 3, "format": "sarif"}
//! {"kind": "fuzz", "seeds": 50, "ops_max": 10, "differential": true}
//! {"kind": "litmus", "mode": "sweep", "max_total_ops": 3}
//! {"kind": "cancel", "id": "job-3"}
//! {"kind": "stats"}
//! {"kind": "shutdown"}
//! ```

use jaaru::Config;
use jaaru_litmus::sweep::SweepBound;

use crate::json::Value;

/// Default key count for check/lint jobs (matches `jaaru_cli check`).
pub const DEFAULT_CHECK_KEYS: usize = 6;
/// Default key count for bug-row jobs (matches `jaaru_cli bug`).
pub const DEFAULT_BUG_KEYS: usize = 5;

/// Largest explicit `"jobs"`: a run starts that many worker threads at
/// once, before any deadline can stop it.
pub(crate) const MAX_JOBS: usize = 256;
/// Largest `"keys"`: the registry builds every program's key set before
/// picking the job's program.
pub(crate) const MAX_KEYS: usize = 1024;
/// Largest fuzz `"ops_max"`: it sizes each generated program.
pub(crate) const MAX_OPS: usize = 4096;

/// What kind of work a job runs; mirrors the one-shot subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Exhaustively check a fixed benchmark by name.
    Check,
    /// Check one seeded-bug row from a bug table.
    Bug,
    /// Lint (all graph passes on) a benchmark or bug row.
    Lint,
    /// Synthesize and verify a flush/fence repair for a benchmark or
    /// bug row (diagnose → fix → verify → minimize).
    Repair,
    /// Run a differential fuzzing campaign.
    Fuzz,
    /// Run the Px86 conformance harness (named litmus corpus or the
    /// exhaustive operational-vs-axiomatic sweep).
    Litmus,
}

impl JobKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Check => "check",
            JobKind::Bug => "bug",
            JobKind::Lint => "lint",
            JobKind::Repair => "repair",
            JobKind::Fuzz => "fuzz",
            JobKind::Litmus => "litmus",
        }
    }
}

/// Which bug table a `bug`/`lint` row job indexes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    Recipe,
    Pmdk,
    Lockfree,
}

impl Suite {
    pub fn as_str(self) -> &'static str {
        match self {
            Suite::Recipe => "recipe",
            Suite::Pmdk => "pmdk",
            Suite::Lockfree => "lockfree",
        }
    }
}

/// The program a job runs, by registry identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fixed benchmark by (case-insensitive) name.
    Fixed { benchmark: String, keys: usize },
    /// A seeded-bug table row.
    Row {
        suite: Suite,
        row: usize,
        keys: usize,
    },
    /// A generated fuzzing campaign.
    Campaign {
        seeds: u64,
        seed_start: u64,
        ops_max: usize,
        differential: bool,
    },
    /// A Px86 conformance run: the named corpus, or an exhaustive
    /// sweep at the given bound (bound fields are ignored for the
    /// corpus mode but kept so the workload identity is total).
    Litmus {
        sweep: bool,
        max_threads: usize,
        max_ops_per_thread: usize,
        max_total_ops: usize,
    },
}

/// Reply artifact format. `JsonCanonical` is the service default: the
/// run-invariant JSON view that is byte-identical across worker counts
/// and cache states (see `CheckReport::to_canonical_json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactFormat {
    JsonCanonical,
    Sarif,
}

/// One parsed job: what to run and how.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Client-chosen id echoed in the reply (cancellation handle).
    /// Defaults to the admission ordinal (`"job-<n>"`).
    pub id: Option<String>,
    pub kind: JobKind,
    pub workload: Workload,
    pub format: ArtifactFormat,
    /// Worker threads for this job's exploration (the one-shot
    /// `--jobs`); performance-only, invisible in the artifact.
    pub jobs: usize,
    /// Cooperative deadline in milliseconds; `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Job(JobSpec),
    /// Reply with the aggregate service-metrics snapshot.
    Stats,
    /// Cancel the queued or running job with the given id.
    Cancel {
        id: String,
    },
    /// Drain and stop the daemon.
    Shutdown,
}

/// Why a request line was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Request {
    /// Parses one request from an already-parsed JSON line. `default_jobs`
    /// fills the per-job worker count when the spec has no `jobs` field.
    pub fn from_value(value: &Value, default_jobs: usize) -> Result<Request, SpecError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError("missing \"kind\"".into()))?;
        match kind {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "cancel" => {
                let id = value
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("cancel requires \"id\"".into()))?;
                Ok(Request::Cancel { id: id.to_string() })
            }
            "check" | "bug" | "lint" | "repair" | "fuzz" | "litmus" => {
                Ok(Request::Job(parse_job(kind, value, default_jobs)?))
            }
            other => Err(SpecError(format!("unknown kind {other:?}"))),
        }
    }
}

fn parse_job(kind: &str, value: &Value, default_jobs: usize) -> Result<JobSpec, SpecError> {
    let kind = match kind {
        "check" => JobKind::Check,
        "bug" => JobKind::Bug,
        "lint" => JobKind::Lint,
        "repair" => JobKind::Repair,
        "fuzz" => JobKind::Fuzz,
        "litmus" => JobKind::Litmus,
        _ => unreachable!("caller matched kind"),
    };
    let get_usize = |key: &str| -> Result<Option<usize>, SpecError> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(|n| Some(n as usize))
                .ok_or_else(|| SpecError(format!("{key:?} must be a non-negative integer"))),
        }
    };
    // Fields that size threads or allocations before a run starts are
    // refused above their bound, never clamped: a clamped job would not
    // be the job that was asked for.
    let get_bounded = |key: &str, max: usize| -> Result<Option<usize>, SpecError> {
        match get_usize(key)? {
            Some(n) if n > max => Err(SpecError(format!("{key:?} must be at most {max}"))),
            n => Ok(n),
        }
    };
    let keys = get_bounded("keys", MAX_KEYS)?;

    let benchmark = value.get("benchmark").and_then(Value::as_str);
    let suite = match value.get("suite").and_then(Value::as_str) {
        None => None,
        Some("recipe") => Some(Suite::Recipe),
        Some("pmdk") => Some(Suite::Pmdk),
        Some("lockfree") => Some(Suite::Lockfree),
        Some(other) => return Err(SpecError(format!("unknown suite {other:?}"))),
    };
    let row = get_usize("row")?;

    let workload = match kind {
        JobKind::Fuzz => Workload::Campaign {
            seeds: value.get("seeds").and_then(Value::as_u64).unwrap_or(20),
            seed_start: value.get("seed_start").and_then(Value::as_u64).unwrap_or(0),
            ops_max: get_bounded("ops_max", MAX_OPS)?.unwrap_or(10),
            differential: value
                .get("differential")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        },
        JobKind::Litmus => {
            let sweep = match value.get("mode").and_then(Value::as_str) {
                None | Some("corpus") => false,
                Some("sweep") => true,
                Some(other) => return Err(SpecError(format!("unknown litmus mode {other:?}"))),
            };
            // A sweep builds every program at its bound before checking
            // one, so the default sweep is also the largest a job may
            // ask for; `jaaru_cli litmus` runs deeper ones.
            let max = SweepBound::default();
            Workload::Litmus {
                sweep,
                max_threads: get_bounded("max_threads", max.max_threads)?
                    .unwrap_or(max.max_threads),
                max_ops_per_thread: get_bounded("max_ops_per_thread", max.max_ops_per_thread)?
                    .unwrap_or(max.max_ops_per_thread),
                max_total_ops: get_bounded("max_total_ops", max.max_total_ops)?
                    .unwrap_or(max.max_total_ops),
            }
        }
        JobKind::Check => {
            let benchmark = benchmark
                .ok_or_else(|| SpecError("check requires \"benchmark\"".into()))?
                .to_string();
            Workload::Fixed {
                benchmark,
                keys: keys.unwrap_or(DEFAULT_CHECK_KEYS),
            }
        }
        JobKind::Bug => {
            let suite = suite.ok_or_else(|| SpecError("bug requires \"suite\"".into()))?;
            let row = row.ok_or_else(|| SpecError("bug requires \"row\"".into()))?;
            Workload::Row {
                suite,
                row,
                keys: keys.unwrap_or(DEFAULT_BUG_KEYS),
            }
        }
        // Lint and repair take either shape, like the one-shot CLI.
        JobKind::Lint | JobKind::Repair => match (benchmark, suite) {
            (Some(benchmark), None) => Workload::Fixed {
                benchmark: benchmark.to_string(),
                keys: keys.unwrap_or(DEFAULT_CHECK_KEYS),
            },
            (None, Some(suite)) => {
                let row = row.ok_or_else(|| {
                    SpecError(format!("{} by suite requires \"row\"", kind.as_str()))
                })?;
                Workload::Row {
                    suite,
                    row,
                    keys: keys.unwrap_or(DEFAULT_BUG_KEYS),
                }
            }
            _ => {
                return Err(SpecError(format!(
                    "{} requires \"benchmark\" or \"suite\"+\"row\"",
                    kind.as_str()
                )))
            }
        },
    };

    let format = match value.get("format").and_then(Value::as_str) {
        None | Some("json") | Some("json-canonical") => ArtifactFormat::JsonCanonical,
        Some("sarif") => ArtifactFormat::Sarif,
        Some(other) => return Err(SpecError(format!("unknown format {other:?}"))),
    };

    Ok(JobSpec {
        id: value.get("id").and_then(Value::as_str).map(str::to_string),
        kind,
        workload,
        format,
        jobs: get_bounded("jobs", MAX_JOBS)?.unwrap_or(default_jobs),
        deadline_ms: value.get("deadline_ms").and_then(Value::as_u64),
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl JobSpec {
    /// A stable hash of the *program* this job runs: kind-normalized
    /// workload identity, independent of format/jobs/deadline.
    pub fn program_hash(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        match &self.workload {
            Workload::Fixed { benchmark, keys } => {
                fnv1a(&mut hash, b"fixed:");
                fnv1a(&mut hash, benchmark.to_ascii_lowercase().as_bytes());
                fnv1a(&mut hash, &(*keys as u64).to_le_bytes());
            }
            Workload::Row { suite, row, keys } => {
                fnv1a(&mut hash, b"row:");
                fnv1a(&mut hash, suite.as_str().as_bytes());
                fnv1a(&mut hash, &(*row as u64).to_le_bytes());
                fnv1a(&mut hash, &(*keys as u64).to_le_bytes());
            }
            Workload::Campaign {
                seeds,
                seed_start,
                ops_max,
                differential,
            } => {
                fnv1a(&mut hash, b"fuzz:");
                fnv1a(&mut hash, &seeds.to_le_bytes());
                fnv1a(&mut hash, &seed_start.to_le_bytes());
                fnv1a(&mut hash, &(*ops_max as u64).to_le_bytes());
                fnv1a(&mut hash, &[*differential as u8]);
            }
            Workload::Litmus {
                sweep,
                max_threads,
                max_ops_per_thread,
                max_total_ops,
            } => {
                fnv1a(&mut hash, b"litmus:");
                fnv1a(&mut hash, &[*sweep as u8]);
                fnv1a(&mut hash, &(*max_threads as u64).to_le_bytes());
                fnv1a(&mut hash, &(*max_ops_per_thread as u64).to_le_bytes());
                fnv1a(&mut hash, &(*max_total_ops as u64).to_le_bytes());
            }
        }
        hash
    }

    /// The key this job's *result* lives under in the daemon's result
    /// cache: (program, semantic config, kind). A lint and a check of
    /// the same program produce different results. The artifact format
    /// is not part of the key: the cache holds the result, and each
    /// reply renders it in its own format.
    pub fn result_group(&self, config: &Config) -> u64 {
        let mut hash = self.program_hash();
        fnv1a(&mut hash, &config.fingerprint().to_le_bytes());
        fnv1a(&mut hash, self.kind.as_str().as_bytes());
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::job_config;
    use crate::json::parse;
    use jaaru::Lints;

    fn req(line: &str) -> Result<Request, SpecError> {
        Request::from_value(&parse(line).unwrap(), 1)
    }

    fn job(line: &str) -> JobSpec {
        match req(line).unwrap() {
            Request::Job(spec) => spec,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn parses_check_with_defaults() {
        let spec = job(r#"{"kind":"check","benchmark":"P-CLHT"}"#);
        assert_eq!(spec.kind, JobKind::Check);
        assert_eq!(
            spec.workload,
            Workload::Fixed {
                benchmark: "P-CLHT".into(),
                keys: DEFAULT_CHECK_KEYS
            }
        );
        assert_eq!(spec.format, ArtifactFormat::JsonCanonical);
        assert_eq!(spec.jobs, 1, "default_jobs flows in");
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(job_config(&spec, None).lints_value(), Lints::Off);
    }

    #[test]
    fn parses_bug_row_and_options() {
        let spec = job(
            r#"{"kind":"bug","suite":"pmdk","row":2,"keys":4,"format":"sarif","jobs":4,"deadline_ms":500,"id":"j1"}"#,
        );
        assert_eq!(
            spec.workload,
            Workload::Row {
                suite: Suite::Pmdk,
                row: 2,
                keys: 4
            }
        );
        assert_eq!(spec.format, ArtifactFormat::Sarif);
        assert_eq!(spec.jobs, 4);
        assert_eq!(spec.deadline_ms, Some(500));
        assert_eq!(spec.id.as_deref(), Some("j1"));
    }

    #[test]
    fn lint_takes_either_shape() {
        let by_name = job(r#"{"kind":"lint","benchmark":"cceh"}"#);
        assert_eq!(job_config(&by_name, None).lints_value(), Lints::All);
        assert!(matches!(by_name.workload, Workload::Fixed { .. }));
        let by_row = job(r#"{"kind":"lint","suite":"recipe","row":10}"#);
        assert!(matches!(
            by_row.workload,
            Workload::Row {
                suite: Suite::Recipe,
                row: 10,
                keys: DEFAULT_BUG_KEYS
            }
        ));
        assert!(req(r#"{"kind":"lint"}"#).is_err());
    }

    #[test]
    fn repair_takes_either_shape_and_separates_cache_results() {
        let by_name = job(r#"{"kind":"repair","benchmark":"cceh"}"#);
        assert_eq!(by_name.kind, JobKind::Repair);
        assert_eq!(
            job_config(&by_name, None).lints_value(),
            Lints::Errors,
            "repair runs the error passes"
        );
        assert!(matches!(by_name.workload, Workload::Fixed { .. }));
        let by_row = job(r#"{"kind":"repair","suite":"recipe","row":3}"#);
        assert!(matches!(by_row.workload, Workload::Row { .. }));
        assert!(req(r#"{"kind":"repair"}"#).is_err());

        // A repair and a lint of the same row share no result: a repair
        // outcome is not a lint report.
        let config = Config::new();
        let lint = job(r#"{"kind":"lint","suite":"recipe","row":3}"#);
        assert_ne!(by_row.result_group(&config), lint.result_group(&config));
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(req(r#"{"kind":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(req(r#"{"kind":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(
            req(r#"{"kind":"cancel","id":"job-7"}"#).unwrap(),
            Request::Cancel { id: "job-7".into() }
        );
        assert!(req(r#"{"kind":"cancel"}"#).is_err());
        assert!(req(r#"{"kind":"frobnicate"}"#).is_err());
        assert!(req(r#"{"benchmark":"cceh"}"#).is_err(), "kind required");
    }

    #[test]
    fn missing_required_fields_are_errors() {
        assert!(req(r#"{"kind":"check"}"#).is_err());
        assert!(req(r#"{"kind":"bug","suite":"recipe"}"#).is_err());
        assert!(req(r#"{"kind":"bug","row":1}"#).is_err());
        assert!(req(r#"{"kind":"bug","suite":"nope","row":1}"#).is_err());
        assert!(req(r#"{"kind":"check","benchmark":"x","keys":-1}"#).is_err());
        assert!(req(r#"{"kind":"check","benchmark":"x","format":"yaml"}"#).is_err());
    }

    #[test]
    fn cache_keys_separate_programs_but_not_performance_knobs() {
        let config = Config::new();
        let a = job(r#"{"kind":"check","benchmark":"P-CLHT"}"#);
        let b = job(r#"{"kind":"check","benchmark":"p-clht","jobs":4,"deadline_ms":99}"#);
        assert_eq!(a.program_hash(), b.program_hash(), "case and knobs ignored");
        assert_eq!(a.result_group(&config), b.result_group(&config));

        let other = job(r#"{"kind":"check","benchmark":"CCEH"}"#);
        assert_ne!(a.program_hash(), other.program_hash());

        let more_keys = job(r#"{"kind":"check","benchmark":"P-CLHT","keys":9}"#);
        assert_ne!(a.program_hash(), more_keys.program_hash());
    }

    #[test]
    fn result_group_separates_kind_but_not_format() {
        let config = Config::new();
        let json = job(r#"{"kind":"bug","suite":"recipe","row":10}"#);
        let sarif = job(r#"{"kind":"bug","suite":"recipe","row":10,"format":"sarif"}"#);
        assert_eq!(json.result_group(&config), sarif.result_group(&config));
        let lint = job(r#"{"kind":"lint","suite":"recipe","row":10}"#);
        assert_ne!(json.result_group(&config), lint.result_group(&config));
        let mut other = Config::new();
        other.max_failures(2);
        assert_ne!(config.fingerprint(), other.fingerprint());
        assert_ne!(json.result_group(&config), json.result_group(&other));
    }

    #[test]
    fn sizing_fields_are_refused_above_their_bounds() {
        let at = job(&format!(
            r#"{{"kind":"check","benchmark":"CCEH","jobs":{MAX_JOBS},"keys":{MAX_KEYS}}}"#
        ));
        assert_eq!(at.jobs, MAX_JOBS);
        assert!(matches!(
            at.workload,
            Workload::Fixed { keys: MAX_KEYS, .. }
        ));
        let fuzz = job(&format!(r#"{{"kind":"fuzz","ops_max":{MAX_OPS}}}"#));
        assert!(matches!(
            fuzz.workload,
            Workload::Campaign {
                ops_max: MAX_OPS,
                ..
            }
        ));
        assert_eq!(
            job(r#"{"kind":"check","benchmark":"CCEH","jobs":0}"#).jobs,
            0,
            "0 still means one worker per core"
        );
        // The default sweep is the largest a job may ask for.
        let sweep = job(
            r#"{"kind":"litmus","mode":"sweep","max_threads":2,"max_ops_per_thread":4,"max_total_ops":4}"#,
        );
        assert_eq!(
            sweep.workload,
            Workload::Litmus {
                sweep: true,
                max_threads: 2,
                max_ops_per_thread: 4,
                max_total_ops: 4
            }
        );

        for (line, key) in [
            (
                format!(
                    r#"{{"kind":"check","benchmark":"CCEH","jobs":{}}}"#,
                    MAX_JOBS + 1
                ),
                "jobs",
            ),
            (
                r#"{"kind":"check","benchmark":"CCEH","jobs":1000000}"#.to_string(),
                "jobs",
            ),
            (
                format!(
                    r#"{{"kind":"lint","suite":"recipe","row":3,"keys":{}}}"#,
                    MAX_KEYS + 1
                ),
                "keys",
            ),
            (
                format!(r#"{{"kind":"fuzz","ops_max":{}}}"#, MAX_OPS + 1),
                "ops_max",
            ),
            (
                r#"{"kind":"litmus","mode":"sweep","max_threads":3}"#.to_string(),
                "max_threads",
            ),
            (
                r#"{"kind":"litmus","mode":"sweep","max_ops_per_thread":5}"#.to_string(),
                "max_ops_per_thread",
            ),
            (
                r#"{"kind":"litmus","max_total_ops":5}"#.to_string(),
                "max_total_ops",
            ),
            (
                r#"{"kind":"litmus","mode":"sweep","max_total_ops":1000000}"#.to_string(),
                "max_total_ops",
            ),
        ] {
            let error = req(&line).expect_err(&line);
            assert!(error.0.contains(key), "{error}");
        }
    }

    #[test]
    fn litmus_job_parses_and_hashes_by_bound() {
        let corpus = job(r#"{"kind":"litmus"}"#);
        assert_eq!(corpus.kind, JobKind::Litmus);
        assert_eq!(
            corpus.workload,
            Workload::Litmus {
                sweep: false,
                max_threads: 2,
                max_ops_per_thread: 4,
                max_total_ops: 4
            }
        );
        let sweep = job(r#"{"kind":"litmus","mode":"sweep","max_total_ops":3}"#);
        assert!(matches!(
            sweep.workload,
            Workload::Litmus {
                sweep: true,
                max_total_ops: 3,
                ..
            }
        ));
        assert_ne!(
            corpus.program_hash(),
            sweep.program_hash(),
            "mode and bound are workload identity"
        );
        assert!(req(r#"{"kind":"litmus","mode":"nope"}"#).is_err());
    }

    #[test]
    fn fuzz_campaign_parses() {
        let spec = job(r#"{"kind":"fuzz","seeds":5,"ops_max":8,"differential":true}"#);
        assert_eq!(
            spec.workload,
            Workload::Campaign {
                seeds: 5,
                seed_start: 0,
                ops_max: 8,
                differential: true
            }
        );
    }
}
