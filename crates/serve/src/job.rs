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
//!
//! A job refuses any key its kind does not read, so a misspelled field
//! is `rejected` instead of silently taking its default.

use std::cell::RefCell;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
    /// sweep at the given bound. A corpus job takes no bound field, and
    /// its identity holds the default bound.
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
        let fields = Fields {
            value,
            read: RefCell::default(),
        };
        let kind = fields
            .str("kind")?
            .ok_or_else(|| SpecError("missing \"kind\"".into()))?;
        match kind {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "cancel" => {
                let id = fields
                    .str("id")?
                    .ok_or_else(|| SpecError("cancel requires \"id\"".into()))?;
                Ok(Request::Cancel { id: id.to_string() })
            }
            "check" | "bug" | "lint" | "repair" | "fuzz" | "litmus" => {
                Ok(Request::Job(parse_job(kind, &fields, default_jobs)?))
            }
            other => Err(SpecError(format!("unknown kind {other:?}"))),
        }
    }
}

/// A request object's fields, read one JSON type at a time. A missing or
/// `null` field is absent; a field of any other type is refused with an
/// error that names it, never read as absent. Every key looked up is
/// remembered, so a job can refuse the keys it never read.
struct Fields<'v> {
    value: &'v Value,
    read: RefCell<Vec<&'static str>>,
}

impl<'v> Fields<'v> {
    fn typed<T>(
        &self,
        key: &'static str,
        expected: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        self.read.borrow_mut().push(key);
        match self.value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => read(v)
                .map(Some)
                .ok_or_else(|| SpecError(format!("{key:?} must be {expected}"))),
        }
    }

    fn str(&self, key: &'static str) -> Result<Option<&'v str>, SpecError> {
        self.typed(key, "a string", Value::as_str)
    }

    fn u64(&self, key: &'static str) -> Result<Option<u64>, SpecError> {
        self.typed(key, "a non-negative integer", Value::as_u64)
    }

    fn bool(&self, key: &'static str) -> Result<Option<bool>, SpecError> {
        self.typed(key, "a boolean", Value::as_bool)
    }

    /// Accepts `key` without reading it.
    fn ignore(&self, key: &'static str) {
        self.read.borrow_mut().push(key);
    }

    /// Refuses the request if it has a key nothing read, naming the
    /// first in key order; `what` names the job in the error.
    fn refuse_unread(&self, what: &str) -> Result<(), SpecError> {
        let Value::Object(map) = self.value else {
            return Ok(());
        };
        let read = self.read.borrow();
        match map.keys().find(|key| !read.contains(&key.as_str())) {
            Some(key) => Err(SpecError(format!("{key:?} is not a field of a {what} job"))),
            None => Ok(()),
        }
    }

    /// A count that sizes threads or allocations before a run starts:
    /// refused above `max`, never clamped, since a clamped job would not
    /// be the job that was asked for.
    fn bounded(&self, key: &'static str, max: usize) -> Result<Option<usize>, SpecError> {
        match self.u64(key)? {
            Some(n) if n > max as u64 => Err(SpecError(format!("{key:?} must be at most {max}"))),
            n => Ok(n.map(|n| n as usize)),
        }
    }
}

/// Parses a job of `kind`. A job reads only the keys its kind and shape
/// use, plus `id`, `format`, `jobs` and `deadline_ms`, and refuses any
/// other key, so a misspelled field is an error instead of a default.
/// The retired `prune` key is still accepted, and ignored, on the
/// registry kinds.
fn parse_job(kind: &str, fields: &Fields, default_jobs: usize) -> Result<JobSpec, SpecError> {
    let kind = match kind {
        "check" => JobKind::Check,
        "bug" => JobKind::Bug,
        "lint" => JobKind::Lint,
        "repair" => JobKind::Repair,
        "fuzz" => JobKind::Fuzz,
        "litmus" => JobKind::Litmus,
        _ => unreachable!("caller matched kind"),
    };
    let keys = |default| -> Result<usize, SpecError> {
        Ok(fields.bounded("keys", MAX_KEYS)?.unwrap_or(default))
    };
    let suite = || -> Result<Option<Suite>, SpecError> {
        match fields.str("suite")? {
            None => Ok(None),
            Some("recipe") => Ok(Some(Suite::Recipe)),
            Some("pmdk") => Ok(Some(Suite::Pmdk)),
            Some("lockfree") => Ok(Some(Suite::Lockfree)),
            Some(other) => Err(SpecError(format!("unknown suite {other:?}"))),
        }
    };
    let row = || -> Result<Option<usize>, SpecError> { Ok(fields.u64("row")?.map(|n| n as usize)) };
    if !matches!(kind, JobKind::Fuzz | JobKind::Litmus) {
        fields.ignore("prune");
    }

    let mut what = kind.as_str();
    let workload = match kind {
        JobKind::Fuzz => Workload::Campaign {
            seeds: fields.u64("seeds")?.unwrap_or(20),
            seed_start: fields.u64("seed_start")?.unwrap_or(0),
            ops_max: fields.bounded("ops_max", MAX_OPS)?.unwrap_or(10),
            differential: fields.bool("differential")?.unwrap_or(false),
        },
        JobKind::Litmus => {
            let sweep = match fields.str("mode")? {
                None | Some("corpus") => false,
                Some("sweep") => true,
                Some(other) => return Err(SpecError(format!("unknown litmus mode {other:?}"))),
            };
            // A sweep builds every program at its bound before checking
            // one, so the default sweep is also the largest a job may
            // ask for; `jaaru_cli litmus` runs deeper ones. The corpus
            // reads no bound.
            let bound = |key, max| -> Result<usize, SpecError> {
                if sweep {
                    Ok(fields.bounded(key, max)?.unwrap_or(max))
                } else {
                    Ok(max)
                }
            };
            if !sweep {
                what = "litmus corpus";
            }
            let max = SweepBound::default();
            Workload::Litmus {
                sweep,
                max_threads: bound("max_threads", max.max_threads)?,
                max_ops_per_thread: bound("max_ops_per_thread", max.max_ops_per_thread)?,
                max_total_ops: bound("max_total_ops", max.max_total_ops)?,
            }
        }
        JobKind::Check => {
            let benchmark = fields
                .str("benchmark")?
                .ok_or_else(|| SpecError("check requires \"benchmark\"".into()))?
                .to_string();
            Workload::Fixed {
                benchmark,
                keys: keys(DEFAULT_CHECK_KEYS)?,
            }
        }
        JobKind::Bug => {
            let suite = suite()?.ok_or_else(|| SpecError("bug requires \"suite\"".into()))?;
            let row = row()?.ok_or_else(|| SpecError("bug requires \"row\"".into()))?;
            Workload::Row {
                suite,
                row,
                keys: keys(DEFAULT_BUG_KEYS)?,
            }
        }
        // Lint and repair take either shape, like the one-shot CLI.
        JobKind::Lint | JobKind::Repair => match (fields.str("benchmark")?, suite()?) {
            (Some(benchmark), None) => Workload::Fixed {
                benchmark: benchmark.to_string(),
                keys: keys(DEFAULT_CHECK_KEYS)?,
            },
            (None, Some(suite)) => {
                let row = row()?.ok_or_else(|| {
                    SpecError(format!("{} by suite requires \"row\"", kind.as_str()))
                })?;
                Workload::Row {
                    suite,
                    row,
                    keys: keys(DEFAULT_BUG_KEYS)?,
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

    let format = match fields.str("format")? {
        None | Some("json") | Some("json-canonical") => ArtifactFormat::JsonCanonical,
        Some("sarif") => ArtifactFormat::Sarif,
        Some(other) => return Err(SpecError(format!("unknown format {other:?}"))),
    };
    let spec = JobSpec {
        id: fields.str("id")?.map(str::to_string),
        kind,
        workload,
        format,
        jobs: fields.bounded("jobs", MAX_JOBS)?.unwrap_or(default_jobs),
        deadline_ms: fields.u64("deadline_ms")?,
    };
    fields.refuse_unread(what)?;
    Ok(spec)
}

impl JobSpec {
    /// The key this job's result lives under in the daemon's result
    /// cache: its kind and its workload, with a fixed benchmark's name
    /// lower-cased, the way the registry matches names. A lint and a
    /// check of the same program produce different results. The kind
    /// also stands for the checker configuration, which
    /// [`job_config`](crate::exec::job_config) builds from the kind and
    /// the worker count alone. Worker count, deadline, id and artifact
    /// format are not part of the key: none of them changes the result,
    /// and each reply renders it in its own format.
    pub fn result_key(&self) -> (JobKind, Workload) {
        let mut workload = self.workload.clone();
        if let Workload::Fixed { benchmark, .. } = &mut workload {
            benchmark.make_ascii_lowercase();
        }
        (self.kind, workload)
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
        let lint = job(r#"{"kind":"lint","suite":"recipe","row":3}"#);
        assert_ne!(by_row.result_key(), lint.result_key());
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
        let a = job(r#"{"kind":"check","benchmark":"P-CLHT"}"#);
        let b = job(r#"{"kind":"check","benchmark":"p-clht","jobs":4,"deadline_ms":99,"id":"b"}"#);
        assert_eq!(a.result_key(), b.result_key(), "case and knobs ignored");

        let other = job(r#"{"kind":"check","benchmark":"CCEH"}"#);
        assert_ne!(a.result_key(), other.result_key());

        let more_keys = job(r#"{"kind":"check","benchmark":"P-CLHT","keys":9}"#);
        assert_ne!(a.result_key(), more_keys.result_key());

        let row = job(r#"{"kind":"bug","suite":"recipe","row":10}"#);
        let other_row = job(r#"{"kind":"bug","suite":"recipe","row":11}"#);
        assert_ne!(row.result_key(), other_row.result_key());
    }

    #[test]
    fn result_key_separates_kind_but_not_format() {
        let json = job(r#"{"kind":"bug","suite":"recipe","row":10}"#);
        let sarif = job(r#"{"kind":"bug","suite":"recipe","row":10,"format":"sarif"}"#);
        assert_eq!(json.result_key(), sarif.result_key());
        let lint = job(r#"{"kind":"lint","suite":"recipe","row":10}"#);
        assert_ne!(json.result_key(), lint.result_key());
    }

    #[test]
    fn a_field_of_the_wrong_type_is_refused_not_read_as_absent() {
        for (line, key) in [
            (
                r#"{"kind":"check","benchmark":"CCEH","deadline_ms":"1"}"#,
                "deadline_ms",
            ),
            (
                r#"{"kind":"check","benchmark":"CCEH","format":7}"#,
                "format",
            ),
            (r#"{"kind":"check","benchmark":"CCEH","id":5}"#, "id"),
            (r#"{"kind":"check","benchmark":7}"#, "benchmark"),
            (r#"{"kind":"bug","suite":["recipe"],"row":1}"#, "suite"),
            (r#"{"kind":"bug","suite":"recipe","row":"1"}"#, "row"),
            (r#"{"kind":"litmus","mode":1}"#, "mode"),
            (r#"{"kind":"fuzz","seeds":"3"}"#, "seeds"),
            (r#"{"kind":"fuzz","seed_start":-1}"#, "seed_start"),
            (r#"{"kind":"fuzz","differential":"true"}"#, "differential"),
            (r#"{"kind":"cancel","id":5}"#, "id"),
            (r#"{"kind":5}"#, "kind"),
        ] {
            let error = req(line).expect_err(line);
            assert!(error.0.contains(&format!("{key:?}")), "{line}: {error}");
        }

        // `null` still reads as absent.
        let spec = job(
            r#"{"kind":"check","benchmark":"CCEH","deadline_ms":null,"format":null,"id":null}"#,
        );
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.format, ArtifactFormat::JsonCanonical);
        assert_eq!(spec.id, None);
    }

    #[test]
    fn a_key_the_job_kind_does_not_read_is_refused() {
        for (line, key) in [
            (r#"{"kind":"check","benchmark":"CCEH","kyes":2}"#, "kyes"),
            (r#"{"kind":"check","benchmark":"CCEH","row":3}"#, "row"),
            (
                r#"{"kind":"bug","suite":"recipe","row":1,"benchmark":"CCEH"}"#,
                "benchmark",
            ),
            (r#"{"kind":"lint","benchmark":"CCEH","row":3}"#, "row"),
            (
                r#"{"kind":"repair","suite":"pmdk","row":4,"seeds":3}"#,
                "seeds",
            ),
            (r#"{"kind":"fuzz","keys":2}"#, "keys"),
            (r#"{"kind":"fuzz","prune":false}"#, "prune"),
            (
                r#"{"kind":"litmus","mode":"corpus","max_threads":2}"#,
                "max_threads",
            ),
            (
                r#"{"kind":"litmus","max_ops_per_thread":1}"#,
                "max_ops_per_thread",
            ),
            (r#"{"kind":"litmus","mode":"sweep","seeds":1}"#, "seeds"),
            (r#"{"kind":"check","benchmark":"CCEH","kyes":null}"#, "kyes"),
        ] {
            let error = req(line).expect_err(line);
            assert!(error.0.contains(&format!("{key:?}")), "{line}: {error}");
        }

        // The knobs every job takes, and the retired `prune` key on the
        // registry kinds, are still accepted.
        for line in [
            r#"{"kind":"check","benchmark":"CCEH","keys":2,"prune":true,"id":"a","format":"json","jobs":2,"deadline_ms":9}"#,
            r#"{"kind":"bug","suite":"recipe","row":10,"prune":false}"#,
            r#"{"kind":"lint","suite":"recipe","row":3,"keys":4,"prune":false}"#,
            r#"{"kind":"repair","benchmark":"CCEH","prune":true,"format":"sarif"}"#,
            r#"{"kind":"fuzz","seeds":2,"id":"f","format":"json","jobs":1,"deadline_ms":5}"#,
            r#"{"kind":"litmus","mode":"sweep","max_total_ops":3,"id":"l","jobs":1}"#,
            r#"{"kind":"litmus","mode":"corpus","deadline_ms":5}"#,
        ] {
            job(line);
        }
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
                r#"{"kind":"litmus","mode":"sweep","max_total_ops":5}"#.to_string(),
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
            corpus.result_key(),
            sweep.result_key(),
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
