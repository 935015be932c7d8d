//! The daemon itself: admission, the executor loop, the cross-job
//! result cache, reply envelopes, and the two front ends (a Unix domain
//! socket serve loop and an offline `--batch` mode for CI).
//!
//! ## Wire protocol
//!
//! Requests are newline-delimited JSON (see [`crate::job`]). Every
//! request that is not a blank/`#` comment line produces exactly one
//! single-line JSON reply envelope:
//!
//! ```text
//! {"artifact":…,"cached":…,"error":…,"id":…,"metrics":{…},"status":…}
//! ```
//!
//! `artifact` is the full one-shot report (canonical JSON or SARIF) as
//! an escaped string — unescaping it yields bytes identical to what
//! `jaaru_cli --format json-canonical` / `--format sarif` prints for
//! the same job. `metrics` is the aggregate service snapshot (see
//! [`Metrics::render`]) at reply time.
//!
//! ## Failure semantics
//!
//! Everything fails closed: rejected, failed, cancelled, and
//! deadline-exceeded jobs carry `"artifact":null` plus an `error`
//! string, and are never admitted to the result cache. Only completed
//! `ok`/`violation` results are cached and replayed for duplicate
//! submissions (with `"cached":true`).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use jaaru::json_string;
use jaaru_snapshot::{SnapshotCache, SnapshotStats};

use crate::exec::{execute, job_config, CachedReply};
use crate::job::{JobSpec, Request};
use crate::json::parse;
use crate::metrics::{JobStatus, Metrics};
use crate::queue::{BoundedQueue, CancelRegistry, DEFAULT_QUEUE_CAP};

/// Default byte budget for the cross-job result cache.
pub const DEFAULT_RESULT_CAP: usize = 16 << 20;

/// Daemon-wide settings, normally filled from `jaaru_cli serve` flags.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
    /// Worker threads for jobs that do not set `"jobs"` themselves.
    pub default_jobs: usize,
    /// Byte budget for the cross-job result cache.
    pub result_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_cap: DEFAULT_QUEUE_CAP,
            default_jobs: 1,
            result_cap: DEFAULT_RESULT_CAP,
        }
    }
}

/// One admitted job waiting for (or undergoing) execution.
struct QueuedJob {
    id: String,
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    reply: Sender<String>,
}

/// What the caller should do after submitting one request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineAction {
    /// Blank/comment line; no reply will be produced.
    Skipped,
    /// A reply was already sent (control request or rejection).
    Replied,
    /// A job was queued; its reply arrives via the submitted sender.
    Queued,
    /// Shutdown was requested (a reply was sent); stop reading.
    Shutdown,
}

/// The checking service: admission control, a single executor draining
/// the bounded queue, and the cross-job result cache. One instance is
/// shared (via `Arc`) between the socket/batch front ends and the
/// executor thread.
pub struct Daemon {
    opts: ServeOptions,
    queue: BoundedQueue<QueuedJob>,
    cancels: CancelRegistry,
    metrics: Metrics,
    /// Completed replies by result group. Only the executor touches it;
    /// the lock lets `stats` requests read its counters.
    results: Mutex<SnapshotCache<CachedReply>>,
    next_ordinal: AtomicU64,
    shutting_down: AtomicBool,
}

impl Daemon {
    pub fn new(opts: ServeOptions) -> Daemon {
        Daemon {
            opts,
            queue: BoundedQueue::new(opts.queue_cap),
            cancels: CancelRegistry::new(),
            metrics: Metrics::new(),
            results: Mutex::new(SnapshotCache::new(opts.result_cap)),
            next_ordinal: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
        }
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Stops admission and lets the executor drain what is queued —
    /// what a `shutdown` request does, for embedders driving the daemon
    /// through [`Daemon::submit_line`] directly.
    pub fn close(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.queue.close();
    }

    /// The result cache's counters in the `shared_*` axes of a
    /// [`SnapshotStats`]; the other axes read 0 (checks share no
    /// checkpoints across jobs).
    pub fn cache_stats(&self) -> SnapshotStats {
        let results = self.results().stats();
        SnapshotStats {
            shared_hits: results.hits,
            shared_misses: results.misses,
            shared_evictions: results.evictions,
            ..SnapshotStats::default()
        }
    }

    fn render_metrics(&self) -> String {
        self.metrics.render(&self.cache_stats())
    }

    fn envelope(
        &self,
        id: &str,
        status: JobStatus,
        cached: bool,
        artifact: Option<&str>,
        error: Option<&str>,
    ) -> String {
        format!(
            "{{\"artifact\":{},\"cached\":{},\"error\":{},\"id\":{},\"metrics\":{},\"status\":\"{}\"}}",
            artifact.map_or_else(|| "null".to_string(), json_string),
            cached,
            error.map_or_else(|| "null".to_string(), json_string),
            json_string(id),
            self.render_metrics(),
            status.as_str(),
        )
    }

    fn reject(&self, reply: &Sender<String>, id: &str, error: &str) -> LineAction {
        self.metrics.rejected();
        let _ = reply.send(self.envelope(id, JobStatus::Rejected, false, None, Some(error)));
        LineAction::Replied
    }

    /// Admits one request line. Control requests and rejections reply
    /// immediately on `reply`; admitted jobs reply from the executor.
    pub fn submit_line(&self, line: &str, reply: &Sender<String>) -> LineAction {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return LineAction::Skipped;
        }
        let value = match parse(line) {
            Ok(value) => value,
            Err(e) => return self.reject(reply, "", &format!("invalid JSON: {e}")),
        };
        let request = match Request::from_value(&value, self.opts.default_jobs) {
            Ok(request) => request,
            Err(e) => return self.reject(reply, "", &format!("invalid request: {e}")),
        };
        match request {
            Request::Stats => {
                let _ = reply.send(self.envelope("stats", JobStatus::Ok, false, None, None));
                LineAction::Replied
            }
            Request::Cancel { id } => {
                let (status, error) = if self.cancels.cancel(&id) {
                    (JobStatus::Ok, None)
                } else {
                    (JobStatus::Failed, Some("no such live job"))
                };
                let _ = reply.send(self.envelope(&id, status, false, None, error));
                LineAction::Replied
            }
            Request::Shutdown => {
                self.shutting_down.store(true, Ordering::Relaxed);
                self.queue.close();
                let _ = reply.send(self.envelope("shutdown", JobStatus::Ok, false, None, None));
                LineAction::Shutdown
            }
            Request::Job(spec) => {
                let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
                let id = spec.id.clone().unwrap_or_else(|| format!("job-{ordinal}"));
                let job = QueuedJob {
                    cancel: self.cancels.register(&id),
                    id,
                    spec,
                    submitted: Instant::now(),
                    reply: reply.clone(),
                };
                match self.queue.push(job) {
                    Ok(()) => {
                        self.metrics.admitted();
                        LineAction::Queued
                    }
                    Err(job) => {
                        self.cancels.deregister(&job.id);
                        self.reject(&job.reply, &job.id, "queue full")
                    }
                }
            }
        }
    }

    /// Drains the queue until it is closed and empty. Run on a
    /// dedicated thread; jobs execute one at a time (within-job
    /// parallelism comes from each job's `jobs` setting).
    pub fn run_executor(&self) {
        while let Some(job) = self.queue.pop() {
            let id = job.id.clone();
            let reply = job.reply.clone();
            let attempt =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.process(job)));
            if attempt.is_err() {
                // `process` already isolates job panics; this catches a
                // panic in the service machinery itself. Reply minimally
                // so no client hangs on a lost job, and keep draining.
                let _ = reply.send(format!(
                    "{{\"artifact\":null,\"cached\":false,\"error\":\"internal executor error\",\
                     \"id\":{},\"metrics\":{{}},\"status\":\"failed\"}}",
                    json_string(&id)
                ));
                self.cancels.deregister(&id);
            }
        }
    }

    fn process(&self, job: QueuedJob) {
        self.metrics.dequeued();
        let config = job_config(&job.spec, None);
        let result_group = job.spec.result_group(&config);

        // Cancellation beats the cache: a cancelled duplicate must not
        // come back as a cached success.
        let (status, artifact, error, cached) = if job.cancel.load(Ordering::Relaxed) {
            (
                JobStatus::Cancelled,
                None,
                Some("cancelled before execution".to_string()),
                false,
            )
        } else if let Some(hit) = self.cached(result_group) {
            (hit.status, Some(hit.artifact), None, true)
        } else {
            let outcome = execute(&job.spec, &config, &job.cancel);
            if outcome.retried {
                self.metrics.retried();
            }
            if let (JobStatus::Ok | JobStatus::Violation, Some(artifact)) =
                (outcome.status, outcome.artifact.as_ref())
            {
                self.results().insert(
                    result_group,
                    CachedReply {
                        status: outcome.status,
                        artifact: artifact.clone(),
                    },
                );
            }
            (outcome.status, outcome.artifact, outcome.error, false)
        };

        self.metrics
            .finished(status, cached, job.submitted.elapsed());
        let _ = job.reply.send(self.envelope(
            &job.id,
            status,
            cached,
            artifact.as_deref(),
            error.as_deref(),
        ));
        self.cancels.deregister(&job.id);
    }

    /// The cached reply of `result_group`, if any: cloned, so the lock is
    /// released before a miss runs the job and inserts its reply.
    fn cached(&self, result_group: u64) -> Option<CachedReply> {
        self.results().get(result_group).cloned()
    }

    fn results(&self) -> MutexGuard<'_, SnapshotCache<CachedReply>> {
        self.results
            .lock()
            .expect("only a lookup or an insert runs under the result-cache lock")
    }
}

/// Serves the daemon on an already-bound Unix domain socket. Each
/// connection gets a reader thread (request lines in) and a writer
/// thread (reply lines out, in completion order); replies carry job
/// ids, so pipelined clients can match them up. Returns once a
/// `shutdown` request has been processed and the queue has drained.
pub fn serve(daemon: Arc<Daemon>, listener: UnixListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let executor = {
        let daemon = Arc::clone(&daemon);
        thread::spawn(move || daemon.run_executor())
    };
    while !daemon.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                let daemon = Arc::clone(&daemon);
                thread::spawn(move || handle_connection(&daemon, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    executor
        .join()
        .map_err(|_| io::Error::other("executor thread panicked"))
}

fn handle_connection(daemon: &Daemon, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    let writer = thread::spawn(move || {
        let mut out = io::BufWriter::new(write_half);
        for line in rx {
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                break;
            }
        }
    });
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if daemon.submit_line(&line, &tx) == LineAction::Shutdown {
            break;
        }
    }
    // Executor-held clones of `tx` keep the writer alive until every
    // admitted job from this connection has replied.
    drop(tx);
    let _ = writer.join();
}

/// Offline batch mode for CI: reads request lines from `input`, writes
/// one reply line per request to `out` in input order (each job runs to
/// completion before the next line is admitted), and returns the
/// process exit code: 0 all clean, 1 violations found, 2 malformed
/// request lines, 3 failed/cancelled/deadline jobs. The most severe
/// code across the batch wins.
pub fn run_batch(daemon: &Arc<Daemon>, input: &str, out: &mut dyn Write) -> io::Result<i32> {
    let executor = {
        let daemon = Arc::clone(daemon);
        thread::spawn(move || daemon.run_executor())
    };
    let (tx, rx) = channel::<String>();
    let mut code = 0;
    for line in input.lines() {
        let action = daemon.submit_line(line, &tx);
        if action == LineAction::Skipped {
            continue;
        }
        let reply = rx
            .recv()
            .map_err(|_| io::Error::other("executor stopped without replying"))?;
        code = code.max(reply_severity(&reply));
        writeln!(out, "{reply}")?;
        if action == LineAction::Shutdown {
            break;
        }
    }
    daemon.queue.close();
    drop(tx);
    executor
        .join()
        .map_err(|_| io::Error::other("executor thread panicked"))?;
    Ok(code)
}

/// Maps one reply envelope to its batch exit-code severity.
fn reply_severity(reply: &str) -> i32 {
    match parse(reply)
        .ok()
        .as_ref()
        .and_then(|v| v.get("status"))
        .and_then(|s| s.as_str())
    {
        Some("ok") => 0,
        Some("violation") => 1,
        Some("rejected") => 2,
        // failed / cancelled / deadline — or an unreadable envelope,
        // which would itself be a service bug.
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn daemon() -> Arc<Daemon> {
        Arc::new(Daemon::new(ServeOptions::default()))
    }

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn malformed_lines_are_rejected_with_metrics() {
        let d = daemon();
        let (tx, rx) = channel();
        assert_eq!(d.submit_line("not json", &tx), LineAction::Replied);
        assert_eq!(
            d.submit_line(r#"{"kind":"nope"}"#, &tx),
            LineAction::Replied
        );
        assert_eq!(d.submit_line("   ", &tx), LineAction::Skipped);
        assert_eq!(d.submit_line("# comment", &tx), LineAction::Skipped);
        for _ in 0..2 {
            let v = parse(&rx.recv().unwrap()).unwrap();
            assert_eq!(field(&v, "status").as_str(), Some("rejected"));
            assert_eq!(field(&v, "artifact"), &Value::Null);
            assert!(field(&v, "error").as_str().is_some());
            let jobs = field(field(&v, "metrics"), "jobs");
            assert!(jobs.get("rejected").and_then(Value::as_u64).unwrap() >= 1);
        }
    }

    #[test]
    fn deeply_nested_line_is_rejected_and_the_next_job_answered() {
        let d = daemon();
        let input = format!(
            "{}\n{}\n",
            "[".repeat(50_000),
            r#"{"kind":"bug","suite":"recipe","row":10,"id":"next"}"#
        );
        let mut out = Vec::new();
        run_batch(&d, &input, &mut out).unwrap();
        let replies: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 2);
        assert_eq!(field(&replies[0], "status").as_str(), Some("rejected"));
        let error = field(&replies[0], "error").as_str().unwrap();
        assert!(
            error.starts_with("invalid JSON: nesting too deep"),
            "{error}"
        );
        assert_eq!(field(&replies[1], "id").as_str(), Some("next"));
        assert_eq!(field(&replies[1], "status").as_str(), Some("violation"));
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let d = Arc::new(Daemon::new(ServeOptions {
            queue_cap: 1,
            ..ServeOptions::default()
        }));
        let (tx, rx) = channel();
        let line = r#"{"kind":"bug","suite":"recipe","row":10}"#;
        assert_eq!(d.submit_line(line, &tx), LineAction::Queued);
        assert_eq!(d.submit_line(line, &tx), LineAction::Replied, "queue full");
        let v = parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(field(&v, "status").as_str(), Some("rejected"));
        assert!(field(&v, "error").as_str().unwrap().contains("queue full"));
    }

    #[test]
    fn stats_request_reports_queue_depth() {
        let d = daemon();
        let (tx, rx) = channel();
        d.submit_line(r#"{"kind":"bug","suite":"recipe","row":10}"#, &tx);
        assert_eq!(
            d.submit_line(r#"{"kind":"stats"}"#, &tx),
            LineAction::Replied
        );
        let v = parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(field(&v, "id").as_str(), Some("stats"));
        let queue = field(field(&v, "metrics"), "queue");
        assert_eq!(queue.get("depth").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn batch_runs_jobs_in_order_and_aggregates_exit_code() {
        let d = daemon();
        let input = concat!(
            "# a comment\n",
            r#"{"kind":"bug","suite":"recipe","row":10,"id":"first"}"#,
            "\n",
            r#"{"kind":"check","benchmark":"no-such-bench","id":"second"}"#,
            "\n",
            r#"{"kind":"stats"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let code = run_batch(&d, input, &mut out).unwrap();
        assert_eq!(code, 3, "failed job dominates the violation");
        let replies: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 3, "one reply per non-comment line");
        assert_eq!(field(&replies[0], "id").as_str(), Some("first"));
        assert_eq!(field(&replies[0], "status").as_str(), Some("violation"));
        assert_eq!(field(&replies[1], "id").as_str(), Some("second"));
        assert_eq!(field(&replies[1], "status").as_str(), Some("failed"));
        assert_eq!(field(&replies[2], "id").as_str(), Some("stats"));
    }

    #[test]
    fn duplicate_batch_submissions_hit_the_result_cache() {
        let d = daemon();
        let line = r#"{"kind":"bug","suite":"recipe","row":10}"#;
        let input = format!("{line}\n{line}\n");
        let mut out = Vec::new();
        run_batch(&d, &input, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<Value> = out.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(field(&replies[0], "cached").as_bool(), Some(false));
        assert_eq!(field(&replies[1], "cached").as_bool(), Some(true));
        assert_eq!(
            field(&replies[0], "artifact").as_str(),
            field(&replies[1], "artifact").as_str(),
            "cached artifact is byte-identical"
        );
        assert_eq!(d.metrics().result_hits(), 1);
        let cache = field(field(&replies[1], "metrics"), "cache");
        assert_eq!(cache.get("result_hits").and_then(Value::as_u64), Some(1));
    }
}
