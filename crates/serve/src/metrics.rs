//! Service observability: per-status job counters, queue depth, result
//! cache hit rate, and p50/p99 latency, rendered as one deterministic
//! JSON object (sorted keys, integer milliseconds) that rides inside
//! every reply envelope and answers `stats` requests.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use jaaru_bench::timing::percentile;
use jaaru_snapshot::SnapshotStats;

/// Terminal status of a job, as reported in the reply envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; the verdict is clean.
    Ok,
    /// Ran to completion; bugs or error-severity diagnostics found.
    Violation,
    /// The job itself failed (bad spec, unknown benchmark, panic).
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
    /// The per-job deadline elapsed mid-run.
    Deadline,
    /// Refused at admission (queue full or unparseable line).
    Rejected,
}

impl JobStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Violation => "violation",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Deadline => "deadline",
            JobStatus::Rejected => "rejected",
        }
    }
}

#[derive(Default)]
struct Inner {
    admitted: u64,
    rejected: u64,
    ok: u64,
    violation: u64,
    failed: u64,
    cancelled: u64,
    deadline: u64,
    retries: u64,
    result_hits: u64,
    result_misses: u64,
    queue_depth: u64,
    queue_peak: u64,
    latencies: Vec<Duration>,
}

/// Aggregate service metrics, shared between the admission side and the
/// executor. All updates take one short mutex; rendering snapshots the
/// state at a single point in time.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    // Counters stay meaningful even if a panic ever unwinds through an
    // update — recover the guard rather than cascading the poison into
    // every later reply.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A job entered the queue.
    pub fn admitted(&self) {
        let mut m = self.lock();
        m.admitted += 1;
        m.queue_depth += 1;
        m.queue_peak = m.queue_peak.max(m.queue_depth);
    }

    /// A request was refused at admission (full queue, bad line).
    pub fn rejected(&self) {
        self.lock().rejected += 1;
    }

    /// A job left the queue (about to run, or cancelled while queued).
    pub fn dequeued(&self) {
        let mut m = self.lock();
        m.queue_depth = m.queue_depth.saturating_sub(1);
    }

    /// A transient failure was retried.
    pub fn retried(&self) {
        self.lock().retries += 1;
    }

    /// A job reached a terminal status. `cached` says whether the reply
    /// was served from the result cache; `latency` is submission-to-reply.
    pub fn finished(&self, status: JobStatus, cached: bool, latency: Duration) {
        let mut m = self.lock();
        match status {
            JobStatus::Ok => m.ok += 1,
            JobStatus::Violation => m.violation += 1,
            JobStatus::Failed => m.failed += 1,
            JobStatus::Cancelled => m.cancelled += 1,
            JobStatus::Deadline => m.deadline += 1,
            JobStatus::Rejected => m.rejected += 1,
        }
        if status != JobStatus::Rejected {
            if cached {
                m.result_hits += 1;
            } else {
                m.result_misses += 1;
            }
            m.latencies.push(latency);
        }
    }

    /// Completed-job count (any terminal status except rejected).
    pub fn completed(&self) -> u64 {
        let m = self.lock();
        m.ok + m.violation + m.failed + m.cancelled + m.deadline
    }

    pub fn result_hits(&self) -> u64 {
        self.lock().result_hits
    }

    /// Renders the metrics snapshot as a single-line JSON object with
    /// sorted keys. `caches` carries the cross-job result cache's
    /// counters in its `shared_*` axes (see `Daemon::cache_stats`).
    pub fn render(&self, caches: &SnapshotStats) -> String {
        let m = self.lock();
        let mut lat = m.latencies.clone();
        let p50 = percentile(&mut lat, 50.0).as_millis();
        let p99 = percentile(&mut lat, 99.0).as_millis();
        let completed = m.ok + m.violation + m.failed + m.cancelled + m.deadline;
        format!(
            concat!(
                "{{\"cache\":{{\"result_evictions\":{},\"result_hits\":{},\"result_misses\":{}}},",
                "\"jobs\":{{\"admitted\":{},\"cancelled\":{},\"completed\":{},",
                "\"deadline\":{},\"failed\":{},\"ok\":{},\"rejected\":{},",
                "\"retries\":{},\"violation\":{}}},",
                "\"latency_ms\":{{\"p50\":{},\"p99\":{}}},",
                "\"queue\":{{\"depth\":{},\"peak\":{}}}}}"
            ),
            caches.shared_evictions,
            caches.shared_hits,
            caches.shared_misses,
            m.admitted,
            m.cancelled,
            completed,
            m.deadline,
            m.failed,
            m.ok,
            m.rejected,
            m.retries,
            m.violation,
            p50,
            p99,
            m.queue_depth,
            m.queue_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn counters_track_lifecycle() {
        let metrics = Metrics::new();
        metrics.admitted();
        metrics.admitted();
        metrics.dequeued();
        metrics.finished(JobStatus::Ok, false, Duration::from_millis(10));
        metrics.dequeued();
        metrics.finished(JobStatus::Violation, true, Duration::from_millis(2));
        metrics.rejected();
        assert_eq!(metrics.completed(), 2);
        assert_eq!(metrics.result_hits(), 1);

        let caches = SnapshotStats {
            shared_hits: 1,
            shared_misses: 1,
            ..SnapshotStats::default()
        };
        let rendered = metrics.render(&caches);
        let v = parse(&rendered).expect("metrics snapshot is valid JSON");
        let jobs = v.get("jobs").unwrap();
        assert_eq!(jobs.get("admitted").and_then(Value::as_u64), Some(2));
        assert_eq!(jobs.get("ok").and_then(Value::as_u64), Some(1));
        assert_eq!(jobs.get("violation").and_then(Value::as_u64), Some(1));
        assert_eq!(jobs.get("rejected").and_then(Value::as_u64), Some(1));
        assert_eq!(jobs.get("completed").and_then(Value::as_u64), Some(2));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("result_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("result_misses").and_then(Value::as_u64), Some(1));
        assert!(cache.get("snapshot_hits").is_none(), "no snapshot cache");
        let queue = v.get("queue").unwrap();
        assert_eq!(queue.get("depth").and_then(Value::as_u64), Some(0));
        assert_eq!(queue.get("peak").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn latency_percentiles_are_millisecond_integers() {
        let metrics = Metrics::new();
        for ms in [10u64, 20, 30, 40] {
            metrics.finished(JobStatus::Ok, false, Duration::from_millis(ms));
        }
        let v = parse(&metrics.render(&SnapshotStats::default())).unwrap();
        let lat = v.get("latency_ms").unwrap();
        assert_eq!(lat.get("p50").and_then(Value::as_u64), Some(20));
        assert_eq!(lat.get("p99").and_then(Value::as_u64), Some(40));
    }

    #[test]
    fn render_is_deterministic_for_equal_state() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.finished(JobStatus::Ok, true, Duration::from_millis(5));
        b.finished(JobStatus::Ok, true, Duration::from_millis(5));
        let stats = SnapshotStats::default();
        assert_eq!(a.render(&stats), b.render(&stats));
    }
}
