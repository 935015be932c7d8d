//! Checking as a service for the Jaaru reproduction.
//!
//! Model-checking jobs in CI tend to be near-duplicates: the same
//! benchmark checked on every push, the same bug row linted under two
//! output formats, the same campaign re-run with one knob moved. A
//! one-shot CLI pays the full exploration cost every time. This crate
//! runs the checker as a long-lived daemon so that cost is shared:
//!
//! - **Job queue** ([`queue`], [`job`]): newline-delimited JSON job
//!   specs (`check` / `bug` / `lint` / `repair` / `fuzz` / `litmus`)
//!   over a Unix domain
//!   socket or an offline `--batch` file; a bounded queue rejects
//!   overload instead of blocking, and every job can carry a deadline
//!   or be cancelled by id.
//! - **Executor** ([`exec`], [`daemon`]): jobs run one at a time on the
//!   in-process checker (within-job parallelism via each job's `jobs`
//!   knob), with panics isolated into `failed` replies, one retry for
//!   transient failures, and cooperative deadline/cancellation stops at
//!   scenario boundaries.
//! - **Cross-job result cache**: the result of each completed
//!   `ok`/`violation` job ([`JobResult`]) is kept under its program,
//!   semantic configuration and kind, without the artifact format. A
//!   duplicate submission, or a resubmission in the other format, is
//!   answered by rendering the cached result in its own format, byte
//!   for byte what a fresh run would reply. Checks share nothing else:
//!   each one's crash-point checkpoints live and die with its own
//!   exploration.
//! - **Service metrics** ([`metrics`]): queue depth, per-status
//!   completion counts, the result cache's hit rate, and p50/p99
//!   latency, rendered deterministically into every reply envelope and
//!   on demand via a `stats` request.
//!
//! The front end is `jaaru_cli serve` (socket) or `jaaru_cli serve
//! --batch FILE` (CI); see `crates/cli`. Artifact bytes are pinned to
//! the one-shot renderers, so migrating a pipeline from `jaaru_cli
//! check` to the daemon changes latency, never output.

pub mod daemon;
pub mod exec;
pub mod job;
pub mod json;
pub mod metrics;
pub mod queue;

pub use daemon::{run_batch, serve, Daemon, LineAction, ServeOptions};
pub use exec::{
    execute, job_config, one_shot_config, run_program, CachedReply, JobOutcome, JobResult,
    PANIC_WORKLOAD,
};
pub use job::{ArtifactFormat, JobKind, JobSpec, Request, Suite, Workload};
pub use metrics::{JobStatus, Metrics};
