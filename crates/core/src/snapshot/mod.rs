//! Crash-point checkpoints of checker state.
//!
//! This is the checker half of the snapshot subsystem (the generic LRU
//! cache lives in the `jaaru-snapshot` crate): what exactly gets
//! captured at a failure injection point, and how the explorer keys and
//! reuses those captures.
//!
//! A power failure discards the guest's volatile state by definition, so
//! the guest closure never needs to be resumed mid-flight — recovery
//! always runs `Program::run` fresh. The only state that must round-trip
//! is the *checker's*: the stack of crashed executions' storage (store
//! logs, frozen at the crash and shared by every capture and restore, and
//! writeback intervals, which post-failure reads refine in place — hence
//! copy-on-restore, of the intervals only), crash bookkeeping, race
//! accumulators, lint traces, and the decision-log position. A snapshot
//! is taken where the original system forks: at each crash-eligible
//! injection point, on either branch, the environment builds from live
//! state what
//! [`advance_execution`](crate::checker_env::CheckerEnv::advance_execution)
//! would leave after a crash there, and keys it by the decision-trace
//! prefix consumed so far with its last decision set to crash. Since
//! that key ends in a crash decision (alternative `1`) and fresh
//! decisions always choose `0`, a cached key can only match inside a
//! later scenario's *prescribed* prefix — restoring is always equivalent
//! to replaying those executions. Depth-first search explores the
//! continue branch first, so the scenario that takes the crash finds
//! the capture waiting and runs only its recovery.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use jaaru_snapshot::{ShardedCache, SnapshotPayload, SnapshotStats};
use jaaru_tso::{ExecutionStorage, OpTrace};

use crate::decision::Decision;
use crate::report::RaceReport;

/// The snapshot cache a scenario consults, with the key group its
/// entries live under: `(handle, group)`. `Copy` so the sequential loop
/// and every parallel worker can share one resolved reference.
pub(crate) type CacheRef<'a> = Option<(&'a SharedSnapshotCache, u64)>;

/// A shareable cache of crash-point checkpoints, keyed by `(group,
/// consumed decision-trace prefix)`.
///
/// One-shot checks create a private one per run (group `0`); a serving
/// daemon creates one for its lifetime and hands every check the same
/// handle with a per-(program, config) group via
/// [`ModelChecker::shared_cache`](crate::ModelChecker::shared_cache),
/// so repeated submissions of the same job start from a warm cache.
/// Sharing is sound because restoring a snapshot is outcome-equivalent
/// to replaying the prefix it covers: cache contents — whoever put them
/// there — affect only performance, never results, so
/// [`CheckReport::digest`](crate::CheckReport::digest) is byte-identical
/// across cold caches, warm caches, and worker counts. Internally the
/// cache is sharded with per-shard locking (see
/// [`jaaru_snapshot::ShardedCache`]); clones share the same storage.
#[derive(Clone)]
pub struct SharedSnapshotCache {
    inner: Arc<ShardedCache<CheckerSnapshot>>,
}

impl SharedSnapshotCache {
    /// A cache with a `cap_bytes` byte budget (split across shards).
    pub fn new(cap_bytes: usize) -> Self {
        SharedSnapshotCache {
            inner: Arc::new(ShardedCache::new(cap_bytes)),
        }
    }

    /// Lifetime counters summed across shards. For a per-run cache this
    /// is the run's cache activity; long-lived caches diff two reads via
    /// [`SnapshotStats::since`] to attribute activity to one job.
    pub fn stats(&self) -> SnapshotStats {
        self.inner.stats()
    }

    /// Cached snapshots across all groups.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Runs `read` on the snapshot with the longest prefix of `plan`
    /// cached in `group`, under the owning shard's lock.
    pub(crate) fn lookup<R>(
        &self,
        group: u64,
        plan: &[usize],
        read: impl FnOnce(&CheckerSnapshot) -> R,
    ) -> Option<R> {
        self.inner.lookup(group, plan, read)
    }

    /// Whether a snapshot is cached under exactly `(group, key)`.
    pub(crate) fn contains(&self, group: u64, key: &[usize]) -> bool {
        self.inner.contains(group, key)
    }

    /// Caches `snap` under `(group, key)` (no-op if already present).
    pub(crate) fn insert(&self, group: u64, key: Vec<usize>, snap: CheckerSnapshot) {
        self.inner.insert(group, key, snap);
    }
}

impl fmt::Debug for SharedSnapshotCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSnapshotCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Everything a post-failure execution needs from the checker's past:
/// the state of a [`CheckerEnv`](crate::checker_env::CheckerEnv) as a
/// power failure injected at one point would leave it, minus the
/// per-execution volatile state that `advance_execution` resets anyway
/// (op budget, bump cursor, thread ids — re-initialized fresh on
/// restore).
pub(crate) struct CheckerSnapshot {
    /// Storage of every crashed execution, oldest first. Post-failure
    /// reads *mutate* their intervals (refinement), so restoring clones:
    /// an `Arc` bump of each frozen store log plus a copy of its intervals.
    pub(crate) stack: Vec<ExecutionStorage>,
    /// Executions completed so far — exactly the `Program::run`
    /// invocations a restore saves over full replay.
    pub(crate) exec_index: usize,
    pub(crate) points_per_exec: Vec<usize>,
    pub(crate) crash_points: Vec<usize>,
    pub(crate) races: Vec<RaceReport>,
    pub(crate) race_keys: HashSet<String>,
    pub(crate) load_choice_points: u64,
    pub(crate) max_rf_set: usize,
    pub(crate) op_traces: Vec<OpTrace>,
    /// Cache lines the snapshotted executions' recoveries read (the
    /// dead-flush footprint up to this point; empty unless that pass
    /// is on).
    pub(crate) recovery_reads: HashSet<u64>,
    /// Full metadata of the consumed decision prefix, so a restore into
    /// a `DecisionLog::from_trace` placeholder log can rehydrate the
    /// alternative counts and execution indices replay would have
    /// derived (divergence accounting and sibling expansion depend on
    /// them).
    pub(crate) prefix: Vec<Decision>,
    /// Estimated footprint, computed once at capture time.
    pub(crate) bytes: usize,
}

impl CheckerSnapshot {
    /// `Program::run` invocations restoring this snapshot skips.
    pub(crate) fn executions_saved(&self) -> usize {
        self.exec_index
    }
}

impl SnapshotPayload for CheckerSnapshot {
    fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

/// Estimates a snapshot's heap footprint. Called once at capture; the
/// cache uses the result for LRU byte accounting. Each stacked store log
/// is charged in full although captures share it, so the cache's byte
/// cap still bounds what its entries can pin.
pub(crate) fn estimate_bytes(
    stack: &[ExecutionStorage],
    op_traces: &[OpTrace],
    races: &[RaceReport],
    prefix: &[Decision],
    recovery_reads: &HashSet<u64>,
) -> usize {
    let storage: usize = stack.iter().map(ExecutionStorage::approx_bytes).sum();
    let traces: usize = op_traces.iter().map(OpTrace::approx_bytes).sum();
    // Races carry strings; a flat per-entry estimate is plenty for
    // eviction purposes.
    let races: usize = races
        .iter()
        .map(|r| 96 + r.load_location.len() + r.candidates.len() * 64)
        .sum();
    let prefix = std::mem::size_of_val(prefix);
    let reads = recovery_reads.len() * std::mem::size_of::<u64>();
    256 + storage + traces + races + prefix + reads
}
