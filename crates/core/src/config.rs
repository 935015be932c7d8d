//! Model-checker configuration.

use jaaru_tso::EvictionPolicy;

/// Which analysis passes a check runs ([`Config::lints`]).
///
/// Every setting explores the same scenarios: the passes read the
/// recorded operation traces and never add or reorder scenarios, so
/// [`CheckReport::exploration_digest`](crate::CheckReport::exploration_digest)
/// is the same under all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lints {
    /// No analysis, and no operation traces recorded (the default).
    Off,
    /// The passes that produce every error-severity diagnostic: the
    /// robustness pass (commit-store inference and persist ordering),
    /// which localizes a bug's symptom back to the unordered store that
    /// allowed it; the cross-thread persistency race pass; and the
    /// torn-store pass. `jaaru_cli repair` and serve repair jobs run
    /// under this setting: repair must converge on the crash-consistency
    /// fix, not chase advisory warnings about flushes a program issues
    /// on purpose.
    Errors,
    /// `Errors` plus the warning-severity flush-hygiene passes:
    /// same-line re-flushes with no intervening store, fences over empty
    /// flush buffers and flushes before any store (the performance-bug
    /// extension the paper sketches in §5.1), and, on an untruncated
    /// run, dead flushes: flushes of lines no recovery execution reads.
    All,
}

/// Configuration for a [`ModelChecker`](crate::ModelChecker) run.
///
/// Built with a non-consuming builder, per the usual Rust convention:
///
/// ```
/// use jaaru::{Config, Lints};
///
/// let mut config = Config::new();
/// config.pool_size(1 << 16).max_failures(2).lints(Lints::Errors);
/// assert_eq!(config.failure_limit(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Config {
    pool_size: usize,
    eviction: EvictionPolicy,
    max_failures: usize,
    inject_at_end: bool,
    skip_unchanged: bool,
    max_ops_per_execution: u64,
    max_scenarios: u64,
    flag_races: bool,
    lints: Lints,
    jobs: usize,
    snapshots: bool,
}

impl Config {
    /// A configuration with the paper's defaults: a 1 MiB pool, eager
    /// cache visibility, a single injected failure per scenario, failure
    /// points before every flush and at the end of execution, and the
    /// skip-if-no-writes optimization enabled.
    pub fn new() -> Self {
        Config {
            pool_size: 1 << 20,
            eviction: EvictionPolicy::Eager,
            max_failures: 1,
            inject_at_end: true,
            skip_unchanged: true,
            max_ops_per_execution: 2_000_000,
            max_scenarios: u64::MAX,
            flag_races: true,
            lints: Lints::Off,
            jobs: 1,
            snapshots: true,
        }
    }

    /// Sets the persistent pool size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if smaller than two cache lines.
    pub fn pool_size(&mut self, bytes: usize) -> &mut Self {
        assert!(
            bytes >= 128,
            "pool must hold at least the null page and a root line"
        );
        self.pool_size = bytes;
        self
    }

    /// Sets the store-buffer eviction policy.
    pub fn eviction(&mut self, policy: EvictionPolicy) -> &mut Self {
        self.eviction = policy;
        self
    }

    /// Maximum number of power failures per scenario (the paper's
    /// command-line option bounding the depth of the `exec` stack).
    /// Default 1: a pre-failure execution plus one recovery execution.
    pub fn max_failures(&mut self, n: usize) -> &mut Self {
        self.max_failures = n;
        self
    }

    /// Whether to inject a failure point at the clean end of an execution
    /// (default `true`).
    pub fn inject_at_end(&mut self, yes: bool) -> &mut Self {
        self.inject_at_end = yes;
        self
    }

    /// Whether to skip injection points with no intervening writes
    /// (default `true`; the paper's optimization).
    pub fn skip_unchanged(&mut self, yes: bool) -> &mut Self {
        self.skip_unchanged = yes;
        self
    }

    /// Per-execution operation budget; exceeding it is reported as the
    /// "stuck in an infinite loop" bug symptom.
    pub fn max_ops_per_execution(&mut self, n: u64) -> &mut Self {
        self.max_ops_per_execution = n;
        self
    }

    /// Upper bound on explored scenarios (safety valve for experiments).
    /// Exploration also stops, truncated, at the 64th distinct bug.
    pub fn max_scenarios(&mut self, n: u64) -> &mut Self {
        self.max_scenarios = n;
        self
    }

    /// Record loads that can read from more than one store (the paper's
    /// §4 debugging support for missing flushes). Default `true`.
    pub fn flag_races(&mut self, yes: bool) -> &mut Self {
        self.flag_races = yes;
        self
    }

    /// Number of worker threads exploring failure scenarios. `1`
    /// (default) runs the depth-first walk on the calling thread; `0`
    /// uses [`std::thread::available_parallelism`]; `n > 1` runs the same
    /// walk on `n` threads, which split the decision tree by donating
    /// subtrees to idle peers. The final report is byte-identical across
    /// job counts for non-truncated runs (see DESIGN.md, "Parallel
    /// exploration").
    pub fn jobs(&mut self, n: usize) -> &mut Self {
        self.jobs = n;
        self
    }

    /// Current pool size in bytes.
    pub fn pool_size_value(&self) -> usize {
        self.pool_size
    }

    /// Current eviction policy.
    pub fn eviction_value(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Maximum number of power failures injected per scenario.
    pub fn failure_limit(&self) -> usize {
        self.max_failures
    }

    /// Whether end-of-execution injection is enabled.
    pub fn inject_at_end_value(&self) -> bool {
        self.inject_at_end
    }

    /// Whether the skip-if-no-writes optimization is enabled.
    pub fn skip_unchanged_value(&self) -> bool {
        self.skip_unchanged
    }

    /// Per-execution operation budget.
    pub fn op_limit(&self) -> u64 {
        self.max_ops_per_execution
    }

    /// Upper bound on explored scenarios.
    pub fn scenario_limit(&self) -> u64 {
        self.max_scenarios
    }

    /// Whether multi-store loads are flagged.
    pub fn flag_races_value(&self) -> bool {
        self.flag_races
    }

    /// Selects the analysis passes (default [`Lints::Off`]).
    ///
    /// With any pass on, the checker records the full per-thread
    /// operation stream of every execution, lifts it into a persist-order
    /// graph that the passes query, and reports their findings as
    /// [`Diagnostic`](crate::Diagnostic)s in
    /// [`CheckReport::diagnostics`](crate::CheckReport). Lints imply race
    /// flagging: localization consumes read-from evidence.
    pub fn lints(&mut self, lints: Lints) -> &mut Self {
        self.lints = lints;
        self
    }

    /// The selected analysis passes.
    pub fn lints_value(&self) -> Lints {
        self.lints
    }

    /// Whether the selected passes need per-execution op traces.
    pub(crate) fn trace_ops_value(&self) -> bool {
        self.lints != Lints::Off
    }

    /// Enable crash-point snapshots (default `true`): checkpoint, at
    /// every fresh crash decision, the checker state a crash there
    /// leaves, and restore it to start the scenarios that take that crash
    /// directly at recovery, instead of replaying their
    /// pre-failure prefix from scratch. A checkpoint lives until the
    /// subtree below its crash is explored. Purely a performance setting —
    /// [`CheckReport::digest`](crate::CheckReport::digest) is
    /// byte-identical either way. Disable to measure the re-execution
    /// baseline or to shed the checkpoints' memory.
    pub fn snapshots(&mut self, yes: bool) -> &mut Self {
        self.snapshots = yes;
        self
    }

    /// Whether crash-point snapshots are enabled.
    pub fn snapshots_value(&self) -> bool {
        self.snapshots
    }

    /// The configured worker count, as set (`0` = auto).
    pub fn jobs_value(&self) -> usize {
        self.jobs
    }

    /// The worker count a check will actually use: `jobs` with `0`
    /// resolved to the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = Config::new();
        assert_eq!(c.failure_limit(), 1);
        assert!(c.inject_at_end_value());
        assert!(c.skip_unchanged_value());
        assert!(c.flag_races_value());
        assert_eq!(c.lints_value(), Lints::Off);
        assert_eq!(c.eviction_value(), EvictionPolicy::Eager);
        assert_eq!(c.jobs_value(), 1, "sequential by default");
        assert!(c.snapshots_value(), "snapshots on by default");
    }

    #[test]
    fn builder_chains() {
        let mut c = Config::new();
        c.pool_size(4096)
            .max_failures(3)
            .flag_races(false)
            .lints(Lints::All)
            .jobs(4);
        assert_eq!(c.pool_size_value(), 4096);
        assert_eq!(c.failure_limit(), 3);
        assert!(!c.flag_races_value());
        assert_eq!(c.lints_value(), Lints::All);
        assert_eq!(c.effective_jobs(), 4);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let mut c = Config::new();
        c.jobs(0);
        assert_eq!(c.jobs_value(), 0);
        assert!(c.effective_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn tiny_pool_rejected() {
        Config::new().pool_size(64);
    }

    #[test]
    fn snapshot_builders_chain() {
        let mut c = Config::new();
        c.snapshots(false).jobs(2);
        assert!(!c.snapshots_value());
        assert_eq!(c.jobs_value(), 2);
    }

    #[test]
    fn graph_passes_default_off_and_imply_trace_recording() {
        let c = Config::new();
        assert_eq!(c.lints_value(), Lints::Off);
        assert!(!c.trace_ops_value());
        for lints in [Lints::Errors, Lints::All] {
            let mut c = Config::new();
            c.lints(lints);
            assert!(c.trace_ops_value(), "{lints:?}");
        }
    }
}
