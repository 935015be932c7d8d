//! Model-checker configuration.

use jaaru_tso::EvictionPolicy;

/// Configuration for a [`ModelChecker`](crate::ModelChecker) run.
///
/// Built with a non-consuming builder, per the usual Rust convention:
///
/// ```
/// use jaaru::Config;
///
/// let mut config = Config::new();
/// config.pool_size(1 << 16).max_failures(2).stop_on_first_bug(true);
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
    max_bugs: usize,
    stop_on_first_bug: bool,
    flag_races: bool,
    lints: bool,
    lint_cross_thread: bool,
    lint_torn_stores: bool,
    lint_flush_redundancy: bool,
    jobs: usize,
    snapshots: bool,
    repair_max_rounds: usize,
    /// Internal: keep every scenario's op traces on its outcome (the
    /// static slicing pass consumes them). Collection-only — never part
    /// of the fingerprint.
    pub(crate) collect_traces: bool,
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
            max_bugs: 64,
            stop_on_first_bug: false,
            flag_races: true,
            lints: false,
            lint_cross_thread: false,
            lint_torn_stores: false,
            lint_flush_redundancy: false,
            jobs: 1,
            snapshots: true,
            repair_max_rounds: 8,
            collect_traces: false,
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
    pub fn max_scenarios(&mut self, n: u64) -> &mut Self {
        self.max_scenarios = n;
        self
    }

    /// Stop after this many distinct bugs (default 64).
    pub fn max_bugs(&mut self, n: usize) -> &mut Self {
        self.max_bugs = n.max(1);
        self
    }

    /// Stop exploring at the first bug found (default `false`).
    pub fn stop_on_first_bug(&mut self, yes: bool) -> &mut Self {
        self.stop_on_first_bug = yes;
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

    /// Upper bound on distinct reported bugs.
    pub fn bug_limit(&self) -> usize {
        self.max_bugs
    }

    /// Whether exploration stops at the first bug.
    pub fn stop_on_first_bug_value(&self) -> bool {
        self.stop_on_first_bug
    }

    /// Whether multi-store loads are flagged.
    pub fn flag_races_value(&self) -> bool {
        self.flag_races
    }

    /// Enable the persistency lint engine (default `false`).
    ///
    /// With lints on, the checker records the full per-thread operation
    /// stream of every execution, runs the `jaaru-analysis` robustness
    /// checker over it (commit-store inference + persist-ordering
    /// constraints), and — when exploration finds a bug — localizes the
    /// symptom back to the unordered store that allowed it. Findings
    /// surface as error-severity [`Diagnostic`](crate::Diagnostic)s in
    /// [`CheckReport::diagnostics`](crate::CheckReport). Lints imply
    /// race flagging (the localization pass consumes read-from
    /// evidence).
    pub fn lints(&mut self, yes: bool) -> &mut Self {
        self.lints = yes;
        self
    }

    /// Whether the persistency lint engine is enabled.
    pub fn lints_value(&self) -> bool {
        self.lints
    }

    /// Enable the cross-thread persistency race pass (default `false`):
    /// report stores whose flush/fence chain runs on another thread
    /// with no synchronizing edge (flush-on-the-wrong-thread,
    /// fence-on-the-wrong-thread). Queries the persist-order constraint
    /// graph built from the same recorded traces as [`Config::lints`],
    /// which this knob implies recording.
    pub fn lint_cross_thread(&mut self, yes: bool) -> &mut Self {
        self.lint_cross_thread = yes;
        self
    }

    /// Whether the cross-thread persistency race pass is enabled.
    pub fn lint_cross_thread_value(&self) -> bool {
        self.lint_cross_thread
    }

    /// Enable the torn-store pass (default `false`): report stores
    /// straddling a cache-line boundary whose halves persist at
    /// different points, confirmed against a failing scenario's
    /// read-from evidence like the robustness candidates.
    pub fn lint_torn_stores(&mut self, yes: bool) -> &mut Self {
        self.lint_torn_stores = yes;
        self
    }

    /// Whether the torn-store pass is enabled.
    pub fn lint_torn_stores_value(&self) -> bool {
        self.lint_torn_stores
    }

    /// Enable the flush-redundancy performance pass (default `false`):
    /// report same-line re-flushes with no intervening store, fences
    /// over empty flush buffers, and flushes before any store, as
    /// warning-severity diagnostics with occurrence counts — the
    /// performance-bug extension the paper sketches in §5.1. On an
    /// untruncated run it also reports dead flushes: flushes of lines
    /// no recovery execution reads.
    pub fn lint_flush_redundancy(&mut self, yes: bool) -> &mut Self {
        self.lint_flush_redundancy = yes;
        self
    }

    /// Whether the flush-redundancy pass is enabled.
    pub fn lint_flush_redundancy_value(&self) -> bool {
        self.lint_flush_redundancy
    }

    /// Whether any analysis pass needs per-execution op traces
    /// recorded: the lint engine proper or any of the graph passes.
    pub fn trace_ops_value(&self) -> bool {
        self.lints || self.lint_cross_thread || self.lint_torn_stores || self.lint_flush_redundancy
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

    /// Bounds the diagnose → edit → re-check iterations of repair
    /// synthesis (`jaaru::repair`, default 8). Each round can only
    /// discover edits the previous round's repair exposed, so a
    /// handful suffices. A driver knob like `jobs`: it never changes
    /// what a single check explores, so it stays out of
    /// [`Config::fingerprint`].
    ///
    /// # Panics
    ///
    /// Panics on zero rounds (repair could never even diagnose).
    pub fn repair_max_rounds(&mut self, rounds: usize) -> &mut Self {
        assert!(rounds >= 1, "repair needs at least one round");
        self.repair_max_rounds = rounds;
        self
    }

    /// The configured repair-round bound.
    pub fn repair_max_rounds_value(&self) -> usize {
        self.repair_max_rounds
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

    /// A stable fingerprint of every *semantic* knob: two configs with
    /// equal fingerprints explore the same scenario tree and produce
    /// digest-identical reports for the same program. Performance-only
    /// knobs — `jobs`, `snapshots` — are deliberately excluded, so a
    /// serving daemon keying its cross-job result cache on (program
    /// hash, fingerprint) serves one cached result to submissions that
    /// differ only in worker count.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.pool_size as u64);
        fold(match self.eviction {
            EvictionPolicy::Eager => 0,
            EvictionPolicy::OnFence => 1,
        });
        fold(self.max_failures as u64);
        fold(self.max_ops_per_execution);
        fold(self.max_scenarios);
        fold(self.max_bugs as u64);
        let flags = [
            self.inject_at_end,
            self.skip_unchanged,
            self.stop_on_first_bug,
            self.flag_races,
            self.lints,
            self.lint_cross_thread,
            self.lint_torn_stores,
            self.lint_flush_redundancy,
        ]
        .iter()
        .fold(0u64, |acc, &b| (acc << 1) | b as u64);
        fold(flags);
        hash
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
        assert!(!c.stop_on_first_bug_value());
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
            .max_bugs(5)
            .jobs(4);
        assert_eq!(c.pool_size_value(), 4096);
        assert_eq!(c.failure_limit(), 3);
        assert!(!c.flag_races_value());
        assert_eq!(c.bug_limit(), 5);
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
        assert!(!c.lint_cross_thread_value());
        assert!(!c.lint_torn_stores_value());
        assert!(!c.lint_flush_redundancy_value());
        assert!(!c.trace_ops_value());

        let mut c = Config::new();
        c.lint_cross_thread(true);
        assert!(c.trace_ops_value());
        let mut c = Config::new();
        c.lint_torn_stores(true);
        assert!(c.trace_ops_value());
        let mut c = Config::new();
        c.lint_flush_redundancy(true);
        assert!(c.trace_ops_value());
        let mut c = Config::new();
        c.lints(true);
        assert!(c.trace_ops_value());
    }

    #[test]
    fn max_bugs_floor_is_one() {
        let mut c = Config::new();
        c.max_bugs(0);
        assert_eq!(c.bug_limit(), 1);
    }

    #[test]
    fn fingerprint_ignores_performance_knobs() {
        let base = Config::new().fingerprint();
        let mut c = Config::new();
        c.jobs(4).snapshots(false).repair_max_rounds(3);
        assert_eq!(c.fingerprint(), base, "driver knobs excluded");
    }

    #[test]
    fn repair_rounds_default_and_override() {
        let mut c = Config::new();
        assert_eq!(c.repair_max_rounds_value(), 8);
        c.repair_max_rounds(2);
        assert_eq!(c.repair_max_rounds_value(), 2);
    }

    #[test]
    fn fingerprint_tracks_semantic_knobs() {
        let base = Config::new().fingerprint();
        let mut c = Config::new();
        c.max_failures(2);
        assert_ne!(c.fingerprint(), base);
        let mut c = Config::new();
        c.lints(true);
        assert_ne!(c.fingerprint(), base);
        let mut c = Config::new();
        c.eviction(EvictionPolicy::OnFence);
        assert_ne!(c.fingerprint(), base);
        let mut c = Config::new();
        c.pool_size(1 << 16);
        assert_ne!(c.fingerprint(), base);
        // Distinct flag combinations don't collide by shifting.
        let mut a = Config::new();
        a.skip_unchanged(false);
        let mut b = Config::new();
        b.stop_on_first_bug(true);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
