//! Per-layer spans, recorded from outside the checker.
//!
//! A [`TracedProgram`] forwards to a registry program and hands the
//! guest a [`TracedEnv`], which forwards every `PmEnv` operation to the
//! checker's own environment while timing it. Each span is a drop guard,
//! so it still closes when crash injection or `bug()` unwinds through
//! it. Every forwarding method is `#[track_caller]` (inherited from the
//! trait), so the checker still sees the guest's call sites and reports
//! stay byte-identical to untraced ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jaaru::{PmAddr, PmEnv, Program};

/// Busy time, call count and bytes moved at one layer boundary.
///
/// Atomics only because `ModelChecker::check` takes a `Sync` program;
/// checks run with one worker, so the counters are never contended.
#[derive(Default)]
pub struct Acc {
    nanos: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl Acc {
    fn span(&self, bytes: usize) -> Span<'_> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        Span {
            acc: self,
            start: Instant::now(),
        }
    }

    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

struct Span<'a> {
    acc: &'a Acc,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.acc.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// The spans of one `check()`: guest runs split by execution index, and
/// the `PmEnv` operations inside them.
#[derive(Default)]
pub struct Layers {
    pub run_pre: Acc,
    pub run_post: Acc,
    pub store: Acc,
    pub flush: Acc,
    pub fence: Acc,
    pub rmw: Acc,
    /// Loads of the pre-failure execution (TSO simulation).
    pub load_pre: Acc,
    /// Loads after a failure (`read_pre_failure`/`do_read`).
    pub load_post: Acc,
}

impl Layers {
    /// Time inside all guest runs.
    pub fn runs(&self) -> Duration {
        self.run_pre.time() + self.run_post.time()
    }

    /// The timed `PmEnv` operations, in field order.
    pub fn ops(&self) -> [&Acc; 6] {
        [
            &self.store,
            &self.flush,
            &self.fence,
            &self.rmw,
            &self.load_pre,
            &self.load_post,
        ]
    }

    /// Time inside `PmEnv` operations.
    pub fn ops_time(&self) -> Duration {
        self.ops().iter().map(|acc| acc.time()).sum()
    }
}

/// A registry program whose executions are timed.
pub struct TracedProgram<'a> {
    pub inner: &'a (dyn Program + Sync),
    pub layers: &'a Layers,
}

impl Program for TracedProgram<'_> {
    fn run(&self, env: &dyn PmEnv) {
        let recovery = env.execution_index() > 0;
        let run = if recovery {
            &self.layers.run_post
        } else {
            &self.layers.run_pre
        };
        let _span = run.span(0);
        self.inner.run(&TracedEnv {
            inner: env,
            layers: self.layers,
            recovery,
        });
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The checker's environment with every operation timed. Provided trait
/// methods (`persist`, `load_u64`, …) are not overridden: they decompose
/// into the primitives below, exactly as they do on the checker's own
/// environment.
struct TracedEnv<'a> {
    inner: &'a dyn PmEnv,
    layers: &'a Layers,
    /// The execution index is fixed for one `run`, so the load split is
    /// decided once.
    recovery: bool,
}

impl PmEnv for TracedEnv<'_> {
    #[track_caller]
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        let acc = if self.recovery {
            &self.layers.load_post
        } else {
            &self.layers.load_pre
        };
        let _span = acc.span(buf.len());
        self.inner.load_bytes(addr, buf);
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        let _span = self.layers.store.span(bytes.len());
        self.inner.store_bytes(addr, bytes);
    }

    #[track_caller]
    fn clflush(&self, addr: PmAddr, len: usize) {
        let _span = self.layers.flush.span(0);
        self.inner.clflush(addr, len);
    }

    #[track_caller]
    fn clflushopt(&self, addr: PmAddr, len: usize) {
        let _span = self.layers.flush.span(0);
        self.inner.clflushopt(addr, len);
    }

    #[track_caller]
    fn sfence(&self) {
        let _span = self.layers.fence.span(0);
        self.inner.sfence();
    }

    #[track_caller]
    fn mfence(&self) {
        let _span = self.layers.fence.span(0);
        self.inner.mfence();
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        let _span = self.layers.rmw.span(8);
        self.inner.compare_exchange_u64(addr, current, new)
    }

    /// Untimed: the registry programs run their own allocators on top
    /// of plain stores, and never call this.
    #[track_caller]
    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.inner.pm_alloc(size, align)
    }

    fn root(&self) -> PmAddr {
        self.inner.root()
    }

    fn pool_size(&self) -> u64 {
        self.inner.pool_size()
    }

    fn execution_index(&self) -> usize {
        self.inner.execution_index()
    }

    #[track_caller]
    fn bug(&self, msg: &str) -> ! {
        self.inner.bug(msg)
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        self.inner.spawn(&mut |env: &dyn PmEnv| {
            body(&TracedEnv {
                inner: env,
                layers: self.layers,
                recovery: self.recovery,
            })
        });
    }

    fn label(&self, msg: &str) {
        self.inner.label(msg);
    }

    #[track_caller]
    fn annotate_expect_persisted(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_expect_persisted(addr, len);
    }

    #[track_caller]
    fn annotate_expect_ordered(&self, a: PmAddr, a_len: usize, b: PmAddr, b_len: usize) {
        self.inner.annotate_expect_ordered(a, a_len, b, b_len);
    }

    #[track_caller]
    fn annotate_commit_var(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_commit_var(addr, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Config, ModelChecker};

    /// A missing flush: the traced report must name the same call sites
    /// as the untraced one, and every span must nest in its parent.
    #[test]
    fn traced_check_keeps_the_digest_and_nests_spans() {
        let program = |env: &dyn PmEnv| {
            let commit = env.root();
            let data = commit + 64;
            if env.load_u64(commit) != 0 {
                env.pm_assert(env.load_u64(data) == 42, "committed data lost");
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(commit, 1);
            env.persist(commit, 8);
        };
        let checker = ModelChecker::new(Config::new());
        let plain = checker.check(&program);
        assert!(!plain.is_clean());

        let layers = Layers::default();
        let check_start = Instant::now();
        let traced = checker.check(&TracedProgram {
            inner: &program,
            layers: &layers,
        });
        let check = check_start.elapsed();
        assert_eq!(plain.digest(), traced.digest());
        assert!(layers.ops_time() <= layers.runs() && layers.runs() <= check);
        assert!(layers.run_pre.calls() >= 1 && layers.run_post.calls() >= 1);
        assert!(layers.load_post.calls() >= 1 && layers.store.bytes() >= 16);
    }
}
