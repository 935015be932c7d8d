//! Environments used by the eager baseline: an instrumented pre-failure
//! environment that crashes at a designated injection point, and a
//! concrete post-failure environment over a materialized memory state.

use std::cell::RefCell;
use std::panic::panic_any;

use jaaru::{PmEnv, PmPool};
use jaaru_pmem::{CacheLineId, PmAddr, CACHE_LINE_SIZE, NULL_PAGE_SIZE};
use jaaru_tso::{line_parts, EvictionPolicy, ExecutionStorage, ThreadId, TsoMachine};

/// Panic payload: the designated injection point was reached.
pub(crate) struct YatCrash;

/// Panic payload: a bug manifested during an eagerly explored execution.
pub(crate) struct YatBugSignal(pub String);

/// Runs the pre-failure part of a program on the TSO machine, unwinding
/// with [`YatCrash`] at injection point `crash_at` (or running to
/// completion when `crash_at` is `None`).
///
/// Injection-point placement mirrors the Jaaru checker exactly — before
/// every flush instruction, before fences with pending `clflushopt`
/// effects, and at the end of the execution — so the two tools explore
/// the same crash points and are directly comparable.
pub(crate) struct PreFailureEnv {
    inner: RefCell<PreInner>,
    pool_size: u64,
    crash_at: Option<usize>,
}

struct PreInner {
    machine: TsoMachine,
    bump: u64,
    points_seen: usize,
    writes_since_point: bool,
    any_writes: bool,
    ops: u64,
    current_tid: ThreadId,
    next_tid: u32,
}

/// Hard per-execution op budget for baseline runs.
const MAX_OPS: u64 = 10_000_000;

impl PreFailureEnv {
    pub(crate) fn new(pool_size: usize, crash_at: Option<usize>) -> Self {
        PreFailureEnv {
            inner: RefCell::new(PreInner {
                machine: TsoMachine::new(EvictionPolicy::Eager),
                bump: 2 * CACHE_LINE_SIZE as u64,
                points_seen: 0,
                writes_since_point: false,
                any_writes: false,
                ops: 0,
                current_tid: ThreadId(0),
                next_tid: 1,
            }),
            pool_size: pool_size as u64,
            crash_at,
        }
    }

    /// Number of injection points encountered so far.
    pub(crate) fn points_seen(&self) -> usize {
        self.inner.borrow().points_seen
    }

    /// The end-of-execution injection point.
    pub(crate) fn end_point(&self) {
        let any = self.inner.borrow().any_writes;
        if any {
            self.offer_point();
        }
    }

    /// Freezes the machine as crashed (buffered operations lost).
    pub(crate) fn into_storage(self) -> ExecutionStorage {
        self.inner.into_inner().machine.crash()
    }

    fn offer_point(&self) {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.points_seen;
        inner.points_seen += 1;
        inner.writes_since_point = false;
        if self.crash_at == Some(idx) {
            drop(inner);
            panic_any(YatCrash);
        }
    }

    fn flush_point(&self) {
        let eligible = self.inner.borrow().writes_since_point;
        if eligible {
            self.offer_point();
        }
    }

    fn tick(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.ops += 1;
        if inner.ops > MAX_OPS {
            drop(inner);
            panic_any(YatBugSignal(
                "infinite loop in pre-failure execution".into(),
            ));
        }
    }

    fn check_range(&self, addr: PmAddr, len: usize) {
        let end = addr.offset().checked_add(len as u64);
        if addr.offset() < NULL_PAGE_SIZE || !matches!(end, Some(e) if e <= self.pool_size) {
            panic_any(YatBugSignal(format!(
                "illegal access: {len} bytes at {addr}"
            )));
        }
    }

    fn flush_lines(&self, addr: PmAddr, len: usize, opt: bool) {
        self.flush_point();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let first = addr.cache_line().index();
        let last = (addr + (len.max(1) as u64 - 1)).cache_line().index();
        for l in first..=last {
            let line = CacheLineId::new(l);
            if opt {
                inner.machine.clflushopt(inner.current_tid, line);
            } else {
                inner.machine.clflush(inner.current_tid, line);
            }
        }
    }
}

impl PmEnv for PreFailureEnv {
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.tick();
        self.check_range(addr, buf.len());
        let inner = self.inner.borrow();
        for (line, want, start) in line_parts(addr, buf.len()) {
            // Bytes this execution never wrote read initial memory (0).
            let mut vals = [0; CACHE_LINE_SIZE];
            inner
                .machine
                .read_current(inner.current_tid, line, want, &mut vals);
            let first = want.trailing_zeros() as usize;
            let part = &mut buf[start..start + want.count_ones() as usize];
            part.copy_from_slice(&vals[first..first + part.len()]);
        }
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.tick();
        self.check_range(addr, bytes.len());
        let loc = std::panic::Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.machine.store(inner.current_tid, addr, bytes, loc);
        inner.writes_since_point = true;
        inner.any_writes = true;
    }

    fn clflush(&self, addr: PmAddr, len: usize) {
        self.tick();
        self.check_range(addr, len.max(1));
        self.flush_lines(addr, len, false);
    }

    fn clflushopt(&self, addr: PmAddr, len: usize) {
        self.tick();
        self.check_range(addr, len.max(1));
        self.flush_lines(addr, len, true);
    }

    fn sfence(&self) {
        self.tick();
        let pending = {
            let inner = self.inner.borrow();
            inner.machine.flush_buffer_pending(inner.current_tid)
        };
        if pending {
            self.flush_point();
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.machine.sfence(inner.current_tid);
        inner.machine.drain_store_buffer(inner.current_tid);
    }

    fn mfence(&self) {
        self.tick();
        let pending = {
            let inner = self.inner.borrow();
            inner.machine.flush_buffer_pending(inner.current_tid)
        };
        if pending {
            self.flush_point();
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.machine.mfence(inner.current_tid);
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        self.mfence();
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_bytes(addr, &new.to_le_bytes());
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.machine.mfence(inner.current_tid);
        observed
    }

    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.tick();
        let mut inner = self.inner.borrow_mut();
        let base = PmAddr::new(inner.bump).align_up(align);
        match base.offset().checked_add(size) {
            Some(end) if end <= self.pool_size => {
                inner.bump = end;
                base
            }
            _ => panic_any(YatBugSignal(format!("pm_alloc({size}) exhausted pool"))),
        }
    }

    fn root(&self) -> PmAddr {
        PmAddr::new(NULL_PAGE_SIZE)
    }

    fn pool_size(&self) -> u64 {
        self.pool_size
    }

    fn execution_index(&self) -> usize {
        0
    }

    fn bug(&self, msg: &str) -> ! {
        panic_any(YatBugSignal(msg.to_string()))
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        let old = {
            let mut inner = self.inner.borrow_mut();
            let old = inner.current_tid;
            inner.current_tid = ThreadId(inner.next_tid);
            inner.next_tid += 1;
            old
        };
        body(self);
        self.inner.borrow_mut().current_tid = old;
    }
}

/// A concrete post-failure environment: recovery runs against one
/// materialized persistent-memory state, with no further nondeterminism
/// and no further failures (Yat explores single-failure scenarios).
pub(crate) struct ConcreteEnv {
    pool: RefCell<PmPool>,
    bump: RefCell<u64>,
    ops: RefCell<u64>,
}

impl ConcreteEnv {
    pub(crate) fn new(pool: PmPool) -> Self {
        ConcreteEnv {
            pool: RefCell::new(pool),
            bump: RefCell::new(2 * CACHE_LINE_SIZE as u64),
            ops: RefCell::new(0),
        }
    }

    fn tick(&self) {
        let mut ops = self.ops.borrow_mut();
        *ops += 1;
        if *ops > MAX_OPS {
            drop(ops);
            panic_any(YatBugSignal("infinite loop in recovery execution".into()));
        }
    }
}

impl PmEnv for ConcreteEnv {
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.tick();
        if let Err(e) = self.pool.borrow().read(addr, buf) {
            panic_any(YatBugSignal(e.to_string()));
        }
    }

    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.tick();
        if let Err(e) = self.pool.borrow_mut().write(addr, bytes) {
            panic_any(YatBugSignal(e.to_string()));
        }
    }

    fn clflush(&self, _addr: PmAddr, _len: usize) {
        self.tick();
    }

    fn clflushopt(&self, _addr: PmAddr, _len: usize) {
        self.tick();
    }

    fn sfence(&self) {
        self.tick();
    }

    fn mfence(&self) {
        self.tick();
    }

    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_u64(addr, new);
        }
        observed
    }

    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.tick();
        let mut bump = self.bump.borrow_mut();
        let base = PmAddr::new(*bump).align_up(align);
        match base.offset().checked_add(size) {
            Some(end) if end <= self.pool.borrow().size() => {
                *bump = end;
                base
            }
            _ => panic_any(YatBugSignal(format!("pm_alloc({size}) exhausted pool"))),
        }
    }

    fn root(&self) -> PmAddr {
        PmAddr::new(NULL_PAGE_SIZE)
    }

    fn pool_size(&self) -> u64 {
        self.pool.borrow().size()
    }

    fn execution_index(&self) -> usize {
        1
    }

    fn bug(&self, msg: &str) -> ! {
        panic_any(YatBugSignal(msg.to_string()))
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        body(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn pre_failure_env_counts_points_like_jaaru() {
        let env = PreFailureEnv::new(4096, None);
        let a = env.root();
        env.store_u64(a, 1);
        env.clflush(a, 8); // point 0
        env.clflush(a, 8); // skipped: no writes since point 0
        env.store_u64(a, 2);
        env.clflush(a, 8); // point 1
        env.end_point(); // point 2
        assert_eq!(env.points_seen(), 3);
    }

    #[test]
    fn crash_at_designated_point() {
        let env = PreFailureEnv::new(4096, Some(1));
        let a = env.root();
        let err = catch_unwind(AssertUnwindSafe(|| {
            env.store_u64(a, 1);
            env.clflush(a, 8); // point 0: continue
            env.store_u64(a, 2);
            env.clflush(a, 8); // point 1: crash
            unreachable!("crashed above");
        }))
        .unwrap_err();
        assert!(err.is::<YatCrash>());
        let storage = env.into_storage();
        // The second store executed before the crash (Eager eviction) but
        // the second clflush did not.
        assert_eq!(storage.store_count(), 2);
        assert_eq!(storage.last_cache_value(a), Some(2));
    }

    #[test]
    fn concrete_env_is_plain_memory() {
        let pool = PmPool::new(4096);
        let env = ConcreteEnv::new(pool);
        let a = env.root();
        assert_eq!(env.load_u64(a), 0);
        env.store_u64(a, 9);
        assert_eq!(env.load_u64(a), 9);
        assert!(env.is_recovery());
    }

    #[test]
    fn concrete_env_reports_illegal_access() {
        let env = ConcreteEnv::new(PmPool::new(4096));
        let err = catch_unwind(AssertUnwindSafe(|| env.load_u8(PmAddr::NULL))).unwrap_err();
        let sig = err.downcast::<YatBugSignal>().expect("bug signal");
        assert!(sig.0.contains("null page"));
    }
}
