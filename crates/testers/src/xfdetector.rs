//! An XFDetector-like cross-failure bug detector.
//!
//! XFDetector (Liu et al., ASPLOS '20) tracks the persistency of PM data
//! with a shadow memory and, around developer-annotated *commit variable*
//! updates, injects a failure and checks whether the post-failure
//! execution reads data that had not been persisted at the failure — a
//! *cross-failure read*. It explores one post-failure state per injected
//! failure (the state where nothing unflushed persisted), supports a
//! single failure, and needs annotations — three limitations the Jaaru
//! paper contrasts with exhaustive model checking.
//!
//! Programs register their commit variables with
//! [`jaaru::PmEnv::annotate_commit_var`]; every other runtime ignores the
//! hook.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};

use jaaru::{PmAddr, PmEnv, PmPool, Program};
use jaaru_pmem::CacheLineId;

/// A cross-failure violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XfViolation {
    /// The post-failure execution read data that was not persistent at
    /// the injected failure.
    CrossFailureRead {
        /// First dirty byte that was read.
        addr: PmAddr,
        /// Source location of the reading load.
        load_location: String,
        /// Which commit point's failure exposed it.
        commit_point: usize,
    },
    /// The post-failure execution crashed outright.
    RecoveryFailure {
        /// Crash description.
        message: String,
        /// Which commit point's failure exposed it.
        commit_point: usize,
    },
}

impl fmt::Display for XfViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XfViolation::CrossFailureRead {
                addr,
                load_location,
                commit_point,
            } => write!(
                f,
                "cross-failure read of unpersisted byte {addr} at {load_location} \
                 (failure after commit point {commit_point})"
            ),
            XfViolation::RecoveryFailure {
                message,
                commit_point,
            } => write!(
                f,
                "recovery failed after commit point {commit_point}: {message}"
            ),
        }
    }
}

/// Result of an XFDetector-like run.
#[derive(Clone, Debug, Default)]
pub struct XfReport {
    /// Violations, deduplicated by (kind, location/message).
    pub violations: Vec<XfViolation>,
    /// Number of annotated commit points seen (failures injected).
    pub commit_points: usize,
}

impl XfReport {
    /// `true` when no violation was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Pre-failure shadow-memory environment: cache image + persisted image.
struct XfPreEnv {
    cache: RefCell<PmPool>,
    persisted: RefCell<PmPool>,
    /// Lines with a flush issued but no fence yet.
    pending: RefCell<HashSet<CacheLineId>>,
    op_index: RefCell<usize>,
    /// Stop (via panic) once this op index has executed.
    stop_after: Option<usize>,
    /// Op indices of stores to annotated commit variables.
    commit_ops: RefCell<Vec<usize>>,
    commit_vars: RefCell<HashSet<PmAddr>>,
    bump: RefCell<u64>,
}

struct XfStop;

impl XfPreEnv {
    fn new(pool_size: usize, stop_after: Option<usize>) -> Self {
        XfPreEnv {
            cache: RefCell::new(PmPool::new(pool_size)),
            persisted: RefCell::new(PmPool::new(pool_size)),
            pending: RefCell::new(HashSet::new()),
            op_index: RefCell::new(0),
            stop_after,
            commit_ops: RefCell::new(Vec::new()),
            commit_vars: RefCell::new(HashSet::new()),
            bump: RefCell::new(128),
        }
    }

    fn tick(&self) -> usize {
        let mut op = self.op_index.borrow_mut();
        *op += 1;
        let current = *op - 1;
        if *op > 10_000_000 {
            panic!("infinite loop in pre-failure execution");
        }
        current
    }

    fn maybe_stop(&self, executed: usize) {
        if self.stop_after == Some(executed) {
            std::panic::panic_any(XfStop);
        }
    }

    fn lines_of(addr: PmAddr, len: usize) -> impl Iterator<Item = CacheLineId> {
        let first = addr.cache_line().index();
        let last = (addr + (len.max(1) as u64 - 1)).cache_line().index();
        (first..=last).map(CacheLineId::new)
    }

    fn persist_line(&self, line: CacheLineId) {
        let cache = self.cache.borrow();
        let mut persisted = self.persisted.borrow_mut();
        for addr in line.bytes() {
            if let Ok(v) = cache.read_u8(addr) {
                let _ = persisted.write_u8(addr, v);
            }
        }
    }

    fn fence(&self) {
        let pending: Vec<CacheLineId> = self.pending.borrow_mut().drain().collect();
        for line in pending {
            self.persist_line(line);
        }
    }
}

impl PmEnv for XfPreEnv {
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        let op = self.tick();
        self.cache
            .borrow()
            .read(addr, buf)
            .unwrap_or_else(|e| panic!("{e}"));
        self.maybe_stop(op);
    }

    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        let op = self.tick();
        self.cache
            .borrow_mut()
            .write(addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
        let is_commit = {
            let vars = self.commit_vars.borrow();
            (0..bytes.len() as u64).any(|i| vars.contains(&(addr + i)))
        };
        if is_commit {
            self.commit_ops.borrow_mut().push(op);
        }
        self.maybe_stop(op);
    }

    fn clflush(&self, addr: PmAddr, len: usize) {
        let op = self.tick();
        for line in Self::lines_of(addr, len) {
            self.persist_line(line);
        }
        self.maybe_stop(op);
    }

    fn clflushopt(&self, addr: PmAddr, len: usize) {
        let op = self.tick();
        let mut pending = self.pending.borrow_mut();
        for line in Self::lines_of(addr, len) {
            pending.insert(line);
        }
        drop(pending);
        self.maybe_stop(op);
    }

    fn sfence(&self) {
        let op = self.tick();
        self.fence();
        self.maybe_stop(op);
    }

    fn mfence(&self) {
        let op = self.tick();
        self.fence();
        self.maybe_stop(op);
    }

    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        self.fence();
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_u64(addr, new);
        }
        self.fence();
        observed
    }

    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        let _ = self.tick();
        let mut bump = self.bump.borrow_mut();
        let base = PmAddr::new(*bump).align_up(align);
        *bump = base.offset() + size;
        assert!(*bump <= self.cache.borrow().size(), "pool exhausted");
        base
    }

    fn root(&self) -> PmAddr {
        self.cache.borrow().root()
    }

    fn pool_size(&self) -> u64 {
        self.cache.borrow().size()
    }

    fn execution_index(&self) -> usize {
        0
    }

    fn bug(&self, msg: &str) -> ! {
        panic!("bug: {msg}")
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        body(self);
    }

    fn annotate_commit_var(&self, addr: PmAddr, len: usize) {
        let mut vars = self.commit_vars.borrow_mut();
        for i in 0..len as u64 {
            vars.insert(addr + i);
        }
    }
}

/// Post-failure environment: runs over the persisted image, flagging
/// reads of bytes that were dirty (cache ≠ persisted) at the failure.
struct XfPostEnv {
    memory: RefCell<PmPool>,
    dirty: HashSet<PmAddr>,
    violations: RefCell<Vec<(PmAddr, String)>>,
    bump: RefCell<u64>,
    ops: RefCell<u64>,
}

impl XfPostEnv {
    fn new(memory: PmPool, dirty: HashSet<PmAddr>) -> Self {
        XfPostEnv {
            memory: RefCell::new(memory),
            dirty,
            violations: RefCell::new(Vec::new()),
            bump: RefCell::new(128),
            ops: RefCell::new(0),
        }
    }
}

impl PmEnv for XfPostEnv {
    #[track_caller]
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        {
            let mut ops = self.ops.borrow_mut();
            *ops += 1;
            assert!(*ops <= 10_000_000, "infinite loop in recovery execution");
        }
        self.memory
            .borrow()
            .read(addr, buf)
            .unwrap_or_else(|e| panic!("{e}"));
        if let Some(first_dirty) = (0..buf.len() as u64)
            .map(|i| addr + i)
            .find(|a| self.dirty.contains(a))
        {
            self.violations
                .borrow_mut()
                .push((first_dirty, Location::caller().to_string()));
        }
    }

    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.memory
            .borrow_mut()
            .write(addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn clflush(&self, _addr: PmAddr, _len: usize) {}
    fn clflushopt(&self, _addr: PmAddr, _len: usize) {}
    fn sfence(&self) {}
    fn mfence(&self) {}

    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_u64(addr, new);
        }
        observed
    }

    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        let mut bump = self.bump.borrow_mut();
        let base = PmAddr::new(*bump).align_up(align);
        *bump = base.offset() + size;
        assert!(*bump <= self.memory.borrow().size(), "pool exhausted");
        base
    }

    fn root(&self) -> PmAddr {
        self.memory.borrow().root()
    }

    fn pool_size(&self) -> u64 {
        self.memory.borrow().size()
    }

    fn execution_index(&self) -> usize {
        1
    }

    fn bug(&self, msg: &str) -> ! {
        panic!("bug: {msg}")
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        body(self);
    }
}

/// Runs the XFDetector-like analysis: one pre-failure execution to locate
/// annotated commit points, then one failure per commit point with a
/// single canonical post-failure state (only fenced flushes persisted).
///
/// # Example
///
/// ```
/// use jaaru::PmEnv;
/// use jaaru_testers::xfdetector_check;
///
/// let program = |env: &dyn PmEnv| {
///     let root = env.root();
///     let data = root + 64;
///     env.annotate_commit_var(root, 8);
///     if env.load_u64(root) != 0 {
///         let _ = env.load_u64(data); // reads unpersisted data
///         return;
///     }
///     env.store_u64(data, 42);
///     // BUG: data not flushed before the commit store.
///     env.store_u64(root, 1);
///     env.persist(root, 8);
/// };
/// let report = xfdetector_check(&program, 4096);
/// assert!(!report.is_clean());
/// ```
pub fn xfdetector_check(program: &dyn Program, pool_size: usize) -> XfReport {
    let mut report = XfReport::default();

    // Pass 1: find commit points.
    let probe = XfPreEnv::new(pool_size, None);
    if jaaru::with_quiet_panics(|| catch_unwind(AssertUnwindSafe(|| program.run(&probe)))).is_err()
    {
        // The program fails on its own; XFDetector reports nothing useful.
        return report;
    }
    let commit_ops = probe.commit_ops.into_inner();
    report.commit_points = commit_ops.len();

    // Pass 2: one failure per commit point. XFDetector injects the failure
    // after the commit update completes (including its flush/fence, i.e.
    // after the next fence when there is one); we conservatively inject at
    // the first fence after the commit store, or at the store itself when
    // no fence follows.
    for (idx, &commit_op) in commit_ops.iter().enumerate() {
        let env = XfPreEnv::new(pool_size, Some(commit_op));
        let out = jaaru::with_quiet_panics(|| catch_unwind(AssertUnwindSafe(|| program.run(&env))));
        match out {
            Err(p) if p.is::<XfStop>() => {}
            _ => continue, // nondeterministic or completed early
        }
        // Persist the commit variable's line (the failure happens after
        // the commit update is made persistent, XFDetector's model).
        {
            let vars: Vec<PmAddr> = env.commit_vars.borrow().iter().copied().collect();
            for v in vars {
                env.persist_line(v.cache_line());
            }
        }
        let cache = env.cache.borrow().clone();
        let persisted = env.persisted.borrow().clone();
        let dirty: HashSet<PmAddr> = (0..cache.size())
            .map(PmAddr::new)
            .filter(|a| !a.in_null_page() && cache.read_u8(*a).ok() != persisted.read_u8(*a).ok())
            .collect();

        let post = XfPostEnv::new(persisted, dirty);
        let out =
            jaaru::with_quiet_panics(|| catch_unwind(AssertUnwindSafe(|| program.run(&post))));
        for (addr, load_location) in post.violations.into_inner() {
            let v = XfViolation::CrossFailureRead {
                addr,
                load_location,
                commit_point: idx,
            };
            if !report.violations.contains(&v) {
                report.violations.push(v);
            }
        }
        if let Err(p) = out {
            let v = XfViolation::RecoveryFailure {
                message: crate::panic_text(p.as_ref()),
                commit_point: idx,
            };
            if !report.violations.contains(&v) {
                report.violations.push(v);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_commit_pattern_is_clean() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            env.annotate_commit_var(root, 8);
            if env.load_u64(root) != 0 {
                let v = env.load_u64(data);
                env.pm_assert(v == 42, "lost data");
                return;
            }
            env.store_u64(data, 42);
            env.persist(data, 8);
            env.store_u64(root, 1);
            env.persist(root, 8);
        };
        let report = xfdetector_check(&program, 4096);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.commit_points, 1);
    }

    #[test]
    fn cross_failure_read_is_detected() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            env.annotate_commit_var(root, 8);
            if env.load_u64(root) != 0 {
                let _ = env.load_u64(data);
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(root, 1); // commit before data persisted
            env.persist(root, 8);
        };
        let report = xfdetector_check(&program, 4096);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, XfViolation::CrossFailureRead { .. })));
    }

    #[test]
    fn unannotated_program_injects_no_failures() {
        // Without commit-variable annotations XFDetector has nowhere to
        // inject — the annotation burden the paper criticizes.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            if env.load_u64(root) != 0 {
                let _ = env.load_u64(data);
                return;
            }
            env.store_u64(data, 42);
            env.store_u64(root, 1);
            env.persist(root, 8);
        };
        let report = xfdetector_check(&program, 4096);
        assert_eq!(report.commit_points, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn recovery_crash_is_reported() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let ptr_slot = root + 64; // separate line: not persisted with the commit
            env.annotate_commit_var(root, 8);
            if env.load_u64(root) != 0 {
                // Follow a pointer that was never persisted → null page.
                let p = env.load_addr(ptr_slot);
                let _ = env.load_u64(p);
                return;
            }
            let node = env.pm_alloc(8, 8);
            env.store_u64(node, 7);
            env.store_addr(ptr_slot, node);
            env.store_u64(root, 1);
            env.persist(root, 8);
        };
        let report = xfdetector_check(&program, 4096);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, XfViolation::RecoveryFailure { .. })),
            "{report:?}"
        );
    }
}
