//! A PMTest-like single-execution annotation checker.
//!
//! PMTest (Liu et al., ASPLOS '19) has developers annotate their program
//! with checking rules — `isPersist` (this range is persistent now) and
//! `isOrderedBefore` (range A persists before range B) — and verifies the
//! rules over one concrete execution. It is fast (no store-buffer
//! simulation, no state exploration) but finds only violations of the
//! annotated rules on the executed path: unannotated bugs and bugs that
//! need a specific crash state are missed. The Jaaru paper's comparison
//! (PMTest: 1 correctness bug; Jaaru: 18+) rests on exactly this
//! asymmetry.
//!
//! Programs written against [`jaaru::PmEnv`] carry their annotations via
//! the `annotate_*` hooks, which are no-ops under every other runtime.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::panic::Location;

use jaaru::{PmAddr, PmEnv, PmPool, Program};
use jaaru_pmem::CacheLineId;

/// Persistency state PMTest tracks per cache line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LineState {
    /// Ticks of the most recent store to the line (0 = never stored).
    last_store: u64,
    /// Ticks of the most recent flush instruction (0 = never flushed).
    last_flush: u64,
    /// Tick at which the line's most recent persist completed (flush
    /// followed by fence), 0 if never.
    persisted_at: u64,
    /// Whether a flush has been issued but not yet fenced.
    flush_in_flight: bool,
}

impl LineState {
    fn is_dirty(&self) -> bool {
        self.last_store > 0 && self.persisted_at < self.last_store
    }
}

/// A violation of an annotated rule (or a flush-hygiene warning).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmTestViolation {
    /// `annotate_expect_persisted` saw unpersisted data.
    NotPersisted {
        /// Start of the annotated range.
        addr: PmAddr,
        /// Length of the annotated range.
        len: usize,
        /// Annotation site.
        location: String,
    },
    /// `annotate_expect_ordered` saw B persist no later than A.
    OrderViolation {
        /// Range that must persist first.
        first: PmAddr,
        /// Range that must persist second.
        second: PmAddr,
        /// Annotation site.
        location: String,
    },
    /// A flush of a line with no dirty data (performance bug class, as
    /// reported by PMTest/pmemcheck).
    RedundantFlush {
        /// Flushed address.
        addr: PmAddr,
        /// Flush site.
        location: String,
    },
}

impl fmt::Display for PmTestViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmTestViolation::NotPersisted {
                addr,
                len,
                location,
            } => {
                write!(
                    f,
                    "isPersist failed: {len} bytes at {addr} not persistent ({location})"
                )
            }
            PmTestViolation::OrderViolation {
                first,
                second,
                location,
            } => {
                write!(
                    f,
                    "isOrderedBefore failed: {first} !< {second} ({location})"
                )
            }
            PmTestViolation::RedundantFlush { addr, location } => {
                write!(f, "redundant flush of clean line at {addr} ({location})")
            }
        }
    }
}

/// Result of a PMTest-like run.
#[derive(Clone, Debug, Default)]
pub struct PmTestReport {
    /// Rule violations, in program order.
    pub violations: Vec<PmTestViolation>,
    /// Whether the (single) execution completed without a guest crash.
    pub completed: bool,
    /// Message of the guest crash, if any.
    pub crash_message: Option<String>,
}

impl PmTestReport {
    /// `true` when no violation was recorded and the run completed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.completed
    }

    /// Violations that indicate correctness (not performance) problems.
    pub fn correctness_violations(&self) -> impl Iterator<Item = &PmTestViolation> {
        self.violations
            .iter()
            .filter(|v| !matches!(v, PmTestViolation::RedundantFlush { .. }))
    }
}

struct PmTestEnv {
    pool: RefCell<PmPool>,
    lines: RefCell<HashMap<CacheLineId, LineState>>,
    tick: RefCell<u64>,
    violations: RefCell<Vec<PmTestViolation>>,
}

impl PmTestEnv {
    fn new(pool_size: usize) -> Self {
        PmTestEnv {
            pool: RefCell::new(PmPool::new(pool_size)),
            lines: RefCell::new(HashMap::new()),
            tick: RefCell::new(0),
            violations: RefCell::new(Vec::new()),
        }
    }

    fn bump(&self) -> u64 {
        let mut t = self.tick.borrow_mut();
        *t += 1;
        *t
    }

    fn lines_of(addr: PmAddr, len: usize) -> impl Iterator<Item = CacheLineId> {
        let first = addr.cache_line().index();
        let last = (addr + (len.max(1) as u64 - 1)).cache_line().index();
        (first..=last).map(CacheLineId::new)
    }

    fn flush(&self, addr: PmAddr, len: usize, loc: &'static Location<'static>) {
        let t = self.bump();
        let mut lines = self.lines.borrow_mut();
        for line in Self::lines_of(addr, len) {
            let st = lines.entry(line).or_default();
            if !st.is_dirty() {
                self.violations
                    .borrow_mut()
                    .push(PmTestViolation::RedundantFlush {
                        addr,
                        location: loc.to_string(),
                    });
            }
            st.last_flush = t;
            st.flush_in_flight = true;
        }
    }

    fn fence(&self) {
        let t = self.bump();
        let mut lines = self.lines.borrow_mut();
        for st in lines.values_mut() {
            if st.flush_in_flight {
                st.flush_in_flight = false;
                // The persist covers stores up to the flush instruction.
                if st.last_flush >= st.last_store {
                    st.persisted_at = t;
                }
            }
        }
    }
}

impl PmEnv for PmTestEnv {
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.pool
            .borrow()
            .read(addr, buf)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.pool
            .borrow_mut()
            .write(addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
        let t = self.bump();
        let mut lines = self.lines.borrow_mut();
        for line in Self::lines_of(addr, bytes.len()) {
            lines.entry(line).or_default().last_store = t;
        }
    }

    #[track_caller]
    fn clflush(&self, addr: PmAddr, len: usize) {
        // clflush needs no fence; model it as an immediately fenced flush.
        self.flush(addr, len, Location::caller());
        let t = self.bump();
        let mut lines = self.lines.borrow_mut();
        for line in Self::lines_of(addr, len) {
            let st = lines.entry(line).or_default();
            st.flush_in_flight = false;
            if st.last_flush >= st.last_store {
                st.persisted_at = t;
            }
        }
    }

    #[track_caller]
    fn clflushopt(&self, addr: PmAddr, len: usize) {
        self.flush(addr, len, Location::caller());
    }

    fn sfence(&self) {
        self.fence();
    }

    fn mfence(&self) {
        self.fence();
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
        self.pool
            .borrow_mut()
            .alloc(size, align)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn root(&self) -> PmAddr {
        self.pool.borrow().root()
    }

    fn pool_size(&self) -> u64 {
        self.pool.borrow().size()
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

    #[track_caller]
    fn annotate_expect_persisted(&self, addr: PmAddr, len: usize) {
        let lines = self.lines.borrow();
        let dirty = Self::lines_of(addr, len).any(|l| {
            lines
                .get(&l)
                .is_some_and(|st| st.is_dirty() || st.flush_in_flight)
        });
        if dirty {
            self.violations
                .borrow_mut()
                .push(PmTestViolation::NotPersisted {
                    addr,
                    len,
                    location: Location::caller().to_string(),
                });
        }
    }

    #[track_caller]
    fn annotate_expect_ordered(&self, a: PmAddr, a_len: usize, b: PmAddr, b_len: usize) {
        let lines = self.lines.borrow();
        let persist_of = |addr: PmAddr, len: usize| {
            Self::lines_of(addr, len)
                .map(|l| lines.get(&l).map(|st| st.persisted_at).unwrap_or(0))
                .max()
                .unwrap_or(0)
        };
        let pa = persist_of(a, a_len);
        let pb = persist_of(b, b_len);
        // A must already be persistent, strictly before B's persist (a
        // still-unpersisted B is fine — it is "not yet ordered wrong").
        let violated = (pb > 0 && (pa == 0 || pa > pb))
            || (pb == 0 && pa == 0 && lines_dirty(&lines, a, a_len));
        if violated {
            self.violations
                .borrow_mut()
                .push(PmTestViolation::OrderViolation {
                    first: a,
                    second: b,
                    location: Location::caller().to_string(),
                });
        }
    }
}

fn lines_dirty(lines: &HashMap<CacheLineId, LineState>, addr: PmAddr, len: usize) -> bool {
    PmTestEnv::lines_of(addr, len).any(|l| lines.get(&l).is_some_and(LineState::is_dirty))
}

/// Runs `program` once under the PMTest-like checker.
///
/// # Example
///
/// ```
/// use jaaru::PmEnv;
/// use jaaru_testers::pmtest_check;
///
/// let annotated = |env: &dyn PmEnv| {
///     let root = env.root();
///     env.store_u64(root, 1);
///     // Forgot the flush; the annotation catches it on this execution.
///     env.annotate_expect_persisted(root, 8);
/// };
/// let report = pmtest_check(&annotated, 4096);
/// assert_eq!(report.violations.len(), 1);
/// ```
pub fn pmtest_check(program: &dyn Program, pool_size: usize) -> PmTestReport {
    let env = PmTestEnv::new(pool_size);
    let outcome = jaaru::with_quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program.run(&env)))
    });
    let mut report = PmTestReport {
        violations: env.violations.into_inner(),
        completed: outcome.is_ok(),
        crash_message: None,
    };
    if let Err(p) = outcome {
        report.crash_message = Some(crate::panic_text(p.as_ref()));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persisted_annotation_passes_after_flush_and_fence() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflushopt(root, 8);
            env.sfence();
            env.annotate_expect_persisted(root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn persisted_annotation_fails_without_fence() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflushopt(root, 8);
            // Missing sfence: the flush is still in flight.
            env.annotate_expect_persisted(root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            PmTestViolation::NotPersisted { .. }
        ));
    }

    #[test]
    fn clflush_alone_satisfies_persist() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.annotate_expect_persisted(root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert!(report.correctness_violations().count() == 0, "{report:?}");
    }

    #[test]
    fn order_annotation_catches_inverted_persists() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            // Persist the commit flag before the data: wrong order.
            env.store_u64(root, 1);
            env.persist(root, 8);
            env.store_u64(data, 42);
            env.persist(data, 8);
            env.annotate_expect_ordered(data, 8, root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert_eq!(report.correctness_violations().count(), 1, "{report:?}");
    }

    #[test]
    fn order_annotation_passes_for_correct_order() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            env.store_u64(data, 42);
            env.persist(data, 8);
            env.store_u64(root, 1);
            env.persist(root, 8);
            env.annotate_expect_ordered(data, 8, root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn redundant_flush_is_flagged_as_performance_issue() {
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            env.store_u64(root, 1);
            env.clflush(root, 8);
            env.clflush(root, 8); // nothing dirty: redundant
        };
        let report = pmtest_check(&program, 4096);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            PmTestViolation::RedundantFlush { .. }
        ));
        assert_eq!(report.correctness_violations().count(), 0);
    }

    #[test]
    fn unannotated_missing_flush_is_missed() {
        // The same bug Jaaru finds automatically is invisible to PMTest
        // without an annotation — the comparison the paper draws.
        let program = |env: &dyn PmEnv| {
            let root = env.root();
            let data = root + 64;
            env.store_u64(data, 42);
            env.store_u64(root, 1); // commit before persisting data
            env.persist(root, 8);
        };
        let report = pmtest_check(&program, 4096);
        assert!(
            report.is_clean(),
            "no annotation → no violation: {report:?}"
        );
    }

    #[test]
    fn guest_crash_is_reported() {
        let program = |env: &dyn PmEnv| {
            env.bug("broken");
        };
        let report = pmtest_check(&program, 4096);
        assert!(!report.completed);
        assert!(report.crash_message.as_deref().unwrap().contains("broken"));
    }
}
