//! The scheduler shared by the workers of one check.
//!
//! A *work item* is a subtree of the decision tree: a decision log whose
//! floor fixes the path to the subtree's root (with the metadata recorded
//! by the run that made those decisions), plus the checkpoint of the
//! deepest crash that path takes. The root item is the whole tree. Each
//! worker walks its item depth-first; when it sees an idle peer, it
//! splits off every untaken alternative of its shallowest open decision
//! ([`DecisionLog::split`](crate::decision::DecisionLog::split)) into
//! the shared pool, and its own floor rises past that decision. The
//! donated subtrees and what the donor keeps partition what the donor
//! had left, so every leaf is visited exactly once at any worker count.
//!
//! Exploration ends when every worker is idle and the pool is empty.
//! Budgets ([`Config::max_scenarios`](crate::Config::max_scenarios),
//! [`Config::max_bugs`](crate::Config::max_bugs),
//! [`Config::stop_on_first_bug`](crate::Config::stop_on_first_bug)) and
//! the external abort flag are enforced here for every worker count: a
//! worker *claims* each scenario before running it, and a failed claim
//! means the worker holds unexplored work, so the run is truncated.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::config::Config;
use crate::decision::DecisionLog;
use crate::report::BugKind;
use crate::snapshot::CheckerSnapshot;

/// A worker panicked while holding a scheduler lock; its scope join
/// reports the panic.
const POISONED: &str = "a worker panicked while holding a scheduler lock";

/// One subtree to explore.
pub(crate) struct WorkItem {
    /// The path to the subtree's root, below the log's floor.
    pub decisions: DecisionLog,
    /// The checkpoint of the deepest crash that path takes; `None` for
    /// the root item and when snapshots are off.
    pub checkpoint: Option<Arc<CheckerSnapshot>>,
    /// The worker that donated the item (`None` for the root).
    pub donor: Option<usize>,
}

/// The donated items and the workers waiting for one.
#[derive(Default)]
struct Pool {
    items: Vec<WorkItem>,
    idle: usize,
    done: bool,
}

/// Shared scheduler state for one check.
pub(crate) struct Scheduler {
    jobs: usize,
    pool: Mutex<Pool>,
    wake: Condvar,
    /// Idle workers the pool holds no item for; read without the lock.
    wanted: AtomicUsize,
    /// Raised when exploration must wind down (budget/bug limits).
    stop: AtomicBool,
    /// Whether stopping left unexplored work behind.
    truncated: AtomicBool,
    /// Remaining scenario budget (claims decrement).
    scenario_budget: AtomicU64,
    bug_limit: usize,
    stop_on_first_bug: bool,
    bug_keys: Mutex<HashSet<(BugKind, String)>>,
    /// External cooperative abort (deadline/cancellation), observed at
    /// each claim.
    abort: Option<Arc<AtomicBool>>,
}

impl Scheduler {
    /// A scheduler for `jobs` workers whose pool holds the root item.
    pub fn new(jobs: usize, config: &Config, abort: Option<Arc<AtomicBool>>) -> Self {
        let root = WorkItem {
            decisions: DecisionLog::new(),
            checkpoint: None,
            donor: None,
        };
        Scheduler {
            jobs,
            pool: Mutex::new(Pool {
                items: vec![root],
                ..Pool::default()
            }),
            wake: Condvar::new(),
            wanted: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            scenario_budget: AtomicU64::new(config.scenario_limit()),
            bug_limit: config.bug_limit(),
            stop_on_first_bug: config.stop_on_first_bug_value(),
            bug_keys: Mutex::new(HashSet::new()),
            abort,
        }
    }

    /// Whether exploration stopped with work left behind.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Acquire)
    }

    /// Takes an item from the pool, waiting while peers may still donate
    /// one. `None` once the tree is exhausted (every worker idle, the
    /// pool empty) or exploration stopped.
    pub fn take(&self) -> Option<WorkItem> {
        let mut pool = self.pool();
        loop {
            if pool.done || self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(item) = pool.items.pop() {
                self.update_wanted(&pool);
                return Some(item);
            }
            pool.idle += 1;
            if pool.idle == self.jobs {
                pool.done = true;
                self.wake.notify_all();
                return None;
            }
            self.update_wanted(&pool);
            pool = self.wake.wait(pool).expect(POISONED);
            pool.idle -= 1;
        }
    }

    /// Whether an idle peer is waiting for work the pool does not hold.
    pub fn hungry(&self) -> bool {
        self.wanted.load(Ordering::Relaxed) > 0
    }

    /// Adds donated items to the pool and wakes idle peers.
    pub fn donate(&self, items: Vec<WorkItem>) {
        if items.is_empty() {
            return;
        }
        let mut pool = self.pool();
        pool.items.extend(items);
        self.update_wanted(&pool);
        self.wake.notify_all();
    }

    fn pool(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().expect(POISONED)
    }

    fn update_wanted(&self, pool: &Pool) {
        let wanted = pool.idle.saturating_sub(pool.items.len());
        self.wanted.store(wanted, Ordering::Relaxed);
    }

    /// Claims one scenario slot. Fails, and marks the run truncated
    /// since the caller holds unexplored work, once exploration stopped,
    /// was aborted, or spent its scenario budget.
    pub fn claim_scenario(&self) -> bool {
        let aborted = self
            .abort
            .as_ref()
            .is_some_and(|a| a.load(Ordering::Relaxed));
        let claimed = !aborted
            && !self.stop.load(Ordering::Acquire)
            && self
                .scenario_budget
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
                .is_ok();
        if !claimed {
            self.halt();
        }
        claimed
    }

    /// Records a found bug's dedup key and applies the bug limits.
    pub fn record_bug(&self, key: (BugKind, String)) {
        let mut keys = self.bug_keys.lock().expect(POISONED);
        keys.insert(key);
        if self.stop_on_first_bug || keys.len() >= self.bug_limit {
            self.halt();
        }
    }

    /// Stops exploration with work left behind and wakes idle workers so
    /// they exit.
    fn halt(&self) {
        self.truncated.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        let _pool = self.pool();
        self.wake.notify_all();
    }
}
