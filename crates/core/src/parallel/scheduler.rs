//! The shared work-stealing scheduler.
//!
//! A *work item* is a decision-trace prefix naming one unexplored
//! scenario: replaying the prefix (fresh decisions default to
//! alternative 0) runs exactly one leaf of the decision tree, and the
//! fresh decisions' untaken alternatives become new items
//! (`DecisionLog::sibling_prefixes`). With snapshots on, an item also
//! carries the checkpoint of the deepest crash its prefix takes, so the
//! scenario resumes there instead of replaying.
//! Starting from the root (empty) prefix, this enumerates every leaf
//! exactly once, in any order — which is what makes the frontier safe to
//! distribute.
//!
//! Each worker owns a deque: it pushes and pops at the back (LIFO keeps
//! the working set deep and cache-warm, like the sequential DFS), while
//! idle workers steal from the front of a victim's deque (FIFO steals
//! take the shallowest — largest — subtrees, minimizing steal traffic).
//! Termination uses a single `pending` counter of items created but not
//! yet completed: children are registered *before* their parent
//! completes, so `pending == 0` is only reachable when the tree is
//! exhausted.
//!
//! Exploration budgets ([`Config::max_scenarios`](crate::Config::max_scenarios),
//! [`Config::max_bugs`](crate::Config::max_bugs),
//! [`Config::stop_on_first_bug`](crate::Config::stop_on_first_bug)) are
//! enforced through shared atomics so early-exit semantics survive
//! parallelism: a worker *claims* a scenario slot before running and
//! raises the stop flag when the budget is exhausted or the bug limit is
//! reached.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::Config;
use crate::report::BugKind;
use crate::snapshot::CheckerSnapshot;

/// One unexplored scenario: the decision-trace prefix that steers to it.
pub(crate) struct WorkItem {
    pub trace: Vec<usize>,
    /// The checkpoint of the deepest crash `trace` takes; `None` for the
    /// root item and when snapshots are off. Shared by the read-from
    /// siblings below that crash, and freed when the last of them is done.
    pub checkpoint: Option<Arc<CheckerSnapshot>>,
}

/// Shared scheduler state for one parallel check.
pub(crate) struct Scheduler {
    queues: Vec<Mutex<VecDeque<WorkItem>>>,
    /// Items created but not yet completed.
    pending: AtomicUsize,
    /// Raised when exploration must wind down (budget/bug limits).
    stop: AtomicBool,
    /// Whether stopping left unexplored work behind.
    truncated: AtomicBool,
    /// Remaining scenario budget (claims decrement).
    scenario_budget: AtomicU64,
    bug_limit: usize,
    stop_on_first_bug: bool,
    bug_keys: Mutex<HashSet<(BugKind, String)>>,
    /// External cooperative abort (deadline/cancellation); observed in
    /// [`stopped`](Self::stopped) and folded into the stop/truncated
    /// flags like an exhausted budget.
    abort: Option<Arc<AtomicBool>>,
}

impl Scheduler {
    /// A scheduler for `jobs` workers, seeded with the root work item.
    pub fn new(jobs: usize, config: &Config, abort: Option<Arc<AtomicBool>>) -> Self {
        let mut queues: Vec<Mutex<VecDeque<WorkItem>>> =
            (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
        queues[0].get_mut().unwrap().push_back(WorkItem {
            trace: Vec::new(),
            checkpoint: None,
        });
        Scheduler {
            queues,
            pending: AtomicUsize::new(1),
            stop: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            scenario_budget: AtomicU64::new(config.scenario_limit()),
            bug_limit: config.bug_limit(),
            stop_on_first_bug: config.stop_on_first_bug_value(),
            bug_keys: Mutex::new(HashSet::new()),
            abort,
        }
    }

    /// Whether workers should wind down.
    pub fn stopped(&self) -> bool {
        if self.stop.load(Ordering::Acquire) {
            return true;
        }
        if let Some(abort) = &self.abort {
            if abort.load(Ordering::Relaxed) {
                // An external abort leaves work behind by construction.
                self.truncated.store(true, Ordering::Release);
                self.stop.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Whether every created item has completed.
    pub fn drained(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Whether exploration stopped with work left behind.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Acquire)
    }

    /// Pops a work item for `worker`: its own queue first (back = deepest,
    /// DFS-like), then a steal sweep over the other queues (front =
    /// shallowest). Returns the item and whether it was stolen.
    pub fn pop(&self, worker: usize) -> Option<(WorkItem, bool)> {
        if let Some(item) = self.queues[worker].lock().unwrap().pop_back() {
            return Some((item, false));
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(item) = self.queues[victim].lock().unwrap().pop_front() {
                return Some((item, true));
            }
        }
        None
    }

    /// Registers `children` as pending and enqueues them on `worker`'s
    /// own queue. Must be called before [`complete`](Self::complete) on
    /// the parent so `pending` never dips to zero while work remains.
    pub fn push_children(&self, worker: usize, children: Vec<WorkItem>) {
        if children.is_empty() {
            return;
        }
        self.pending.fetch_add(children.len(), Ordering::AcqRel);
        let mut queue = self.queues[worker].lock().unwrap();
        for child in children {
            queue.push_back(child);
        }
    }

    /// Marks one item finished.
    pub fn complete(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Claims one scenario slot from the budget. On failure the popped
    /// item is unexplored work: the run is truncated and must stop.
    pub fn claim_scenario(&self) -> bool {
        let claimed = self
            .scenario_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok();
        if !claimed {
            self.truncated.store(true, Ordering::Release);
            self.stop.store(true, Ordering::Release);
        }
        claimed
    }

    /// Records a found bug's dedup key and applies the bug limits.
    pub fn record_bug(&self, key: (BugKind, String)) {
        let mut keys = self.bug_keys.lock().unwrap();
        keys.insert(key);
        if self.stop_on_first_bug || keys.len() >= self.bug_limit {
            self.truncated.store(true, Ordering::Release);
            self.stop.store(true, Ordering::Release);
        }
    }
}
