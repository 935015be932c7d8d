//! The model checker's instrumented environment.
//!
//! [`CheckerEnv`] is the runtime a guest program executes against while
//! being model checked. It routes every operation into the Px86sim
//! simulator (`jaaru-tso`), consults the decision log at each
//! nondeterministic point (failure injection, multi-store loads), and
//! unwinds the execution with a typed panic on simulated power failures
//! and on detected bugs.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::panic::{panic_any, Location};

use jaaru_pmem::{PmAddr, CACHE_LINE_SIZE, NULL_PAGE_SIZE};
use jaaru_tso::{
    do_read, line_parts, read_pre_failure_into, read_pre_failure_line, CrashPrefix,
    ExecutionStorage, OpTrace, RfCandidate, RfSource, SourceLoc, ThreadId, TraceOpKind, TsoMachine,
};

use crate::config::{Config, Lints};
use crate::decision::{ChoiceKind, DecisionLog};
use crate::report::{BugKind, RaceReport};
use crate::signal::{AbortSignal, CrashSignal};
use crate::snapshot::CheckerSnapshot;
use crate::PmEnv;

/// Cap on remembered race reports (debugging aid, not a bug list).
const MAX_RACES: usize = 256;

struct Inner {
    machine: TsoMachine,
    /// Storage of every crashed execution, oldest first (the paper's
    /// `exec` stack minus the running execution).
    stack: Vec<ExecutionStorage>,
    decisions: DecisionLog,

    exec_index: usize,
    ops: u64,
    bump: u64,
    writes_since_point: bool,
    any_writes_this_exec: bool,
    points_this_exec: usize,
    /// Injection points of the scenario's first execution, once it has
    /// crashed.
    failure_points: Option<usize>,
    /// Injection-point ordinal at which each failure was injected.
    crash_points: Vec<usize>,

    current_tid: ThreadId,
    next_tid: u32,

    /// One per load site, in the order the sites first raced.
    races: Vec<RaceReport>,
    load_choice_points: u64,
    max_rf_set: usize,
    /// Reads-from candidates of the byte being chosen for; kept to reuse
    /// its allocation.
    cands: Vec<RfCandidate>,

    /// Per-execution operation traces for the lint engine (empty unless
    /// [`Config::lints`] is on); the last entry is the running execution.
    op_traces: Vec<OpTrace>,

    /// Cache lines recovery read: post-failure loads that missed the
    /// running execution's own state and consulted pre-failure storage.
    /// Collected only for the dead-flush pass
    /// ([`Lints::All`](crate::Lints::All)); accumulates across
    /// executions and participates in snapshots.
    recovery_reads: HashSet<u64>,

    /// Checkpoints captured at this scenario's fresh crash decisions, in
    /// decision order, each with the crash prefix of the running
    /// execution that [`finish`](CheckerEnv::finish) completes it with.
    captures: Vec<(CheckerSnapshot, CrashPrefix)>,
}

/// Per-scenario results harvested by the explorer after a run.
pub(crate) struct ScenarioRecord {
    pub decisions: DecisionLog,
    pub crash_points: Vec<usize>,
    /// Injection points of the scenario's first execution.
    pub failure_points: usize,
    pub races: Vec<RaceReport>,
    pub op_traces: Vec<OpTrace>,
    pub load_choice_points: u64,
    pub max_rf_set: usize,
    /// Cache lines recovery read (empty unless the dead-flush pass is on).
    pub recovery_reads: HashSet<u64>,
    /// The crash-point checkpoints this scenario captured at its fresh
    /// crash decisions (empty when snapshots are off).
    pub captures: Vec<CheckerSnapshot>,
    /// The last execution's storage, for the next scenario to record into
    /// (cleared, keeping its buffers) unless a checkpoint still views its
    /// log.
    pub storage: ExecutionStorage,
}

/// The instrumented environment for one failure scenario.
pub(crate) struct CheckerEnv {
    inner: RefCell<Inner>,
    /// Whether fresh crash decisions capture a checkpoint
    /// ([`Config::snapshots`]).
    capture: bool,
    pool_size: u64,
    max_failures: usize,
    inject_at_end: bool,
    skip_unchanged: bool,
    max_ops: u64,
    flag_races: bool,
    flag_lints: bool,
    /// Whether recovery reads are collected (the dead-flush footprint).
    track_footprint: bool,
    /// Override for recorded trace sites while executing a composite
    /// primitive (locked RMW): the constituent ops carry the guest call
    /// site of the RMW, not the environment-internal one.
    lint_loc: Cell<Option<SourceLoc>>,
}

impl CheckerEnv {
    /// An environment for a scenario steered by `decisions`, whose first
    /// execution records into `storage` (cleared first).
    pub(crate) fn new(config: &Config, decisions: DecisionLog, storage: ExecutionStorage) -> Self {
        CheckerEnv {
            capture: config.snapshots_value(),
            inner: RefCell::new(Inner {
                machine: TsoMachine::with_storage(config.eviction_value(), storage),
                stack: Vec::new(),
                decisions,
                exec_index: 0,
                ops: 0,
                bump: 2 * CACHE_LINE_SIZE as u64,
                writes_since_point: false,
                any_writes_this_exec: false,
                points_this_exec: 0,
                failure_points: None,
                crash_points: Vec::new(),
                current_tid: ThreadId(0),
                next_tid: 1,
                races: Vec::new(),
                load_choice_points: 0,
                max_rf_set: 1,
                cands: Vec::new(),
                op_traces: if config.trace_ops_value() {
                    vec![OpTrace::new()]
                } else {
                    Vec::new()
                },
                recovery_reads: HashSet::new(),
                captures: Vec::new(),
            }),
            pool_size: config.pool_size_value() as u64,
            max_failures: config.failure_limit(),
            inject_at_end: config.inject_at_end_value(),
            skip_unchanged: config.skip_unchanged_value(),
            max_ops: config.op_limit(),
            // The localization pass correlates lint candidates with
            // read-from evidence, so analysis passes imply race flagging.
            flag_races: config.flag_races_value() || config.trace_ops_value(),
            flag_lints: config.trace_ops_value(),
            track_footprint: config.lints_value() == Lints::All,
            lint_loc: Cell::new(None),
        }
    }

    /// Rolls the environment over into the next (post-failure) execution:
    /// buffered operations are lost, the crashed execution's storage joins
    /// the stack, and volatile state resets.
    pub(crate) fn advance_execution(&self) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        // Every decision after a fresh one is fresh and continues, so an
        // execution that captured a checkpoint runs to the scenario's end,
        // and `finish` gives the captures its final log.
        debug_assert!(inner.captures.is_empty(), "a capturing execution crashed");
        let eviction = inner.machine.policy();
        let machine = std::mem::replace(&mut inner.machine, TsoMachine::new(eviction));
        inner.failure_points.get_or_insert(inner.points_this_exec);
        inner.stack.push(machine.crash());
        inner.exec_index += 1;
        inner.ops = 0;
        inner.bump = 2 * CACHE_LINE_SIZE as u64;
        inner.writes_since_point = false;
        inner.any_writes_this_exec = false;
        inner.points_this_exec = 0;
        inner.current_tid = ThreadId(0);
        inner.next_tid = 1;
        if self.flag_lints {
            inner.op_traces.push(OpTrace::new());
        }
    }

    /// Builds an environment that resumes from a crash-point snapshot:
    /// accumulated checker state is cloned from the capture
    /// (copy-on-restore — post-failure reads refine intervals in place; the
    /// crashed executions' store logs are frozen and shared, so only their
    /// intervals are copied), per-execution volatile state starts fresh
    /// exactly as [`advance_execution`](Self::advance_execution) would
    /// leave it, with the running execution recording into `storage`, and
    /// the decision log resumes right after the crash the snapshot forks.
    /// Running `Program::run` against the result is equivalent to
    /// replaying the prefix executions, minus the replay.
    pub(crate) fn from_snapshot(
        config: &Config,
        mut decisions: DecisionLog,
        snap: &CheckerSnapshot,
        storage: ExecutionStorage,
    ) -> Self {
        decisions.adopt_prefix(snap.decision + 1);
        let fresh = CheckerEnv::new(config, decisions, storage);
        {
            let mut inner = fresh.inner.borrow_mut();
            inner.stack = snap.stack.clone();
            inner.exec_index = snap.exec_index;
            inner.failure_points = Some(snap.failure_points);
            inner.crash_points = snap.crash_points.clone();
            inner.races = snap.races.clone();
            inner.load_choice_points = snap.load_choice_points;
            inner.max_rf_set = snap.max_rf_set;
            inner.op_traces = snap.op_traces.clone();
            inner.recovery_reads = snap.recovery_reads.clone();
        }
        fresh
    }

    /// The end-of-execution injection point (the paper's third point in
    /// the Figure 4 walkthrough). Called by the explorer after `run`
    /// returns normally; may unwind with a [`CrashSignal`].
    pub(crate) fn end_of_execution_point(&self) {
        if self.inject_at_end {
            self.injection_point_impl(true);
        }
    }

    /// Harvests the scenario record after the final execution, and
    /// completes each checkpoint it captured with a view of that
    /// execution's final store log: every capture was taken in it.
    pub(crate) fn finish(self) -> ScenarioRecord {
        let inner = self.inner.into_inner();
        // Stores still buffered never reached the log, as in a crash.
        let storage = inner.machine.crash();
        let captures = inner
            .captures
            .into_iter()
            .map(|(mut snapshot, prefix)| {
                snapshot.stack.push(storage.view(prefix));
                snapshot
            })
            .collect();
        ScenarioRecord {
            decisions: inner.decisions,
            crash_points: inner.crash_points,
            failure_points: inner.failure_points.unwrap_or(inner.points_this_exec),
            races: inner.races,
            op_traces: inner.op_traces,
            load_choice_points: inner.load_choice_points,
            max_rf_set: inner.max_rf_set,
            recovery_reads: inner.recovery_reads,
            captures,
            storage,
        }
    }

    /// Index of the execution currently running.
    pub(crate) fn current_execution(&self) -> usize {
        self.inner.borrow().exec_index
    }

    // ------------------------------------------------------------------
    // Internal helpers. Every helper that can unwind must not hold the
    // RefCell borrow across guest callbacks (unwinding itself releases
    // borrows safely).
    // ------------------------------------------------------------------

    fn abort(
        &self,
        kind: BugKind,
        message: String,
        location: Option<&'static Location<'static>>,
    ) -> ! {
        panic_any(AbortSignal {
            kind,
            message,
            location,
        })
    }

    #[track_caller]
    fn tick(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.ops += 1;
        if inner.ops > self.max_ops {
            let ops = inner.ops;
            drop(inner);
            self.abort(
                BugKind::InfiniteLoop,
                format!("execution exceeded the operation budget ({ops} ops)"),
                Some(Location::caller()),
            );
        }
    }

    #[track_caller]
    fn check_range(&self, addr: PmAddr, len: usize) {
        let bad_null = addr.offset() < NULL_PAGE_SIZE;
        let end = addr.offset().checked_add(len as u64);
        let bad_oob = !matches!(end, Some(e) if e <= self.pool_size);
        if bad_null || bad_oob {
            let what = if bad_null {
                "null-page"
            } else {
                "out-of-bounds"
            };
            self.abort(
                BugKind::IllegalAccess,
                format!(
                    "{what} access: {len} bytes at {addr} (pool size {})",
                    self.pool_size
                ),
                Some(Location::caller()),
            );
        }
    }

    /// A failure injection point: immediately before an operation that
    /// flushes cache lines, or at the end of an execution. Consults the
    /// decision log; on the crash alternative, unwinds the execution.
    fn injection_point(&self) {
        self.injection_point_impl(false);
    }

    /// `at_end` marks the end-of-execution point, which is exempt from the
    /// no-writes-since-last-point skip (the Figure 4 walkthrough injects
    /// at the end of `addChild` even though the last flush was the final
    /// operation) but still requires the execution to have written
    /// something at all.
    fn injection_point_impl(&self, at_end: bool) {
        let mut inner = self.inner.borrow_mut();
        if inner.exec_index >= self.max_failures {
            return;
        }
        if self.skip_unchanged {
            let eligible = if at_end {
                inner.any_writes_this_exec
            } else {
                inner.writes_since_point
            };
            if !eligible {
                return;
            }
        }
        let exec = inner.exec_index;
        let ordinal = inner.points_this_exec;
        inner.points_this_exec += 1;
        inner.writes_since_point = false;
        let choice = inner.decisions.next(2, ChoiceKind::Crash, exec);
        // The fork: a fresh decision continues, so checkpoint what a
        // crash here leaves for the scenarios that later take it.
        let index = inner.decisions.consumed() - 1;
        if self.capture && index >= inner.decisions.prefix_len() {
            let capture = self.capture(&inner, index, ordinal);
            inner.captures.push(capture);
        }
        if choice == 1 {
            inner.crash_points.push(ordinal);
            drop(inner);
            panic_any(CrashSignal);
        }
    }

    /// The snapshot a crash at the injection point just consumed
    /// (decision `decision`, point `ordinal` of the running execution)
    /// leaves: built from live state exactly as
    /// [`advance_execution`](Self::advance_execution) would leave it
    /// after the crash, except that the running execution's storage is
    /// its crash prefix until [`finish`](Self::finish) pushes the view.
    fn capture(
        &self,
        inner: &Inner,
        decision: usize,
        ordinal: usize,
    ) -> (CheckerSnapshot, CrashPrefix) {
        let mut stack = Vec::with_capacity(inner.stack.len() + 1);
        stack.extend_from_slice(&inner.stack);
        let op_traces = if self.flag_lints {
            pushed(&inner.op_traces, OpTrace::new())
        } else {
            Vec::new()
        };
        let snapshot = CheckerSnapshot {
            stack,
            exec_index: inner.exec_index + 1,
            failure_points: inner.failure_points.unwrap_or(inner.points_this_exec),
            crash_points: pushed(&inner.crash_points, ordinal),
            races: inner.races.clone(),
            load_choice_points: inner.load_choice_points,
            max_rf_set: inner.max_rf_set,
            op_traces,
            recovery_reads: inner.recovery_reads.clone(),
            decision,
        };
        (snapshot, inner.machine.crash_prefix())
    }

    /// Loads a byte of a recovery load that [`read_pre_failure_line`]
    /// found more than one candidate for. Its candidates are recomputed
    /// under the intervals the load's lower bytes left; if several remain,
    /// the decision log picks one and the intervals are refined
    /// (Figures 9–11).
    fn read_from(&self, inner: &mut Inner, addr: PmAddr, loc: &'static Location<'static>) -> u8 {
        let mut cands = std::mem::take(&mut inner.cands);
        read_pre_failure_into(&inner.stack, addr, &mut cands);
        inner.max_rf_set = inner.max_rf_set.max(cands.len());
        // A sole candidate leaves every interval as it is, so it needs no
        // `do_read`.
        let value = if let [only] = cands[..] {
            only.value
        } else {
            inner.load_choice_points += 1;
            if self.flag_races {
                record_race(inner, addr, loc, &cands);
            }
            let choice = inner
                .decisions
                .next(cands.len(), ChoiceKind::ReadFrom, inner.exec_index);
            let chosen = cands[choice];
            do_read(&mut inner.stack, addr, chosen);
            chosen.value
        };
        inner.cands = cands;
        value
    }

    /// Appends an op to the running execution's lint trace (callers
    /// check `flag_lints`). The RMW site override substitutes the guest
    /// call site for environment-internal constituent ops.
    fn record_trace(&self, inner: &mut Inner, loc: SourceLoc, kind: TraceOpKind) {
        let tid = inner.current_tid;
        let loc = self.lint_loc.get().unwrap_or(loc);
        inner
            .op_traces
            .last_mut()
            .expect("lint trace present")
            .record(tid, loc, kind);
    }

    fn flush_lines(&self, addr: PmAddr, len: usize, opt: bool, loc: &'static Location<'static>) {
        // The failure injection point sits immediately *before* the flush
        // instruction (paper §4, "Injecting failures").
        self.injection_point();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let first = addr.cache_line().index();
        let last = (addr + (len.max(1) as u64 - 1)).cache_line().index();
        if self.flag_lints {
            let kind = if opt {
                TraceOpKind::Clflushopt {
                    first_line: first,
                    last_line: last,
                }
            } else {
                TraceOpKind::Clflush {
                    first_line: first,
                    last_line: last,
                }
            };
            self.record_trace(inner, loc, kind);
        }
        for l in first..=last {
            let line = jaaru_pmem::CacheLineId::new(l);
            if opt {
                inner.machine.clflushopt(inner.current_tid, line);
            } else {
                inner.machine.clflush(inner.current_tid, line);
            }
        }
    }
}

/// `items` followed by `last`, in one allocation.
fn pushed<T: Clone>(items: &[T], last: T) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() + 1);
    out.extend_from_slice(items);
    out.push(last);
    out
}

/// Records the first race of each load site, up to [`MAX_RACES`].
fn record_race(
    inner: &mut Inner,
    addr: PmAddr,
    loc: &'static Location<'static>,
    cands: &[RfCandidate],
) {
    if inner.races.len() >= MAX_RACES {
        return;
    }
    if inner.races.iter().any(|race| race.load == loc) {
        return;
    }
    let stack = &inner.stack;
    let candidates = cands
        .iter()
        .map(|c| match c.source {
            RfSource::Initial => (c.value, None),
            RfSource::Store { exec, store } => {
                (c.value, Some((exec, stack[exec].event(store).loc)))
            }
        })
        .collect();
    inner.races.push(RaceReport {
        addr,
        load: loc,
        execution_index: inner.exec_index,
        candidates,
    });
}

impl PmEnv for CheckerEnv {
    #[track_caller]
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.tick();
        self.check_range(addr, buf.len());
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            // The cross-thread race pass keys buggy-scenario reports to
            // the lines recovery actually reads; loads are inert in the
            // persist-order replay itself.
            self.record_trace(
                inner,
                loc,
                TraceOpKind::Load {
                    addr,
                    len: buf.len() as u32,
                    recovery: inner.exec_index >= 1,
                },
            );
        }
        // Byte accesses performed atomically, low address first (paper §4,
        // "Mixed size accesses"), one cache line at a time. The running
        // execution, then the pre-failure stack, settle every byte with a
        // single candidate; each other byte's committed choice refines the
        // line interval before the next byte's candidates are computed.
        // Refinement only narrows intervals, so it never unsettles a byte.
        let tid = inner.current_tid;
        let mut vals = [0; CACHE_LINE_SIZE];
        for (line, want, start) in line_parts(addr, buf.len()) {
            let missed = inner.machine.read_current(tid, line, want, &mut vals);
            if missed != 0 {
                if self.track_footprint && inner.exec_index >= 1 {
                    // A recovery read: this load consulted pre-failure
                    // persisted state, so its line is in the footprint.
                    inner.recovery_reads.insert(line.index());
                }
                let mut multi = read_pre_failure_line(&inner.stack, line, missed, &mut vals);
                while multi != 0 {
                    let off = multi.trailing_zeros() as usize;
                    multi &= multi - 1;
                    vals[off] = self.read_from(inner, line.base() + off as u64, loc);
                }
            }
            let first = want.trailing_zeros() as usize;
            let part = &mut buf[start..start + want.count_ones() as usize];
            part.copy_from_slice(&vals[first..first + part.len()]);
        }
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.tick();
        self.check_range(addr, bytes.len());
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.machine.store(inner.current_tid, addr, bytes, loc);
        inner.writes_since_point = true;
        inner.any_writes_this_exec = true;
        if self.flag_lints {
            self.record_trace(
                inner,
                loc,
                TraceOpKind::Store {
                    addr,
                    len: bytes.len() as u32,
                },
            );
        }
    }

    #[track_caller]
    fn clflush(&self, addr: PmAddr, len: usize) {
        self.tick();
        self.check_range(addr, len.max(1));
        self.flush_lines(addr, len, false, Location::caller());
    }

    #[track_caller]
    fn clflushopt(&self, addr: PmAddr, len: usize) {
        self.tick();
        self.check_range(addr, len.max(1));
        self.flush_lines(addr, len, true, Location::caller());
    }

    #[track_caller]
    fn sfence(&self) {
        self.tick();
        // An sfence applies deferred clflushopt effects — a persistency
        // event, so it is an injection point when flushes are pending.
        let pending = {
            let inner = self.inner.borrow();
            inner.machine.flush_buffer_pending(inner.current_tid)
        };
        if pending {
            self.injection_point();
        }
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            self.record_trace(inner, loc, TraceOpKind::Sfence);
        }
        inner.machine.sfence(inner.current_tid);
        // Under OnFence eviction the fence is also the drain point.
        inner.machine.drain_store_buffer(inner.current_tid);
    }

    #[track_caller]
    fn mfence(&self) {
        self.tick();
        let pending = {
            let inner = self.inner.borrow();
            inner.machine.flush_buffer_pending(inner.current_tid)
        };
        if pending {
            self.injection_point();
        }
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            self.record_trace(inner, loc, TraceOpKind::Mfence);
        }
        inner.machine.mfence(inner.current_tid);
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        // Locked RMW ≡ atomic { mfence; load; store; mfence } (paper §4).
        // Constituent ops recorded in the lint trace carry the guest call
        // site; the trailing machine-level mfence is recorded as the RMW
        // marker itself (fence semantics for the persist analysis).
        let loc = Location::caller();
        let prev = self.lint_loc.replace(Some(loc));
        self.mfence();
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_bytes(addr, &new.to_le_bytes());
        }
        self.lint_loc.set(prev);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            // Failed attempts are recorded too: a failed CAS is still a
            // locked instruction (fences, acquires) — it just publishes
            // nothing, which the persist graph models via `success`.
            self.record_trace(
                inner,
                loc,
                TraceOpKind::Rmw {
                    addr,
                    success: observed == current,
                    recovery: inner.exec_index >= 1,
                },
            );
        }
        inner.machine.mfence(inner.current_tid);
        observed
    }

    #[track_caller]
    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.tick();
        if align == 0 || !align.is_power_of_two() {
            self.abort(
                BugKind::AssertionFailure,
                format!("pm_alloc alignment {align} is not a power of two"),
                Some(Location::caller()),
            );
        }
        let mut inner = self.inner.borrow_mut();
        let base = PmAddr::new(inner.bump).align_up(align);
        match base.offset().checked_add(size) {
            Some(end) if end <= self.pool_size => {
                inner.bump = end;
                base
            }
            _ => {
                drop(inner);
                self.abort(
                    BugKind::OutOfMemory,
                    format!(
                        "pm_alloc({size}, {align}) exhausted the {}B pool",
                        self.pool_size
                    ),
                    Some(Location::caller()),
                )
            }
        }
    }

    fn root(&self) -> PmAddr {
        PmAddr::new(NULL_PAGE_SIZE)
    }

    fn pool_size(&self) -> u64 {
        self.pool_size
    }

    fn execution_index(&self) -> usize {
        self.inner.borrow().exec_index
    }

    #[track_caller]
    fn bug(&self, msg: &str) -> ! {
        self.abort(
            BugKind::AssertionFailure,
            msg.to_string(),
            Some(Location::caller()),
        )
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        let (old, new) = {
            let mut inner = self.inner.borrow_mut();
            let old = inner.current_tid;
            let new = ThreadId(inner.next_tid);
            inner.next_tid += 1;
            inner.current_tid = new;
            (old, new)
        };
        debug_assert_ne!(old, new);
        // If the body unwinds (crash/bug) the execution is over and thread
        // state resets with it; no need to restore on the panic path.
        body(self);
        self.inner.borrow_mut().current_tid = old;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionLog;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A small pool, and no checkpoints: these tests inject failures by
    /// hand with `advance_execution`, which no capture could follow.
    fn config() -> Config {
        let mut c = Config::new();
        c.pool_size(4096).snapshots(false);
        c
    }

    fn env() -> CheckerEnv {
        CheckerEnv::new(&config(), DecisionLog::new(), ExecutionStorage::new())
    }

    #[test]
    fn pre_failure_reads_see_own_stores() {
        let e = env();
        let a = e.root();
        e.store_u64(a, 0x1122_3344_5566_7788);
        assert_eq!(e.load_u64(a), 0x1122_3344_5566_7788);
        assert_eq!(e.load_u8(a), 0x88);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let e = env();
        assert_eq!(e.load_u64(e.root() + 32), 0);
    }

    #[test]
    fn illegal_access_aborts_with_bug() {
        let e = env();
        let err = catch_unwind(AssertUnwindSafe(|| e.load_u8(PmAddr::NULL))).unwrap_err();
        let sig = err.downcast::<AbortSignal>().expect("abort signal");
        assert_eq!(sig.kind, BugKind::IllegalAccess);
        assert!(sig.message.contains("null-page"));
    }

    #[test]
    fn out_of_bounds_aborts() {
        let e = env();
        let err = catch_unwind(AssertUnwindSafe(|| e.load_u64(PmAddr::new(4092)))).unwrap_err();
        let sig = err.downcast::<AbortSignal>().expect("abort signal");
        assert_eq!(sig.kind, BugKind::IllegalAccess);
        assert!(sig.message.contains("out-of-bounds"));
    }

    #[test]
    fn crash_decision_unwinds_with_crash_signal() {
        let e = env();
        let a = e.root();
        // First flush: decision "continue" (default 0). Backtrack to crash.
        e.store_u64(a, 1);
        e.clflush(a, 8);
        let mut rec = e.finish();
        assert!(rec.decisions.backtrack(), "one crash decision to flip");
        let c = config();
        let e = CheckerEnv::new(&c, rec.decisions, ExecutionStorage::new());
        let err = catch_unwind(AssertUnwindSafe(|| {
            e.store_u64(a, 1);
            e.clflush(a, 8);
        }))
        .unwrap_err();
        assert!(err.is::<CrashSignal>());
    }

    #[test]
    fn post_failure_load_explores_candidates() {
        // Store without flush, crash, recover: the load may see 1 or 0.
        let c = config();
        let a = PmAddr::new(NULL_PAGE_SIZE);

        let mut seen = Vec::new();
        let mut decisions = DecisionLog::new();
        loop {
            let e = CheckerEnv::new(&c, decisions, ExecutionStorage::new());
            e.store_u8(a, 1); // pre-failure store, not flushed
            e.advance_execution(); // simulated power failure
            seen.push(e.load_u8(a));
            let mut rec = e.finish();
            if !rec.decisions.backtrack() {
                break;
            }
            decisions = std::mem::take(&mut rec.decisions);
        }
        assert_eq!(seen, vec![1, 0], "newest-first exploration order");
    }

    #[test]
    fn flushed_store_is_forced_in_recovery() {
        let c = config();
        // Replay log where the single crash decision chooses "continue";
        // we crash manually via advance_execution.
        let e = CheckerEnv::new(&c, DecisionLog::new(), ExecutionStorage::new());
        let a = e.root();
        e.store_u8(a, 7);
        e.clflush(a, 1);
        e.sfence();
        e.advance_execution();
        assert_eq!(e.load_u8(a), 7);
        let rec = e.finish();
        // Crash decision at the clflush is in the log; the recovery load
        // had exactly one candidate so only that decision can branch.
        assert_eq!(rec.load_choice_points, 0);
    }

    #[test]
    fn races_are_recorded_for_multi_store_loads() {
        let c = config();
        let e = CheckerEnv::new(&c, DecisionLog::new(), ExecutionStorage::new());
        let a = e.root();
        e.store_u8(a, 1);
        e.store_u8(a, 2);
        e.advance_execution();
        let _ = e.load_u8(a);
        let rec = e.finish();
        assert_eq!(rec.races.len(), 1);
        assert_eq!(rec.races[0].candidates.len(), 3); // 2, 1, initial 0
        assert_eq!(rec.max_rf_set, 3);
        assert_eq!(rec.load_choice_points, 1);
    }

    #[test]
    fn alloc_is_deterministic_per_execution() {
        let e = env();
        let a1 = e.pm_alloc(16, 8);
        e.advance_execution();
        let a2 = e.pm_alloc(16, 8);
        assert_eq!(a1, a2, "bump allocator resets across executions");
    }

    #[test]
    fn op_budget_catches_infinite_loops() {
        let mut c = Config::new();
        c.pool_size(4096).max_ops_per_execution(100);
        let e = CheckerEnv::new(&c, DecisionLog::new(), ExecutionStorage::new());
        let a = e.root();
        let err = catch_unwind(AssertUnwindSafe(|| loop {
            let _ = e.load_u8(a);
        }))
        .unwrap_err();
        let sig = err.downcast::<AbortSignal>().expect("abort signal");
        assert_eq!(sig.kind, BugKind::InfiniteLoop);
    }

    #[test]
    fn spawned_thread_has_its_own_fences() {
        // clflushopt by thread A is not ordered by an sfence in thread B.
        let e = env();
        let a = e.root();
        e.store_u8(a, 1);
        e.spawn(&mut |t| {
            t.clflushopt(a, 1);
            // No fence in this thread.
        });
        e.sfence(); // main thread fence: does not order the child's flush
        e.advance_execution();
        // Both 1 and 0 must be candidates: the flush never took effect.
        let _ = e.load_u8(a);
        let rec = e.finish();
        assert_eq!(rec.max_rf_set, 2);
    }

    #[test]
    fn cas_updates_and_reports_observed() {
        let e = env();
        let a = e.root();
        e.store_u64(a, 10);
        assert_eq!(e.compare_exchange_u64(a, 10, 20), 10);
        assert_eq!(e.load_u64(a), 20);
        assert_eq!(e.compare_exchange_u64(a, 10, 30), 20);
        assert_eq!(e.load_u64(a), 20);
    }
}
