//! The model checker's instrumented environment.
//!
//! [`CheckerEnv`] is the runtime a guest program executes against while
//! being model checked. It routes every operation into the Px86sim
//! simulator (`jaaru-tso`), consults the decision log at each
//! nondeterministic point (failure injection, multi-store loads), and
//! unwinds the execution with a typed panic on simulated power failures
//! and on detected bugs.

use std::cell::RefCell;
use std::panic::{panic_any, Location};
use std::sync::Arc;

use jaaru_pmem::{PmAddr, CACHE_LINE_SIZE, NULL_PAGE_SIZE};
use jaaru_tso::{
    do_read, line_parts, read_pre_failure_into, CrashPrefix, LineSet, OpTrace, RfCandidate,
    SourceLoc, ThreadId, TraceOpKind, TsoMachine,
};

use crate::config::{Config, Lints};
use crate::decision::{ChoiceKind, DecisionLog};
use crate::report::BugKind;
use crate::signal::{AbortSignal, CrashSignal};
use crate::snapshot::{CheckerSnapshot, Crashed};
use crate::PmEnv;

/// The environment's state, in three parts: the machine and buffers it
/// owns for the walk's lifetime, the crashed state of the running
/// scenario, and the running execution's volatile state.
struct Inner {
    /// Reset in place at each scenario's start and at each failure, which
    /// empties the line image its loads read: those are the points where
    /// the stack changes other than by refinement.
    machine: TsoMachine,
    /// Reads-from candidates of the byte being chosen for; kept to reuse
    /// its allocation.
    cands: Vec<RfCandidate>,

    decisions: DecisionLog,
    /// What the scenario's failures so far left, and its bookkeeping.
    crashed: Crashed,
    /// Cache lines this scenario's recoveries read: post-failure loads
    /// that missed the running execution's own state and consulted
    /// pre-failure storage, recorded as the machine resolves each line.
    /// Collected only for the dead-flush pass
    /// ([`Lints::All`](crate::Lints::All)). A restored scenario starts
    /// empty: the scenario that captured its checkpoint read every line
    /// the skipped executions read, and the footprint is their union.
    recovery_reads: LineSet,
    /// Checkpoints captured at this scenario's fresh crash decisions, in
    /// decision order, each with the crash prefix of the running
    /// execution that [`finish`](CheckerEnv::finish) completes it with.
    captures: Vec<(CheckerSnapshot, CrashPrefix)>,

    running: Running,
}

/// The running execution's volatile state, which a power failure loses:
/// [`Inner::start_execution`] resets all of it.
#[derive(Default)]
struct Running {
    ops: u64,
    /// End of the last block `pm_alloc` handed out (0 before the first).
    bump: u64,
    writes_since_point: bool,
    any_writes: bool,
    /// Injection points consulted so far.
    points: usize,
    current_tid: ThreadId,
    /// Threads spawned so far; the `n`-th is thread `n`.
    spawned: u32,
    /// The operation trace (recorded only when [`Config::lints`] is on).
    op_trace: OpTrace,
    /// Override for recorded trace sites while executing a composite
    /// primitive (locked RMW): the constituent ops carry the guest call
    /// site of the RMW, not the environment-internal one.
    rmw_loc: Option<SourceLoc>,
}

impl Inner {
    /// Starts the next execution with fresh volatile state, as a new
    /// scenario or a power failure leaves it, and returns the op trace of
    /// the one it replaces.
    fn start_execution(&mut self) -> OpTrace {
        std::mem::take(&mut self.running).op_trace
    }

    /// Injection points of the scenario's first execution as a crash now
    /// would leave them.
    fn failure_points(&self) -> usize {
        if self.crashed.stack.is_empty() {
            self.running.points
        } else {
            self.crashed.failure_points
        }
    }
}

/// Per-scenario results harvested by the explorer after a run.
pub(crate) struct ScenarioRecord {
    pub decisions: DecisionLog,
    /// The crashed state the scenario ended with, its last execution's
    /// op trace included; its stack stays with the environment.
    pub crashed: Crashed,
    /// Cache lines this scenario's own recoveries read (empty unless the
    /// dead-flush pass is on).
    pub recovery_reads: LineSet,
    /// The crash-point checkpoints this scenario captured at its fresh
    /// crash decisions (empty when snapshots are off).
    pub captures: Vec<CheckerSnapshot>,
}

/// The instrumented environment of one exploration walk, which runs
/// every scenario of the walk: [`start`](Self::start) begins one,
/// [`finish`](Self::finish) ends it.
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
}

impl CheckerEnv {
    /// The environment of a walk under `config`; no scenario has started.
    pub(crate) fn new(config: &Config) -> Self {
        CheckerEnv {
            capture: config.snapshots_value(),
            inner: RefCell::new(Inner {
                machine: TsoMachine::new(config.eviction_value()),
                cands: Vec::new(),
                decisions: DecisionLog::new(),
                crashed: Crashed::NONE,
                recovery_reads: LineSet::default(),
                captures: Vec::new(),
                running: Running::default(),
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
        }
    }

    /// Begins a scenario steered by `decisions`: from the crashed state
    /// `checkpoint` holds, its decisions up to the crash adopted and the
    /// running execution the one after it, or else from the start. The
    /// machine is reset in place, and everything the last scenario left
    /// goes. Running `Program::run` against a restored state is
    /// equivalent to replaying the executions before it, minus the
    /// replay.
    pub(crate) fn start(
        &mut self,
        mut decisions: DecisionLog,
        checkpoint: Option<&CheckerSnapshot>,
    ) {
        let inner = self.inner.get_mut();
        let policy = inner.machine.policy();
        inner.machine.reset(policy);
        match checkpoint {
            Some(snap) => {
                decisions.adopt_prefix(snap.decision + 1);
                inner.crashed.clone_from(&snap.crashed);
            }
            None => inner.crashed.clone_from(&Crashed::NONE),
        }
        inner.decisions = decisions;
        inner.recovery_reads.clear();
        inner.captures.clear();
        inner.start_execution();
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
        inner.crashed.failure_points = inner.failure_points();
        let crashed = inner.machine.crash_and_reset();
        inner.crashed.stack.push(crashed);
        let trace = inner.start_execution();
        if self.flag_lints {
            inner.crashed.op_traces.push(Arc::new(trace));
        }
    }

    /// The end-of-execution injection point (the paper's third point in
    /// the Figure 4 walkthrough). Called by the explorer after `run`
    /// returns normally; may unwind with a [`CrashSignal`].
    pub(crate) fn end_of_execution_point(&self) {
        if self.inject_at_end {
            self.injection_point(true);
        }
    }

    /// Ends the scenario and harvests its record, and completes each
    /// checkpoint it captured with a view of the last execution's final
    /// store log: every capture was taken in it. The machine, the stack
    /// and the buffers stay for the next scenario.
    pub(crate) fn finish(&mut self) -> ScenarioRecord {
        let inner = self.inner.get_mut();
        inner.crashed.failure_points = inner.failure_points();
        if self.flag_lints {
            let trace = std::mem::take(&mut inner.running.op_trace);
            inner.crashed.op_traces.push(Arc::new(trace));
        }
        // Stores still buffered never reached the log, as in a crash.
        let storage = inner.machine.storage();
        let captures = std::mem::take(&mut inner.captures)
            .into_iter()
            .map(|(mut snapshot, prefix)| {
                snapshot.crashed.stack.push(storage.view(prefix));
                snapshot
            })
            .collect();
        let mut crashed = std::mem::replace(&mut inner.crashed, Crashed::NONE);
        std::mem::swap(&mut inner.crashed.stack, &mut crashed.stack);
        ScenarioRecord {
            decisions: std::mem::take(&mut inner.decisions),
            crashed,
            recovery_reads: std::mem::take(&mut inner.recovery_reads),
            captures,
        }
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
        inner.running.ops += 1;
        if inner.running.ops > self.max_ops {
            let ops = inner.running.ops;
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
    ///
    /// `at_end` marks the end-of-execution point, which is exempt from the
    /// no-writes-since-last-point skip (the Figure 4 walkthrough injects
    /// at the end of `addChild` even though the last flush was the final
    /// operation) but still requires the execution to have written
    /// something at all.
    fn injection_point(&self, at_end: bool) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let exec = inner.crashed.stack.len();
        if exec >= self.max_failures {
            return;
        }
        let running = &mut inner.running;
        if self.skip_unchanged {
            let eligible = if at_end {
                running.any_writes
            } else {
                running.writes_since_point
            };
            if !eligible {
                return;
            }
        }
        let ordinal = running.points;
        running.points += 1;
        running.writes_since_point = false;
        let choice = inner.decisions.next(2, ChoiceKind::Crash, exec);
        // The fork: a fresh decision continues, so checkpoint what a
        // crash here leaves for the scenarios that later take it.
        let index = inner.decisions.consumed() - 1;
        if self.capture && index >= inner.decisions.prefix_len() {
            let capture = self.capture(inner, index, ordinal);
            inner.captures.push(capture);
        }
        if choice == 1 {
            inner.crashed.crash_points.push(ordinal);
            panic_any(CrashSignal);
        }
    }

    /// The checkpoint a crash at the injection point just consumed
    /// (decision `decision`, point `ordinal` of the running execution)
    /// leaves: the [`Crashed`] state built from live state exactly as
    /// [`advance_execution`](Self::advance_execution) would leave it
    /// after the crash, except that the running execution's storage is
    /// its crash prefix until [`finish`](Self::finish) pushes the view.
    /// Each vector is allocated once, with room for that view.
    fn capture(
        &self,
        inner: &Inner,
        decision: usize,
        ordinal: usize,
    ) -> (CheckerSnapshot, CrashPrefix) {
        let crashed = &inner.crashed;
        let mut stack = Vec::with_capacity(crashed.stack.len() + 1);
        stack.extend_from_slice(&crashed.stack);
        // The running execution's trace is the one copied: it goes on.
        let op_traces = if self.flag_lints {
            pushed(&crashed.op_traces, Arc::new(inner.running.op_trace.clone()))
        } else {
            Vec::new()
        };
        let snapshot = CheckerSnapshot {
            crashed: Crashed {
                stack,
                crash_points: pushed(&crashed.crash_points, ordinal),
                failure_points: inner.failure_points(),
                races: crashed.races.clone(),
                load_choice_points: crashed.load_choice_points,
                max_rf_set: crashed.max_rf_set,
                op_traces,
            },
            decision,
        };
        (snapshot, inner.machine.crash_prefix())
    }

    /// Loads a byte of a recovery load that [`TsoMachine::load`] left
    /// unsettled: it had more than one candidate when its line was
    /// resolved. Its candidates are recomputed under the intervals the
    /// execution's earlier reads left; if several remain, the decision log
    /// picks one and the intervals are refined (Figures 9–11).
    fn read_from(&self, inner: &mut Inner, addr: PmAddr, loc: &'static Location<'static>) -> u8 {
        let mut cands = std::mem::take(&mut inner.cands);
        let crashed = &mut inner.crashed;
        read_pre_failure_into(&crashed.stack, addr, &mut cands);
        crashed.max_rf_set = crashed.max_rf_set.max(cands.len());
        // A sole candidate leaves every interval as it is, so it needs no
        // `do_read`.
        let value = if let [only] = cands[..] {
            only.value
        } else {
            crashed.load_choice_points += 1;
            if self.flag_races {
                crashed.record_race(addr, loc, &cands);
            }
            let exec = crashed.stack.len();
            let choice = inner
                .decisions
                .next(cands.len(), ChoiceKind::ReadFrom, exec);
            let chosen = cands[choice];
            do_read(&mut crashed.stack, addr, chosen);
            chosen.value
        };
        inner.cands = cands;
        value
    }

    /// A load the line image could not answer in one probe. Byte accesses
    /// are performed atomically, low address first (paper §4, "Mixed size
    /// accesses"), one cache line at a time. The machine serves the bytes
    /// the running execution wrote and every other byte with a single
    /// candidate, resolving the line against the pre-failure stack on the
    /// first load in this execution that wants one of those. Each other
    /// byte's committed choice refines the line interval before the next
    /// byte's candidates are computed, and settles the byte in the image.
    /// Refinement only narrows intervals, so it never unsettles a byte.
    #[inline(never)]
    fn load_lines(&self, inner: &mut Inner, addr: PmAddr, buf: &mut [u8], loc: SourceLoc) {
        let tid = inner.running.current_tid;
        let mut vals = [0; CACHE_LINE_SIZE];
        for (line, want, start) in line_parts(addr, buf.len()) {
            let (mut multi, resolved) =
                inner
                    .machine
                    .load(tid, &inner.crashed.stack, line, want, &mut vals);
            if resolved && self.track_footprint && !inner.crashed.stack.is_empty() {
                // A recovery read: this load consulted pre-failure
                // persisted state, so its line is in the footprint.
                inner.recovery_reads.insert(line.index());
            }
            while multi != 0 {
                let off = multi.trailing_zeros() as usize;
                multi &= multi - 1;
                let value = self.read_from(inner, line.base() + off as u64, loc);
                inner.machine.settle(line, off, value);
                vals[off] = value;
            }
            let first = want.trailing_zeros() as usize;
            let part = &mut buf[start..start + want.count_ones() as usize];
            copy_bytes(part, &vals[first..first + part.len()]);
        }
    }

    /// The injection point before a fence: a fence applies deferred
    /// `clflushopt` effects, a persistency event, so it is one when
    /// flushes are pending.
    fn fence_point(&self) {
        let pending = {
            let inner = self.inner.borrow();
            inner
                .machine
                .flush_buffer_pending(inner.running.current_tid)
        };
        if pending {
            self.injection_point(false);
        }
    }

    /// Appends an op to the running execution's lint trace (callers
    /// check `flag_lints`). The RMW site override substitutes the guest
    /// call site for environment-internal constituent ops.
    fn record_trace(&self, inner: &mut Inner, loc: SourceLoc, kind: TraceOpKind) {
        let running = &mut inner.running;
        let loc = running.rmw_loc.unwrap_or(loc);
        running.op_trace.record(running.current_tid, loc, kind);
    }

    fn flush_lines(&self, addr: PmAddr, len: usize, opt: bool, loc: &'static Location<'static>) {
        // The failure injection point sits immediately *before* the flush
        // instruction (paper §4, "Injecting failures").
        self.injection_point(false);
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
                inner.machine.clflushopt(inner.running.current_tid, line);
            } else {
                inner.machine.clflush(inner.running.current_tid, line);
            }
        }
    }
}

/// `dst.copy_from_slice(src)`, with the 8 bytes of a `u64` access copied
/// as one word rather than by a `memcpy` call.
fn copy_bytes(dst: &mut [u8], src: &[u8]) {
    match <&mut [u8; 8]>::try_from(&mut *dst) {
        Ok(word) => *word = src.try_into().expect("as long as `dst`"),
        Err(_) => dst.copy_from_slice(src),
    }
}

/// `items` followed by `last`, in one allocation.
fn pushed<T: Clone>(items: &[T], last: T) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() + 1);
    out.extend_from_slice(items);
    out.push(last);
    out
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
                    recovery: !inner.crashed.stack.is_empty(),
                },
            );
        }
        // One probe of the machine's line image answers a load of bytes
        // it knows, inside one line, by a thread with an empty store
        // buffer.
        if let Some(bytes) = inner
            .machine
            .load_known(inner.running.current_tid, addr, buf.len())
        {
            copy_bytes(buf, bytes);
            return;
        }
        self.load_lines(inner, addr, buf, loc);
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        self.tick();
        self.check_range(addr, bytes.len());
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner
            .machine
            .store(inner.running.current_tid, addr, bytes, loc);
        inner.running.writes_since_point = true;
        inner.running.any_writes = true;
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
        self.fence_point();
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            self.record_trace(inner, loc, TraceOpKind::Sfence);
        }
        let tid = inner.running.current_tid;
        inner.machine.sfence(tid);
        // Under OnFence eviction the fence is also the drain point.
        inner.machine.drain_store_buffer(tid);
    }

    #[track_caller]
    fn mfence(&self) {
        self.tick();
        self.fence_point();
        let loc = Location::caller();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if self.flag_lints {
            self.record_trace(inner, loc, TraceOpKind::Mfence);
        }
        inner.machine.mfence(inner.running.current_tid);
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        // Locked RMW ≡ atomic { mfence; load; store; mfence } (paper §4).
        // Constituent ops recorded in the lint trace carry the guest call
        // site; the trailing machine-level mfence is recorded as the RMW
        // marker itself (fence semantics for the persist analysis).
        let loc = Location::caller();
        let prev = self.inner.borrow_mut().running.rmw_loc.replace(loc);
        self.mfence();
        let observed = self.load_u64(addr);
        if observed == current {
            self.store_bytes(addr, &new.to_le_bytes());
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.running.rmw_loc = prev;
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
                    recovery: !inner.crashed.stack.is_empty(),
                },
            );
        }
        inner.machine.mfence(inner.running.current_tid);
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
        // Blocks start past the null page and the root's line.
        let bottom = 2 * CACHE_LINE_SIZE as u64;
        let base = PmAddr::new(inner.running.bump.max(bottom)).align_up(align);
        match base.offset().checked_add(size) {
            Some(end) if end <= self.pool_size => {
                inner.running.bump = end;
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
        self.inner.borrow().crashed.stack.len()
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
            let running = &mut inner.running;
            let old = running.current_tid;
            running.spawned += 1;
            let new = ThreadId(running.spawned);
            running.current_tid = new;
            (old, new)
        };
        debug_assert_ne!(old, new);
        // If the body unwinds (crash/bug) the execution is over and thread
        // state resets with it; no need to restore on the panic path.
        body(self);
        self.inner.borrow_mut().running.current_tid = old;
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

    /// An environment under `config` with its first scenario started.
    fn started(config: &Config) -> CheckerEnv {
        let mut e = CheckerEnv::new(config);
        e.start(DecisionLog::new(), None);
        e
    }

    fn env() -> CheckerEnv {
        started(&config())
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
        let mut e = env();
        let a = e.root();
        // First flush: decision "continue" (default 0). Backtrack to crash.
        e.store_u64(a, 1);
        e.clflush(a, 8);
        let mut rec = e.finish();
        assert!(rec.decisions.backtrack(), "one crash decision to flip");
        e.start(rec.decisions, None);
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
        let mut e = CheckerEnv::new(&config());
        let a = PmAddr::new(NULL_PAGE_SIZE);

        let mut seen = Vec::new();
        let mut decisions = DecisionLog::new();
        loop {
            e.start(decisions, None);
            e.store_u8(a, 1); // pre-failure store, not flushed
            e.advance_execution(); // simulated power failure
            seen.push(e.load_u8(a));
            let mut rec = e.finish();
            if !rec.decisions.backtrack() {
                break;
            }
            decisions = rec.decisions;
        }
        assert_eq!(seen, vec![1, 0], "newest-first exploration order");
    }

    #[test]
    fn flushed_store_is_forced_in_recovery() {
        // Replay log where the single crash decision chooses "continue";
        // we crash manually via advance_execution.
        let mut e = env();
        let a = e.root();
        e.store_u8(a, 7);
        e.clflush(a, 1);
        e.sfence();
        e.advance_execution();
        assert_eq!(e.load_u8(a), 7);
        let rec = e.finish();
        // Crash decision at the clflush is in the log; the recovery load
        // had exactly one candidate so only that decision can branch.
        assert_eq!(rec.crashed.load_choice_points, 0);
    }

    #[test]
    fn races_are_recorded_for_multi_store_loads() {
        let mut e = env();
        let a = e.root();
        e.store_u8(a, 1);
        e.store_u8(a, 2);
        e.advance_execution();
        let _ = e.load_u8(a);
        let rec = e.finish();
        assert_eq!(rec.crashed.races.len(), 1);
        assert_eq!(rec.crashed.races[0].candidates.len(), 3); // 2, 1, initial 0
        assert_eq!(rec.crashed.max_rf_set, 3);
        assert_eq!(rec.crashed.load_choice_points, 1);
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
        let e = started(&c);
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
        let mut e = env();
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
        assert_eq!(rec.crashed.max_rf_set, 2);
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

    #[test]
    fn a_started_environment_keeps_nothing_from_an_unwound_scenario() {
        // A spawned thread allocates, then aborts inside an RMW: the
        // unwind leaves its thread current, the cursor past its block
        // and the RMW's site as the trace override.
        let mut c = config();
        c.lints(Lints::Errors);
        let mut e = started(&c);
        let mut first = None;
        let err = catch_unwind(AssertUnwindSafe(|| {
            e.spawn(&mut |t| {
                first = Some(t.pm_alloc(16, 8));
                t.compare_exchange_u64(PmAddr::new(4096), 0, 1);
            })
        }))
        .unwrap_err();
        let sig = err.downcast::<AbortSignal>().expect("abort signal");
        assert_eq!(sig.kind, BugKind::IllegalAccess);
        // The RMW's leading fence was recorded under the RMW's site.
        let rec = e.finish();
        let rmw_site = rec.crashed.op_traces[0]
            .ops()
            .last()
            .expect("the fence")
            .loc;

        e.start(DecisionLog::new(), None);
        assert_eq!(e.pm_alloc(16, 8), first.expect("allocated"));
        e.store_u64(e.root(), 1);
        let rec = e.finish();
        let [store] = rec.crashed.op_traces[0].ops() else {
            panic!("one op recorded: {:?}", rec.crashed.op_traces[0]);
        };
        assert_eq!(store.thread, ThreadId(0));
        assert!(matches!(store.kind, TraceOpKind::Store { .. }));
        assert_ne!(store.loc, rmw_site);
    }
}
