//! Litmus-test harness: exhaustive exploration of thread interleavings
//! and store-buffer evictions for small straight-line programs.
//!
//! The Jaaru checker itself uses a deterministic schedule (the paper does
//! not exhaustively explore concurrency). This module complements it for
//! *semantics validation*: given a handful of threads, each a list of
//! [`LitmusOp`]s, it enumerates every interleaving of instruction
//! executions and buffer evictions allowed by the TSO machine, collecting
//! the set of observable register outcomes and final persistency
//! constraints. The Table 1 reordering probes are built on it.

use std::collections::BTreeSet;
use std::panic::Location;

use jaaru_pmem::{CacheLineId, PmAddr, CACHE_LINE_SIZE};
use jaaru_tso::{EvictionPolicy, FlushInterval, Seq, ThreadId, TsoMachine};

/// One instruction of a litmus thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitmusOp {
    /// Store an 8-bit value.
    Store(PmAddr, u8),
    /// Load into the thread's next register slot.
    Load(PmAddr),
    /// `clflush` of the line containing the address.
    Clflush(PmAddr),
    /// `clflushopt` of the line containing the address.
    Clflushopt(PmAddr),
    /// `clwb` of the line containing the address — same Px86 ordering
    /// semantics as `clflushopt`; a distinct token so the conformance
    /// sweep proves the two behave identically end to end.
    Clwb(PmAddr),
    /// Store fence.
    Sfence,
    /// Full fence.
    Mfence,
    /// Locked read-modify-write (exchange): the old value is read into
    /// the thread's next register slot and the new value stored, with
    /// the implied full fence on both sides (paper §2: locked RMW
    /// instructions drain the store buffer and apply pending optimized
    /// flushes before *and* after their access).
    Rmw(PmAddr, u8),
}

/// The observable result of one complete litmus execution.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LitmusOutcome {
    /// Register values per thread, in load order.
    pub regs: Vec<Vec<u8>>,
    /// Final `(line, begin, end)` writeback constraints for every line
    /// with a non-trivial interval, in line order.
    pub flush_bounds: Vec<(u64, u64, Option<u64>)>,
}

/// One allowed `(registers, crash-persisted memory)` observable of a
/// litmus program, as produced by [`LitmusProgram::crash_outcomes`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LitmusCrashOutcome {
    /// Register values per thread, in load/RMW order.
    pub regs: Vec<Vec<u8>>,
    /// Persisted memory after the crash: `(address, value)` sorted by
    /// address, one entry per address the program stores to; 0 means
    /// the byte still holds its initial value.
    pub mem: Vec<(u64, u8)>,
}

/// A litmus program: one op-list per thread.
///
/// # Example: classic TSO store buffering (SB)
///
/// ```
/// use jaaru_pmem::PmAddr;
/// use jaaru::litmus::{LitmusOp, LitmusProgram};
///
/// let x = PmAddr::new(64);
/// let y = PmAddr::new(128);
/// let sb = LitmusProgram::new(vec![
///     vec![LitmusOp::Store(x, 1), LitmusOp::Load(y)],
///     vec![LitmusOp::Store(y, 1), LitmusOp::Load(x)],
/// ]);
/// let outcomes = sb.outcomes();
/// // Both threads reading 0 is allowed on TSO (stores still buffered).
/// assert!(outcomes.iter().any(|o| o.regs == vec![vec![0], vec![0]]));
/// ```
#[derive(Clone, Debug)]
pub struct LitmusProgram {
    threads: Vec<Vec<LitmusOp>>,
}

/// SplitMix64: a small deterministic generator for schedule sampling.
/// (Self-contained so the checker has no external dependencies.)
struct ScheduleRng {
    state: u64,
}

impl ScheduleRng {
    fn new(seed: u64) -> Self {
        ScheduleRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough index into `0..n` (n is tiny; modulo bias is
    /// irrelevant for schedule sampling).
    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Clone)]
struct State {
    machine: TsoMachine,
    pcs: Vec<usize>,
    regs: Vec<Vec<u8>>,
}

impl LitmusProgram {
    /// Creates a litmus program from per-thread op lists.
    ///
    /// # Panics
    ///
    /// Panics if there are no threads.
    pub fn new(threads: Vec<Vec<LitmusOp>>) -> Self {
        assert!(
            !threads.is_empty(),
            "litmus program needs at least one thread"
        );
        LitmusProgram { threads }
    }

    /// Exhaustively enumerates every interleaving of instruction execution
    /// and store-buffer eviction, returning the set of distinct outcomes.
    pub fn outcomes(&self) -> BTreeSet<LitmusOutcome> {
        let mut results = BTreeSet::new();
        self.explore(self.initial(), &mut |s| {
            results.insert(outcome_of(s));
        });
        results
    }

    /// Exhaustively enumerates interleavings like [`LitmusProgram::outcomes`],
    /// but projects each terminal state onto its **allowed crash-persisted
    /// memory states**: for every cache line the program stores to, each
    /// candidate writeback point of the line's flush interval yields one
    /// persisted snapshot, and the per-line choices combine freely (lines
    /// write back independently). The union over all executions is exactly
    /// the observable the axiomatic reference checker in `jaaru-litmus`
    /// computes, which makes this the operational side of the conformance
    /// comparison.
    ///
    /// Addresses never persisted report value 0 (initial memory).
    pub fn crash_outcomes(&self) -> BTreeSet<LitmusCrashOutcome> {
        let addrs = self.stored_addrs();
        let mut results = BTreeSet::new();
        self.explore(self.initial(), &mut |s| {
            collect_crash_outcomes(&s, &addrs, &mut results);
        });
        results
    }

    /// Sorted, deduplicated addresses the program stores to (via `Store`
    /// or `Rmw`) — the memory universe of [`LitmusProgram::crash_outcomes`].
    fn stored_addrs(&self) -> Vec<PmAddr> {
        let mut addrs: Vec<PmAddr> = self
            .threads
            .iter()
            .flatten()
            .filter_map(|op| match op {
                LitmusOp::Store(a, _) | LitmusOp::Rmw(a, _) => Some(*a),
                _ => None,
            })
            .collect();
        addrs.sort();
        addrs.dedup();
        addrs
    }

    fn initial(&self) -> State {
        State {
            machine: TsoMachine::new(EvictionPolicy::OnFence),
            pcs: vec![0; self.threads.len()],
            regs: vec![Vec::new(); self.threads.len()],
        }
    }

    fn explore(&self, state: State, sink: &mut impl FnMut(State)) {
        let mut progressed = false;
        for t in 0..self.threads.len() {
            let tid = ThreadId(t as u32);
            // Choice: execute the thread's next instruction.
            if state.pcs[t] < self.threads[t].len() {
                progressed = true;
                let mut next = state.clone();
                next.pcs[t] += 1;
                self.step(&mut next, t, self.threads[t][state.pcs[t]]);
                self.explore(next, sink);
            }
            // Choice: evict one entry from the thread's store buffer.
            let mut next = state.clone();
            if next.machine.evict_one(tid) {
                progressed = true;
                self.explore(next, sink);
            }
        }
        if !progressed {
            // All threads done and all buffers empty: record the outcome.
            // Deferred clflushopt entries keep their lines unconstrained,
            // exactly as at a power failure.
            sink(state);
        }
    }

    /// Samples `iterations` random schedules (uniformly choosing, at each
    /// step, a thread to advance or a store buffer to evict) and returns
    /// the outcomes observed — the paper's future-work idea of *fuzzing*
    /// for concurrency bugs with the controlled scheduler, usable where
    /// exhaustive interleaving ([`LitmusProgram::outcomes`]) is too large.
    ///
    /// Sampling is deterministic in `seed`; the result is always a subset
    /// of the exhaustive outcome set.
    pub fn outcomes_sampled(&self, seed: u64, iterations: u32) -> BTreeSet<LitmusOutcome> {
        let mut rng = ScheduleRng::new(seed);
        let mut results = BTreeSet::new();
        for _ in 0..iterations {
            let mut state = State {
                machine: TsoMachine::new(EvictionPolicy::OnFence),
                pcs: vec![0; self.threads.len()],
                regs: vec![Vec::new(); self.threads.len()],
            };
            loop {
                // Enumerate the enabled moves: (thread, execute) and
                // (thread, evict) pairs.
                let mut moves: Vec<(usize, bool)> = Vec::new();
                for t in 0..self.threads.len() {
                    if state.pcs[t] < self.threads[t].len() {
                        moves.push((t, false));
                    }
                    moves.push((t, true)); // eviction may be a no-op
                }
                let mut progressed = false;
                while !moves.is_empty() {
                    let pick = rng.pick(moves.len());
                    let (t, evict) = moves.swap_remove(pick);
                    if evict {
                        if state.machine.evict_one(ThreadId(t as u32)) {
                            progressed = true;
                            break;
                        }
                    } else {
                        let op = self.threads[t][state.pcs[t]];
                        state.pcs[t] += 1;
                        self.step(&mut state, t, op);
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    break;
                }
            }
            results.insert(outcome_of(state));
        }
        results
    }

    fn step(&self, state: &mut State, t: usize, op: LitmusOp) {
        let tid = ThreadId(t as u32);
        let loc = Location::caller();
        match op {
            LitmusOp::Store(addr, v) => state.machine.store(tid, addr, &[v], loc),
            LitmusOp::Load(addr) => {
                let v = load(&state.machine, tid, addr);
                state.regs[t].push(v);
            }
            LitmusOp::Clflush(addr) => state.machine.clflush(tid, addr.cache_line()),
            LitmusOp::Clflushopt(addr) => state.machine.clflushopt(tid, addr.cache_line()),
            LitmusOp::Clwb(addr) => state.machine.clwb(tid, addr.cache_line()),
            LitmusOp::Sfence => state.machine.sfence(tid),
            LitmusOp::Mfence => state.machine.mfence(tid),
            LitmusOp::Rmw(addr, v) => {
                // Locked exchange: fence, read-modify-write, fence — all
                // atomically within one litmus step, which is exactly the
                // global ordering a locked instruction provides.
                state.machine.mfence(tid);
                let old = load(&state.machine, tid, addr);
                state.regs[t].push(old);
                state.machine.store(tid, addr, &[v], loc);
                state.machine.mfence(tid);
            }
        }
    }
}

/// `tid`'s load of `addr`: its store buffer, then the cache, else initial
/// memory (0).
fn load(machine: &TsoMachine, tid: ThreadId, addr: PmAddr) -> u8 {
    let mut vals = [0; CACHE_LINE_SIZE];
    let off = addr.line_offset();
    machine.read_current(tid, addr.cache_line(), 1 << off, &mut vals);
    vals[off]
}

/// Expands one terminal machine state into its allowed crash states:
/// the product, over every line holding stored addresses, of the line's
/// candidate writeback points.
fn collect_crash_outcomes(
    state: &State,
    addrs: &[PmAddr],
    results: &mut BTreeSet<LitmusCrashOutcome>,
) {
    let storage = state.machine.storage();
    // Group the (sorted) address universe by cache line; line order
    // follows address order, so concatenating per-line snapshots keeps
    // the global vector address-sorted.
    let mut groups: Vec<(CacheLineId, Vec<PmAddr>)> = Vec::new();
    for &a in addrs {
        match groups.last_mut() {
            Some((line, v)) if *line == a.cache_line() => v.push(a),
            _ => groups.push((a.cache_line(), vec![a])),
        }
    }
    // Per line: the distinct persisted snapshots its writeback points
    // allow. At a completed execution the interval end is still open,
    // so every store past the guarantee is a candidate point.
    let per_line: Vec<Vec<Vec<(u64, u8)>>> = groups
        .iter()
        .map(|(line, line_addrs)| {
            let snaps: BTreeSet<Vec<(u64, u8)>> = storage
                .writeback_points(*line)
                .into_iter()
                .map(|w| {
                    line_addrs
                        .iter()
                        .map(|&a| (a.offset(), storage.snapshot_value(a, w).unwrap_or(0)))
                        .collect()
                })
                .collect();
            snaps.into_iter().collect()
        })
        .collect();
    // Odometer over the per-line alternatives.
    let mut idx = vec![0usize; per_line.len()];
    'product: loop {
        let mem: Vec<(u64, u8)> = per_line
            .iter()
            .zip(idx.iter())
            .flat_map(|(alts, &i)| alts[i].iter().copied())
            .collect();
        results.insert(LitmusCrashOutcome {
            regs: state.regs.clone(),
            mem,
        });
        let mut i = 0;
        while i < per_line.len() {
            if idx[i] + 1 < per_line[i].len() {
                idx[i] += 1;
                continue 'product;
            }
            idx[i] = 0;
            i += 1;
        }
        break;
    }
}

fn outcome_of(state: State) -> LitmusOutcome {
    let storage = state.machine.storage();
    let mut lines: Vec<CacheLineId> = storage.touched_lines().collect();
    lines.sort();
    let flush_bounds = lines
        .into_iter()
        .map(|l| {
            let iv: FlushInterval = storage.interval(l);
            let end = (!iv.end().is_infinite()).then(|| iv.end().value());
            (l.index(), iv.begin().value(), end)
        })
        .filter(|&(_, begin, end)| begin != Seq::ZERO.value() || end.is_some())
        .collect();
    LitmusOutcome {
        regs: state.regs,
        flush_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: PmAddr = PmAddr::new(64);
    const Y: PmAddr = PmAddr::new(128);

    fn reg_outcomes(p: &LitmusProgram) -> BTreeSet<Vec<Vec<u8>>> {
        p.outcomes().into_iter().map(|o| o.regs).collect()
    }

    #[test]
    fn store_buffering_allows_both_zero() {
        // SB: Wx1; Ry || Wy1; Rx — TSO allows r1 = r2 = 0.
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Store(X, 1), LitmusOp::Load(Y)],
            vec![LitmusOp::Store(Y, 1), LitmusOp::Load(X)],
        ]);
        let outcomes = reg_outcomes(&p);
        assert!(
            outcomes.contains(&vec![vec![0], vec![0]]),
            "W→R reordering observable"
        );
        assert!(outcomes.contains(&vec![vec![1], vec![1]]));
    }

    #[test]
    fn mfence_forbids_both_zero() {
        // SB with mfence between store and load on both threads: the
        // r1 = r2 = 0 outcome must disappear (Table 1: mfence orders all).
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Store(X, 1), LitmusOp::Mfence, LitmusOp::Load(Y)],
            vec![LitmusOp::Store(Y, 1), LitmusOp::Mfence, LitmusOp::Load(X)],
        ]);
        let outcomes = reg_outcomes(&p);
        assert!(
            !outcomes.contains(&vec![vec![0], vec![0]]),
            "mfence forbids SB outcome"
        );
        assert!(outcomes.contains(&vec![vec![1], vec![1]]));
    }

    #[test]
    fn stores_become_visible_in_program_order() {
        // Message passing: Wx1; Wy1 || Ry; Rx — TSO forbids r(y)=1, r(x)=0.
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Store(X, 1), LitmusOp::Store(Y, 1)],
            vec![LitmusOp::Load(Y), LitmusOp::Load(X)],
        ]);
        let outcomes = reg_outcomes(&p);
        assert!(
            !outcomes.contains(&vec![vec![], vec![1, 0]]),
            "no W→W reordering on TSO"
        );
        assert!(outcomes.contains(&vec![vec![], vec![1, 1]]));
        assert!(outcomes.contains(&vec![vec![], vec![0, 0]]));
    }

    #[test]
    fn own_stores_bypass_the_buffer() {
        let p = LitmusProgram::new(vec![vec![LitmusOp::Store(X, 7), LitmusOp::Load(X)]]);
        let outcomes = reg_outcomes(&p);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes.contains(&vec![vec![7]]));
    }

    #[test]
    fn unfenced_clflushopt_may_leave_line_unconstrained() {
        // store x; clflushopt x — without a fence the flush may never take
        // effect (flush-buffer entry dropped at the failure).
        let p = LitmusProgram::new(vec![vec![LitmusOp::Store(X, 1), LitmusOp::Clflushopt(X)]]);
        let outcomes = p.outcomes();
        assert!(
            outcomes.iter().any(|o| o.flush_bounds.is_empty()),
            "some execution leaves the line unconstrained: {outcomes:?}"
        );
    }

    #[test]
    fn fenced_clflushopt_always_constrains() {
        let p = LitmusProgram::new(vec![vec![
            LitmusOp::Store(X, 1),
            LitmusOp::Clflushopt(X),
            LitmusOp::Sfence,
        ]]);
        let outcomes = p.outcomes();
        assert!(
            outcomes.iter().all(|o| !o.flush_bounds.is_empty()),
            "every execution constrains the line: {outcomes:?}"
        );
    }

    #[test]
    fn sampled_schedules_are_a_subset_of_exhaustive() {
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Store(X, 1), LitmusOp::Load(Y)],
            vec![LitmusOp::Store(Y, 1), LitmusOp::Load(X)],
        ]);
        let exhaustive = p.outcomes();
        let sampled = p.outcomes_sampled(7, 200);
        assert!(sampled.is_subset(&exhaustive));
        // Enough samples find the store-buffering relaxation too.
        assert!(sampled.iter().any(|o| o.regs == vec![vec![0], vec![0]]));
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Store(X, 1), LitmusOp::Load(Y)],
            vec![LitmusOp::Store(Y, 1), LitmusOp::Load(X)],
        ]);
        assert_eq!(p.outcomes_sampled(42, 50), p.outcomes_sampled(42, 50));
        // (Different seeds may or may not differ; determinism is the claim.)
    }

    #[test]
    fn rmw_is_dual_fenced() {
        // SB with locked exchanges instead of plain stores: the locked
        // RMW drains the buffer on both sides, so the both-old-values-
        // zero relaxation disappears.
        let p = LitmusProgram::new(vec![
            vec![LitmusOp::Rmw(X, 1), LitmusOp::Load(Y)],
            vec![LitmusOp::Rmw(Y, 1), LitmusOp::Load(X)],
        ]);
        let outcomes = reg_outcomes(&p);
        assert!(
            !outcomes.contains(&vec![vec![0, 0], vec![0, 0]]),
            "locked RMW forbids the SB relaxation"
        );
    }

    #[test]
    fn competing_rmws_serialize() {
        let p = LitmusProgram::new(vec![vec![LitmusOp::Rmw(X, 1)], vec![LitmusOp::Rmw(X, 2)]]);
        let outcomes = reg_outcomes(&p);
        assert!(!outcomes.contains(&vec![vec![0], vec![0]]));
        assert!(outcomes.contains(&vec![vec![0], vec![1]]));
        assert!(outcomes.contains(&vec![vec![2], vec![0]]));
    }

    #[test]
    fn clwb_behaves_like_clflushopt() {
        let mk = |flush: fn(PmAddr) -> LitmusOp| {
            LitmusProgram::new(vec![vec![
                LitmusOp::Store(X, 1),
                flush(X),
                LitmusOp::Sfence,
            ]])
        };
        assert_eq!(
            mk(LitmusOp::Clwb).outcomes(),
            mk(LitmusOp::Clflushopt).outcomes()
        );
    }

    #[test]
    fn crash_outcomes_of_fenced_flush_pin_the_value() {
        let p = LitmusProgram::new(vec![vec![
            LitmusOp::Store(X, 1),
            LitmusOp::Clflushopt(X),
            LitmusOp::Sfence,
        ]]);
        let crashes = p.crash_outcomes();
        assert!(
            crashes.iter().all(|c| c.mem == vec![(64, 1)]),
            "{crashes:?}"
        );
    }

    #[test]
    fn crash_outcomes_of_unflushed_store_include_initial() {
        let p = LitmusProgram::new(vec![vec![LitmusOp::Store(X, 1)]]);
        let mems: BTreeSet<Vec<(u64, u8)>> =
            p.crash_outcomes().into_iter().map(|c| c.mem).collect();
        assert_eq!(mems, BTreeSet::from([vec![(64, 0)], vec![(64, 1)]]));
    }

    #[test]
    fn clflush_always_constrains_once_evicted() {
        let p = LitmusProgram::new(vec![vec![LitmusOp::Store(X, 1), LitmusOp::Clflush(X)]]);
        let outcomes = p.outcomes();
        // Buffers fully drain before an outcome is recorded, so the
        // clflush always lands.
        assert!(outcomes.iter().all(|o| !o.flush_bounds.is_empty()));
    }
}
