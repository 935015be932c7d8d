//! Reads-from computation and constraint refinement across executions.
//!
//! This module implements the heart of Jaaru: `ReadPreFailure` (Figure 9),
//! which computes the set of pre-failure stores a post-failure load may
//! read from under the current most-recent-writeback intervals, and
//! `DoRead`/`UpdateRanges` (Figure 10), which refine those intervals once
//! the exploration commits the load to one candidate.
//!
//! `ReadPreFailure` comes in two grains. [`read_pre_failure_line`] takes
//! every byte a load wants from one cache line at once and settles each
//! byte with a single candidate; the rare byte with several goes through
//! [`read_pre_failure`] (or [`read_pre_failure_into`]), which lists them
//! for the exploration to choose from.
//!
//! The *execution stack* passed to these functions holds the storage of
//! every execution that ended in a failure, oldest first; the currently
//! running execution is *not* on the stack (its store buffer and cache are
//! consulted first, Figure 9 lines 2–5). The running execution's loads
//! are answered by one line image, which the machine owns
//! ([`TsoMachine::load`](crate::TsoMachine::load)): per cache line, the
//! bytes the execution wrote, written through as its stores reach the
//! cache, and the bytes [`read_pre_failure_line`] settled, resolved once
//! per line and execution. Refinement only narrows intervals, so a
//! settled byte stays settled until the stack changes otherwise.

use jaaru_pmem::{CacheLineId, PmAddr, CACHE_LINE_SIZE};

use crate::storage::{line_parts, runs, LineStore};
use crate::{ExecutionStorage, Seq, StoreId};

/// Where a post-failure load's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RfSource {
    /// The initial (zeroed) contents of the persistent pool; no execution
    /// ever persisted a store to this byte.
    Initial,
    /// A store performed by execution `exec` (index into the stack).
    Store {
        /// Index of the execution in the stack.
        exec: usize,
        /// The store event within that execution.
        store: StoreId,
    },
}

/// One candidate a post-failure load may read from: the paper's tuple
/// `⟨e, σ, val⟩`, restricted to a single byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RfCandidate {
    /// Origin of the value.
    pub source: RfSource,
    /// The byte value the load would observe.
    pub value: u8,
    /// Cache position of the store within its execution ([`Seq::ZERO`] for
    /// [`RfSource::Initial`]).
    pub seq: Seq,
}

impl RfCandidate {
    /// The initial-memory candidate (value 0, before every store).
    pub const INITIAL: RfCandidate = RfCandidate {
        source: RfSource::Initial,
        value: 0,
        seq: Seq::ZERO,
    };
}

/// `ReadPreFailure` (Figure 9): the stores in pre-failure executions that a
/// load of byte `addr` may read from, given each execution's current
/// writeback interval for the byte's cache line.
///
/// Candidates are ordered newest-execution-first, and within an execution
/// newest-store-first, with [`RfCandidate::INITIAL`] last; the first
/// candidate is therefore the value the program would see on a machine
/// that persisted everything (the "expected" value), which lets the
/// checker explore the happy path first.
///
/// The returned set is never empty.
pub fn read_pre_failure(stack: &[ExecutionStorage], addr: PmAddr) -> Vec<RfCandidate> {
    let mut out = Vec::new();
    read_pre_failure_into(stack, addr, &mut out);
    out
}

/// [`read_pre_failure`] into a caller's buffer, which is cleared first, so
/// a hot loop can reuse one allocation.
///
/// A single candidate is either the store pinned at or before its
/// execution's interval begin, with no newer store of the byte inside any
/// newer execution's interval, or initial memory with no store inside any
/// interval. [`do_read`] of it changes no interval, so a caller may skip
/// that call.
pub fn read_pre_failure_into(stack: &[ExecutionStorage], addr: PmAddr, out: &mut Vec<RfCandidate>) {
    out.clear();
    let off = addr.line_offset();
    for (exec, st) in stack.iter().enumerate().rev() {
        let Some((log, iv)) = st.line(addr.cache_line()) else {
            continue;
        };
        let candidate = |s: &LineStore| RfCandidate {
            source: RfSource::Store {
                exec,
                store: s.store,
            },
            value: log.value(s, off),
            seq: s.seq,
        };
        // Stores with σ ≤ begin: only the newest one is readable (it is
        // what the last writeback captured if the writeback happened at
        // `begin`). Stores with begin < σ < end are all readable.
        let (before, after) = log.stores.split_at(log.after(iv.begin()));
        let readable = after.partition_point(|s| s.seq < iv.end());
        out.extend(
            after[..readable]
                .iter()
                .rev()
                .filter(|s| s.covers(off))
                .map(candidate),
        );
        if let Some(pinned) = before.iter().rev().find(|s| s.covers(off)) {
            out.push(candidate(pinned));
            // A store at or before `begin` pins the line: the writeback
            // definitely captured it, so older executions are invisible.
            return;
        }
    }
    out.push(RfCandidate::INITIAL);
}

/// `ReadPreFailure` for the bytes `want` of `line` at once (bit `i` is line
/// offset `i`): per execution, one slot lookup and two binary searches,
/// however many bytes are wanted.
///
/// Writes the value of each wanted byte with a single candidate (see
/// [`read_pre_failure_into`]) into `vals` at its line offset, and returns
/// the mask of the other wanted bytes: those whose [`read_pre_failure`]
/// has more than one candidate (their bytes in `vals` may be written
/// too). Bytes outside `want` are left as they are. Each run of bytes one store
/// pins, and the initial memory under every wanted byte, is written as
/// one slice.
///
/// A byte with a single candidate keeps it, and its value, whatever
/// [`do_read`] refines: refinement only narrows intervals, so no store
/// enters a readable window and no newer store becomes pinned. A load may
/// therefore settle its single-candidate bytes first and choose the others
/// one by one.
pub fn read_pre_failure_line(
    stack: &[ExecutionStorage],
    line: CacheLineId,
    want: u64,
    vals: &mut [u8; CACHE_LINE_SIZE],
) -> u64 {
    let mut multi = 0;
    // Wanted bytes that no newer execution has pinned or made multi. Every
    // wanted byte reads initial memory until a pinned store overwrites it.
    let mut need = want;
    for run in runs(want) {
        vals[run].fill(RfCandidate::INITIAL.value);
    }
    for st in stack.iter().rev() {
        if need == 0 {
            break;
        }
        let Some((log, iv)) = st.line(line) else {
            continue;
        };
        let (before, after) = log.stores.split_at(log.after(iv.begin()));
        let readable = after.partition_point(|s| s.seq < iv.end());
        // A readable store is one candidate, and the byte's pinned store
        // (here or older) or initial memory is always another.
        let window = after[..readable].iter().fold(0, |m, s| m | s.mask);
        multi |= need & window;
        need &= !window;
        // Each other byte's newest store at or before `begin` pins it. A
        // byte no store of the line writes has nothing to find, so the
        // scan stops once every byte some store writes is pinned.
        let mut pinnable = need & log.written;
        for s in before.iter().rev() {
            if pinnable == 0 {
                break;
            }
            let pinned = pinnable & s.mask;
            log.copy_values(s, pinned, vals);
            pinnable &= !pinned;
            need &= !pinned;
        }
    }
    multi
}

/// Cache lines a [`LineImage`] holds at once.
const IMAGE_LINES: usize = 64;

/// One line of a [`LineImage`].
#[derive(Clone, Copy, Debug)]
struct ImageLine {
    /// The image epoch the line entered in; any other is empty.
    epoch: u64,
    line: CacheLineId,
    /// The bytes a load can be answered with: bit `i` is line offset `i`.
    known: u64,
    /// Whether the bytes the execution had not written were resolved
    /// against the stack.
    resolved: bool,
    /// The value of each known byte, at its line offset.
    vals: [u8; CACHE_LINE_SIZE],
}

impl ImageLine {
    const EMPTY: ImageLine = ImageLine {
        epoch: 0,
        line: CacheLineId::new(0),
        known: 0,
        resolved: false,
        vals: [0; CACHE_LINE_SIZE],
    };

    /// Whether the slot holds `line` in the image epoch `epoch`.
    fn holds(&self, epoch: u64, line: CacheLineId) -> bool {
        self.epoch == epoch && self.line == line
    }
}

/// The index of `line`'s slot in a [`LineImage`].
fn slot_index(line: CacheLineId) -> usize {
    line.index() as usize % IMAGE_LINES
}

/// What the running execution's loads read, per cache line: every byte a
/// load can be answered with (Figure 9), in one direct-mapped table of 64
/// lines that [`TsoMachine`](crate::TsoMachine) owns.
///
/// A byte is known when the running execution wrote it (each store is
/// written through as it reaches the cache), when it has a single
/// pre-failure candidate, or when a read committed it to one
/// ([`settle`](Self::settle)). A line enters with the execution's own
/// bytes. The first load that wants a byte the execution never wrote
/// resolves those bytes against the stack with [`read_pre_failure_line`],
/// once per line, and the others, which have several candidates, are left
/// for [`read_pre_failure`] and `settle`. Refinement only narrows
/// intervals, so a byte with a single candidate keeps it, and its value,
/// whatever [`do_read`] refines, and a committed byte has that candidate
/// left: a known byte stays known for as long as the stack changes only by
/// refinement. The machine [clears](Self::clear) the image at each reset,
/// and its caller changes the stack otherwise only there: at a new
/// scenario and at each failure.
///
/// A line meeting another in its slot enters again, and is resolved again
/// if a load wants its pre-failure bytes; such a load is slower, never
/// wrong. A line whose loads want only the execution's own bytes never
/// takes the slot of a resolved line, so the image resolves a line exactly
/// when a table of resolved lines alone would.
#[derive(Clone, Debug)]
pub(crate) struct LineImage {
    epoch: u64,
    /// Allocated by the first load through the image, so a machine that
    /// never loads through it (the litmus enumerator, Yat) pays nothing,
    /// and clones nothing when it forks.
    lines: Option<Box<[ImageLine; IMAGE_LINES]>>,
}

impl Default for LineImage {
    fn default() -> Self {
        // Past every empty slot's epoch.
        LineImage {
            epoch: 1,
            lines: None,
        }
    }
}

impl LineImage {
    /// Forgets every line: a new execution starts, or the stack changed
    /// other than by refinement.
    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
    }

    /// The `len` bytes at offset `off` of `line`, at least one and all in
    /// the line, if the image knows them all.
    #[inline]
    pub(crate) fn known(&self, line: CacheLineId, off: usize, len: usize) -> Option<&[u8]> {
        let slot = &self.lines.as_ref()?[slot_index(line)];
        let mask = (u64::MAX >> (CACHE_LINE_SIZE - len)) << off;
        (slot.holds(self.epoch, line) && slot.known & mask == mask)
            .then(|| &slot.vals[off..off + len])
    }

    /// Writes a store of `bytes` at `addr` through to the lines the image
    /// holds.
    pub(crate) fn write(&mut self, addr: PmAddr, bytes: &[u8]) {
        let epoch = self.epoch;
        let Some(lines) = &mut self.lines else {
            return;
        };
        for (line, mask, start) in line_parts(addr, bytes.len()) {
            let slot = &mut lines[slot_index(line)];
            if slot.holds(epoch, line) {
                let off = mask.trailing_zeros() as usize;
                let part = &bytes[start..start + mask.count_ones() as usize];
                slot.vals[off..off + part.len()].copy_from_slice(part);
                slot.known |= mask;
            }
        }
    }

    /// Reads the bytes `want` of `line` (bit `i` is line offset `i`): the
    /// running execution's own from `cache`, its storage, and the others
    /// from `stack`, resolving the bytes the execution never wrote first
    /// unless this execution did already. Writes each known wanted byte
    /// into `vals` at its line offset, leaves the others as they are, and
    /// returns the mask of the others, which need [`read_pre_failure`] and
    /// then [`settle`](Self::settle), with whether this read resolved the
    /// line.
    pub(crate) fn read(
        &mut self,
        stack: &[ExecutionStorage],
        cache: &ExecutionStorage,
        line: CacheLineId,
        want: u64,
        vals: &mut [u8; CACHE_LINE_SIZE],
    ) -> (u64, bool) {
        let epoch = self.epoch;
        let lines = self
            .lines
            .get_or_insert_with(|| Box::new([ImageLine::EMPTY; IMAGE_LINES]));
        let slot = &mut lines[slot_index(line)];
        if !slot.holds(epoch, line) {
            // A resolved line keeps its slot from a load the execution's
            // own bytes answer.
            if slot.epoch == epoch && slot.resolved && cache.read_cache(line, want, vals) == 0 {
                return (0, false);
            }
            *slot = ImageLine {
                epoch,
                line,
                ..ImageLine::EMPTY
            };
            slot.known = !cache.read_cache(line, u64::MAX, &mut slot.vals);
        }
        let resolve = want & !slot.known != 0 && !slot.resolved;
        if resolve {
            // Every byte not known yet is one the execution never wrote.
            let multi = read_pre_failure_line(stack, line, !slot.known, &mut slot.vals);
            slot.known = !multi;
            slot.resolved = true;
        }
        for run in runs(want & slot.known) {
            vals[run.clone()].copy_from_slice(&slot.vals[run]);
        }
        (want & !slot.known, resolve)
    }

    /// Knows the byte at offset `off` of `line` as `value`: the value its
    /// read just committed to, or found to be the only candidate left.
    /// `line` must be the line this image last [read](Self::read).
    pub(crate) fn settle(&mut self, line: CacheLineId, off: usize, value: u8) {
        let epoch = self.epoch;
        let slot = self
            .lines
            .as_mut()
            .map(|lines| &mut lines[slot_index(line)])
            .filter(|slot| slot.holds(epoch, line))
            .expect("a settled byte's line is in the image");
        slot.known |= 1 << off;
        slot.vals[off] = value;
    }
}

/// `DoRead`/`UpdateRanges` (Figure 10): refine writeback intervals after
/// the exploration commits a load of `addr` to `chosen`.
///
/// For every execution *newer* than the chosen store's, the last writeback
/// of the line must have happened before that execution's first store to
/// the byte (otherwise the newer store would have been visible); for the
/// chosen execution, the writeback happened at or after the chosen store
/// and before the next store to the byte.
///
/// Reads satisfied by the *current* execution's buffers/cache involve no
/// refinement and must not be passed here. Only intervals change: no
/// execution's stores are written.
pub fn do_read(stack: &mut [ExecutionStorage], addr: PmAddr, chosen: RfCandidate) {
    let line = addr.cache_line();
    let newer_than = match chosen.source {
        RfSource::Initial => 0,
        RfSource::Store { exec, .. } => exec + 1,
    };
    for st in &mut stack[newer_than..] {
        if let Some(first) = st.first_store_seq(addr) {
            st.interval_mut(line)
                .expect("a stored line has a slot")
                .lower_end(first);
        }
    }
    if let RfSource::Store { exec, .. } = chosen.source {
        let st = &mut stack[exec];
        let next = st.next_store_after(addr, chosen.seq);
        let iv = st
            .interval_mut(line)
            .expect("the chosen store's line has a slot");
        iv.raise_begin(chosen.seq);
        if let Some(next) = next {
            iv.lower_end(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceLoc, ThreadId};
    use std::panic::Location;

    fn loc() -> SourceLoc {
        Location::caller()
    }

    /// Builds one execution's storage from (addr, value) stores with an
    /// optional clflush position (index into the store list, flushing the
    /// line of the given address *after* that many stores).
    struct Builder {
        st: ExecutionStorage,
        sigma: Seq,
    }

    impl Builder {
        fn new() -> Self {
            Builder {
                st: ExecutionStorage::new(),
                sigma: Seq::ZERO,
            }
        }

        fn store(&mut self, addr: u64, v: u8) -> Seq {
            let seq = self.sigma.bump();
            self.st
                .record_store(PmAddr::new(addr), &[v], ThreadId(0), loc(), seq);
            seq
        }

        fn clflush(&mut self, addr: u64) -> Seq {
            let seq = self.sigma.bump();
            self.st.record_flush(PmAddr::new(addr).cache_line(), seq);
            seq
        }

        fn done(self) -> ExecutionStorage {
            self.st
        }
    }

    fn values(cands: &[RfCandidate]) -> Vec<u8> {
        cands.iter().map(|c| c.value).collect()
    }

    #[test]
    fn unwritten_byte_reads_initial_zero() {
        let stack = vec![ExecutionStorage::new()];
        let cands = read_pre_failure(&stack, PmAddr::new(64));
        assert_eq!(cands, vec![RfCandidate::INITIAL]);
    }

    #[test]
    fn unflushed_stores_are_all_candidates_plus_initial() {
        let mut b = Builder::new();
        b.store(64, 1);
        b.store(64, 2);
        b.store(64, 3);
        let stack = vec![b.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(64));
        assert_eq!(values(&cands), vec![3, 2, 1, 0]);
    }

    #[test]
    fn clflush_pins_the_pre_flush_store() {
        // x=1; clflush; x=2; x=3  →  candidates {3, 2, 1}, not initial:
        // the flush guarantees the line was written back at least once
        // after x=1.
        let mut b = Builder::new();
        b.store(64, 1);
        b.clflush(64);
        b.store(64, 2);
        b.store(64, 3);
        let stack = vec![b.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(64));
        assert_eq!(values(&cands), vec![3, 2, 1]);
    }

    #[test]
    fn figure_2_and_3_scenario() {
        // y=1; x=2; clflush(x); y=3; x=4; y=5; x=6   (x=64+8, y=64; same line)
        let x = 72;
        let y = 64;
        let mut b = Builder::new();
        b.store(y, 1);
        b.store(x, 2);
        b.clflush(x);
        b.store(y, 3);
        let s_x4 = b.store(x, 4);
        b.store(y, 5);
        let s_x6 = b.store(x, 6);
        let mut stack = vec![b.done()];

        // Post-failure: x may be 2, 4 or 6 (never initial 0 — the flush
        // pinned x=2 as the oldest possibility).
        let cands = read_pre_failure(&stack, PmAddr::new(x));
        assert_eq!(values(&cands), vec![6, 4, 2]);

        // The recovery reads x = 4: interval refines to [x=4, x=6).
        let chosen = cands.iter().find(|c| c.value == 4).copied().unwrap();
        do_read(&mut stack, PmAddr::new(x), chosen);
        let iv = stack[0].interval(PmAddr::new(x).cache_line());
        assert_eq!(iv.begin(), s_x4);
        assert_eq!(iv.end(), s_x6);

        // Now y can only be 3 or 5 — reading y=1 is impossible (Figure 3).
        let cands = read_pre_failure(&stack, PmAddr::new(y));
        assert_eq!(values(&cands), vec![5, 3]);
    }

    #[test]
    fn refinement_is_transitive_across_bytes() {
        // After committing y to a value, x's candidates shrink again.
        let x = 72;
        let y = 64;
        let mut b = Builder::new();
        b.store(y, 1);
        b.store(x, 2);
        b.clflush(x);
        b.store(y, 3);
        b.store(x, 4);
        b.store(y, 5);
        b.store(x, 6);
        let mut stack = vec![b.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(y));
        // y readable: 5, 3, 1.
        assert_eq!(values(&cands), vec![5, 3, 1]);
        let chosen = cands.iter().find(|c| c.value == 3).copied().unwrap();
        do_read(&mut stack, PmAddr::new(y), chosen);
        // Writeback in [y=3, y=5) → x must read 2 or 4... and x=2 requires
        // writeback ≥ clflush which is < y=3 — the writeback is now ≥ y=3,
        // so only x∈{2?}: no. begin = y=3 seq; x=2 has σ ≤ begin → pinned
        // oldest candidate; x=4 σ < end.
        let cands = read_pre_failure(&stack, PmAddr::new(x));
        assert_eq!(values(&cands), vec![4, 2]);
        // Commit x=4 → y was already 3; further reads of x are singleton.
        let chosen = cands.iter().find(|c| c.value == 4).copied().unwrap();
        do_read(&mut stack, PmAddr::new(x), chosen);
        let cands = read_pre_failure(&stack, PmAddr::new(x));
        assert_eq!(values(&cands), vec![4]);
    }

    #[test]
    fn reads_recurse_into_older_executions() {
        // Execution 0 stores and flushes a=1; execution 1 stores a=2
        // without flushing. Recovery may read 2 (exec 1 writeback) or 1
        // (exec 0's flushed value), but not 0.
        let a = 64;
        let mut b0 = Builder::new();
        b0.store(a, 1);
        b0.clflush(a);
        let mut b1 = Builder::new();
        b1.store(a, 2);
        let stack = vec![b0.done(), b1.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        assert_eq!(values(&cands), vec![2, 1]);
        assert!(matches!(cands[0].source, RfSource::Store { exec: 1, .. }));
        assert!(matches!(cands[1].source, RfSource::Store { exec: 0, .. }));
    }

    #[test]
    fn reading_old_execution_constrains_newer_ones() {
        // Reading exec 0's value implies exec 1 never wrote the line back
        // after its store, so exec 1's interval end drops below its first
        // store to the byte.
        let a = 64;
        let mut b0 = Builder::new();
        b0.store(a, 1);
        b0.clflush(a);
        let mut b1 = Builder::new();
        let first1 = b1.store(a, 2);
        let mut stack = vec![b0.done(), b1.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        let old = cands.iter().find(|c| c.value == 1).copied().unwrap();
        do_read(&mut stack, PmAddr::new(a), old);
        assert_eq!(stack[1].interval(PmAddr::new(a).cache_line()).end(), first1);
        // A second read of the same byte is now forced to the same value.
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        assert_eq!(values(&cands), vec![1]);
    }

    #[test]
    fn initial_choice_constrains_every_execution() {
        let a = 64;
        let mut b0 = Builder::new();
        let first0 = b0.store(a, 1);
        let mut b1 = Builder::new();
        let first1 = b1.store(a, 2);
        let mut stack = vec![b0.done(), b1.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        assert_eq!(values(&cands), vec![2, 1, 0]);
        do_read(&mut stack, PmAddr::new(a), RfCandidate::INITIAL);
        let line = PmAddr::new(a).cache_line();
        assert_eq!(stack[0].interval(line).end(), first0);
        assert_eq!(stack[1].interval(line).end(), first1);
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        assert_eq!(cands, vec![RfCandidate::INITIAL]);
    }

    #[test]
    fn same_line_sibling_byte_is_constrained_by_initial_choice() {
        // Committing byte a to "initial" forbids reading the sibling byte's
        // store from the same line when it was stored before a.
        let a = 64;
        let b_addr = 65;
        let mut b0 = Builder::new();
        b0.store(b_addr, 7); // earlier store, same line
        b0.store(a, 1);
        let mut stack = vec![b0.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(a));
        do_read(&mut stack, PmAddr::new(a), *cands.last().unwrap()); // initial
                                                                     // Writeback before b=7? end = first store to byte a... the line
                                                                     // interval end is now a's first store seq, which is *after* b=7,
                                                                     // so b=7 remains possible — but so does initial for b.
        let cands_b = read_pre_failure(&stack, PmAddr::new(b_addr));
        assert_eq!(values(&cands_b), vec![7, 0]);
        // Commit b to initial too; now the line was never written back.
        do_read(&mut stack, PmAddr::new(b_addr), *cands_b.last().unwrap());
        let cands_b = read_pre_failure(&stack, PmAddr::new(b_addr));
        assert_eq!(values(&cands_b), vec![0]);
    }

    #[test]
    fn commit_store_example_pins_data_field() {
        // Figure 4 essence: data (line A) written then clflushed; child
        // pointer (line B) written then clflushed. If recovery reads the
        // pointer as non-null, the data field must read the stored value.
        let data = 64; // line 1
        let child = 128; // line 2
        let mut b = Builder::new();
        b.store(data, 42);
        b.clflush(data);
        b.store(child, 1); // non-null marker
        b.clflush(child);
        let mut stack = vec![b.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(child));
        assert_eq!(values(&cands), vec![1], "flushed commit store is forced");
        do_read(&mut stack, PmAddr::new(child), cands[0]);
        let cands = read_pre_failure(&stack, PmAddr::new(data));
        assert_eq!(values(&cands), vec![42], "data pinned by its clflush");
    }

    #[test]
    fn candidates_are_newest_first() {
        let mut b0 = Builder::new();
        b0.store(64, 1);
        let mut b1 = Builder::new();
        b1.store(64, 2);
        b1.store(64, 3);
        let stack = vec![b0.done(), b1.done()];
        let cands = read_pre_failure(&stack, PmAddr::new(64));
        assert_eq!(values(&cands), vec![3, 2, 1, 0]);
    }
}
