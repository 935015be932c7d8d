//! Per-execution storage state: cache contents and writeback intervals.
//!
//! An [`ExecutionStorage`] is the record of everything one execution wrote
//! to the cache, kept per cache line as the paper's model is
//! (`e.getcacheline`, Figures 9–10). Each line the execution touched gets a
//! dense *slot*: the line's stores in cache order, each with the mask of
//! bytes it wrote, and the line's most-recent-writeback interval. A byte's
//! store queue (`e.queue(addr)`) is the subsequence of its line's stores
//! whose mask covers it.
//!
//! Stores and intervals live apart. While an execution runs, its
//! [`TsoMachine`](crate::TsoMachine) owns the store log alone, and nothing
//! else holds it (a cloned machine, which the litmus enumerator uses to
//! fork executions, shares the log until one of the two records, which
//! then copies it). A power failure at some point of the execution leaves
//! a prefix of the log the execution goes on to write, since stores only
//! append, in `σ` order. So the state a crash would leave needs no copy of
//! the log: a [`CrashPrefix`] keeps the intervals of the lines touched so
//! far, each ending at `σ + 1`, and [`ExecutionStorage::view`] later pairs
//! them with the execution's final log. A view hides the slots created
//! after its prefix, and the clamped ends keep every later store out of
//! reads, pins and refinement (`DoRead`), which only narrows intervals.
//! Clones of crashed storage share the log and copy only the intervals.
//!
//! [`TsoMachine::reset`](crate::TsoMachine::reset) empties a finished
//! execution's storage for a new one and keeps its buffers, so a caller
//! running one execution after another on one machine records each into
//! the same log unless a view still holds it.

use std::ops::Range;
use std::sync::Arc;

use jaaru_pmem::{CacheLineId, PmAddr, CACHE_LINE_SIZE};

use crate::{FlushInterval, Seq, SourceLoc, StoreEvent, StoreId, ThreadId};

/// Splits the `len` bytes at `addr` at cache-line boundaries: for each
/// line the access touches, lowest first, the line, the mask of the line
/// offsets the access covers (bit `i` is offset `i`), and the index in the
/// access of its first byte in the line.
///
/// ```
/// use jaaru_pmem::{CacheLineId, PmAddr};
/// use jaaru_tso::line_parts;
///
/// let parts: Vec<_> = line_parts(PmAddr::new(126), 4).collect();
/// assert_eq!(
///     parts,
///     vec![(CacheLineId::new(1), 0b11 << 62, 0), (CacheLineId::new(2), 0b11, 2)]
/// );
/// ```
pub fn line_parts(addr: PmAddr, len: usize) -> impl Iterator<Item = (CacheLineId, u64, usize)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        (start < len).then(|| {
            let at = addr + start as u64;
            let off = at.line_offset();
            let n = (len - start).min(CACHE_LINE_SIZE - off);
            let part = (
                at.cache_line(),
                (u64::MAX >> (CACHE_LINE_SIZE - n)) << off,
                start,
            );
            start += n;
            part
        })
    })
}

/// The line offsets set in `mask`, lowest first.
pub(crate) fn offsets(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let off = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            off
        })
    })
}

/// The runs of consecutive line offsets set in `mask`, lowest first, so
/// that a copy of the bytes `mask` takes one slice copy per run: one for
/// the bytes of an access, or for a line's whole settled image.
pub(crate) fn runs(mut mask: u64) -> impl Iterator<Item = Range<usize>> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let start = mask.trailing_zeros() as usize;
            let len = (!(mask >> start)).trailing_zeros() as usize;
            mask &= !((u64::MAX >> (CACHE_LINE_SIZE - len)) << start);
            start..start + len
        })
    })
}

/// One store's part in one cache line. A store that straddles two lines
/// has one entry in each, with the same `seq`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineStore {
    /// Cache total-order position of the store.
    pub(crate) seq: Seq,
    /// The store event this part belongs to.
    pub(crate) store: StoreId,
    /// The line bytes written: bit `i` is line offset `i`.
    pub(crate) mask: u64,
    /// Where the written bytes start in the line's `data`.
    data: u32,
}

impl LineStore {
    /// Whether the store wrote the byte at line offset `off`.
    pub(crate) fn covers(&self, off: usize) -> bool {
        self.mask >> off & 1 != 0
    }
}

/// The stores one execution made to one cache line.
#[derive(Clone, Debug)]
pub(crate) struct LineLog {
    line: CacheLineId,
    /// In cache order, so `seq` strictly increases.
    pub(crate) stores: Vec<LineStore>,
    /// The bytes of every store, concatenated in `stores` order.
    data: Vec<u8>,
    /// The line's cache image: the newest value of each byte in `written`.
    cur: [u8; CACHE_LINE_SIZE],
    /// The bytes some store of the whole log writes (a view's prefix may
    /// hold fewer).
    pub(crate) written: u64,
}

impl LineLog {
    fn new(line: CacheLineId) -> Self {
        LineLog {
            line,
            stores: Vec::new(),
            data: Vec::new(),
            cur: [0; CACHE_LINE_SIZE],
            written: 0,
        }
    }

    /// Appends a store of `bytes` to the line bytes in `mask`.
    fn push(&mut self, seq: Seq, store: StoreId, mask: u64, bytes: &[u8]) {
        let off = mask.trailing_zeros() as usize;
        let data = u32::try_from(self.data.len()).expect("line data fits in u32");
        self.stores.push(LineStore {
            seq,
            store,
            mask,
            data,
        });
        self.data.extend_from_slice(bytes);
        self.cur[off..off + bytes.len()].copy_from_slice(bytes);
        self.written |= mask;
    }

    /// The value `s` wrote to the byte at line offset `off` (which its
    /// mask must cover).
    pub(crate) fn value(&self, s: &LineStore, off: usize) -> u8 {
        let first = s.mask.trailing_zeros() as usize;
        self.data[s.data as usize + off - first]
    }

    /// Writes the values `s` wrote to the bytes `mask` (which its mask
    /// must cover) into `vals` at their line offsets, one slice per run.
    pub(crate) fn copy_values(&self, s: &LineStore, mask: u64, vals: &mut [u8; CACHE_LINE_SIZE]) {
        let first = s.mask.trailing_zeros() as usize;
        for run in runs(mask) {
            let at = s.data as usize + run.start - first;
            vals[run.clone()].copy_from_slice(&self.data[at..at + run.len()]);
        }
    }

    /// Index of the first store with `σ > seq`.
    pub(crate) fn after(&self, seq: Seq) -> usize {
        self.stores.partition_point(|s| s.seq <= seq)
    }
}

/// Buckets of a store log's first line index: 1 KB, room for 128 lines
/// before it grows.
const MIN_BUCKETS: usize = 256;

/// Puts `slot`, which holds `line`, in a store log's line index.
fn index_slot(index: &mut [u32], line: CacheLineId, slot: usize) {
    let mask = index.len() - 1;
    let mut bucket = line.index() as usize & mask;
    while index[bucket] != 0 {
        bucket = (bucket + 1) & mask;
    }
    index[bucket] = slot as u32 + 1;
}

/// The stores of one execution: written only while it runs, then frozen
/// and shared by every storage that views it.
#[derive(Clone, Debug, Default)]
struct StoreLog {
    /// Line → slot in `lines` (and in the storage's `intervals`), each
    /// bucket holding its slot plus one, and 0 when empty: open addressing
    /// with linear probing, a power of two of buckets at least twice the
    /// lines, and a line's home bucket its index's low bits. A pool's
    /// lines are consecutive, so they rarely meet, and a lookup reads one
    /// bucket and compares the line of the slot it holds, with no hashing.
    index: Vec<u32>,
    lines: Vec<LineLog>,
    events: Vec<StoreEvent>,
    /// Emptied line logs of an earlier execution, kept for their
    /// capacity.
    spare: Vec<LineLog>,
}

impl StoreLog {
    /// The slot of `line`, if the execution touched it.
    fn slot(&self, line: CacheLineId) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut bucket = line.index() as usize & mask;
        loop {
            let slot = (self.index[bucket] as usize).checked_sub(1)?;
            if self.lines[slot].line == line {
                return Some(slot);
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// The slot of `line`, created (with an unconstrained interval pushed
    /// onto `intervals`) if the execution never touched the line.
    fn slot_mut(&mut self, line: CacheLineId, intervals: &mut Vec<FlushInterval>) -> usize {
        if let Some(slot) = self.slot(line) {
            return slot;
        }
        let slot = self.lines.len();
        let log = match self.spare.pop() {
            Some(log) => LineLog { line, ..log },
            None => LineLog::new(line),
        };
        self.lines.push(log);
        intervals.push(FlushInterval::unconstrained());
        if 2 * self.lines.len() > self.index.len() {
            self.index = vec![0; (2 * self.index.len()).max(MIN_BUCKETS)];
            for (slot, log) in self.lines.iter().enumerate() {
                index_slot(&mut self.index, log.line, slot);
            }
        } else {
            index_slot(&mut self.index, line, slot);
        }
        slot
    }

    /// Empties the log, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.index.fill(0);
        self.events.clear();
        self.spare.extend(self.lines.drain(..).map(|mut log| {
            log.stores.clear();
            log.data.clear();
            log.written = 0;
            log
        }));
    }
}

/// What a power failure at one point of a running execution leaves, minus
/// the store log: the writeback intervals of the lines touched so far,
/// each ending at `σ + 1` for the `σ` of the point, so no store that takes
/// effect later is ever readable. [`ExecutionStorage::view`] pairs it with
/// the log the execution goes on to write.
#[derive(Debug)]
pub struct CrashPrefix {
    intervals: Vec<FlushInterval>,
}

/// The cache/persistency record of a single execution.
///
/// A clone shares the store log and copies the intervals, and
/// [`clone_from`](Clone::clone_from) copies them into the intervals it
/// already has, so a stack restored into the last one reuses its vectors.
///
/// # Example
///
/// ```
/// use jaaru_pmem::PmAddr;
/// use jaaru_tso::{ExecutionStorage, Seq, ThreadId};
///
/// let mut st = ExecutionStorage::new();
/// let addr = PmAddr::new(64);
/// let mut sigma = Seq::ZERO;
/// let seq = sigma.bump();
/// st.record_store(addr, &[42], ThreadId(0), std::panic::Location::caller(), seq);
/// assert_eq!(st.last_cache_value(addr), Some(42));
/// assert!(st.interval(addr.cache_line()).is_unconstrained());
/// ```
#[derive(Debug, Default)]
pub struct ExecutionStorage {
    log: Arc<StoreLog>,
    /// One interval per slot this storage sees: every slot of the log,
    /// or for a [view](Self::view), the slots its prefix had.
    intervals: Vec<FlushInterval>,
}

impl Clone for ExecutionStorage {
    fn clone(&self) -> Self {
        ExecutionStorage {
            log: self.log.clone(),
            intervals: self.intervals.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.log.clone_from(&source.log);
        self.intervals.clone_from(&source.intervals);
    }
}

impl ExecutionStorage {
    /// Creates empty storage for a fresh execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the storage for a fresh execution, keeping the capacity of
    /// its log (each touched line's stores and bytes included). A log that
    /// a [view](Self::view) still holds is left to it, never copied, and
    /// the storage starts a new one.
    pub(crate) fn clear(&mut self) {
        match Arc::get_mut(&mut self.log) {
            Some(log) => log.clear(),
            None => self.log = Arc::default(),
        }
        self.intervals.clear();
    }

    /// What a power failure right after the event at `sigma` would leave,
    /// for [`view`](Self::view) to pair with the final log.
    pub(crate) fn crash_prefix(&self, sigma: Seq) -> CrashPrefix {
        let mut intervals = self.intervals.clone();
        let end = Seq::new(sigma.value() + 1);
        for iv in &mut intervals {
            iv.lower_end(end);
        }
        CrashPrefix { intervals }
    }

    /// The storage a power failure at `prefix`'s point left: this
    /// storage's log, which must be the final log of the execution
    /// `prefix` was taken from, seen through `prefix`'s intervals.
    ///
    /// What goes through the intervals sees exactly the crashed
    /// execution's stores: [`read_pre_failure`](crate::read_pre_failure)
    /// and its line form, [`do_read`](crate::do_read),
    /// [`interval`](Self::interval) and
    /// [`writeback_points`](Self::writeback_points). The lookups that do
    /// not, such as [`next_store_after`](Self::next_store_after),
    /// [`events`](Self::events) and
    /// [`last_cache_value`](Self::last_cache_value), still see the whole
    /// log.
    pub fn view(&self, prefix: CrashPrefix) -> ExecutionStorage {
        debug_assert!(prefix.intervals.len() <= self.log.lines.len());
        ExecutionStorage {
            log: Arc::clone(&self.log),
            intervals: prefix.intervals,
        }
    }

    fn slot(&self, line: CacheLineId) -> Option<usize> {
        let slot = self.log.slot(line)?;
        (slot < self.intervals.len()).then_some(slot)
    }

    /// The stores to `line` and its interval, if this execution touched it.
    pub(crate) fn line(&self, line: CacheLineId) -> Option<(&LineLog, FlushInterval)> {
        self.slot(line)
            .map(|slot| (&self.log.lines[slot], self.intervals[slot]))
    }

    /// Mutable access to an existing line's interval, for refinement
    /// (`DoRead`). Never creates a slot, so a crashed execution's shared
    /// log stays untouched.
    pub(crate) fn interval_mut(&mut self, line: CacheLineId) -> Option<&mut FlushInterval> {
        let slot = self.slot(line)?;
        Some(&mut self.intervals[slot])
    }

    /// Records a store taking effect in the cache (Figure 8,
    /// `Evict_SB(⟨store, addr, val⟩)`): appends the event and its part in
    /// each line it covers, all sharing `seq`.
    ///
    /// Returns the event id for debugging reports.
    pub fn record_store(
        &mut self,
        addr: PmAddr,
        bytes: &[u8],
        thread: ThreadId,
        loc: SourceLoc,
        seq: Seq,
    ) -> StoreId {
        // Nothing shares a running execution's log, so this never copies.
        let log = Arc::make_mut(&mut self.log);
        let id = StoreId(log.events.len() as u32);
        for (line, mask, start) in line_parts(addr, bytes.len()) {
            let slot = log.slot_mut(line, &mut self.intervals);
            let end = start + mask.count_ones() as usize;
            log.lines[slot].push(seq, id, mask, &bytes[start..end]);
        }
        log.events.push(StoreEvent {
            addr,
            len: u32::try_from(bytes.len()).expect("store width fits in u32"),
            seq,
            thread,
            loc,
        });
        id
    }

    /// Records a cache-line flush taking effect at `seq` (Figure 8,
    /// `Evict_SB(⟨clflush, addr⟩)` and `Evict_FB`): raises the lower bound
    /// of the line's most-recent-writeback interval.
    pub fn record_flush(&mut self, line: CacheLineId, seq: Seq) {
        let slot = self
            .slot(line)
            .unwrap_or_else(|| Arc::make_mut(&mut self.log).slot_mut(line, &mut self.intervals));
        self.intervals[slot].raise_begin(seq);
    }

    /// The most-recent-writeback interval for `line` (`e.getcacheline`).
    pub fn interval(&self, line: CacheLineId) -> FlushInterval {
        self.slot(line)
            .map_or_else(FlushInterval::unconstrained, |slot| self.intervals[slot])
    }

    /// Fills each byte of `want`, a mask of `line`'s offsets, that a store
    /// of this execution wrote with the byte's newest cache value (at its
    /// line offset in `vals`), and returns the mask of the others.
    pub(crate) fn read_cache(
        &self,
        line: CacheLineId,
        want: u64,
        vals: &mut [u8; CACHE_LINE_SIZE],
    ) -> u64 {
        if want == 0 {
            return 0;
        }
        let Some((log, _)) = self.line(line) else {
            return want;
        };
        for run in runs(want & log.written) {
            vals[run.clone()].copy_from_slice(&log.cur[run]);
        }
        want & !log.written
    }

    /// The newest cache value of `addr` in this execution, if any store
    /// reached the cache.
    pub fn last_cache_value(&self, addr: PmAddr) -> Option<u8> {
        let (log, _) = self.line(addr.cache_line())?;
        let off = addr.line_offset();
        (log.written >> off & 1 != 0).then_some(log.cur[off])
    }

    /// Sequence number of the first store to `addr` in this execution.
    pub fn first_store_seq(&self, addr: PmAddr) -> Option<Seq> {
        let (log, _) = self.line(addr.cache_line())?;
        let off = addr.line_offset();
        log.stores.iter().find(|s| s.covers(off)).map(|s| s.seq)
    }

    /// Sequence number of the first store to `addr` strictly after `seq`.
    pub fn next_store_after(&self, addr: PmAddr, seq: Seq) -> Option<Seq> {
        let (log, _) = self.line(addr.cache_line())?;
        let off = addr.line_offset();
        log.stores[log.after(seq)..]
            .iter()
            .find(|s| s.covers(off))
            .map(|s| s.seq)
    }

    /// The store event behind a [`StoreId`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this execution.
    pub fn event(&self, id: StoreId) -> &StoreEvent {
        &self.log.events[id.0 as usize]
    }

    /// All store events of this execution, in cache order.
    pub fn events(&self) -> &[StoreEvent] {
        &self.log.events
    }

    /// Number of stores that reached the cache.
    pub fn store_count(&self) -> usize {
        self.log.events.len()
    }

    /// Cache lines written by this execution, in the order it first stored
    /// to or flushed them.
    pub fn touched_lines(&self) -> impl Iterator<Item = CacheLineId> + '_ {
        self.log
            .lines
            .iter()
            .filter(|l| !l.stores.is_empty())
            .map(|l| l.line)
    }

    /// The candidate writeback points for `line` that are consistent with
    /// its current interval: the interval begin itself plus every store
    /// position inside `(begin, end)`.
    ///
    /// Each distinct point yields a distinct persistent snapshot of the
    /// line; their count is the per-line state count in the paper's Yat
    /// comparison (e.g. 9 states for a line holding 8 fresh stores).
    pub fn writeback_points(&self, line: CacheLineId) -> Vec<Seq> {
        let iv = self.interval(line);
        let mut points = vec![iv.begin()];
        if let Some((log, _)) = self.line(line) {
            points.extend(
                log.stores[log.after(iv.begin())..]
                    .iter()
                    .map(|s| s.seq)
                    .take_while(|&s| s < iv.end()),
            );
        }
        points
    }

    /// The value of `addr` in a persistent snapshot whose last writeback of
    /// the address's line happened at `w`: the newest store with `σ ≤ w`,
    /// or `None` if the byte still holds its pre-execution value.
    pub fn snapshot_value(&self, addr: PmAddr, w: Seq) -> Option<u8> {
        let (log, _) = self.line(addr.cache_line())?;
        let off = addr.line_offset();
        log.stores[..log.after(w)]
            .iter()
            .rev()
            .find(|s| s.covers(off))
            .map(|s| log.value(s, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    fn loc() -> SourceLoc {
        Location::caller()
    }

    fn store(st: &mut ExecutionStorage, sigma: &mut Seq, addr: u64, bytes: &[u8]) -> Seq {
        let seq = sigma.bump();
        st.record_store(PmAddr::new(addr), bytes, ThreadId(0), loc(), seq);
        seq
    }

    #[test]
    fn queues_are_per_byte_and_ordered() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let s1 = store(&mut st, &mut sigma, 64, &[1, 2]);
        let s2 = store(&mut st, &mut sigma, 65, &[9]);
        let (a64, a65) = (PmAddr::new(64), PmAddr::new(65));
        assert_eq!(st.first_store_seq(a64), Some(s1));
        assert_eq!(st.next_store_after(a64, s1), None);
        assert_eq!(st.first_store_seq(a65), Some(s1));
        assert_eq!(st.next_store_after(a65, s1), Some(s2));
        assert!(s1 < s2);
        assert_eq!(st.snapshot_value(a65, s1), Some(2));
        assert_eq!(st.last_cache_value(a65), Some(9));
        assert_eq!(st.last_cache_value(a64), Some(1));
        assert!(st.last_cache_value(PmAddr::new(66)).is_none());
    }

    #[test]
    fn multibyte_store_shares_one_seq() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let seq = store(&mut st, &mut sigma, 64, &[1, 2, 3, 4]);
        for i in 0..4 {
            assert_eq!(st.first_store_seq(PmAddr::new(64 + i)), Some(seq));
        }
        assert_eq!(st.store_count(), 1);
        assert_eq!(
            st.writeback_points(CacheLineId::new(1)),
            vec![Seq::ZERO, seq]
        );
    }

    #[test]
    fn straddling_store_splits_across_lines() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let seq = store(&mut st, &mut sigma, 124, &[1, 2, 3, 4, 5, 6, 7, 8]);
        for (i, v) in (124..132).zip(1..) {
            assert_eq!(st.last_cache_value(PmAddr::new(i)), Some(v));
            assert_eq!(st.snapshot_value(PmAddr::new(i), seq), Some(v));
            assert_eq!(st.snapshot_value(PmAddr::new(i), Seq::ZERO), None);
        }
        for line in [1, 2] {
            assert_eq!(
                st.writeback_points(CacheLineId::new(line)),
                vec![Seq::ZERO, seq]
            );
        }
        assert_eq!(st.store_count(), 1);
    }

    #[test]
    fn first_and_next_store_lookup() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let a = PmAddr::new(64);
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let s2 = store(&mut st, &mut sigma, 64, &[2]);
        let s3 = store(&mut st, &mut sigma, 64, &[3]);
        assert_eq!(st.first_store_seq(a), Some(s1));
        assert_eq!(st.next_store_after(a, s1), Some(s2));
        assert_eq!(st.next_store_after(a, s2), Some(s3));
        assert_eq!(st.next_store_after(a, s3), None);
        assert_eq!(st.next_store_after(a, Seq::ZERO), Some(s1));
    }

    #[test]
    fn flush_raises_interval_begin() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let line = CacheLineId::new(1);
        store(&mut st, &mut sigma, 64, &[1]);
        assert!(st.interval(line).is_unconstrained());
        let f = sigma.bump();
        st.record_flush(line, f);
        assert_eq!(st.interval(line).begin(), f);
        assert_eq!(st.interval(line).end(), Seq::INFINITY);
    }

    #[test]
    fn writeback_points_count_matches_paper_example() {
        // A cache line holding 8 fresh (unflushed) stores has 9 possible
        // persistent states: initial + one per store (§1 of the paper).
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        for i in 0..8 {
            store(&mut st, &mut sigma, 64 + i, &[i as u8 + 1]);
        }
        let points = st.writeback_points(CacheLineId::new(1));
        assert_eq!(points.len(), 9);
    }

    #[test]
    fn writeback_points_respect_flush_constraint() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1]);
        store(&mut st, &mut sigma, 65, &[2]);
        let f = sigma.bump();
        st.record_flush(CacheLineId::new(1), f);
        store(&mut st, &mut sigma, 66, &[3]);
        // Possible last writebacks: at the flush, or after the later store.
        let points = st.writeback_points(CacheLineId::new(1));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], f);
    }

    #[test]
    fn snapshot_value_picks_newest_at_or_before_cut() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let a = PmAddr::new(64);
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let s2 = store(&mut st, &mut sigma, 64, &[2]);
        assert_eq!(st.snapshot_value(a, Seq::ZERO), None);
        assert_eq!(st.snapshot_value(a, s1), Some(1));
        assert_eq!(st.snapshot_value(a, s2), Some(2));
        assert_eq!(st.snapshot_value(a, Seq::INFINITY), Some(2));
    }

    #[test]
    fn touched_tracking() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        store(&mut st, &mut sigma, 64, &[1, 2]);
        store(&mut st, &mut sigma, 200, &[3]);
        let lines: Vec<_> = st.touched_lines().collect();
        assert_eq!(lines.len(), 2);
        let written = (0..512)
            .filter(|&a| st.last_cache_value(PmAddr::new(a)).is_some())
            .count();
        assert_eq!(written, 3);
    }

    #[test]
    fn a_flush_alone_does_not_touch_a_line() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let f = sigma.bump();
        st.record_flush(CacheLineId::new(7), f);
        assert_eq!(st.interval(CacheLineId::new(7)).begin(), f);
        assert_eq!(st.touched_lines().count(), 0);
    }

    #[test]
    fn clones_share_the_log_and_copy_intervals() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let s2 = store(&mut st, &mut sigma, 64, &[2]);
        let line = CacheLineId::new(1);
        let mut copy = st.clone();
        assert!(Arc::ptr_eq(&st.log, &copy.log));
        copy.interval_mut(line).expect("stored line").lower_end(s2);
        assert!(Arc::ptr_eq(&st.log, &copy.log), "refinement shares the log");
        assert!(st.interval(line).is_unconstrained());
        assert_eq!(copy.interval(line).end(), s2);
        assert!(copy.interval_mut(CacheLineId::new(9)).is_none());
        assert_eq!(copy.writeback_points(line), vec![Seq::ZERO, s1]);
        // `clone_from` copies the intervals into the vector it has.
        let intervals = copy.intervals.as_ptr();
        copy.clone_from(&st);
        assert_eq!(copy.intervals.as_ptr(), intervals);
        assert!(copy.interval(line).is_unconstrained());
    }

    #[test]
    fn a_view_sees_the_prefix_and_outlives_clearing() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let s1 = store(&mut st, &mut sigma, 64, &[1]);
        let prefix = st.crash_prefix(sigma);
        store(&mut st, &mut sigma, 64, &[2]);
        store(&mut st, &mut sigma, 128, &[3]);
        let mut view = st.view(prefix);
        assert!(Arc::ptr_eq(&st.log, &view.log), "a view never copies");
        assert_eq!(
            view.writeback_points(CacheLineId::new(1)),
            vec![Seq::ZERO, s1]
        );
        assert!(
            view.interval_mut(CacheLineId::new(2)).is_none(),
            "slot hidden"
        );
        // The viewed log stays with the view; the storage starts anew.
        st.clear();
        assert!(!Arc::ptr_eq(&st.log, &view.log));
        assert_eq!(view.snapshot_value(PmAddr::new(64), s1), Some(1));
        assert_eq!(st.store_count(), 0);
        // An unshared log is emptied in place, its line logs kept.
        store(&mut st, &mut sigma, 64, &[4]);
        let log = Arc::as_ptr(&st.log);
        st.clear();
        assert_eq!(Arc::as_ptr(&st.log), log);
        assert_eq!((st.log.lines.len(), st.log.spare.len()), (0, 1));
        assert!(st.last_cache_value(PmAddr::new(64)).is_none());
        assert!(st.interval(CacheLineId::new(1)).is_unconstrained());
    }
}
