//! Per-execution storage state: cache contents and writeback intervals.
//!
//! An [`ExecutionStorage`] is the frozen record of everything one execution
//! wrote to the cache: the paper's `e.queue(addr)` map (per-byte store
//! queues) and `e.getcacheline(addr)` map (per-line most-recent-writeback
//! intervals). While an execution runs, its storage is owned by the
//! [`TsoMachine`](crate::TsoMachine); after a simulated power failure the
//! storage is pushed onto the execution stack where post-failure executions
//! query and refine it.

use std::collections::HashMap;

use jaaru_pmem::{CacheLineId, PmAddr};

use crate::{FlushInterval, Seq, SourceLoc, StoreEvent, StoreId, ThreadId};

/// One entry in a per-byte store queue: a value written to this byte and
/// the sequence number at which it reached the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEntry {
    /// Byte value written.
    pub value: u8,
    /// Cache total-order position of the store.
    pub seq: Seq,
    /// The store event this byte belongs to (for debugging reports).
    pub store: StoreId,
}

/// Per-cache-line bookkeeping.
#[derive(Clone, Debug, Default)]
struct LineState {
    interval: FlushInterval,
    /// Sequence numbers of stores to this line, in cache order. Used by the
    /// eager (Yat-style) baseline to enumerate candidate writeback points
    /// and by the analytic state counter.
    store_seqs: Vec<Seq>,
}

/// The cache/persistency record of a single execution.
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
/// assert_eq!(st.last_cache_value(addr).unwrap().value, 42);
/// assert!(st.interval(addr.cache_line()).is_unconstrained());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecutionStorage {
    queues: HashMap<PmAddr, Vec<QueueEntry>>,
    lines: HashMap<CacheLineId, LineState>,
    events: Vec<StoreEvent>,
}

impl ExecutionStorage {
    /// Creates empty storage for a fresh execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store taking effect in the cache (Figure 8,
    /// `Evict_SB(⟨store, addr, val⟩)`): appends the event and one queue
    /// entry per byte, all sharing `seq`.
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
        let id = StoreId(self.events.len() as u32);
        self.events.push(StoreEvent {
            addr,
            bytes: bytes.to_vec(),
            seq,
            thread,
            loc,
        });
        for (i, &b) in bytes.iter().enumerate() {
            let byte_addr = addr + i as u64;
            self.queues.entry(byte_addr).or_default().push(QueueEntry {
                value: b,
                seq,
                store: id,
            });
            let line = self.lines.entry(byte_addr.cache_line()).or_default();
            if line.store_seqs.last() != Some(&seq) {
                line.store_seqs.push(seq);
            }
        }
        id
    }

    /// Records a cache-line flush taking effect at `seq` (Figure 8,
    /// `Evict_SB(⟨clflush, addr⟩)` and `Evict_FB`): raises the lower bound
    /// of the line's most-recent-writeback interval.
    pub fn record_flush(&mut self, line: CacheLineId, seq: Seq) {
        self.lines
            .entry(line)
            .or_default()
            .interval
            .raise_begin(seq);
    }

    /// The most-recent-writeback interval for `line` (`e.getcacheline`).
    pub fn interval(&self, line: CacheLineId) -> FlushInterval {
        self.lines
            .get(&line)
            .map(|l| l.interval)
            .unwrap_or_default()
    }

    /// Mutable access to the interval for refinement (`DoRead`).
    pub fn interval_mut(&mut self, line: CacheLineId) -> &mut FlushInterval {
        &mut self.lines.entry(line).or_default().interval
    }

    /// The per-byte store queue for `addr` (`e.queue`), oldest first.
    pub fn queue(&self, addr: PmAddr) -> &[QueueEntry] {
        self.queues.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The newest cache value of `addr` in this execution, if any store
    /// reached the cache.
    pub fn last_cache_value(&self, addr: PmAddr) -> Option<QueueEntry> {
        self.queue(addr).last().copied()
    }

    /// Sequence number of the first store to `addr` in this execution.
    pub fn first_store_seq(&self, addr: PmAddr) -> Option<Seq> {
        self.queue(addr).first().map(|e| e.seq)
    }

    /// Sequence number of the first store to `addr` strictly after `seq`.
    pub fn next_store_after(&self, addr: PmAddr, seq: Seq) -> Option<Seq> {
        let q = self.queue(addr);
        let idx = q.partition_point(|e| e.seq <= seq);
        q.get(idx).map(|e| e.seq)
    }

    /// The store event behind a [`StoreId`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this execution.
    pub fn event(&self, id: StoreId) -> &StoreEvent {
        &self.events[id.0 as usize]
    }

    /// All store events of this execution, in cache order.
    pub fn events(&self) -> &[StoreEvent] {
        &self.events
    }

    /// Number of stores that reached the cache.
    pub fn store_count(&self) -> usize {
        self.events.len()
    }

    /// Cache lines written by this execution.
    pub fn touched_lines(&self) -> impl Iterator<Item = CacheLineId> + '_ {
        self.lines
            .iter()
            .filter(|(_, s)| !s.store_seqs.is_empty())
            .map(|(&l, _)| l)
    }

    /// Byte addresses written by this execution.
    pub fn touched_addrs(&self) -> impl Iterator<Item = PmAddr> + '_ {
        self.queues.keys().copied()
    }

    /// Sequence numbers of stores to `line`, in cache order. Together with
    /// the line's interval these define the candidate writeback points the
    /// eager baseline must enumerate.
    pub fn line_store_seqs(&self, line: CacheLineId) -> &[Seq] {
        self.lines
            .get(&line)
            .map(|l| l.store_seqs.as_slice())
            .unwrap_or(&[])
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
        for &s in self.line_store_seqs(line) {
            if s > iv.begin() && s < iv.end() {
                points.push(s);
            }
        }
        points
    }

    /// Approximate heap footprint of this storage in bytes, for snapshot
    /// cache accounting (an estimate over map entries, queue entries,
    /// per-line bookkeeping and store events — not an exact measurement).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let queue_bytes: usize = self
            .queues
            .values()
            .map(|q| {
                size_of::<PmAddr>()
                    + size_of::<Vec<QueueEntry>>()
                    + q.len() * size_of::<QueueEntry>()
            })
            .sum();
        let line_bytes: usize = self
            .lines
            .values()
            .map(|l| {
                size_of::<CacheLineId>()
                    + size_of::<LineState>()
                    + l.store_seqs.len() * size_of::<Seq>()
            })
            .sum();
        let event_bytes: usize = self
            .events
            .iter()
            .map(|e| size_of::<StoreEvent>() + e.bytes.len())
            .sum();
        size_of::<Self>() + queue_bytes + line_bytes + event_bytes
    }

    /// The value of `addr` in a persistent snapshot whose last writeback of
    /// the address's line happened at `w`: the newest store with `σ ≤ w`,
    /// or `None` if the byte still holds its pre-execution value.
    pub fn snapshot_value(&self, addr: PmAddr, w: Seq) -> Option<u8> {
        let q = self.queue(addr);
        let idx = q.partition_point(|e| e.seq <= w);
        idx.checked_sub(1).map(|i| q[i].value)
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
        store(&mut st, &mut sigma, 64, &[1, 2]);
        store(&mut st, &mut sigma, 65, &[9]);
        assert_eq!(st.queue(PmAddr::new(64)).len(), 1);
        let q65 = st.queue(PmAddr::new(65));
        assert_eq!(q65.len(), 2);
        assert!(q65[0].seq < q65[1].seq);
        assert_eq!(q65[1].value, 9);
        assert_eq!(st.last_cache_value(PmAddr::new(65)).unwrap().value, 9);
        assert!(st.last_cache_value(PmAddr::new(66)).is_none());
    }

    #[test]
    fn multibyte_store_shares_one_seq() {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let seq = store(&mut st, &mut sigma, 64, &[1, 2, 3, 4]);
        for i in 0..4 {
            assert_eq!(st.queue(PmAddr::new(64 + i))[0].seq, seq);
        }
        assert_eq!(st.store_count(), 1);
        assert_eq!(st.line_store_seqs(CacheLineId::new(1)), &[seq]);
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
        assert_eq!(st.touched_addrs().count(), 3);
    }
}
