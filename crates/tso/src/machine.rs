//! The simulated x86-TSO persistent-storage machine.
//!
//! [`TsoMachine`] glues the per-thread buffers to the per-execution storage
//! and implements both phases of instruction execution from the paper:
//! Figure 7 (`Exec_*`: insert into the store buffer) and Figure 8
//! (`Evict_SB` / `Evict_FB`: take effect in the cache / persistent
//! storage). A power failure is simulated by [`TsoMachine::crash`], which
//! discards all buffered (not yet cache-visible) operations and freezes the
//! execution's storage for post-failure refinement;
//! [`TsoMachine::crash_prefix`] records what a failure at the current point
//! would leave while the machine runs on.
//!
//! A load is answered as Figure 9 orders it: the issuing thread's store
//! buffer first, then the running execution's cache, then the pre-failure
//! executions. The machine keeps the answers of the last two in one line
//! image: each store is written through to it where it reaches the cache
//! (`evict_store`, under both eviction policies), and the bytes the
//! execution never wrote are resolved against the crashed stack once per
//! line. So a load inside one line, by a thread whose store buffer is
//! empty, is one probe of the image ([`TsoMachine::load_known`]), and
//! every other load takes [`TsoMachine::load`], which fills the image.
//! [`TsoMachine::reset`] empties it.

use jaaru_pmem::{CacheLineId, PmAddr, CACHE_LINE_SIZE};

use crate::rf::LineImage;
use crate::storage::offsets;
use crate::{
    CrashPrefix, ExecutionStorage, FbEntry, SbEntry, Seq, SourceLoc, ThreadBuffers, ThreadId,
};

/// When buffered operations drain to the cache.
///
/// The paper's exploration algorithm (Figure 11) includes nondeterministic
/// eviction choices but notes Jaaru does not exhaustively explore
/// concurrent schedules; a deterministic policy per scenario keeps replay
/// exact while the persistency nondeterminism is carried entirely by the
/// writeback intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Every operation takes effect as soon as it is issued, as if the
    /// store buffer drained right after each insertion. For
    /// persistency exploration this exposes the superset of post-failure
    /// states: cache-resident stores are *maybe* persistent (interval
    /// machinery), while buffer-resident stores at a crash are *definitely*
    /// lost.
    #[default]
    Eager,
    /// Drain only at `mfence` and locked RMW instructions (and on demand).
    /// Demonstrates TSO store-buffering behaviours in litmus tests.
    OnFence,
}

/// The simulated TSO machine for one execution.
///
/// Under [`EvictionPolicy::Eager`], an operation takes effect at once, as
/// the buffer's eviction of it would, without entering the buffer.
///
/// # Example
///
/// ```
/// use jaaru_pmem::PmAddr;
/// use jaaru_tso::{EvictionPolicy, ThreadId, TsoMachine};
///
/// let mut m = TsoMachine::new(EvictionPolicy::Eager);
/// let t = ThreadId(0);
/// let a = PmAddr::new(64);
/// m.store(t, a, &[7], std::panic::Location::caller());
/// // Offset 0 of line 1 is cached; offset 1 was never written.
/// let mut vals = [0; 64];
/// assert_eq!(m.read_current(t, a.cache_line(), 0b11, &mut vals), 0b10);
/// assert_eq!(vals[0], 7);
/// m.clflush(t, a.cache_line());
/// let storage = m.crash();
/// assert!(!storage.interval(a.cache_line()).is_unconstrained());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TsoMachine {
    sigma: Seq,
    threads: Vec<ThreadBuffers>,
    storage: ExecutionStorage,
    policy: EvictionPolicy,
    /// What the running execution's loads read beyond store buffers.
    image: LineImage,
}

impl TsoMachine {
    /// Creates a machine with empty storage and no threads.
    pub fn new(policy: EvictionPolicy) -> Self {
        TsoMachine {
            policy,
            ..TsoMachine::default()
        }
    }

    /// Empties the machine for a new execution under `policy`, keeping
    /// the capacity of every thread's buffers and of the store log (each
    /// touched line's stores and bytes included). A log that a
    /// [view](ExecutionStorage::view) still holds is left to the view,
    /// never copied; the machine starts a new one. The line image
    /// [`load`](Self::load) fills is emptied: the crashed stack may change
    /// from here on.
    pub fn reset(&mut self, policy: EvictionPolicy) {
        self.sigma = Seq::ZERO;
        self.policy = policy;
        for thread in &mut self.threads {
            thread.reset();
        }
        self.storage.clear();
        self.image.clear();
    }

    /// Simulates a power failure, as [`crash`](Self::crash) does, and
    /// [resets](Self::reset) the machine for the next execution: every
    /// thread's buffers are emptied in place.
    pub fn crash_and_reset(&mut self) -> ExecutionStorage {
        let crashed = std::mem::take(&mut self.storage);
        self.reset(self.policy);
        crashed
    }

    /// The eviction policy in effect.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Current value of the global sequence counter `σ_curr`.
    pub fn sigma(&self) -> Seq {
        self.sigma
    }

    /// Read access to this execution's storage.
    pub fn storage(&self) -> &ExecutionStorage {
        &self.storage
    }

    fn thread(&mut self, tid: ThreadId) -> &mut ThreadBuffers {
        let idx = tid.0 as usize;
        while self.threads.len() <= idx {
            self.threads.push(ThreadBuffers::new());
        }
        &mut self.threads[idx]
    }

    /// Read access to `tid`'s buffers and stamps, if the thread ever
    /// issued an operation since the machine was created.
    pub fn buffers(&self, tid: ThreadId) -> Option<&ThreadBuffers> {
        self.threads.get(tid.0 as usize)
    }

    /// Whether an operation `tid` issues now takes effect at once, rather
    /// than entering its store buffer (Figure 7). Under eager eviction
    /// every store buffer is empty whenever an operation is issued: only
    /// the other policy queues entries, and [`reset`](Self::reset) empties
    /// every buffer when it sets the policy. So pushing the operation and
    /// draining the buffer would evict it alone.
    fn eager(&self, tid: ThreadId) -> bool {
        let eager = self.policy == EvictionPolicy::Eager;
        debug_assert!(!eager || self.buffered(tid).is_none());
        eager
    }

    /// `tid`'s buffers, if its store buffer holds an entry.
    fn buffered(&self, tid: ThreadId) -> Option<&ThreadBuffers> {
        self.buffers(tid).filter(|t| !t.store_buffer.is_empty())
    }

    /// `Exec_Store` (Figure 7): enqueue a store into `S_τ`.
    pub fn store(&mut self, tid: ThreadId, addr: PmAddr, bytes: &[u8], loc: SourceLoc) {
        assert!(!bytes.is_empty(), "zero-length store");
        if self.eager(tid) {
            self.evict_store(tid, addr, bytes, loc);
        } else {
            let bytes = bytes.to_vec();
            let entry = SbEntry::Store { addr, bytes, loc };
            self.thread(tid).store_buffer.push_back(entry);
        }
    }

    /// `Evict_SB(⟨store, addr, val⟩)` (Figure 8): the store takes effect in
    /// the cache.
    fn evict_store(&mut self, tid: ThreadId, addr: PmAddr, bytes: &[u8], loc: SourceLoc) {
        let seq = self.sigma.bump();
        self.storage.record_store(addr, bytes, tid, loc, seq);
        self.image.write(addr, bytes);
        // One stamp per touched line (a store may straddle lines), needed
        // only by a `clflushopt` still queued (see `line_stamp`).
        let th = self.thread(tid);
        if !th.store_buffer.is_empty() {
            let first = addr.cache_line();
            let last = (addr + (bytes.len() as u64 - 1)).cache_line();
            for l in first.index()..=last.index() {
                th.line_stamp.insert(CacheLineId::new(l), seq);
            }
        }
    }

    /// `Evict_SB(⟨clflush, addr⟩)` (Figure 8): the flush raises the line's
    /// interval at once.
    fn evict_clflush(&mut self, tid: ThreadId, line: CacheLineId) {
        let seq = self.sigma.bump();
        self.storage.record_flush(line, seq);
        let th = self.thread(tid);
        if !th.store_buffer.is_empty() {
            th.line_stamp.insert(line, seq);
        }
    }

    /// `Evict_SB(⟨clflushopt, addr, σ_exec⟩)` (Figure 8): the flush moves
    /// to `F_τ` with its lower bound.
    fn evict_clflushopt(&mut self, tid: ThreadId, line: CacheLineId, seq_at_exec: Seq) {
        let th = self.thread(tid);
        let seq = seq_at_exec.max(th.line_stamp(line)).max(th.sfence_stamp);
        th.flush_buffer.push(FbEntry { line, seq });
    }

    /// `Evict_SB(⟨sfence⟩)` (Figure 8): `F_τ` takes effect, and the fence
    /// stamps the thread.
    fn evict_sfence(&mut self, tid: ThreadId) {
        let seq = self.sigma.bump();
        self.flush_flush_buffer(tid);
        self.thread(tid).sfence_stamp = seq;
    }

    /// `Exec_CLFLUSH` (Figure 7): enqueue a cache-line flush into `S_τ`.
    pub fn clflush(&mut self, tid: ThreadId, line: CacheLineId) {
        if self.eager(tid) {
            self.evict_clflush(tid, line);
        } else {
            let entry = SbEntry::Clflush { line };
            self.thread(tid).store_buffer.push_back(entry);
        }
    }

    /// `Exec_CLFLUSHOPT` (Figure 7): enqueue an optimized flush, capturing
    /// `σ_curr` at execution time. `clwb` is semantically identical
    /// (paper §2) and shares this entry point.
    pub fn clflushopt(&mut self, tid: ThreadId, line: CacheLineId) {
        let seq_at_exec = self.sigma;
        if self.eager(tid) {
            self.evict_clflushopt(tid, line, seq_at_exec);
        } else {
            let entry = SbEntry::Clflushopt { line, seq_at_exec };
            self.thread(tid).store_buffer.push_back(entry);
        }
    }

    /// `clwb`: semantically identical to [`TsoMachine::clflushopt`] in
    /// Px86sim (paper §2) — it differs only in leaving the line valid in
    /// the cache, which this model does not track. A named entry point so
    /// call sites (and the conformance sweep) can exercise the token
    /// distinctly.
    pub fn clwb(&mut self, tid: ThreadId, line: CacheLineId) {
        self.clflushopt(tid, line);
    }

    /// `Exec_SFENCE` (Figure 7): enqueue a store fence into `S_τ`.
    pub fn sfence(&mut self, tid: ThreadId) {
        if self.eager(tid) {
            self.evict_sfence(tid);
        } else {
            self.thread(tid).store_buffer.push_back(SbEntry::Sfence);
        }
    }

    /// `Exec_MFENCE` (Figure 7): drain `S_τ`, then flush `F_τ`. Also used
    /// for the fence halves of locked RMW instructions.
    pub fn mfence(&mut self, tid: ThreadId) {
        self.drain_store_buffer(tid);
        self.flush_flush_buffer(tid);
    }

    /// Evicts the oldest entry of `tid`'s store buffer (Figure 8).
    /// Returns `false` if the buffer was empty.
    pub fn evict_one(&mut self, tid: ThreadId) -> bool {
        let Some(entry) = self.thread(tid).store_buffer.pop_front() else {
            return false;
        };
        match entry {
            SbEntry::Store { addr, bytes, loc } => self.evict_store(tid, addr, &bytes, loc),
            SbEntry::Clflush { line } => self.evict_clflush(tid, line),
            SbEntry::Clflushopt { line, seq_at_exec } => {
                self.evict_clflushopt(tid, line, seq_at_exec);
            }
            SbEntry::Sfence => self.evict_sfence(tid),
        }
        true
    }

    /// Drains `tid`'s store buffer completely.
    pub fn drain_store_buffer(&mut self, tid: ThreadId) {
        while self.evict_one(tid) {}
    }

    /// `Evict_FB` for every entry (Figure 8): applies the deferred
    /// `clflushopt` lower bounds and empties `F_τ`, keeping its capacity.
    pub fn flush_flush_buffer(&mut self, tid: ThreadId) {
        let Some(thread) = self.threads.get_mut(tid.0 as usize) else {
            return;
        };
        for FbEntry { line, seq } in thread.flush_buffer.drain(..) {
            if seq > Seq::ZERO {
                self.storage.record_flush(line, seq);
            }
        }
    }

    /// Drains every thread's store buffer (used at the clean end of an
    /// execution; deferred `clflushopt` entries stay deferred, exactly as
    /// un-fenced flushes remain unordered on hardware).
    pub fn drain_all(&mut self) {
        for tid in 0..self.threads.len() {
            self.drain_store_buffer(ThreadId(tid as u32));
        }
    }

    /// Services the bytes `want` of `line` (bit `i` is line offset `i`)
    /// from the *current* execution (Figure 9, lines 2–5): store-buffer
    /// bypass first, then the cache. Writes each byte found into `vals` at
    /// its line offset and returns the mask of the bytes this execution
    /// never wrote, whose values must come from pre-failure executions
    /// ([`read_pre_failure_line`](crate::read_pre_failure_line)).
    pub fn read_current(
        &self,
        tid: ThreadId,
        line: CacheLineId,
        want: u64,
        vals: &mut [u8; CACHE_LINE_SIZE],
    ) -> u64 {
        let miss = self.bypass(tid, line, want, vals);
        self.storage.read_cache(line, miss, vals)
    }

    /// Writes each byte of `want` that `tid`'s store buffer holds into
    /// `vals` at its line offset, newest store first, and returns the mask
    /// of the others.
    fn bypass(
        &self,
        tid: ThreadId,
        line: CacheLineId,
        want: u64,
        vals: &mut [u8; CACHE_LINE_SIZE],
    ) -> u64 {
        let mut miss = want;
        if let Some(t) = self.buffered(tid) {
            for off in offsets(want) {
                if let Some(v) = t.bypass(line.base() + off as u64) {
                    vals[off] = v;
                    miss &= !(1 << off);
                }
            }
        }
        miss
    }

    /// `tid`'s load of the `len` bytes at `addr`, if one probe of the line
    /// image answers it: the bytes lie in one cache line, `tid`'s store
    /// buffer is empty, and the image knows every byte, from the running
    /// execution's stores or the stack an earlier [`load`](Self::load) of
    /// the line resolved. `None` sends the load to `load`.
    #[inline]
    pub fn load_known(&self, tid: ThreadId, addr: PmAddr, len: usize) -> Option<&[u8]> {
        let off = addr.line_offset();
        if len == 0 || off + len > CACHE_LINE_SIZE || self.buffered(tid).is_some() {
            return None;
        }
        self.image.known(addr.cache_line(), off, len)
    }

    /// `tid`'s load of the bytes `want` of `line` (bit `i` is line offset
    /// `i`), Figure 9 lines 2–5 and the single-candidate half of
    /// `ReadPreFailure`: the store-buffer bypass first, then the running
    /// execution's cache, then `stack`, the crashed executions. Writes
    /// each byte answered into `vals` at its line offset, and returns the
    /// mask of the others, with whether this load resolved the line
    /// against `stack`.
    ///
    /// The bytes the execution never wrote are resolved with
    /// [`read_pre_failure_line`](crate::read_pre_failure_line) on the
    /// line's first load that wants one of them, and each with a single
    /// candidate is kept in the line image, with the execution's own
    /// bytes, for [`load_known`](Self::load_known) and later loads. A
    /// returned byte had several candidates: the caller chooses one with
    /// [`read_pre_failure`](crate::read_pre_failure) and
    /// [`do_read`](crate::do_read), and [`settle`](Self::settle)s the byte
    /// at its value. Pass the same stack, changed only by `do_read`, to
    /// every load until the next [`reset`](Self::reset): the image keeps
    /// what it resolved until then.
    ///
    /// ```
    /// use jaaru_pmem::PmAddr;
    /// use jaaru_tso::{do_read, read_pre_failure, EvictionPolicy, ThreadId, TsoMachine};
    ///
    /// let (x, y) = (PmAddr::new(72), PmAddr::new(64)); // same cache line
    /// let (t, loc) = (ThreadId(0), std::panic::Location::caller());
    /// let mut m = TsoMachine::new(EvictionPolicy::Eager);
    /// m.store(t, y, &[1], loc);
    /// m.clflush(t, y.cache_line());
    /// m.store(t, x, &[2], loc);
    /// let mut stack = vec![m.crash_and_reset()];
    ///
    /// // y is pinned to 1; x may read 2 or initial 0.
    /// let mut vals = [0; 64];
    /// let (line, want) = (x.cache_line(), 0x101);
    /// assert_eq!(m.load(t, &stack, line, want, &mut vals), (0x100, true));
    /// assert_eq!(vals[0], 1);
    /// let chosen = read_pre_failure(&stack, x)[0];
    /// do_read(&mut stack, x, chosen);
    /// m.settle(line, 8, chosen.value);
    /// assert_eq!(m.load_known(t, x, 1), Some(&[2][..]));
    ///
    /// // The recovery's own store is written through.
    /// m.store(t, y, &[7], loc);
    /// assert_eq!(m.load_known(t, y, 1), Some(&[7][..]));
    /// ```
    pub fn load(
        &mut self,
        tid: ThreadId,
        stack: &[ExecutionStorage],
        line: CacheLineId,
        want: u64,
        vals: &mut [u8; CACHE_LINE_SIZE],
    ) -> (u64, bool) {
        let miss = self.bypass(tid, line, want, vals);
        if miss == 0 {
            return (0, false);
        }
        self.image.read(stack, &self.storage, line, miss, vals)
    }

    /// Settles the byte at offset `off` of `line` at `value`, which a load
    /// [`load`](Self::load) left to the caller just committed to: the
    /// image answers it from here on.
    pub fn settle(&mut self, line: CacheLineId, off: usize, value: u8) {
        self.image.settle(line, off, value);
    }

    /// Whether `tid` has deferred `clflushopt` operations whose persistency
    /// effect is still pending (waiting for an ordering instruction).
    pub fn flush_buffer_pending(&self, tid: ThreadId) -> bool {
        self.buffers(tid).is_some_and(|t| {
            !t.flush_buffer.is_empty()
                || t.store_buffer
                    .iter()
                    .any(|e| matches!(e, SbEntry::Clflushopt { .. }))
        })
    }

    /// Simulates a power failure: every buffered operation is lost (it
    /// never took effect in the cache) and the execution's storage freezes.
    pub fn crash(self) -> ExecutionStorage {
        self.storage
    }

    /// What [`crash`](Self::crash) would leave now, without stopping the
    /// machine: once the execution ends,
    /// [`ExecutionStorage::view`] of its final storage gives the crashed
    /// storage, without copying the store log.
    pub fn crash_prefix(&self) -> CrashPrefix {
        self.storage.crash_prefix(self.sigma)
    }

    /// Ends the execution cleanly: drains store buffers so every executed
    /// store is cache-visible, then freezes storage. Pending flush-buffer
    /// entries are still discarded — a `clflushopt` with no ordering
    /// instruction after it guarantees nothing.
    pub fn finish(mut self) -> ExecutionStorage {
        self.drain_all();
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    fn loc() -> SourceLoc {
        Location::caller()
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    /// `tid`'s view of byte 64 from the current execution, `None` on a
    /// miss.
    fn read_64(m: &TsoMachine, tid: ThreadId) -> Option<u8> {
        let mut vals = [0; CACHE_LINE_SIZE];
        (m.read_current(tid, CacheLineId::new(1), 1, &mut vals) == 0).then_some(vals[0])
    }

    #[test]
    fn eager_policy_makes_stores_cache_visible_immediately() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        m.store(T0, PmAddr::new(64), &[5], loc());
        assert_eq!(read_64(&m, T1), Some(5));
    }

    #[test]
    fn on_fence_policy_buffers_stores() {
        let mut m = TsoMachine::new(EvictionPolicy::OnFence);
        m.store(T0, PmAddr::new(64), &[5], loc());
        // Own thread sees it via bypass; the other thread does not.
        assert_eq!(read_64(&m, T0), Some(5));
        assert_eq!(read_64(&m, T1), None);
        m.mfence(T0);
        assert_eq!(read_64(&m, T1), Some(5));
    }

    #[test]
    fn line_reads_take_bypass_then_cache_per_byte() {
        // Cached bytes 64..68, then a buffered u16 over 66..68 and a
        // buffered byte at 70.
        let mut m = TsoMachine::new(EvictionPolicy::OnFence);
        m.store(T0, PmAddr::new(64), &[1, 2, 3, 4], loc());
        m.mfence(T0);
        m.store(T0, PmAddr::new(66), &[8, 9], loc());
        m.store(T0, PmAddr::new(70), &[7], loc());
        let line = CacheLineId::new(1);
        let mut vals = [0xee; CACHE_LINE_SIZE];
        assert_eq!(m.read_current(T0, line, 0xff, &mut vals), 0b1011_0000);
        assert_eq!(vals[..8], [1, 2, 8, 9, 0xee, 0xee, 7, 0xee]);
        // Another thread sees only the cache.
        let mut vals = [0xee; CACHE_LINE_SIZE];
        assert_eq!(m.read_current(T1, line, 0xff, &mut vals), 0xf0);
        assert_eq!(vals[..5], [1, 2, 3, 4, 0xee]);
    }

    #[test]
    fn crash_discards_buffered_stores() {
        let mut m = TsoMachine::new(EvictionPolicy::OnFence);
        m.store(T0, PmAddr::new(64), &[5], loc());
        let storage = m.crash();
        assert!(storage.last_cache_value(PmAddr::new(64)).is_none());
    }

    #[test]
    fn clflush_constrains_interval_at_eviction() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        m.clflush(T0, line);
        let begin = m.storage().interval(line).begin();
        assert!(begin > Seq::ZERO);
        // Stores after the flush do not move the interval.
        m.store(T0, PmAddr::new(64), &[2], loc());
        assert_eq!(m.storage().interval(line).begin(), begin);
    }

    #[test]
    fn clflushopt_has_no_effect_without_fence() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        m.clflushopt(T0, line);
        assert!(
            m.storage().interval(line).is_unconstrained(),
            "deferred until an sfence"
        );
        let storage = m.crash();
        assert!(storage.interval(line).is_unconstrained());
    }

    #[test]
    fn clflushopt_takes_effect_at_sfence() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        let store_seq = m.sigma();
        m.clflushopt(T0, line);
        m.sfence(T0);
        let iv = m.storage().interval(line);
        assert!(
            iv.begin() >= store_seq,
            "flush ordered after the same-line store"
        );
    }

    #[test]
    fn clflushopt_takes_effect_at_mfence() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        m.clflushopt(T0, line);
        m.mfence(T0);
        assert!(!m.storage().interval(line).is_unconstrained());
    }

    #[test]
    fn clflushopt_reorders_past_other_line_stores() {
        // clflushopt(A) followed by a store to line B, then sfence: the
        // flush's lower bound must reflect only operations it is ordered
        // after (the earlier same-line store), not the line-B store.
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let a = PmAddr::new(64);
        let b = PmAddr::new(128);
        m.store(T0, a, &[1], loc());
        let a_store_seq = m.sigma();
        m.clflushopt(T0, a.cache_line());
        m.store(T0, b, &[2], loc());
        let b_store_seq = m.sigma();
        m.sfence(T0);
        let iv = m.storage().interval(a.cache_line());
        assert_eq!(
            iv.begin(),
            a_store_seq,
            "bound comes from the same-line store"
        );
        assert!(iv.begin() < b_store_seq);
    }

    #[test]
    fn clflushopt_does_not_reorder_past_same_line_clflush() {
        // Table 1: clflush then clflushopt on the same line preserve order.
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        m.clflush(T0, line);
        let clflush_seq = m.sigma();
        m.clflushopt(T0, line);
        m.sfence(T0);
        assert!(m.storage().interval(line).begin() >= clflush_seq);
    }

    #[test]
    fn sfence_stamp_orders_later_clflushopt() {
        // sfence ; clflushopt: the flush cannot be ordered before the fence.
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        let line = PmAddr::new(64).cache_line();
        m.store(T0, PmAddr::new(64), &[1], loc());
        m.sfence(T0);
        let fence_seq = m.sigma();
        m.clflushopt(T0, line);
        m.sfence(T0);
        assert!(m.storage().interval(line).begin() >= fence_seq);
    }

    #[test]
    fn finish_drains_but_keeps_unfenced_flushopt_deferred() {
        let mut m = TsoMachine::new(EvictionPolicy::OnFence);
        let a = PmAddr::new(64);
        m.store(T0, a, &[3], loc());
        m.clflushopt(T0, a.cache_line());
        let storage = m.finish();
        assert_eq!(storage.last_cache_value(a), Some(3));
        assert!(storage.interval(a.cache_line()).is_unconstrained());
    }

    #[test]
    fn straddling_store_stamps_both_lines() {
        let mut m = TsoMachine::new(EvictionPolicy::Eager);
        // 8-byte store crossing the line-1/line-2 boundary at offset 124.
        m.store(T0, PmAddr::new(124), &[0xaa; 8], loc());
        let seq = m.sigma();
        m.clflushopt(T0, CacheLineId::new(1));
        m.clflushopt(T0, CacheLineId::new(2));
        m.sfence(T0);
        assert!(m.storage().interval(CacheLineId::new(1)).begin() >= seq);
        assert!(m.storage().interval(CacheLineId::new(2)).begin() >= seq);
    }

    #[test]
    fn evict_one_on_empty_buffer_returns_false() {
        let mut m = TsoMachine::new(EvictionPolicy::OnFence);
        assert!(!m.evict_one(T0));
        m.store(T0, PmAddr::new(64), &[1], loc());
        assert!(m.evict_one(T0));
        assert!(!m.evict_one(T0));
    }
}
