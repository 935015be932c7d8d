//! Per-thread store buffers and flush buffers.
//!
//! Each simulated hardware thread owns a *store buffer* `S_τ` holding
//! store, `clflush`, `clflushopt`, and `sfence` operations that have not
//! yet taken effect in the cache (Figure 7 of the paper inserts, Figure 8
//! evicts), plus a *flush buffer* `F_τ` holding `clflushopt` operations
//! whose persistency effect is deferred until the next ordering
//! instruction (`sfence`, `mfence`, or a locked RMW).

use std::collections::VecDeque;

use jaaru_pmem::{CacheLineId, PmAddr};

use crate::hash::LineMap;
use crate::{Seq, SourceLoc};

/// An operation sitting in a store buffer.
#[derive(Clone, Debug)]
pub enum SbEntry {
    /// A pending store of `bytes` starting at `addr`.
    Store {
        /// First byte written.
        addr: PmAddr,
        /// Bytes written.
        bytes: Vec<u8>,
        /// Guest source location.
        loc: SourceLoc,
    },
    /// A pending `clflush` of a cache line.
    Clflush {
        /// Line to flush.
        line: CacheLineId,
    },
    /// A pending `clflushopt`/`clwb` of a cache line. Carries `σ_curr` at
    /// the moment the instruction *executed* (Figure 7,
    /// `Exec_CLFLUSHOPT`).
    Clflushopt {
        /// Line to flush.
        line: CacheLineId,
        /// Global sequence counter value when the instruction executed.
        seq_at_exec: Seq,
    },
    /// A pending `sfence`.
    Sfence,
}

impl SbEntry {
    /// Returns the range of byte addresses a pending store covers, if this
    /// entry is a store.
    pub fn store_range(&self) -> Option<(PmAddr, usize)> {
        match self {
            SbEntry::Store { addr, bytes, .. } => Some((*addr, bytes.len())),
            _ => None,
        }
    }
}

/// A `clflushopt` waiting in the flush buffer: the line it flushes and the
/// lower bound it will impose on the line's writeback interval when an
/// ordering instruction evicts it (Figure 8, `Evict_FB`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FbEntry {
    /// Line the deferred flush targets.
    pub line: CacheLineId,
    /// `max(σ_exec, t_{τ,line}, t_τ)` computed at store-buffer eviction.
    pub seq: Seq,
}

/// The buffered state of one simulated hardware thread.
#[derive(Clone, Debug, Default)]
pub struct ThreadBuffers {
    /// The store buffer `S_τ` (FIFO).
    pub store_buffer: VecDeque<SbEntry>,
    /// The flush buffer `F_τ` (unordered set; kept in insertion order).
    pub flush_buffer: Vec<FbEntry>,
    /// `t_{τ,cl}`: per line, the sequence number of the most recent store
    /// or `clflush` to that line by this thread that left the store buffer
    /// ahead of other entries. See [`line_stamp`](Self::line_stamp).
    pub(crate) line_stamp: LineMap<CacheLineId, Seq>,
    /// `t_τ`: the sequence number of the most recent `sfence` by this
    /// thread.
    pub sfence_stamp: Seq,
}

impl ThreadBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store-buffer bypass (Figure 9, lines 2–3): the newest buffered store
    /// that covers `addr`, if any. A load by the owning thread must return
    /// this value rather than the cache contents.
    pub fn bypass(&self, addr: PmAddr) -> Option<u8> {
        self.store_buffer.iter().rev().find_map(|e| {
            let (base, len) = e.store_range()?;
            let off = addr.offset().checked_sub(base.offset())?;
            (off < len as u64).then(|| match e {
                SbEntry::Store { bytes, .. } => bytes[off as usize],
                _ => unreachable!("store_range returned Some for a non-store"),
            })
        })
    }

    /// `t_{τ,cl}` for a line (Seq::ZERO when the thread never touched it),
    /// as far as a `clflushopt` leaving the store buffer can need it.
    ///
    /// Only that eviction reads a stamp, as the lower bound
    /// `max(σ_exec, t_{τ,cl}, t_τ)` (Figure 8). A `clflushopt` executed
    /// after a store or `clflush` of the line left the buffer captured a
    /// `σ_exec` at least that eviction's, so the stamp can raise the bound
    /// only when the `clflushopt` was still queued behind the eviction.
    /// So the machine stamps a line only when an eviction leaves entries
    /// in the buffer; under eager eviction, which keeps the buffer empty,
    /// it never does. A stamp read here may be older than the line's last
    /// eviction, never newer, and the bound comes out the same.
    pub fn line_stamp(&self, line: CacheLineId) -> Seq {
        self.line_stamp.get(&line).copied().unwrap_or(Seq::ZERO)
    }

    /// Whether both buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.store_buffer.is_empty() && self.flush_buffer.is_empty()
    }

    /// Empties both buffers and forgets both stamps, for a new execution,
    /// keeping the buffers' capacity.
    pub(crate) fn reset(&mut self) {
        self.store_buffer.clear();
        self.flush_buffer.clear();
        self.line_stamp.clear();
        self.sfence_stamp = Seq::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::Location;

    fn loc() -> SourceLoc {
        Location::caller()
    }

    #[test]
    fn bypass_returns_newest_covering_store() {
        let mut b = ThreadBuffers::new();
        b.store_buffer.push_back(SbEntry::Store {
            addr: PmAddr::new(64),
            bytes: vec![1, 2, 3, 4],
            loc: loc(),
        });
        b.store_buffer.push_back(SbEntry::Store {
            addr: PmAddr::new(66),
            bytes: vec![9],
            loc: loc(),
        });
        assert_eq!(b.bypass(PmAddr::new(64)), Some(1));
        assert_eq!(
            b.bypass(PmAddr::new(66)),
            Some(9),
            "newer store shadows older"
        );
        assert_eq!(b.bypass(PmAddr::new(67)), Some(4));
        assert_eq!(b.bypass(PmAddr::new(68)), None);
        assert_eq!(b.bypass(PmAddr::new(63)), None);
    }

    #[test]
    fn bypass_ignores_non_store_entries() {
        let mut b = ThreadBuffers::new();
        b.store_buffer.push_back(SbEntry::Clflush {
            line: CacheLineId::new(1),
        });
        b.store_buffer.push_back(SbEntry::Sfence);
        assert_eq!(b.bypass(PmAddr::new(64)), None);
    }

    #[test]
    fn reset_empties_buffers_and_stamps() {
        let mut b = ThreadBuffers::new();
        b.store_buffer.push_back(SbEntry::Sfence);
        let (line, seq) = (CacheLineId::new(1), Seq::new(3));
        b.flush_buffer.push(FbEntry { line, seq });
        b.line_stamp.insert(line, seq);
        b.sfence_stamp = seq;
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.line_stamp(line), Seq::ZERO);
        assert_eq!(b.sfence_stamp, Seq::ZERO);
    }

    #[test]
    fn stamps_default_to_zero() {
        let b = ThreadBuffers::new();
        assert_eq!(b.line_stamp(CacheLineId::new(5)), Seq::ZERO);
        assert_eq!(b.sfence_stamp, Seq::ZERO);
        assert!(b.is_empty());
    }
}
