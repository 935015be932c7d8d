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
    /// or `clflush` to that line by this thread.
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

    /// `t_{τ,cl}` for a line (Seq::ZERO when the thread never touched it).
    pub fn line_stamp(&self, line: CacheLineId) -> Seq {
        self.line_stamp.get(&line).copied().unwrap_or(Seq::ZERO)
    }

    /// Whether both buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.store_buffer.is_empty() && self.flush_buffer.is_empty()
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
    fn stamps_default_to_zero() {
        let b = ThreadBuffers::new();
        assert_eq!(b.line_stamp(CacheLineId::new(5)), Seq::ZERO);
        assert_eq!(b.sfence_stamp, Seq::ZERO);
        assert!(b.is_empty());
    }
}
