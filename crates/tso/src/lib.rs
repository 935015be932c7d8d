//! Px86sim: a software simulation of the x86-TSO persistent-storage
//! system, as used by the Jaaru model checker.
//!
//! This crate implements the storage model of Raad et al.'s Px86sim as
//! presented in the Jaaru paper (§2, §4):
//!
//! * per-thread **store buffers** holding stores, `clflush`, `clflushopt`
//!   and `sfence` operations that have not yet taken effect in the cache
//!   ([`ThreadBuffers`], Figure 7/8),
//! * per-thread **flush buffers** deferring `clflushopt` effects until an
//!   ordering instruction (Figure 8, `Evict_FB`),
//! * a global **cache total order** over stores and flushes ([`Seq`]),
//! * per-execution **storage state**: per cache line, a log of the stores
//!   that reached the cache and a most-recent-writeback interval
//!   ([`ExecutionStorage`], [`FlushInterval`]); a crash at a point of a
//!   running execution is kept as a [`CrashPrefix`], a view of the log the
//!   execution goes on to write, and a crashed execution's log is frozen
//!   and shared by every clone, which copies only the intervals,
//! * the **reads-from** computation and **constraint refinement** across a
//!   stack of crashed executions ([`read_pre_failure`], [`do_read`];
//!   Figures 9/10), with [`read_pre_failure_line`] settling a load's
//!   single-candidate bytes one cache line at a time,
//! * one **line image** per running execution, which holds every byte a
//!   load can be answered with: the execution's own stores, written
//!   through as they reach the cache, and the bytes
//!   [`read_pre_failure_line`] settled, resolved once per line and
//!   execution ([`TsoMachine::load`]).
//!
//! The reordering constraints of the paper's Table 1 are emergent from the
//! buffer rules; `tests/table1_reordering.rs` in the workspace derives the
//! full matrix from this simulator by probing and compares it against the
//! paper's.
//!
//! # Example: the Figure 2/3 refinement
//!
//! ```
//! use jaaru_pmem::PmAddr;
//! use jaaru_tso::{read_pre_failure, do_read, EvictionPolicy, ThreadId, TsoMachine};
//!
//! let (x, y) = (PmAddr::new(72), PmAddr::new(64)); // same cache line
//! let mut m = TsoMachine::new(EvictionPolicy::Eager);
//! let t = ThreadId(0);
//! let loc = std::panic::Location::caller();
//! m.store(t, y, &[1], loc);
//! m.store(t, x, &[2], loc);
//! m.clflush(t, x.cache_line());
//! m.store(t, y, &[3], loc);
//! m.store(t, x, &[4], loc);
//! m.store(t, y, &[5], loc);
//! m.store(t, x, &[6], loc);
//!
//! // Power failure; recovery reads x.
//! let mut stack = vec![m.crash()];
//! let cands = read_pre_failure(&stack, x);
//! assert_eq!(cands.iter().map(|c| c.value).collect::<Vec<_>>(), vec![6, 4, 2]);
//!
//! // Committing x = 4 leaves y ∈ {3, 5} (never 1).
//! let four = cands.iter().copied().find(|c| c.value == 4).unwrap();
//! do_read(&mut stack, x, four);
//! let cands = read_pre_failure(&stack, y);
//! assert_eq!(cands.iter().map(|c| c.value).collect::<Vec<_>>(), vec![5, 3]);
//! ```

mod buffers;
mod event;
mod hash;
mod interval;
mod machine;
mod rf;
mod seq;
mod storage;
mod trace;

pub use buffers::{FbEntry, SbEntry, ThreadBuffers};
pub use event::{SourceLoc, StoreEvent, StoreId, ThreadId};
pub use hash::{IntHasher, LineSet};
pub use interval::FlushInterval;
pub use machine::{EvictionPolicy, TsoMachine};
pub use rf::{
    do_read, read_pre_failure, read_pre_failure_into, read_pre_failure_line, RfCandidate, RfSource,
};
pub use seq::Seq;
pub use storage::{line_parts, CrashPrefix, ExecutionStorage};
pub use trace::{OpTrace, TraceOp, TraceOpKind, TRACE_LINE_SIZE};
