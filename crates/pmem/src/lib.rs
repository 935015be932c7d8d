//! Persistent-memory substrate for the Jaaru model checker.
//!
//! This crate provides the building blocks shared by every component that
//! touches simulated persistent memory (PM):
//!
//! * [`PmAddr`] — a byte address inside a PM pool (a newtype over `u64`,
//!   with address `0` reserved as the null address),
//! * [`CacheLineId`] — the identity of the 64-byte cache line an address
//!   belongs to,
//! * [`PmPool`] — a simulated byte-addressable persistent-memory region with
//!   bounds checking and a reserved null page,
//! * [`PmError`] — the error type for illegal PM accesses.
//!
//! The real Jaaru system runs against Intel Optane persistent memory; this
//! reproduction simulates the storage medium, exactly as Jaaru itself
//! simulates the Px86 persistency semantics on DRAM. A pool here is a plain
//! buffer plus geometry; all persistency *semantics* (store buffers, flush
//! buffers, writeback intervals) live in the `jaaru-tso` crate.
//!
//! # Example
//!
//! ```
//! use jaaru_pmem::{PmAddr, PmPool, CACHE_LINE_SIZE};
//!
//! let mut pool = PmPool::new(4096);
//! let addr = pool.root();
//! pool.write(addr, &42u64.to_le_bytes()).unwrap();
//! let mut buf = [0u8; 8];
//! pool.read(addr, &mut buf).unwrap();
//! assert_eq!(u64::from_le_bytes(buf), 42);
//! assert_eq!(addr.cache_line().base().offset(), CACHE_LINE_SIZE as u64);
//! ```

mod addr;
mod error;
mod pool;

pub use addr::{CacheLineId, PmAddr, CACHE_LINE_SIZE, NULL_PAGE_SIZE};
pub use error::PmError;
pub use pool::PmPool;
