//! Cache-visible events and their provenance.

use std::fmt;
use std::panic::Location;

use jaaru_pmem::PmAddr;

use crate::Seq;

/// Identity of a guest thread in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Index of a store event within one execution's event log.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreId(pub u32);

impl fmt::Debug for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Source location of a guest operation, captured with `#[track_caller]`.
///
/// The model checker's debugging reports (the paper's §4 "Debugging
/// support") print the source locations of loads that can read from more
/// than one store, and of each candidate store.
///
/// This is the only in-memory form of a source site: traces, race
/// reports, diagnostics and fix edits all hold it, and output writes it
/// through `Location`'s `Display` as `file:line:column`.
pub type SourceLoc = &'static Location<'static>;

/// A store that has taken effect in the cache.
///
/// Multi-byte accesses are a single event: the paper implements them as a
/// sequence of byte accesses *performed atomically*, which is equivalent to
/// assigning one sequence number to all bytes of the store. The bytes
/// themselves live in the execution's per-line store log.
#[derive(Clone, Copy, Debug)]
pub struct StoreEvent {
    /// First byte written.
    pub addr: PmAddr,
    /// Access width in bytes.
    pub len: u32,
    /// Position in the cache total order, assigned when the store left the
    /// store buffer.
    pub seq: Seq,
    /// Thread that performed the store.
    pub thread: ThreadId,
    /// Guest source location of the store.
    pub loc: SourceLoc,
}

impl fmt::Display for StoreEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store {}B @ {} ({} at {})",
            self.len, self.addr, self.seq, self.loc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn here() -> SourceLoc {
        Location::caller()
    }

    #[test]
    fn display_is_informative() {
        let ev = StoreEvent {
            addr: PmAddr::new(64),
            len: 1,
            seq: Seq::new(3),
            thread: ThreadId(1),
            loc: here(),
        };
        let s = ev.to_string();
        assert!(s.contains("1B"));
        assert!(s.contains("0x40"));
        assert!(s.contains("σ3"));
        assert!(s.contains("event.rs"));
    }
}
