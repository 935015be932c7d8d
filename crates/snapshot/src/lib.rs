//! The snapshot counters the checker reports.
//!
//! The original Jaaru `fork()`s at each failure injection point, and the
//! forked child is simply the crash branch waiting its turn. This
//! reproduction replaces the fork with an explicit checkpoint of
//! checker-side state, taken at the same point and handed to the
//! exploration frontier entry that will take that crash; nothing ever
//! looks a checkpoint up, so checkpoints need no cache (they live in
//! `jaaru`'s `snapshot` module). What remains here is [`SnapshotStats`]:
//! the counters a check reports for its checkpoints
//! (`CheckReport::snapshots`), with the shared-cache axes
//! (`shared_hits`/`shared_misses`/`shared_evictions`) the serving daemon
//! fills in for its cross-job result cache.

use std::fmt;

/// Snapshot counters.
///
/// For a check (`CheckReport::snapshots`), `hits` counts scenarios
/// restored from a crash-point checkpoint, `misses` scenarios run from
/// the start, and `inserts` checkpoints captured; `evictions`, `bytes`
/// and `peak_bytes` read 0. The `shared_*` axes belong to the service
/// layer: they count cross-job reuse on a daemon's result cache and stay
/// zero for one-shot runs. These are *performance* counters,
/// deliberately excluded from `CheckReport::digest`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Lookups that found a usable entry (scenarios restored from a
    /// checkpoint).
    pub hits: u64,
    /// Lookups that found none (scenarios run from the start).
    pub misses: u64,
    /// Entries stored (checkpoints captured).
    pub inserts: u64,
    /// Entries evicted to respect the byte/entry budget.
    pub evictions: u64,
    /// Resident payload bytes when the stats were read.
    pub bytes: usize,
    /// Largest resident payload footprint ever reached.
    pub peak_bytes: usize,
    /// Cross-job shared-cache hits (service result cache); zero outside
    /// a daemon.
    pub shared_hits: u64,
    /// Cross-job shared-cache misses (service result cache).
    pub shared_misses: u64,
    /// Cross-job shared-cache evictions (service result cache).
    pub shared_evictions: u64,
}

impl fmt::Display for SnapshotStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} insert(s), {} eviction(s), {} byte(s) resident (peak {})",
            self.hits, self.misses, self.inserts, self.evictions, self.bytes, self.peak_bytes
        )?;
        if self.shared_hits != 0 || self.shared_misses != 0 || self.shared_evictions != 0 {
            write!(
                f,
                ", shared: {} hit(s), {} miss(es), {} eviction(s)",
                self.shared_hits, self.shared_misses, self.shared_evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_every_counter() {
        let s = SnapshotStats {
            hits: 7,
            ..SnapshotStats::default()
        };
        assert!(s.to_string().contains("7 hit(s)"));
        assert!(!s.to_string().contains("shared"), "quiet when all zero");
        let s = SnapshotStats {
            shared_hits: 3,
            ..SnapshotStats::default()
        };
        assert!(s.to_string().contains("shared: 3 hit(s)"));
    }
}
