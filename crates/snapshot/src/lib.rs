//! The snapshot counters the checker reports, and the byte-budgeted LRU
//! behind the serving daemon's cross-job result cache.
//!
//! The original Jaaru `fork()`s at each failure injection point, and the
//! forked child is simply the crash branch waiting its turn. This
//! reproduction replaces the fork with an explicit checkpoint of
//! checker-side state, taken at the same point and handed to the
//! exploration frontier entry that will take that crash; nothing ever
//! looks a checkpoint up, so checkpoints need no cache (they live in
//! `jaaru`'s `snapshot` module). What remains here is generic and
//! dependency-free:
//!
//! * [`SnapshotStats`] — the counters a check reports for its
//!   checkpoints (`CheckReport::snapshots`), and which a cache fills in
//!   for its lookups, including the shared-cache axes
//!   (`shared_hits`/`shared_misses`/`shared_evictions`) the service layer
//!   fills in for cross-job result reuse.
//! * [`SnapshotCache`] — a single-owner LRU cache keyed by `u64` with a
//!   byte/entry budget. The serving daemon keys it by a job's result
//!   group (program, semantic configuration and kind) and keeps the
//!   job's result in it, so a resubmission in either format is rendered
//!   from the first run's result.
//!
//! # Example
//!
//! ```
//! use jaaru_snapshot::{SnapshotCache, SnapshotPayload};
//!
//! struct Reply(String);
//! impl SnapshotPayload for Reply {
//!     fn approx_bytes(&self) -> usize {
//!         self.0.len()
//!     }
//! }
//!
//! let mut cache = SnapshotCache::new(1 << 20);
//! cache.insert(7, Reply("ok".into()));
//! assert_eq!(cache.get(7).map(|r| r.0.as_str()), Some("ok"));
//! // Another key never sees key 7's entry.
//! assert!(cache.get(8).is_none());
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use std::collections::HashMap;
use std::fmt;

/// Default cap on cached entries per cache, independent of the byte
/// budget (a backstop against pathologically many tiny entries).
pub const DEFAULT_ENTRY_CAP: usize = 4096;

/// A cacheable payload: anything that can report its approximate heap
/// footprint so the cache can enforce its byte budget.
pub trait SnapshotPayload {
    /// Approximate size of this payload in bytes. An estimate is fine —
    /// it only drives LRU eviction, not correctness.
    fn approx_bytes(&self) -> usize;
}

/// Snapshot counters.
///
/// For a check (`CheckReport::snapshots`), `hits` counts scenarios
/// restored from a crash-point checkpoint, `misses` scenarios run from
/// the start, and `inserts` checkpoints captured; the other axes read 0.
/// For a [`SnapshotCache`], `hits`/`misses` count
/// [`get`](SnapshotCache::get) outcomes, `bytes` is the resident payload
/// footprint when the stats were read and `peak_bytes` its lifetime
/// maximum. The `shared_*` axes belong to the service layer: they count
/// cross-job reuse on a daemon's result cache and stay zero for one-shot
/// runs. These are *performance* counters, deliberately excluded from
/// `CheckReport::digest`.
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

impl SnapshotStats {
    /// Folds another set of counters into this one. Every axis sums;
    /// `bytes`/`peak_bytes` become totals.
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.bytes += other.bytes;
        self.peak_bytes += other.peak_bytes;
        self.shared_hits += other.shared_hits;
        self.shared_misses += other.shared_misses;
        self.shared_evictions += other.shared_evictions;
    }
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

struct Entry<S> {
    payload: S,
    bytes: usize,
    last_used: u64,
}

/// An LRU-bounded cache keyed by `u64`.
///
/// The byte and entry budgets are enforced with one LRU clock: once an
/// insert exceeds either, least-recently-used entries are evicted.
pub struct SnapshotCache<S> {
    entries: HashMap<u64, Entry<S>>,
    cap_bytes: usize,
    cap_entries: usize,
    bytes: usize,
    tick: u64,
    stats: SnapshotStats,
}

impl<S: SnapshotPayload> SnapshotCache<S> {
    /// A cache holding at most `cap_bytes` of payload (estimated via
    /// [`SnapshotPayload::approx_bytes`]) and [`DEFAULT_ENTRY_CAP`]
    /// entries.
    pub fn new(cap_bytes: usize) -> Self {
        Self::with_entry_cap(cap_bytes, DEFAULT_ENTRY_CAP)
    }

    /// A cache with explicit byte and entry budgets.
    pub fn with_entry_cap(cap_bytes: usize, cap_entries: usize) -> Self {
        SnapshotCache {
            entries: HashMap::new(),
            cap_bytes,
            cap_entries: cap_entries.max(1),
            bytes: 0,
            tick: 0,
            stats: SnapshotStats::default(),
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the entry cached under `key`, touches its LRU position, and
    /// returns it. Counts one hit or one miss.
    pub fn get(&mut self, key: u64) -> Option<&S> {
        match self.entries.get_mut(&key) {
            Some(entry) => {
                self.tick += 1;
                self.stats.hits += 1;
                entry.last_used = self.tick;
                Some(&entry.payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether an entry is cached under `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Caches `payload` under `key`, then evicts least-recently-used
    /// entries until the byte and entry budgets hold again (possibly
    /// evicting the new entry itself, if it alone exceeds the budget). A
    /// key that is already cached is left untouched: the first result
    /// for a job is the one later submissions must replay byte for byte.
    pub fn insert(&mut self, key: u64, payload: S) {
        if self.contains(key) {
            return;
        }
        let bytes = payload.approx_bytes().max(1);
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                payload,
                bytes,
                last_used: self.tick,
            },
        );
        self.bytes += bytes;
        self.stats.inserts += 1;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        while !self.entries.is_empty()
            && (self.bytes > self.cap_bytes || self.entries.len() > self.cap_entries)
        {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        // Ticks are unique, so the minimum is unique and the victim is
        // deterministic regardless of hash-map iteration order.
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&key, _)| key);
        if let Some(entry) = victim.and_then(|key| self.entries.remove(&key)) {
            self.bytes -= entry.bytes;
            self.stats.evictions += 1;
        }
    }

    /// The cache's counters, with `bytes` reflecting the current
    /// resident footprint.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            bytes: self.bytes,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Blob(usize);
    impl SnapshotPayload for Blob {
        fn approx_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn groups_are_disjoint_namespaces() {
        // The daemon keys whole jobs by their result group.
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(1, Blob(10));
        assert!(c.get(2).is_none(), "other group");
        assert!(c.get(1).is_some());
        assert!(!c.contains(2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let mut c = SnapshotCache::new(25);
        c.insert(1, Blob(10));
        c.insert(2, Blob(10));
        assert!(c.get(1).is_some(), "touch 1");
        c.insert(3, Blob(10)); // 30 bytes > 25: evict LRU = 2
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes <= 25);
    }

    #[test]
    fn eviction_crosses_group_boundaries() {
        // One LRU clock across every group: the oldest group goes first,
        // then the next, as the budget demands.
        let mut c = SnapshotCache::new(25);
        c.insert(1, Blob(10));
        c.insert(2, Blob(10));
        c.insert(3, Blob(10)); // over budget: evict group 1's entry
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
        c.insert(4, Blob(20)); // 40 bytes: evict groups 2 and 3
        assert_eq!(c.len(), 1);
        assert!(c.contains(4));
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn oversized_payload_is_evicted_immediately() {
        let mut c = SnapshotCache::new(5);
        c.insert(1, Blob(100));
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().evictions, 1);
        // The cache stays usable: a miss only re-runs the job upstream.
        assert!(c.get(1).is_none());
    }

    #[test]
    fn entry_cap_is_enforced() {
        let mut c = SnapshotCache::with_entry_cap(1 << 20, 2);
        c.insert(1, Blob(1));
        c.insert(2, Blob(1));
        c.insert(3, Blob(1));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(1), "oldest entry evicted");
    }

    #[test]
    fn duplicate_keys_keep_the_first_snapshot() {
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(1, Blob(10));
        c.insert(1, Blob(99));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().inserts, 1, "second insert is a no-op");
        assert_eq!(c.stats().bytes, 10);
    }

    #[test]
    fn peak_bytes_tracks_high_water_mark() {
        let mut c = SnapshotCache::new(30);
        c.insert(1, Blob(20));
        c.insert(2, Blob(20)); // 40 > 30: evict 1
        let s = c.stats();
        assert_eq!(s.peak_bytes, 40);
        assert_eq!(s.bytes, 20);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = SnapshotStats {
            hits: 1,
            misses: 2,
            inserts: 3,
            evictions: 4,
            bytes: 5,
            peak_bytes: 6,
            shared_hits: 7,
            shared_misses: 8,
            shared_evictions: 9,
        };
        a.merge(&a.clone());
        assert_eq!(a.hits, 2);
        assert_eq!(a.peak_bytes, 12);
        assert_eq!(a.shared_hits, 14);
        assert_eq!(a.shared_evictions, 18);
    }

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
