//! Crash-point snapshot and result caching: the checkpoint/restore and
//! reuse substrate behind the checker's prefix sharing and the serving
//! daemon's cross-job memoization.
//!
//! The original Jaaru `fork()`s at each failure injection point so every
//! post-failure execution restarts from the failure point rather than
//! from `main()`. This reproduction replaces the fork with an explicit
//! checkpoint of checker-side state (the guest's volatile state is
//! discarded by the failure anyway, so it never needs to round-trip):
//! at each injection point a scenario passes, the checker captures the
//! state a crash there would leave and caches it under the decision-trace
//! prefix that ends in that crash; every later scenario whose planned
//! trace starts with that prefix restores the snapshot instead of
//! replaying the prefix.
//!
//! This crate holds the generic, dependency-free part of that subsystem:
//!
//! * [`SnapshotCache`] — a single-owner LRU cache keyed by `(group,
//!   decision-trace)` pairs with a configurable byte/entry budget. The
//!   *group* namespaces keys: one-shot checks run in a single group,
//!   while the serving daemon keys groups by `(program hash, config
//!   fingerprint)` so repeated submissions of the same job share
//!   entries and distinct jobs never collide.
//! * [`ShardedCache`] — the `Arc`-shareable concurrent form: N shards,
//!   each a mutex-guarded [`SnapshotCache`], selected by `(group, first
//!   trace element)` so a longest-prefix probe never crosses a shard
//!   boundary. This is the cache the parallel workers and the daemon
//!   share.
//! * [`SnapshotStats`] — the counters both surface, including the
//!   shared-cache axes (`shared_hits`/`shared_misses`/
//!   `shared_evictions`) the service layer fills in for cross-job
//!   result reuse.
//!
//! The checker-specific payload (what exactly a checkpoint captures)
//! lives in `jaaru`'s `snapshot` module and only needs to implement
//! [`SnapshotPayload`].
//!
//! # Keying discipline
//!
//! Within a group, snapshot keys are the *chosen alternatives* of the
//! decisions consumed up to an injection point, with that point's
//! decision set to crash — so every snapshot key ends in a crash
//! decision (`1`). Fresh decisions default
//! to alternative `0`, which means a cached key can only match inside
//! the *prescribed* prefix of a later scenario, never inside its fresh
//! tail; a longest-prefix [`lookup`](SnapshotCache::lookup) over the
//! planned trace is therefore always sound. Lookups never mutate
//! payloads: restoring clones (copy-on-restore), so one snapshot serves
//! arbitrarily many scenarios. Exact-match entries (the daemon's result
//! cache) use [`get`](SnapshotCache::get)/[`insert`](SnapshotCache::insert)
//! with any trace, the empty one included.
//!
//! # Example
//!
//! ```
//! use jaaru_snapshot::{SnapshotCache, SnapshotPayload};
//!
//! struct State(Vec<u8>);
//! impl SnapshotPayload for State {
//!     fn approx_bytes(&self) -> usize {
//!         self.0.len()
//!     }
//! }
//!
//! let mut cache = SnapshotCache::new(1 << 20);
//! cache.insert(7, vec![0, 1], State(vec![7; 100]));
//! // A scenario planning [0, 1, 0, 2] restores from the [0, 1] snapshot.
//! assert!(cache.lookup(7, &[0, 1, 0, 2]).is_some());
//! // One planning [0, 0, ...] shares no prefix and replays from scratch.
//! assert!(cache.lookup(7, &[0, 0, 1]).is_none());
//! // Another group never sees group 7's entries.
//! assert!(cache.lookup(8, &[0, 1, 0, 2]).is_none());
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 2);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;

mod shard;

pub use shard::{ShardedCache, DEFAULT_SHARDS};

/// Default cap on cached snapshots per cache, independent of the byte
/// budget (a backstop against pathologically many tiny snapshots).
pub const DEFAULT_ENTRY_CAP: usize = 4096;

/// A cacheable checkpoint: anything that can report its approximate
/// heap footprint so the cache can enforce its byte budget.
pub trait SnapshotPayload {
    /// Approximate size of this payload in bytes. An estimate is fine —
    /// it only drives LRU eviction, not correctness.
    fn approx_bytes(&self) -> usize;
}

/// Counters a [`SnapshotCache`] accumulates over its lifetime.
///
/// `hits`/`misses` count [`lookup`](SnapshotCache::lookup) and
/// [`get`](SnapshotCache::get) outcomes; `bytes` is the resident
/// payload footprint at the time the stats were read and `peak_bytes`
/// its lifetime maximum. The `shared_*` axes belong to the service
/// layer: they count cross-job reuse on a daemon's shared result cache
/// and stay zero for one-shot runs, so sums over the original axes are
/// identical whether a cache is privately or jointly owned. These are
/// *performance* counters — cache contents vary with scheduling, so
/// they are deliberately excluded from `CheckReport::digest`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found none (the scenario replays from scratch).
    pub misses: u64,
    /// Entries stored.
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
    /// Folds another cache's counters into this one (parallel runs and
    /// the service metrics sum per-cache stats; `bytes`/`peak_bytes`
    /// become totals across caches). Every axis sums — the shared-cache
    /// counters included — so aggregation is ownership-agnostic: a
    /// cache's stats are folded in exactly once, whether one worker
    /// owned it or many shared it.
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

    /// The counters accumulated since `earlier` was read from the same
    /// cache: a per-job view of a long-lived shared cache. Monotonic
    /// axes subtract; the resident-footprint gauges (`bytes`,
    /// `peak_bytes`) keep their current values.
    pub fn since(&self, earlier: &SnapshotStats) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes: self.bytes,
            peak_bytes: self.peak_bytes,
            shared_hits: self.shared_hits.saturating_sub(earlier.shared_hits),
            shared_misses: self.shared_misses.saturating_sub(earlier.shared_misses),
            shared_evictions: self
                .shared_evictions
                .saturating_sub(earlier.shared_evictions),
        }
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

/// One group's entries: the per-trace payloads plus the length index
/// that keeps longest-prefix probes linear in the number of *distinct
/// key lengths*, not the plan length.
struct Group<S> {
    entries: HashMap<Vec<usize>, Entry<S>>,
    /// Key length → number of cached keys of that length.
    lengths: BTreeMap<usize, usize>,
}

impl<S> Default for Group<S> {
    fn default() -> Self {
        Group {
            entries: HashMap::new(),
            lengths: BTreeMap::new(),
        }
    }
}

/// An LRU-bounded cache keyed by `(group, decision-trace)`.
///
/// Snapshot lookups are longest-prefix *within a group*:
/// [`lookup`](Self::lookup) finds the deepest cached checkpoint along
/// the planned trace, so a scenario resumes as close to its divergence
/// point as the cache allows. Exact-match entries ([`get`](Self::get))
/// serve the daemon's result cache. The cache never affects *what* is
/// explored — a miss (including one caused by eviction) simply falls
/// back to full replay; the byte and entry budgets are enforced across
/// all groups with one LRU clock.
pub struct SnapshotCache<S> {
    groups: HashMap<u64, Group<S>>,
    cap_bytes: usize,
    cap_entries: usize,
    len: usize,
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
            groups: HashMap::new(),
            cap_bytes,
            cap_entries: cap_entries.max(1),
            len: 0,
            bytes: 0,
            tick: 0,
            stats: SnapshotStats::default(),
        }
    }

    /// The byte budget.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Cached entries across all groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finds the entry with the longest key that is a prefix of `plan`
    /// within `group`, touches its LRU position, and returns it. Counts
    /// one hit or one miss.
    pub fn lookup(&mut self, group: u64, plan: &[usize]) -> Option<&S> {
        let tick = self.tick + 1;
        // An empty plan (a scenario with no prescribed decisions — every
        // run's very first scenario) can match nothing: prefix keys are
        // at least one decision long. `1..=0` would also invert the
        // range and panic, which only a *warm* group ever reaches — a
        // cross-job shared cache, never a single run's private one.
        let found = (!plan.is_empty())
            .then(|| self.groups.get_mut(&group))
            .flatten()
            .and_then(|g| {
                g.lengths
                    .range(1..=plan.len())
                    .rev()
                    .map(|(&len, _)| len)
                    .find(|&len| g.entries.contains_key(&plan[..len]))
                    .map(|len| g.entries.get_mut(&plan[..len]).expect("entry checked"))
            });
        match found {
            Some(entry) => {
                self.tick = tick;
                self.stats.hits += 1;
                entry.last_used = tick;
                Some(&entry.payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Finds the entry cached under exactly `(group, key)`, touches its
    /// LRU position, and returns it. Counts one hit or one miss.
    pub fn get(&mut self, group: u64, key: &[usize]) -> Option<&S> {
        let tick = self.tick + 1;
        match self
            .groups
            .get_mut(&group)
            .and_then(|g| g.entries.get_mut(key))
        {
            Some(entry) => {
                self.tick = tick;
                self.stats.hits += 1;
                entry.last_used = tick;
                Some(&entry.payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether an entry is cached under exactly `(group, key)`.
    pub fn contains(&self, group: u64, key: &[usize]) -> bool {
        self.groups
            .get(&group)
            .is_some_and(|g| g.entries.contains_key(key))
    }

    /// Caches `payload` under `(group, key)`, then evicts
    /// least-recently-used entries until the byte and entry budgets hold
    /// again (possibly evicting the new entry itself, if it alone
    /// exceeds the budget). A key that is already cached is left
    /// untouched — the first snapshot through a crash point is as good
    /// as any later one, and the first result for a job key is the one
    /// later submissions must replay byte-for-byte.
    pub fn insert(&mut self, group: u64, key: Vec<usize>, payload: S) {
        if self.contains(group, &key) {
            return;
        }
        let bytes = payload.approx_bytes().max(1);
        self.tick += 1;
        let g = self.groups.entry(group).or_default();
        *g.lengths.entry(key.len()).or_insert(0) += 1;
        g.entries.insert(
            key,
            Entry {
                payload,
                bytes,
                last_used: self.tick,
            },
        );
        self.len += 1;
        self.bytes += bytes;
        self.stats.inserts += 1;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        while self.len > 0 && (self.bytes > self.cap_bytes || self.len > self.cap_entries) {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        // Ticks are unique, so the minimum is unique and the victim is
        // deterministic regardless of hash-map iteration order.
        let victim = self
            .groups
            .iter()
            .flat_map(|(&group, g)| g.entries.iter().map(move |(k, e)| (group, k, e.last_used)))
            .min_by_key(|&(_, _, last_used)| last_used)
            .map(|(group, k, _)| (group, k.clone()));
        if let Some((group, key)) = victim {
            let g = self.groups.get_mut(&group).expect("victim group present");
            let entry = g.entries.remove(&key).expect("victim present");
            self.len -= 1;
            self.bytes -= entry.bytes;
            if let Some(count) = g.lengths.get_mut(&key.len()) {
                *count -= 1;
                if *count == 0 {
                    g.lengths.remove(&key.len());
                }
            }
            if g.entries.is_empty() {
                self.groups.remove(&group);
            }
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
    fn longest_prefix_wins() {
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(0, vec![0, 1], Blob(10));
        c.insert(0, vec![0, 1, 0, 1], Blob(10));
        // Both keys prefix the plan; the deeper one is returned.
        let plan = [0, 1, 0, 1, 2];
        assert!(c.lookup(0, &plan).is_some());
        assert_eq!(c.stats().hits, 1);
        // Verify it was the length-4 key: remove it and the shallow one
        // still serves the same plan.
        assert!(c.contains(0, &[0, 1, 0, 1]));
        let mut shallow_only = SnapshotCache::new(1 << 20);
        shallow_only.insert(0, vec![0, 1], Blob(10));
        assert!(shallow_only.lookup(0, &plan).is_some());
    }

    #[test]
    fn unrelated_plans_miss() {
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(0, vec![0, 1], Blob(10));
        assert!(c.lookup(0, &[1]).is_none());
        assert!(c.lookup(0, &[0]).is_none(), "shorter than any key");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn groups_are_disjoint_namespaces() {
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(1, vec![0, 1], Blob(10));
        assert!(c.lookup(2, &[0, 1, 0]).is_none(), "other group");
        assert!(c.lookup(1, &[0, 1, 0]).is_some());
        assert!(c.get(2, &[0, 1]).is_none());
        assert!(c.get(1, &[0, 1]).is_some());
        assert!(!c.contains(2, &[0, 1]));
    }

    #[test]
    fn empty_plan_lookup_misses_even_on_a_warm_group() {
        // Every run's first scenario has no prescribed decisions. A
        // private cache is always cold at that point, but a cross-job
        // shared cache is not — the probe must miss cleanly instead of
        // panicking on the inverted `1..=0` length range.
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(0, vec![0, 1], Blob(10));
        assert!(c.lookup(0, &[]).is_none());
        assert_eq!(c.stats().misses, 1);
        // Even an empty-key entry (result-cache style) is not served as
        // a snapshot prefix.
        c.insert(0, vec![], Blob(10));
        assert!(c.lookup(0, &[]).is_none());
    }

    #[test]
    fn exact_get_serves_empty_keys() {
        // The daemon's result cache keys whole jobs: group = job
        // fingerprint, trace = [].
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(42, vec![], Blob(10));
        assert!(c.get(42, &[]).is_some());
        assert!(c.get(43, &[]).is_none());
        assert!(c.lookup(42, &[0, 1]).is_none(), "prefix probes skip len 0");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let mut c = SnapshotCache::new(25);
        c.insert(0, vec![1], Blob(10));
        c.insert(0, vec![2], Blob(10));
        assert!(c.lookup(0, &[1]).is_some(), "touch [1]");
        c.insert(0, vec![3], Blob(10)); // 30 bytes > 25: evict LRU = [2]
        assert!(!c.contains(0, &[2]));
        assert!(c.contains(0, &[1]) && c.contains(0, &[3]));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes <= 25);
    }

    #[test]
    fn eviction_crosses_group_boundaries() {
        let mut c = SnapshotCache::new(25);
        c.insert(1, vec![1], Blob(10));
        c.insert(2, vec![1], Blob(10));
        c.insert(3, vec![1], Blob(10)); // over budget: evict group 1's entry
        assert!(!c.contains(1, &[1]));
        assert!(c.contains(2, &[1]) && c.contains(3, &[1]));
    }

    #[test]
    fn oversized_payload_is_evicted_immediately() {
        let mut c = SnapshotCache::new(5);
        c.insert(0, vec![1], Blob(100));
        assert!(c.is_empty());
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().evictions, 1);
        // The cache stays usable: misses fall back to replay upstream.
        assert!(c.lookup(0, &[1, 0]).is_none());
    }

    #[test]
    fn entry_cap_is_enforced() {
        let mut c = SnapshotCache::with_entry_cap(1 << 20, 2);
        c.insert(0, vec![1], Blob(1));
        c.insert(0, vec![2], Blob(1));
        c.insert(0, vec![3], Blob(1));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(0, &[1]), "oldest entry evicted");
    }

    #[test]
    fn duplicate_keys_keep_the_first_snapshot() {
        let mut c = SnapshotCache::new(1 << 20);
        c.insert(0, vec![1], Blob(10));
        c.insert(0, vec![1], Blob(99));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().inserts, 1, "second insert is a no-op");
        assert_eq!(c.stats().bytes, 10);
    }

    #[test]
    fn peak_bytes_tracks_high_water_mark() {
        let mut c = SnapshotCache::new(30);
        c.insert(0, vec![1], Blob(20));
        c.insert(0, vec![2], Blob(20)); // 40 > 30: evict [1]
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
    fn since_subtracts_monotonic_axes_and_keeps_gauges() {
        let earlier = SnapshotStats {
            hits: 1,
            misses: 2,
            inserts: 3,
            evictions: 0,
            bytes: 100,
            peak_bytes: 100,
            shared_hits: 1,
            shared_misses: 0,
            shared_evictions: 0,
        };
        let now = SnapshotStats {
            hits: 5,
            misses: 2,
            inserts: 4,
            evictions: 1,
            bytes: 300,
            peak_bytes: 400,
            shared_hits: 3,
            shared_misses: 2,
            shared_evictions: 1,
        };
        let d = now.since(&earlier);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 0);
        assert_eq!(d.inserts, 1);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.bytes, 300, "gauge keeps the current value");
        assert_eq!(d.peak_bytes, 400);
        assert_eq!(d.shared_hits, 2);
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
