//! Hash keys that pair a value with a guest source site.
//!
//! Hashing a `&'static Location` hashes its file path, and the lint
//! passes look a site up once per candidate: the read-from evidence of
//! [`localize`](crate::localize) and the `(kind, site)` index of
//! [`DiagnosticSet`](crate::DiagnosticSet) see millions of lookups on a
//! scenario-capped run, and the checker's report looks up the load site
//! of every race every scenario reports. A [`SiteKey`] hashes only the
//! site's line and column, with `jaaru_tso::IntHasher`, and compares the
//! whole site, file path included, only among the keys that share them.

use std::hash::{BuildHasherDefault, Hash, Hasher};

use jaaru_tso::{IntHasher, SourceLoc};

/// `value` at `site`: equal to another with an equal value and site,
/// hashed by the value and the site's line and column.
#[derive(Clone, Copy, Debug, Eq)]
pub struct SiteKey<T>(pub T, pub SourceLoc);

impl<T: PartialEq> PartialEq for SiteKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && (std::ptr::eq(self.1, other.1) || self.1 == other.1)
    }
}

impl<T: Hash> Hash for SiteKey<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
        state.write_u32(self.1.line());
        state.write_u32(self.1.column());
    }
}

/// The hasher of maps keyed by [`SiteKey`]: a multiplicative hash, since
/// line and column numbers are positions in the guest's own source, not
/// outside input.
pub type SiteHash = BuildHasherDefault<IntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::Location;

    #[test]
    fn keys_compare_the_whole_site() {
        let (a, b) = (Location::caller(), Location::caller());
        let mut set: HashSet<SiteKey<usize>, SiteHash> = HashSet::default();
        set.insert(SiteKey(0, a));
        assert!(set.contains(&SiteKey(0, a)));
        assert!(!set.contains(&SiteKey(1, a)), "another value");
        assert!(!set.contains(&SiteKey(0, b)), "another column");
        // A site equal to `a` but elsewhere in memory is the same key.
        let copy: &'static Location<'static> = Box::leak(Box::new(*a));
        assert!(set.contains(&SiteKey(0, copy)));
    }
}
