//! Persistent-memory addresses and cache-line geometry.

use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, Sub};

/// Size of a cache line in bytes. Jaaru models the x86 cache-line size.
pub const CACHE_LINE_SIZE: usize = 64;

/// The first `NULL_PAGE_SIZE` bytes of every pool are reserved: any access
/// to them is reported as an illegal memory access. This makes
/// null-pointer-shaped bugs (reading a pointer field that was never
/// persisted and got the initial value 0) manifest as the "segmentation
/// fault" symptom the paper reports.
pub const NULL_PAGE_SIZE: u64 = CACHE_LINE_SIZE as u64;

/// A byte address inside a simulated persistent-memory pool.
///
/// Addresses are offsets from the pool base. Offset `0` is the null
/// address; the whole first cache line (the *null page*) traps on access.
///
/// `PmAddr` is a plain value type: it is `Copy`, ordered, and hashable.
///
/// # Example
///
/// ```
/// use jaaru_pmem::PmAddr;
/// let a = PmAddr::new(128);
/// assert_eq!((a + 8) - a, 8);
/// assert!(!a.is_null());
/// assert!(PmAddr::NULL.is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PmAddr(u64);

impl PmAddr {
    /// The null persistent-memory address.
    pub const NULL: PmAddr = PmAddr(0);

    /// Creates an address from a byte offset into the pool.
    #[inline]
    pub const fn new(offset: u64) -> Self {
        PmAddr(offset)
    }

    /// The byte offset from the pool base.
    #[inline]
    pub const fn offset(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this address falls inside the reserved null page.
    #[inline]
    pub const fn in_null_page(self) -> bool {
        self.0 < NULL_PAGE_SIZE
    }

    /// The cache line this address belongs to.
    #[inline]
    pub const fn cache_line(self) -> CacheLineId {
        CacheLineId(self.0 / CACHE_LINE_SIZE as u64)
    }

    /// The offset of this address within its cache line.
    #[inline]
    pub const fn line_offset(self) -> usize {
        (self.0 % CACHE_LINE_SIZE as u64) as usize
    }

    /// Rounds this address up to the given power-of-two alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    #[inline]
    pub fn align_up(self, align: u64) -> PmAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        PmAddr((self.0 + align - 1) & !(align - 1))
    }

    /// Encodes the address as the `u64` stored in PM for pointer fields.
    ///
    /// The encoding is the raw offset, so a zeroed (never-persisted) pointer
    /// field decodes to [`PmAddr::NULL`].
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Decodes an address previously encoded with [`PmAddr::to_bits`].
    #[inline]
    pub const fn from_bits(bits: u64) -> PmAddr {
        PmAddr(bits)
    }

    /// Returns this address as a non-null witness, or `None` if null.
    #[inline]
    pub fn non_null(self) -> Option<NonZeroU64> {
        NonZeroU64::new(self.0)
    }
}

impl Add<u64> for PmAddr {
    type Output = PmAddr;

    #[inline]
    fn add(self, rhs: u64) -> PmAddr {
        PmAddr(self.0 + rhs)
    }
}

impl Sub<u64> for PmAddr {
    type Output = PmAddr;

    #[inline]
    fn sub(self, rhs: u64) -> PmAddr {
        PmAddr(self.0 - rhs)
    }
}

impl Sub<PmAddr> for PmAddr {
    type Output = u64;

    #[inline]
    fn sub(self, rhs: PmAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for PmAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PmAddr({:#x})", self.0)
    }
}

impl fmt::Display for PmAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<PmAddr> for u64 {
    #[inline]
    fn from(a: PmAddr) -> u64 {
        a.0
    }
}

impl From<u64> for PmAddr {
    #[inline]
    fn from(offset: u64) -> PmAddr {
        PmAddr(offset)
    }
}

/// Identity of a 64-byte cache line within a pool.
///
/// Flush instructions and most-recent-writeback intervals operate at this
/// granularity: two [`PmAddr`]s with the same `CacheLineId` share one
/// writeback interval, which is the heart of the Figure 2/3 refinement
/// example in the paper.
///
/// # Example
///
/// ```
/// use jaaru_pmem::{CacheLineId, PmAddr};
/// let x = PmAddr::new(64);
/// let y = PmAddr::new(120);
/// assert_eq!(x.cache_line(), y.cache_line());
/// assert_eq!(x.cache_line(), CacheLineId::new(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheLineId(u64);

impl CacheLineId {
    /// Creates a cache-line identity from a line index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        CacheLineId(index)
    }

    /// The line index (pool offset divided by [`CACHE_LINE_SIZE`]).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The address of the first byte of this cache line.
    #[inline]
    pub const fn base(self) -> PmAddr {
        PmAddr::new(self.0 * CACHE_LINE_SIZE as u64)
    }

    /// Iterates over every byte address in this cache line.
    pub fn bytes(self) -> impl Iterator<Item = PmAddr> {
        let base = self.base();
        (0..CACHE_LINE_SIZE as u64).map(move |i| base + i)
    }
}

impl fmt::Debug for CacheLineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheLine#{}", self.0)
    }
}

impl fmt::Display for CacheLineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_address_properties() {
        assert!(PmAddr::NULL.is_null());
        assert!(PmAddr::NULL.in_null_page());
        assert!(PmAddr::new(NULL_PAGE_SIZE - 1).in_null_page());
        assert!(!PmAddr::new(NULL_PAGE_SIZE).in_null_page());
        assert!(PmAddr::NULL.non_null().is_none());
        assert!(PmAddr::new(8).non_null().is_some());
    }

    #[test]
    fn cache_line_mapping() {
        assert_eq!(PmAddr::new(0).cache_line(), CacheLineId::new(0));
        assert_eq!(PmAddr::new(63).cache_line(), CacheLineId::new(0));
        assert_eq!(PmAddr::new(64).cache_line(), CacheLineId::new(1));
        assert_eq!(PmAddr::new(64).line_offset(), 0);
        assert_eq!(PmAddr::new(127).line_offset(), 63);
    }

    #[test]
    fn cache_line_bytes_cover_whole_line() {
        let line = CacheLineId::new(3);
        let bytes: Vec<PmAddr> = line.bytes().collect();
        assert_eq!(bytes.len(), CACHE_LINE_SIZE);
        assert_eq!(bytes[0], line.base());
        assert!(bytes.iter().all(|a| a.cache_line() == line));
    }

    #[test]
    fn arithmetic_and_alignment() {
        let a = PmAddr::new(100);
        assert_eq!(a + 28, PmAddr::new(128));
        assert_eq!(PmAddr::new(128) - a, 28);
        assert_eq!(a.align_up(64), PmAddr::new(128));
        assert_eq!(PmAddr::new(128).align_up(64), PmAddr::new(128));
        assert_eq!(a.align_up(1), a);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_up_rejects_non_power_of_two() {
        PmAddr::new(1).align_up(3);
    }

    #[test]
    fn bits_roundtrip() {
        let a = PmAddr::new(0xdead_beef);
        assert_eq!(PmAddr::from_bits(a.to_bits()), a);
        assert_eq!(PmAddr::from_bits(0), PmAddr::NULL);
    }

    #[test]
    fn debug_representations_are_nonempty() {
        assert!(!format!("{:?}", PmAddr::NULL).is_empty());
        assert!(!format!("{:?}", CacheLineId::new(0)).is_empty());
        assert_eq!(format!("{}", PmAddr::new(16)), "0x10");
    }
}
