//! Simulated persistent-memory pools.

use crate::{PmAddr, PmError, CACHE_LINE_SIZE, NULL_PAGE_SIZE};

/// A simulated byte-addressable persistent-memory region.
///
/// A pool is the *medium*: a flat buffer with cache-line geometry, bounds
/// checks, and a reserved null page. It carries no persistency semantics —
/// the TSO simulator decides which stores have actually reached the medium.
/// The pool is used in three places:
///
/// * the Yat-style eager baseline materializes candidate post-failure
///   states into a pool and replays recovery against it,
/// * the native (uninstrumented) environment used by the overhead benchmark
///   runs directly against a pool,
/// * the model checker uses the pool geometry (root address, bump cursor
///   for scaffolding allocation) while keeping contents virtual.
///
/// The first cache line is the null page: reads and writes there return
/// [`PmError::NullAccess`]. The *root address* is the first byte after the
/// null page; recovery code conventionally finds its root object there,
/// mirroring `pmemobj_root` in PMDK.
///
/// # Example
///
/// ```
/// use jaaru_pmem::PmPool;
///
/// # fn main() -> Result<(), jaaru_pmem::PmError> {
/// let mut pool = PmPool::new(1 << 16);
/// let root = pool.root();
/// pool.write(root, b"hello")?;
/// let mut buf = [0u8; 5];
/// pool.read(root, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PmPool {
    bytes: Vec<u8>,
    bump: u64,
}

impl PmPool {
    /// Creates a zero-filled pool of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than two cache lines (null page + root).
    pub fn new(size: usize) -> Self {
        assert!(
            size >= 2 * CACHE_LINE_SIZE,
            "pool must hold at least the null page and a root line"
        );
        PmPool {
            bytes: vec![0; size],
            bump: 2 * CACHE_LINE_SIZE as u64,
        }
    }

    /// Total pool size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The root address: the first usable byte after the null page.
    ///
    /// Recovery code re-locates its data structure from here, like
    /// `pmemobj_root` in PMDK.
    #[inline]
    pub fn root(&self) -> PmAddr {
        PmAddr::new(NULL_PAGE_SIZE)
    }

    /// Validates that `[addr, addr + len)` is a legal access range.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::NullAccess`] for accesses touching the null page
    /// and [`PmError::OutOfBounds`] for accesses past the end of the pool.
    pub fn check_range(&self, addr: PmAddr, len: usize) -> Result<(), PmError> {
        if addr.in_null_page() {
            return Err(PmError::NullAccess { addr, len });
        }
        let end = addr.offset().checked_add(len as u64);
        match end {
            Some(end) if end <= self.size() => Ok(()),
            _ => Err(PmError::OutOfBounds {
                addr,
                len,
                pool_size: self.size(),
            }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is illegal; see [`PmPool::check_range`].
    pub fn read(&self, addr: PmAddr, buf: &mut [u8]) -> Result<(), PmError> {
        self.check_range(addr, buf.len())?;
        let start = addr.offset() as usize;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is illegal; see [`PmPool::check_range`].
    pub fn write(&mut self, addr: PmAddr, data: &[u8]) -> Result<(), PmError> {
        self.check_range(addr, data.len())?;
        let start = addr.offset() as usize;
        self.bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is illegal.
    #[inline]
    pub fn read_u8(&self, addr: PmAddr) -> Result<u8, PmError> {
        self.check_range(addr, 1)?;
        Ok(self.bytes[addr.offset() as usize])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is illegal.
    #[inline]
    pub fn write_u8(&mut self, addr: PmAddr, value: u8) -> Result<(), PmError> {
        self.check_range(addr, 1)?;
        self.bytes[addr.offset() as usize] = value;
        Ok(())
    }

    /// Bump-allocates `size` bytes with the given power-of-two alignment.
    ///
    /// This is *volatile scaffolding* allocation: the cursor is not stored
    /// in PM, so it is deterministic per execution but not crash-persistent.
    /// Programs under test that need crash-safe allocation use the
    /// persistent allocators in `jaaru-workloads`, which are themselves PM
    /// code that Jaaru checks (several of the paper's bugs live in
    /// allocators).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfMemory`] if the pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<PmAddr, PmError> {
        let base = PmAddr::new(self.bump).align_up(align);
        let end = base.offset().checked_add(size);
        match end {
            Some(end) if end <= self.size() => {
                self.bump = end;
                Ok(base)
            }
            _ => Err(PmError::OutOfMemory {
                requested: size,
                available: self.size().saturating_sub(self.bump),
            }),
        }
    }

    /// Resets the bump cursor (used when simulating a fresh execution
    /// against the same persistent contents).
    pub fn reset_bump(&mut self) {
        self.bump = 2 * CACHE_LINE_SIZE as u64;
    }

    /// A read-only view of the raw pool contents.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pool_is_zeroed() {
        let pool = PmPool::new(256);
        assert!(pool.as_bytes().iter().all(|&b| b == 0));
        assert_eq!(pool.size(), 256);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn tiny_pool_rejected() {
        PmPool::new(64);
    }

    #[test]
    fn null_page_faults() {
        let mut pool = PmPool::new(256);
        assert!(matches!(
            pool.read_u8(PmAddr::NULL),
            Err(PmError::NullAccess { .. })
        ));
        assert!(matches!(
            pool.write_u8(PmAddr::new(63), 1),
            Err(PmError::NullAccess { .. })
        ));
        // A write that *starts* in the null page faults even if it extends past it.
        assert!(matches!(
            pool.write(PmAddr::new(60), &[0; 8]),
            Err(PmError::NullAccess { .. })
        ));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut pool = PmPool::new(256);
        assert!(matches!(
            pool.read_u8(PmAddr::new(256)),
            Err(PmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pool.write(PmAddr::new(250), &[0; 8]),
            Err(PmError::OutOfBounds { .. })
        ));
        // Overflowing end offset must not wrap.
        assert!(matches!(
            pool.check_range(PmAddr::new(u64::MAX - 2), 8),
            Err(PmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut pool = PmPool::new(256);
        let a = pool.root();
        pool.write(a, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0; 4];
        pool.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        pool.write_u8(a + 1, 9).unwrap();
        assert_eq!(pool.read_u8(a + 1).unwrap(), 9);
    }

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let mut pool = PmPool::new(512);
        let a = pool.alloc(10, 1).unwrap();
        let b = pool.alloc(1, 64).unwrap();
        assert_eq!(b.offset() % 64, 0);
        assert!(b.offset() >= a.offset() + 10);
        assert!(matches!(
            pool.alloc(10_000, 1),
            Err(PmError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn alloc_never_returns_null_page() {
        let mut pool = PmPool::new(512);
        for _ in 0..4 {
            let a = pool.alloc(8, 8).unwrap();
            assert!(!a.in_null_page());
            assert!(a.offset() >= 128, "allocations start after the root line");
        }
    }

    #[test]
    fn reset_bump_reuses_space_deterministically() {
        let mut pool = PmPool::new(512);
        let first = pool.alloc(8, 8).unwrap();
        pool.reset_bump();
        let again = pool.alloc(8, 8).unwrap();
        assert_eq!(first, again);
    }
}
