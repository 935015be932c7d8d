//! A fast hasher for maps keyed by integers the program computes itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hashing of integer keys. The keys it is
/// meant for are cache-line indices that guest code computes within its
/// pool, and positions in the guest's own source, not input from outside
/// the program, so SipHash's resistance to crafted collisions buys
/// nothing on the hot paths that use it. The product's well-mixed high
/// half is rotated into the low bits, which pick the bucket.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub(crate) type LineMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A set of cache-line indices, hashed with [`IntHasher`].
pub type LineSet = HashSet<u64, BuildHasherDefault<IntHasher>>;
