//! A fast hasher for maps keyed by cache line.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hashing of `u64` keys. The keys are cache-line
/// indices that guest code computes within its pool, not input from outside
/// the program, so SipHash's resistance to crafted collisions buys nothing
/// on this hot path. The product's well-mixed high half is rotated into the
/// low bits, which pick the bucket.
#[derive(Clone, Copy, Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A `HashMap` hashed with [`LineHasher`].
pub(crate) type LineMap<K, V> = HashMap<K, V, BuildHasherDefault<LineHasher>>;
