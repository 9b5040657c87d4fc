//! A fast hasher for the simulator's integer-keyed hot maps.
//!
//! The OMT, the cache-resident overlay lines, the functional backing
//! store and the OS model's processes and frame refcounts are keyed by
//! small integers the simulator generates itself, so SipHash's defence
//! against adversarial keys buys nothing there. [`FxHasher`] is the
//! multiply-rotate mix of rustc's `FxHasher`: one rotate, xor and
//! multiply per word. Iteration order stays unspecified; every snapshot
//! encoder sorts before writing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The word-at-a-time multiply-rotate hasher (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
