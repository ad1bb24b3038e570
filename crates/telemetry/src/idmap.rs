//! The workspace's one hash-map flavour for identifier keys.
//!
//! Every table the packet path probes — host address → attachment,
//! (sender, link) → rate limiter, class → DRR queue — is keyed by small
//! integers the topology assigned, never by anything a simulated adversary
//! chooses at run time. `std`'s `RandomState` pays a SipHash-1-3 per probe
//! to defend against chosen keys and seeds itself per process; here that
//! buys nothing and makes iteration order differ from run to run.
//! [`IdHasher`] is a fixed multiply-mix — one 64×64→128 multiply per integer
//! written — so two maps built by the same inserts iterate identically.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fixed [`IdHasher`]. Construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic multiply-mix hasher for integer identifiers: each written
/// word is XORed into the state, which becomes the folded (high ⊕ low)
/// 128-bit product with `K`. Folding matters: hashbrown takes the bucket
/// from the low bits and the control tag from the top seven, and a plain
/// wrapping multiply leaves the low bits of `base + i·256` constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}
