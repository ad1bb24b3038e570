//! AES-CMAC (RFC 4493) and the truncated 32-bit MAC used in the NetFence
//! header.
//!
//! The NetFence header reserves a 32-bit `MAC` field (Figure 6 of the paper),
//! so tokens computed over the feedback fields (Eq. 1–3, §4.4) are truncated
//! to the first four bytes of the full CMAC. Truncation keeps the header at
//! 20–28 bytes while still making online forgery of a valid token
//! impractical within a feedback expiration window (`w` = 4 s).

use crate::aes::{Aes128, BLOCK_SIZE};

/// A full 128-bit CMAC tag.
pub type Tag = [u8; BLOCK_SIZE];

/// The truncated 32-bit MAC carried in NetFence headers.
pub type Mac32 = u32;

/// AES-CMAC keyed instance.
///
/// Holds the expanded cipher and the two derived sub-keys `K1`/`K2`
/// (RFC 4493 §2.3).
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; BLOCK_SIZE],
    k2: [u8; BLOCK_SIZE],
}

impl core::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Cmac {{ .. }}")
    }
}

/// Left-shift a 128-bit big-endian value by one bit.
fn shl1(input: &[u8; BLOCK_SIZE]) -> ([u8; BLOCK_SIZE], bool) {
    let mut out = [0u8; BLOCK_SIZE];
    let mut carry = 0u8;
    for i in (0..BLOCK_SIZE).rev() {
        out[i] = (input[i] << 1) | carry;
        carry = input[i] >> 7;
    }
    (out, carry == 1)
}

/// Derive a CMAC sub-key: doubling in GF(2^128) with R128 = 0x87.
fn derive_subkey(l: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    let (mut k, overflow) = shl1(l);
    if overflow {
        k[BLOCK_SIZE - 1] ^= 0x87;
    }
    k
}

impl Cmac {
    /// Create a CMAC instance from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let l = cipher.encrypt(&[0u8; BLOCK_SIZE]);
        let k1 = derive_subkey(&l);
        let k2 = derive_subkey(&k1);
        Cmac { cipher, k1, k2 }
    }

    /// Compute the full 128-bit CMAC tag of `msg`.
    pub fn tag(&self, msg: &[u8]) -> Tag {
        let n_blocks = msg.len().div_ceil(BLOCK_SIZE);
        let (n_blocks, last_complete) = if n_blocks == 0 {
            (1, false)
        } else {
            (n_blocks, msg.len().is_multiple_of(BLOCK_SIZE))
        };

        let mut x = [0u8; BLOCK_SIZE];
        for i in 0..n_blocks - 1 {
            for (xb, mb) in x.iter_mut().zip(&msg[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]) {
                *xb ^= *mb;
            }
            self.cipher.encrypt_block(&mut x);
        }

        // Prepare the last block: either XOR with K1 (complete) or pad with
        // 10..0 and XOR with K2 (incomplete).
        let mut last = [0u8; BLOCK_SIZE];
        let start = (n_blocks - 1) * BLOCK_SIZE;
        if last_complete {
            last.copy_from_slice(&msg[start..start + BLOCK_SIZE]);
            for (lb, kb) in last.iter_mut().zip(self.k1.iter()) {
                *lb ^= *kb;
            }
        } else {
            let rem = &msg[start..];
            last[..rem.len()].copy_from_slice(rem);
            last[rem.len()] = 0x80;
            for (lb, kb) in last.iter_mut().zip(self.k2.iter()) {
                *lb ^= *kb;
            }
        }

        for (xb, lb) in x.iter_mut().zip(last.iter()) {
            *xb ^= *lb;
        }
        self.cipher.encrypt_block(&mut x);
        x
    }

    /// Compute the truncated 32-bit MAC used in NetFence headers.
    pub fn mac32(&self, msg: &[u8]) -> Mac32 {
        let tag = self.tag(msg);
        u32::from_be_bytes([tag[0], tag[1], tag[2], tag[3]])
    }

    /// Verify a truncated 32-bit MAC in constant time with respect to the
    /// tag value.
    pub fn verify32(&self, msg: &[u8], mac: Mac32) -> bool {
        // XOR-compare to avoid an early-exit comparison on the tag bytes.
        let expected = self.mac32(msg);
        (expected ^ mac) == 0
    }
}

/// A small helper to build MAC input messages from typed, variable-length
/// fields: each is appended with a length prefix, after a domain-separation
/// label, so that different field combinations can never collide. It
/// allocates one `Vec` per message, so no packet path uses it: every
/// feedback MAC input (Eq. 1–5, the Appendix B.1 chain included) is a
/// fixed-width stack array built in `netfence-core`'s `feedback`. It stays
/// for the `perf` benchmark's `crypto.macinput_build_ns` row.
#[derive(Default)]
pub struct MacInput {
    buf: Vec<u8>,
}

impl MacInput {
    /// Start a new MAC input with a domain-separation label.
    pub fn new(label: &str) -> Self {
        let mut m = MacInput { buf: Vec::with_capacity(64) };
        m.push_bytes(label.as_bytes());
        m
    }

    /// Append a length-prefixed byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Append a `u32` field.
    pub fn push_u32(&mut self, v: u32) -> &mut Self {
        self.push_bytes(&v.to_be_bytes())
    }

    /// Append a single byte field.
    pub fn push_u8(&mut self, v: u8) -> &mut Self {
        self.push_bytes(&[v])
    }

    /// The accumulated message bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// RFC 4493 test vector: empty message.
    #[test]
    fn rfc4493_example_1_empty() {
        let cmac = Cmac::new(&KEY);
        let expected: Tag = [
            0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
            0x67, 0x46,
        ];
        assert_eq!(cmac.tag(b""), expected);
    }

    /// RFC 4493 test vector: 16-byte message.
    #[test]
    fn rfc4493_example_2_one_block() {
        let cmac = Cmac::new(&KEY);
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected: Tag = [
            0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
            0x28, 0x7c,
        ];
        assert_eq!(cmac.tag(&msg), expected);
    }

    /// RFC 4493 test vector: 40-byte message (padding path).
    #[test]
    fn rfc4493_example_3_partial_block() {
        let cmac = Cmac::new(&KEY);
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        ];
        let expected: Tag = [
            0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
            0xc8, 0x27,
        ];
        assert_eq!(cmac.tag(&msg), expected);
    }

    /// RFC 4493 test vector: 64-byte message (multiple complete blocks).
    #[test]
    fn rfc4493_example_4_four_blocks() {
        let cmac = Cmac::new(&KEY);
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let expected: Tag = [
            0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
            0x3c, 0xfe,
        ];
        assert_eq!(cmac.tag(&msg), expected);
    }

    #[test]
    fn mac32_is_prefix_of_tag() {
        let cmac = Cmac::new(&KEY);
        let tag = cmac.tag(b"netfence");
        let mac = cmac.mac32(b"netfence");
        assert_eq!(mac.to_be_bytes(), tag[..4]);
        assert!(cmac.verify32(b"netfence", mac));
        assert!(!cmac.verify32(b"netfence", mac ^ 1));
        assert!(!cmac.verify32(b"netfencf", mac));
    }

    #[test]
    fn mac_input_domain_separation() {
        // ("ab","c") and ("a","bc") must hash differently thanks to length
        // prefixes.
        let cmac = Cmac::new(&KEY);
        let mut a = MacInput::new("t");
        a.push_bytes(b"ab").push_bytes(b"c");
        let mut b = MacInput::new("t");
        b.push_bytes(b"a").push_bytes(b"bc");
        assert_ne!(cmac.mac32(a.as_bytes()), cmac.mac32(b.as_bytes()));
    }

    proptest::proptest! {
        /// Any single-bit flip in the message changes the 128-bit tag.
        #[test]
        fn bit_flip_changes_tag(msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..128),
                                bit in 0usize..1024) {
            let cmac = Cmac::new(&KEY);
            let bit = bit % (msg.len() * 8);
            let mut flipped = msg.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert_ne!(cmac.tag(&msg), cmac.tag(&flipped));
        }

        /// Different keys yield different tags for the same message.
        #[test]
        fn key_separation(k1 in proptest::prelude::any::<[u8;16]>(), k2 in proptest::prelude::any::<[u8;16]>(),
                          msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64)) {
            proptest::prop_assume!(k1 != k2);
            let c1 = Cmac::new(&k1);
            let c2 = Cmac::new(&k2);
            proptest::prop_assert_ne!(c1.tag(&msg), c2.tag(&msg));
        }
    }
}
