//! Software AES-128 block cipher, table-driven.
//!
//! NetFence assumes line-speed symmetric-key cryptography (§2.1 of the paper)
//! and uses AES-128 as the MAC primitive for congestion policing feedback
//! (§6.2). Hardware AES (AES-NI, Helion cores) is not used by this
//! reproduction: the intrinsics need `unsafe`, which this crate forbids, and
//! a hardware/software fork would leave one side of it unmeasured (see
//! `DESIGN.md` §3). Instead the round function is the standard table-driven
//! one: the state is four big-endian `u32` column words, and SubBytes,
//! ShiftRows and MixColumns of one column are four lookups in a single 1 KB
//! table (`TE0`, generated from the S-box at compile time) XORed together,
//! the lookups for rows 1–3 rotated right by 8/16/24 bits. Every per-packet
//! cost reported against Figure 7 of the paper is a multiple of this block.
//!
//! Table lookups indexed by secret bytes are not constant-time with respect
//! to the cache; the simulator has no co-resident attacker, so that is
//! outside the threat model here.
//!
//! Only encryption is implemented because CMAC (the only consumer in this
//! repository) never needs the inverse cipher.

/// Size of an AES block in bytes.
pub const BLOCK_SIZE: usize = 16;
/// Size of an AES-128 key in bytes.
pub const KEY_SIZE: usize = 16;
/// Number of AES-128 rounds.
const ROUNDS: usize = 10;

/// The AES S-box (FIPS-197 §5.1.1).
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants used by the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The encryption T-table for row 0: `TE0[x]` is the MixColumns image of a
/// column whose only non-zero byte is `S[x]` in row 0, i.e. the big-endian
/// word `({02}·S[x], S[x], S[x], {03}·S[x])`. The tables for rows 1–3 are
/// byte rotations of this one, so it is the only table kept.
static TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        // {02}·s in GF(2^8) with the AES reduction polynomial.
        let s2 = (s << 1) ^ ((s >> 7) * 0x1b);
        t[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    t
};

/// SubBytes + ShiftRows + MixColumns for output column `c` of state `s`:
/// ShiftRows feeds row `r` of column `c` from column `c + r`.
#[inline(always)]
fn round_column(s: &[u32; 4], c: usize) -> u32 {
    TE0[(s[c] >> 24) as usize]
        ^ TE0[(s[(c + 1) % 4] >> 16) as u8 as usize].rotate_right(8)
        ^ TE0[(s[(c + 2) % 4] >> 8) as u8 as usize].rotate_right(16)
        ^ TE0[s[(c + 3) % 4] as u8 as usize].rotate_right(24)
}

/// SubBytes + ShiftRows for output column `c` of the last round, which has
/// no MixColumns.
#[inline(always)]
fn last_round_column(s: &[u32; 4], c: usize) -> u32 {
    u32::from_be_bytes([
        SBOX[(s[c] >> 24) as usize],
        SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
        SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
        SBOX[s[(c + 3) % 4] as u8 as usize],
    ])
}

/// An expanded AES-128 key, ready to encrypt blocks.
///
/// The expansion is done once per key; NetFence routers rotate their secrets
/// on the order of minutes (see [`crate::secret`]), so expansion cost is
/// negligible compared to per-packet block encryptions.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys: (ROUNDS + 1) × 4 big-endian column words (FIPS-197's `w`).
    round_keys: [u32; 4 * (ROUNDS + 1)],
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ .. }}")
    }
}

impl Aes128 {
    /// Expand `key` into the round-key schedule (FIPS-197 §5.2). `const` so
    /// that a fixed key's schedule can live in a `static`.
    pub const fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        let mut i = 0;
        while i < 4 {
            w[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
            i += 1;
        }
        while i < w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // SubWord(RotWord(temp)) ^ Rcon
                let [a, b, c, d] = temp.rotate_left(8).to_be_bytes();
                temp = u32::from_be_bytes([
                    SBOX[a as usize] ^ RCON[i / 4 - 1],
                    SBOX[b as usize],
                    SBOX[c as usize],
                    SBOX[d as usize],
                ]);
            }
            w[i] = w[i - 4] ^ temp;
            i += 1;
        }
        Aes128 { round_keys: w }
    }

    /// The expanded key as FIPS-197's 44 schedule words `w[0..44]`, for
    /// checking against the standard's Appendix A.1.
    pub fn round_keys(&self) -> &[u32; 4 * (ROUNDS + 1)] {
        &self.round_keys
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let rk = &self.round_keys;
        let mut s: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
                ^ rk[c]
        });
        for round in 1..ROUNDS {
            s = std::array::from_fn(|c| round_column(&s, c) ^ rk[4 * round + c]);
        }
        for (c, out) in block.chunks_exact_mut(4).enumerate() {
            out.copy_from_slice(&(last_round_column(&s, c) ^ rk[4 * ROUNDS + c]).to_be_bytes());
        }
    }

    /// Encrypt a block, returning the ciphertext.
    pub fn encrypt(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(&plaintext), expected);
    }

    /// FIPS-197 Appendix C.1 (AES-128) known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(&plaintext), expected);
    }

    #[test]
    fn encryption_is_deterministic_and_key_dependent() {
        let aes1 = Aes128::new(&[0u8; 16]);
        let aes2 = Aes128::new(&[1u8; 16]);
        let block = [0x42u8; 16];
        assert_eq!(aes1.encrypt(&block), aes1.encrypt(&block));
        assert_ne!(aes1.encrypt(&block), aes2.encrypt(&block));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains('7'));
    }
}
