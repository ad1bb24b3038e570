//! Time-varying access-router secrets.
//!
//! §3.2 of the paper: "An access router inserts a periodically changing
//! secret in a packet's NetFence header." The access router computes the
//! `token_nop` and `token_L↑` MACs with a secret key `Ka` known only to
//! itself (Eq. 1–2). To make key compromise and cryptanalysis windows short,
//! `Ka` rotates periodically; because feedback is valid for up to `w` seconds
//! (4 s, Figure 3), the router must still be able to validate feedback
//! computed under the previous key.

use crate::cmac::Cmac;

/// Nanoseconds since the start of the simulation / epoch.
pub type Nanos = u64;

/// Default key-rotation period: 128 seconds. Any value well above the
/// feedback expiration time `w` (4 s) works; the paper does not prescribe
/// one.
pub const DEFAULT_ROTATION_PERIOD: Nanos = 128 * 1_000_000_000;

/// A time-varying secret key with a one-period validation grace window.
///
/// At any time the router holds the *current* key and, from the second epoch
/// on, the *previous* key. New MACs are always computed under the current
/// key; validation accepts either, so feedback stamped just before a rotation
/// remains verifiable for a full rotation period (which is much longer than
/// `w`).
#[derive(Clone, Debug)]
pub struct TimeVaryingSecret {
    /// Root key material the per-period keys are derived from.
    root: [u8; 16],
    /// Rotation period in nanoseconds.
    period: Nanos,
    /// Epoch index of the cached current key.
    cached_epoch: u64,
    /// CMAC instance for the current epoch.
    current: Cmac,
    /// CMAC instance for the previous epoch; `None` in epoch 0, which has no
    /// predecessor, so a failed verification there costs one MAC, not two.
    previous: Option<Cmac>,
}

/// Derive the per-epoch key from the root key: AES_root(epoch || pad).
fn derive_epoch_key(root: &[u8; 16], epoch: u64) -> [u8; 16] {
    let cipher = crate::aes::Aes128::new(root);
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&epoch.to_be_bytes());
    block[8..].copy_from_slice(b"NF-epoch");
    cipher.encrypt(&block)
}

impl TimeVaryingSecret {
    /// Create a secret from root key material with the default rotation
    /// period.
    pub fn new(root: [u8; 16]) -> Self {
        Self::with_period(root, DEFAULT_ROTATION_PERIOD)
    }

    /// Create a secret with an explicit rotation period (used by tests).
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn with_period(root: [u8; 16], period: Nanos) -> Self {
        assert!(period > 0, "rotation period must be non-zero");
        let current = Cmac::new(&derive_epoch_key(&root, 0));
        TimeVaryingSecret { root, period, cached_epoch: 0, current, previous: None }
    }

    /// The rotation period.
    pub fn period(&self) -> Nanos {
        self.period
    }

    fn epoch_of(&self, now: Nanos) -> u64 {
        now / self.period
    }

    /// Advance the cached keys to the epoch containing `now`. Cheap when the
    /// epoch has not changed.
    pub fn advance(&mut self, now: Nanos) {
        let epoch = self.epoch_of(now);
        if epoch == self.cached_epoch {
            return;
        }
        self.current = Cmac::new(&derive_epoch_key(&self.root, epoch));
        self.previous = epoch.checked_sub(1).map(|e| Cmac::new(&derive_epoch_key(&self.root, e)));
        self.cached_epoch = epoch;
    }

    /// Compute a truncated MAC under the current key.
    pub fn mac32(&mut self, now: Nanos, msg: &[u8]) -> u32 {
        self.advance(now);
        self.current.mac32(msg)
    }

    /// Compute a truncated MAC under the previous epoch's key, or `None` in
    /// epoch 0. For callers that cannot use [`Self::verify32`] because the
    /// MAC is itself an input to another MAC (Eq. 3 covers `token_nop`): try
    /// [`Self::mac32`] first and this only on a mismatch.
    pub fn mac32_previous(&mut self, now: Nanos, msg: &[u8]) -> Option<u32> {
        self.advance(now);
        self.previous.as_ref().map(|p| p.mac32(msg))
    }

    /// Verify a truncated MAC against the current or the previous key.
    pub fn verify32(&mut self, now: Nanos, msg: &[u8], mac: u32) -> bool {
        self.advance(now);
        self.current.verify32(msg, mac)
            || self.previous.as_ref().is_some_and(|p| p.verify32(msg, mac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = 1_000_000_000;

    #[test]
    fn stable_within_epoch() {
        let mut s = TimeVaryingSecret::with_period([1u8; 16], 10 * SEC);
        let m1 = s.mac32(0, b"hello");
        let m2 = s.mac32(9 * SEC, b"hello");
        assert_eq!(m1, m2);
        assert!(s.verify32(9 * SEC, b"hello", m1));
    }

    #[test]
    fn rotates_across_epochs() {
        let mut s = TimeVaryingSecret::with_period([1u8; 16], 10 * SEC);
        let m_old = s.mac32(0, b"hello");
        let m_new = s.mac32(10 * SEC, b"hello");
        assert_ne!(m_old, m_new, "key must change at the epoch boundary");
    }

    #[test]
    fn previous_epoch_still_validates() {
        let mut s = TimeVaryingSecret::with_period([1u8; 16], 10 * SEC);
        let m_old = s.mac32(9 * SEC, b"hello");
        // Just after rotation the old MAC must still verify (grace window).
        assert!(s.verify32(11 * SEC, b"hello", m_old));
        // Two epochs later it must not.
        assert!(!s.verify32(25 * SEC, b"hello", m_old));
    }

    #[test]
    fn previous_mac_is_the_last_epochs_current_mac() {
        let mut s = TimeVaryingSecret::with_period([1u8; 16], 10 * SEC);
        assert_eq!(s.mac32_previous(9 * SEC, b"hello"), None, "epoch 0 has no predecessor");
        let m_old = s.mac32(9 * SEC, b"hello");
        assert_eq!(s.mac32_previous(11 * SEC, b"hello"), Some(m_old));
        assert_ne!(s.mac32_previous(25 * SEC, b"hello"), Some(m_old));
    }

    #[test]
    fn different_roots_disagree() {
        let mut a = TimeVaryingSecret::with_period([1u8; 16], 10 * SEC);
        let mut b = TimeVaryingSecret::with_period([2u8; 16], 10 * SEC);
        assert_ne!(a.mac32(0, b"x"), b.mac32(0, b"x"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let _ = TimeVaryingSecret::with_period([0u8; 16], 0);
    }
}
