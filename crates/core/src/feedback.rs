//! Congestion policing feedback: the central primitive of NetFence.
//!
//! §4.1 defines three kinds of feedback — `nop`, `L↑` and `L↓` — and §4.4
//! makes them unforgeable with MAC tokens:
//!
//! * Eq. (1): `token_nop  = MAC_Ka(src, dst, ts, link_null, nop)`
//! * Eq. (2): `token_L↑   = MAC_Ka(src, dst, ts, L, mon, incr)`
//! * Eq. (3): `token_L↓   = MAC_Kai(src, dst, ts, L, mon, decr, token_nop)`
//!
//! `Ka` is the access router's periodically-changing secret, `Kai` the key
//! shared between the bottleneck's AS and the sender's AS (Passport). The
//! `L↓` MAC covers the `token_nop` stamped by the access router, which is
//! erased afterwards so malicious downstream routers cannot overwrite the
//! feedback with a valid one of their own.
//!
//! Appendix B.1 of the tech report adds a chain that names every `mon` link
//! on the path, under one chained MAC:
//!
//! * Eq. 4: `token_0 = MAC_Ka(src, dst, ts)` at the access router;
//! * Eq. 5: `token_i = MAC_Kai(src, dst, ts, L_i, action_i, token_{i−1})`
//!   at the `i`-th link that appends.

use std::ops::Deref;

use netfence_crypto::{Cmac, Mac32, TimeVaryingSecret};

use crate::types::{nanos_to_secs, FlowPair, LinkId, Nanos, SEC};

/// The `action` field of `mon` feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// `incr` — the link is underloaded; the access router may allow more
    /// traffic (`L↑`).
    Incr,
    /// `decr` — the link is overloaded; the access router must reduce
    /// traffic (`L↓`).
    Decr,
}

/// A congestion policing feedback value as carried in a NetFence header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// `nop`: no policing action needed. The MAC is `token_nop` (Eq. 1).
    Nop {
        /// Stamping time, in whole seconds (the header timestamp unit).
        ts: u32,
        /// `token_nop` (Eq. 1).
        token: Mac32,
    },
    /// `mon`: the link `link` is in a monitoring cycle.
    Mon {
        /// The bottleneck link this feedback refers to.
        link: LinkId,
        /// Whether the link was underloaded (`Incr` = `L↑`) or overloaded
        /// (`Decr` = `L↓`).
        action: Action,
        /// Stamping time, in whole seconds.
        ts: u32,
        /// The MAC protecting this feedback (Eq. 2 for `L↑`, Eq. 3 for
        /// `L↓`).
        token: Mac32,
        /// `token_nop` carried alongside `L↑` feedback so that a downstream
        /// bottleneck can compute Eq. 3. Erased (set to `None`) once a
        /// bottleneck stamps `L↓`.
        token_nop: Option<Mac32>,
    },
    /// Appendix B.1: one `(link, action)` entry per `mon` link on the path,
    /// in path order, under one chained MAC. Its fields are inline so that
    /// `Feedback` stays 24 bytes.
    Chain {
        /// Stamping time at the access router, in whole seconds.
        ts: u32,
        /// The chained MAC: Eq. 4, then one Eq. 5 per entry.
        token: Mac32,
        /// The entries' links; slots from `len` on are [`LinkId::NULL`].
        links: [LinkId; CHAIN_CAP],
        /// Bit `i` set: entry `i` is `L↓`, else `L↑`.
        decr: u8,
        /// How many entries are in use.
        len: u8,
    },
}

/// The most entries a chain holds (the parking lot needs two). A link that
/// meets a full chain leaves it unchanged.
pub const CHAIN_CAP: usize = 3;

impl Feedback {
    /// The stamping timestamp in seconds.
    pub fn ts(&self) -> u32 {
        match self {
            Feedback::Nop { ts, .. } | Feedback::Mon { ts, .. } | Feedback::Chain { ts, .. } => *ts,
        }
    }

    /// Whether this is `nop` feedback.
    pub fn is_nop(&self) -> bool {
        matches!(self, Feedback::Nop { .. })
    }

    /// Whether this is `L↓` feedback (for any link).
    pub fn is_decr(&self) -> bool {
        matches!(self, Feedback::Mon { action: Action::Decr, .. })
    }

    /// Whether this is `L↑` feedback (for any link).
    pub fn is_incr(&self) -> bool {
        matches!(self, Feedback::Mon { action: Action::Incr, .. })
    }

    /// The bottleneck link referenced by `mon` feedback, if any.
    pub fn link(&self) -> Option<LinkId> {
        match self {
            Feedback::Nop { .. } | Feedback::Chain { .. } => None,
            Feedback::Mon { link, .. } => Some(*link),
        }
    }

    /// A chain's entries in path order (none for other feedback).
    pub fn chain(&self) -> impl Iterator<Item = (LinkId, Action)> + '_ {
        let (links, decr, len): (&[LinkId], u8, u8) = match self {
            Feedback::Chain { links, decr, len, .. } => (links, *decr, *len),
            Feedback::Nop { .. } | Feedback::Mon { .. } => (&[], 0, 0),
        };
        links.iter().take(len.into()).enumerate().map(move |(i, &link)| {
            (link, if decr >> i & 1 == 1 { Action::Decr } else { Action::Incr })
        })
    }

    /// Whether the feedback has expired relative to `now` given the
    /// expiration window `w` (§4.4: invalid if `|tnow − ts| > w`).
    pub fn is_expired(&self, now: Nanos, w: Nanos) -> bool {
        let now_s = nanos_to_secs(now) as i64;
        let ts = self.ts() as i64;
        let w_s = (w / SEC) as i64;
        (now_s - ts).abs() > w_s
    }
}

/// Domain-separation tag of the Eq. 1 (`nop`) MAC input.
const TAG_NOP: u8 = 0;
/// Domain-separation tag of the Eq. 2 (`L↑`) MAC input.
const TAG_INCR: u8 = 1;
/// Domain-separation tag of the Eq. 3 (`L↓`) MAC input.
const TAG_DECR: u8 = 2;
/// Domain-separation tag of the Eq. 4 (chain origin) MAC input.
const TAG_ORIGIN: u8 = 3;
/// Domain-separation tags of an Eq. 5 (chain entry) MAC input, `L↑` / `L↓`.
const TAG_LINK_INCR: u8 = 4;
const TAG_LINK_DECR: u8 = 5;

/// Length of the Eq. 1 / Eq. 2 MAC input: `src‖dst‖ts‖link‖tag`.
const BASE_LEN: usize = 17;

/// An `N`-byte MAC input (`N` ≥ [`BASE_LEN`]) starting with the fields every
/// token covers, at fixed offsets: `src‖dst‖ts‖link` as big-endian `u32`s,
/// then the tag byte; the rest is zero for the caller to fill. Every field
/// is fixed-width, so no two field combinations share an encoding, and the
/// tag keeps Eq. 1–5 apart. 17 (Eq. 1/2/4) and 21 (Eq. 3/5) bytes are two
/// CMAC blocks each.
fn base_input<const N: usize>(flow: FlowPair, ts: u32, link: LinkId, tag: u8) -> [u8; N] {
    let mut buf = [0u8; N];
    buf[0..4].copy_from_slice(&flow.src.0.to_be_bytes());
    buf[4..8].copy_from_slice(&flow.dst.0.to_be_bytes());
    buf[8..12].copy_from_slice(&ts.to_be_bytes());
    buf[12..16].copy_from_slice(&link.0.to_be_bytes());
    buf[16] = tag;
    buf
}

/// Build the Eq. 1 MAC input for `token_nop`.
fn nop_input(flow: FlowPair, ts: u32) -> [u8; BASE_LEN] {
    base_input(flow, ts, LinkId::NULL, TAG_NOP)
}

/// Build the Eq. 2 MAC input for `token_L↑`.
fn incr_input(flow: FlowPair, ts: u32, link: LinkId) -> [u8; BASE_LEN] {
    base_input(flow, ts, link, TAG_INCR)
}

/// The base fields, then the MAC this one covers: Eq. 3 covers
/// `token_nop`, Eq. 5 the chain's previous token.
fn covering_input(
    flow: FlowPair,
    ts: u32,
    link: LinkId,
    tag: u8,
    prev: Mac32,
) -> [u8; BASE_LEN + 4] {
    let mut buf: [u8; BASE_LEN + 4] = base_input(flow, ts, link, tag);
    buf[BASE_LEN..].copy_from_slice(&prev.to_be_bytes());
    buf
}

/// Build the Eq. 3 MAC input for `token_L↓`.
fn decr_input(flow: FlowPair, ts: u32, link: LinkId, token_nop: Mac32) -> [u8; BASE_LEN + 4] {
    covering_input(flow, ts, link, TAG_DECR, token_nop)
}

/// Build the Eq. 4 MAC input for a chain's origin token.
fn origin_input(flow: FlowPair, ts: u32) -> [u8; BASE_LEN] {
    base_input(flow, ts, LinkId::NULL, TAG_ORIGIN)
}

/// Build the Eq. 5 MAC input for one chain entry over the previous token.
fn link_input(flow: FlowPair, ts: u32, entry: (LinkId, Action), prev: Mac32) -> [u8; BASE_LEN + 4] {
    let tag = match entry.1 {
        Action::Incr => TAG_LINK_INCR,
        Action::Decr => TAG_LINK_DECR,
    };
    covering_input(flow, ts, entry.0, tag, prev)
}

/// Compute `token_nop` (Eq. 1) under the access router's secret.
pub fn token_nop(ka: &mut TimeVaryingSecret, now: Nanos, flow: FlowPair, ts: u32) -> Mac32 {
    ka.mac32(now, &nop_input(flow, ts))
}

/// Stamp fresh `nop` feedback (access router, §4.2/§4.3.3).
pub fn stamp_nop(ka: &mut TimeVaryingSecret, now: Nanos, flow: FlowPair) -> Feedback {
    let ts = nanos_to_secs(now);
    Feedback::Nop { ts, token: token_nop(ka, now, flow, ts) }
}

/// Stamp fresh `L↑` feedback (access router, §4.3.3). The feedback carries a
/// freshly computed `token_nop` so a downstream bottleneck can later convert
/// it into `L↓`.
pub fn stamp_incr(
    ka: &mut TimeVaryingSecret,
    now: Nanos,
    flow: FlowPair,
    link: LinkId,
) -> Feedback {
    let ts = nanos_to_secs(now);
    let token = ka.mac32(now, &incr_input(flow, ts, link));
    let tnop = token_nop(ka, now, flow, ts);
    Feedback::Mon { link, action: Action::Incr, ts, token, token_nop: Some(tnop) }
}

/// Stamp `L↓` feedback at a bottleneck router (§4.3.2, §4.4).
///
/// `kai` is the key the bottleneck's AS shares with the sender's AS;
/// `prior` is the feedback currently in the packet (either `nop`, whose MAC
/// *is* the `token_nop`, or `L↑`, which carries a `token_nop` field). The
/// timestamp of the prior feedback is preserved because the access router
/// will re-derive `token_nop` from it during validation.
///
/// Returns `None` when the prior feedback is `L↓` already (rule 2 of §4.3.2:
/// an upstream bottleneck's feedback is never overwritten), when the `L↑`
/// feedback is missing its `token_nop` (malformed), or for a chain (which
/// takes [`stamp_link`] instead).
pub fn stamp_decr(kai: &Cmac, flow: FlowPair, link: LinkId, prior: &Feedback) -> Option<Feedback> {
    let (ts, tnop) = match prior {
        Feedback::Nop { ts, token } => (*ts, *token),
        Feedback::Mon { action: Action::Incr, ts, token_nop, .. } => (*ts, (*token_nop)?),
        Feedback::Mon { action: Action::Decr, .. } | Feedback::Chain { .. } => return None,
    };
    let token = kai.mac32(&decr_input(flow, ts, link, tnop));
    Some(Feedback::Mon { link, action: Action::Decr, ts, token, token_nop: None })
}

/// Stamp the origin of an Appendix B.1 chain (access router, Eq. 4): no
/// entries yet, so it polices like `nop`.
pub fn stamp_origin(ka: &mut TimeVaryingSecret, now: Nanos, flow: FlowPair) -> Feedback {
    let ts = nanos_to_secs(now);
    let token = ka.mac32(now, &origin_input(flow, ts));
    Feedback::Chain { ts, token, links: [LinkId::NULL; CHAIN_CAP], decr: 0, len: 0 }
}

/// Append a bottleneck's `(link, action)` to a chain, extending its MAC
/// (Eq. 5). Always appends, even for a link the chain already names: the
/// access router folds a link's entries into one, `L↓` if any is.
///
/// Returns `None` when `prior` is not a chain or is full.
pub fn stamp_link(
    kai: &Cmac,
    flow: FlowPair,
    entry: (LinkId, Action),
    prior: &Feedback,
) -> Option<Feedback> {
    let Feedback::Chain { ts, token, mut links, mut decr, len } = *prior else { return None };
    let i = usize::from(len);
    *links.get_mut(i)? = entry.0;
    decr |= u8::from(entry.1 == Action::Decr) << i;
    let token = kai.mac32(&link_input(flow, ts, entry, token));
    Some(Feedback::Chain { ts, token, links, decr, len: len + 1 })
}

/// Why feedback validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackError {
    /// The timestamp is more than `w` away from the router's current time.
    Expired,
    /// The MAC does not verify.
    BadMac,
    /// `L↓` feedback (or a chain entry) references a link whose AS key is
    /// unknown.
    UnknownLinkAs,
}

/// Validate feedback presented by a sender at its access router (§4.4,
/// "Validating feedback").
///
/// * `ka` — the access router's own secret (Eq. 1 and Eq. 2).
/// * `kai_for_link` — resolves the bottleneck link's AS pairwise key (the
///   paper uses an IP-to-AS mapping tool for this step) to a reference or a
///   key-store guard. It is called only for unexpired feedback, once per
///   `L↓` link or chain entry.
/// * `w` — feedback expiration window.
pub fn validate<K: Deref<Target = Cmac>>(
    fb: &Feedback,
    ka: &mut TimeVaryingSecret,
    kai_for_link: impl Fn(LinkId) -> Option<K>,
    now: Nanos,
    flow: FlowPair,
    w: Nanos,
) -> Result<(), FeedbackError> {
    if fb.is_expired(now, w) {
        return Err(FeedbackError::Expired);
    }
    match fb {
        Feedback::Nop { ts, token } => {
            if ka.verify32(now, &nop_input(flow, *ts), *token) {
                Ok(())
            } else {
                Err(FeedbackError::BadMac)
            }
        }
        Feedback::Mon { link, action: Action::Incr, ts, token, .. } => {
            if ka.verify32(now, &incr_input(flow, *ts, *link), *token) {
                Ok(())
            } else {
                Err(FeedbackError::BadMac)
            }
        }
        Feedback::Mon { link, action: Action::Decr, ts, token, .. } => {
            // Re-compute token_nop with the access router's own secret, then
            // re-compute the Eq. 3 MAC with the bottleneck AS's shared key.
            // The token_nop may have been stamped under the previous epoch's
            // key, so that candidate is tried too, but only on a mismatch.
            let kai = kai_for_link(*link).ok_or(FeedbackError::UnknownLinkAs)?;
            let nop = nop_input(flow, *ts);
            let verifies = |tnop| kai.verify32(&decr_input(flow, *ts, *link, tnop), *token);
            let ok =
                verifies(ka.mac32(now, &nop)) || ka.mac32_previous(now, &nop).is_some_and(verifies);
            if ok {
                Ok(())
            } else {
                Err(FeedbackError::BadMac)
            }
        }
        Feedback::Chain { ts, token, .. } => {
            // Recompute the chain from its origin, under the current and
            // (only on a mismatch) the previous epoch's `Ka`.
            let origin = origin_input(flow, *ts);
            let verifies = |first| {
                let mut prev = first;
                for entry in fb.chain() {
                    let kai = kai_for_link(entry.0).ok_or(FeedbackError::UnknownLinkAs)?;
                    prev = kai.mac32(&link_input(flow, *ts, entry, prev));
                }
                Ok(prev == *token)
            };
            let ok = verifies(ka.mac32(now, &origin))?
                || match ka.mac32_previous(now, &origin) {
                    Some(first) => verifies(first)?,
                    None => false,
                };
            if ok {
                Ok(())
            } else {
                Err(FeedbackError::BadMac)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::HostId;

    fn setup() -> (TimeVaryingSecret, Cmac, FlowPair) {
        let ka = TimeVaryingSecret::new([3u8; 16]);
        let kai = Cmac::new(&[9u8; 16]);
        let flow = FlowPair::new(HostId(0x0a000001), HostId(0x0a000002));
        (ka, kai, flow)
    }

    /// A chain of three links still fits the 24 bytes `Feedback` had
    /// before it: a header holds two, and a host shim holds several.
    #[test]
    fn feedback_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<Feedback>(), 24);
        assert_eq!(std::mem::size_of::<Option<Feedback>>(), 24);
    }

    #[test]
    fn nop_roundtrip_validates() {
        let (mut ka, kai, flow) = setup();
        let now = 10 * SEC;
        let fb = stamp_nop(&mut ka, now, flow);
        assert!(fb.is_nop());
        assert_eq!(validate(&fb, &mut ka, |_| Some(&kai), now + SEC, flow, 4 * SEC), Ok(()));
    }

    #[test]
    fn incr_roundtrip_validates() {
        let (mut ka, kai, flow) = setup();
        let now = 10 * SEC;
        let link = LinkId(77);
        let fb = stamp_incr(&mut ka, now, flow, link);
        assert!(fb.is_incr());
        assert_eq!(fb.link(), Some(link));
        assert_eq!(validate(&fb, &mut ka, |_| Some(&kai), now, flow, 4 * SEC), Ok(()));
    }

    #[test]
    fn decr_from_nop_roundtrip_validates() {
        let (mut ka, kai, flow) = setup();
        let now = 10 * SEC;
        let link = LinkId(77);
        let nop = stamp_nop(&mut ka, now, flow);
        let decr = stamp_decr(&kai, flow, link, &nop).unwrap();
        assert!(decr.is_decr());
        assert_eq!(decr.ts(), nop.ts());
        assert_eq!(validate(&decr, &mut ka, |_| Some(&kai), now + SEC, flow, 4 * SEC), Ok(()));
    }

    #[test]
    fn decr_from_incr_roundtrip_validates() {
        let (mut ka, kai, flow) = setup();
        let now = 10 * SEC;
        let link = LinkId(123);
        let incr = stamp_incr(&mut ka, now, flow, link);
        let decr = stamp_decr(&kai, flow, link, &incr).unwrap();
        assert_eq!(validate(&decr, &mut ka, |_| Some(&kai), now, flow, 4 * SEC), Ok(()));
        // The token_nop must have been erased.
        match decr {
            Feedback::Mon { token_nop, .. } => assert!(token_nop.is_none()),
            _ => panic!("expected mon feedback"),
        }
    }

    #[test]
    fn decr_never_overwrites_decr() {
        let (mut ka, kai, flow) = setup();
        let nop = stamp_nop(&mut ka, 0, flow);
        let first = stamp_decr(&kai, flow, LinkId(1), &nop).unwrap();
        assert!(stamp_decr(&kai, flow, LinkId(2), &first).is_none());
    }

    #[test]
    fn forged_token_is_rejected() {
        let (mut ka, kai, flow) = setup();
        let now = 10 * SEC;
        let fb = stamp_nop(&mut ka, now, flow);
        let forged = match fb {
            Feedback::Nop { ts, token } => Feedback::Nop { ts, token: token ^ 0xdead },
            _ => unreachable!(),
        };
        assert_eq!(
            validate(&forged, &mut ka, |_| Some(&kai), now, flow, 4 * SEC),
            Err(FeedbackError::BadMac)
        );
    }

    #[test]
    fn feedback_bound_to_flow_pair() {
        // Re-using valid nop feedback on a different connection must fail
        // (the MAC covers src and dst, §4.4).
        let (mut ka, kai, flow) = setup();
        let other = FlowPair::new(HostId(0x0a000001), HostId(0x0a000099));
        let now = 10 * SEC;
        let fb = stamp_nop(&mut ka, now, flow);
        assert_eq!(
            validate(&fb, &mut ka, |_| Some(&kai), now, other, 4 * SEC),
            Err(FeedbackError::BadMac)
        );
    }

    #[test]
    fn expired_feedback_is_rejected() {
        let (mut ka, kai, flow) = setup();
        let fb = stamp_nop(&mut ka, 10 * SEC, flow);
        assert_eq!(
            validate(&fb, &mut ka, |_| Some(&kai), 20 * SEC, flow, 4 * SEC),
            Err(FeedbackError::Expired)
        );
        // Within the window it is fine.
        assert_eq!(validate(&fb, &mut ka, |_| Some(&kai), 13 * SEC, flow, 4 * SEC), Ok(()));
    }

    #[test]
    fn decr_with_wrong_as_key_is_rejected() {
        let (mut ka, kai, flow) = setup();
        let wrong = Cmac::new(&[0x55u8; 16]);
        let nop = stamp_nop(&mut ka, 0, flow);
        let decr = stamp_decr(&kai, flow, LinkId(5), &nop).unwrap();
        assert_eq!(
            validate(&decr, &mut ka, |_| Some(&wrong), SEC, flow, 4 * SEC),
            Err(FeedbackError::BadMac)
        );
        assert_eq!(
            validate(&decr, &mut ka, |_| None::<&Cmac>, SEC, flow, 4 * SEC),
            Err(FeedbackError::UnknownLinkAs)
        );
    }

    #[test]
    fn malicious_router_cannot_rebuild_decr_without_token_nop() {
        // A downstream router that wants to replace an upstream L↓ with its
        // own link id would need the original token_nop, which was erased.
        let (mut ka, kai, flow) = setup();
        let nop = stamp_nop(&mut ka, 0, flow);
        let upstream = stamp_decr(&kai, flow, LinkId(1), &nop).unwrap();
        // The attacker guesses a token_nop value of 0.
        let forged_input = super::decr_input(flow, upstream.ts(), LinkId(2), 0);
        let forged = Feedback::Mon {
            link: LinkId(2),
            action: Action::Decr,
            ts: upstream.ts(),
            token: kai.mac32(&forged_input),
            token_nop: None,
        };
        assert_eq!(
            validate(&forged, &mut ka, |_| Some(&kai), SEC, flow, 4 * SEC),
            Err(FeedbackError::BadMac)
        );
    }

    proptest::proptest! {
        /// No single-bit corruption of the token survives validation.
        #[test]
        fn token_bit_flips_rejected(bit in 0u32..32) {
            let (mut ka, kai, flow) = setup();
            let now = 5 * SEC;
            let fb = stamp_incr(&mut ka, now, flow, LinkId(42));
            let forged = match fb {
                Feedback::Mon { link, action, ts, token, token_nop } =>
                    Feedback::Mon { link, action, ts, token: token ^ (1 << bit), token_nop },
                _ => unreachable!(),
            };
            proptest::prop_assert_eq!(
                validate(&forged, &mut ka, |_| Some(&kai), now, flow, 4 * SEC),
                Err(FeedbackError::BadMac)
            );
        }

        /// Expiration is symmetric around the stamping time and exact at the
        /// window edge.
        #[test]
        fn expiry_window(offset_s in 0u64..20) {
            let fb = Feedback::Nop { ts: 10, token: 0 };
            let now = (10 + offset_s) * SEC;
            let expired = fb.is_expired(now, 4 * SEC);
            proptest::prop_assert_eq!(expired, offset_s > 4);
        }
    }
}
