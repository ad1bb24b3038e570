//! The NetFence shim header wire format (Figure 6 of the paper).
//!
//! The header sits between IP and the upper-layer protocol. It carries two
//! pieces of congestion policing feedback:
//!
//! * the **presented** (forward) feedback — what the sender presents to its
//!   access router, which the access router validates, uses for policing,
//!   and then rewrites (`nop` → refreshed `nop`, `L↑`/`L↓` → fresh `L↑`),
//!   and which a bottleneck router in the `mon` state may overwrite with
//!   `L↓` (§4.3.2–4.3.3);
//! * the optional **echoed** (return) feedback — the latest feedback this
//!   packet's sender observed as the *receiver* of the reverse direction,
//!   piggybacked so the remote endpoint can present it to its own access
//!   router (§3.1 step 4, §6.1).
//!
//! To save space the echoed feedback carries only the two low bits of its
//! timestamp; the remote access router reconstructs the full timestamp under
//! the assumption that it is less than four seconds old (§6.1).
//!
//! Sizes match the paper's accounting: 12 bytes with `nop` forward feedback
//! and no return header, 20 bytes with `mon` forward feedback (worst-case
//! forward), and 28 bytes in the worst case of `mon` feedback in both
//! directions. The paper quotes "20 bytes in the common case" for nop/nop;
//! with the `LINK-ID_return` omission the same case encodes to 16 bytes
//! here, and [`NetFenceHeader::nominal_len`] reports the paper's
//! conservative figure for overhead accounting.
//!
//! An Appendix B.1 chain of `n` entries takes `12 + 5·n` bytes forward (the
//! common 8, its token, then each entry's link and action byte) and
//! `4 + 5·n` echoed: the "longer and variable-length header" §4.3.5 names
//! as the cost of multi-bottleneck feedback.
//!
//! Layout: byte 0 is `VER << 4` and the type bits (`0b1000` request,
//! `0b0100` forward `mon`, `0b0010` forward chain, `0b0001` echo); byte 3
//! holds the flags (`0x80` forward `L↓`, `0x40` echo `L↓`, `0x20` echo
//! `mon`, `0x10` echo chain, `0x0c` forward chain length, `0x03` echo
//! timestamp). An echoed chain's length sits in the two echo `mon` / `L↓`
//! bits it has no use for.

use netfence_crypto::Mac32;

use crate::feedback::{Action, Feedback, CHAIN_CAP};
use crate::types::LinkId;

/// Protocol version encoded in the VER field.
pub const VERSION: u8 = 1;

/// Wire length of the Passport header \[26\] that sits between IP and the
/// NetFence header. This is only the 24 bytes of §4.6's 92-byte request
/// packet estimate: no simulated packet signs or verifies a Passport MAC.
pub const PASSPORT_HEADER_LEN: usize = 24;

/// The NetFence packet type: request or regular (§3.1). Legacy packets do
/// not carry a NetFence header at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A request packet: sent when the sender holds no valid feedback, rate
    /// limited per-sender by priority level (§4.2).
    Request,
    /// A regular packet: carries valid congestion policing feedback.
    Regular,
}

/// A fully-parsed NetFence header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFenceHeader {
    /// Request or regular packet.
    pub kind: PacketKind,
    /// Upper-layer protocol number (e.g. 6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Request packet priority level (0 = lowest priority, not rate
    /// limited; level k is forwarded with higher priority but costs
    /// 2^(k−1) rate-limiter tokens).
    pub priority: u8,
    /// The presented / forward-path congestion policing feedback.
    pub presented: Feedback,
    /// The echoed feedback for the reverse direction, if any.
    pub echoed: Option<Feedback>,
}

/// Errors from [`NetFenceHeader::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The buffer is shorter than the encoded header claims.
    Truncated,
    /// Unknown protocol version.
    BadVersion(u8),
}

impl NetFenceHeader {
    /// Construct a request header with the given priority carrying fresh
    /// `nop`-less state (the access router will stamp feedback into it).
    pub fn request(proto: u8, priority: u8, presented: Feedback) -> Self {
        NetFenceHeader { kind: PacketKind::Request, proto, priority, presented, echoed: None }
    }

    /// Construct a regular header presenting `presented` feedback.
    pub fn regular(proto: u8, presented: Feedback, echoed: Option<Feedback>) -> Self {
        NetFenceHeader { kind: PacketKind::Regular, proto, priority: 0, presented, echoed }
    }

    /// Exact encoded length in bytes of this header.
    pub fn encoded_len(&self) -> usize {
        let ret = match &self.echoed {
            None => 0,
            Some(Feedback::Nop { .. }) => 4,
            Some(Feedback::Mon { .. }) => 8,
            Some(e @ Feedback::Chain { .. }) => 4 + 5 * e.chain().count(),
        };
        forward_len(&self.presented) + ret
    }

    /// The header length used for overhead accounting in the simulator:
    /// matches the figures quoted in §6.1 of the paper (20 bytes common
    /// case, 28 bytes worst case) by always counting a full 8-byte return
    /// header when echoed feedback is present (more for a longer chain).
    pub fn nominal_len(&self) -> usize {
        let ret = match &self.echoed {
            None => 0,
            Some(Feedback::Nop { .. } | Feedback::Mon { .. }) => 8,
            Some(e @ Feedback::Chain { .. }) => (4 + 5 * e.chain().count()).max(8),
        };
        forward_len(&self.presented) + ret
    }

    /// Encode the header to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        let mut type_bits = 0u8;
        if self.kind == PacketKind::Request {
            type_bits |= 0b1000;
        }
        match self.presented {
            Feedback::Nop { .. } => {}
            Feedback::Mon { .. } => type_bits |= 0b0100,
            Feedback::Chain { .. } => type_bits |= 0b0010,
        }
        if self.echoed.is_some() {
            type_bits |= 0b0001;
        }
        buf.push((VERSION << 4) | type_bits);
        buf.push(self.proto);
        buf.push(self.priority);

        let mut flags = 0u8;
        match &self.presented {
            Feedback::Nop { .. } => {}
            Feedback::Mon { action, .. } => flags |= u8::from(*action == Action::Decr) << 7,
            fb @ Feedback::Chain { .. } => flags |= (fb.chain().count() as u8) << 2,
        }
        if let Some(e) = &self.echoed {
            match e {
                Feedback::Nop { .. } => {}
                Feedback::Mon { action, .. } => {
                    flags |= 0b0010_0000 | u8::from(*action == Action::Decr) << 6;
                }
                Feedback::Chain { .. } => flags |= 0b0001_0000 | (e.chain().count() as u8) << 5,
            }
            flags |= (e.ts() & 0b11) as u8;
        }
        buf.push(flags);

        buf.extend_from_slice(&self.presented.ts().to_be_bytes());
        match self.presented {
            Feedback::Nop { token, .. } => buf.extend_from_slice(&token.to_be_bytes()),
            Feedback::Mon { link, token, token_nop, .. } => {
                buf.extend_from_slice(&link.0.to_be_bytes());
                buf.extend_from_slice(&token_nop.unwrap_or(0).to_be_bytes());
                buf.extend_from_slice(&token.to_be_bytes());
            }
            Feedback::Chain { token, .. } => encode_chain(&mut buf, token, &self.presented),
        }
        if let Some(e) = &self.echoed {
            match *e {
                Feedback::Nop { token, .. } => buf.extend_from_slice(&token.to_be_bytes()),
                Feedback::Mon { link, token, .. } => {
                    buf.extend_from_slice(&token.to_be_bytes());
                    buf.extend_from_slice(&link.0.to_be_bytes());
                }
                Feedback::Chain { token, .. } => encode_chain(&mut buf, token, e),
            }
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }

    /// Decode a header from bytes.
    ///
    /// `now_secs` is the decoder's current time in seconds, used to
    /// reconstruct the echoed feedback's full timestamp from its two low
    /// bits ("assuming that the timestamp is less than four seconds older
    /// than its current time", §6.1).
    ///
    /// Returns the header and the number of bytes consumed.
    pub fn decode(buf: &[u8], now_secs: u32) -> Result<(Self, usize), HeaderError> {
        if buf.len() < 8 {
            return Err(HeaderError::Truncated);
        }
        let ver = buf[0] >> 4;
        if ver != VERSION {
            return Err(HeaderError::BadVersion(ver));
        }
        let type_bits = buf[0] & 0x0f;
        let kind = if type_bits & 0b1000 != 0 { PacketKind::Request } else { PacketKind::Regular };
        let fwd_mon = type_bits & 0b0100 != 0;
        let fwd_chain = type_bits & 0b0010 != 0;
        let has_echo = type_bits & 0b0001 != 0;
        let proto = buf[1];
        let priority = buf[2];
        let flags = buf[3];
        let fwd_decr = flags & 0b1000_0000 != 0;
        let echo_decr = flags & 0b0100_0000 != 0;
        let echo_mon = flags & 0b0010_0000 != 0;
        let echo_chain = flags & 0b0001_0000 != 0;
        let echo_ts_low = (flags & 0b11) as u32;
        let ts = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);

        let mut off = 8;
        let read_u32 = |buf: &[u8], off: usize| -> Result<u32, HeaderError> {
            buf.get(off..off + 4)
                .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
                .ok_or(HeaderError::Truncated)
        };

        let presented = if fwd_chain {
            decode_chain(buf, &mut off, ts, flags >> 2 & 0b11)?
        } else if fwd_mon {
            let link = LinkId(read_u32(buf, off)?);
            let token_nop = read_u32(buf, off + 4)?;
            let token = read_u32(buf, off + 8)?;
            off += 12;
            Feedback::Mon {
                link,
                action: if fwd_decr { Action::Decr } else { Action::Incr },
                ts,
                token,
                token_nop: if token_nop == 0 { None } else { Some(token_nop) },
            }
        } else {
            let token = read_u32(buf, off)?;
            off += 4;
            Feedback::Nop { ts, token }
        };

        let echoed = if has_echo {
            let ets = reconstruct_ts(now_secs, echo_ts_low);
            Some(if echo_chain {
                decode_chain(buf, &mut off, ets, flags >> 5 & 0b11)?
            } else {
                let token: Mac32 = read_u32(buf, off)?;
                off += 4;
                if echo_mon {
                    let link = LinkId(read_u32(buf, off)?);
                    off += 4;
                    Feedback::Mon {
                        link,
                        action: if echo_decr { Action::Decr } else { Action::Incr },
                        ts: ets,
                        token,
                        token_nop: None,
                    }
                } else {
                    Feedback::Nop { ts: ets, token }
                }
            })
        } else {
            None
        };

        Ok((NetFenceHeader { kind, proto, priority, presented, echoed }, off))
    }
}

/// Encoded length of the forward feedback, the 8 common bytes included.
fn forward_len(fb: &Feedback) -> usize {
    match fb {
        Feedback::Nop { .. } => 12,
        Feedback::Mon { .. } => 20,
        Feedback::Chain { .. } => 12 + 5 * fb.chain().count(),
    }
}

/// Append a chain's token, then each entry's link and action byte.
fn encode_chain(buf: &mut Vec<u8>, token: Mac32, chain: &Feedback) {
    buf.extend_from_slice(&token.to_be_bytes());
    for (link, action) in chain.chain() {
        buf.extend_from_slice(&link.0.to_be_bytes());
        buf.push(u8::from(action == Action::Decr));
    }
}

/// Read a chain of `len` entries stamped at `ts` from `buf` at `*off`.
/// Any nonzero action byte reads as `L↓`.
fn decode_chain(buf: &[u8], off: &mut usize, ts: u32, len: u8) -> Result<Feedback, HeaderError> {
    let end = *off + 4 + 5 * usize::from(len);
    let bytes = buf.get(*off..end).ok_or(HeaderError::Truncated)?;
    *off = end;
    let (token, entries) = bytes.split_at(4);
    let mut links = [LinkId::NULL; CHAIN_CAP];
    let mut decr = 0;
    for (i, (entry, slot)) in entries.chunks_exact(5).zip(&mut links).enumerate() {
        *slot = LinkId(u32::from_be_bytes([entry[0], entry[1], entry[2], entry[3]]));
        decr |= u8::from(entry[4] != 0) << i;
    }
    let token = u32::from_be_bytes([token[0], token[1], token[2], token[3]]);
    Ok(Feedback::Chain { ts, token, links, decr, len })
}

/// Reconstruct a full timestamp from its two low bits, assuming it is at
/// most 3 seconds older than `now_secs`.
fn reconstruct_ts(now_secs: u32, low2: u32) -> u32 {
    for age in 0..4u32 {
        let candidate = now_secs.wrapping_sub(age);
        if candidate & 0b11 == low2 {
            return candidate;
        }
    }
    unreachable!("one of four consecutive values must match any 2-bit residue")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop(ts: u32) -> Feedback {
        Feedback::Nop { ts, token: 0xaabbccdd }
    }
    fn incr(ts: u32, link: u32) -> Feedback {
        Feedback::Mon {
            link: LinkId(link),
            action: Action::Incr,
            ts,
            token: 0x11223344,
            token_nop: Some(0x55667788),
        }
    }
    fn decr(ts: u32, link: u32) -> Feedback {
        Feedback::Mon {
            link: LinkId(link),
            action: Action::Decr,
            ts,
            token: 0x99aabbcc,
            token_nop: None,
        }
    }

    #[test]
    fn sizes_match_paper() {
        // Worst case: mon feedback on both paths = 28 bytes (§6.1).
        let worst = NetFenceHeader::regular(6, decr(100, 7), Some(incr(100, 9)));
        assert_eq!(worst.encoded_len(), 28);
        assert_eq!(worst.nominal_len(), 28);
        // Common case quoted in the paper: nop on both paths = 20 bytes
        // nominal (16 bytes with the LINK-ID_return omission).
        let common = NetFenceHeader::regular(6, nop(100), Some(nop(100)));
        assert_eq!(common.nominal_len(), 20);
        assert_eq!(common.encoded_len(), 16);
        // A bare request packet before any feedback is returned: 12 bytes.
        let req = NetFenceHeader::request(17, 3, nop(100));
        assert_eq!(req.encoded_len(), 12);
    }

    #[test]
    fn request_packet_size_estimate() {
        // §4.6 estimates a 92-byte request packet: 40 B TCP/IP + 28 B
        // NetFence + 24 B Passport. The 28 B case is a full mon/mon header.
        let h = NetFenceHeader::regular(6, decr(1, 2), Some(decr(1, 3)));
        assert_eq!(40 + h.encoded_len() + PASSPORT_HEADER_LEN, 92);
    }

    /// Echoed feedback never carries `token_nop` on the wire: the token only
    /// matters between the access router and the bottleneck on the forward
    /// path. This helper builds the echoed-side mon/incr fixture.
    fn incr_echo(ts: u32, link: u32) -> Feedback {
        Feedback::Mon {
            link: LinkId(link),
            action: Action::Incr,
            ts,
            token: 0x11223344,
            token_nop: None,
        }
    }

    #[test]
    fn roundtrip_all_shapes() {
        let now = 1000;
        let shapes = vec![
            NetFenceHeader::request(17, 5, nop(now)),
            NetFenceHeader::regular(6, nop(now), None),
            NetFenceHeader::regular(6, nop(now), Some(nop(now - 2))),
            NetFenceHeader::regular(6, incr(now, 42), Some(decr(now - 1, 77))),
            NetFenceHeader::regular(17, decr(now, 42), Some(incr_echo(now - 3, 77))),
            NetFenceHeader::regular(6, incr(now, 1), None),
        ];
        for h in shapes {
            let bytes = h.encode();
            assert_eq!(bytes.len(), h.encoded_len());
            let (decoded, used) = NetFenceHeader::decode(&bytes, now).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, h, "round trip failed for {h:?}");
        }
    }

    /// A chain of `n` entries, each link `100 + i`, `L↓` at odd `i`.
    fn chain(ts: u32, n: u8) -> Feedback {
        let mut links = [LinkId::NULL; CHAIN_CAP];
        for (i, link) in links.iter_mut().take(n.into()).enumerate() {
            *link = LinkId(100 + i as u32);
        }
        Feedback::Chain { ts, token: 0x0bad_cafe, links, decr: 0b010 & ((1 << n) - 1), len: n }
    }

    /// A forward chain takes `12 + 5·n` bytes; every length from empty to
    /// full round-trips forward and echoed.
    #[test]
    fn chains_of_0_to_3_entries_roundtrip() {
        let now = 1000;
        for n in 0..=CHAIN_CAP as u8 {
            let fwd = NetFenceHeader::regular(6, chain(now, n), None);
            assert_eq!(fwd.encoded_len(), 12 + 5 * usize::from(n));
            assert_eq!(fwd.nominal_len(), fwd.encoded_len());
            let both = NetFenceHeader::regular(17, chain(now, n), Some(chain(now - 3, 3 - n)));
            let echoed = NetFenceHeader {
                echoed: Some(chain(now - 1, n)),
                ..NetFenceHeader::request(6, 4, nop(now))
            };
            for h in [fwd, both, echoed] {
                let bytes = h.encode();
                assert_eq!(bytes.len(), h.encoded_len());
                assert_eq!(NetFenceHeader::decode(&bytes, now), Ok((h.clone(), bytes.len())));
            }
        }
    }

    #[test]
    fn echoed_timestamp_reconstruction() {
        for age in 0..4u32 {
            let now = 123_456;
            let ts = now - age;
            let h = NetFenceHeader::regular(6, nop(now), Some(nop(ts)));
            let (decoded, _) = NetFenceHeader::decode(&h.encode(), now).unwrap();
            assert_eq!(decoded.echoed.unwrap().ts(), ts);
        }
    }

    #[test]
    fn truncated_and_bad_version_rejected() {
        let h = NetFenceHeader::regular(6, incr(9, 3), Some(incr(9, 4)));
        let bytes = h.encode();
        for len in 0..bytes.len() {
            assert_eq!(
                NetFenceHeader::decode(&bytes[..len], 9),
                Err(HeaderError::Truncated),
                "length {len} should be truncated"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = 0xf0 | (bad[0] & 0x0f);
        assert_eq!(NetFenceHeader::decode(&bad, 9), Err(HeaderError::BadVersion(0xf)));
    }

    proptest::proptest! {
        #[test]
        fn roundtrip_arbitrary(kind_req in proptest::prelude::any::<bool>(),
                               proto in proptest::prelude::any::<u8>(),
                               prio in 0u8..16,
                               fwd_mon in proptest::prelude::any::<bool>(),
                               fwd_decr in proptest::prelude::any::<bool>(),
                               link in 1u32..,
                               token in proptest::prelude::any::<u32>(),
                               tnop in 1u32..,
                               ts in 4u32..1_000_000,
                               echo in 0usize..3,
                               echo_age in 0u32..4) {
            let presented = if fwd_mon {
                Feedback::Mon {
                    link: LinkId(link),
                    action: if fwd_decr { Action::Decr } else { Action::Incr },
                    ts, token,
                    token_nop: if fwd_decr { None } else { Some(tnop) },
                }
            } else {
                Feedback::Nop { ts, token }
            };
            let echoed = match echo {
                0 => None,
                1 => Some(Feedback::Nop { ts: ts - echo_age, token }),
                _ => Some(Feedback::Mon {
                    link: LinkId(link), action: Action::Decr, ts: ts - echo_age,
                    token, token_nop: None }),
            };
            let h = NetFenceHeader {
                kind: if kind_req { PacketKind::Request } else { PacketKind::Regular },
                proto, priority: prio, presented, echoed,
            };
            let bytes = h.encode();
            proptest::prop_assert!(bytes.len() <= 28);
            let (decoded, used) = NetFenceHeader::decode(&bytes, ts).unwrap();
            proptest::prop_assert_eq!(used, bytes.len());
            proptest::prop_assert_eq!(decoded, h);
        }

        /// `decode` is total on arbitrary bytes: it never panics, reports
        /// `Truncated` exactly when the buffer is shorter than the header
        /// its first and flags bytes claim, and whatever it accepts
        /// re-encodes to a header that decodes back to itself.
        #[test]
        fn decode_is_total(mut buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..50),
                           force_v1 in proptest::prelude::any::<bool>(),
                           chains in 0u8..4,
                           now_secs in proptest::prelude::any::<u32>()) {
            // Half the cases get version 1, so most reach the body parser.
            if force_v1 && !buf.is_empty() {
                buf[0] = (VERSION << 4) | (buf[0] & 0x0f);
            }
            // Half of those carry a forward or an echoed chain (or both).
            if force_v1 && buf.len() > 3 {
                buf[0] |= (chains & 1) << 1;
                buf[3] |= (chains & 2) << 3;
            }
            let got = NetFenceHeader::decode(&buf, now_secs);
            if buf.len() < 8 {
                proptest::prop_assert_eq!(got, Err(HeaderError::Truncated));
                return;
            }
            if buf[0] >> 4 != VERSION {
                proptest::prop_assert_eq!(got, Err(HeaderError::BadVersion(buf[0] >> 4)));
                return;
            }
            let (fwd_mon, fwd_chain, has_echo) =
                (buf[0] & 0b0100 != 0, buf[0] & 0b0010 != 0, buf[0] & 0b0001 != 0);
            let (echo_mon, echo_chain) = (buf[3] & 0b0010_0000 != 0, buf[3] & 0b0001_0000 != 0);
            let (fwd_n, echo_n) = (usize::from(buf[3] >> 2 & 3), usize::from(buf[3] >> 5 & 3));
            let fwd = match (fwd_chain, fwd_mon) {
                (true, _) => 4 + 5 * fwd_n,
                (false, true) => 12,
                (false, false) => 4,
            };
            let echo = match (has_echo, echo_chain, echo_mon) {
                (false, ..) => 0,
                (true, true, _) => 4 + 5 * echo_n,
                (true, false, true) => 8,
                (true, false, false) => 4,
            };
            let claimed = 8 + fwd + echo;
            if buf.len() < claimed {
                proptest::prop_assert_eq!(got, Err(HeaderError::Truncated));
                return;
            }
            let (h, used) = got.unwrap();
            proptest::prop_assert_eq!(used, claimed);
            proptest::prop_assert_eq!(used, h.encoded_len());
            proptest::prop_assert_eq!(NetFenceHeader::decode(&h.encode(), now_secs), Ok((h, used)));
        }
    }
}
