//! The MAC path end to end, through the `netfence` facade: the published
//! AES-128 / AES-CMAC vectors, the table-driven cipher against a textbook
//! byte-wise oracle, the adversarial properties of Eq. 1–3 feedback
//! (§4.4) — what a sender, a colluding receiver or a downstream router can
//! do to a token and still have it validate: nothing — and the dense
//! pairwise-key store against a `PolicyStore` model of its key lifecycle.

use netfence::core::feedback::{
    stamp_decr, stamp_incr, stamp_link, stamp_nop, stamp_origin, validate, CHAIN_CAP,
};
use netfence::core::prelude::*;
use netfence::crypto::secret::DEFAULT_ROTATION_PERIOD;
use netfence::crypto::{
    Aes128, AsKeyAgent, AsKeyTable, AsNumber, Cmac, Install, TimeVaryingSecret,
};
use netfence::ctrl::policy::{PolicyStats, PolicyStore};
use proptest::proptest;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::rc::Rc;

fn hex<const N: usize>(s: &str) -> [u8; N] {
    let s: String = s.split_whitespace().collect();
    assert_eq!(s.len(), 2 * N, "hex literal length");
    std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit"))
}

// ---------------------------------------------------------------- vectors

/// The key of FIPS-197 Appendices A.1 and B and of every RFC 4493 example.
const KEY: &str = "2b7e1516 28aed2a6 abf71588 09cf4f3c";

#[test]
fn fips197_a1_key_schedule() {
    #[rustfmt::skip]
    let expected: [u32; 44] = [
        0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c, 0xa0fafe17, 0x88542cb1, 0x23a33939, 0x2a6c7605,
        0xf2c295f2, 0x7a96b943, 0x5935807a, 0x7359f67f, 0x3d80477d, 0x4716fe3e, 0x1e237e44, 0x6d7a883b,
        0xef44a541, 0xa8525b7f, 0xb671253b, 0xdb0bad00, 0xd4d1c6f8, 0x7c839d87, 0xcaf2b8bc, 0x11f915bc,
        0x6d88a37a, 0x110b3efd, 0xdbf98641, 0xca0093fd, 0x4e54f70e, 0x5f5fc9f3, 0x84a64fb2, 0x4ea6dc4f,
        0xead27321, 0xb58dbad2, 0x312bf560, 0x7f8d292f, 0xac7766f3, 0x19fadc21, 0x28d12941, 0x575c006e,
        0xd014f9a8, 0xc9ee2589, 0xe13f0cc8, 0xb6630ca6,
    ];
    assert_eq!(Aes128::new(&hex(KEY)).round_keys(), &expected);
}

#[test]
fn fips197_b_and_c1_blocks() {
    let b = Aes128::new(&hex(KEY));
    assert_eq!(
        b.encrypt(&hex("3243f6a8 885a308d 313198a2 e0370734")),
        hex("3925841d 02dc09fb dc118597 196a0b32")
    );
    let c1 = Aes128::new(&hex("00010203 04050607 08090a0b 0c0d0e0f"));
    assert_eq!(
        c1.encrypt(&hex("00112233 44556677 8899aabb ccddeeff")),
        hex("69c4e0d8 6a7b0430 d8cdb780 70b4c55a")
    );
}

#[test]
fn rfc4493_examples_1_to_4() {
    let msg: [u8; 64] =
        hex("6bc1bee2 2e409f96 e93d7e11 7393172a ae2d8a57 1e03ac9c 9eb76fac 45af8e51
         30c81c46 a35ce411 e5fbc119 1a0a52ef f69f2445 df4f9b17 ad2b417b e66c3710");
    let cmac = Cmac::new(&hex(KEY));
    for (len, tag) in [
        (0, "bb1d6929 e9593728 7fa37d12 9b756746"),
        (16, "070a16b4 6b4d4144 f79bdd9d d04a287c"),
        (40, "dfa66747 de9ae630 30ca3261 1497c827"),
        (64, "51f0bebf 7e3b9d92 fc497417 79363cfe"),
    ] {
        assert_eq!(cmac.tag(&msg[..len]), hex(tag), "RFC 4493 example, {len}-byte message");
    }
}

/// The whitening cipher's schedule is expanded at compile time; the keys it
/// derives are the ones the per-call run-time expansion derived (value
/// recorded from the last commit that expanded per call).
#[test]
fn pairwise_keys_are_unchanged_by_the_const_whitening_schedule() {
    let a = AsKeyAgent::new(100, 0xdead_beef_cafe);
    let b = AsKeyAgent::new(200, 0x1234_5678_9abc);
    let key = a.shared_key(b.asn(), b.public_value());
    assert_eq!(key, b.shared_key(a.asn(), a.public_value()));
    assert_eq!(key, hex("2c9b13dd 80d2bda8 ba2242f9 6cf419c3"));
}

// ----------------------------------------------------------------- oracle

/// Textbook AES-128 (FIPS-197 §5.1–5.2), one byte at a time on the
/// column-major state: the implementation `netfence-crypto` used before its
/// table-driven rounds, kept as the reference those rounds are checked
/// against. Its S-box is computed from the definition (inverse in GF(2^8),
/// then the affine map), so it shares no table with the library either.
mod oracle {
    fn xtime(a: u8) -> u8 {
        (a << 1) ^ ((a >> 7) * 0x1b)
    }

    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0;
        while b != 0 {
            if b & 1 == 1 {
                p ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        p
    }

    fn sbox(x: u8) -> u8 {
        // x^254 is the multiplicative inverse (and maps 0 to 0).
        let inv = (0..253).fold(x, |acc, _| gf_mul(acc, x));
        (0..5).fold(0x63, |acc, r| acc ^ inv.rotate_left(r))
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = sbox(*b);
        }
    }

    /// Byte `state[4*c + r]` is row `r`, column `c`; row `r` rotates left by
    /// `r` columns.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for col in state.chunks_exact_mut(4) {
            let [a, b, c, d] = [col[0], col[1], col[2], col[3]];
            let t = a ^ b ^ c ^ d;
            col[0] = a ^ t ^ xtime(a ^ b);
            col[1] = b ^ t ^ xtime(b ^ c);
            col[2] = c ^ t ^ xtime(c ^ d);
            col[3] = d ^ t ^ xtime(d ^ a);
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[[u8; 4]]) {
        for (s, k) in state.iter_mut().zip(rk.iter().flatten()) {
            *s ^= k;
        }
    }

    fn expand(key: &[u8; 16]) -> [[u8; 4]; 44] {
        let mut w = [[0u8; 4]; 44];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                temp = temp.map(sbox);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        w
    }

    pub fn encrypt(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let w = expand(key);
        let mut state = *block;
        add_round_key(&mut state, &w[0..4]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &w[4 * round..4 * round + 4]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &w[40..44]);
        state
    }
}

#[test]
fn the_oracle_itself_passes_fips197_c1() {
    assert_eq!(
        oracle::encrypt(
            &hex("00010203 04050607 08090a0b 0c0d0e0f"),
            &hex("00112233 44556677 8899aabb ccddeeff")
        ),
        hex("69c4e0d8 6a7b0430 d8cdb780 70b4c55a")
    );
}

// --------------------------------------------------------------- feedback

const W: Nanos = 4 * SEC;
const KA_ROOT: [u8; 16] = [3; 16];
const KAI_KEY: [u8; 16] = [9; 16];

/// One of each kind of feedback for `flow`, stamped at `now` the way the
/// access router and a bottleneck on `link` would; the chain names `link`
/// (`L↓`), then the link after it (`L↑`).
fn stamped(now: Nanos, flow: FlowPair, link: LinkId) -> [Feedback; 4] {
    let mut ka = TimeVaryingSecret::new(KA_ROOT);
    let kai = Cmac::new(&KAI_KEY);
    let nop = stamp_nop(&mut ka, now, flow);
    let incr = stamp_incr(&mut ka, now, flow, link);
    let decr = stamp_decr(&kai, flow, link, &nop).expect("nop converts to L-down");
    let origin = stamp_origin(&mut ka, now, flow);
    let chain = stamp_link(&kai, flow, (link, Action::Decr), &origin)
        .and_then(|c| stamp_link(&kai, flow, (LinkId(link.0.wrapping_add(1)), Action::Incr), &c))
        .expect("an empty chain takes two entries");
    [nop, incr, decr, chain]
}

/// Validate at the access router that holds `KA_ROOT` and shares `KAI_KEY`
/// with every link's AS.
fn check(fb: &Feedback, now: Nanos, flow: FlowPair) -> Result<(), FeedbackError> {
    let kai = Cmac::new(&KAI_KEY);
    validate(fb, &mut TimeVaryingSecret::new(KA_ROOT), |_| Some(&kai), now, flow, W)
}

/// `fb` with bit `bit` of field `field` (0 ts, 1 token, 2 link — a chain's
/// first) flipped; `nop` feedback has no link field, so there the link flip
/// is a ts flip.
fn flip(fb: Feedback, field: u8, bit: u32) -> Feedback {
    let m = 1u32 << bit;
    match (fb, field) {
        (Feedback::Nop { ts, token }, 1) => Feedback::Nop { ts, token: token ^ m },
        (Feedback::Nop { ts, token }, _) => Feedback::Nop { ts: ts ^ m, token },
        (Feedback::Mon { link, action, ts, token, token_nop }, f) => Feedback::Mon {
            link: if f == 2 { LinkId(link.0 ^ m) } else { link },
            action,
            ts: if f == 0 { ts ^ m } else { ts },
            token: if f == 1 { token ^ m } else { token },
            token_nop,
        },
        (Feedback::Chain { ts, token, mut links, decr, len }, f) => {
            links[0].0 ^= if f == 2 { m } else { 0 };
            Feedback::Chain {
                ts: if f == 0 { ts ^ m } else { ts },
                token: if f == 1 { token ^ m } else { token },
                links,
                decr,
                len,
            }
        }
    }
}

proptest! {
    /// The table-driven cipher and the byte-wise textbook one agree on every
    /// (key, block).
    #[test]
    fn aes_matches_the_textbook_oracle(key: [u8; 16], block: [u8; 16]) {
        assert_eq!(Aes128::new(&key).encrypt(&block), oracle::encrypt(&key, &block));
    }

    /// What was stamped validates, and the equations are domain separated:
    /// for one (flow, ts, link, key) the Eq. 1 and Eq. 2 tokens differ, and
    /// a token of one kind presented as another kind (`nop` as an empty
    /// chain too), for another link, or for the reversed flow never
    /// validates.
    #[test]
    fn tokens_are_bound_to_their_equation_link_and_flow(
        src: u32, dst: u32, link in 1u32.., other_link in 1u32.., secs in 0u64..300,
    ) {
        proptest::prop_assume!(src != dst && link != other_link);
        let (now, flow, link) = (secs * SEC, FlowPair::new(HostId(src), HostId(dst)), LinkId(link));
        let [nop, incr, decr, chain] = stamped(now, flow, link);
        for fb in [nop, incr, decr, chain] {
            assert_eq!(check(&fb, now, flow), Ok(()));
            assert!(check(&fb, now, flow.reversed()).is_err(), "{fb:?} for the swapped flow");
        }
        let (Feedback::Nop { ts, token: t_nop }, Feedback::Mon { token: t_incr, .. }) = (nop, incr)
        else { unreachable!() };
        assert_ne!(t_nop, t_incr, "Eq. 1 and Eq. 2 tokens");
        for action in [Action::Incr, Action::Decr] {
            for l in [link, LinkId::NULL] {
                let as_mon = Feedback::Mon { link: l, action, ts, token: t_nop, token_nop: Some(t_nop) };
                assert_eq!(check(&as_mon, now, flow), Err(FeedbackError::BadMac));
            }
        }
        assert_eq!(
            check(&Feedback::Nop { ts, token: t_incr }, now, flow),
            Err(FeedbackError::BadMac)
        );
        let as_origin =
            Feedback::Chain { ts, token: t_nop, links: [LinkId::NULL; CHAIN_CAP], decr: 0, len: 0 };
        assert_eq!(check(&as_origin, now, flow), Err(FeedbackError::BadMac));
        for fb in [incr, decr] {
            let Feedback::Mon { action, ts, token, token_nop, .. } = fb else { unreachable!() };
            let moved = Feedback::Mon { link: LinkId(other_link), action, ts, token, token_nop };
            assert_eq!(check(&moved, now, flow), Err(FeedbackError::BadMac));
        }
    }

    /// Any single-bit flip of src, dst, ts, link or token yields `Err`.
    #[test]
    fn single_bit_flips_never_validate(
        src: u32, dst: u32, link in 1u32.., secs in 0u64..300, bit in 0u32..32,
    ) {
        let (now, flow, link) = (secs * SEC, FlowPair::new(HostId(src), HostId(dst)), LinkId(link));
        let m = 1u32 << bit;
        for fb in stamped(now, flow, link) {
            for field in 0..3 {
                let forged = flip(fb, field, bit);
                assert!(check(&forged, now, flow).is_err(), "{forged:?} from {fb:?}");
            }
            for other in [
                FlowPair::new(HostId(src ^ m), HostId(dst)),
                FlowPair::new(HostId(src), HostId(dst ^ m)),
            ] {
                assert_eq!(check(&fb, now, other), Err(FeedbackError::BadMac));
            }
        }
    }

    /// Feedback validates only under the `Ka` root and `Kai` it was stamped
    /// with, and only within `w` of its timestamp.
    #[test]
    fn wrong_keys_and_stale_timestamps_never_validate(
        ka_root: [u8; 16], kai_key: [u8; 16], secs in 10u64..300, late in 5u64..1000,
    ) {
        proptest::prop_assume!(ka_root != KA_ROOT && kai_key != KAI_KEY);
        let (now, flow, link) = (secs * SEC, FlowPair::new(HostId(1), HostId(2)), LinkId(7));
        let (kai, wrong_kai) = (Cmac::new(&KAI_KEY), Cmac::new(&kai_key));
        let [nop, incr, decr, chain] = stamped(now, flow, link);
        for fb in [nop, incr, decr, chain] {
            let mut wrong_ka = TimeVaryingSecret::new(ka_root);
            assert_eq!(
                validate(&fb, &mut wrong_ka, |_| Some(&kai), now, flow, W),
                Err(FeedbackError::BadMac)
            );
            assert_eq!(check(&fb, now + late * SEC, flow), Err(FeedbackError::Expired));
            assert_eq!(check(&fb, now - 5 * SEC, flow), Err(FeedbackError::Expired));
            assert_eq!(check(&fb, now + W, flow), Ok(()), "the window edge is inside");
        }
        for fb in [decr, chain] {
            let mut ka = TimeVaryingSecret::new(KA_ROOT);
            assert_eq!(
                validate(&fb, &mut ka, |_| Some(&wrong_kai), now, flow, W),
                Err(FeedbackError::BadMac)
            );
        }
    }

    /// `validate` is total: arbitrary field values, times and windows give
    /// `Ok` or `Err`, never a panic.
    #[test]
    fn validate_never_panics(
        fields in (0u8..4, proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
        token_nop: u32, has_token_nop: bool, src: u32, dst: u32, now: u64, w: u64, known_as: bool,
    ) {
        let (kind, link, ts, token) = fields;
        let fb = match kind {
            0 => Feedback::Nop { ts, token },
            // Any length, past the cap too, and any action bits.
            3 => Feedback::Chain {
                ts,
                token,
                links: [LinkId(link); CHAIN_CAP],
                decr: token_nop as u8,
                len: (token_nop >> 8) as u8 % 8,
            },
            k => Feedback::Mon {
                link: LinkId(link),
                action: if k == 1 { Action::Incr } else { Action::Decr },
                ts,
                token,
                token_nop: has_token_nop.then_some(token_nop),
            },
        };
        let kai = Cmac::new(&KAI_KEY);
        let flow = FlowPair::new(HostId(src), HostId(dst));
        let mut ka = TimeVaryingSecret::new(KA_ROOT);
        let _ = validate(&fb, &mut ka, |_| known_as.then_some(&kai), now, flow, w);
        let _ = stamp_decr(&kai, flow, LinkId(link), &fb);
        let _ = stamp_link(&kai, flow, (LinkId(link), Action::Decr), &fb);
    }
}

/// Feedback stamped just before a `Ka` rotation still validates just after
/// it — every kind. `L↓` did not: its `token_nop` was recomputed under the
/// current epoch only; a chain's origin is retried under the previous epoch
/// the same way.
#[test]
fn feedback_survives_a_ka_rotation() {
    let (flow, link) = (FlowPair::new(HostId(1), HostId(2)), LinkId(7));
    for period in [10 * SEC, DEFAULT_ROTATION_PERIOD] {
        let mut ka = TimeVaryingSecret::with_period(KA_ROOT, period);
        let kai = Cmac::new(&KAI_KEY);
        let (before, after) = (period - SEC / 2, period + SEC / 2);
        let nop = stamp_nop(&mut ka, before, flow);
        let incr = stamp_incr(&mut ka, before, flow, link);
        let decr_from_nop = stamp_decr(&kai, flow, link, &nop).expect("nop converts");
        let decr_from_incr = stamp_decr(&kai, flow, link, &incr).expect("L-up converts");
        let origin = stamp_origin(&mut ka, before, flow);
        let chain = stamp_link(&kai, flow, (link, Action::Decr), &origin).expect("room");
        for fb in [nop, incr, decr_from_nop, decr_from_incr, origin, chain] {
            assert_eq!(validate(&fb, &mut ka, |_| Some(&kai), after, flow, W), Ok(()), "{fb:?}");
        }
        // Two rotations on (and with an unbounded window) the key is gone.
        for fb in [nop, decr_from_nop, chain] {
            assert_eq!(
                validate(&fb, &mut ka, |_| Some(&kai), 2 * period + SEC, flow, u64::MAX),
                Err(FeedbackError::BadMac)
            );
        }
    }
}

// -------------------------------------------------------------- key store

/// The ASes the store under test has slots for, ascending; 1 is its own.
const SLOTS: [AsNumber; 6] = [1, 2, 3, 5, 8, 13];
/// An AS with no slot: its announcements are rejected.
const OUTSIDER: AsNumber = 4;

/// The key lifecycle one NetFence router keeps, written the way the router
/// kept it before the store owned it: a `PolicyStore` for the TTLs and
/// counters beside a map of the announced values.
struct Model {
    rules: PolicyStore<AsNumber>,
    values: BTreeMap<AsNumber, u64>,
}

/// The store's side of the same lifecycle: the table and the counters a
/// router keeps from what its calls return.
struct Store {
    table: AsKeyTable,
    stats: PolicyStats,
    /// Where each derived key lives, until it is removed or replaced.
    derived: BTreeMap<AsNumber, *const Cmac>,
}

/// Drive one seeded interleaving of announcements, re-announcements with a
/// new value, purges, evictions, reboots and key lookups through the store
/// and the model, and check after every step that they hold the same keys
/// with the same expiries and count the same lifecycle events.
fn drive_key_store(ttl: Nanos, case: u64) {
    let mut rng = TestRng::for_case("drive_key_store", case ^ ttl.rotate_left(17));
    let local = AsKeyAgent::new(1, 0x5eed);
    let ases: Rc<[AsNumber]> = SLOTS.into();
    let fresh = || AsKeyTable::for_agent(local.clone(), Rc::clone(&ases), ttl);
    let mut model = Model { rules: PolicyStore::new(ttl, 0), values: BTreeMap::new() };
    let mut store =
        Store { table: fresh(), stats: PolicyStats::default(), derived: BTreeMap::new() };
    // Two values each AS may announce: a re-announcement either repeats
    // the value held or brings the other one.
    let values: Vec<[u64; 2]> = (0..=13)
        .map(|asn| [0, 1].map(|v| AsKeyAgent::new(asn, 1000 * v + asn as u64).public_value()))
        .collect();
    // Half the cases run at the end of time, where expiries saturate.
    let mut now: Nanos = if case.is_multiple_of(2) { 0 } else { Nanos::MAX - 40 };
    // A dummy allocation of a `Cmac`'s size after every step takes the
    // chunk a dropped key freed, so a key derived again never lands at a
    // kept key's address: equal addresses mean the key was kept.
    let mut spare: Vec<Box<Cmac>> = Vec::new();
    for step in 0..200 {
        now = now.saturating_add(rng.below(3));
        let op = rng.below(20);
        let peer = SLOTS[rng.below(SLOTS.len() as u64) as usize];
        match op {
            0..=7 => {
                let public = values[peer as usize][rng.below(2) as usize];
                match store.table.install(now, peer, public) {
                    Install::New => store.stats.installed += 1,
                    Install::Refreshed => store.stats.refreshed += 1,
                    Install::Rejected => panic!("AS {peer} has a slot"),
                }
                assert!(model.rules.insert(now, peer));
                if model.values.insert(peer, public).is_some_and(|old| old != public) {
                    store.derived.remove(&peer);
                }
            }
            8 => {
                let public = values[OUTSIDER as usize][0];
                assert_eq!(store.table.install(now, OUTSIDER, public), Install::Rejected);
            }
            9..=10 => {
                store.stats.expired += store.table.purge(now) as u64;
                for peer in model.rules.purge(now) {
                    model.values.remove(&peer);
                    store.derived.remove(&peer);
                }
            }
            11 => {
                let n = [0, 1, 2, 3, usize::MAX][rng.below(5) as usize];
                store.stats.evicted += store.table.evict_oldest(n) as u64;
                for peer in model.rules.evict_oldest(n) {
                    model.values.remove(&peer);
                    store.derived.remove(&peer);
                }
            }
            12 => {
                // A reboot: a fresh store; the counters are the router's.
                store.table = fresh();
                store.derived.clear();
                model.rules.clear();
                model.values.clear();
            }
            13 if ttl != 0 && rng.below(8) == 0 => now = Nanos::MAX,
            _ => {
                let held = model.values.get(&peer).copied();
                let key =
                    store.table.get(peer).map(|cmac| (&*cmac as *const Cmac, cmac.mac32(b"m")));
                assert_eq!(key.is_some(), held.is_some(), "step {step}: key for AS {peer}");
                if let (Some((addr, mac)), Some(public)) = (key, held) {
                    let eager = Cmac::new(&local.shared_key(peer, public));
                    assert_eq!(mac, eager.mac32(b"m"), "step {step}: AS {peer}'s key");
                    let first = *store.derived.entry(peer).or_insert(addr);
                    assert_eq!(addr, first, "step {step}: AS {peer}'s key was derived again");
                }
            }
        }
        spare.push(Box::new(Cmac::new(&KAI_KEY)));
        let ctx = format!("ttl {ttl}, case {case}, step {step}, op {op}, now {now}");
        for asn in SLOTS.into_iter().chain([OUTSIDER]) {
            assert_eq!(store.table.expiry_of(asn), model.rules.expiry_of(&asn), "{ctx}: AS {asn}");
        }
        assert_eq!(store.table.len(), model.rules.len(), "{ctx}");
        assert_eq!(store.stats, model.rules.stats, "{ctx}");
    }
}

/// The dense key store keeps the lifecycle the router kept with a
/// `PolicyStore` beside its key table: the same installed set and
/// expiries, refreshes, lapses exactly at expiry (`>=`), evictions
/// earliest expiry first with ties in ascending AS order, and a key
/// derived on its first lookup only, at no TTL, a finite one and one that
/// saturates.
#[test]
fn key_store_matches_a_policy_store_model() {
    for ttl in [0, 4, Nanos::MAX] {
        for case in 0..64 {
            drive_key_store(ttl, case);
        }
    }
}
