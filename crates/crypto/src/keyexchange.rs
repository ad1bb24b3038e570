//! Passport-style per-AS pairwise shared keys.
//!
//! NetFence relies on Passport \[26\] in two places (§4.4, §4.5):
//!
//! 1. A bottleneck router stamps the `L↓` feedback with a MAC keyed by a
//!    secret `Kai` shared between *its* AS and the *sender's* AS (Eq. 3).
//! 2. Passport itself authenticates the source AS of every packet, which is
//!    what lets routers use per-AS queues / rate limits to localize the
//!    damage of compromised access routers. The reproduction models
//!    neither the per-packet MAC nor the per-AS policing: the simulator
//!    knows each packet's source AS from the topology.
//!
//! Passport establishes the pairwise keys by piggybacking a Diffie–Hellman
//! exchange on BGP announcements. We reproduce that mechanism with a small
//! fixed-prime DH over 64-bit group elements: every AS generates a private
//! exponent, "announces" its public value to all other ASes (one round, as a
//! full-mesh BGP propagation would), and both sides derive the same 128-bit
//! AES key from the shared group element. The substitution preserves the
//! property NetFence needs — each ordered AS pair agrees on a secret key that
//! no third party knows — without modelling BGP messages themselves.

use std::cell::{OnceCell, Ref, RefCell};
use std::rc::Rc;

use crate::aes::Aes128;
use crate::cmac::Cmac;
use crate::secret::Nanos;

/// An Autonomous System number.
pub type AsNumber = u32;

/// The Mersenne prime 2^61 − 1: a product of two residues fits in `u128`,
/// and reducing it needs no division (see [`mulmod`]).
const DH_PRIME: u64 = (1u64 << 61) - 1;
/// Group generator.
const DH_GENERATOR: u64 = 5;

/// The fixed cipher DH secrets are whitened through, expanded at compile
/// time: `shared_key` runs once per key a table derives, on that key's
/// first use.
static WHITENER: Aes128 = Aes128::new(b"NetFencePassport");

/// Modular multiplication mod [`DH_PRIME`] of two residues `a, b < p`.
///
/// With `p = 2^61 − 1`, `2^61 ≡ 1 (mod p)`, so `x = hi·2^61 + lo` is
/// congruent to `hi + lo`: two fold-and-add steps bring the 122-bit
/// product to at most `p + 1`, and one conditional subtract finishes.
fn mulmod(a: u64, b: u64) -> u64 {
    let x = a as u128 * b as u128;
    let t = (x as u64 & DH_PRIME) + (x >> 61) as u64;
    let s = (t & DH_PRIME) + (t >> 61);
    if s >= DH_PRIME {
        s - DH_PRIME
    } else {
        s
    }
}

/// Modular exponentiation mod [`DH_PRIME`] by squaring.
fn powmod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= DH_PRIME;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base);
        }
        base = mulmod(base, base);
        exp >>= 1;
    }
    acc
}

/// One AS's Diffie–Hellman keying material.
#[derive(Clone)]
pub struct AsKeyAgent {
    asn: AsNumber,
    private: u64,
    public: u64,
}

impl core::fmt::Debug for AsKeyAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AsKeyAgent {{ asn: {}, public: {} }}", self.asn, self.public)
    }
}

impl AsKeyAgent {
    /// Create a key agent for `asn` from a private exponent (in a real
    /// deployment this comes from a CSPRNG; in the simulator it comes from
    /// the seeded RNG so runs are reproducible).
    pub fn new(asn: AsNumber, private_exponent: u64) -> Self {
        // Avoid the degenerate exponents 0 and 1.
        let private = private_exponent % (DH_PRIME - 3) + 2;
        let public = powmod(DH_GENERATOR, private);
        AsKeyAgent { asn, private, public }
    }

    /// The AS number this agent belongs to.
    pub fn asn(&self) -> AsNumber {
        self.asn
    }

    /// The public value this AS announces via BGP.
    pub fn public_value(&self) -> u64 {
        self.public
    }

    /// Derive the shared 128-bit key with a peer AS from its announced
    /// public value.
    ///
    /// Both peers derive the same key because the derivation input uses the
    /// unordered AS pair (smaller ASN first) plus the DH shared secret.
    pub fn shared_key(&self, peer_asn: AsNumber, peer_public: u64) -> [u8; 16] {
        let secret = powmod(peer_public, self.private);
        let (lo, hi) =
            if self.asn <= peer_asn { (self.asn, peer_asn) } else { (peer_asn, self.asn) };
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&secret.to_be_bytes());
        key[8..12].copy_from_slice(&lo.to_be_bytes());
        key[12..16].copy_from_slice(&hi.to_be_bytes());
        // Whiten through AES so the structure of the DH secret is not
        // directly exposed as key bytes.
        WHITENER.encrypt(&key)
    }
}

/// The pairwise AS keys one router holds, all shared between the local AS
/// and a peer AS, and their lifetimes.
///
/// A table is a handle to a key store. [`share`] makes another handle to
/// the same store, so a router's access router and each of its bottleneck
/// links hold one store between them: an install, purge or eviction
/// through any handle is seen by all, and a key is derived once per
/// store. Sharing is explicit; the type is not `Clone`, so no copy is ever
/// mistaken for an independent table. The store is single-threaded
/// (`Rc`), like the simulator that owns the router.
///
/// The store is dense: one slot per AS of the deployment's ascending AS
/// list, found by binary search. A slot holds what the peer announced (its
/// DH public value) and when that announcement lapses. The CMAC keyed with
/// the pair's shared key is derived by the first [`get`] for that peer, so
/// a peer no packet ever needs a key for costs one slot and no DH,
/// whitening or AES key schedule.
///
/// [`share`]: Self::share
/// [`get`]: Self::get
#[derive(Debug, Default)]
pub struct AsKeyTable {
    store: Rc<RefCell<KeyStore>>,
}

/// What every handle of one [`AsKeyTable`] shares.
#[derive(Debug, Default)]
struct KeyStore {
    /// The local AS's agent, which derives every key in the store. `None`
    /// in a table built by [`AsKeyTable::new`], which has no slots.
    local: Option<AsKeyAgent>,
    /// The ASes a slot exists for, ascending.
    ases: Rc<[AsNumber]>,
    /// How long an announcement lives without a refresh (0 = forever).
    ttl: Nanos,
    /// `slots[i]` is the key shared with `ases[i]`, if one is installed.
    slots: Box<[Option<PeerKey>]>,
}

/// One installed slot of a [`KeyStore`].
#[derive(Debug)]
struct PeerKey {
    /// The DH public value the peer announced.
    public: u64,
    /// When the announcement lapses unless refreshed (`Nanos::MAX`: never).
    expiry: Nanos,
    /// The CMAC keyed with the shared key, once something has needed it.
    /// Boxed so a peer whose key is never derived costs 8 bytes here,
    /// not a whole expanded cipher.
    cmac: OnceCell<Box<Cmac>>,
}

/// What [`AsKeyTable::install`] did with an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// The peer had no key installed; now it has.
    New,
    /// The peer's key was installed already; its lifetime restarts.
    Refreshed,
    /// The store has no slot for the peer: it is not one of the ASes the
    /// table was built for.
    Rejected,
}

#[cfg(test)]
thread_local! {
    /// Keys derived on this thread, so tests can see what stays lazy.
    static DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl KeyStore {
    fn slot(&self, peer: AsNumber) -> Option<usize> {
        self.ases.binary_search(&peer).ok()
    }
}

impl AsKeyTable {
    /// Create a table with no slots: it holds no keys and rejects every
    /// announcement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty table with one slot per AS of `ases` (ascending),
    /// whose keys `local`, the agent of the table's own AS, derives. An
    /// installed key lapses `ttl` after its last announcement (0 = never).
    pub fn for_agent(local: AsKeyAgent, ases: Rc<[AsNumber]>, ttl: Nanos) -> Self {
        debug_assert!(ases.windows(2).all(|w| w[0] < w[1]), "AS list not ascending");
        let slots = ases.iter().map(|_| None).collect();
        let store = KeyStore { local: Some(local), ases, ttl, slots };
        AsKeyTable { store: Rc::new(RefCell::new(store)) }
    }

    /// Another handle to this table's store.
    pub fn share(&self) -> Self {
        AsKeyTable { store: Rc::clone(&self.store) }
    }

    /// Record `public`, the DH value `peer` announced at `now`. Nothing is
    /// derived yet. Re-announcing the value already held keeps its key,
    /// derived or not; a new value replaces it. Either way the key now
    /// lapses `ttl` after `now`, saturating at `Nanos::MAX` (never).
    ///
    /// # Panics
    ///
    /// If a [`get`](Self::get) guard of this store is still alive.
    pub fn install(&self, now: Nanos, peer: AsNumber, public: u64) -> Install {
        let mut store = self.store.borrow_mut();
        let Some(i) = store.slot(peer) else { return Install::Rejected };
        let expiry = if store.ttl == 0 { Nanos::MAX } else { now.saturating_add(store.ttl) };
        match &mut store.slots[i] {
            Some(key) => {
                if key.public != public {
                    *key = PeerKey { public, expiry, cmac: OnceCell::new() };
                }
                key.expiry = expiry;
                Install::Refreshed
            }
            slot @ None => {
                *slot = Some(PeerKey { public, expiry, cmac: OnceCell::new() });
                Install::New
            }
        }
    }

    /// Look up the CMAC for a peer AS, deriving it from the peer's
    /// announced value on the first call. The guard borrows the store:
    /// drop it before the next install, purge or eviction.
    pub fn get(&self, peer: AsNumber) -> Option<Ref<'_, Cmac>> {
        Ref::filter_map(self.store.borrow(), |store| {
            let key = store.slots[store.slot(peer)?].as_ref()?;
            let local = store.local.as_ref()?;
            Some(&**key.cmac.get_or_init(|| {
                #[cfg(test)]
                DERIVED.with(|n| n.set(n.get() + 1));
                Box::new(Cmac::new(&local.shared_key(peer, key.public)))
            }))
        })
        .ok()
    }

    /// When the key shared with `peer` lapses, if one is installed.
    pub fn expiry_of(&self, peer: AsNumber) -> Option<Nanos> {
        let store = self.store.borrow();
        store.slots[store.slot(peer)?].as_ref().map(|key| key.expiry)
    }

    /// Remove every key whose lifetime ended by `now` (no refreshing
    /// announcement landed in time). Returns how many it removed.
    pub fn purge(&self, now: Nanos) -> usize {
        let mut store = self.store.borrow_mut();
        if store.ttl == 0 {
            return 0;
        }
        let mut expired = 0;
        for slot in store.slots.iter_mut() {
            if slot.as_ref().is_some_and(|key| now >= key.expiry) {
                *slot = None;
                expired += 1;
            }
        }
        expired
    }

    /// Remove up to `n` keys before their lifetime ends (memory pressure):
    /// the earliest to lapse first, ties in ascending AS order. Returns how
    /// many it removed.
    pub fn evict_oldest(&self, n: usize) -> usize {
        let mut store = self.store.borrow_mut();
        let mut victims: Vec<(Nanos, usize)> = (store.slots.iter().enumerate())
            .filter_map(|(i, slot)| Some((slot.as_ref()?.expiry, i)))
            .collect();
        victims.sort_unstable();
        victims.truncate(n);
        for &(_, i) in &victims {
            store.slots[i] = None;
        }
        victims.len()
    }

    /// Number of peers with installed keys.
    pub fn len(&self) -> usize {
        self.store.borrow().slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Run the full-mesh "BGP piggybacked" exchange for a set of ASes and return
/// each AS's key table, every key already derived and permanent. Index `i`
/// of the result corresponds to `agents[i]`.
pub fn full_mesh_exchange(agents: &[AsKeyAgent]) -> Vec<AsKeyTable> {
    let mut ases: Vec<AsNumber> = agents.iter().map(AsKeyAgent::asn).collect();
    ases.sort_unstable();
    ases.dedup();
    let ases: Rc<[AsNumber]> = ases.into();
    agents
        .iter()
        .map(|a| {
            let table = AsKeyTable::for_agent(a.clone(), Rc::clone(&ases), 0);
            for b in agents.iter().filter(|b| b.asn() != a.asn()) {
                table.install(0, b.asn(), b.public_value());
                table.get(b.asn());
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_agreement() {
        let a = AsKeyAgent::new(100, 0xdead_beef_cafe);
        let b = AsKeyAgent::new(200, 0x1234_5678_9abc);
        let kab = a.shared_key(b.asn(), b.public_value());
        let kba = b.shared_key(a.asn(), a.public_value());
        assert_eq!(kab, kba, "both ASes must derive the same pairwise key");
    }

    #[test]
    fn dh_values_are_pinned() {
        // No `Record`, golden or JSONL line contains key bytes, so a change
        // to the DH arithmetic that stays symmetric but computes different
        // values would pass every other test. These constants pin it.
        let a = AsKeyAgent::new(100, 0xdead_beef_cafe);
        let b = AsKeyAgent::new(200, 0x1234_5678_9abc);
        assert_eq!(a.public_value(), 0x1af4_911c_6d6c_f9dc);
        assert_eq!(b.public_value(), 0x0011_8a00_b898_1c56);
        let pinned = [
            0x2c, 0x9b, 0x13, 0xdd, 0x80, 0xd2, 0xbd, 0xa8, 0xba, 0x22, 0x42, 0xf9, 0x6c, 0xf4,
            0x19, 0xc3,
        ];
        assert_eq!(a.shared_key(b.asn(), b.public_value()), pinned);
        assert_eq!(b.shared_key(a.asn(), a.public_value()), pinned);
    }

    #[test]
    fn third_party_gets_different_key() {
        let a = AsKeyAgent::new(100, 11111);
        let b = AsKeyAgent::new(200, 22222);
        let c = AsKeyAgent::new(300, 33333);
        let kab = a.shared_key(b.asn(), b.public_value());
        let kac = a.shared_key(c.asn(), c.public_value());
        let kbc = b.shared_key(c.asn(), c.public_value());
        assert_ne!(kab, kac);
        assert_ne!(kab, kbc);
        assert_ne!(kac, kbc);
    }

    #[test]
    fn full_mesh_tables_are_symmetric() {
        let agents: Vec<_> =
            (0..5).map(|i| AsKeyAgent::new(1000 + i, 7919 * (i as u64 + 1))).collect();
        let tables = full_mesh_exchange(&agents);
        assert_eq!(tables.len(), 5);
        for t in &tables {
            assert_eq!(t.len(), 4);
        }
        // AS 1000's CMAC of a message under key(1000,1001) equals AS 1001's.
        let msg = b"congestion feedback";
        let m01 = tables[0].get(1001).unwrap().mac32(msg);
        let m10 = tables[1].get(1000).unwrap().mac32(msg);
        assert_eq!(m01, m10);
        // ...and differs from the key AS 1002 shares with AS 1000.
        let m02 = tables[0].get(1002).unwrap().mac32(msg);
        assert_ne!(m01, m02);
    }

    /// `full_mesh_tables_are_symmetric`'s agents, four of them.
    fn pin_agents() -> Vec<AsKeyAgent> {
        (0..4).map(|i| AsKeyAgent::new(1000 + i, 7919 * (i as u64 + 1))).collect()
    }

    /// `mac32(b"netfence-pin")` under the key table `from` holds for peer
    /// `to`, for the ordered agent pairs 0→1, 1→0 and 2→3.
    const PAIR_PINS: [(usize, usize, u32); 3] =
        [(0, 1, 0x8816_bb77), (1, 0, 0x8816_bb77), (2, 3, 0xe4c1_81fa)];

    #[test]
    fn full_mesh_keys_are_pinned() {
        // No `Record`, golden or JSONL line contains key bytes, so a table
        // that keys the right peer with the wrong secret would pass every
        // other test. These constants pin what each table derives.
        let agents = pin_agents();
        let tables = full_mesh_exchange(&agents);
        for (from, to, pin) in PAIR_PINS {
            let mac = tables[from].get(agents[to].asn()).unwrap().mac32(b"netfence-pin");
            assert_eq!(mac, pin, "{from} -> {to}");
        }
    }

    #[test]
    fn degenerate_exponents_are_avoided() {
        let a = AsKeyAgent::new(1, 0);
        assert_ne!(a.public_value(), 1, "exponent 0 would make the public value 1");
    }

    /// The division-based reduction `mulmod` replaces.
    fn mulmod_by_division(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % DH_PRIME as u128) as u64
    }

    #[test]
    fn mulmod_matches_division_at_edge_values() {
        let edges = [0, 1, 1 << 32, DH_PRIME - 1];
        for a in edges {
            for b in edges {
                assert_eq!(mulmod(a, b), mulmod_by_division(a, b), "{a} * {b}");
            }
        }
    }

    /// Keys derived on this thread so far.
    fn derived() -> usize {
        DERIVED.with(|n| n.get())
    }

    const MSG: &[u8] = b"congestion feedback";

    /// Where `table`'s CMAC for `peer` lives, so a test can tell a kept key
    /// from a re-derived one. The guard is dropped before this returns.
    fn key_addr(table: &AsKeyTable, peer: AsNumber) -> *const Cmac {
        &*table.get(peer).unwrap()
    }

    /// A table of `local` with a slot for each of the ASes 1–4 and 1000–1003
    /// whose keys lapse `ttl` after their last announcement.
    fn keys_of(local: &AsKeyAgent, ttl: Nanos) -> AsKeyTable {
        AsKeyTable::for_agent(local.clone(), [1, 2, 3, 4, 1000, 1001, 1002, 1003].into(), ttl)
    }

    #[test]
    fn announced_tables_derive_the_pinned_keys() {
        let agents = pin_agents();
        for (from, to, pin) in PAIR_PINS {
            let table = keys_of(&agents[from], 0);
            table.install(0, agents[to].asn(), agents[to].public_value());
            let mac = table.get(agents[to].asn()).unwrap().mac32(b"netfence-pin");
            assert_eq!(mac, pin, "{from} -> {to}");
        }
    }

    #[test]
    fn a_key_is_derived_on_first_use_only() {
        let (a, b, c) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33));
        let table = keys_of(&a, 0);
        let before = derived();
        table.install(0, b.asn(), b.public_value());
        table.install(0, c.asn(), c.public_value());
        assert_eq!(derived(), before, "announcements alone derive nothing");

        let eager = Cmac::new(&a.shared_key(b.asn(), b.public_value()));
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), eager.mac32(MSG));
        table.get(b.asn());
        assert_eq!(derived(), before + 1, "one derivation, for the one peer used, once");
        assert!(table.get(4).is_none());
    }

    #[test]
    fn re_announcing_keeps_the_key_and_a_new_value_replaces_it() {
        let (a, b) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22));
        let table = keys_of(&a, 0);
        assert_eq!(table.install(0, b.asn(), b.public_value()), Install::New);
        let first = key_addr(&table, b.asn());
        let before = derived();
        // The refresh lands through another share of the same store.
        let share = table.share();
        assert_eq!(share.install(0, b.asn(), b.public_value()), Install::Refreshed);
        assert_eq!(first, key_addr(&table, b.asn()));
        assert_eq!(derived(), before, "a refresh derives nothing");

        let rekeyed = AsKeyAgent::new(2, 23);
        assert_eq!(table.install(0, b.asn(), rekeyed.public_value()), Install::Refreshed);
        let eager = Cmac::new(&a.shared_key(b.asn(), rekeyed.public_value()));
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), eager.mac32(MSG));
        let old = Cmac::new(&a.shared_key(b.asn(), b.public_value()));
        assert_ne!(eager.mac32(MSG), old.mac32(MSG));
    }

    #[test]
    fn a_lapsed_key_is_gone_until_announced_again() {
        let (a, b, c) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33));
        let table = keys_of(&a, 10);
        table.install(0, b.asn(), b.public_value());
        table.install(5, c.asn(), c.public_value());
        assert_eq!(table.expiry_of(b.asn()), Some(10));
        let mac = table.get(b.asn()).unwrap().mac32(MSG);
        assert_eq!(table.purge(9), 0);
        assert_eq!(table.purge(10), 1, "a key lapses exactly at its expiry");
        assert!(table.get(b.asn()).is_none() && table.expiry_of(b.asn()).is_none());
        assert!(table.get(c.asn()).is_some());
        assert_eq!(table.install(10, b.asn(), b.public_value()), Install::New);
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), mac);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn lifetimes_saturate_and_a_zero_ttl_never_lapses() {
        let b = AsKeyAgent::new(2, 22);
        for (ttl, expiry) in [(0, Nanos::MAX), (Nanos::MAX, Nanos::MAX), (10, 15)] {
            let table = keys_of(&AsKeyAgent::new(1, 11), ttl);
            table.install(5, b.asn(), b.public_value());
            assert_eq!(table.expiry_of(b.asn()), Some(expiry), "ttl {ttl}");
            assert_eq!(table.purge(Nanos::MAX - 1), usize::from(ttl == 10), "ttl {ttl}");
        }
    }

    #[test]
    fn eviction_takes_the_earliest_expiry_first_and_ties_in_as_order() {
        let table = keys_of(&AsKeyAgent::new(1, 11), 10);
        // Expiries: AS 4 at 10, AS 1 at 11, ASes 2 and 3 tied at 12, AS 1000 at 13.
        for (now, asn) in [(0, 4), (1, 1), (2, 3), (2, 2), (3, 1000)] {
            table.install(now, asn, AsKeyAgent::new(asn, 7).public_value());
        }
        let held = |t: &AsKeyTable| -> Vec<AsNumber> {
            [1, 2, 3, 4, 1000].into_iter().filter(|&asn| t.expiry_of(asn).is_some()).collect()
        };
        assert_eq!(table.evict_oldest(2), 2);
        assert_eq!(held(&table), [2, 3, 1000]);
        assert_eq!(table.evict_oldest(1), 1);
        assert_eq!(held(&table), [3, 1000]);
        assert_eq!(table.evict_oldest(usize::MAX), 2);
        assert!(table.is_empty());
        assert_eq!(table.evict_oldest(3), 0);
    }

    #[test]
    fn a_table_without_an_agent_takes_no_announcement() {
        let table = AsKeyTable::new();
        let public = AsKeyAgent::new(2, 22).public_value();
        assert_eq!(table.share().install(0, 2, public), Install::Rejected);
        assert!(table.is_empty() && table.get(2).is_none());
    }

    #[test]
    fn an_as_outside_the_list_is_rejected() {
        let table = keys_of(&AsKeyAgent::new(1, 11), 0);
        assert_eq!(table.install(0, 5, AsKeyAgent::new(5, 55).public_value()), Install::Rejected);
        assert!(table.is_empty() && table.get(5).is_none() && table.expiry_of(5).is_none());
    }

    #[test]
    fn every_share_sees_an_install_or_remove_through_any_other() {
        let (a, b, c) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33));
        let table = keys_of(&a, 0);
        let shares = [table.share(), table.share()];
        shares[0].install(0, b.asn(), b.public_value());
        table.install(0, c.asn(), c.public_value());
        for t in shares.iter().chain([&table]) {
            assert_eq!(t.len(), 2);
            assert!(t.get(b.asn()).is_some() && t.get(c.asn()).is_some());
        }
        assert_eq!(shares[1].evict_oldest(1), 1);
        for t in shares.iter().chain([&table]) {
            assert!(t.get(b.asn()).is_none());
            assert_eq!(t.len(), 1);
        }
        assert_eq!(table.evict_oldest(1), 1, "only AS 3's key was left in any share");
        assert!(shares[0].get(c.asn()).is_none());
    }

    #[test]
    fn a_key_is_derived_once_per_store_not_once_per_share() {
        let (a, b) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22));
        let table = keys_of(&a, 0);
        let share = table.share();
        table.install(0, b.asn(), b.public_value());
        let before = derived();
        let mac = share.get(b.asn()).unwrap().mac32(MSG);
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), mac);
        assert_eq!(derived(), before + 1, "both shares use the one derived key");

        // A separate store for the same AS derives its own copy.
        let other = keys_of(&a, 0);
        other.install(0, b.asn(), b.public_value());
        assert_eq!(other.get(b.asn()).unwrap().mac32(MSG), mac);
        assert_eq!(derived(), before + 2);
    }

    proptest::proptest! {
        #[test]
        fn mulmod_matches_division(a in 0..DH_PRIME, b in 0..DH_PRIME) {
            proptest::prop_assert_eq!(mulmod(a, b), mulmod_by_division(a, b));
        }

        #[test]
        fn agreement_holds_for_arbitrary_exponents(x in 1u64.., y in 1u64..) {
            let a = AsKeyAgent::new(10, x);
            let b = AsKeyAgent::new(20, y);
            proptest::prop_assert_eq!(
                a.shared_key(20, b.public_value()),
                b.shared_key(10, a.public_value())
            );
        }
    }
}
