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
/// and a peer AS.
///
/// A table is a handle to a key store. [`share`] makes another handle to
/// the same store, so a router's access router and each of its bottleneck
/// links hold one store between them: an install or remove through any
/// handle is seen by all, and a key is derived once per store. Sharing is
/// explicit; the type is not `Clone`, so no copy is ever mistaken for an
/// independent table. The store is single-threaded (`Rc`), like the
/// simulator that owns the router.
///
/// An entry is what the peer announced: its DH public value. The CMAC
/// keyed with the pair's shared key is derived by the first [`get`] for
/// that peer, so a peer no packet ever needs a key for costs one table
/// slot and no DH, whitening or AES key schedule.
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
    /// in a table built by [`AsKeyTable::new`], which holds no keys.
    local: Option<AsKeyAgent>,
    keys: netfence_telemetry::IdMap<AsNumber, PeerKey>,
}

/// One peer's entry of a [`KeyStore`].
#[derive(Debug)]
struct PeerKey {
    /// The DH public value the peer announced.
    public: u64,
    /// The CMAC keyed with the shared key, once something has needed it.
    /// Boxed so a peer whose key is never derived costs 8 bytes here,
    /// not a whole expanded cipher.
    cmac: OnceCell<Box<Cmac>>,
}

impl PeerKey {
    fn announced(public: u64) -> Self {
        PeerKey { public, cmac: OnceCell::new() }
    }
}

#[cfg(test)]
thread_local! {
    /// Keys derived on this thread, so tests can see what stays lazy.
    static DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl AsKeyTable {
    /// Create an empty table that holds no keys and takes no
    /// announcements.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty table whose keys `local`, the agent of the table's
    /// own AS, derives.
    pub fn for_agent(local: AsKeyAgent) -> Self {
        let store = KeyStore { local: Some(local), keys: Default::default() };
        AsKeyTable { store: Rc::new(RefCell::new(store)) }
    }

    /// Another handle to this table's store.
    pub fn share(&self) -> Self {
        AsKeyTable { store: Rc::clone(&self.store) }
    }

    /// Record `public`, the DH value `peer` announced. Nothing is derived
    /// yet. Re-announcing the value already held keeps its key, derived or
    /// not; a new value replaces it.
    ///
    /// # Panics
    ///
    /// If the table was built by [`new`](Self::new): it has no local agent
    /// to derive the key with. Also if a [`get`](Self::get) guard of this
    /// store is still alive.
    pub fn install(&self, peer: AsNumber, public: u64) {
        let mut store = self.store.borrow_mut();
        assert!(store.local.is_some(), "AsKeyTable::install needs a table built by for_agent");
        let entry = store.keys.entry(peer).or_insert_with(|| PeerKey::announced(public));
        if entry.public != public {
            *entry = PeerKey::announced(public);
        }
    }

    /// Look up the CMAC for a peer AS, deriving it from the peer's
    /// announced value on the first call. The guard borrows the store:
    /// drop it before the next install or remove.
    pub fn get(&self, peer: AsNumber) -> Option<Ref<'_, Cmac>> {
        Ref::filter_map(self.store.borrow(), |store| {
            let (local, entry) = (store.local.as_ref()?, store.keys.get(&peer)?);
            Some(&**entry.cmac.get_or_init(|| {
                #[cfg(test)]
                DERIVED.with(|n| n.set(n.get() + 1));
                Box::new(Cmac::new(&local.shared_key(peer, entry.public)))
            }))
        })
        .ok()
    }

    /// Remove the key shared with `peer` (it expired without a refreshing
    /// announcement). Returns whether a key was installed.
    pub fn remove(&self, peer: AsNumber) -> bool {
        self.store.borrow_mut().keys.remove(&peer).is_some()
    }

    /// Number of peers with installed keys.
    pub fn len(&self) -> usize {
        self.store.borrow().keys.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.borrow().keys.is_empty()
    }
}

/// Run the full-mesh "BGP piggybacked" exchange for a set of ASes and return
/// each AS's key table, every key already derived. Index `i` of the result
/// corresponds to `agents[i]`.
pub fn full_mesh_exchange(agents: &[AsKeyAgent]) -> Vec<AsKeyTable> {
    agents
        .iter()
        .map(|a| {
            let table = AsKeyTable::for_agent(a.clone());
            for b in agents.iter().filter(|b| b.asn() != a.asn()) {
                table.install(b.asn(), b.public_value());
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

    #[test]
    fn announced_tables_derive_the_pinned_keys() {
        let agents = pin_agents();
        for (from, to, pin) in PAIR_PINS {
            let table = AsKeyTable::for_agent(agents[from].clone());
            table.install(agents[to].asn(), agents[to].public_value());
            let mac = table.get(agents[to].asn()).unwrap().mac32(b"netfence-pin");
            assert_eq!(mac, pin, "{from} -> {to}");
        }
    }

    #[test]
    fn a_key_is_derived_on_first_use_only() {
        let (a, b, c) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33));
        let table = AsKeyTable::for_agent(a.clone());
        let before = derived();
        table.install(b.asn(), b.public_value());
        table.install(c.asn(), c.public_value());
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
        let table = AsKeyTable::for_agent(a.clone());
        table.install(b.asn(), b.public_value());
        let first = key_addr(&table, b.asn());
        let before = derived();
        // The refresh lands through another share of the same store.
        let share = table.share();
        share.install(b.asn(), b.public_value());
        assert_eq!(first, key_addr(&table, b.asn()));
        assert_eq!(derived(), before, "a refresh derives nothing");

        let rekeyed = AsKeyAgent::new(2, 23);
        table.install(b.asn(), rekeyed.public_value());
        let eager = Cmac::new(&a.shared_key(b.asn(), rekeyed.public_value()));
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), eager.mac32(MSG));
        let old = Cmac::new(&a.shared_key(b.asn(), b.public_value()));
        assert_ne!(eager.mac32(MSG), old.mac32(MSG));
    }

    #[test]
    fn a_removed_key_is_gone_until_announced_again() {
        let (a, b) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22));
        let table = AsKeyTable::for_agent(a);
        table.install(b.asn(), b.public_value());
        let mac = table.get(b.asn()).unwrap().mac32(MSG);
        assert!(table.remove(b.asn()));
        assert!(table.get(b.asn()).is_none());
        assert!(!table.remove(b.asn()));
        table.install(b.asn(), b.public_value());
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), mac);
    }

    #[test]
    #[should_panic(expected = "for_agent")]
    fn a_table_without_an_agent_takes_no_announcement() {
        AsKeyTable::new().share().install(2, AsKeyAgent::new(2, 22).public_value());
    }

    #[test]
    fn every_share_sees_an_install_or_remove_through_any_other() {
        let (a, b, c) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33));
        let table = AsKeyTable::for_agent(a);
        let shares = [table.share(), table.share()];
        shares[0].install(b.asn(), b.public_value());
        table.install(c.asn(), c.public_value());
        for t in shares.iter().chain([&table]) {
            assert_eq!(t.len(), 2);
            assert!(t.get(b.asn()).is_some() && t.get(c.asn()).is_some());
        }
        assert!(shares[1].remove(b.asn()));
        for t in shares.iter().chain([&table]) {
            assert!(t.get(b.asn()).is_none());
            assert_eq!(t.len(), 1);
        }
        assert!(!table.remove(b.asn()), "the key is gone from every share");
    }

    #[test]
    fn a_key_is_derived_once_per_store_not_once_per_share() {
        let (a, b) = (AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22));
        let table = AsKeyTable::for_agent(a.clone());
        let share = table.share();
        table.install(b.asn(), b.public_value());
        let before = derived();
        let mac = share.get(b.asn()).unwrap().mac32(MSG);
        assert_eq!(table.get(b.asn()).unwrap().mac32(MSG), mac);
        assert_eq!(derived(), before + 1, "both shares use the one derived key");

        // A separate store for the same AS derives its own copy.
        let other = AsKeyTable::for_agent(a);
        other.install(b.asn(), b.public_value());
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
