//! TTL'd policy rules with capacity limits.
//!
//! The danthegoodman1/netfence exemplar pushes *expiring* allow/deny rules
//! from a central control plane to per-host daemons; nothing installed is
//! permanent, so a defense only keeps working while its refresh traffic
//! keeps landing. [`PolicyStore`] is that model as a reusable container:
//! StopIt filters and TVA+ capability grants live in one, and the typed
//! [`PolicyStats`] feed the deployment report's `rules_*` counters.
//! NetFence's pairwise keys keep the same lifecycle in the router's own
//! dense key store (`netfence_crypto::AsKeyTable`), whose agent counts
//! it in a [`PolicyStats`].

use std::collections::BTreeMap;

use netfence_sim::time::Nanos;

/// Lifecycle counters of one policy store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Rules installed for the first time.
    pub installed: u64,
    /// Rules re-installed while still live (TTL refreshes).
    pub refreshed: u64,
    /// Rules purged after their TTL lapsed.
    pub expired: u64,
    /// Installs rejected because the store was at capacity.
    pub rejected: u64,
    /// Rules forcibly evicted before their TTL (memory pressure).
    pub evicted: u64,
}

/// A per-AS (or per-agent) store of TTL'd policy rules.
///
/// * `ttl == 0` means rules never expire — the legacy permanent-rule
///   behavior, byte-identical to a plain set.
/// * `capacity == 0` means unbounded; otherwise installs beyond the cap
///   are rejected (and counted) until something expires.
#[derive(Debug, Clone)]
pub struct PolicyStore<K> {
    ttl: Nanos,
    capacity: usize,
    /// Rule → expiry instant (`Nanos::MAX` when `ttl == 0`). A `BTreeMap`
    /// so every sweep — purge teardown, future occupancy probes — visits
    /// rules in key order, never in a per-process hash order.
    entries: BTreeMap<K, Nanos>,
    /// Lifecycle counters.
    pub stats: PolicyStats,
}

impl<K: Ord> PolicyStore<K> {
    /// An empty store. `ttl == 0` disables expiry; `capacity == 0` means
    /// unbounded.
    pub fn new(ttl: Nanos, capacity: usize) -> Self {
        PolicyStore { ttl, capacity, entries: BTreeMap::new(), stats: PolicyStats::default() }
    }

    /// Install or refresh a rule at time `now`. Returns `false` when the
    /// store is full and the rule was not already present. A TTL reaching
    /// past `Nanos::MAX` saturates there: the rule never expires.
    pub fn insert(&mut self, now: Nanos, key: K) -> bool {
        let expiry = if self.ttl == 0 { Nanos::MAX } else { now.saturating_add(self.ttl) };
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = expiry;
            self.stats.refreshed += 1;
            return true;
        }
        if self.capacity > 0 && self.entries.len() >= self.capacity {
            self.stats.rejected += 1;
            return false;
        }
        self.entries.insert(key, expiry);
        self.stats.installed += 1;
        true
    }

    /// Whether a live (non-expired) rule for `key` exists at time `now`.
    pub fn contains(&self, now: Nanos, key: &K) -> bool {
        self.entries.get(key).is_some_and(|&expiry| now < expiry)
    }

    /// The expiry instant of a rule, live or not.
    pub fn expiry_of(&self, key: &K) -> Option<Nanos> {
        self.entries.get(key).copied()
    }

    /// Drop every rule whose TTL lapsed by `now`, returning the purged
    /// keys (so callers can tear down derived state, e.g. uninstall the
    /// expired key from a router's key table).
    pub fn purge(&mut self, now: Nanos) -> Vec<K>
    where
        K: Clone,
    {
        if self.ttl == 0 {
            return Vec::new();
        }
        // Key order (BTreeMap), so the teardown callbacks driven by the
        // returned list run deterministically.
        let dead: Vec<K> =
            self.entries.iter().filter(|(_, &e)| now >= e).map(|(k, _)| k.clone()).collect();
        for k in &dead {
            self.entries.remove(k);
        }
        self.stats.expired += dead.len() as u64;
        dead
    }

    /// Forcibly evict up to `n` rules before their TTL (a memory-pressure
    /// fault), returning the evicted keys so callers can tear down derived
    /// state. Victims are chosen earliest-expiry first — the rules closest
    /// to dying anyway — with ties broken in key order, so the eviction
    /// sequence is fully deterministic.
    pub fn evict_oldest(&mut self, n: usize) -> Vec<K>
    where
        K: Clone,
    {
        let mut victims: Vec<(Nanos, K)> =
            self.entries.iter().map(|(k, &e)| (e, k.clone())).collect();
        // BTreeMap iteration is already key-ordered, so a stable sort on
        // expiry keeps the key-order tiebreak.
        victims.sort_by_key(|(e, _)| *e);
        victims.truncate(n);
        let evicted: Vec<K> = victims.into_iter().map(|(_, k)| k).collect();
        for k in &evicted {
            self.entries.remove(k);
        }
        self.stats.evicted += evicted.len() as u64;
        evicted
    }

    /// Drop every rule, as a reboot loses its table. The TTL, the capacity
    /// and the lifecycle counters (measurement, not router state) stay.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of stored rules (live and expired-but-unpurged).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no rules.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::time::SEC;

    #[test]
    fn ttl_zero_behaves_like_a_permanent_set() {
        let mut s: PolicyStore<u32> = PolicyStore::new(0, 0);
        assert!(s.insert(0, 7));
        assert!(s.contains(u64::MAX - 1, &7));
        assert!(s.purge(u64::MAX - 1).is_empty());
        assert_eq!(s.stats.installed, 1);
        assert_eq!(s.stats.expired, 0);
    }

    #[test]
    fn rules_expire_and_refresh_extends_life() {
        let mut s: PolicyStore<u32> = PolicyStore::new(2 * SEC, 0);
        s.insert(0, 1);
        assert!(s.contains(SEC, &1));
        assert!(!s.contains(2 * SEC, &1), "expired exactly at TTL");
        // A refresh at 1s pushes expiry to 3s.
        s.insert(SEC, 1);
        assert!(s.contains(2 * SEC, &1));
        assert_eq!(s.stats.refreshed, 1);
        let dead = s.purge(3 * SEC);
        assert_eq!(dead, vec![1]);
        assert_eq!(s.stats.expired, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn a_ttl_past_the_end_of_time_saturates() {
        let mut s: PolicyStore<u32> = PolicyStore::new(Nanos::MAX, 0);
        assert!(s.insert(SEC, 1));
        assert_eq!(s.expiry_of(&1), Some(Nanos::MAX));
        assert!(s.purge(Nanos::MAX - 1).is_empty());
    }

    #[test]
    fn capacity_rejects_new_rules_but_allows_refresh() {
        let mut s: PolicyStore<u32> = PolicyStore::new(SEC, 2);
        assert!(s.insert(0, 1));
        assert!(s.insert(0, 2));
        assert!(!s.insert(0, 3), "store is full");
        assert!(s.insert(0, 1), "refreshing a resident rule is always allowed");
        assert_eq!(s.stats.rejected, 1);
        assert_eq!(s.len(), 2);
        // Expiry frees capacity.
        s.purge(SEC);
        assert!(s.insert(SEC, 3));
    }

    #[test]
    fn forced_eviction_is_deterministic_and_earliest_expiry_first() {
        let mut s: PolicyStore<u32> = PolicyStore::new(10 * SEC, 0);
        // Stagger expiries: key 5 dies first, then 1, then 9. Keys 2 and 7
        // share an expiry — the key-order tiebreak must evict 2 before 7.
        s.insert(0, 5);
        s.insert(SEC, 1);
        s.insert(2 * SEC, 9);
        s.insert(3 * SEC, 2);
        s.insert(3 * SEC, 7);
        assert_eq!(s.evict_oldest(2), vec![5, 1]);
        assert_eq!(s.evict_oldest(2), vec![9, 2]);
        assert_eq!(s.stats.evicted, 4);
        assert_eq!(s.len(), 1);
        // Asking for more than remains evicts what's there and stops.
        assert_eq!(s.evict_oldest(10), vec![7]);
        assert!(s.is_empty());
        assert_eq!(s.evict_oldest(3), Vec::<u32>::new());
        assert_eq!(s.stats.evicted, 5);
    }

    #[test]
    fn capacity_boundary_under_ttl_churn() {
        // A store pinned at capacity while TTLs churn: rejected installs
        // must not displace residents, refreshes must not consume slots,
        // and each purge frees exactly the lapsed slots.
        let mut s: PolicyStore<u32> = PolicyStore::new(2 * SEC, 3);
        assert!(s.insert(0, 10));
        assert!(s.insert(SEC, 20));
        assert!(s.insert(SEC, 30));
        // At capacity: a new key bounces, even while a resident is mid-TTL.
        assert!(!s.insert(SEC, 40));
        // Refreshing at the boundary keeps the store full but is allowed.
        assert!(s.insert(SEC, 10));
        assert_eq!(s.len(), 3);
        assert_eq!(s.stats.rejected, 1);
        // Key 10 was refreshed at 1s (expiry 3s); 20 and 30 lapse at 3s
        // too — purge at 3s clears all three deterministically, in key
        // order.
        assert_eq!(s.purge(3 * SEC), vec![10, 20, 30]);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_empties_the_rules_and_keeps_settings_and_stats() {
        let mut s: PolicyStore<u32> = PolicyStore::new(2 * SEC, 2);
        assert!(s.insert(0, 1));
        assert!(s.insert(0, 2));
        assert!(!s.insert(0, 3));
        s.insert(SEC, 1);
        let before = s.stats;
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats, before);
        // The TTL and the capacity survive: a re-insert is a fresh install
        // that expires 2 s later, and the third key still bounces.
        assert!(s.insert(5 * SEC, 1));
        assert_eq!(s.stats.installed, before.installed + 1);
        assert_eq!(s.expiry_of(&1), Some(7 * SEC));
        assert!(s.insert(5 * SEC, 2));
        assert!(!s.insert(5 * SEC, 3));
    }

    #[test]
    fn reinsertion_after_purge_is_indistinguishable_from_first_insertion() {
        let churn = |s: &mut PolicyStore<u32>, base: Nanos| {
            assert!(s.insert(base, 1));
            assert!(s.insert(base, 2));
            assert!(!s.insert(base, 3), "capacity 2");
            assert!(s.contains(base + SEC, &1));
            assert_eq!(s.purge(base + 2 * SEC), vec![1, 2]);
        };
        // First generation...
        let mut s: PolicyStore<u32> = PolicyStore::new(2 * SEC, 2);
        churn(&mut s, 0);
        let first = s.stats;
        // ...and an identical second generation after the purge: the store
        // behaves exactly like a fresh one (same accepts/rejects/expiry),
        // and the counters advance by exactly one generation's worth.
        churn(&mut s, 10 * SEC);
        assert_eq!(s.stats.installed, 2 * first.installed);
        assert_eq!(s.stats.rejected, 2 * first.rejected);
        assert_eq!(s.stats.expired, 2 * first.expired);
        assert_eq!(s.expiry_of(&1), None);
    }
}
