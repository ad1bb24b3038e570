//! Congestion quota (§7 of the paper, an extension borrowed from re-ECN).
//!
//! If legitimate users have limited traffic demand at attack times while
//! attackers persistently congest a bottleneck, the damage of an attack can
//! be weakened further by charging each sender a *congestion quota* per
//! bottleneck link: only a bounded amount of "congestion traffic" — traffic
//! that passes a rate limiter while its rate limit is decreasing — is
//! admitted per accounting period. A persistent flooder exhausts its quota
//! and is throttled; a sender whose traffic avoids links under attack is
//! never charged (the quota is per (sender, bottleneck link), unlike
//! re-ECN's per-sender quota).

use netfence_telemetry::IdMap;

use crate::types::{LimiterKey, Nanos};

/// Per-(sender, bottleneck link) congestion-quota accounting.
#[derive(Debug, Clone)]
struct QuotaState {
    /// Congestion bytes charged in the current period.
    used: u64,
    /// Start of the current accounting period.
    period_start: Nanos,
}

/// The congestion-quota policer an access router can stack on top of the
/// per-(sender, bottleneck) rate limiters.
#[derive(Debug)]
pub struct CongestionQuota {
    /// Maximum congestion bytes admitted per period.
    quota_bytes: u64,
    /// Accounting period length.
    period: Nanos,
    state: IdMap<LimiterKey, QuotaState>,
}

impl CongestionQuota {
    /// Create a quota policer: at most `quota_bytes` of congestion traffic
    /// per `period` for each (sender, bottleneck link).
    pub fn new(quota_bytes: u64, period: Nanos) -> Self {
        CongestionQuota { quota_bytes, period, state: IdMap::default() }
    }

    /// Account a packet of `bytes` for `key`.
    ///
    /// `limit_decreasing` is true when the packet passed its rate limiter
    /// while the limiter's rate was being decreased (i.e. while the
    /// bottleneck kept reporting `L↓`) — that is the definition of
    /// congestion traffic in §7. Returns `true` if the packet is admitted,
    /// `false` if the sender has exhausted its quota for this link.
    pub fn admit(
        &mut self,
        now: Nanos,
        key: LimiterKey,
        bytes: usize,
        limit_decreasing: bool,
    ) -> bool {
        let st = self.state.entry(key).or_insert(QuotaState { used: 0, period_start: now });
        if now.saturating_sub(st.period_start) >= self.period {
            st.used = 0;
            st.period_start = now;
        }
        if !limit_decreasing {
            return true;
        }
        if st.used + bytes as u64 > self.quota_bytes {
            return false;
        }
        st.used += bytes as u64;
        true
    }

    /// Remaining quota for a key in the current period.
    pub fn remaining(&self, now: Nanos, key: LimiterKey) -> u64 {
        match self.state.get(&key) {
            None => self.quota_bytes,
            Some(st) => {
                if now.saturating_sub(st.period_start) >= self.period {
                    self.quota_bytes
                } else {
                    self.quota_bytes.saturating_sub(st.used)
                }
            }
        }
    }

    /// Number of (sender, link) pairs currently tracked.
    pub fn tracked(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HostId, LinkId, SEC};

    fn key(src: u32, link: u32) -> LimiterKey {
        LimiterKey { src: HostId(src), link: LinkId(link) }
    }

    #[test]
    fn non_congestion_traffic_is_never_charged() {
        let mut q = CongestionQuota::new(10_000, 60 * SEC);
        for i in 0..1000 {
            assert!(q.admit(i * SEC / 100, key(1, 9), 1500, false));
        }
        assert_eq!(q.remaining(10 * SEC, key(1, 9)), 10_000);
    }

    #[test]
    fn persistent_flooder_exhausts_quota() {
        let mut q = CongestionQuota::new(10_000, 60 * SEC);
        let mut admitted = 0;
        for i in 0..100 {
            if q.admit(i, key(1, 9), 1500, true) {
                admitted += 1;
            }
        }
        // 10 kB quota / 1500 B packets = 6 packets.
        assert_eq!(admitted, 6);
        assert_eq!(q.remaining(0, key(1, 9)), 10_000 - 6 * 1500);
    }

    #[test]
    fn quota_resets_each_period() {
        let mut q = CongestionQuota::new(3_000, 10 * SEC);
        assert!(q.admit(0, key(1, 9), 1500, true));
        assert!(q.admit(1, key(1, 9), 1500, true));
        assert!(!q.admit(2, key(1, 9), 1500, true));
        // Next period: quota restored.
        assert!(q.admit(11 * SEC, key(1, 9), 1500, true));
        assert_eq!(q.remaining(11 * SEC, key(1, 9)), 1_500);
    }

    #[test]
    fn quota_is_per_sender_and_per_link() {
        let mut q = CongestionQuota::new(1_500, 60 * SEC);
        assert!(q.admit(0, key(1, 9), 1500, true));
        assert!(!q.admit(1, key(1, 9), 1500, true));
        // A different link of the same sender, and a different sender on the
        // same link, are unaffected.
        assert!(q.admit(2, key(1, 10), 1500, true));
        assert!(q.admit(3, key(2, 9), 1500, true));
        assert_eq!(q.tracked(), 3);
    }
}
