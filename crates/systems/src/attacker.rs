//! Strategic attacker arithmetic used by the evaluation (§6.3).
//!
//! The attack *traffic* is generated by the adaptive agents of
//! `netfence-adversary` (see `AttackStrategy` there); this module keeps the
//! closed-form pieces the experiment harnesses size scenarios with: the
//! strategically chosen request-packet priority of §6.3.1 and the
//! legitimate sender's back-off priority it races against.

use netfence_sim::time::{Nanos, SEC};

/// The strategic request-priority choice of §6.3.1: attackers "always select
/// the highest priority level at which the aggregate attack traffic can
/// saturate the request channel".
///
/// * `attackers` — number of flooding senders;
/// * `request_channel_bps` — capacity of the request channel (5% of the
///   bottleneck);
/// * `request_pkt_bytes` — request packet size (92 B in the paper);
/// * `l1_per_sec` — per-sender token refill rate (one level-1 packet per
///   `l1`, i.e. 1000/s);
/// * `max_level` — the highest priority level senders may use.
pub fn strategic_request_priority(
    attackers: u64,
    request_channel_bps: f64,
    request_pkt_bytes: f64,
    l1_per_sec: f64,
    max_level: u8,
) -> u8 {
    let channel_pkts_per_sec = request_channel_bps / (request_pkt_bytes * 8.0);
    let mut best = 0u8;
    for level in 1..=max_level {
        // At level k each attacker can emit l1_per_sec / 2^(k-1) packets/s.
        let per_attacker = l1_per_sec / (1u64 << (level - 1)) as f64;
        if attackers as f64 * per_attacker >= channel_pkts_per_sec {
            best = level;
        }
    }
    best
}

/// The back-off priority a legitimate sender reaches after waiting `waited`
/// (mirrors `netfence_core::endpoint::SenderShim::make_header` for use
/// in experiment sizing).
pub fn legitimate_priority_after(waited: Nanos, l1_per_sec: f64, max_level: u8) -> u8 {
    let tokens = waited as f64 / SEC as f64 * l1_per_sec;
    let mut level = 0u8;
    while level < max_level && ((1u64 << level) as f64) <= tokens {
        level += 1;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::time::MILLI;

    #[test]
    fn strategic_priority_matches_paper_narrative() {
        // The Figure 8 setting scaled to 200K senders: ~990 attackers, a
        // 50 Mbps bottleneck, 5% request channel (2.5 Mbps), 92 B requests,
        // l1 = 1 ms. Attackers can saturate the channel up to roughly level
        // 9, and a legitimate sender that has waited 1 s sends at level 10 —
        // which beats them (§6.3.1).
        let level = strategic_request_priority(990, 2_500_000.0, 92.0, 1000.0, 16);
        assert!((8..=9).contains(&level), "attacker level {level}");
        let legit = legitimate_priority_after(SEC, 1000.0, 16);
        assert_eq!(legit, 10);
        assert!(legit > level);
    }

    #[test]
    fn strategic_priority_shrinks_with_fewer_attackers() {
        let many = strategic_request_priority(10_000, 2_500_000.0, 92.0, 1000.0, 16);
        let few = strategic_request_priority(50, 2_500_000.0, 92.0, 1000.0, 16);
        assert!(many > few);
        // A single attacker that cannot even saturate the channel at level 1
        // gets level 0.
        assert_eq!(strategic_request_priority(1, 2_500_000.0, 92.0, 1000.0, 16), 0);
    }

    #[test]
    fn legitimate_priority_growth() {
        assert_eq!(legitimate_priority_after(0, 1000.0, 16), 0);
        assert_eq!(legitimate_priority_after(MILLI, 1000.0, 16), 1);
        assert!(
            legitimate_priority_after(10 * SEC, 1000.0, 16)
                > legitimate_priority_after(SEC, 1000.0, 16)
        );
    }
}
