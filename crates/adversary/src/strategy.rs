//! The declarative strategy vocabulary.

use netfence_sim::time::{Nanos, SEC};

/// How a [`AttackStrategy::Shrew`] agent times its pulses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrewTiming {
    /// Tune the duty cycle to the defense's AIMD control interval from the
    /// [`StrategyCtx`](crate::StrategyCtx): one burst of `Ilim/4` per
    /// control interval, so every interval observes congestion (and
    /// decreases the rate limit) while the attacker's average rate stays
    /// at a quarter of its burst rate.
    Tuned,
    /// Explicit pulse timing — synchronized on-off bursts (§5.2.1), for
    /// figure scenarios that sweep `Ton`/`Toff` themselves.
    Fixed {
        /// Burst length.
        on: Nanos,
        /// Silence length.
        off: Nanos,
    },
}

impl ShrewTiming {
    /// Resolve to a concrete `(on, off)` pair; `aimd_interval` is asked
    /// only by [`ShrewTiming::Tuned`].
    pub fn resolve(&self, aimd_interval: impl FnOnce() -> Nanos) -> (Nanos, Nanos) {
        match *self {
            ShrewTiming::Tuned => {
                let ilim = aimd_interval().max(4);
                (ilim / 4, ilim - ilim / 4)
            }
            ShrewTiming::Fixed { on, off } => (on, off),
        }
    }
}

/// One attacker strategy: what an attacker does over the run.
///
/// Strategies are pure descriptions (`Copy`, comparable, hashable into
/// sweep grids); [`AttackStrategy::build_flow`] instantiates the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStrategy {
    /// A constant-bit-rate UDP flood for the whole run.
    Static {
        /// Sending rate, bits per second.
        rate_bps: u64,
    },
    /// Low-rate shrew pulses tuned to the rate limiter's AIMD period.
    Shrew {
        /// Burst rate, bits per second.
        rate_bps: u64,
        /// Pulse timing.
        timing: ShrewTiming,
    },
    /// Shift the flood across the scenario's attack-target ring — on a
    /// multi-bottleneck mesh that moves the full attack force from one
    /// bottleneck to the next every `dwell`, faster than a per-bottleneck
    /// defense converges.
    Rolling {
        /// Flood rate, bits per second.
        rate_bps: u64,
        /// Time spent on each target before moving on.
        dwell: Nanos,
    },
    /// Probe the deployed defense: cycle through candidate loads for one
    /// `epoch` each while measuring own delivered bytes, then commit to the
    /// candidate the defense handled worst (most attacker bytes through) —
    /// colluding flood vs NetFence, filter churn vs TTL'd StopIt filters,
    /// plain flood when nothing engages.
    Probe {
        /// Flood rate of every candidate, bits per second.
        rate_bps: u64,
        /// Measurement window per candidate.
        epoch: Nanos,
    },
    /// Mimic a legitimate flash crowd: a staircase ramp up to `peak_bps`,
    /// a hold, and a symmetric decay, repeating, with per-agent start
    /// jitter drawn from the agent's dedicated RNG stream.
    FlashMimic {
        /// Peak surge rate, bits per second.
        peak_bps: u64,
        /// Ramp-up (and ramp-down) duration.
        ramp: Nanos,
        /// Time spent at the peak (and in the trough).
        hold: Nanos,
    },
}

impl AttackStrategy {
    /// A static constant-bit-rate flood at `rate_bps`.
    pub fn static_cbr(rate_bps: u64) -> Self {
        AttackStrategy::Static { rate_bps }
    }

    /// A shrew tuned to the defense's AIMD interval.
    pub fn shrew_tuned(rate_bps: u64) -> Self {
        AttackStrategy::Shrew { rate_bps, timing: ShrewTiming::Tuned }
    }

    /// A shrew with explicit pulse timing.
    pub fn shrew_fixed(rate_bps: u64, on: Nanos, off: Nanos) -> Self {
        AttackStrategy::Shrew { rate_bps, timing: ShrewTiming::Fixed { on, off } }
    }

    /// The canonical tournament lineup: one representative of each
    /// strategy family at a common per-attacker rate.
    pub fn lineup(rate_bps: u64) -> Vec<AttackStrategy> {
        vec![
            AttackStrategy::static_cbr(rate_bps),
            AttackStrategy::shrew_tuned(rate_bps),
            AttackStrategy::Rolling { rate_bps, dwell: 5 * SEC },
            AttackStrategy::Probe { rate_bps, epoch: 3 * SEC },
            AttackStrategy::FlashMimic { peak_bps: 4 * rate_bps, ramp: 4 * SEC, hold: 4 * SEC },
        ]
    }

    /// Short display name for tables and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            AttackStrategy::Static { .. } => "static-cbr",
            AttackStrategy::Shrew { .. } => "shrew",
            AttackStrategy::Rolling { .. } => "rolling",
            AttackStrategy::Probe { .. } => "probe",
            AttackStrategy::FlashMimic { .. } => "flash-mimic",
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategic_priority_matches_paper_narrative() {
        /// The back-off priority a legitimate sender reaches after waiting
        /// `waited` (what `netfence_core`'s `SenderShim::make_header` does).
        fn legitimate_priority_after(waited: Nanos, l1_per_sec: f64, max_level: u8) -> u8 {
            let tokens = waited as f64 / SEC as f64 * l1_per_sec;
            let mut level = 0u8;
            while level < max_level && ((1u64 << level) as f64) <= tokens {
                level += 1;
            }
            level
        }
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
    fn tuned_shrew_fits_one_burst_per_control_interval() {
        let (on, off) = ShrewTiming::Tuned.resolve(|| 2 * SEC);
        assert_eq!(on, SEC / 2);
        assert_eq!(on + off, 2 * SEC);
        let (on, off) = ShrewTiming::Fixed { on: SEC, off: 3 * SEC }.resolve(|| 2 * SEC);
        assert_eq!((on, off), (SEC, 3 * SEC));
    }

    #[test]
    fn lineup_covers_all_five_families() {
        let lineup = AttackStrategy::lineup(1_000_000);
        let labels: Vec<&str> = lineup.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["static-cbr", "shrew", "rolling", "probe", "flash-mimic"]);
    }
}
