//! Figure 9: colluding (regular-packet) flooding attacks.
//!
//! Malicious sender–receiver pairs flood regular packets through the
//! bottleneck; 25% of each source AS's hosts are legitimate users sending
//! TCP traffic (long-running in 9a, web-like in 9b) to the victim. The
//! metric is the throughput ratio between the average legitimate user and
//! the average attacker (ideal = 1), plus the Jain fairness index among
//! users and the bottleneck utilization.

use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{pct, table_of};

/// User traffic model of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserTraffic {
    /// Figure 9(a): a single long-running TCP flow per user.
    LongRunning,
    /// Figure 9(b): web-like traffic (Pareto/exponential mixture sizes).
    WebLike,
}

impl UserTraffic {
    fn traffic_spec(self) -> TrafficSpec {
        match self {
            UserTraffic::LongRunning => TrafficSpec::LongRunningTcp,
            UserTraffic::WebLike => TrafficSpec::WebLike,
        }
    }
}

/// One point of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Number of senders represented.
    pub represented_senders: u64,
    /// The defense system.
    pub system: DefenseKind,
    /// User traffic model.
    pub traffic: UserTraffic,
    /// Throughput ratio (avg user / avg attacker).
    pub throughput_ratio: f64,
    /// Jain fairness index among legitimate users.
    pub fairness_index: f64,
    /// Bottleneck utilization.
    pub utilization: f64,
}

/// The Figure 9 sweep (same scaling as Figure 8).
pub const FIG9_SWEEP: [(u64, u64); 4] =
    [(25_000, 400_000), (50_000, 200_000), (100_000, 100_000), (200_000, 50_000)];

/// The Figure 9 scenario: 25% legitimate users per AS (at least one), the
/// rest flooding colluding receivers behind the bottleneck.
pub fn fig9_spec(
    scale: &Scale,
    system: DefenseKind,
    traffic: UserTraffic,
    fair_share: u64,
) -> ScenarioSpec {
    let colluders = 9.min(scale.senders() / 4).max(1);
    ScenarioSpec::dumbbell(*scale)
        .named("fig9-colluding-flood")
        .defense(system)
        .fair_share(fair_share)
        .legit_fraction(0.25)
        .users(traffic.traffic_spec())
        .user_start(StartSchedule::staggered(20, 50 * MILLI))
        .attackers(TrafficSpec::cbr(1_000_000), AttackTarget::Colluders { ases: colluders })
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

fn to_point(represented: u64, system: DefenseKind, traffic: UserTraffic, r: &Record) -> Fig9Point {
    Fig9Point {
        represented_senders: represented,
        system,
        traffic,
        throughput_ratio: r.throughput_ratio(),
        fairness_index: r.user_fairness(),
        utilization: r.bottleneck_utilization(),
    }
}

/// Run one (system, point) cell of Figure 9.
pub fn run_fig9_cell(
    scale: &Scale,
    system: DefenseKind,
    traffic: UserTraffic,
    represented: u64,
    fair_share: u64,
) -> Fig9Point {
    let r = Runner::new(fig9_spec(scale, system, traffic, fair_share)).run();
    to_point(represented, system, traffic, &r)
}

/// Run the full Figure 9 sweep (one traffic model) for the given systems
/// (cells in parallel).
pub fn run_fig9(scale: &Scale, systems: &[DefenseKind], traffic: UserTraffic) -> Vec<Fig9Point> {
    SweepGrid::new(systems.to_vec(), FIG9_SWEEP.to_vec())
        .run_auto(|system, &(_, fair_share)| fig9_spec(scale, system, traffic, fair_share))
        .iter()
        .map(|c| to_point(c.point.0, c.system, traffic, &c.record))
        .collect()
}

/// `netfence run fig9`: panels (a) and (b) over every defense.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let mut out = String::new();
    for (traffic, title) in [
        (UserTraffic::LongRunning, "(a) long-running TCP"),
        (UserTraffic::WebLike, "(b) web-like traffic"),
    ] {
        let headers = ["senders", "system", "tput ratio", "fairness", "utilization"];
        out += &format!(
            "Figure 9{title}: colluding regular-packet floods, {} simulated senders per point\n\n{}\n",
            scale.senders(),
            table_of(&headers, &run_fig9(&scale, &DefenseKind::ALL, traffic), |p| vec![
                format!("{}K", p.represented_senders / 1000),
                p.system.label().to_string(),
                format!("{:.2}", p.throughput_ratio),
                format!("{:.3}", p.fairness_index),
                pct(p.utilization),
            ])
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfence_throughput_ratio_is_near_one_for_long_running_tcp() {
        let mut scale = Scale::tiny();
        scale.sim_time = 120 * SEC;
        let p = run_fig9_cell(
            &scale,
            DefenseKind::NetFence,
            UserTraffic::LongRunning,
            100_000,
            100_000,
        );
        assert!(
            p.throughput_ratio > 0.5,
            "NetFence should give users a comparable share, got ratio {}",
            p.throughput_ratio
        );
        assert!(p.fairness_index > 0.6, "fairness {}", p.fairness_index);
        assert!(p.utilization > 0.5, "utilization {}", p.utilization);
    }

    #[test]
    fn no_defense_ratio_is_poor() {
        let mut scale = Scale::tiny();
        scale.sim_time = 60 * SEC;
        let p =
            run_fig9_cell(&scale, DefenseKind::None, UserTraffic::LongRunning, 100_000, 100_000);
        assert!(
            p.throughput_ratio < 0.5,
            "without defense the attackers should dominate, got {}",
            p.throughput_ratio
        );
    }
}
