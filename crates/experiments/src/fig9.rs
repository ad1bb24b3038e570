//! Figure 9: colluding (regular-packet) flooding attacks.
//!
//! Malicious sender–receiver pairs flood regular packets through the
//! bottleneck; 25% of each source AS's hosts are legitimate users sending
//! TCP traffic (long-running in 9a, web-like in 9b) to the victim. The
//! metric is the throughput ratio between the average legitimate user and
//! the average attacker (ideal = 1), plus the Jain fairness index among
//! users and the bottleneck utilization.

use netfence_sim::prelude::*;

use crate::fig8::FIG8_SWEEP;
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
        .attackers(
            AttackStrategy::static_cbr(1_000_000),
            AttackTarget::Colluders { ases: colluders },
        )
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

/// `netfence run fig9`: panels (a) and (b) over every defense.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let mut out = String::new();
    for (traffic, title) in [
        (UserTraffic::LongRunning, "(a) long-running TCP"),
        (UserTraffic::WebLike, "(b) web-like traffic"),
    ] {
        // Same sweep (and scaling) as Figure 8.
        let cells = SweepGrid::new(DefenseKind::ALL, FIG8_SWEEP)
            .run_auto(|system, &(_, fair_share)| fig9_spec(&scale, system, traffic, fair_share));
        let headers = ["senders", "system", "tput ratio", "fairness", "utilization"];
        out += &format!(
            "Figure 9{title}: colluding regular-packet floods, {} simulated senders per point\n\n{}\n",
            scale.senders(),
            table_of(&headers, &cells, |c| vec![
                format!("{}K", c.point.0 / 1000),
                c.system.label().to_string(),
                format!("{:.2}", c.record.throughput_ratio()),
                format!("{:.3}", c.record.user_fairness()),
                pct(c.record.bottleneck_utilization()),
            ])
        );
    }
    out
}
