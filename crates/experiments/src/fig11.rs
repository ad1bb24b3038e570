//! Figure 11: microscopic on-off (shrew-style) attacks.
//!
//! Attackers synchronize bursts of `Ton` at 1 Mbps followed by `Toff` of
//! silence, trying to congest the bottleneck with bursts while keeping
//! their average rate low. The figure plots the average legitimate-user
//! (long-running TCP) throughput against `Toff` for `Ton` of 0.5 s and 4 s,
//! showing that the attack cannot push a user below its fair share and that
//! users reclaim the idle bandwidth as `Toff` grows.

use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, table_of};

/// The Figure 11 scenario: 25% long-running TCP users, synchronized on-off
/// UDP attackers flooding colluders. All attackers start at the same
/// instant so their bursts align — the worst case discussed in §5.2.1.
///
/// The pulse itself is [`AttackStrategy::Shrew`] with the figure's fixed
/// (`Ton`, `Toff`) timing.
pub fn fig11_spec(scale: &Scale, fair_share: u64, ton: Nanos, toff: Nanos) -> ScenarioSpec {
    let colluders = 3.min(scale.src_ases).max(1);
    ScenarioSpec::dumbbell(*scale)
        .named("fig11-onoff")
        .defense(DefenseKind::NetFence)
        .fair_share(fair_share)
        .legit_fraction(0.25)
        .users(TrafficSpec::LongRunningTcp)
        .user_start(StartSchedule::staggered(20, 50 * MILLI))
        .attackers(
            AttackStrategy::shrew_fixed(1_000_000, ton, toff),
            AttackTarget::Colluders { ases: colluders },
        )
        .attacker_start(StartSchedule::Synchronized)
}

/// `netfence run fig11`: user throughput per (Ton, Toff) at a 100 kbps
/// fair share.
pub fn table(size: Size) -> String {
    let scale = size.scale_for(80, 300);
    let toffs: &[f64] = if size.is_quick() { &[1.5, 10.0] } else { &[1.5, 5.0, 10.0, 30.0, 100.0] };
    let mut points: Vec<(Nanos, Nanos)> = Vec::new();
    for ton_s in [0.5, 4.0] {
        for &toff_s in toffs {
            points.push((secs(ton_s), secs(toff_s)));
        }
    }
    let cells = SweepGrid::new([DefenseKind::NetFence], points)
        .run_auto(|_, &(ton, toff)| fig11_spec(&scale, 100_000, ton, toff));
    format!(
        "Figure 11: synchronized on-off attacks, {} senders, fair share 100 kbps\n\n{}\n",
        scale.senders(),
        table_of(&["Ton (s)", "Toff (s)", "user throughput (kbps)"], &cells, |c| vec![
            format!("{:.1}", c.point.0 as f64 / 1e9),
            format!("{:.1}", c.point.1 as f64 / 1e9),
            kbps(c.record.avg_user_bps()),
        ])
    )
}
