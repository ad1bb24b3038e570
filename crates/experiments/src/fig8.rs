//! Figure 8: unwanted-traffic (request) flooding attacks.
//!
//! Attackers flood the victim, the victim identifies the attack traffic and
//! uses each system's mechanism to block it (capabilities, secure congestion
//! policing feedback, filters). Legitimate users repeatedly transfer a 20 KB
//! file to the victim; the metric is the average time of a successful
//! transfer and the completion ratio, as the number of (represented)
//! senders grows from 25 K to 200 K.

use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{pct, secs2, table_of};

/// The (represented senders, per-sender fair share) sweep of Figure 8: a
/// fixed 10 Gbps link shared by 25 K–200 K senders.
pub const FIG8_SWEEP: [(u64, u64); 4] =
    [(25_000, 400_000), (50_000, 200_000), (100_000, 100_000), (200_000, 50_000)];

/// The Figure 8 scenario: one legitimate user per AS repeatedly fetching a
/// 20 KB file from the victim, everyone else flooding it with 1 Mbps CBR.
pub fn fig8_spec(scale: &Scale, system: DefenseKind, fair_share: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(*scale)
        .named("fig8-unwanted-flood")
        .defense(system)
        .fair_share(fair_share)
        .legit_per_as(1)
        // A 5 s gap keeps each transfer outside the 4 s feedback /
        // capability lifetime so that every transfer pays the full
        // connection-setup cost, as in the paper's experiment.
        .users(TrafficSpec::repeated_file(20_000, 5 * SEC))
        .user_start(StartSchedule::staggered(10, 100 * MILLI))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

/// `netfence run fig8`: the sweep over every defense as a text table.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let cells = SweepGrid::new(DefenseKind::ALL, FIG8_SWEEP)
        .run_auto(|system, &(_, fair_share)| fig8_spec(&scale, system, fair_share));
    let headers = ["senders", "system", "avg transfer (s)", "completed"];
    format!(
        "Figure 8: unwanted request flooding, {} simulated senders per point, {}s simulated\n\n{}\n",
        scale.senders(),
        scale.sim_time / SEC,
        table_of(&headers, &cells, |c| vec![
            format!("{}K", c.point.0 / 1000),
            c.system.label().to_string(),
            secs2(c.record.avg_user_transfer_secs()),
            pct(c.record.user_completion_ratio()),
        ])
    )
}

/// `netfence run fig8 --trace`: the NetFence cell at the 100 K-sender
/// point, goodput sampled every 500 ms.
pub fn traced_spec(size: Size) -> ScenarioSpec {
    fig8_spec(&size.scale(), DefenseKind::NetFence, 100_000).sampled(500 * MILLI)
}
