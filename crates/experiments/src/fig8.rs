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

/// One point of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Number of senders this run represents (25 K – 200 K in the paper).
    pub represented_senders: u64,
    /// Per-sender fair share of the bottleneck in bits per second.
    pub fair_share_bps: u64,
    /// The defense system.
    pub system: DefenseKind,
    /// Average successful 20 KB transfer time, seconds.
    pub avg_transfer_secs: f64,
    /// Fraction of attempted transfers that completed.
    pub completion_ratio: f64,
}

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
        .attackers(TrafficSpec::cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

fn to_point(represented: u64, fair_share: u64, system: DefenseKind, r: &Record) -> Fig8Point {
    Fig8Point {
        represented_senders: represented,
        fair_share_bps: fair_share,
        system,
        avg_transfer_secs: r.avg_user_transfer_secs().unwrap_or(f64::NAN),
        completion_ratio: r.user_completion_ratio(),
    }
}

/// Run one (system, sweep point) cell and return its Figure 8 point.
pub fn run_fig8_cell(
    scale: &Scale,
    system: DefenseKind,
    represented: u64,
    fair_share: u64,
) -> Fig8Point {
    let r = Runner::new(fig8_spec(scale, system, fair_share)).run();
    to_point(represented, fair_share, system, &r)
}

/// Run the full Figure 8 sweep for the given systems (cells in parallel).
pub fn run_fig8(scale: &Scale, systems: &[DefenseKind]) -> Vec<Fig8Point> {
    SweepGrid::new(systems.to_vec(), FIG8_SWEEP.to_vec())
        .run_auto(|system, &(_, fair_share)| fig8_spec(scale, system, fair_share))
        .iter()
        .map(|c| to_point(c.point.0, c.point.1, c.system, &c.record))
        .collect()
}

/// `netfence run fig8`: the sweep over every defense as a text table.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let headers = ["senders", "system", "avg transfer (s)", "completed"];
    format!(
        "Figure 8: unwanted request flooding, {} simulated senders per point, {}s simulated\n\n{}\n",
        scale.senders(),
        scale.sim_time / SEC,
        table_of(&headers, &run_fig8(&scale, &DefenseKind::ALL), |p| vec![
            format!("{}K", p.represented_senders / 1000),
            p.system.label().to_string(),
            secs2(p.avg_transfer_secs),
            pct(p.completion_ratio),
        ])
    )
}

/// `netfence run fig8 --trace`: the NetFence cell at the 100 K-sender
/// point, goodput sampled every 500 ms.
pub fn traced_spec(size: Size) -> ScenarioSpec {
    fig8_spec(&size.scale(), DefenseKind::NetFence, 100_000).sampled(500 * MILLI)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfence_completes_transfers_under_request_flood() {
        let scale = Scale::tiny();
        let p = run_fig8_cell(&scale, DefenseKind::NetFence, 100_000, 100_000);
        assert!(p.completion_ratio > 0.8, "completion ratio {}", p.completion_ratio);
        assert!(p.avg_transfer_secs < 10.0, "avg transfer {}", p.avg_transfer_secs);
    }

    #[test]
    fn stopit_filters_make_transfers_fast() {
        let scale = Scale::tiny();
        let p = run_fig8_cell(&scale, DefenseKind::StopIt, 100_000, 100_000);
        assert!(p.completion_ratio > 0.9);
        assert!(p.avg_transfer_secs < 3.0, "avg transfer {}", p.avg_transfer_secs);
    }
}
