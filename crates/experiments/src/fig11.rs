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

/// One point of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// On-period length.
    pub ton: Nanos,
    /// Off-period length.
    pub toff: Nanos,
    /// Average legitimate-user throughput in bits per second.
    pub avg_user_bps: f64,
    /// The per-sender fair share if attackers were always on.
    pub fair_share_bps: u64,
}

/// The Figure 11 scenario: 25% long-running TCP users, synchronized on-off
/// UDP attackers flooding colluders. All attackers start at the same
/// instant so their bursts align — the worst case discussed in §5.2.1.
///
/// The pulse itself is [`AttackStrategy::Shrew`] with the figure's fixed
/// (`Ton`, `Toff`) timing; `shrew_reproduces_the_legacy_onoff_record`
/// pins that the strategy agent reproduces the old hard-coded
/// `TrafficSpec::on_off` attacker byte-for-byte.
pub fn fig11_spec(scale: &Scale, fair_share: u64, ton: Nanos, toff: Nanos) -> ScenarioSpec {
    let colluders = 3.min(scale.src_ases).max(1);
    ScenarioSpec::dumbbell(*scale)
        .named("fig11-onoff")
        .defense(DefenseKind::NetFence)
        .fair_share(fair_share)
        .legit_fraction(0.25)
        .users(TrafficSpec::LongRunningTcp)
        .user_start(StartSchedule::staggered(20, 50 * MILLI))
        .attackers(TrafficSpec::cbr(1_000_000), AttackTarget::Colluders { ases: colluders })
        .attacker_start(StartSchedule::Synchronized)
        .adversary(AttackStrategy::shrew_fixed(1_000_000, ton, toff))
}

/// Run one (Ton, Toff) cell with NetFence.
pub fn run_fig11_cell(scale: &Scale, fair_share: u64, ton: Nanos, toff: Nanos) -> Fig11Point {
    let r = Runner::new(fig11_spec(scale, fair_share, ton, toff)).run();
    Fig11Point { ton, toff, avg_user_bps: r.avg_user_bps(), fair_share_bps: fair_share }
}

/// Run the Figure 11 sweep in parallel: Ton ∈ {0.5 s, 4 s}, Toff from
/// `toffs_secs`.
pub fn run_fig11(scale: &Scale, fair_share: u64, toffs_secs: &[f64]) -> Vec<Fig11Point> {
    let mut points: Vec<(Nanos, Nanos)> = Vec::new();
    for &ton_s in &[0.5f64, 4.0] {
        for &toff_s in toffs_secs {
            points.push((secs(ton_s), secs(toff_s)));
        }
    }
    SweepGrid::new([DefenseKind::NetFence], points)
        .run_auto(|_, &(ton, toff)| fig11_spec(scale, fair_share, ton, toff))
        .iter()
        .map(|c| Fig11Point {
            ton: c.point.0,
            toff: c.point.1,
            avg_user_bps: c.record.avg_user_bps(),
            fair_share_bps: fair_share,
        })
        .collect()
}

/// `netfence run fig11`: user throughput per (Ton, Toff) at a 100 kbps
/// fair share.
pub fn table(size: Size) -> String {
    let scale = size.scale_for(80, 300);
    let toffs: &[f64] = if size.is_quick() { &[1.5, 10.0] } else { &[1.5, 5.0, 10.0, 30.0, 100.0] };
    format!(
        "Figure 11: synchronized on-off attacks, {} senders, fair share 100 kbps\n\n{}\n",
        scale.senders(),
        table_of(
            &["Ton (s)", "Toff (s)", "user throughput (kbps)"],
            &run_fig11(&scale, 100_000, toffs),
            |p| vec![
                format!("{:.1}", p.ton as f64 / 1e9),
                format!("{:.1}", p.toff as f64 / 1e9),
                kbps(p.avg_user_bps),
            ]
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrew_reproduces_the_legacy_onoff_record() {
        // The pre-migration Figure 11 attacker was a plain
        // `TrafficSpec::on_off` flow; the `Shrew` strategy with the same
        // fixed timing must yield the *identical* Record.
        let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 8 * SEC, seed: 11 };
        let (ton, toff) = (secs(0.5), secs(1.5));
        let legacy = {
            let mut spec = fig11_spec(&scale, 100_000, ton, toff);
            spec.adversary = None;
            spec.attackers.traffic = TrafficSpec::on_off(1_000_000, ton, toff);
            Runner::new(spec).run()
        };
        let shrew = Runner::new(fig11_spec(&scale, 100_000, ton, toff)).run();
        assert_eq!(legacy, shrew);
    }

    #[test]
    fn onoff_attack_does_not_reduce_user_below_fair_share() {
        let scale = Scale { src_ases: 3, hosts_per_as: 4, sim_time: 100 * SEC, seed: 11 };
        let fair = 100_000;
        let busy = run_fig11_cell(&scale, fair, secs(0.5), secs(1.5));
        // With short off-periods the user keeps at least roughly its fair
        // share (the paper's guarantee).
        assert!(
            busy.avg_user_bps > 0.5 * fair as f64,
            "user got {} bps with fair share {}",
            busy.avg_user_bps,
            fair
        );
    }

    #[test]
    fn long_off_periods_let_users_reclaim_bandwidth() {
        let scale = Scale { src_ases: 3, hosts_per_as: 4, sim_time: 100 * SEC, seed: 11 };
        let fair = 100_000;
        let short_off = run_fig11_cell(&scale, fair, secs(0.5), secs(1.5));
        let long_off = run_fig11_cell(&scale, fair, secs(0.5), secs(20.0));
        assert!(
            long_off.avg_user_bps > short_off.avg_user_bps,
            "longer off-periods should increase user throughput: {} vs {}",
            long_off.avg_user_bps,
            short_off.avg_user_bps
        );
    }
}
