//! The incremental-deployment sweep: deploying-AS fraction vs legitimate
//! goodput.
//!
//! NetFence's deployment story (§5.3) is that the defense is valuable
//! before it is universal: the destination side and the transit core deploy
//! first, and every source AS that adopts buys its own customers better
//! service because deployed routers demote legacy traffic below NetFence
//! traffic. This sweep quantifies that adoption incentive for every
//! [`DefenseKind`]: a colluding flood on the dumbbell, with the fraction of
//! deploying source ASes swept from 0 (pure legacy Internet) to 1
//! (universal deployment), reporting the average legitimate-user goodput,
//! the average attacker goodput and the deployment extent.
//!
//! TVA-style capability systems and StopIt-style filter systems are also
//! evaluated under incremental deployment in the related work; running all
//! systems through the same sweep makes the comparison direct.

use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, table_of};

/// One point of the incremental-deployment sweep.
#[derive(Debug, Clone)]
pub struct DeploymentPoint {
    /// Fraction of source ASes that deploy.
    pub coverage: f64,
    /// The defense system.
    pub system: DefenseKind,
    /// Average legitimate-user goodput, bits per second.
    pub avg_user_bps: f64,
    /// Average attacker goodput, bits per second.
    pub avg_attacker_bps: f64,
    /// ASes that actually deployed (from the typed report).
    pub deployed_ases: usize,
    /// Total ASes in the network.
    pub total_ases: usize,
}

/// The default coverage sweep (the deploying-source-AS fractions).
pub const COVERAGES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The sweep scenario: the Figure 8 unwanted-flood setting under partial
/// deployment. One legitimate user per source AS repeatedly fetches a
/// 20 KB file from the victim (demand-bounded, so a protected user's
/// goodput measures *service quality*, not leftover bandwidth); the rest
/// flood the victim with 1 Mbps CBR. With `coverage` of the source ASes
/// deploying, users in deployed ASes are protected (their AS polices its
/// own attackers, the deployed bottleneck demotes legacy floods below
/// defended traffic) while users in legacy ASes share the legacy channel
/// with the legacy flood — so average legitimate goodput grows with every
/// adopting AS, which is precisely the §5.3 adoption incentive.
pub fn deployment_spec(scale: &Scale, system: DefenseKind, coverage: f64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(*scale)
        .named("incremental-deployment")
        .defense(system)
        .coverage(coverage)
        .fair_share(100_000)
        .legit_per_as(1)
        .users(TrafficSpec::repeated_file(20_000, 2 * SEC))
        .user_start(StartSchedule::staggered(10, 100 * MILLI))
        .attackers(TrafficSpec::cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

fn to_point(coverage: f64, system: DefenseKind, r: &Record) -> DeploymentPoint {
    DeploymentPoint {
        coverage,
        system,
        avg_user_bps: r.avg_user_bps(),
        avg_attacker_bps: r.avg_attacker_bps(),
        deployed_ases: r.report.deployed_ases,
        total_ases: r.report.total_ases,
    }
}

/// Run one (system, coverage) cell.
pub fn run_deployment_cell(scale: &Scale, system: DefenseKind, coverage: f64) -> DeploymentPoint {
    let r = Runner::new(deployment_spec(scale, system, coverage)).run();
    to_point(coverage, system, &r)
}

/// Run the full sweep for the given systems (cells in parallel; point-major
/// order, i.e. all systems at coverage 0, then all systems at 0.25, …).
pub fn run_deployment_sweep(
    scale: &Scale,
    systems: &[DefenseKind],
    coverages: &[f64],
) -> Vec<DeploymentPoint> {
    // f64 is not hashable/ordered for the grid point; carry basis points.
    let points: Vec<u64> = coverages.iter().map(|c| (c * 10_000.0).round() as u64).collect();
    SweepGrid::new(systems.to_vec(), points)
        .run_auto(|system, &bps| deployment_spec(scale, system, bps as f64 / 10_000.0))
        .iter()
        .map(|c| to_point(c.point as f64 / 10_000.0, c.system, &c.record))
        .collect()
}

/// `netfence run deployment`: every system at every coverage.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let headers = ["coverage", "system", "deployed ASes", "user kbps", "attacker kbps"];
    format!(
        "Incremental deployment sweep: {} source ASes × {} hosts, 1 Mbps unwanted floods on the\n\
         victim, users fetching 20 KB pages; coverage = fraction of source ASes deploying\n\
         (core + destination always deploy when > 0).\n\n\
         {}\n\
         Shape to expect: user goodput non-decreasing in coverage for NetFence\n\
         (deployed routers demote legacy floods; each adopting AS protects its own users).\n",
        scale.src_ases,
        scale.hosts_per_as,
        table_of(
            &headers,
            &run_deployment_sweep(&scale, &DefenseKind::EVERY, &COVERAGES),
            |p| vec![
                format!("{:.0}%", p.coverage * 100.0),
                p.system.label().to_string(),
                format!("{}/{}", p.deployed_ases, p.total_ases),
                kbps(p.avg_user_bps),
                kbps(p.avg_attacker_bps),
            ]
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_coverage_deploys_nothing_and_full_deploys_everything() {
        let scale = Scale { src_ases: 2, hosts_per_as: 2, sim_time: 5 * SEC, seed: 3 };
        let none = run_deployment_cell(&scale, DefenseKind::NetFence, 0.0);
        assert_eq!(none.deployed_ases, 0);
        let full = run_deployment_cell(&scale, DefenseKind::NetFence, 1.0);
        assert_eq!(full.deployed_ases, full.total_ases);
        assert!(full.total_ases >= 4, "2 source ASes + transit + victim + colluder");
    }

    #[test]
    fn partial_coverage_reports_partial_extent() {
        let scale = Scale { src_ases: 4, hosts_per_as: 2, sim_time: 5 * SEC, seed: 3 };
        let half = run_deployment_cell(&scale, DefenseKind::NetFence, 0.5);
        // 2 of 4 source ASes plus all non-source ASes.
        assert_eq!(half.total_ases - half.deployed_ases, 2);
        assert!(half.deployed_ases < half.total_ases);
    }

    #[test]
    fn tiny_nonzero_coverage_still_deploys_the_infrastructure() {
        // 0.1 of 4 source ASes rounds to zero adopters, but destination and
        // transit ASes deploy whenever coverage is nonzero.
        let scale = Scale { src_ases: 4, hosts_per_as: 2, sim_time: 5 * SEC, seed: 3 };
        let p = run_deployment_cell(&scale, DefenseKind::NetFence, 0.1);
        assert_eq!(p.total_ases - p.deployed_ases, 4, "all 4 source ASes stay legacy");
        assert_eq!(p.deployed_ases, 2, "the transit and victim ASes deploy");
    }
}
