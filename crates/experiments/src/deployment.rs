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
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

/// `netfence run deployment`: every system at every coverage.
pub fn table(size: Size) -> String {
    let scale = size.scale();
    let cells = SweepGrid::new(DefenseKind::EVERY, COVERAGES)
        .run_auto(|system, &coverage| deployment_spec(&scale, system, coverage));
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
        table_of(&headers, &cells, |c| vec![
            format!("{:.0}%", c.point * 100.0),
            c.system.label().to_string(),
            format!("{}/{}", c.record.report.deployed_ases, c.record.report.total_ases),
            kbps(c.record.avg_user_bps()),
            kbps(c.record.avg_attacker_bps()),
        ])
    )
}
