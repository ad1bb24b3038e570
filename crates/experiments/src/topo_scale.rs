//! The topology-scaling sweep: host count vs network shape, routing
//! memory and simulated packets.
//!
//! The paper's scalability argument (§5.1, §6.3) is that NetFence keeps
//! per-sender state only at access routers, so the defense's cost grows
//! with a network's *edge*, not its *core*. This sweep probes the
//! reproduction's side of that claim on generated transit-stub internets
//! (`netfence-topo`): for a growing host count it records
//!
//! * the shape [`TopoSpec::build`] generates — nodes, links, and the
//!   AS-aggregated routing state (one dense next-hop table per
//!   host-bearing router);
//! * how much memory the routing tables hold
//!   ([`Network::route_stats`](netfence_sim::topology::Network::route_stats));
//! * the simulated packets and user goodput of a NetFence deployment vs
//!   the undefended baseline under an unwanted-traffic flood — suppression
//!   is forced off so the comparison isolates the deployed data plane.
//!
//! Every column is deterministic, so the `--quick` table is pinned by a
//! golden like every other row. How long the builds and runs take is the
//! `perf` benchmark's to measure: its `flood_*` workloads run [`scale_spec`]
//! cells, `topo.build_8k_ms` times their network's build and
//! `topo.build_50k_ms` a [`transit_stub_spec`] build.

use netfence_sim::prelude::*;
use netfence_topo::{TopoSpec, TransitStubSpec};

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, table_of};

/// One simulated system at one scale point.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The defense system.
    pub system: DefenseKind,
    /// Packets injected by all flows over the simulated window.
    pub packets: u64,
    /// Average legitimate-user goodput, bits per second.
    pub avg_user_bps: f64,
}

/// One point of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Sender hosts actually generated.
    pub hosts: usize,
    /// Stub ASes holding them.
    pub stubs: usize,
    /// Total nodes in the network.
    pub nodes: usize,
    /// Total unidirectional links.
    pub links: usize,
    /// Routers carrying a next-hop table.
    pub routers: usize,
    /// Routing destinations (host-bearing routers).
    pub destinations: usize,
    /// Bytes held by the dense next-hop tables.
    pub route_table_bytes: usize,
    /// Simulation runs at this point (empty for build-only sweeps).
    pub runs: Vec<ScaleRun>,
}

/// Stub-AS count for a host count: ~100 hosts per stub on average, at
/// least 4 stubs, at most 512.
pub fn stub_count(hosts: usize) -> usize {
    (hosts / 100).clamp(4, 512)
}

/// The generated transit-stub family the sweep walks: 3 transit ASes × 2
/// routers, doubly-homed Zipf(0.9) stubs, one victim region, and a
/// bottleneck provisioned at a 50 kbps per-sender fair share.
pub fn transit_stub_spec(hosts: usize, seed: u64) -> TransitStubSpec {
    let stub_ases = stub_count(hosts);
    TransitStubSpec {
        transit_ases: 3,
        routers_per_transit: 2,
        stub_ases,
        hosts: hosts.max(stub_ases),
        legit_per_stub: 1,
        zipf_milli_alpha: 900,
        multihoming: 2,
        bottleneck_bps: 50_000 * hosts as u64,
        stub_bps: 0,
        core_bps: 0,
        colluder_ases: 0,
        seed,
    }
}

/// The simulation scenario at one scale point: the Figure 8 unwanted-flood
/// setting on the generated internet (one user per stub fetching 20 KB
/// pages, the rest sending 100 kbps CBR at the victim), with suppression
/// forced off so NetFence-vs-None measures pure data-plane overhead.
pub fn scale_spec(hosts: usize, system: DefenseKind) -> ScenarioSpec {
    let stubs = stub_count(hosts);
    let scale =
        Scale { src_ases: stubs, hosts_per_as: (hosts / stubs).max(1), sim_time: 5 * SEC, seed: 7 };
    ScenarioSpec::internet(scale, InternetShape::default())
        .named("topo-scale")
        .defense_spec(DefenseSpec::new(system).with_suppression(Suppression::Off))
        .fair_share(50_000)
        .legit_per_as(1)
        .users(TrafficSpec::repeated_file(20_000, 2 * SEC))
        .user_start(StartSchedule::staggered(10, 100 * MILLI))
        .attackers(AttackStrategy::static_cbr(100_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::staggered(100, MILLI))
}

/// Build (only) the transit-stub network for `hosts` senders and size its
/// routing state.
pub fn build_point(hosts: usize, seed: u64) -> ScalePoint {
    let spec = transit_stub_spec(hosts, seed);
    let built = TopoSpec::TransitStub(spec).build();
    let stats = built.net.route_stats();
    ScalePoint {
        hosts: built.senders(),
        stubs: spec.stub_ases,
        nodes: built.net.nodes.len(),
        links: built.net.links.len(),
        routers: stats.routers,
        destinations: stats.destinations,
        route_table_bytes: stats.table_bytes,
        runs: Vec::new(),
    }
}

/// Build and simulate one scale point for each system in `systems`.
pub fn run_point(hosts: usize, seed: u64, systems: &[DefenseKind]) -> ScalePoint {
    let mut point = build_point(hosts, seed);
    for &system in systems {
        let r = Runner::new(scale_spec(hosts, system)).run();
        let packets: u64 = r.users().chain(r.attackers()).map(|p| p.packets_sent).sum();
        point.runs.push(ScaleRun { system, packets, avg_user_bps: r.avg_user_bps() });
    }
    point
}

/// `netfence run topo_scale`: the build sweep, then NetFence vs no defense
/// simulated at each size (`--full` extends to 100 K-host builds and
/// 16 K-host simulations).
pub fn table(size: Size) -> String {
    let (build_hosts, sim_hosts): (&[usize], &[usize]) = match size {
        Size::Quick => (&[500, 2_000], &[500]),
        Size::Default => (&[1_000, 5_000, 10_000, 20_000, 50_000], &[1_000, 4_000]),
        Size::Full => (&[1_000, 5_000, 10_000, 20_000, 50_000, 100_000], &[1_000, 4_000, 16_000]),
    };
    let builds: Vec<ScalePoint> = build_hosts.iter().map(|&h| build_point(h, 7)).collect();
    let systems = [DefenseKind::NetFence, DefenseKind::None];
    let runs: Vec<(usize, ScaleRun)> = sim_hosts
        .iter()
        .map(|&h| run_point(h, 7, &systems))
        .flat_map(|p| p.runs.into_iter().map(move |r| (p.hosts, r)))
        .collect();
    format!(
        "Transit-stub build sweep (3×2 transit core, doubly-homed Zipf(0.9) stubs,\n\
         AS-aggregated routing: one BFS per host-bearing router, dense next-hop tables):\n\n\
         {}\n\
         Simulation sweep (5 s simulated unwanted flood, suppression off — the\n\
         NetFence-vs-None gap is the deployed data plane's policing alone):\n\n\
         {}\n",
        table_of(&["hosts", "stubs", "nodes", "links", "routes", "route KiB"], &builds, |p| vec![
            p.hosts.to_string(),
            p.stubs.to_string(),
            p.nodes.to_string(),
            p.links.to_string(),
            format!("{}×{}", p.routers, p.destinations),
            format!("{:.1}", p.route_table_bytes as f64 / 1024.0),
        ]),
        table_of(&["hosts", "system", "packets", "user kbps"], &runs, |(hosts, r)| vec![
            hosts.to_string(),
            r.system.label().to_string(),
            r.packets.to_string(),
            kbps(r.avg_user_bps),
        ])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_point_reports_the_generated_shape() {
        let p = build_point(400, 7);
        assert_eq!(p.hosts, 400);
        assert_eq!(p.stubs, 4);
        assert!(p.nodes > 400, "nodes: {}", p.nodes);
        assert!(p.routers >= 4 + 6 + 2, "routers: {}", p.routers);
        assert!(p.destinations >= 5, "destinations: {}", p.destinations);
        assert_eq!(p.route_table_bytes, p.routers * p.destinations * 4);
    }

    #[test]
    fn run_point_simulates_both_systems() {
        let p = run_point(200, 7, &[DefenseKind::NetFence, DefenseKind::None]);
        assert_eq!(p.runs.len(), 2);
        for run in &p.runs {
            assert!(run.packets > 0, "{:?} moved no packets", run.system);
        }
    }
}
