//! Integration tests for the `netfence-topo` subsystem and the
//! AS-aggregated routing rewrite.
//!
//! * Property tests (vendored proptest shim): every generated `TopoSpec`
//!   yields a connected graph with unique link addresses, every host has an
//!   access router, and every sender→victim route crosses at least one
//!   designated bottleneck.
//! * Routing by host rows: on the 8 K-host internet, seeded host pairs route
//!   loop-free through their access router first, as built and after a
//!   link failure.
//! * Scale: a ≥ 50 K-host transit-stub network (including all routes)
//!   builds in well under the 5 s budget in release mode.

use std::time::Instant;

use netfence::experiments::prelude::*;
use netfence::experiments::topo_scale::transit_stub_spec;
use netfence::sim::time::SEC;
use netfence::sim::topology::FIRST_LINK_ADDR;
use netfence::sim::{NodeId, SimRng};
use netfence::topo::generate::stub_host_addr;
use netfence::topo::{BuiltTopo, MultiBottleneckSpec, TopoSpec, TransitStubSpec};
use proptest::proptest;

/// Walk the route from `src` to `dst`; returns the link indices, or None if
/// the walk stalls or comes back to a node it has already visited.
fn route(built: &BuiltTopo, src: u32, dst: u32) -> Option<Vec<usize>> {
    let net = &built.net;
    let mut visited = vec![net.host_node(src)];
    let mut hops = Vec::new();
    loop {
        let l = net.next_hop(visited[visited.len() - 1], dst)?;
        let node = net.links[l].to;
        if visited.contains(&node) {
            return None;
        }
        hops.push(l);
        visited.push(node);
        if net.nodes[node.0].host_addr() == Some(dst) {
            return Some(hops);
        }
    }
}

/// The shared invariants every generated topology must satisfy.
fn check_invariants(built: &BuiltTopo) {
    // Unique link addresses, all resolvable through the O(1) index.
    let mut addrs: Vec<_> = built.net.links.iter().map(|l| l.addr).collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), built.net.links.len(), "duplicate link addresses");
    for (i, l) in built.net.links.iter().enumerate() {
        assert_eq!(built.net.link_by_addr(l.addr), Some(i));
    }
    // Addresses at the arithmetic's edges name no link.
    let past_last = FIRST_LINK_ADDR + built.net.links.len() as u32;
    for addr in [0, FIRST_LINK_ADDR - 1, past_last, u32::MAX] {
        assert_eq!(built.net.link_by_addr(addr), None, "address {addr}");
    }
    // Every host has an access router, and it is an access-marked router.
    for host in built.net.hosts() {
        let r = built.net.access_router_of(host).expect("host without access router");
        assert!(built.net.nodes[r.0].host_addr().is_none(), "access router of {host:#x} is a host");
    }
    let bottleneck_links: Vec<usize> =
        built.bottlenecks.iter().map(|b| built.net.link_by_addr(b.addr).unwrap()).collect();
    for g in &built.groups {
        for h in g.senders() {
            // Connected: every sender reaches its victim and the victim
            // reaches it back.
            let path = route(built, h, g.victim)
                .unwrap_or_else(|| panic!("no route {h:#x} -> victim {:#x}", g.victim));
            assert!(route(built, g.victim, h).is_some(), "no reverse route to {h:#x}");
            // Every sender→victim route crosses a designated bottleneck.
            assert!(
                path.iter().any(|l| bottleneck_links.contains(l)),
                "route {h:#x} -> {:#x} misses every designated bottleneck",
                g.victim
            );
            // Colluding destinations are reachable too.
            for &c in &g.colluders {
                assert!(route(built, h, c).is_some(), "no route {h:#x} -> colluder {c:#x}");
            }
        }
    }
}

proptest! {
    /// Transit-stub graphs satisfy the structural invariants across the
    /// whole parameter space: core shape, Zipf skew, multihoming, colluder
    /// count and seed.
    #[test]
    fn transit_stub_invariants(
        transit_ases in 1usize..4,
        routers_per_transit in 1usize..4,
        stub_ases in 1usize..8,
        extra_hosts in 0usize..40,
        legit_per_stub in 1usize..3,
        zipf_milli_alpha in 0u32..1800,
        multihoming in 1usize..4,
        colluder_ases in 0usize..3,
        seed in 0u64..,
    ) {
        let spec = TransitStubSpec {
            transit_ases,
            routers_per_transit,
            stub_ases,
            hosts: stub_ases + extra_hosts,
            legit_per_stub,
            zipf_milli_alpha,
            multihoming,
            bottleneck_bps: 5_000_000,
            stub_bps: 0,
            core_bps: 0,
            colluder_ases,
            seed,
        };
        let built = TopoSpec::TransitStub(spec).build();
        proptest::prop_assert_eq!(built.senders(), stub_ases + extra_hosts);
        proptest::prop_assert_eq!(built.source_ases.len(), stub_ases);
        check_invariants(&built);
    }

    /// Multi-bottleneck meshes satisfy the invariants, and the local /
    /// branch groups cross exactly one designated bottleneck while the
    /// long group crosses every chain link.
    #[test]
    fn multi_bottleneck_invariants(
        bottlenecks in 1usize..5,
        branches in 0usize..4,
        hosts_per_group in 1usize..6,
        bps in 1_000_000u64..10_000_000,
    ) {
        let spec = MultiBottleneckSpec {
            bottlenecks,
            branches,
            hosts_per_group,
            legit_per_group: 1,
            bottleneck_bps: bps,
        };
        let built = TopoSpec::MultiBottleneck(spec).build();
        proptest::prop_assert_eq!(built.groups.len(), 1 + bottlenecks + branches);
        check_invariants(&built);
        // The long group crosses all chain links; every other group crosses
        // exactly one designated bottleneck.
        let bneck_links: Vec<usize> =
            built.bottlenecks.iter().map(|b| built.net.link_by_addr(b.addr).unwrap()).collect();
        for (gi, g) in built.groups.iter().enumerate() {
            let path = route(&built, g.users[0], g.victim).unwrap();
            let crossed = path.iter().filter(|l| bneck_links.contains(l)).count();
            if gi == 0 {
                proptest::prop_assert_eq!(crossed, bottlenecks, "long group misses chain links");
            } else {
                proptest::prop_assert_eq!(crossed, 1, "group {} not isolated", g.label);
            }
        }
    }
}

/// Each node's CSR slice of outgoing links is exactly the link list
/// filtered by `from`, ascending, on the classic topologies and a seeded
/// transit-stub internet.
#[test]
fn out_links_match_a_scan_of_the_link_list() {
    let specs = [
        TopoSpec::Dumbbell {
            src_ases: 3,
            hosts_per_as: 4,
            legit_per_as: 1,
            bottleneck_bps: 10_000_000,
            colluder_ases: 2,
        },
        TopoSpec::ParkingLot {
            per_group: 3,
            legit_per_group: 1,
            l1_bps: 10_000_000,
            l2_bps: 5_000_000,
        },
        TopoSpec::MultiBottleneck(MultiBottleneckSpec {
            bottlenecks: 3,
            branches: 2,
            hosts_per_group: 2,
            legit_per_group: 1,
            bottleneck_bps: 5_000_000,
        }),
        TopoSpec::TransitStub(transit_stub_spec(600, 11)),
    ];
    for spec in specs {
        let net = &spec.build().net;
        for node in 0..net.nodes.len() {
            let scanned: Vec<u32> = (0..net.links.len() as u32)
                .filter(|&li| net.links[li as usize].from == NodeId(node))
                .collect();
            assert_eq!(net.out_links(NodeId(node)), &scanned[..], "node {node} of {spec:?}");
        }
    }
}

/// Every defense kind runs end to end on a small generated internet and on
/// a multi-bottleneck mesh (the CI guard that graph generation cannot rot).
#[test]
fn every_defense_kind_runs_on_generated_topologies() {
    let scale = Scale { src_ases: 4, hosts_per_as: 4, sim_time: 10 * SEC, seed: 5 };
    for kind in DefenseKind::EVERY {
        let spec = ScenarioSpec::internet(scale, InternetShape::default())
            .defense(kind)
            .fair_share(100_000)
            .users(TrafficSpec::repeated_file(20_000, 2 * SEC))
            .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Victim);
        let r = Runner::new(spec).run();
        assert_eq!(r.senders, 16, "{kind:?}");
        assert_eq!(r.links.len(), 1, "{kind:?}");
        let moved: u64 =
            r.users().chain(r.attackers()).map(|p| p.delivered_bytes + p.packets_sent).sum();
        assert!(moved > 0, "{kind:?}: nothing was simulated on the internet topology");

        let spec = ScenarioSpec::multi_bottleneck(scale, 2, 1, 2_000_000).defense(kind);
        let r = Runner::new(spec).run();
        assert_eq!(r.roles.len(), 8, "{kind:?}"); // A, C1, C2, B1 × users/attackers
        assert_eq!(r.links.len(), 3, "{kind:?}");
    }
}

/// Generated-topology runs are deterministic: same spec + seed, identical
/// `Record`s; a different seed reshuffles the Zipf/multihoming draws.
#[test]
fn internet_records_are_deterministic_and_seed_sensitive() {
    let scale = Scale { src_ases: 5, hosts_per_as: 4, sim_time: 10 * SEC, seed: 21 };
    let spec = || {
        ScenarioSpec::internet(scale, InternetShape::default())
            .defense(DefenseKind::NetFence)
            .fair_share(100_000)
            .attackers(AttackStrategy::static_cbr(400_000), AttackTarget::Colluders { ases: 2 })
    };
    let a = Runner::new(spec()).run();
    let b = Runner::new(spec()).run();
    assert_eq!(a, b, "two runs of the same generated internet diverged");
    let c = Runner::new(spec().seed(99)).run();
    assert_ne!(a, c, "the seed does not reach the topology generator");
}

/// On the 8 K-host internet the floods run on, 2 000 seeded host pairs
/// route loop-free to their destination, and the sender's access router is
/// the first router on the path and no other — the test the engine makes at
/// every defended hop. Both as built and after one stub uplink fails and
/// routes are recomputed around it.
#[test]
fn seeded_host_pairs_route_loop_free_on_the_8k_internet() {
    let mut built = TopoSpec::TransitStub(transit_stub_spec(8000, 7)).build();
    let hosts = built.net.hosts();
    let mut rng = SimRng::new(11);
    let mut pairs = Vec::with_capacity(2000);
    while pairs.len() < 2000 {
        let mut draw = || hosts[rng.uniform_u64(0, hosts.len() as u64) as usize];
        let (src, dst) = (draw(), draw());
        if src != dst {
            pairs.push((src, dst));
        }
    }
    let check = |built: &BuiltTopo| -> Vec<Vec<usize>> {
        let net = &built.net;
        let paths: Vec<_> = pairs
            .iter()
            .map(|&(src, dst)| {
                route(built, src, dst).unwrap_or_else(|| panic!("{src:#x} -> {dst:#x} loops"))
            })
            .collect();
        for (&(src, _), hops) in pairs.iter().zip(&paths) {
            let access = net.access_router_of(src).unwrap();
            let routers: Vec<NodeId> = hops.iter().map(|&l| net.links[l].to).collect();
            assert_eq!(routers[0], access, "{src:#x}'s first router is not its access router");
            assert!(!routers[1..].contains(&access), "{src:#x} passes its access router twice");
        }
        paths
    };
    let as_built = check(&built);

    // The largest stub's first uplink: it is multihomed, so the stub stays
    // connected, and a good share of the pairs leave through that link.
    let net = &built.net;
    let access = net.access_router_of(stub_host_addr(0, 0)).unwrap();
    let uplinks: Vec<usize> = net
        .out_links(access)
        .iter()
        .map(|&l| l as usize)
        .filter(|&l| net.is_router_link(&net.links[l]))
        .collect();
    assert!(uplinks.len() >= 2, "the largest stub is multihomed");
    let down_link = uplinks[0];
    assert!(as_built.iter().any(|hops| hops.contains(&down_link)), "no pair used the link");
    let mut down = vec![false; net.links.len()];
    down[down_link] = true;
    built.net.recompute_routes(&down);
    let rerouted = check(&built);
    assert!(rerouted.iter().all(|hops| !hops.contains(&down_link)), "a route uses the dead link");
}

/// The scalability acceptance bar: a ≥ 50 K-host transit-stub network —
/// including every route — builds in under 5 s in release mode (the old
/// per-host-BFS routing needed minutes at this size).
#[test]
fn transit_stub_50k_hosts_builds_fast() {
    let spec = TransitStubSpec {
        transit_ases: 3,
        routers_per_transit: 2,
        stub_ases: 500,
        hosts: 50_000,
        legit_per_stub: 1,
        zipf_milli_alpha: 900,
        multihoming: 2,
        bottleneck_bps: 2_500_000_000,
        stub_bps: 0,
        core_bps: 0,
        colluder_ases: 2,
        seed: 7,
    };
    // Host time, test-side only: this file's one read, waived by
    // `WALL_CLOCK_EXEMPT` in tests/source_rules.rs.
    let start = Instant::now();
    let built = TopoSpec::TransitStub(spec).build();
    let elapsed = start.elapsed();
    assert_eq!(built.senders(), 50_000);
    assert!(built.net.nodes.len() > 50_000);
    // Spot-check routing without walking all 50 K hosts.
    let g = &built.groups[0];
    for &h in [g.users.first(), g.users.last(), g.attackers.first(), g.attackers.last()]
        .into_iter()
        .flatten()
    {
        assert!(route(&built, h, g.victim).is_some());
    }
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 5.0, "50K-host build took {elapsed:?}");
    }
}
