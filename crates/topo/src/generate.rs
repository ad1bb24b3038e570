//! Deterministic generators for the internet-like topology families:
//! transit-stub graphs and multi-bottleneck meshes.
//!
//! Everything is derived from the spec — stub sizes from a Zipf law over
//! the stub rank, multihoming choices from splitmix64 over the spec's seed
//! — so the same spec always yields a byte-identical network, and the
//! generated graphs stay simulable at scale (the AS-aggregated routing in
//! `netfence-sim` builds one BFS per host-bearing router, not per host).

use netfence_sim::prelude::*;
use netfence_sim::rng::splitmix64;

use crate::built::{Bottleneck, BuiltTopo, GroupShape, TopoGroup};
use crate::spec::{MultiBottleneckSpec, TransitStubSpec};

/// Split `total` hosts over `ranks` stub ASes by a Zipf law with skew
/// `milli_alpha / 1000` (0 = uniform): stub `r` (1-based rank) gets weight
/// `r^-α`, floored, with every stub keeping at least one host and the
/// rounding drift settled deterministically (shortfall topped up from rank
/// 1 down, excess trimmed from the tail up). The sizes always sum to
/// `total`.
pub fn zipf_sizes(total: usize, ranks: usize, milli_alpha: u32) -> Vec<usize> {
    assert!(ranks > 0, "need at least one rank");
    assert!(total >= ranks, "need at least one host per rank");
    let alpha = milli_alpha as f64 / 1000.0;
    let weights: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-alpha)).collect();
    let sum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| ((total as f64 * w / sum).floor() as usize).max(1)).collect();
    let mut assigned: usize = sizes.iter().sum();
    let mut r = 0;
    while assigned < total {
        sizes[r % ranks] += 1;
        assigned += 1;
        r += 1;
    }
    // The per-rank floor of one host can overshoot small totals; trim from
    // the tail (the smallest stubs shrink last-rank-first, never below 1).
    let mut r = ranks - 1;
    while assigned > total {
        if sizes[r] > 1 {
            sizes[r] -= 1;
            assigned -= 1;
        }
        r = if r == 0 { ranks - 1 } else { r - 1 };
    }
    sizes
}

/// Host address of host `h` in stub AS `stub` (0-based).
pub fn stub_host_addr(stub: usize, h: usize) -> HostAddr {
    0x2000_0000 + (stub as u32) * 0x1_0000 + h as u32 + 1
}

/// AS number of stub `stub` (0-based).
pub fn stub_as(stub: usize) -> AsNum {
    1_000 + stub as u32
}

/// Build a transit-stub graph per `s` (see [`TransitStubSpec`] for the
/// shape). Single group: all stub hosts aim at the one victim behind the
/// designated bottleneck, so every sender→victim path crosses it by
/// construction (the victim region is reachable only over that link).
pub fn build_transit_stub(s: &TransitStubSpec) -> BuiltTopo {
    s.validate();
    let stub_bps = s.resolved_stub_bps();
    let core_bps = s.resolved_core_bps();
    let mut b = Network::builder();

    // Tier-1 core: each transit AS is a chain of routers; border routers
    // peer pairwise across ASes (router j%R of AS i ↔ router i%R of AS j,
    // spreading the peerings over the chain).
    let mut core: Vec<NodeId> = Vec::with_capacity(s.transit_ases * s.routers_per_transit);
    for t in 0..s.transit_ases {
        let first = core.len();
        for _ in 0..s.routers_per_transit {
            core.push(b.router(30_000 + t as u32, false));
        }
        for k in 1..s.routers_per_transit {
            b.duplex(core[first + k - 1], core[first + k], core_bps, MILLI, QueueKind::DropTail);
        }
    }
    let rpt = s.routers_per_transit;
    for i in 0..s.transit_ases {
        for j in (i + 1)..s.transit_ases {
            let bi = core[i * rpt + j % rpt];
            let bj = core[j * rpt + i % rpt];
            b.duplex(bi, bj, core_bps, 5 * MILLI, QueueKind::DropTail);
        }
    }

    // Victim region behind the single designated bottleneck: core[0] →
    // victim-side border router, then the victim AS and the colluder ASes
    // (the dumbbell's Rbl → Rbr structure).
    let rb = b.router(29_000, false);
    let bottleneck_idx = b.link(core[0], rb, s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
    b.link(rb, core[0], s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
    let rv = b.router(20_000, true);
    b.duplex(rb, rv, stub_bps, 5 * MILLI, QueueKind::DropTail);
    let victim: HostAddr = 0x5000_0001;
    b.host(victim, 20_000, rv, stub_bps, MILLI);
    let mut colluders = Vec::with_capacity(s.colluder_ases);
    for c in 0..s.colluder_ases {
        let asn = 20_001 + c as u32;
        let rc = b.router(asn, true);
        b.duplex(rb, rc, stub_bps, 5 * MILLI, QueueKind::DropTail);
        let addr = 0x5100_0001 + c as u32 * 0x100;
        b.host(addr, asn, rc, stub_bps, MILLI);
        colluders.push(addr);
    }

    // Zipf-sized stub ASes, each homed to `multihoming` distinct transit
    // routers (rank i's first home rotates over the core; extras are
    // seeded picks).
    let sizes = zipf_sizes(s.hosts, s.stub_ases, s.zipf_milli_alpha);
    let homes_per_stub = s.multihoming.min(core.len());
    let mut users = Vec::new();
    let mut attackers = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        assert!(size < 0x1_0000, "stub {i} too large for the host address space");
        let asn = stub_as(i);
        let ra = b.router(asn, true);
        let mut homes = vec![i % core.len()];
        let mut x = s.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        while homes.len() < homes_per_stub {
            let pick = (splitmix64(&mut x) % core.len() as u64) as usize;
            if !homes.contains(&pick) {
                homes.push(pick);
            }
        }
        for &h in &homes {
            b.duplex(ra, core[h], stub_bps, 5 * MILLI, QueueKind::DropTail);
        }
        for h in 0..size {
            let addr = stub_host_addr(i, h);
            b.host(addr, asn, ra, stub_bps, MILLI);
            if h < s.legit_per_stub {
                users.push(addr);
            } else {
                attackers.push(addr);
            }
        }
    }

    let net = b.build();
    let bottleneck_addr = net.links[bottleneck_idx].addr;
    BuiltTopo {
        net,
        groups: vec![TopoGroup { label: String::new(), users, attackers, victim, colluders }],
        bottlenecks: vec![Bottleneck {
            label: "bottleneck".to_string(),
            addr: bottleneck_addr,
            bps: s.bottleneck_bps,
        }],
        source_ases: (0..s.stub_ases).map(stub_as).collect(),
        competing_senders: s.hosts,
    }
}

/// Build a multi-bottleneck mesh per `s` (see [`MultiBottleneckSpec`]):
/// a chain of K designated bottlenecks plus branch bottlenecks, with the
/// parking lot's crossing pattern generalized — the long group "A" crosses
/// every chain link, local group "Ci" crosses exactly chain link i, branch
/// group "Bj" crosses exactly branch link j.
pub fn build_multi_bottleneck(s: &MultiBottleneckSpec) -> BuiltTopo {
    s.validate();
    let k = s.bottlenecks;
    let access_cap = (s.bottleneck_bps * 10).max(100_000_000);
    let mut b = Network::builder();

    // The chain R0 —L1→ R1 … —LK→ RK.
    let chain: Vec<NodeId> = (0..=k).map(|i| b.router(100 + i as u32, false)).collect();
    let mut bottlenecks = Vec::new();
    for i in 1..=k {
        let li = b.link(chain[i - 1], chain[i], s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
        b.link(chain[i], chain[i - 1], s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
        bottlenecks.push((format!("L{i}"), li));
    }

    let mut groups = Vec::with_capacity(s.groups());
    let shape = GroupShape { hosts: s.hosts_per_group, legit: s.legit_per_group, access_cap };
    // Group g: AS ranges are kept disjoint from the chain (100..) and branch
    // (500..) routers for any group count validate() admits.
    let mut next_group = 0u32;
    let mut make_group = |label: String, src_at: NodeId, dst_at: NodeId, b: &mut NetworkBuilder| {
        let g = next_group;
        next_group += 1;
        let base_addr = 0x0B00_0000 + g * 0x1_0000;
        shape.attach(b, label, (1_000 + g, src_at), (2_000 + g, dst_at), base_addr)
    };

    // Long group: crosses every chain link.
    groups.push(make_group("A".to_string(), chain[0], chain[k], &mut b));
    // Local groups: group Ci crosses exactly chain link i.
    for i in 1..=k {
        groups.push(make_group(format!("C{i}"), chain[i - 1], chain[i], &mut b));
    }
    // Branch bottlenecks off the chain junctions, each with its own group.
    for j in 1..=s.branches {
        let junction = chain[(j - 1) % chain.len()];
        let rbj = b.router(500 + j as u32, false);
        let li = b.link(junction, rbj, s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
        b.link(rbj, junction, s.bottleneck_bps, 10 * MILLI, QueueKind::Red);
        bottlenecks.push((format!("B{j}"), li));
        groups.push(make_group(format!("B{j}"), junction, rbj, &mut b));
    }

    let source_ases: Vec<AsNum> = (0..groups.len()).map(|g| 1_000 + g as u32).collect();
    let net = b.build();
    let bottlenecks = bottlenecks
        .into_iter()
        .map(|(label, li)| Bottleneck { label, addr: net.links[li].addr, bps: s.bottleneck_bps })
        .collect();
    BuiltTopo {
        net,
        groups,
        bottlenecks,
        source_ases,
        // The long group shares every chain link with that link's local
        // group — the parking lot's 2·per_group rule at arbitrary K.
        competing_senders: 2 * s.hosts_per_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the route from `src` to `dst`, returning the link indices.
    fn route(net: &Network, src: HostAddr, dst: HostAddr) -> Vec<usize> {
        let mut node = net.host_node(src);
        let mut hops = Vec::new();
        for _ in 0..64 {
            match net.next_hop(node, dst) {
                Some(l) => {
                    hops.push(l);
                    node = net.links[l].to;
                }
                None => break,
            }
            if net.nodes[node.0].host_addr() == Some(dst) {
                return hops;
            }
        }
        panic!("no route {src:#x} -> {dst:#x}");
    }

    #[test]
    fn zipf_sizes_sum_and_skew() {
        let sizes = zipf_sizes(100, 10, 900);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert!(sizes[0] > sizes[9], "rank 1 should outweigh rank 10: {sizes:?}");
        // Uniform when alpha = 0.
        let flat = zipf_sizes(20, 4, 0);
        assert_eq!(flat, vec![5, 5, 5, 5]);
        // Tight total: every rank keeps its minimum of one.
        let tight = zipf_sizes(5, 5, 1_500);
        assert_eq!(tight, vec![1; 5]);
    }

    #[test]
    fn transit_stub_routes_cross_the_bottleneck() {
        let spec =
            TransitStubSpec { stub_ases: 6, hosts: 30, colluder_ases: 2, ..Default::default() };
        let built = build_transit_stub(&spec);
        assert_eq!(built.senders(), 30);
        let g = &built.groups[0];
        assert_eq!(g.users.len(), 6);
        assert_eq!(g.attackers.len(), 24);
        let bneck = built.net.link_by_addr(built.bottlenecks[0].addr).unwrap();
        for h in g.senders() {
            assert!(
                route(&built.net, h, g.victim).contains(&bneck),
                "host {h:#x} misses the bottleneck toward the victim"
            );
            for &c in &g.colluders {
                assert!(
                    route(&built.net, h, c).contains(&bneck),
                    "host {h:#x} misses the bottleneck toward colluder {c:#x}"
                );
            }
        }
    }

    #[test]
    fn transit_stub_is_deterministic_and_seed_sensitive() {
        let spec =
            TransitStubSpec { stub_ases: 5, hosts: 25, multihoming: 3, ..Default::default() };
        let a = build_transit_stub(&spec);
        let b = build_transit_stub(&spec);
        assert_eq!(a.net.nodes, b.net.nodes);
        assert_eq!(a.net.links, b.net.links);
        let c = build_transit_stub(&TransitStubSpec { seed: 99, ..spec });
        // Same shape, but the seeded multihoming picks differ.
        assert_eq!(a.net.nodes, c.net.nodes);
        assert_ne!(a.net.links, c.net.links);
    }

    #[test]
    fn multihoming_adds_uplinks() {
        let single = build_transit_stub(&TransitStubSpec {
            stub_ases: 4,
            hosts: 8,
            multihoming: 1,
            ..Default::default()
        });
        let multi = build_transit_stub(&TransitStubSpec {
            stub_ases: 4,
            hosts: 8,
            multihoming: 3,
            ..Default::default()
        });
        assert_eq!(single.net.nodes.len(), multi.net.nodes.len());
        // 2 extra uplinks × 2 directions × 4 stubs.
        assert_eq!(single.net.links.len() + 16, multi.net.links.len());
    }

    #[test]
    fn multi_bottleneck_crossing_pattern() {
        let spec = MultiBottleneckSpec {
            bottlenecks: 3,
            branches: 2,
            hosts_per_group: 4,
            legit_per_group: 1,
            bottleneck_bps: 1_000_000,
        };
        let built = build_multi_bottleneck(&spec);
        assert_eq!(built.groups.len(), 6); // A, C1..C3, B1..B2
        assert_eq!(built.bottlenecks.len(), 5); // L1..L3, B1..B2
        let link_of = |label: &str| {
            let addr = built.bottlenecks.iter().find(|b| b.label == label).unwrap().addr;
            built.net.link_by_addr(addr).unwrap()
        };
        let group = |label: &str| built.groups.iter().find(|g| g.label == label).unwrap();

        // The long group crosses every chain link and no branch link.
        let a = group("A");
        let path = route(&built.net, a.users[0], a.victim);
        for l in ["L1", "L2", "L3"] {
            assert!(path.contains(&link_of(l)), "A misses {l}");
        }
        for l in ["B1", "B2"] {
            assert!(!path.contains(&link_of(l)), "A crosses branch {l}");
        }
        // Each local group crosses exactly its chain link.
        for i in 1..=3usize {
            let g = group(&format!("C{i}"));
            let path = route(&built.net, g.attackers[0], g.colluders[0]);
            for j in 1..=3usize {
                let crosses = path.contains(&link_of(&format!("L{j}")));
                assert_eq!(crosses, i == j, "C{i} vs L{j}");
            }
        }
        // Each branch group crosses exactly its branch link.
        for j in 1..=2usize {
            let g = group(&format!("B{j}"));
            let path = route(&built.net, g.users[0], g.victim);
            assert!(path.contains(&link_of(&format!("B{j}"))));
            for l in ["L1", "L2", "L3"] {
                assert!(!path.contains(&link_of(l)), "B{j} crosses chain {l}");
            }
        }
    }
}
