//! The paper's two hand-wired evaluation topologies (§6.3): the Figure
//! 8/9/11 dumbbell and the Figure 10 parking lot.
//!
//! These are the degenerate cases of the generated families in
//! [`generate`](crate::generate): [`TopoSpec::Dumbbell`] and
//! [`TopoSpec::ParkingLot`] are built here, and like every other family
//! come back as one uniform [`BuiltTopo`].
//!
//! [`TopoSpec`]: crate::spec::TopoSpec
//! [`TopoSpec::Dumbbell`]: crate::spec::TopoSpec::Dumbbell
//! [`TopoSpec::ParkingLot`]: crate::spec::TopoSpec::ParkingLot

use netfence_sim::prelude::*;

use crate::built::{Bottleneck, BuiltTopo, GroupShape, TopoGroup};

/// Host address of host `k` in source AS `i` (1-based AS index).
pub fn src_host_addr(as_index: usize, host_index: usize) -> HostAddr {
    0x0A00_0000 + (as_index as u32) * 0x100 + host_index as u32 + 1
}

/// Build the dumbbell (Figure 8/9/11 topology): `src_ases` source ASes
/// connect through a transit AS (routers `Rbl`—`Rbr`, the bottleneck) to one
/// destination AS holding the victim and `colluder_ases` extra ASes each
/// holding one colluder. `legit_per_as` of each AS's hosts are legitimate
/// users, the rest are attackers. One unlabeled group; every sender
/// competes on the single bottleneck.
pub fn build_dumbbell(
    src_ases: usize,
    hosts_per_as: usize,
    legit_per_as: usize,
    bottleneck_bps: u64,
    colluder_ases: usize,
) -> BuiltTopo {
    let mut b = Network::builder();
    // Transit AS 100 with the two bottleneck routers.
    let rbl = b.router(100, false);
    let rbr = b.router(100, false);
    let access_capacity = (bottleneck_bps * 10).max(100_000_000);
    let bottleneck_idx = b.link(rbl, rbr, bottleneck_bps, 10 * MILLI, QueueKind::Red);
    b.link(rbr, rbl, bottleneck_bps, 10 * MILLI, QueueKind::Red);

    let mut users = Vec::new();
    let mut attackers = Vec::new();
    // Source ASes 1..=N, each with one access router and `hosts_per_as`
    // hosts.
    for asn in 1..=src_ases {
        let ra = b.router(asn as u32, true);
        b.duplex(ra, rbl, access_capacity, 10 * MILLI, QueueKind::DropTail);
        for h in 0..hosts_per_as {
            let addr = src_host_addr(asn, h);
            b.host(addr, asn as u32, ra, access_capacity, MILLI);
            if h < legit_per_as {
                users.push(addr);
            } else {
                attackers.push(addr);
            }
        }
    }

    // Destination AS 200 with the victim.
    let rd = b.router(200, true);
    b.duplex(rbr, rd, access_capacity, 10 * MILLI, QueueKind::DropTail);
    let victim = 0x1400_0001;
    b.host(victim, 200, rd, access_capacity, MILLI);

    // Colluder ASes 201..
    let mut colluders = Vec::new();
    for c in 0..colluder_ases {
        let asn = 201 + c as u32;
        let rc = b.router(asn, true);
        b.duplex(rbr, rc, access_capacity, 10 * MILLI, QueueKind::DropTail);
        let addr = 0x1500_0001 + c as u32 * 0x100;
        b.host(addr, asn, rc, access_capacity, MILLI);
        colluders.push(addr);
    }

    let net = b.build();
    let bottleneck = Bottleneck {
        label: "bottleneck".to_string(),
        addr: net.links[bottleneck_idx].addr,
        bps: bottleneck_bps,
    };
    let mut source_ases: Vec<AsNum> =
        users.iter().chain(&attackers).map(|&h| net.as_of_host(h)).collect();
    source_ases.sort_unstable();
    source_ases.dedup();
    let competing_senders = users.len() + attackers.len();
    BuiltTopo {
        net,
        groups: vec![TopoGroup { label: String::new(), users, attackers, victim, colluders }],
        bottlenecks: vec![bottleneck],
        source_ases,
        competing_senders,
    }
}

/// Build the parking-lot topology: `R0 —L1→ R1 —L2→ R2`, with each group's
/// senders and destinations attached so that the paper's crossing pattern
/// holds (A crosses both links, B only L2, C only L1). Three labeled
/// groups, each with its own victim and colluder, two designated
/// bottlenecks, and `2 · per_group` senders competing on the tighter link
/// (A+C cross L1, A+B cross L2).
pub fn build_parking_lot(
    per_group: usize,
    legit_per_group: usize,
    l1_bps: u64,
    l2_bps: u64,
) -> BuiltTopo {
    let mut b = Network::builder();
    let r0 = b.router(100, false);
    let r1 = b.router(101, false);
    let r2 = b.router(102, false);
    let access_cap = (l1_bps.max(l2_bps) * 10).max(100_000_000);
    let l1_idx = b.link(r0, r1, l1_bps, 10 * MILLI, QueueKind::Red);
    b.link(r1, r0, l1_bps, 10 * MILLI, QueueKind::Red);
    let l2_idx = b.link(r1, r2, l2_bps, 10 * MILLI, QueueKind::Red);
    b.link(r2, r1, l2_bps, 10 * MILLI, QueueKind::Red);

    let shape = GroupShape { hosts: per_group, legit: legit_per_group, access_cap };
    // Group A: sources before L1, destinations after L2.
    let group_a = shape.attach(&mut b, "A".to_string(), (1, r0), (11, r2), 0x0A01_0000);
    // Group B: sources before L2 (at R1), destinations after L2.
    let group_b = shape.attach(&mut b, "B".to_string(), (2, r1), (12, r2), 0x0A02_0000);
    // Group C: sources before L1, destinations between L1 and L2 (at R1).
    let group_c = shape.attach(&mut b, "C".to_string(), (3, r0), (13, r1), 0x0A03_0000);

    let net = b.build();
    let bottlenecks = vec![
        Bottleneck { label: "L1".to_string(), addr: net.links[l1_idx].addr, bps: l1_bps },
        Bottleneck { label: "L2".to_string(), addr: net.links[l2_idx].addr, bps: l2_bps },
    ];
    BuiltTopo {
        net,
        groups: vec![group_a, group_b, group_c],
        bottlenecks,
        source_ases: vec![1, 2, 3],
        competing_senders: 2 * per_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the route from `src` to `dst` uses link `link`.
    fn crosses(net: &Network, src: HostAddr, dst: HostAddr, link: usize) -> bool {
        let mut node = net.host_node(src);
        for _ in 0..12 {
            match net.next_hop(node, dst) {
                Some(l) if l == link => return true,
                Some(l) => node = net.links[l].to,
                None => return false,
            }
        }
        false
    }

    #[test]
    fn dumbbell_roles_and_routing() {
        let d = build_dumbbell(3, 4, 1, 10_000_000, 2);
        assert_eq!(d.groups.len(), 1);
        let g = &d.groups[0];
        assert_eq!((g.users.len(), g.attackers.len(), g.colluders.len()), (3, 9, 2));
        assert_eq!(d.bottlenecks.len(), 1);
        assert_eq!(d.bottlenecks[0].bps, 10_000_000);
        assert_eq!(d.source_ases, vec![1, 2, 3]);
        assert_eq!(d.competing_senders, 12);
        // Every source host routes to the victim through the bottleneck.
        let bottleneck = d.net.link_by_addr(d.bottlenecks[0].addr).unwrap();
        for u in g.senders() {
            assert!(crosses(&d.net, u, g.victim, bottleneck), "host {u:#x} misses the bottleneck");
        }
    }

    #[test]
    fn parking_lot_roles_and_routing() {
        let lot = build_parking_lot(4, 1, 1_000_000, 2_000_000);
        assert_eq!(lot.groups.len(), 3);
        assert_eq!(lot.bottlenecks[0].label, "L1");
        assert_eq!(lot.bottlenecks[1].bps, 2_000_000);
        assert_eq!(lot.competing_senders, 8);
        assert_eq!(lot.source_ases, vec![1, 2, 3]);
        let l1 = lot.net.link_by_addr(lot.bottlenecks[0].addr).unwrap();
        let l2 = lot.net.link_by_addr(lot.bottlenecks[1].addr).unwrap();
        let [a, b, c] = &lot.groups[..] else { panic!("three groups") };
        assert_eq!([&a.label[..], &b.label[..], &c.label[..]], ["A", "B", "C"]);
        assert_eq!((a.users.len(), a.attackers.len()), (1, 3));
        // Group A crosses both links.
        assert!(crosses(&lot.net, a.users[0], a.victim, l1));
        assert!(crosses(&lot.net, a.users[0], a.victim, l2));
        // Group B crosses only L2, group C only L1.
        assert!(!crosses(&lot.net, b.attackers[0], b.colluders[0], l1));
        assert!(crosses(&lot.net, b.attackers[0], b.colluders[0], l2));
        assert!(crosses(&lot.net, c.attackers[0], c.colluders[0], l1));
        assert!(!crosses(&lot.net, c.attackers[0], c.colluders[0], l2));
    }
}
