//! Packet conservation at end of run (ROADMAP item 4, first slice): every
//! injected packet was delivered, dropped with a typed cause, or is still
//! inside the network — in a link queue, on a wire or propagating, or held
//! by a rate limiter. A transmitter that sends a packet twice, or never,
//! breaks the sum.

use netfence::sim::prelude::*;

const HOST_A: HostAddr = 0x0a00_0001;
const HOST_B: HostAddr = 0x0b00_0001;

/// host A — r1 —(bottleneck)— r2 — host B; returns the bottleneck's index.
fn dumbbell(bottleneck_bps: u64) -> (Network, usize) {
    let mut b = Network::builder();
    let r1 = b.router(1, true);
    let r2 = b.router(2, false);
    let (bottleneck, _) = b.duplex(r1, r2, bottleneck_bps, 10 * MILLI, QueueKind::Red);
    b.host(HOST_A, 1, r1, 100_000_000, MILLI);
    b.host(HOST_B, 2, r2, 100_000_000, MILLI);
    (b.build(), bottleneck)
}

fn simulator(net: Network, end_time: Nanos) -> Simulator {
    Simulator::undefended(net, SimConfig { end_time, ..SimConfig::default() })
}

/// The books of a finished run must close, with every term in play.
fn assert_books_close(sim: Simulator, expect_drop: DropCause) {
    let metrics = &sim.metrics;
    let (injected, delivered, drops) =
        (metrics.injected_pkts, metrics.delivered_pkts, metrics.total_drop_pkts());
    assert!(delivered > 100, "delivered {delivered}");
    assert!(metrics.drops.total().get(expect_drop) > 0, "no {expect_drop:?} drop");
    let in_network = sim.into_in_network();
    assert!(in_network > 0, "a run cut off mid-flood has packets inside");
    assert_eq!(
        injected,
        delivered + drops + in_network,
        "injected {injected} != delivered {delivered} + dropped {drops} + inside {in_network}"
    );
}

#[test]
fn udp_overload_and_tcp_on_the_dumbbell() {
    let (net, _) = dumbbell(1_000_000);
    let mut sim = simulator(net, 5 * SEC);
    sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 3_000_000)));
    sim.add_flow(0, |id| {
        let workload = TcpWorkload::RepeatedFile { bytes: 20_000, gap: 50 * MILLI };
        Box::new(TcpFlow::new(id, HOST_A, HOST_B, workload, SimRng::new(9)))
    });
    sim.run();
    assert_books_close(sim, DropCause::QueueOverflow);
}

#[test]
fn link_failure_with_a_detour() {
    // r1 —(direct)— r2 plus a two-hop detour r1 — r3 — r2.
    let mut b = Network::builder();
    let r1 = b.router(1, true);
    let r2 = b.router(2, false);
    let r3 = b.router(3, false);
    let (direct, _) = b.duplex(r1, r2, 10_000_000, 5 * MILLI, QueueKind::DropTail);
    b.duplex(r1, r3, 10_000_000, 5 * MILLI, QueueKind::DropTail);
    b.duplex(r3, r2, 10_000_000, 5 * MILLI, QueueKind::DropTail);
    b.host(HOST_A, 1, r1, 100_000_000, MILLI);
    b.host(HOST_B, 2, r2, 100_000_000, MILLI);
    let mut sim = simulator(b.build(), 4 * SEC);
    sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 20_000_000)));
    sim.schedule_fault(2 * SEC, FaultAction::LinkDown { link: direct });
    sim.run();
    // The flooded link dies with a full queue and a packet on its wire.
    assert_books_close(sim, DropCause::LinkDown);
}

#[test]
fn link_failure_without_a_detour_then_restore() {
    let (net, bottleneck) = dumbbell(1_000_000);
    let mut sim = simulator(net, 6 * SEC);
    sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 3_000_000)));
    sim.schedule_fault(2 * SEC, FaultAction::LinkDown { link: bottleneck });
    sim.schedule_fault(4 * SEC, FaultAction::LinkUp { link: bottleneck });
    sim.run();
    assert_books_close(sim, DropCause::NoRoute);
}

/// `Runner` owns its simulator, so the same sum is a `debug_assert!` at the
/// end of every `Runner` run — this cell and every other experiment test in
/// a debug build. Nothing to observe in release.
#[cfg(debug_assertions)]
#[test]
fn chaos_link_failure_cell() {
    use netfence::experiments::chaos::{self, ChaosFault, ChaosPoint, ChaosTopology, Severity};
    use netfence::experiments::prelude::*;
    use netfence::experiments::registry::Size;

    let point = ChaosPoint {
        topology: ChaosTopology::Dumbbell,
        fault: ChaosFault::LinkFailure,
        severity: Severity::Severe,
    };
    let spec = chaos::chaos_spec(&Size::Quick.scale_for(25, 60), DefenseKind::NetFence, &point);
    let record = Runner::new(spec).run();
    assert!(record.report.drop_budget.get(DropCause::NoRoute) > 0, "the outage cut nobody off");
}

/// The causes that only a link queue (or a link going down under its
/// queue) records; every other cause is a node-level drop.
const LINK_CAUSES: [DropCause; 4] = [
    DropCause::QueueOverflow,
    DropCause::RequestQuota,
    DropCause::LegacyDemotion,
    DropCause::LinkDown,
];

/// The drop ledger's two attributions of one `Runner` cell close against
/// its run total, cause by cause: the role groups' budgets (one ledger
/// group per planned group, so an untagged or doubly tagged group breaks
/// the sum) and the per-link budgets (one slot per dropping link, so a
/// lost or aliased slot breaks it). Which group a drop lands in is pinned
/// by the `Record` digests of `tests/engine_pins.rs`.
fn assert_drops_attributed(cell: &str, spec: netfence::experiments::prelude::ScenarioSpec) {
    use netfence::experiments::prelude::Runner;

    let (record, dump) = Runner::new(spec).run_with_telemetry();
    let total = record.report.drop_budget;
    assert!(total.total() > 0, "{cell}: nothing dropped");
    assert_eq!(total.total(), record.engine.drops, "{cell}");
    let (mut roles, mut links) = (DropBudget::default(), DropBudget::default());
    record.roles.iter().for_each(|r| roles.merge(&r.drops));
    dump.link_drops.iter().for_each(|(_, b)| links.merge(b));
    for cause in DropCause::ALL {
        assert_eq!(roles.get(cause), total.get(cause), "{cell}: role drops, {cause:?}");
        let at_links = if LINK_CAUSES.contains(&cause) { total.get(cause) } else { 0 };
        assert_eq!(links.get(cause), at_links, "{cell}: link drops, {cause:?}");
    }
    let addrs: std::collections::BTreeSet<_> = dump.link_drops.iter().map(|&(a, _)| a).collect();
    assert_eq!(addrs.len(), dump.link_drops.len(), "{cell}: a link listed twice");
    assert!(dump.link_drops.iter().all(|(_, b)| b.total() > 0), "{cell}: an empty link slot");
}

#[test]
fn fig8_and_fig9_quick_cells_attribute_every_drop() {
    use netfence::experiments::fig8::fig8_spec;
    use netfence::experiments::fig9::{fig9_spec, UserTraffic};
    use netfence::experiments::prelude::DefenseKind;
    use netfence::experiments::registry::Size;

    let scale = Size::Quick.scale();
    for kind in DefenseKind::EVERY {
        let spec = fig8_spec(&scale, kind, 100_000);
        assert_drops_attributed(&format!("fig8/{}", kind.label()), spec);
        for traffic in [UserTraffic::LongRunning, UserTraffic::WebLike] {
            let spec = fig9_spec(&scale, kind, traffic, 100_000);
            assert_drops_attributed(&format!("fig9/{traffic:?}/{}", kind.label()), spec);
        }
    }
}

#[test]
fn chaos_and_outage_cells_attribute_every_drop() {
    use netfence::experiments::chaos::{self, chaos_spec};
    use netfence::experiments::prelude::*;
    use netfence::experiments::reaction::ATTACK_START;
    use netfence::experiments::registry::Size;

    let scale = Size::Quick.scale_for(25, 60);
    for kind in chaos::SYSTEMS {
        for point in chaos::quick_points() {
            let cell = format!("chaos/{}/{}", point.fault.label(), kind.label());
            assert_drops_attributed(&cell, chaos_spec(&scale, kind, &point));
        }
    }
    assert_drops_attributed("chaos/traced", chaos::traced_spec(Size::Quick));

    // The `control_plane_outage` example's cell.
    let mut outage = FaultPlan::empty();
    outage.controller_outage(ATTACK_START, ATTACK_START + 10 * SEC);
    let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 48 * SEC, seed: 5 };
    let spec = ScenarioSpec::dumbbell(scale)
        .named("control-plane-outage")
        .defense(DefenseKind::StopIt)
        .fair_share(30_000)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .fault_plan(outage)
        .sampled(SEC);
    assert_drops_attributed("control_plane_outage", spec);
}
