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
