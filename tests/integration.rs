//! End-to-end integration tests spanning the crypto, core, sim and systems
//! crates: small packet-level simulations asserting the paper's qualitative
//! claims.

use netfence_core::config::Config;
use netfence_sim::prelude::*;
use netfence_systems::NetFenceDefense;

const USER: u32 = 0x0a_00_00_01;
const ATTACKER: u32 = 0x0a_00_00_02;
const VICTIM: u32 = 0x0b_00_00_01;
const COLLUDER: u32 = 0x0b_00_00_02;

fn small_net(bottleneck: u64) -> (Network, LinkAddr) {
    let mut b = Network::builder();
    let ra = b.router(1, true);
    let rb = b.router(2, false);
    let rc = b.router(3, true);
    let (fwd, _) = b.duplex(ra, rb, bottleneck, 10 * MILLI, QueueKind::Red);
    b.duplex(rb, rc, bottleneck * 10, 10 * MILLI, QueueKind::Red);
    b.host(USER, 1, ra, 100_000_000, MILLI);
    b.host(ATTACKER, 1, ra, 100_000_000, MILLI);
    b.host(VICTIM, 3, rc, 100_000_000, MILLI);
    b.host(COLLUDER, 3, rc, 100_000_000, MILLI);
    let net = b.build();
    let addr = net.links[fwd].addr;
    (net, addr)
}

/// Without any defense, a 1 Mbps UDP flood starves a TCP user on a 1 Mbps
/// bottleneck; with NetFence the user gets a comparable share (the §3.4
/// guarantee).
#[test]
fn netfence_restores_fair_share_under_collusion() {
    let run = |defended: bool| -> (f64, f64) {
        let (net, _) = small_net(1_000_000);
        let deployment = if defended {
            NetFenceDefense::new(Config::short_timers()).deploy(&net, &DeploymentSpec::full())
        } else {
            Deployment::undefended(&net)
        };
        let mut sim = Simulator::new(
            net,
            deployment,
            SimConfig { end_time: 100 * SEC, ..Default::default() },
        );
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        sim.run();
        (
            sim.progress(user).goodput_bps(0, 100 * SEC),
            sim.progress(attacker).goodput_bps(0, 100 * SEC),
        )
    };
    let (user_undef, attacker_undef) = run(false);
    let (user_def, attacker_def) = run(true);
    assert!(
        user_undef < 0.3 * attacker_undef,
        "undefended TCP should lose to the flood ({user_undef:.0} vs {attacker_undef:.0})"
    );
    assert!(
        user_def > 0.5 * attacker_def,
        "NetFence should restore a comparable share ({user_def:.0} vs {attacker_def:.0})"
    );
    assert!(user_def > 3.0 * user_undef, "NetFence should improve the user substantially");
}

/// Feedback-as-capability: a victim that withholds feedback reduces an
/// unwanted 1 Mbps flood to the strictly limited request channel.
#[test]
fn withholding_feedback_suppresses_unwanted_traffic() {
    let (net, _) = small_net(1_000_000);
    let mut defense = NetFenceDefense::new(Config::short_timers());
    defense.suppress_sender(VICTIM, ATTACKER);
    let deployment = defense.deploy(&net, &DeploymentSpec::full());
    let mut sim =
        Simulator::new(net, deployment, SimConfig { end_time: 30 * SEC, ..Default::default() });
    let attacker = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
    sim.run();
    let delivered = sim.progress(attacker).goodput_bps(0, 30 * SEC);
    assert!(delivered < 150_000.0, "unwanted traffic not suppressed: {delivered:.0} bps");
}

/// The per-AS scalability claim: the bottleneck-side state NetFence keeps is
/// bounded by ASes and monitoring links, not by hosts; per-host state lives
/// only at access routers.
#[test]
fn bottleneck_state_is_not_per_host() {
    let (net, bottleneck) = small_net(1_000_000);
    let defense = NetFenceDefense::new(Config::short_timers());
    let deployment = defense.deploy(&net, &DeploymentSpec::full());
    let mut sim =
        Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
    sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
    sim.add_flow(0, |id| {
        Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
    });
    sim.run();
    let report = sim.report();
    assert!(report.link_in_mon(bottleneck));
    // Access routers keep per-(sender, bottleneck) limiters; with 2 senders
    // and a handful of monitored links this is a small number that scales
    // with senders-behind-this-access-router, not with all hosts at the
    // bottleneck.
    assert!(report.rate_limiters >= 2);
    assert!(report.rate_limiters <= 16);
}
