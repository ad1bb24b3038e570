//! Per-sender fair queuing at every link (the "FQ" baseline of §6.3).
//!
//! The paper uses Deficit Round Robin fair queuing to represent defenses
//! that simply throttle every sender to its fair share at each link. It
//! bounds an attacker to `C/N`, but — as Figure 8 shows — it makes every
//! legitimate packet compete with the full set of attackers at every hop,
//! so small file transfers slow down linearly with the number of senders.
//!
//! FQ is a pure queue-discipline defense: its deployment installs no host
//! shims and no router agents, only a queue plan that replaces the
//! scheduler of every link owned by a deploying AS.

use netfence_sim::deploy::{Deployment, DeploymentSpec};
use netfence_sim::queue::{Classifier, DrrQueue};
use netfence_sim::topology::Network;

/// Byte limit of each per-sender queue.
const PER_SENDER_LIMIT: usize = 30_000;

/// The per-sender DRR fair-queuing defense (30 kB per-sender backlog
/// limit).
#[derive(Debug, Default)]
pub struct FairQueuingDefense;

impl FairQueuingDefense {
    /// Deploy onto `net` according to `spec`.
    pub fn deploy(&self, net: &Network, spec: &DeploymentSpec) -> Deployment {
        let map = spec.resolve(net);
        let mut builder = Deployment::builder(net, "fq");
        builder.ases(map.ases.len(), map.total_ases);
        for (li, _) in map.links(net) {
            builder
                .queue(li, Box::new(DrrQueue::new(Classifier::BySource, 1500, PER_SENDER_LIMIT)));
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::prelude::*;

    const USER: u32 = 1;
    const ATTACKER: u32 = 2;
    const VICTIM: u32 = 100;

    #[test]
    fn fair_queuing_protects_a_tcp_flow_from_a_flooder() {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        b.duplex(r1, r2, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.host(USER, 1, r1, 100_000_000, MILLI);
        b.host(ATTACKER, 1, r1, 100_000_000, MILLI);
        b.host(VICTIM, 2, r2, 100_000_000, MILLI);
        let net = b.build();

        let deployment = FairQueuingDefense.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 2_000_000)));
        sim.run();
        let user_bps = sim.progress(user).goodput_bps(0, 60 * SEC);
        let attacker_bps = sim.progress(attacker).goodput_bps(0, 60 * SEC);
        // The attacker cannot exceed its ~half share; the TCP user gets a
        // substantial share (the paper notes DRR+TCP gives the TCP flow a
        // bit less than the UDP flooder, which we tolerate here).
        assert!(attacker_bps < 650_000.0, "attacker got {attacker_bps:.0} bps");
        assert!(user_bps > 250_000.0, "user got {user_bps:.0} bps");
        // FQ deploys no agents, only queues.
        let report = sim.report();
        assert_eq!(report.host_shims, 0);
        assert_eq!(report.router_agents, 0);
    }
}
