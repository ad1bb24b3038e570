//! TVA+ (Yang, Wetherall, Anderson; with the refinements of \[27\]), as
//! described and used by the NetFence evaluation (§6.3).
//!
//! TVA+ is a capability-based defense:
//!
//! * a sender first transmits a *request* packet; requests are forwarded on
//!   a channel capped at a small fraction of each link and scheduled with
//!   two-level hierarchical fair queuing (source AS, then source host);
//! * the receiver decides whether to grant a capability; the grant is
//!   piggybacked on reverse-direction traffic (carried in the shim header,
//!   as real TVA returns capabilities in its replies), and only packets
//!   carrying a valid capability use the regular channel;
//! * to contain colluding (or incompetent) receivers that authorize attack
//!   traffic, regular packets are scheduled with per-destination fair
//!   queuing at congested links — which is exactly the weakness Figure 9
//!   exposes: a handful of colluder destinations can grab most of the
//!   bottleneck.
//!
//! Deployment is per-AS: hosts of deploying ASes run a [`HostShim`] that
//! requests/holds/grants capabilities, routers of deploying ASes run a
//! [`RouterAgent`] that verifies the capability carried in each regular
//! packet. Legacy traffic (no shim header) is forwarded unverified.
//! Capabilities here are modelled as expiry timestamps rather than
//! cryptographic tokens; the cryptographic machinery is NetFence-specific
//! and is implemented in `netfence-core`.

use netfence_ctrl::policy::PolicyStore;
use netfence_sim::control::ControlPlane;
use netfence_sim::deploy::{
    DefenseReport, Deployment, DeploymentSpec, HostShim, LinkRef, RouterAction, RouterAgent,
};
use netfence_sim::packet::{ChannelClass, Extension, HostAddr, Packet};
use netfence_sim::prelude::{DropCause, IdMap};
use netfence_sim::queue::{qlim_bytes, Classifier, DrrQueue, DualChannelQueue, HierDrrQueue};
use netfence_sim::time::{Nanos, SEC};
use netfence_sim::topology::Network;

use crate::headers::TvaExt;
use crate::victims::{Acceptance, Victims};

/// Default validity of a granted capability.
const CAPABILITY_LIFETIME: Nanos = 10 * SEC;

/// The TVA+ defense.
#[derive(Debug)]
pub struct TvaDefense {
    /// Receivers that refuse to grant capabilities to senders they do not
    /// explicitly allow.
    victims: Victims,
    /// How long a granted capability remains valid before the sender must
    /// obtain a fresh grant.
    capability_lifetime: Nanos,
}

impl Default for TvaDefense {
    fn default() -> Self {
        TvaDefense { victims: Victims::default(), capability_lifetime: CAPABILITY_LIFETIME }
    }
}

impl TvaDefense {
    /// Create a TVA+ defense.
    pub fn new() -> Self {
        Self::default()
    }

    /// Change how long granted capabilities stay valid (default 10 s).
    /// Senders whose reverse traffic stalls — e.g. during a control-plane
    /// outage at the receiver's AS — lose the regular channel when the
    /// grant lapses and must re-request.
    pub fn capability_lifetime(&mut self, lifetime: Nanos) {
        self.capability_lifetime = lifetime;
    }

    /// Make `victim` refuse capabilities to every sender but `allowed`.
    pub fn deny_by_default(&mut self, victim: HostAddr, allowed: &[HostAddr]) {
        self.victims.insert(victim, allowed);
    }

    /// Deploy onto `net` according to `spec`.
    pub fn deploy(
        &self,
        net: &Network,
        spec: &DeploymentSpec,
    ) -> Deployment<TvaHostShim, TvaRouterAgent> {
        let map = spec.resolve(net);
        let mut builder = Deployment::builder(net, "tva+");
        builder.ases(map.ases.len(), map.total_ases);

        // Every deployed inter-router link: per-destination (per-receiver)
        // fair queuing on the regular channel, two-level hierarchical fair
        // queuing capped at 5% on the request channel.
        for (li, link) in map.router_links(net) {
            let regular = Box::new(DrrQueue::new(Classifier::ByDestination, 1500, 30_000));
            let request = Box::new(HierDrrQueue::new(1500, 10_000));
            let qlim = qlim_bytes(link.capacity).max(15_000);
            let queue = DualChannelQueue::new(regular, request, qlim / 4, link.capacity, 0.05);
            builder.queue(li, Box::new(queue));
        }

        for node in map.routers(net) {
            builder.router_agent(node, TvaRouterAgent);
        }
        for host in map.hosts(net) {
            builder.host_shim(
                host,
                TvaHostShim {
                    accepts: self.victims.acceptance_of(host),
                    granted: PolicyStore::new(self.capability_lifetime, 0),
                    held: IdMap::default(),
                },
            );
        }
        builder.build()
    }
}

/// The TVA+ shim of one host: the capabilities it has granted to peers and
/// the capabilities it holds for its own destinations.
#[derive(Debug)]
pub struct TvaHostShim {
    /// Whom this receiver grants capabilities to.
    accepts: Acceptance,
    /// Capabilities granted by this receiver, TTL'd by the configured
    /// lifetime; lapsed grants are purged on tick and counted in the
    /// report's `rules_expired`.
    granted: PolicyStore<HostAddr>,
    /// Capabilities this sender holds: destination → expiry (learned from
    /// grants piggybacked on reverse traffic).
    held: IdMap<HostAddr, Nanos>,
}

impl HostShim for TvaHostShim {
    fn on_send(&mut self, now: Nanos, pkt: &mut Packet, _ctl: &mut ControlPlane) {
        // Piggyback this host's (still valid) grant for the destination, so
        // the destination learns it may send back on the regular channel.
        let grant = self.granted.expiry_of(&pkt.dst).filter(|&exp| exp > now);
        let cap = self.held.get(&pkt.dst).copied().filter(|&exp| exp > now);
        let ext = if let Some(exp) = cap {
            pkt.channel = ChannelClass::Regular;
            TvaExt::Regular { cap_expiry: exp, grant }
        } else {
            pkt.channel = ChannelClass::Request;
            TvaExt::Request { grant }
        };
        pkt.size += ext.wire_len();
        pkt.ext = Some(Box::new(ext));
    }

    fn on_receive(&mut self, now: Nanos, pkt: &Packet, _ctl: &mut ControlPlane) {
        // 1. The receiver decides whether to (re)grant a capability to this
        //    sender; the grant travels back inside this host's own reverse
        //    traffic.
        if self.accepts.wants(pkt.src) {
            self.granted.insert(now, pkt.src);
        }
        // 2. A grant piggybacked on the arriving packet delivers the
        //    capability for the reverse direction.
        if let Some(grant) = pkt.ext_as::<TvaExt>().and_then(|e| e.grant()) {
            if grant > now {
                self.held.insert(pkt.src, grant);
            }
        }
    }

    fn tick(&mut self, now: Nanos, _ctl: &mut ControlPlane) {
        self.granted.purge(now);
    }

    fn report(&self, out: &mut DefenseReport) {
        out.capabilities_granted += self.granted.len();
        out.rules_installed += self.granted.stats.installed;
        out.rules_refreshed += self.granted.stats.refreshed;
        out.rules_expired += self.granted.stats.expired;
        out.rules_rejected += self.granted.stats.rejected;
    }
}

/// The TVA+ agent of one deployed router: verifies the capability carried
/// by regular packets.
#[derive(Debug)]
pub struct TvaRouterAgent;

impl RouterAgent for TvaRouterAgent {
    fn at_router(
        &mut self,
        now: Nanos,
        _is_access: bool,
        _out_link: LinkRef,
        pkt: &mut Packet,
        _ctl: &mut ControlPlane,
    ) -> RouterAction {
        match pkt.ext_as::<TvaExt>() {
            Some(TvaExt::Regular { cap_expiry, .. }) => {
                // Routers verify capabilities; regular packets with an
                // expired capability are dropped (they would be demoted to
                // the legacy channel in full TVA — equivalent for the
                // evaluation).
                if *cap_expiry > now {
                    RouterAction::Forward
                } else {
                    RouterAction::Drop(DropCause::TvaNoCapability)
                }
            }
            _ => RouterAction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::prelude::*;

    const USER: u32 = 1;
    const ATTACKER: u32 = 2;
    const VICTIM: u32 = 100;
    const COLLUDER: u32 = 101;

    fn net() -> Network {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        let r3 = b.router(3, true);
        b.duplex(r1, r2, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.duplex(r2, r3, 10_000_000, 10 * MILLI, QueueKind::Red);
        b.host(USER, 1, r1, 100_000_000, MILLI);
        b.host(ATTACKER, 1, r1, 100_000_000, MILLI);
        b.host(VICTIM, 3, r3, 100_000_000, MILLI);
        b.host(COLLUDER, 3, r3, 100_000_000, MILLI);
        b.build()
    }

    #[test]
    fn capabilities_gate_the_regular_channel() {
        let mut d = TvaDefense::new();
        d.deny_by_default(VICTIM, &[USER]);
        let net = net();
        let deployment = d.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 20 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(
                id,
                USER,
                VICTIM,
                TcpWorkload::RepeatedFile { bytes: 20_000, gap: 100 * MILLI },
                SimRng::new(1),
            ))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
        sim.run();
        // The attacker never obtains a capability: its 1 Mbps flood is
        // squeezed into the 5% request channel.
        let attacker_goodput = sim.progress(attacker).goodput_bps(0, 20 * SEC);
        assert!(attacker_goodput < 120_000.0, "attacker delivered {attacker_goodput:.0} bps");
        // The legitimate user is granted a capability and transfers quickly.
        let p = sim.progress(user);
        assert!(p.completions.len() > 30, "completions {}", p.completions.len());
        assert!(p.avg_transfer_secs().unwrap() < 1.5);
    }

    #[test]
    fn idle_grants_lapse_and_senders_re_request() {
        // Capability lifetime 2 s, transfer gap 5 s: every grant expires
        // between transfers, so each transfer re-enters via the request
        // channel and a fresh grant is installed — transfers keep
        // completing regardless.
        let mut d = TvaDefense::new();
        d.capability_lifetime(2 * SEC);
        let net = net();
        let deployment = d.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 30 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(
                id,
                USER,
                VICTIM,
                TcpWorkload::RepeatedFile { bytes: 20_000, gap: 5 * SEC },
                SimRng::new(1),
            ))
        });
        sim.run();
        let p = sim.progress(user);
        assert!(p.completions.len() >= 3, "completions {}", p.completions.len());
        assert_eq!(p.failed_transfers, 0);
        let report = sim.report();
        assert!(report.rules_expired >= 2, "expired: {}", report.rules_expired);
        assert!(report.rules_installed >= 3, "installed: {}", report.rules_installed);
    }

    #[test]
    fn colluders_hurt_tva_per_destination_queuing() {
        // With per-destination fair queuing, one colluder destination gets
        // half the bottleneck while the victim's many legitimate senders
        // share the other half — the TVA+ weakness the paper highlights.
        let d = TvaDefense::new();
        let net = net();
        let deployment = d.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_500_000)));
        sim.run();
        let user_bps = sim.progress(user).goodput_bps(0, 60 * SEC);
        let attacker_bps = sim.progress(attacker).goodput_bps(0, 60 * SEC);
        // Both destinations get roughly half of the 1 Mbps bottleneck.
        assert!(attacker_bps > 350_000.0 && attacker_bps < 650_000.0, "attacker {attacker_bps:.0}");
        assert!(user_bps > 250_000.0, "user {user_bps:.0}");
        assert!(sim.report().capabilities_granted >= 2);
    }
}
