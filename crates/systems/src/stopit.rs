//! StopIt (Liu, Yang, Lu — SIGCOMM 2008), as described and used by the
//! NetFence evaluation (§6.3).
//!
//! StopIt is a filter-based defense: a targeted victim that can identify
//! attack traffic asks the network to block the (source, destination) pair
//! close to the source. In this deployment model the victim's host shim
//! sends a [`ControlPayload::FilterRequest`] over the control-plane bus to
//! the *source's access router*, whose agent installs the filter — the
//! closed-loop StopIt protocol collapsed to one message. When the source's AS
//! has not deployed (no agent at its access router), the request is
//! undeliverable and the attack traffic keeps flowing: exactly the
//! partial-deployment weakness of filter systems. When receivers fail to
//! install filters (e.g. colluding receivers), StopIt falls back to
//! two-level hierarchical fair queuing (source AS, then source host) at
//! congested links.
//!
//! Filters live in a TTL'd [`PolicyStore`]: with
//! [`StopItDefense::filter_ttl`] set, an installed filter lapses unless the
//! victim's refresh request lands in time — and the victim only re-requests
//! when leaked traffic reaches it again, so an expired filter *is* visible
//! as a resumed flood until the refresh crosses the control plane. The
//! default TTL of 0 keeps the legacy permanent-filter behavior.

use netfence_ctrl::policy::PolicyStore;
use netfence_sim::control::{ControlPayload, ControlPlane};
use netfence_sim::deploy::{
    DefenseReport, Deployment, DeploymentSpec, HostShim, LinkRef, RouterAction, RouterAgent,
    RouterFault,
};
use netfence_sim::packet::{HostAddr, Packet};
use netfence_sim::prelude::{DropCause, IdMap, Timeline};
use netfence_sim::queue::HierDrrQueue;
use netfence_sim::time::Nanos;
use netfence_sim::topology::Network;

use crate::victims::{Acceptance, Victims};

/// The StopIt defense.
#[derive(Debug, Default)]
pub struct StopItDefense {
    /// Receivers that automatically file a filter request against every
    /// sender they do not explicitly allow (the victim behaviour in
    /// §6.3.1).
    victims: Victims,
    /// Whether inter-router links use the hierarchical fair-queuing
    /// fallback.
    hierarchical_fallback: bool,
    /// Installed filters lapse after this long without a refresh
    /// (0 = permanent, the legacy behavior).
    filter_ttl: Nanos,
}

impl StopItDefense {
    /// Create a StopIt defense with the hierarchical fair-queuing fallback
    /// enabled.
    pub fn new() -> Self {
        StopItDefense { hierarchical_fallback: true, ..Default::default() }
    }

    /// Mark a receiver as a victim that files a filter against every
    /// sender but `allowed`, as soon as it receives traffic from it.
    pub fn auto_filter(&mut self, victim: HostAddr, allowed: &[HostAddr]) {
        self.victims.insert(victim, allowed);
    }

    /// Make installed filters lapse after `ttl` without a refresh
    /// (0 restores the legacy permanent filters). Victims re-request a
    /// filter when leaked traffic reaches them again.
    pub fn filter_ttl(&mut self, ttl: Nanos) {
        self.filter_ttl = ttl;
    }

    /// Deploy onto `net` according to `spec`.
    pub fn deploy(
        &self,
        net: &Network,
        spec: &DeploymentSpec,
    ) -> Deployment<StopItHostShim, StopItRouterAgent> {
        let map = spec.resolve(net);
        let mut builder = Deployment::builder(net, "stopit");
        builder.ases(map.ases.len(), map.total_ases);

        if self.hierarchical_fallback {
            for (li, _) in map.router_links(net) {
                builder.queue(li, Box::new(HierDrrQueue::new(1500, 30_000)));
            }
        }

        for node in map.routers(net) {
            let filters = PolicyStore::new(self.filter_ttl, 0);
            builder.router_agent(node, StopItRouterAgent { filters });
        }
        for host in map.hosts(net) {
            builder.host_shim(
                host,
                StopItHostShim {
                    accepts: self.victims.acceptance_of(host),
                    requested: IdMap::default(),
                    filter_ttl: self.filter_ttl,
                },
            );
        }
        builder.build()
    }
}

/// The StopIt shim of one host: a victim identifies unwanted traffic and
/// files filter requests over the control plane.
#[derive(Debug)]
pub struct StopItHostShim {
    /// Whom this receiver files filter requests against.
    accepts: Acceptance,
    /// Sender → time of the last filed request. With permanent filters
    /// (ttl 0) one request suffices; with a TTL the victim re-requests
    /// when leaked traffic shows the filter lapsed.
    requested: IdMap<HostAddr, Nanos>,
    filter_ttl: Nanos,
}

impl StopItHostShim {
    /// Whether to file a (re-)request against `src` at `now`.
    fn should_request(&mut self, now: Nanos, src: HostAddr) -> bool {
        match self.requested.get_mut(&src) {
            None => {
                self.requested.insert(src, now);
                true
            }
            Some(last) if self.filter_ttl > 0 && now >= *last + self.filter_ttl / 2 => {
                *last = now;
                true
            }
            Some(_) => false,
        }
    }
}

impl HostShim for StopItHostShim {
    fn on_receive(&mut self, now: Nanos, pkt: &Packet, ctl: &mut ControlPlane) {
        if !self.accepts.wants(pkt.src) && self.should_request(now, pkt.src) {
            let request = ControlPayload::FilterRequest { src: pkt.src, dst: pkt.dst };
            ctl.to_access_router_of(pkt.src, request);
        }
    }
}

/// The StopIt agent of one deployed router: the TTL'd filter store
/// populated by [`ControlPayload::FilterRequest`] messages.
#[derive(Debug)]
pub struct StopItRouterAgent {
    filters: PolicyStore<(HostAddr, HostAddr)>,
}

impl RouterAgent for StopItRouterAgent {
    fn at_router(
        &mut self,
        now: Nanos,
        is_access: bool,
        _out_link: LinkRef,
        pkt: &mut Packet,
        _ctl: &mut ControlPlane,
    ) -> RouterAction {
        if is_access && self.filters.contains(now, &(pkt.src, pkt.dst)) {
            RouterAction::Drop(DropCause::StopItFilter)
        } else {
            RouterAction::Forward
        }
    }

    fn probe(&self, now: Nanos, out: &mut Timeline) {
        out.record(now, "filter_table_len", "stopit".to_string(), self.filters.len() as f64);
    }

    fn on_control(&mut self, now: Nanos, msg: ControlPayload, _ctl: &mut ControlPlane) {
        if let ControlPayload::FilterRequest { src, dst } = msg {
            self.filters.insert(now, (src, dst));
        }
    }

    fn tick(&mut self, now: Nanos, _ctl: &mut ControlPlane) {
        self.filters.purge(now);
    }

    fn on_fault(&mut self, _now: Nanos, fault: RouterFault, _ctl: &mut ControlPlane) {
        match fault {
            RouterFault::Reboot => {
                // A reboot loses the filter table; the flood leaks again
                // until victims notice and re-file their requests. The
                // lifecycle counters are measurement, not router state, so
                // they survive.
                self.filters.clear();
            }
            RouterFault::MemoryPressure { evict } => {
                self.filters.evict_oldest(evict);
            }
            // StopIt carries no MACs and stamps no timestamps: key desync
            // and clock skew have nothing to corrupt here.
            RouterFault::KeyDesync | RouterFault::ClockSkew { .. } => {}
        }
    }

    fn report(&self, out: &mut DefenseReport) {
        out.filters += self.filters.len();
        out.rules_installed += self.filters.stats.installed;
        out.rules_refreshed += self.filters.stats.refreshed;
        out.rules_expired += self.filters.stats.expired;
        out.rules_rejected += self.filters.stats.rejected;
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
    fn filters_block_unwanted_traffic_near_the_source() {
        let mut d = StopItDefense::new();
        d.auto_filter(VICTIM, &[USER]);
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
        let report = sim.report();
        assert_eq!(report.filters, 1, "one filter against the attacker");
        assert!(report.filtered_drops > 100);
        // Attack traffic is blocked after the first packets reach the
        // victim; the user transfers at full speed.
        let attacker_goodput = sim.progress(attacker).goodput_bps(0, 20 * SEC);
        assert!(attacker_goodput < 50_000.0, "attacker delivered {attacker_goodput:.0} bps");
        let p = sim.progress(user);
        assert!(p.completions.len() > 30);
        assert!(p.avg_transfer_secs().unwrap() < 1.0);
    }

    #[test]
    fn colluding_attack_falls_back_to_hierarchical_fair_queuing() {
        // The colluder never files a filter; StopIt's per-AS/per-source fair
        // queuing still gives the user a share of the bottleneck.
        let d = StopItDefense::new();
        let net = net();
        let deployment = d.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        sim.run();
        let user_bps = sim.progress(user).goodput_bps(0, 60 * SEC);
        let attacker_bps = sim.progress(attacker).goodput_bps(0, 60 * SEC);
        assert!(attacker_bps < 650_000.0, "attacker {attacker_bps:.0}");
        assert!(user_bps > 250_000.0, "user {user_bps:.0}");
        assert_eq!(sim.report().filters, 0);
    }

    #[test]
    fn ttl_filters_lapse_and_leaked_traffic_refiles_them() {
        // With a 2 s filter TTL the victim stops refreshing while the
        // filter works (nothing arrives), so it lapses, the flood leaks
        // through, and the leak itself triggers the re-request — repeat.
        let run = |ttl| {
            let mut d = StopItDefense::new();
            d.auto_filter(VICTIM, &[]);
            d.filter_ttl(ttl);
            let net = net();
            let deployment = d.deploy(&net, &DeploymentSpec::full());
            let mut sim = Simulator::new(
                net,
                deployment,
                SimConfig { end_time: 30 * SEC, ..Default::default() },
            );
            let attacker =
                sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
            sim.run();
            (sim.report(), sim.progress(attacker).goodput_bps(0, 30 * SEC))
        };
        let (permanent, permanent_bps) = run(0);
        assert_eq!(permanent.rules_installed, 1);
        assert_eq!(permanent.rules_expired, 0);
        let (ttl, ttl_bps) = run(2 * SEC);
        assert!(ttl.rules_expired >= 2, "filters never lapsed: {ttl:?}");
        assert!(
            ttl.rules_installed + ttl.rules_refreshed >= 3,
            "leaks never refiled the filter: {ttl:?}"
        );
        // Leak windows let more attack traffic through than permanent
        // filters, but the refreshed filter keeps the flood mostly blocked.
        assert!(ttl_bps > permanent_bps, "{ttl_bps} vs {permanent_bps}");
        assert!(ttl_bps < 500_000.0, "flood effectively unblocked: {ttl_bps:.0} bps");
    }

    #[test]
    fn legacy_source_as_escapes_the_filter() {
        // The victim's AS deploys but the attacker's AS does not: the
        // filter request is undeliverable and the flood keeps arriving —
        // the partial-deployment weakness of filter systems.
        let mut d = StopItDefense::new();
        d.auto_filter(VICTIM, &[]);
        let net = net();
        let deployment = d.deploy(&net, &DeploymentSpec::explicit(vec![2, 3]));
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 20 * SEC, ..Default::default() });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
        sim.run();
        let report = sim.report();
        assert_eq!(report.filters, 0, "no agent near the source to install the filter");
        assert!(report.control_undeliverable >= 1);
        let delivered = sim.progress(attacker).goodput_bps(0, 20 * SEC);
        assert!(delivered > 500_000.0, "flood not blocked: {delivered:.0} bps keep flowing");
    }
}
