//! The NetFence defense system deployed onto the simulator.
//!
//! [`NetFenceDefense::deploy`], given a network and a [`DeploymentSpec`],
//! installs one [`HostShim`](netfence_sim::deploy::HostShim) per host of
//! every deploying AS (the sender/receiver shim layer of §3.1, module
//! `shim`) and one [`RouterAgent`](netfence_sim::deploy::RouterAgent) per
//! router of every deploying AS (module `agent`), holding that router's
//! [`AccessRouter`](netfence_core::access::AccessRouter) protocol state and
//! one [`BottleneckLink`](netfence_core::bottleneck::BottleneckLink) per
//! outgoing inter-router link:
//!
//! * `on_send` — the sender shim builds the NetFence header (request or
//!   regular, presenting held feedback, echoing feedback for the reverse
//!   direction);
//! * `at_router` (access router) — validation, request policing, per-(sender,
//!   bottleneck) rate limiting, feedback re-stamping (Figure 18);
//! * `on_link_dequeue` / `on_link_drop` (bottleneck links) — attack
//!   detection input and `L↓` stamping (§4.3.1–4.3.2);
//! * `on_receive` — the receiver shim records presented feedback and the
//!   sender shim learns echoed feedback;
//! * `tick` — control-interval AIMD adjustment and monitoring-cycle
//!   bookkeeping.
//!
//! The Passport-style pairwise AS keys are established over the
//! deployment's [`ControlPlane`](netfence_sim::control::ControlPlane) bus: at
//! deploy time every deploying AS posts a
//! [`ControlPayload::KeyAnnouncement`] (its Diffie–Hellman public value) to
//! every deployed router agent, which records it in the router's one key
//! store, shared by its access router and bottleneck links — the
//! BGP-piggybacked exchange of §4.4, in message form. The store derives
//! the shared key the first time a component stamps or validates an `L↓`
//! for that AS, so keys nothing uses cost no key work. With
//! [`NetFenceDefense::key_ttl`] set, installed keys lapse unless the
//! owning AS's designated announcer (its first deployed router) re-posts
//! the announcement every `ttl / 2`; over a lossy or partitioned control
//! plane a missed refresh uninstalls the key and that AS's traffic
//! reverts to unverifiable until an announcement lands again. Nodes of
//! non-deploying ASes get no agents at all; their traffic carries no
//! NetFence header and is demoted to the legacy channel at deployed
//! routers, which is the paper's adoption incentive (§5.3).

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use netfence_core::config::Config;
use netfence_core::endpoint::{ReceiverPolicy, ReceiverShim, SenderShim};
use netfence_core::types::{AsId, HostId, LinkId};
use netfence_crypto::AsKeyAgent;
use netfence_sim::control::ControlPayload;
use netfence_sim::deploy::{Deployment, DeploymentSpec};
use netfence_sim::packet::{AsNum, HostAddr};
use netfence_sim::prelude::IdMap;
use netfence_sim::queue::{qlim_bytes, DualChannelQueue, PriorityLevelQueue, RedQueue};
use netfence_sim::time::Nanos;
use netfence_sim::topology::{LinkSpec, Network, NodeId};

pub use agent::NetFenceRouterAgent;
use agent::{AgentTemplate, KeyAnnouncer};
pub use shim::NetFenceHostShim;

mod agent;
mod shim;

/// Root of every deterministic secret a deployment derives: AS key agents,
/// router `Ka` roots and the RED queues' drop PRNGs ("NFNF").
const SEED: u64 = 0x4E46_4E46;

/// The NetFence defense: protocol parameters plus the per-host
/// policies (suppression, priority overrides) applied when deploying.
#[derive(Debug)]
pub struct NetFenceDefense {
    cfg: Config,
    /// Receiver → the senders it classifies as unwanted, in the order
    /// they were named.
    suppressed: IdMap<HostAddr, Vec<HostAddr>>,
    /// Fixed request-priority override for (attacker) hosts.
    priority_override: IdMap<HostAddr, u8>,
    /// Installed pairwise AS keys lapse after this long without a refresh
    /// announcement (0 = permanent, the legacy behavior).
    key_ttl: Nanos,
}

impl NetFenceDefense {
    /// Create a NetFence defense with the given protocol parameters.
    pub fn new(cfg: Config) -> Self {
        NetFenceDefense {
            cfg,
            suppressed: IdMap::default(),
            priority_override: IdMap::default(),
            key_ttl: 0,
        }
    }

    /// Configure a receiver to suppress feedback for a specific sender
    /// (classifying it as attack traffic, §3.3).
    pub fn suppress_sender(&mut self, receiver: HostAddr, sender: HostAddr) {
        self.suppressed.entry(receiver).or_default().push(sender);
    }

    /// Force a host's request packets to a fixed priority level (used to
    /// model the strategic attackers of §6.3.1).
    pub fn set_request_priority(&mut self, host: HostAddr, level: u8) {
        self.priority_override.insert(host, level);
    }

    /// Make installed pairwise AS keys lapse after `ttl` without a refresh
    /// (0 restores the legacy permanent keys). Each deploying AS's
    /// designated announcer re-posts its key announcement every `ttl / 2`
    /// over the control plane.
    pub fn key_ttl(&mut self, ttl: Nanos) {
        self.key_ttl = ttl;
    }

    /// The deterministic key agent of a deploying AS.
    fn key_agent(asn: AsNum) -> AsKeyAgent {
        AsKeyAgent::new(asn, SEED ^ (0x9E3779B97F4A7C15u64.wrapping_mul(asn as u64 + 1)))
    }

    /// The three-channel queue of one bottleneck link.
    fn bottleneck_queue(&self, link: &LinkSpec) -> DualChannelQueue {
        let qlim = qlim_bytes(link.capacity).max(15_000);
        let regular = Box::new(RedQueue::for_capacity(link.capacity, SEED ^ link.addr as u64));
        let request = Box::new(PriorityLevelQueue::new(
            (qlim as f64 * self.cfg.request_channel_fraction).max(4_600.0) as usize,
        ));
        DualChannelQueue::new(
            regular,
            request,
            qlim / 4,
            link.capacity,
            self.cfg.request_channel_fraction,
        )
    }

    /// Deploy onto `net` according to `spec`.
    pub fn deploy(
        &self,
        net: &Network,
        spec: &DeploymentSpec,
    ) -> Deployment<NetFenceHostShim, NetFenceRouterAgent> {
        let map = spec.resolve(net);
        let mut builder = Deployment::builder(net, "netfence");
        builder.ases(map.ases.len(), map.total_ases);

        // The three-channel queues replace the defaults on every
        // inter-router link whose owning (sending-side) AS deploys.
        for (li, link) in map.router_links(net) {
            builder.queue(li, Box::new(self.bottleneck_queue(link)));
        }

        // Router agents for every router in a deploying AS.
        let agent_nodes: Rc<[NodeId]> = map.routers(net).collect();
        // Each deploying AS's key agent, built once, in `map.ases` order;
        // the AS list is every key store's slot list.
        let key_agents: Vec<AsKeyAgent> =
            map.ases.iter().map(|&asn| Self::key_agent(asn)).collect();
        let ases: Rc<[AsNum]> = map.ases.as_slice().into();
        // ASes whose designated announcer is already placed.
        let mut announced: BTreeSet<AsNum> = BTreeSet::new();
        // The (bottleneck link → owning AS) map every access router needs;
        // identical for all of them, built once and shared.
        let link_as: Arc<IdMap<LinkId, AsId>> = Arc::new(
            net.links
                .iter()
                .filter(|l| net.is_router_link(l))
                .map(|l| (LinkId(l.addr), AsId(net.nodes[l.from.0].as_num())))
                .collect(),
        );
        for &node_id in agent_nodes.iter() {
            let i = node_id.0;
            let node = &net.nodes[i];
            let as_num = node.as_num();
            // `map.routers` yields only routers of deploying ASes.
            let Ok(k) = map.ases.binary_search(&as_num) else { continue };
            let key_agent = &key_agents[k];
            let mut ka_root = [0u8; 16];
            ka_root[..8].copy_from_slice(&(i as u64 + 1).to_be_bytes());
            ka_root[8..].copy_from_slice(&SEED.to_be_bytes());
            // Bottleneck state for this router's outgoing inter-router
            // links: a sparse (link index, state) list sorted ascending —
            // routers own only a handful of links, so allocation stays
            // proportional to the agent, not to the whole network.
            let bl_specs: Vec<(usize, LinkId, u64)> = net
                .out_links(node_id)
                .iter()
                .map(|&li| (li as usize, &net.links[li as usize]))
                .filter(|(_, l)| net.is_router_link(l))
                .map(|(li, l)| (li, LinkId(l.addr), l.capacity))
                .collect();
            let template = AgentTemplate {
                cfg: self.cfg.clone(),
                as_id: AsId(as_num),
                key_agent: key_agent.clone(),
                ases: Rc::clone(&ases),
                ka_root,
                is_access: node.is_access_router(),
                link_as: Arc::clone(&link_as),
                bottlenecks: bl_specs,
                key_ttl: self.key_ttl,
                generation: 0,
            };
            // With a key TTL, each deploying AS's first router doubles as
            // its designated announcer, re-posting the AS's public value
            // every `ttl / 2` so installed keys stay refreshed.
            let announces = self.key_ttl > 0 && announced.insert(as_num);
            let announcer = announces.then(|| KeyAnnouncer {
                announcement: announcement(key_agent),
                peers: Rc::clone(&agent_nodes),
                interval: (self.key_ttl / 2).max(1),
                last: 0,
            });
            builder.router_agent(node_id, NetFenceRouterAgent::new(template, announcer));
        }

        // Host shims for every host in a deploying AS, sharing one `Config`.
        let cfg = Arc::new(self.cfg.clone());
        for host in map.hosts(net) {
            let mut receiver = ReceiverShim::default();
            for &s in self.suppressed.get(&host).into_iter().flatten() {
                receiver.set_policy(HostId(s), ReceiverPolicy::Suppress);
            }
            builder.host_shim(
                host,
                NetFenceHostShim {
                    cfg: Arc::clone(&cfg),
                    sender: SenderShim::default(),
                    receiver,
                    priority_override: self.priority_override.get(&host).copied(),
                },
            );
        }

        let mut deployment = builder.build();
        // Passport key exchange over the control plane: every deploying AS
        // announces its public value to every deployed router (one round,
        // as a full-mesh BGP propagation would). Each agent records the
        // announced values in `on_control`; keys are derived on first use.
        for key_agent in &key_agents {
            let ann = announcement(key_agent);
            for &node in agent_nodes.iter() {
                deployment.bus.to_router(node, ann);
            }
        }
        deployment
    }
}

/// What the AS of `key_agent` announces on the control plane (§4.4).
fn announcement(key_agent: &AsKeyAgent) -> ControlPayload {
    ControlPayload::KeyAnnouncement { asn: key_agent.asn(), public_value: key_agent.public_value() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::prelude::*;

    pub(super) const USER: u32 = 0x0a_00_00_01;
    pub(super) const ATTACKER: u32 = 0x0a_00_00_02;
    pub(super) const VICTIM: u32 = 0x0b_00_00_01;
    pub(super) const COLLUDER: u32 = 0x0b_00_00_02;

    /// Two source hosts in AS 1, two destination hosts in AS 3, a 2 Mbps
    /// bottleneck between the transit routers of AS 1 and AS 2.
    pub(super) fn small_net(bottleneck: u64) -> (Network, LinkAddr) {
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

    pub(super) fn deploy_full(
        net: &Network,
        defense: &NetFenceDefense,
    ) -> Deployment<NetFenceHostShim, NetFenceRouterAgent> {
        defense.deploy(net, &DeploymentSpec::full())
    }

    /// One TCP user and one attacker→colluder flood across the 1 Mbps
    /// bottleneck of `small_net`, until `end`; `setup` runs on the
    /// simulator before it starts.
    pub(super) fn colluding_flood(
        defense: &NetFenceDefense,
        end: Nanos,
        setup: impl FnOnce(&mut Simulator<NetFenceHostShim, NetFenceRouterAgent>),
    ) -> (Simulator<NetFenceHostShim, NetFenceRouterAgent>, FlowId, FlowId) {
        let (net, _) = small_net(1_000_000);
        let deployment = deploy_full(&net, defense);
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: end, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        setup(&mut sim);
        sim.run();
        (sim, user, attacker)
    }

    #[test]
    fn a_host_shim_fits_a_192_byte_slot() {
        // `Deployment.hosts` holds one inline shim slot per node: at 8 K
        // hosts that array is the largest single live block at a NetFence
        // run's peak. The `Option` costs nothing: the shim has a niche.
        assert!(std::mem::size_of::<NetFenceHostShim>() <= 192);
        assert!(std::mem::size_of::<Option<NetFenceHostShim>>() <= 192);
    }

    #[test]
    fn suppression_index_keeps_each_receivers_order() {
        let (r1, r2, other) = (1, 2, 3);
        let (a, b, c) = (10, 11, 12);
        let mut defense = NetFenceDefense::new(Config::short_timers());
        for (r, s) in [(r1, a), (r2, b), (r1, c)] {
            defense.suppress_sender(r, s);
        }
        assert_eq!(defense.suppressed.get(&r1), Some(&vec![a, c]));
        assert_eq!(defense.suppressed.get(&r2), Some(&vec![b]));
        assert_eq!(defense.suppressed.get(&other), None);
    }

    #[test]
    fn no_attack_means_no_monitoring_and_no_limiters() {
        let (net, bottleneck) = small_net(5_000_000);
        let defense = NetFenceDefense::new(Config::short_timers());
        let deployment = deploy_full(&net, &defense);
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 10 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(
                id,
                USER,
                VICTIM,
                TcpWorkload::RepeatedFile { bytes: 20_000, gap: 100 * MILLI },
                SimRng::new(1),
            ))
        });
        sim.run();
        let p = sim.progress(user);
        assert!(p.completions.len() > 20, "completed {}", p.completions.len());
        assert_eq!(p.failed_transfers, 0);
        // Idle state: no monitoring cycle ever starts and no limiter exists.
        let report = sim.report();
        assert!(!report.link_in_mon(bottleneck));
        assert_eq!(report.rate_limiters, 0);
        assert!(sim.metrics.link_drop_pkts(bottleneck) < 10);
    }

    #[test]
    fn colluding_flood_is_brought_to_fair_share() {
        // One legitimate TCP user and one attacker→colluder UDP flood share
        // a 1 Mbps bottleneck. Without NetFence the attacker starves TCP
        // (cf. engine tests); with NetFence both converge to roughly half.
        let defense = NetFenceDefense::new(Config::short_timers());
        let (sim, user, attacker) = colluding_flood(&defense, 120 * SEC, |_| {});
        let (_, bottleneck) = small_net(1_000_000);
        let user_bps = sim.progress(user).goodput_bps(0, 120 * SEC);
        let attacker_bps = sim.progress(attacker).goodput_bps(0, 120 * SEC);
        let ratio = user_bps / attacker_bps.max(1.0);
        assert!(
            ratio > 0.5,
            "user should get a comparable share: user {user_bps:.0} bps vs attacker {attacker_bps:.0} bps"
        );
        assert!(
            attacker_bps < 900_000.0,
            "attacker must not keep the whole bottleneck ({attacker_bps:.0} bps)"
        );
        // The bottleneck entered a monitoring cycle (it stamped L↓, which
        // only happens in mon — whether it is *still* in mon at the final
        // instant depends on the cycle phase) and installed per-(sender,
        // bottleneck) rate limiters.
        let report = sim.report();
        assert!(report.stamped_decr > 0, "no L↓ ever stamped");
        assert!(report.rate_limiters >= 2, "limiters: {}", report.rate_limiters);
        assert!(sim.metrics.link_drop_pkts(bottleneck) > 0);
        // Every drop in the run is attributed to a typed cause.
        assert_eq!(
            sim.metrics.drops.total().total(),
            sim.metrics.total_drop_pkts(),
            "typed drop budget must account for every drop"
        );
    }

    #[test]
    fn victim_suppressing_feedback_starves_attacker_regular_traffic() {
        let (net, _) = small_net(1_000_000);
        let mut defense = NetFenceDefense::new(Config::short_timers());
        // The victim classifies ATTACKER as unwanted and never returns
        // feedback; the attacker's request packets are also sent at the
        // lowest priority.
        defense.suppress_sender(VICTIM, ATTACKER);
        let deployment = deploy_full(&net, &defense);
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 30 * SEC, ..Default::default() });
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
        let attacker_goodput = sim.progress(attacker).goodput_bps(0, 30 * SEC);
        // All the attacker can deliver is strictly rate-limited request
        // traffic: a tiny fraction of its 1 Mbps offered load.
        assert!(
            attacker_goodput < 150_000.0,
            "unwanted traffic must be suppressed, got {attacker_goodput:.0} bps"
        );
        // The legitimate user is essentially unaffected.
        let p = sim.progress(user);
        assert!(p.completions.len() > 20);
        assert!(p.avg_transfer_secs().unwrap() < 3.0);
    }

    #[test]
    fn legacy_source_as_is_demoted_at_deployed_bottleneck() {
        // AS 1 (user + attacker) does NOT deploy; the transit and victim
        // ASes do. The legacy flood is demoted to the legacy channel at the
        // deployed bottleneck, so a deploying AS's traffic would win — and
        // the legacy AS's own sender sees no policing at all.
        let (net, _) = small_net(1_000_000);
        let defense = NetFenceDefense::new(Config::short_timers());
        let deployment = defense.deploy(&net, &DeploymentSpec::explicit(vec![2, 3]));
        let report_before = deployment.report();
        assert_eq!(report_before.deployed_ases, 2);
        // No shims on AS-1 hosts, no agent on AS-1's access router.
        assert_eq!(report_before.host_shims, 2, "only the AS-3 hosts get shims");
        assert_eq!(report_before.router_agents, 2);
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 20 * SEC, ..Default::default() });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 2_000_000)));
        sim.run();
        // Legacy traffic still flows (nothing polices it on an idle link) —
        // bounded by the bottleneck, not dropped by a defense.
        let delivered = sim.progress(attacker).goodput_bps(0, 20 * SEC);
        assert!(delivered > 500_000.0, "legacy traffic should pass when uncontested: {delivered}");
        assert_eq!(sim.report().rate_limiters, 0);
    }
}
