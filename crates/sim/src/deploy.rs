//! Per-node defense deployment: the API through which DoS defense systems
//! are *deployed onto* a network instead of observing it from a global
//! oracle.
//!
//! NetFence's thesis is "inside out": policing state lives at individual
//! access routers, bottleneck routers and end-host shims, and the paper's
//! deployment story only makes sense when some networks deploy and others
//! don't. This module models exactly that:
//!
//! * a defense (`netfence_systems::Defense`) deploys onto a [`Network`]
//!   according to a [`DeploymentSpec`] (which ASes adopt), producing a
//!   [`Deployment`] typed by its one [`HostShim`] and one [`RouterAgent`]
//!   type: per-node agent slots, a sparse [`QueuePlan`] and a
//!   [`ControlPlane`] bus for the two [`ControlPayload`]s;
//! * nodes *without* an agent are legacy nodes: their hosts send plain
//!   packets and their routers forward blindly, which is how partial
//!   (incremental) deployment scenarios are expressed;
//! * after a run, [`Deployment::report`] merges every agent's state counters
//!   into one typed [`DefenseReport`]; drops are counted once, by the
//!   engine's drop ledger, which fills the report's drop fields.
//!
//! The engine indexes agents by node id and links by link index, so the
//! per-packet fast path never hashes.

use netfence_telemetry::{DropBudget, DropCause, Timeline};

use crate::control::{ControlPayload, ControlPlane};
use crate::packet::{AsNum, HostAddr, LinkAddr, Packet};
use crate::queue::QueueDisc;
use crate::time::Nanos;
use crate::topology::{LinkSpec, Network, NodeId};

/// What a router does with a packet about to be forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterAction {
    /// Enqueue on the outgoing link now.
    Forward,
    /// Hold the packet (e.g. in an access-router rate limiter) and enqueue
    /// it at the given absolute time.
    Delay {
        /// When to release the packet.
        release_at: Nanos,
    },
    /// Drop the packet, stating which mechanism killed it (the engine
    /// folds the cause into the run's drop budget).
    Drop(DropCause),
}

/// A dense reference to a link handed to router agents: the engine-side
/// index (for dense agent state) plus the protocol-visible address (what
/// NetFence feedback calls the link's IP address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRef {
    /// Index into [`Network::links`].
    pub index: usize,
    /// Protocol-level link address.
    pub addr: LinkAddr,
}

// ---------------------------------------------------------------------------
// Agent traits
// ---------------------------------------------------------------------------

/// The defense agent running on one end host (the "shim layer between IP
/// and TCP/UDP" of §3.1). All methods default to no-ops.
pub trait HostShim: std::fmt::Debug {
    /// The host is about to hand a packet to the network: attach shim
    /// headers, set the channel/priority, grow the wire size.
    fn on_send(&mut self, _now: Nanos, _pkt: &mut Packet, _ctl: &mut ControlPlane) {}

    /// A packet arrived at this host, before the transport sees it.
    fn on_receive(&mut self, _now: Nanos, _pkt: &Packet, _ctl: &mut ControlPlane) {}

    /// Periodic housekeeping, every `defense_tick`.
    fn tick(&mut self, _now: Nanos, _ctl: &mut ControlPlane) {}

    /// Merge this shim's state counters into the deployment-wide report
    /// (never the drop fields: the engine fills those from its ledger).
    fn report(&self, _out: &mut DefenseReport) {}
}

/// A data-plane fault delivered to one router's defense agent by the
/// engine's fault-injection machinery (`netfence-faults` compiles a
/// declarative plan into these). Every variant is a *state* fault: link
/// failures are handled by the engine itself and never reach an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterFault {
    /// The router lost power and came back: the agent must discard all
    /// volatile defense state (rate limiters, pairwise AS keys, filter
    /// tables, capabilities) exactly as the paper's fail-safe argument
    /// assumes (§4.4), then re-bootstrap through the control plane.
    Reboot,
    /// The router's time-varying secret `Ka` rotated out from under the
    /// feedback already circulating: held stamps stop validating until
    /// senders obtain fresh ones.
    KeyDesync,
    /// The router's clock is skewed by `offset_ns` (signed, nanoseconds)
    /// relative to true simulated time from this instant on. A window's
    /// end is delivered as a second `ClockSkew { offset_ns: 0 }` fault.
    ClockSkew {
        /// Signed skew applied to the agent's view of `now`.
        offset_ns: i64,
    },
    /// Memory pressure forced the router to evict up to `evict` rules from
    /// each of its policy stores (oldest-expiry first, deterministic).
    MemoryPressure {
        /// Maximum rules force-evicted per store.
        evict: usize,
    },
}

impl RouterFault {
    /// Short stable label — the one spelling fault timeline rows, fault
    /// plans and the chaos tables share.
    pub fn label(&self) -> &'static str {
        match self {
            RouterFault::Reboot => "reboot",
            RouterFault::KeyDesync => "key-desync",
            RouterFault::ClockSkew { .. } => "clock-skew",
            RouterFault::MemoryPressure { .. } => "memory-pressure",
        }
    }
}

/// The defense agent running on one router. All methods default to no-ops
/// (a legacy router simply has no agent at all).
pub trait RouterAgent: std::fmt::Debug {
    /// The router is about to enqueue `pkt` on `out_link`; `is_access`
    /// tells whether this router is the packet's access router (first
    /// router after the sending host).
    fn at_router(
        &mut self,
        _now: Nanos,
        _is_access: bool,
        _out_link: LinkRef,
        _pkt: &mut Packet,
        _ctl: &mut ControlPlane,
    ) -> RouterAction {
        RouterAction::Forward
    }

    /// A packet this agent previously delayed via [`RouterAction::Delay`]
    /// is being released.
    fn on_delayed_release(&mut self, _now: Nanos, _pkt: &mut Packet, _ctl: &mut ControlPlane) {}

    /// A packet is being pulled off one of this router's outgoing links for
    /// transmission (bottleneck routers stamp congestion policing feedback
    /// here).
    fn on_link_dequeue(&mut self, _now: Nanos, _link: LinkRef, _pkt: &mut Packet) {}

    /// One of this router's outgoing links dropped a packet from its queue.
    fn on_link_drop(&mut self, _now: Nanos, _link: LinkRef, _pkt: &Packet) {}

    /// A control-plane message addressed to this router arrived. Agents
    /// ignore the payloads that are not theirs.
    fn on_control(&mut self, _now: Nanos, _msg: ControlPayload, _ctl: &mut ControlPlane) {}

    /// Periodic housekeeping (control-interval AIMD, detection EWMAs, …).
    fn tick(&mut self, _now: Nanos, _ctl: &mut ControlPlane) {}

    /// A data-plane fault hit this router (see [`RouterFault`]). Default:
    /// nothing to lose — an agent without volatile state is trivially
    /// fail-safe.
    fn on_fault(&mut self, _now: Nanos, _fault: RouterFault, _ctl: &mut ControlPlane) {}

    /// Merge this agent's state counters into the deployment-wide report
    /// (never the drop fields: the engine fills those from its ledger).
    fn report(&self, _out: &mut DefenseReport) {}

    /// Sample this agent's live state (limiter rates, policy-store
    /// occupancy) into a telemetry timeline. Pure observer: called on the
    /// engine's sample clock when the timeline is enabled; implementations
    /// must not mutate agent state and must emit rows in a deterministic
    /// order (aggregate hash maps through a `BTreeMap` first). Default:
    /// nothing to report.
    fn probe(&self, _now: Nanos, _out: &mut Timeline) {}
}

// ---------------------------------------------------------------------------
// Deployment spec
// ---------------------------------------------------------------------------

/// Which ASes a partial deployment covers.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// `coverage` applies to the *source* ASes in ascending AS order: the
    /// first `round(coverage · n)` deploy, and every AS that is not a
    /// source — destination side, transit core — deploys whenever
    /// `coverage` is non-zero (the "infrastructure first" adoption story of
    /// §5.3). The sources are whatever the caller names (the experiment
    /// runner passes the topology's sender ASes); on a bare network they
    /// are the host-bearing ASes.
    FirstEdgeAses,
    /// Exactly these ASes deploy; `coverage` is ignored.
    Explicit(Vec<AsNum>),
}

/// How much of the network deploys the defense.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// Fraction of source ASes that deploy (0.0 = pure legacy network,
    /// 1.0 = universal deployment).
    pub coverage: f64,
    /// Which ASes the coverage falls on.
    pub placement: Placement,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec::full()
    }
}

impl DeploymentSpec {
    /// Universal deployment (every AS).
    pub fn full() -> Self {
        DeploymentSpec::coverage(1.0)
    }

    /// No deployment anywhere (equivalent to an undefended network).
    pub fn none() -> Self {
        DeploymentSpec::coverage(0.0)
    }

    /// Deploy on the first `coverage` fraction of source ASes.
    pub fn coverage(coverage: f64) -> Self {
        DeploymentSpec { coverage: coverage.clamp(0.0, 1.0), placement: Placement::FirstEdgeAses }
    }

    /// Deploy on exactly the listed ASes.
    pub fn explicit(ases: Vec<AsNum>) -> Self {
        DeploymentSpec { coverage: 1.0, placement: Placement::Explicit(ases) }
    }

    /// The one coverage rule: resolve fractional coverage against a list
    /// of *source* (sender-hosting) ASes into an equivalent
    /// [`Placement::Explicit`] spec. The first `round(coverage · n)` of
    /// `source_ases` deploy, and every other AS of `net` deploys whenever
    /// coverage is non-zero — also when it rounds to zero sources.
    /// Explicit placements pass through untouched.
    pub fn resolve_for_source_ases(&self, net: &Network, source_ases: &[AsNum]) -> DeploymentSpec {
        if let Placement::Explicit(_) = self.placement {
            return self.clone();
        }
        if self.coverage <= 0.0 {
            return DeploymentSpec::explicit(Vec::new());
        }
        let mut sources = source_ases.to_vec();
        sources.sort_unstable();
        sources.dedup();
        let k = (self.coverage.clamp(0.0, 1.0) * sources.len() as f64).round() as usize;
        let mut chosen = all_ases(net);
        chosen.retain(|a| sources.binary_search(a).map_or(true, |rank| rank < k));
        DeploymentSpec::explicit(chosen)
    }

    /// Resolve the spec against `net` into per-node deployment flags. A
    /// fractional placement on a bare network takes the host-bearing ASes
    /// as its sources.
    pub fn resolve(&self, net: &Network) -> DeployMap {
        let Placement::Explicit(list) = &self.placement else {
            let edge: Vec<AsNum> =
                net.nodes.iter().filter(|n| n.host_addr().is_some()).map(|n| n.as_num()).collect();
            return self.resolve_for_source_ases(net, &edge).resolve(net);
        };
        let mut ases = all_ases(net);
        let total_ases = ases.len();
        ases.retain(|a| list.contains(a));
        let node_deployed =
            net.nodes.iter().map(|n| ases.binary_search(&n.as_num()).is_ok()).collect();
        DeployMap { node_deployed, ases, total_ases }
    }
}

/// Every AS of `net`, sorted ascending and deduplicated.
fn all_ases(net: &Network) -> Vec<AsNum> {
    let mut all: Vec<AsNum> = net.nodes.iter().map(|n| n.as_num()).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// A [`DeploymentSpec`] resolved against a concrete network.
#[derive(Debug, Clone)]
pub struct DeployMap {
    node_deployed: Vec<bool>,
    /// The deploying ASes, sorted ascending.
    pub ases: Vec<AsNum>,
    /// Total number of ASes in the network.
    pub total_ases: usize,
}

impl DeployMap {
    /// Whether the node deploys the defense.
    pub fn node(&self, node: NodeId) -> bool {
        self.node_deployed[node.0]
    }

    /// The links whose owning (sending-side) node deploys, with their
    /// dense indices, ascending.
    pub fn links<'a>(
        &'a self,
        net: &'a Network,
    ) -> impl Iterator<Item = (usize, &'a LinkSpec)> + 'a {
        net.links.iter().enumerate().filter(|(_, l)| self.node(l.from))
    }

    /// The inter-router subset of [`DeployMap::links`] — where deployed
    /// defenses replace the queue discipline.
    pub fn router_links<'a>(
        &'a self,
        net: &'a Network,
    ) -> impl Iterator<Item = (usize, &'a LinkSpec)> + 'a {
        self.links(net).filter(|(_, l)| net.is_router_link(l))
    }

    /// The routers of deploying ASes, in node order.
    pub fn routers<'a>(&'a self, net: &'a Network) -> impl Iterator<Item = NodeId> + 'a {
        net.nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| self.node_deployed[i] && n.host_addr().is_none())
            .map(|(i, _)| NodeId(i))
    }

    /// The hosts of deploying ASes, in node order.
    pub fn hosts<'a>(&'a self, net: &'a Network) -> impl Iterator<Item = HostAddr> + 'a {
        net.nodes
            .iter()
            .zip(&self.node_deployed)
            .filter(|&(_, &deployed)| deployed)
            .filter_map(|(n, _)| n.host_addr())
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The typed post-run summary of a deployment: every agent's state
/// counters merged by [`Deployment::report`], plus the drop fields the
/// engine fills from its drop ledger. The fields a given defense does not
/// use simply stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefenseReport {
    /// Short defense name ("netfence", "tva+", "stopit", "fq", "none").
    pub name: &'static str,
    /// How many ASes deployed the defense.
    pub deployed_ases: usize,
    /// Total ASes in the network.
    pub total_ases: usize,
    /// Host shims installed.
    pub host_shims: usize,
    /// Router agents installed.
    pub router_agents: usize,
    /// Packets dropped by access-router request limiters (NetFence):
    /// [`DropCause::RequestRateLimit`] plus [`DropCause::InvalidMac`], the
    /// demoted packets the same limiter refused.
    pub request_drops: u64,
    /// Packets dropped by per-(sender, bottleneck) rate limiters
    /// (NetFence).
    pub regular_drops: u64,
    /// Packets dropped by installed filters (StopIt).
    pub filtered_drops: u64,
    /// Unauthorized regular packets dropped (TVA+).
    pub unauthorized_drops: u64,
    /// Packets whose feedback was stamped `L↓` at a bottleneck (NetFence).
    pub stamped_decr: u64,
    /// Regular packets whose presented feedback failed MAC validation at
    /// their access router and were demoted to the request channel
    /// (NetFence §4.3; spikes when a secret key rotates out from under
    /// held feedback).
    pub invalid_feedback: u64,
    /// Per-(sender, bottleneck) rate limiters across all access routers
    /// (NetFence's scalability metric, §5.1).
    pub rate_limiters: usize,
    /// Filters installed across all routers (StopIt).
    pub filters: usize,
    /// Capability grants across all receivers (TVA+).
    pub capabilities_granted: usize,
    /// Bottleneck links currently inside a monitoring cycle (NetFence).
    pub links_in_mon: Vec<LinkAddr>,
    /// Control-plane messages delivered.
    pub control_delivered: u64,
    /// Control-plane messages dropped at legacy nodes.
    pub control_undeliverable: u64,
    /// Control-plane transport retransmissions (lossy channel only).
    pub control_retransmits: u64,
    /// Control-plane messages lost in transit after exhausting
    /// retransmission (lossy/partitioned channel only).
    pub control_lost: u64,
    /// TTL'd policy rules (filters, keys, capabilities) installed into
    /// policy stores.
    pub rules_installed: u64,
    /// Policy rules re-installed before their TTL lapsed (refreshes).
    pub rules_refreshed: u64,
    /// Policy rules that expired and were purged.
    pub rules_expired: u64,
    /// Policy-rule installs rejected by a store's capacity limit.
    pub rules_rejected: u64,
    /// The run's typed drop budget — every dropped packet counted once by
    /// cause (queue overflow, rate limit, filter, …). Filled in, like the
    /// four `*_drops` fields above, by the engine from its always-on drop
    /// ledger; [`Deployment::report`] alone leaves them zero.
    pub drop_budget: DropBudget,
}

impl DefenseReport {
    /// Whether a bottleneck link is currently in a monitoring cycle.
    pub fn link_in_mon(&self, link: LinkAddr) -> bool {
        self.links_in_mon.contains(&link)
    }

    /// Total packets the defense dropped across all mechanisms.
    pub fn total_defense_drops(&self) -> u64 {
        self.request_drops + self.regular_drops + self.filtered_drops + self.unauthorized_drops
    }
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// `(link index, discipline)` for every link whose topology-declared default
/// a defense replaces, ascending by link index. Sparse: most links keep
/// their default.
pub type QueuePlan = Vec<(usize, Box<dyn QueueDisc>)>;

/// The agent type of a node that runs no defense: uninhabited, so an
/// `Option<Legacy>` slot is zero bytes (the undefended baseline and FQ).
#[derive(Debug)]
pub enum Legacy {}

impl HostShim for Legacy {}

impl RouterAgent for Legacy {}

/// A defense deployed onto a network — per-node agents of its one host-shim
/// type `H` and router-agent type `R`, a queue plan and the control-plane
/// bus — ready to be moved into a [`Simulator`](crate::engine::Simulator).
#[derive(Debug)]
pub struct Deployment<H = Legacy, R = Legacy> {
    /// Short defense name.
    pub name: &'static str,
    /// One optional host shim per node, inline (host nodes only; router
    /// slots stay `None`).
    pub hosts: Vec<Option<H>>,
    /// One optional router agent per node, boxed (an agent can be a
    /// kilobyte, a slot is a pointer); empty until the first is installed.
    pub routers: Vec<Option<Box<R>>>,
    /// The queue plan, taken by the simulator when it builds its per-link
    /// state.
    pub queues: QueuePlan,
    /// The out-of-band coordination bus. Messages queued here at deploy
    /// time (e.g. key announcements) are delivered when the simulator is
    /// constructed.
    pub bus: ControlPlane,
    /// ASes that deployed.
    pub deployed_ases: usize,
    /// Total ASes in the network.
    pub total_ases: usize,
}

impl<H: HostShim, R: RouterAgent> Deployment<H, R> {
    /// Start building a deployment for `net`: no agents, default queues.
    pub fn builder<'a>(net: &'a Network, name: &'static str) -> DeploymentBuilder<'a, H, R> {
        let deployment = Deployment {
            name,
            hosts: (0..net.nodes.len()).map(|_| None).collect(),
            routers: Vec::new(),
            queues: Vec::new(),
            bus: ControlPlane::for_network(net),
            deployed_ases: 0,
            total_ases: 0,
        };
        DeploymentBuilder { net, deployment }
    }

    /// The empty deployment: a pure legacy network with default queues.
    pub fn undefended(net: &Network) -> Self {
        Deployment::builder(net, "none").build()
    }

    /// Merge every agent's state counters into one typed report. The drop
    /// fields are the engine's to fill
    /// ([`Simulator::report`](crate::engine::Simulator::report)).
    pub fn report(&self) -> DefenseReport {
        let mut out = DefenseReport {
            name: self.name,
            deployed_ases: self.deployed_ases,
            total_ases: self.total_ases,
            host_shims: self.hosts.iter().flatten().count(),
            router_agents: self.routers.iter().flatten().count(),
            control_delivered: self.bus.delivered,
            control_undeliverable: self.bus.undeliverable,
            control_retransmits: self.bus.retransmits,
            control_lost: self.bus.lost,
            ..DefenseReport::default()
        };
        for shim in self.hosts.iter().flatten() {
            shim.report(&mut out);
        }
        for agent in self.routers.iter().flatten() {
            agent.report(&mut out);
        }
        out.links_in_mon.sort_unstable();
        out
    }
}

/// The agent of the router at `node` in [`Deployment::routers`], if any.
pub(crate) fn agent_at<R>(routers: &mut [Option<Box<R>>], node: NodeId) -> Option<&mut R> {
    routers.get_mut(node.0).and_then(Option::as_deref_mut)
}

/// Assembles a [`Deployment`] (used by each defense's `deploy`).
#[derive(Debug)]
pub struct DeploymentBuilder<'a, H = Legacy, R = Legacy> {
    net: &'a Network,
    deployment: Deployment<H, R>,
}

impl<H: HostShim, R: RouterAgent> DeploymentBuilder<'_, H, R> {
    /// Install a shim on the host with address `host`.
    pub fn host_shim(&mut self, host: HostAddr, shim: H) {
        let node = self.net.host_node(host);
        self.deployment.hosts[node.0] = Some(shim);
    }

    /// Install an agent on the router at `node`.
    pub fn router_agent(&mut self, node: NodeId, agent: R) {
        let routers = &mut self.deployment.routers;
        if routers.is_empty() {
            routers.resize_with(self.net.nodes.len(), || None);
        }
        routers[node.0] = Some(Box::new(agent));
    }

    /// Replace the default queue discipline of link `link`. Links are
    /// planned in ascending index order (the order [`DeployMap::links`]
    /// yields them), which is what lets the simulator merge the plan with
    /// the defaults in one pass.
    pub fn queue(&mut self, link: usize, queue: Box<dyn QueueDisc>) {
        let queues = &mut self.deployment.queues;
        assert!(
            queues.last().is_none_or(|&(last, _)| last < link) && link < self.net.links.len(),
            "queue plan must name existing links in ascending order (link {link})"
        );
        queues.push((link, queue));
    }

    /// Record the deployment extent for the report.
    pub fn ases(&mut self, deployed: usize, total: usize) {
        self.deployment.deployed_ases = deployed;
        self.deployment.total_ases = total;
    }

    /// Finish the deployment.
    pub fn build(self) -> Deployment<H, R> {
        self.deployment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLI;
    use crate::topology::QueueKind;

    /// Three edge ASes (1, 2, 3) behind a transit AS (100).
    fn net() -> Network {
        let mut b = Network::builder();
        let rt = b.router(100, false);
        for asn in 1..=3u32 {
            let ra = b.router(asn, true);
            b.duplex(ra, rt, 10_000_000, MILLI, QueueKind::Red);
            b.host(asn * 0x100 + 1, asn, ra, 100_000_000, MILLI);
        }
        b.build()
    }

    #[test]
    fn coverage_resolution_is_monotone_and_bounded() {
        let net = net();
        assert_eq!(DeploymentSpec::none().resolve(&net).ases, Vec::<AsNum>::new());
        assert_eq!(DeploymentSpec::full().resolve(&net).ases, vec![1, 2, 3, 100]);
        // One third of three edge ASes: the first one plus the transit AS.
        assert_eq!(DeploymentSpec::coverage(1.0 / 3.0).resolve(&net).ases, vec![1, 100]);
        // A non-zero coverage that rounds to zero edge ASes still deploys
        // the transit AS — what the runner's source-AS path always did, and
        // the one input on which the deleted edge-AS rule (`[]`) differed.
        assert_eq!(DeploymentSpec::coverage(0.1).resolve(&net).ases, vec![100]);
        // Monotone: growing coverage never removes a deploying AS.
        let mut prev: Vec<AsNum> = Vec::new();
        for k in 0..=10 {
            let cur = DeploymentSpec::coverage(k as f64 / 10.0).resolve(&net).ases;
            assert!(prev.iter().all(|a| cur.contains(a)), "coverage {k}/10 removed an AS");
            prev = cur;
        }
    }

    #[test]
    fn explicit_placement_filters_unknown_ases() {
        let net = net();
        let d = DeploymentSpec::explicit(vec![2, 100, 999]).resolve(&net).ases;
        assert_eq!(d, vec![2, 100]);
        let map = DeploymentSpec::explicit(vec![2, 100]).resolve(&net);
        assert_eq!(map.ases, vec![2, 100]);
        assert_eq!(map.total_ases, 4);
    }

    #[test]
    fn deploy_map_iterators_follow_the_deploying_ases() {
        let net = net();
        let map = DeploymentSpec::explicit(vec![2, 100]).resolve(&net);
        // Node order: transit router, then (router, host) per edge AS.
        assert_eq!(map.routers(&net).collect::<Vec<_>>(), vec![NodeId(0), NodeId(3)]);
        assert_eq!(map.hosts(&net).collect::<Vec<_>>(), vec![0x201]);
        // Owner-deploys links, ascending: the transit router's three
        // downlinks, AS 2's uplink to it, AS 2's router → host link and the
        // host's own uplink; the inter-router subset drops the last two.
        let owned: Vec<usize> = map.links(&net).map(|(i, _)| i).collect();
        let routed: Vec<usize> = map.router_links(&net).map(|(i, _)| i).collect();
        assert!(owned.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(owned.len(), 6);
        assert_eq!(routed.len(), 4);
        assert!(routed.iter().all(|i| owned.contains(i) && net.is_router_link(&net.links[*i])));
    }

    #[test]
    fn undefended_deployment_reports_empty() {
        let net = net();
        let d: Deployment = Deployment::undefended(&net);
        let r = d.report();
        assert_eq!(r.name, "none");
        assert_eq!(r.host_shims, 0);
        assert_eq!(r.router_agents, 0);
        assert_eq!(r.total_defense_drops(), 0);
        assert_eq!((r.deployed_ases, r.total_ases), (0, 0));
    }
}
