//! The NetFence defense system deployed onto the simulator.
//!
//! [`NetFenceDefense`] is a [`DefenseFactory`]: given a network and a
//! [`DeploymentSpec`], it installs one [`HostShim`] per host of every
//! deploying AS (the sender/receiver shim layer of §3.1) and one
//! [`RouterAgent`] per router of every deploying AS, holding that router's
//! [`AccessRouter`] protocol state and one [`BottleneckLink`] per outgoing
//! inter-router link:
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
//! deployment's [`ControlPlane`] bus: at deploy time every deploying AS
//! posts a [`ControlPayload::KeyAnnouncement`] (its Diffie–Hellman public
//! value) to every deployed router agent, which records it in each of its
//! key tables — the BGP-piggybacked exchange of §4.4, in message form. A
//! table derives the shared key the first time it stamps or validates an
//! `L↓` for that AS, so keys nothing uses cost no key work. With
//! [`NetFenceDefense::key_ttl`] set, installed keys lapse unless the
//! owning AS's designated announcer (its first deployed router) re-posts
//! the announcement every `ttl / 2`; over a lossy or partitioned control
//! plane a missed refresh uninstalls the key and that AS's traffic
//! reverts to unverifiable until an announcement lands again. Nodes of
//! non-deploying ASes get no agents at all; their traffic carries no
//! NetFence header and is demoted to the legacy channel at deployed
//! routers, which is the paper's adoption incentive (§5.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use netfence_core::access::{AccessRouter, AccessVerdict};
use netfence_core::bottleneck::{BottleneckLink, Channel};
use netfence_core::config::Config;
use netfence_core::endpoint::{ReceiverPolicy, ReceiverShim, SenderShim};
use netfence_core::types::{AsId, FlowPair, HostId, LinkId};
use netfence_crypto::{AsKeyAgent, AsKeyTable};
use netfence_ctrl::policy::PolicyStore;
use netfence_sim::control::{ControlPayload, ControlPlane};
use netfence_sim::deploy::{
    DefenseFactory, DefenseReport, Deployment, DeploymentSpec, HostShim, LinkRef, RouterAction,
    RouterAgent, RouterFault,
};
use netfence_sim::packet::{AsNum, ChannelClass, Extension, HostAddr, Packet, Protocol};
use netfence_sim::prelude::{IdMap, Timeline};
use netfence_sim::queue::{qlim_bytes, DualChannelQueue, PriorityLevelQueue, RedQueue};
use netfence_sim::time::Nanos;
use netfence_sim::topology::{LinkSpec, Network, NodeId};

use crate::headers::NetFenceExt;

/// Root of every deterministic secret a deployment derives: AS key agents,
/// router `Ka` roots and the RED queues' drop PRNGs ("NFNF").
const SEED: u64 = 0x4E46_4E46;

/// The NetFence defense factory: protocol parameters plus the per-host
/// policies (suppression, priority overrides) applied when deploying.
#[derive(Debug)]
pub struct NetFenceDefense {
    cfg: Config,
    /// (receiver, sender) pairs the receiver classifies as unwanted.
    suppressed: Vec<(HostAddr, HostAddr)>,
    /// Fixed request-priority override for (attacker) hosts.
    priority_override: IdMap<HostAddr, u8>,
    /// Installed pairwise AS keys lapse after this long without a refresh
    /// announcement (0 = permanent, the legacy behavior).
    key_ttl: Nanos,
}

impl NetFenceDefense {
    /// Create a NetFence factory with the given protocol parameters.
    pub fn new(cfg: Config) -> Self {
        NetFenceDefense {
            cfg,
            suppressed: Vec::new(),
            priority_override: IdMap::default(),
            key_ttl: 0,
        }
    }

    /// Configure a receiver to suppress feedback for a specific sender
    /// (classifying it as attack traffic, §3.3).
    pub fn suppress_sender(&mut self, receiver: HostAddr, sender: HostAddr) {
        self.suppressed.push((receiver, sender));
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
    fn key_agent(&self, asn: AsNum) -> AsKeyAgent {
        AsKeyAgent::new(asn, SEED ^ (0x9E3779B97F4A7C15u64.wrapping_mul(asn as u64 + 1)))
    }

    /// What AS `asn` announces on the control plane (§4.4).
    fn announcement(&self, asn: AsNum) -> ControlPayload {
        ControlPayload::KeyAnnouncement { asn, public_value: self.key_agent(asn).public_value() }
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
}

impl DefenseFactory for NetFenceDefense {
    fn deploy(&self, net: &Network, spec: &DeploymentSpec) -> Deployment {
        let map = spec.resolve(net);
        let mut builder = Deployment::builder(net, "netfence");
        builder.ases(map.ases.len(), map.total_ases);

        // The three-channel queues replace the defaults on every
        // inter-router link whose owning (sending-side) AS deploys.
        for (li, link) in map.router_links(net) {
            builder.queue(li, Box::new(self.bottleneck_queue(link)));
        }

        // Router agents for every router in a deploying AS.
        let agent_nodes: Vec<NodeId> = map.routers(net).collect();
        // With a key TTL, each deploying AS's first router doubles as its
        // designated announcer, re-posting the AS's public value every
        // `ttl / 2` so installed keys stay refreshed.
        let mut announcer_of: IdMap<AsNum, NodeId> = IdMap::default();
        if self.key_ttl > 0 {
            for &node in &agent_nodes {
                announcer_of.entry(net.nodes[node.0].as_num()).or_insert(node);
            }
        }
        // The (bottleneck link → owning AS) map every access router needs;
        // identical for all of them, built once and shared.
        let link_as: Arc<IdMap<LinkId, AsId>> = Arc::new(
            net.links
                .iter()
                .filter(|l| net.is_router_link(l))
                .map(|l| (LinkId(l.addr), AsId(net.nodes[l.from.0].as_num())))
                .collect(),
        );
        for &node_id in &agent_nodes {
            let i = node_id.0;
            let node = &net.nodes[i];
            let as_num = node.as_num();
            let mut ka_root = [0u8; 16];
            ka_root[..8].copy_from_slice(&(i as u64 + 1).to_be_bytes());
            ka_root[8..].copy_from_slice(&SEED.to_be_bytes());
            // Bottleneck state for this router's outgoing inter-router
            // links: a sparse (link index, state) list sorted ascending —
            // routers own only a handful of links, so allocation stays
            // proportional to the agent, not to the whole network.
            let bl_specs: Vec<(usize, LinkId, u64)> = net.out_links[i]
                .iter()
                .map(|&li| (li, &net.links[li]))
                .filter(|(_, l)| net.is_router_link(l))
                .map(|(li, l)| (li, LinkId(l.addr), l.capacity))
                .collect();
            // Everything needed to rebuild this agent's defense state from
            // scratch — construction at deploy time and reconstruction
            // after an injected reboot go through the same template, so a
            // rebooted router is indistinguishable from a freshly deployed
            // one (modulo its rotated time-varying secret).
            let template = AgentTemplate {
                cfg: self.cfg.clone(),
                as_id: AsId(as_num),
                key_agent: self.key_agent(as_num),
                ka_root,
                is_access: node.is_access_router(),
                link_as: Arc::clone(&link_as),
                bottlenecks: bl_specs,
                key_ttl: self.key_ttl,
                generation: 0,
            };
            let announcer = (announcer_of.get(&as_num) == Some(&node_id)).then(|| KeyAnnouncer {
                announcement: self.announcement(as_num),
                peers: agent_nodes.clone(),
                interval: (self.key_ttl / 2).max(1),
                last: 0,
            });
            builder.router_agent(
                node_id,
                Box::new(NetFenceRouterAgent {
                    access: template.build_access(),
                    bottlenecks: template.build_bottlenecks(),
                    keys: PolicyStore::new(self.key_ttl, 0),
                    announcer,
                    template,
                    clock_offset: 0,
                    stamped_decr: 0,
                }),
            );
        }

        // Host shims for every host in a deploying AS, sharing one `Config`.
        let cfg = Arc::new(self.cfg.clone());
        let suppressed = suppressed_by_receiver(&self.suppressed);
        for host in map.hosts(net) {
            let mut receiver = ReceiverShim::default();
            for &s in suppressed.get(&host).into_iter().flatten() {
                receiver.set_policy(HostId(s), ReceiverPolicy::Suppress);
            }
            builder.host_shim(
                host,
                Box::new(NetFenceHostShim {
                    cfg: Arc::clone(&cfg),
                    sender: SenderShim::default(),
                    receiver,
                    priority_override: self.priority_override.get(&host).copied(),
                }),
            );
        }

        let mut deployment = builder.build();
        // Passport key exchange over the control plane: every deploying AS
        // announces its public value to every deployed router (one round,
        // as a full-mesh BGP propagation would). Each agent records the
        // announced values in `on_control`; keys are derived on first use.
        for &asn in &map.ases {
            let ann = self.announcement(asn);
            for &node in &agent_nodes {
                deployment.bus.to_router(node, ann);
            }
        }
        deployment
    }
}

/// Group (receiver, sender) suppression pairs by receiver, each receiver's
/// senders in insertion order, so a host's shim sees the same `set_policy`
/// calls in the same order as a scan of the whole list would give it.
fn suppressed_by_receiver(pairs: &[(HostAddr, HostAddr)]) -> IdMap<HostAddr, Vec<HostAddr>> {
    let mut by_receiver: IdMap<HostAddr, Vec<HostAddr>> = IdMap::default();
    for &(r, s) in pairs {
        by_receiver.entry(r).or_default().push(s);
    }
    by_receiver
}

/// The sender/receiver shim of one NetFence host.
#[derive(Debug)]
struct NetFenceHostShim {
    cfg: Arc<Config>,
    sender: SenderShim,
    receiver: ReceiverShim,
    priority_override: Option<u8>,
}

impl HostShim for NetFenceHostShim {
    fn on_send(&mut self, now: Nanos, pkt: &mut Packet, _ctl: &mut ControlPlane) {
        let proto = match pkt.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        };
        let echo = self.receiver.echo_for(HostId(pkt.dst));
        let mut header = self.sender.make_header(now, HostId(pkt.dst), proto, echo, &self.cfg);
        if header.kind == netfence_core::header::PacketKind::Request {
            if let Some(level) = self.priority_override {
                header.priority = level;
            }
            pkt.channel = ChannelClass::Request;
        } else {
            pkt.channel = ChannelClass::Regular;
        }
        pkt.priority = header.priority;
        let ext = NetFenceExt::new(header);
        pkt.size += ext.wire_len();
        pkt.ext = Some(Box::new(ext));
    }

    fn on_receive(&mut self, _now: Nanos, pkt: &Packet, _ctl: &mut ControlPlane) {
        let Some(ext) = pkt.ext_as::<NetFenceExt>() else {
            return;
        };
        self.receiver.packet_received(HostId(pkt.src), ext.header.presented);
        if let Some(echo) = ext.header.echoed {
            self.sender.feedback_returned(HostId(pkt.src), echo);
        }
    }
}

/// The designated key announcer of one deploying AS: re-posts the AS's
/// public value to every deployed router every `interval` so TTL'd keys
/// stay refreshed (the periodic BGP re-advertisement of §4.4).
#[derive(Debug)]
struct KeyAnnouncer {
    /// The AS's key announcement.
    announcement: ControlPayload,
    /// Every deployed router agent (snapshot at deploy time).
    peers: Vec<NodeId>,
    /// Re-announce cadence (`key_ttl / 2`).
    interval: Nanos,
    /// When the last announcement was posted (deploy time = 0).
    last: Nanos,
}

/// Deploy-time construction parameters of one router agent, kept so an
/// injected reboot can rebuild the agent's volatile defense state exactly
/// the way `deploy` built it. `generation` counts reboots and key
/// desyncs: each one derives a fresh time-varying secret root, so feedback
/// stamped before the fault genuinely stops validating.
#[derive(Debug)]
struct AgentTemplate {
    cfg: Config,
    as_id: AsId,
    /// The AS's key agent, handed to every key table the template builds
    /// so the table can derive its pairwise keys.
    key_agent: AsKeyAgent,
    ka_root: [u8; 16],
    is_access: bool,
    /// The deployment's (bottleneck link → owning AS) map, one copy shared
    /// by every agent's access router.
    link_as: Arc<IdMap<LinkId, AsId>>,
    /// (link index, link id, capacity) of each owned bottleneck link.
    bottlenecks: Vec<(usize, LinkId, u64)>,
    key_ttl: Nanos,
    generation: u32,
}

impl AgentTemplate {
    /// The time-varying secret root of the current generation (generation
    /// 0 is the deploy-time root, so fresh construction is unchanged).
    fn root_for_generation(&self) -> [u8; 16] {
        let mut root = self.ka_root;
        let mix = (self.generation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (slot, byte) in root[..8].iter_mut().zip(mix.to_be_bytes()) {
            *slot ^= byte;
        }
        root
    }

    fn build_access(&self) -> Option<AccessRouter> {
        if !self.is_access {
            return None;
        }
        let mut access = AccessRouter::new(
            self.cfg.clone(),
            self.as_id,
            self.root_for_generation(),
            self.key_table(),
        );
        access.share_link_as(Arc::clone(&self.link_as));
        Some(access)
    }

    fn build_bottlenecks(&self) -> Vec<(usize, BottleneckLink)> {
        self.bottlenecks
            .iter()
            .map(|&(li, link, capacity)| {
                (li, BottleneckLink::new(link, capacity, self.key_table(), self.cfg.clone(), 0))
            })
            .collect()
    }

    /// An empty key table for one of the router's components.
    fn key_table(&self) -> AsKeyTable {
        AsKeyTable::for_agent(self.key_agent.clone())
    }
}

/// The NetFence agent of one deployed router: access-router protocol state
/// (when the node is an access router) plus per-outgoing-link bottleneck
/// state.
#[derive(Debug)]
struct NetFenceRouterAgent {
    access: Option<AccessRouter>,
    /// Bottleneck state per outgoing inter-router link: (link index,
    /// state), sorted ascending by index.
    bottlenecks: Vec<(usize, BottleneckLink)>,
    /// TTL bookkeeping for installed pairwise keys; expired peers are
    /// uninstalled from the access router and bottleneck key tables on
    /// the next tick.
    keys: PolicyStore<AsNum>,
    /// Present on the AS's designated announcer when a key TTL is set.
    announcer: Option<KeyAnnouncer>,
    /// Deploy-time construction parameters, for fault-injected rebuilds.
    template: AgentTemplate,
    /// Injected clock skew (ns) applied to this router's protocol clock —
    /// the `now` its feedback stamping, validation (§4.4 expiration
    /// window) and AIMD machinery observe. Control-plane cadence (key TTL
    /// purge, announcer re-posts) stays on engine time.
    clock_offset: i64,
    /// Packets this router's bottleneck links stamped `L↓`.
    stamped_decr: u64,
}

impl NetFenceRouterAgent {
    fn bottleneck_mut(&mut self, link_index: usize) -> Option<&mut BottleneckLink> {
        let i = self.bottlenecks.binary_search_by_key(&link_index, |(li, _)| *li).ok()?;
        Some(&mut self.bottlenecks[i].1)
    }

    /// Engine time as seen by this router's (possibly skewed) local clock.
    fn local_now(&self, now: Nanos) -> Nanos {
        if self.clock_offset >= 0 {
            now.saturating_add(self.clock_offset as u64)
        } else {
            now.saturating_sub(self.clock_offset.unsigned_abs())
        }
    }
}

impl RouterAgent for NetFenceRouterAgent {
    fn at_router(
        &mut self,
        now: Nanos,
        is_access: bool,
        _out_link: LinkRef,
        pkt: &mut Packet,
        _ctl: &mut ControlPlane,
    ) -> RouterAction {
        // Feedback stamping, validation and policing all run on the
        // router's local (possibly fault-skewed) clock.
        let now = self.local_now(now);
        if is_access {
            let Some(access) = self.access.as_mut() else {
                return RouterAction::Forward;
            };
            let flow = FlowPair::new(HostId(pkt.src), HostId(pkt.dst));
            let size = pkt.size;
            let Some(ext) = pkt.ext_as_mut::<NetFenceExt>() else {
                // Legacy traffic: forwarded with the lowest priority.
                pkt.channel = ChannelClass::Legacy;
                return RouterAction::Forward;
            };
            let verdict = access.process_outbound(now, flow, &mut ext.header, size);
            match verdict {
                AccessVerdict::Forward { channel } => {
                    let priority = ext.header.priority;
                    pkt.channel = channel_of(channel);
                    pkt.priority = priority;
                    RouterAction::Forward
                }
                AccessVerdict::Queued { release_at } => {
                    ext.queued_for = ext.header.presented.link();
                    pkt.channel = ChannelClass::Regular;
                    RouterAction::Delay { release_at }
                }
                AccessVerdict::Drop(cause) => RouterAction::Drop(cause),
            }
        } else {
            // A core/bottleneck router of a deploying AS. Traffic from a
            // non-deploying AS carries no NetFence header: demote it below
            // NetFence traffic (§5.3's adoption incentive).
            if pkt.ext_as::<NetFenceExt>().is_none() {
                pkt.channel = ChannelClass::Legacy;
            }
            RouterAction::Forward
        }
    }

    fn on_delayed_release(&mut self, _now: Nanos, pkt: &mut Packet, _ctl: &mut ControlPlane) {
        let src = pkt.src;
        let Some(ext) = pkt.ext_as_mut::<NetFenceExt>() else { return };
        if let Some(link) = ext.queued_for.take() {
            if let Some(access) = self.access.as_mut() {
                access.packet_released(HostId(src), link);
            }
        }
    }

    fn on_link_dequeue(&mut self, now: Nanos, link: LinkRef, pkt: &mut Packet) {
        let now = self.local_now(now);
        let Some(bl) = self.bottleneck_mut(link.index) else { return };
        if pkt.channel == ChannelClass::Regular {
            bl.record_regular(pkt.size, false);
        }
        let flow = FlowPair::new(HostId(pkt.src), HostId(pkt.dst));
        let src_as = AsId(pkt.src_as);
        if let Some(ext) = pkt.ext_as_mut::<NetFenceExt>() {
            let outcome = bl.update_feedback(now, flow, src_as, &mut ext.header.presented);
            if outcome == netfence_core::bottleneck::StampOutcome::StampedDecr {
                self.stamped_decr += 1;
            }
        }
    }

    fn on_link_drop(&mut self, now: Nanos, link: LinkRef, pkt: &Packet) {
        let now = self.local_now(now);
        let Some(bl) = self.bottleneck_mut(link.index) else { return };
        if pkt.channel == ChannelClass::Regular {
            bl.record_regular(pkt.size, true);
            bl.note_congestion(now);
        }
    }

    fn on_control(&mut self, now: Nanos, msg: ControlPayload, _ctl: &mut ControlPlane) {
        let ControlPayload::KeyAnnouncement { asn, public_value } = msg else { return };
        self.keys.insert(now, asn);
        // Only the announced value is recorded: each table derives the key
        // the first time it stamps or validates an `L↓` for this AS.
        for (_, bl) in self.bottlenecks.iter_mut() {
            bl.install_as_key(AsId(asn), public_value);
        }
        if let Some(access) = self.access.as_mut() {
            access.install_as_key(AsId(asn), public_value);
        }
    }

    fn tick(&mut self, now: Nanos, ctl: &mut ControlPlane) {
        // Protocol machinery ticks on the local clock; key TTLs and the
        // announcer cadence below stay on engine time.
        let lnow = self.local_now(now);
        if let Some(access) = self.access.as_mut() {
            access.tick(lnow);
        }
        for (_, bl) in self.bottlenecks.iter_mut() {
            bl.tick(lnow);
        }
        // Uninstall keys whose TTL lapsed without a refresh landing: the
        // peer's traffic reverts to unverifiable (no L↓ can be stamped for
        // it) until a fresh announcement arrives.
        for asn in self.keys.purge(now) {
            if let Some(access) = self.access.as_mut() {
                access.remove_as_key(AsId(asn));
            }
            for (_, bl) in self.bottlenecks.iter_mut() {
                bl.remove_as_key(AsId(asn));
            }
        }
        // The designated announcer re-posts its AS's public value over the
        // control plane; under latency, loss or an outage the refresh may
        // land late (or never), which is exactly what the TTL punishes.
        if let Some(a) = self.announcer.as_mut() {
            if now >= a.last.saturating_add(a.interval) {
                a.last = now;
                for &peer in &a.peers {
                    ctl.to_router(peer, a.announcement);
                }
            }
        }
    }

    fn on_fault(&mut self, now: Nanos, fault: RouterFault, ctl: &mut ControlPlane) {
        match fault {
            RouterFault::Reboot => {
                // Wipe every piece of volatile defense state — AIMD
                // limiters, pairwise AS keys, bottleneck monitoring cycles —
                // by rebuilding from the deploy template.
                // The rebooted router comes up with a *rotated* time-varying
                // secret (a real reboot loses `Ka`), so feedback stamped
                // before the fault stops validating until re-stamped.
                self.template.generation += 1;
                self.access = self.template.build_access();
                self.bottlenecks = self.template.build_bottlenecks();
                let carried = self.keys.stats;
                self.keys = PolicyStore::new(self.template.key_ttl, 0);
                self.keys.stats = carried;
                self.clock_offset = 0;
                // Re-bootstrap over the control plane: the designated
                // announcer re-posts its AS's public value immediately;
                // everyone else re-learns peers on the announcers' refresh
                // cadence (≤ ttl/2 away — or never, if keys are permanent
                // and no announcers exist).
                if let Some(a) = self.announcer.as_mut() {
                    a.last = now;
                    for &peer in &a.peers {
                        ctl.to_router(peer, a.announcement);
                    }
                }
            }
            RouterFault::KeyDesync => {
                // Rotate only the time-varying secret: held feedback goes
                // stale and surfaces as typed invalid-mac demotions until
                // freshly stamped feedback circulates back (§4.4).
                self.template.generation += 1;
                if let Some(access) = self.access.as_mut() {
                    access.rotate_secret(self.template.root_for_generation());
                }
            }
            RouterFault::ClockSkew { offset_ns } => {
                self.clock_offset = offset_ns;
            }
            RouterFault::MemoryPressure { evict } => {
                // A forced eviction burst: tear the evicted peers' keys out
                // of the access-router and bottleneck key tables, exactly
                // as a TTL lapse would.
                for asn in self.keys.evict_oldest(evict) {
                    if let Some(access) = self.access.as_mut() {
                        access.remove_as_key(AsId(asn));
                    }
                    for (_, bl) in self.bottlenecks.iter_mut() {
                        bl.remove_as_key(AsId(asn));
                    }
                }
            }
        }
    }

    fn probe(&self, now: Nanos, out: &mut Timeline) {
        // The limiter table is a hash map: aggregate through a BTreeMap so
        // the emitted rows are deterministically ordered (telemetry must
        // never observe iteration order).
        if let Some(access) = &self.access {
            let mut rates: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            // lint:allow(nondeterministic-iteration): aggregated through the BTreeMap above — rows emit in sorted key order
            for (key, lim) in access.limiters() {
                rates.insert((key.src.0, key.link.0), lim.rate());
            }
            for ((src, link), rate) in rates {
                out.record(now, "aimd_rate_bps", format!("src:{src}/link:{link}"), rate as f64);
            }
        }
        out.record(now, "key_store_peers", "netfence".to_string(), self.keys.len() as f64);
        for (_, bl) in self.bottlenecks.iter() {
            out.record(
                now,
                "bottleneck_in_mon",
                format!("link:{}", bl.link().0),
                if bl.in_mon() { 1.0 } else { 0.0 },
            );
        }
    }

    fn report(&self, out: &mut DefenseReport) {
        out.stamped_decr += self.stamped_decr;
        out.rules_installed += self.keys.stats.installed;
        out.rules_refreshed += self.keys.stats.refreshed;
        out.rules_expired += self.keys.stats.expired;
        out.rules_rejected += self.keys.stats.rejected;
        if let Some(access) = &self.access {
            out.rate_limiters += access.limiter_count();
            out.invalid_feedback += access.invalid_feedback();
        }
        for (_, bl) in self.bottlenecks.iter() {
            if bl.in_mon() {
                out.links_in_mon.push(bl.link().0);
            }
        }
    }
}

fn channel_of(c: Channel) -> ChannelClass {
    match c {
        Channel::Regular => ChannelClass::Regular,
        Channel::Request => ChannelClass::Request,
        Channel::Legacy => ChannelClass::Legacy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::prelude::*;

    const USER: u32 = 0x0a_00_00_01;
    const ATTACKER: u32 = 0x0a_00_00_02;
    const VICTIM: u32 = 0x0b_00_00_01;
    const COLLUDER: u32 = 0x0b_00_00_02;

    /// Two source hosts in AS 1, two destination hosts in AS 3, a 2 Mbps
    /// bottleneck between the transit routers of AS 1 and AS 2.
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

    fn deploy_full(net: &Network, defense: &NetFenceDefense) -> Deployment {
        defense.deploy(net, &DeploymentSpec::full())
    }

    #[test]
    fn suppression_index_keeps_each_receivers_order() {
        let (r1, r2, other) = (1, 2, 3);
        let (a, b, c) = (10, 11, 12);
        let index = suppressed_by_receiver(&[(r1, a), (r2, b), (r1, c)]);
        assert_eq!(index.get(&r1), Some(&vec![a, c]));
        assert_eq!(index.get(&r2), Some(&vec![b]));
        assert_eq!(index.get(&other), None);
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
        let (net, bottleneck) = small_net(1_000_000);
        let defense = NetFenceDefense::new(Config::short_timers());
        let deployment = deploy_full(&net, &defense);
        let mut sim = Simulator::new(
            net,
            deployment,
            SimConfig { end_time: 120 * SEC, ..Default::default() },
        );
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        sim.run();
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
    fn ttl_keys_stay_refreshed_over_a_healthy_control_plane() {
        // With a key TTL, designated announcers re-post every ttl/2 over
        // the (ideal) control plane: keys are continually refreshed, none
        // lapse, and the defense still polices the flood.
        let (net, _) = small_net(1_000_000);
        let mut defense = NetFenceDefense::new(Config::short_timers());
        defense.key_ttl(2 * SEC);
        let deployment = deploy_full(&net, &defense);
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, USER, VICTIM, TcpWorkload::LongRunning, SimRng::new(1)))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        sim.run();
        let report = sim.report();
        assert!(report.rules_installed >= 3, "installed: {}", report.rules_installed);
        assert!(report.rules_refreshed > 50, "refreshed: {}", report.rules_refreshed);
        assert_eq!(report.rules_expired, 0, "no key may lapse on an ideal channel");
        assert!(report.stamped_decr > 0, "refreshed keys must keep L↓ stamping alive");
        let user_bps = sim.progress(user).goodput_bps(0, 60 * SEC);
        let attacker_bps = sim.progress(attacker).goodput_bps(0, 60 * SEC);
        assert!(
            user_bps / attacker_bps.max(1.0) > 0.5,
            "user {user_bps:.0} bps vs attacker {attacker_bps:.0} bps"
        );
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
