//! The NetFence agent of one deployed router: access-router policing,
//! bottleneck stamping, the pairwise-key lifecycle and the router's
//! response to injected faults.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use netfence_core::access::{AccessRouter, AccessVerdict};
use netfence_core::bottleneck::{BottleneckLink, Channel, StampOutcome};
use netfence_core::config::Config;
use netfence_core::types::{AsId, FlowPair, HostId, LinkId};
use netfence_crypto::{AsKeyAgent, AsKeyTable, Install};
use netfence_ctrl::policy::PolicyStats;
use netfence_sim::control::{ControlPayload, ControlPlane};
use netfence_sim::deploy::{DefenseReport, LinkRef, RouterAction, RouterAgent, RouterFault};
use netfence_sim::packet::{AsNum, ChannelClass, Packet};
use netfence_sim::prelude::{IdMap, Timeline};
use netfence_sim::time::Nanos;
use netfence_sim::topology::NodeId;

use crate::headers::NetFenceExt;

/// The designated key announcer of one deploying AS: re-posts the AS's
/// public value to every deployed router every `interval` so TTL'd keys
/// stay refreshed (the periodic BGP re-advertisement of §4.4).
#[derive(Debug)]
pub(super) struct KeyAnnouncer {
    /// The AS's key announcement.
    pub(super) announcement: ControlPayload,
    /// Every deployed router agent (snapshot at deploy time), one list
    /// shared by every announcer.
    pub(super) peers: Rc<[NodeId]>,
    /// Re-announce cadence (`key_ttl / 2`).
    pub(super) interval: Nanos,
    /// When the last announcement was posted (deploy time = 0).
    pub(super) last: Nanos,
}

impl KeyAnnouncer {
    /// Post the AS's announcement to every deployed router now.
    fn post(&mut self, now: Nanos, ctl: &mut ControlPlane) {
        self.last = now;
        for &peer in self.peers.iter() {
            ctl.to_router(peer, self.announcement);
        }
    }
}

/// Deploy-time construction parameters of one router agent, kept so an
/// injected reboot can rebuild the agent's volatile defense state exactly
/// the way `deploy` built it. `generation` counts reboots and key
/// desyncs: each one derives a fresh time-varying secret root, so feedback
/// stamped before the fault genuinely stops validating.
#[derive(Debug)]
pub(super) struct AgentTemplate {
    pub(super) cfg: Config,
    pub(super) as_id: AsId,
    /// The AS's key agent, handed to the key store the template builds so
    /// the store can derive its pairwise keys.
    pub(super) key_agent: AsKeyAgent,
    /// The deploying ASes, ascending: the key store's slots. One list
    /// shared by every agent of the deployment.
    pub(super) ases: Rc<[AsNum]>,
    pub(super) ka_root: [u8; 16],
    pub(super) is_access: bool,
    /// The deployment's (bottleneck link → owning AS) map, one copy shared
    /// by every agent's access router.
    pub(super) link_as: Arc<IdMap<LinkId, AsId>>,
    /// (link index, link id, capacity) of each owned bottleneck link.
    pub(super) bottlenecks: Vec<(usize, LinkId, u64)>,
    pub(super) key_ttl: Nanos,
    pub(super) generation: u32,
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

    /// The router's components, built fresh: its access router (if any)
    /// and its bottleneck links, all holding shares of one new key store,
    /// plus the agent's own share of it.
    fn build(&self) -> (AsKeyTable, Option<AccessRouter>, Vec<(usize, BottleneckLink)>) {
        let keys =
            AsKeyTable::for_agent(self.key_agent.clone(), Rc::clone(&self.ases), self.key_ttl);
        let access = self.is_access.then(|| {
            let root = self.root_for_generation();
            let mut access = AccessRouter::new(self.cfg.clone(), self.as_id, root, keys.share());
            access.share_link_as(Arc::clone(&self.link_as));
            access
        });
        let bottlenecks = self
            .bottlenecks
            .iter()
            .map(|&(li, link, capacity)| {
                (li, BottleneckLink::new(link, capacity, keys.share(), self.cfg.clone(), 0))
            })
            .collect();
        (keys, access, bottlenecks)
    }
}

/// The NetFence agent of one deployed router: access-router protocol state
/// (when the node is an access router) plus per-outgoing-link bottleneck
/// state.
#[derive(Debug)]
pub struct NetFenceRouterAgent {
    /// The router's pairwise keys and their TTLs: one store, shared with
    /// the access router and every bottleneck link.
    as_keys: AsKeyTable,
    access: Option<AccessRouter>,
    /// Bottleneck state per outgoing inter-router link: (link index,
    /// state), sorted ascending by index.
    bottlenecks: Vec<(usize, BottleneckLink)>,
    /// Lifecycle counters of the key store. They are measurement, not
    /// router state, so they outlive the store a reboot replaces.
    key_stats: PolicyStats,
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
    /// A freshly deployed agent built from `template`.
    pub(super) fn new(template: AgentTemplate, announcer: Option<KeyAnnouncer>) -> Self {
        let (as_keys, access, bottlenecks) = template.build();
        NetFenceRouterAgent {
            as_keys,
            access,
            bottlenecks,
            key_stats: PolicyStats::default(),
            announcer,
            template,
            clock_offset: 0,
            stamped_decr: 0,
        }
    }

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
        let engine_now = now;
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
                AccessVerdict::Queued { release_at, held_in } => {
                    ext.queued_for = held_in;
                    pkt.channel = ChannelClass::Regular;
                    // The engine schedules on its own clock: keep the
                    // limiter's hold, not its local release instant.
                    let hold = release_at.saturating_sub(now);
                    RouterAction::Delay { release_at: engine_now.saturating_add(hold) }
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
        let held_in = std::mem::take(&mut ext.queued_for);
        if let Some(access) = self.access.as_mut() {
            for &link in held_in.as_slice() {
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
            if outcome == StampOutcome::StampedDecr {
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
        // Only the value is recorded: the store derives the key the first
        // time a component stamps or validates an `L↓` for this AS.
        match self.as_keys.install(now, asn, public_value) {
            Install::New => self.key_stats.installed += 1,
            Install::Refreshed => self.key_stats.refreshed += 1,
            Install::Rejected => self.key_stats.rejected += 1,
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
        // Drop keys whose TTL lapsed without a refresh landing: their
        // traffic reverts to unverifiable (no `L↓` can be stamped for it)
        // until a fresh announcement lands.
        self.key_stats.expired += self.as_keys.purge(now) as u64;
        // The designated announcer re-posts its AS's public value over the
        // control plane; under latency, loss or an outage the refresh may
        // land late (or never), which is exactly what the TTL punishes.
        if let Some(a) = self.announcer.as_mut() {
            if now >= a.last.saturating_add(a.interval) {
                a.post(now, ctl);
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
                (self.as_keys, self.access, self.bottlenecks) = self.template.build();
                self.clock_offset = 0;
                // Re-bootstrap over the control plane: the designated
                // announcer re-posts its AS's public value immediately;
                // everyone else re-learns peers on the announcers' refresh
                // cadence (≤ ttl/2 away — or never, if keys are permanent
                // and no announcers exist).
                if let Some(a) = self.announcer.as_mut() {
                    a.post(now, ctl);
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
                // A forced eviction burst tears the evicted peers' keys
                // out exactly as a TTL lapse would.
                self.key_stats.evicted += self.as_keys.evict_oldest(evict) as u64;
            }
        }
    }

    fn probe(&self, now: Nanos, out: &mut Timeline) {
        // The limiter table is a hash map: aggregate through a BTreeMap so
        // the emitted rows are deterministically ordered (telemetry must
        // never observe iteration order).
        if let Some(access) = &self.access {
            let mut rates: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            #[expect(
                clippy::iter_over_hash_type,
                reason = "aggregated through the BTreeMap above: rows emit in sorted key order"
            )]
            for (key, lim) in access.limiters() {
                rates.insert((key.src.0, key.link.0), lim.rate());
            }
            for ((src, link), rate) in rates {
                out.record(now, "aimd_rate_bps", format!("src:{src}/link:{link}"), rate as f64);
            }
        }
        out.record(now, "key_store_peers", "netfence".to_string(), self.as_keys.len() as f64);
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
        out.rules_installed += self.key_stats.installed;
        out.rules_refreshed += self.key_stats.refreshed;
        out.rules_expired += self.key_stats.expired;
        out.rules_rejected += self.key_stats.rejected;
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
    use crate::netfence::tests::colluding_flood;
    use crate::netfence::NetFenceDefense;
    use netfence_core::feedback::{self, Feedback};
    use netfence_core::header::NetFenceHeader;
    use netfence_crypto::Cmac;
    use netfence_sim::prelude::*;

    /// The AS of the router under test, and of its hosts.
    const AS: AsNum = 1;
    /// The router's one bottleneck link, owned by `AS`.
    const LINK: LinkRef = LinkRef { index: 0, addr: 500 };
    const SRC: HostAddr = 0x0a00_0001;
    const DST: HostAddr = 0x0b00_0001;

    fn key_agent() -> AsKeyAgent {
        AsKeyAgent::new(AS, 11)
    }

    /// An access router of `AS` that also owns the 1 Mbps bottleneck
    /// `LINK`; its keys lapse after `key_ttl` (0 = never).
    fn router(key_ttl: Nanos) -> NetFenceRouterAgent {
        let link = LinkId(LINK.addr);
        let template = AgentTemplate {
            cfg: Config::short_timers(),
            as_id: AsId(AS),
            key_agent: key_agent(),
            ases: [AS].into(),
            ka_root: [7; 16],
            is_access: true,
            link_as: Arc::new([(link, AsId(AS))].into_iter().collect()),
            bottlenecks: vec![(LINK.index, link, 1_000_000)],
            key_ttl,
            generation: 0,
        };
        NetFenceRouterAgent::new(template, None)
    }

    fn announce(agent: &mut NetFenceRouterAgent, now: Nanos) {
        let msg =
            ControlPayload::KeyAnnouncement { asn: AS, public_value: key_agent().public_value() };
        agent.on_control(now, msg, &mut ControlPlane::default());
    }

    fn packet(header: NetFenceHeader, now: Nanos) -> Packet {
        let mut pkt = Packet::udp(0, SRC, DST, 1500, now);
        pkt.src_as = AS;
        pkt.ext = Some(Box::new(NetFenceExt::new(header)));
        pkt
    }

    fn presented(pkt: &Packet) -> Feedback {
        pkt.ext_as::<NetFenceExt>().map(|e| e.header.presented).unwrap()
    }

    /// A fresh `nop`, stamped by the router's access router at `now`.
    fn fresh_nop(agent: &mut NetFenceRouterAgent, now: Nanos) -> Packet {
        let mut pkt =
            packet(NetFenceHeader::request(17, 0, Feedback::Nop { ts: 0, token: 0 }), now);
        agent.at_router(now, true, LINK, &mut pkt, &mut ControlPlane::default());
        pkt
    }

    /// `L↓` for `LINK` on top of `nop`, stamped with the right key.
    fn decr(nop: &Feedback) -> Feedback {
        let kai = Cmac::new(&key_agent().shared_key(AS, key_agent().public_value()));
        let flow = FlowPair::new(HostId(SRC), HostId(DST));
        feedback::stamp_decr(&kai, flow, LinkId(LINK.addr), nop).unwrap()
    }

    /// Feed `LINK` a lossy second at a time from `now` until it enters a
    /// monitoring cycle; returns the time it did.
    fn drive_into_mon(agent: &mut NetFenceRouterAgent, mut now: Nanos) -> Nanos {
        while !agent.bottlenecks[0].1.in_mon() {
            now += SEC;
            for i in 0..100 {
                let mut pkt = Packet::udp(0, SRC, DST, 1500, now);
                if i % 5 == 0 {
                    agent.on_link_drop(now, LINK, &pkt);
                } else {
                    agent.on_link_dequeue(now, LINK, &mut pkt);
                }
            }
            agent.tick(now, &mut ControlPlane::default());
        }
        now
    }

    /// At `now`: whether the router's bottleneck stamps `L↓` on a fresh
    /// `nop`, and whether its access router accepts a correctly keyed `L↓`.
    fn stamps_and_validates(agent: &mut NetFenceRouterAgent, now: Nanos) -> (bool, bool) {
        assert!(agent.bottlenecks[0].1.in_mon());
        let mut pkt = fresh_nop(agent, now);
        let nop = presented(&pkt);
        agent.on_link_dequeue(now, LINK, &mut pkt);
        let stamped = presented(&pkt).is_decr();
        let invalid =
            |agent: &NetFenceRouterAgent| agent.access.as_ref().unwrap().invalid_feedback();
        let before = invalid(agent);
        let mut pkt = packet(NetFenceHeader::regular(17, decr(&nop), None), now);
        agent.at_router(now, true, LINK, &mut pkt, &mut ControlPlane::default());
        (stamped, invalid(agent) == before)
    }

    #[test]
    fn one_announcement_serves_the_bottleneck_and_the_access_router() {
        let ttl = 20 * SEC;
        let mut agent = router(ttl);
        announce(&mut agent, 0);
        let now = drive_into_mon(&mut agent, 0);
        assert!(now < ttl, "in mon at {now}");
        assert_eq!(stamps_and_validates(&mut agent, now), (true, true));

        // The TTL lapses with no refresh: the one store loses the key, and
        // neither component can use it.
        agent.tick(ttl, &mut ControlPlane::default());
        assert!(agent.as_keys.is_empty());
        assert_eq!(stamps_and_validates(&mut agent, ttl), (false, false));

        // A reboot builds one fresh store: the key announced just before
        // it is gone, and one announcement after it serves both
        // components again.
        announce(&mut agent, ttl);
        agent.on_fault(ttl, RouterFault::Reboot, &mut ControlPlane::default());
        assert!(agent.as_keys.is_empty());
        let now = drive_into_mon(&mut agent, ttl);
        assert_eq!(stamps_and_validates(&mut agent, now), (false, false));
        announce(&mut agent, now);
        assert_eq!(stamps_and_validates(&mut agent, now), (true, true));
    }

    #[test]
    fn a_skewed_access_router_holds_packets_for_engine_time() {
        let max = Config::short_timers().max_limiter_delay;
        for offset in [5 * SEC as i64, -5 * SEC as i64] {
            let mut agent = router(0);
            let mut ctl = ControlPlane::default();
            agent.on_fault(0, RouterFault::ClockSkew { offset_ns: offset }, &mut ctl);
            announce(&mut agent, 0);
            let now = 10 * SEC;
            let fb = decr(&presented(&fresh_nop(&mut agent, now)));
            let mut delays = 0;
            for _ in 0..50 {
                let mut pkt = packet(NetFenceHeader::regular(17, fb, None), now);
                if let RouterAction::Delay { release_at } =
                    agent.at_router(now, true, LINK, &mut pkt, &mut ctl)
                {
                    assert!(
                        release_at > now && release_at <= now + max,
                        "skew {offset}: released at {release_at}, engine now {now}"
                    );
                    delays += 1;
                }
            }
            assert!(delays > 0, "skew {offset}: the limiter held nothing");
        }
    }

    #[test]
    fn ttl_keys_stay_refreshed_over_a_healthy_control_plane() {
        // With a key TTL, designated announcers re-post every ttl/2 over
        // the (ideal) control plane: keys are continually refreshed, none
        // lapse, and the defense still polices the flood.
        let mut defense = NetFenceDefense::new(Config::short_timers());
        defense.key_ttl(2 * SEC);
        let (sim, user, attacker) = colluding_flood(&defense, 60 * SEC, |_| {});
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
    fn memory_pressure_uninstalls_every_key_it_evicts() {
        // Permanent keys, no announcer: after a full eviction at `t0` (left
        // alone, this flood stamps `L↓` until ≈ 10 s) nothing re-installs a
        // key, so no bottleneck can stamp `L↓` again.
        let t0 = 3 * SEC;
        let stamped_by = |end| {
            let defense = NetFenceDefense::new(Config::short_timers());
            let (sim, _, _) = colluding_flood(&defense, end, |sim| {
                // `small_net` builds its three routers first.
                for node in (0..3).map(NodeId) {
                    let fault = RouterFault::MemoryPressure { evict: usize::MAX };
                    sim.schedule_fault(t0, FaultAction::Router { node, fault });
                }
            });
            sim.report().stamped_decr
        };
        let at_t0 = stamped_by(t0 + MILLI);
        assert!(at_t0 > 0, "the flood never stamped L↓ before the eviction");
        assert_eq!(stamped_by(60 * SEC), at_t0, "a bottleneck kept stamping without keys");
    }
}
