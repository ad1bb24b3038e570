//! The out-of-band control bus of a deployment, and its delivery.
//!
//! Agents cannot reach into each other's state: anything that crosses a
//! node boundary outside a packet — Passport key announcements, StopIt
//! filter requests — is a [`ControlMsg`] queued on the deployment's
//! [`ControlPlane`]. The engine drains the bus after every event: each
//! message is planned by the installed [`ControlChannel`], delivered to its
//! router's agent at once, handed back to the engine as an event for a
//! later instant, or lost.

use std::sync::Arc;

use crate::deploy::{agent_at, RouterAgent};
use crate::packet::{AsNum, HostAddr};
use crate::time::Nanos;
use crate::topology::{HostEntry, HostTable, Network, NodeId};

/// What a control-plane message says. The set is closed: these are the
/// two out-of-band messages the deployed systems exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPayload {
    /// A Passport key announcement (NetFence §4.4): the announcing AS and
    /// its Diffie–Hellman public value, from which every deployed router
    /// derives the pairwise AES key.
    KeyAnnouncement {
        /// The announcing AS.
        asn: AsNum,
        /// Its public Diffie–Hellman value.
        public_value: u64,
    },
    /// A StopIt request to block `src → dst` at the source's access
    /// router.
    FilterRequest {
        /// The sender to block.
        src: HostAddr,
        /// The destination filing the filter.
        dst: HostAddr,
    },
}

/// One queued control-plane message.
#[derive(Debug, Clone, Copy)]
pub struct ControlMsg {
    /// The router whose agent receives the message.
    pub to: NodeId,
    /// What the message says.
    pub payload: ControlPayload,
}

/// The transport's decision for one control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelVerdict {
    /// Deliver at absolute time `at` (times in the past are delivered
    /// immediately), after `retransmits` lost attempts were recovered by
    /// retransmission.
    Deliver {
        /// Absolute delivery time.
        at: Nanos,
        /// Lost attempts that were retransmitted before one got through.
        retransmits: u32,
    },
    /// Every attempt (the original plus `retransmits` retries) was lost —
    /// the message never arrives.
    Lost {
        /// Retransmissions spent before giving up.
        retransmits: u32,
    },
}

/// A pluggable control-plane transport: decides when (and whether) each
/// queued message reaches its destination.
///
/// Without an installed channel the [`ControlPlane`] keeps its historical
/// behavior — synchronous, reliable, zero-latency delivery. Installing a
/// channel (see the `netfence-ctrl` crate) subjects every message to
/// propagation latency, loss/retransmission and controller outages.
pub trait ControlChannel: std::fmt::Debug {
    /// Plan the fate of a message queued at simulated time `now`.
    fn plan(&mut self, now: Nanos) -> ChannelVerdict;
}

/// The out-of-band coordination bus of a deployment. With no installed
/// [`ControlChannel`] every message is delivered reliably at the current
/// simulated time (control traffic modelled as reliable and prompt); an
/// installed channel subjects messages to latency, loss and outages.
#[derive(Debug, Default)]
pub struct ControlPlane {
    outbox: Vec<ControlMsg>,
    address_book: Arc<HostTable>,
    channel: Option<Box<dyn ControlChannel>>,
    /// Messages delivered to an agent.
    pub delivered: u64,
    /// Messages addressed to a legacy (agent-less) router and dropped — the
    /// partial-deployment failure mode (e.g. a StopIt filter request for a
    /// source whose AS never deployed).
    pub undeliverable: u64,
    /// Transport-level retransmissions performed before messages got
    /// through (zero without an installed channel).
    pub retransmits: u64,
    /// Messages lost in transit after exhausting retransmission (zero
    /// without an installed channel).
    pub lost: u64,
}

impl ControlPlane {
    /// A control plane with the address book of `net` (shared, not
    /// copied — deployments only read it).
    pub fn for_network(net: &Network) -> Self {
        ControlPlane { address_book: Arc::clone(&net.hosts), ..ControlPlane::default() }
    }

    /// Install a transport; subsequent messages go through its
    /// [`ControlChannel::plan`] instead of the instant-reliable default.
    pub fn install_channel(&mut self, channel: Box<dyn ControlChannel>) {
        self.channel = Some(channel);
    }

    /// Queue a message to the router agent at `node`.
    pub fn to_router(&mut self, node: NodeId, payload: ControlPayload) {
        self.outbox.push(ControlMsg { to: node, payload });
    }

    /// Queue a message to the access router of `host` (how StopIt filter
    /// requests find the router nearest the source). Returns false, and
    /// queues nothing, when the network does not know the host.
    pub fn to_access_router_of(&mut self, host: HostAddr, payload: ControlPayload) -> bool {
        let router = self.address_book.get(host).map(HostEntry::router);
        if let Some(node) = router {
            self.to_router(node, payload);
        }
        router.is_some()
    }

    /// Number of queued, undelivered messages.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }

    /// Route queued messages at `now` until the bus is quiet. A message the
    /// channel delivers now reaches its agent at once (which may queue
    /// more); one it delivers later is handed to `defer` with its delivery
    /// time, for [`ControlPlane::deliver`] then; a lost one is counted. A
    /// generous round bound turns an agent pair ping-ponging messages at a
    /// frozen timestamp into a diagnosable panic instead of a silent hang.
    pub(crate) fn drain<R: RouterAgent>(
        &mut self,
        now: Nanos,
        routers: &mut [Option<Box<R>>],
        mut defer: impl FnMut(Nanos, ControlMsg),
    ) {
        const MAX_ROUNDS: usize = 10_000;
        for round in 0.. {
            assert!(
                round < MAX_ROUNDS,
                "control-plane messages still flowing after {MAX_ROUNDS} delivery rounds at \
                 t={now} — agents are ping-ponging messages without advancing time"
            );
            let msgs = std::mem::take(&mut self.outbox);
            if msgs.is_empty() {
                return;
            }
            for msg in msgs {
                let verdict = match &mut self.channel {
                    Some(ch) => ch.plan(now),
                    None => ChannelVerdict::Deliver { at: now, retransmits: 0 },
                };
                let (ChannelVerdict::Deliver { retransmits, .. }
                | ChannelVerdict::Lost { retransmits }) = verdict;
                self.retransmits += u64::from(retransmits);
                match verdict {
                    ChannelVerdict::Deliver { at, .. } if at <= now => {
                        self.deliver(now, routers, msg)
                    }
                    ChannelVerdict::Deliver { at, .. } => defer(at, msg),
                    ChannelVerdict::Lost { .. } => self.lost += 1,
                }
            }
        }
    }

    /// Hand one message to its destination router's agent, or count it as
    /// undeliverable at a legacy router.
    pub(crate) fn deliver<R: RouterAgent>(
        &mut self,
        now: Nanos,
        routers: &mut [Option<Box<R>>],
        msg: ControlMsg,
    ) {
        match agent_at(routers, msg.to) {
            Some(agent) => {
                self.delivered += 1;
                agent.on_control(now, msg.payload, self);
            }
            None => self.undeliverable += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLI;
    use crate::topology::QueueKind;

    #[test]
    fn control_plane_addresses_routers_and_access_routers() {
        // Two edge ASes behind a transit AS.
        let mut b = Network::builder();
        let rt = b.router(100, false);
        for asn in 1..=2u32 {
            let ra = b.router(asn, true);
            b.duplex(ra, rt, 10_000_000, MILLI, QueueKind::Red);
            b.host(asn * 0x100 + 1, asn, ra, 100_000_000, MILLI);
        }
        let net = b.build();
        let mut bus = ControlPlane::for_network(&net);
        let filter = ControlPayload::FilterRequest { src: 0x201, dst: 0x101 };
        assert!(bus.to_access_router_of(0x201, filter));
        assert!(!bus.to_access_router_of(0xdead, filter));
        bus.to_router(NodeId(0), ControlPayload::KeyAnnouncement { asn: 1, public_value: 7 });
        assert_eq!(bus.pending(), 2);
        let msgs = std::mem::take(&mut bus.outbox);
        assert_eq!(msgs[0].to, net.access_router_of(0x201).unwrap());
        assert_eq!(msgs[0].payload, filter);
        assert_eq!(msgs[1].to, NodeId(0));
        assert_eq!(bus.pending(), 0);
    }
}
