//! The link transmitter: each link's queue and wire, and what a failure does
//! to both.
//!
//! A link keeps a time, not a packet: the packet on the wire already sits in
//! its `Arrive` event. On a free link an offered packet goes onto the wire
//! at once when the link's queue is the default FIFO and empty (rule 0,
//! DESIGN.md §1); otherwise it joins the queue, and a busy link is woken by
//! the one `TransmitDone` queued for the instant its wire frees. A failed
//! link loses its backlog, and the packet it was serializing, as typed
//! [`DropCause::LinkDown`] drops.

use netfence_telemetry::{DropCause, HopStage};

use super::{EventKind, Simulator};
use crate::deploy::{agent_at, HostShim, LinkRef, QueuePlan, RouterAgent};
use crate::packet::{ChannelClass, Packet};
use crate::queue::{DropTail, QueueDisc, RedQueue};
use crate::time::{transmission_time, Nanos, MILLI};
use crate::topology::{Network, NodeId, QueueKind};

/// How long an idle link waits before re-asking a queue that withheld its
/// packets (strictly capped request channels).
const LINK_POLL_INTERVAL: Nanos = 2 * MILLI;

/// A link's queue: the default FIFO of every access link inline (an idle link
/// transmits straight through it), a planned one and the default RED boxed.
#[derive(Debug)]
pub(super) enum LinkQueue {
    Fifo(DropTail),
    Planned(Box<dyn QueueDisc>),
}

impl LinkQueue {
    pub(super) fn disc(&mut self) -> &mut dyn QueueDisc {
        match self {
            LinkQueue::Fifo(queue) => queue,
            LinkQueue::Planned(queue) => queue.as_mut(),
        }
    }

    pub(super) fn len_pkts(&self) -> usize {
        match self {
            LinkQueue::Fifo(queue) => queue.len_pkts(),
            LinkQueue::Planned(queue) => queue.len_pkts(),
        }
    }
}

/// One link's transmitter.
#[derive(Debug)]
pub(super) struct LinkState {
    pub(super) queue: LinkQueue,
    /// When the serialization in progress (or the last one) ends.
    busy_until: Nanos,
    /// Id of the packet last put on the wire (lost if cut before `busy_until`).
    on_wire: u64,
    /// A `TransmitDone` is queued at `busy_until` (never more than one).
    pub(super) wake_pending: bool,
    /// A `LinkPoll` is queued (never more than one).
    pub(super) poll_pending: bool,
}

impl LinkState {
    /// One idle transmitter per link of `net`: the deployment's `plan`
    /// (ascending by link index) where it names the link, the topology's
    /// default queue elsewhere.
    pub(super) fn for_network(net: &Network, plan: QueuePlan, seed: u64) -> Vec<LinkState> {
        let mut planned = plan.into_iter().peekable();
        let links =
            net.links
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let queue = match (planned.next_if(|(link, _)| *link == i), spec.queue) {
                        (Some((_, queue)), _) => LinkQueue::Planned(queue),
                        (None, QueueKind::DropTail) => {
                            LinkQueue::Fifo(DropTail::for_capacity(spec.capacity))
                        }
                        (None, QueueKind::Red) => LinkQueue::Planned(Box::new(
                            RedQueue::for_capacity(spec.capacity, seed ^ i as u64),
                        )),
                    };
                    LinkState {
                        queue,
                        busy_until: 0,
                        on_wire: 0,
                        wake_pending: false,
                        poll_pending: false,
                    }
                })
                .collect();
        assert!(planned.next().is_none(), "queue plan is out of order or names a missing link");
        links
    }
}

/// Typed cause of a queue-level drop: which channel the dropped packet was
/// riding tells which budget it lost (request quota, legacy starvation,
/// plain overflow).
fn queue_drop_cause(pkt: &Packet) -> DropCause {
    match pkt.channel {
        ChannelClass::Request => DropCause::RequestQuota,
        ChannelClass::Legacy => DropCause::LegacyDemotion,
        ChannelClass::Regular => DropCause::QueueOverflow,
    }
}

impl<H: HostShim, R: RouterAgent> Simulator<H, R> {
    /// Whether link `link` is currently failed.
    pub fn link_is_down(&self, link: usize) -> bool {
        self.link_down.get(link).copied().unwrap_or(false)
    }

    /// Take `link` down: everything queued on it is lost, and so is the
    /// packet being serialized unless the link is back before its last bit
    /// is out. Routes are recomputed over the surviving topology.
    pub(super) fn fail_link(&mut self, link: usize) {
        if self.link_down.get(link).copied().unwrap_or(true) {
            return;
        }
        self.link_down[link] = true;
        self.mark_fault("link-down", self.net.links[link].from, Some(link));
        let LinkState { busy_until, on_wire, .. } = self.links[link];
        if self.now < busy_until {
            self.cut.push((on_wire, link));
        }
        for d in self.links[link].queue.disc().drain(self.now) {
            self.drop_on_link(link, &d, DropCause::LinkDown);
        }
        self.net.recompute_routes(&self.link_down);
    }

    /// Bring `link` back (a no-op if it is up): a packet still on its wire
    /// survives, routes are recomputed and the link serves its queue again.
    pub(super) fn restore_link(&mut self, link: usize) {
        if !self.link_is_down(link) {
            return;
        }
        self.link_down[link] = false;
        self.mark_fault("link-up", self.net.links[link].from, Some(link));
        self.net.recompute_routes(&self.link_down);
        let LinkState { busy_until, on_wire, .. } = self.links[link];
        if self.now <= busy_until {
            self.cut.retain(|&entry| entry != (on_wire, link));
        }
        self.try_transmit(link);
    }

    /// `pkt` reached `node`, unless its link failed while it was on the wire.
    pub(super) fn arrive(&mut self, node: NodeId, pkt: Packet) {
        // `cut` is empty in fault-free runs: the search is one branch.
        match self.cut.iter().position(|&(id, _)| id == pkt.id) {
            Some(at) => {
                let (_, link) = self.cut.swap_remove(at);
                self.drop_on_link(link, &pkt, DropCause::LinkDown);
            }
            None => self.packet_at_node(node, pkt),
        }
    }

    /// Count `pkt` as dropped by `cause` on `link`, and trace the drop. The
    /// owning agent hears only of queue drops: a dead link produces no
    /// congestion feedback.
    fn drop_on_link(&mut self, link: usize, pkt: &Packet, cause: DropCause) {
        self.metrics.record_link_drop(link, pkt.flow as u64, cause);
        let owner = self.net.links[link].from;
        self.trace_hop(pkt.id, pkt.flow, owner, Some(link), HopStage::Drop, Some(cause));
    }

    pub(super) fn enqueue_on_link(&mut self, link_idx: usize, pkt: Packet) {
        let now = self.now;
        self.metrics.profile.enqueues += 1;
        let owner = self.net.links[link_idx].from;
        if self.link_down[link_idx] {
            // The link failed after routing chose it (stale route window or
            // a delayed release): the packet is lost on the dead link.
            return self.drop_on_link(link_idx, &pkt, DropCause::LinkDown);
        }
        self.trace_hop(pkt.id, pkt.flow, owner, Some(link_idx), HopStage::Enqueue, None);
        // Rule 0: on a free link with an empty plain FIFO, enqueue-then-dequeue
        // is the identity, so the packet starts at once. No other discipline
        // qualifies: an enqueue moves RED's average, a token bucket, a deficit.
        let state = &self.links[link_idx];
        let free = now >= state.busy_until && !state.wake_pending;
        if free && matches!(&state.queue, LinkQueue::Fifo(q) if q.passes_straight_through(&pkt)) {
            return self.start_transmission(link_idx, pkt);
        }
        if let Some(d) = self.links[link_idx].queue.disc().enqueue(now, pkt) {
            self.drop_on_link(link_idx, &d, queue_drop_cause(&d));
            if let Some(agent) = agent_at(&mut self.deployment.routers, owner) {
                let link = LinkRef { index: link_idx, addr: self.net.links[link_idx].addr };
                agent.on_link_drop(now, link, &d);
            }
        }
        // A busy link is woken when its wire frees, by the one `TransmitDone`
        // queued for it; a free one sends at once.
        let state = &mut self.links[link_idx];
        if now < state.busy_until && !state.wake_pending {
            state.wake_pending = true;
            self.events.push(state.busy_until, EventKind::TransmitDone { link: link_idx });
        } else {
            self.try_transmit(link_idx);
        }
    }

    /// Ask a free link's queue for the next packet; if the queue has
    /// packets but withholds them (strict caps), poll again shortly. The one
    /// guard every caller relies on: a link that is down, still serializing
    /// or about to be woken sends nothing, so a poll, a restore or an enqueue
    /// on the nanosecond of a pending wake never puts two packets on a wire.
    pub(super) fn try_transmit(&mut self, link_idx: usize) {
        let now = self.now;
        let state = &self.links[link_idx];
        if self.link_down[link_idx] || state.wake_pending || now < state.busy_until {
            return;
        }
        match self.links[link_idx].queue.disc().dequeue(now) {
            Some(pkt) => self.start_transmission(link_idx, pkt),
            None => {
                if self.links[link_idx].queue.len_pkts() > 0 && !self.links[link_idx].poll_pending {
                    self.links[link_idx].poll_pending = true;
                    let at = now.saturating_add(LINK_POLL_INTERVAL);
                    self.schedule(at, EventKind::LinkPoll { link: link_idx });
                }
            }
        }
    }

    fn start_transmission(&mut self, link_idx: usize, mut pkt: Packet) {
        let spec = self.net.links[link_idx];
        let owner = spec.from;
        if let Some(agent) = agent_at(&mut self.deployment.routers, owner) {
            agent.on_link_dequeue(self.now, LinkRef { index: link_idx, addr: spec.addr }, &mut pkt);
        }
        self.metrics.record_tx(link_idx, pkt.size as u64);
        self.metrics.profile.dequeues += 1;
        self.trace_hop(pkt.id, pkt.flow, owner, Some(link_idx), HopStage::Dequeue, None);
        let done = self.now.saturating_add(transmission_time(pkt.size, spec.capacity));
        let state = &mut self.links[link_idx];
        debug_assert!(self.now >= state.busy_until, "two packets on one wire");
        debug_assert!(!state.wake_pending, "two wakes pending on one link");
        state.busy_until = done;
        state.on_wire = pkt.id;
        // A completion is queued only if something is waiting for the wire;
        // the arrival is queued now (the packet moves once, into its event).
        state.wake_pending = state.queue.len_pkts() > 0;
        if state.wake_pending {
            self.schedule(done, EventKind::TransmitDone { link: link_idx });
        }
        self.schedule(done.saturating_add(spec.delay), EventKind::Arrive { node: spec.to, pkt });
    }
}
