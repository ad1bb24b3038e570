//! The idle edge's contract.
//!
//! A link with the topology's default FIFO keeps it inline in the engine,
//! and when the link is free and the FIFO empty a packet goes straight onto
//! the wire. That is sound only because, on a plain FIFO in that state,
//! enqueue-then-dequeue is the identity — the property below — and only if
//! no other discipline is ever skipped: a planned queue sees every packet.
//! Whole cells then run twice, on inline FIFOs and on boxed `DropTail`s of
//! the same limits planned over every one of them, and must produce the same
//! `Record` down to the engine's event counts. (`tests/link_timing.rs` does
//! the same hop by hop on scripted chains.)

use std::cell::Cell;
use std::rc::Rc;

use netfence::experiments::chaos::{self, ChaosFault, ChaosPoint, ChaosTopology, Severity};
use netfence::experiments::fig8::fig8_spec;
use netfence::experiments::prelude::*;
use netfence::experiments::registry::Size;
use netfence::sim::prelude::*;
use proptest::collection::vec;
use proptest::proptest;

fn packet(id: u64, size: usize) -> Packet {
    let mut pkt = Packet::udp(0, 1, 2, size, 0);
    pkt.id = id;
    pkt
}

proptest! {
    #[test]
    fn straight_through_means_enqueue_then_dequeue_is_the_identity(
        limit in 0usize..6_000,
        backlog in vec(0usize..1_501, 0..4),
        served in 0usize..5,
        size in 0usize..3_001,
    ) {
        let mut q = DropTail::new(limit);
        for (id, &bytes) in backlog.iter().enumerate() {
            q.enqueue(0, packet(id as u64, bytes));
        }
        for _ in 0..served {
            q.dequeue(0);
        }
        let before = (q.len_pkts(), q.len_bytes());
        let pkt = packet(77, size);
        let holds = q.passes_straight_through(&pkt);
        assert_eq!(holds, before.0 == 0 && size <= limit, "limit {limit}, queued {before:?}");
        if holds {
            assert!(q.enqueue(0, pkt).is_none());
            let back = q.dequeue(0).expect("the packet just queued");
            assert_eq!((back.id, back.size), (77, size));
            assert_eq!((q.len_pkts(), q.len_bytes()), before);
        }
    }
}

#[test]
fn a_queue_of_empty_packets_is_not_empty() {
    let mut q = DropTail::new(1_000);
    assert!(q.passes_straight_through(&packet(1, 1_000)));
    assert!(!q.passes_straight_through(&packet(1, 1_001)));
    assert!(q.enqueue(0, packet(1, 0)).is_none());
    // Zero bytes queued, one packet ahead.
    assert_eq!(q.len_bytes(), 0);
    assert!(!q.passes_straight_through(&packet(2, 100)));
}

/// Counts the calls that move a packet into and out of the queue it wraps.
#[derive(Debug)]
struct Spy {
    inner: Box<dyn QueueDisc>,
    /// `(enqueue calls, packets dequeued)` over every spy of one run.
    seen: Rc<Cell<(u64, u64)>>,
}

impl QueueDisc for Spy {
    fn enqueue(&mut self, now: Nanos, pkt: Packet) -> Option<Packet> {
        let (offered, served) = self.seen.get();
        self.seen.set((offered + 1, served));
        self.inner.enqueue(now, pkt)
    }
    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        let pkt = self.inner.dequeue(now)?;
        let (offered, served) = self.seen.get();
        self.seen.set((offered, served + 1));
        Some(pkt)
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }
}

#[test]
fn a_planned_queue_sees_every_packet() {
    // A light load on idle links: every packet finds its link free and its
    // queue empty, whatever the discipline. Only the engine's own inline
    // FIFO may be skipped then — never a RED average, a request channel's
    // token bucket, a DRR deficit or a plain FIFO somebody planned. Both
    // flows cross all eight directed links, so all six disciplines carry.
    const A: HostAddr = 0x0a00_0001;
    const B: HostAddr = 0x0b00_0001;
    let mut b = Network::builder();
    let (r1, r2, r3) = (b.router(1, true), b.router(2, false), b.router(3, false));
    b.duplex(r1, r2, 10_000_000, MILLI, QueueKind::Red);
    b.duplex(r2, r3, 10_000_000, MILLI, QueueKind::DropTail);
    b.host(A, 1, r1, 100_000_000, MILLI);
    b.host(B, 3, r3, 100_000_000, MILLI);
    let net = b.build();

    let seen = Rc::new(Cell::new((0, 0)));
    let mut plan: DeploymentBuilder = Deployment::builder(&net, "spies");
    for (i, link) in net.links.iter().enumerate() {
        let inner: Box<dyn QueueDisc> = match i % 6 {
            0 => Box::new(DropTail::for_capacity(link.capacity)),
            1 => Box::new(RedQueue::for_capacity(link.capacity, 7)),
            2 => Box::new(DrrQueue::new(Classifier::BySource, 1500, 50_000)),
            3 => Box::new(HierDrrQueue::new(1500, 50_000)),
            4 => Box::new(PriorityLevelQueue::new(50_000)),
            _ => Box::new(DualChannelQueue::new(
                Box::new(RedQueue::for_capacity(link.capacity, 7)),
                Box::new(PriorityLevelQueue::new(5_000)),
                50_000,
                link.capacity,
                0.05,
            )),
        };
        plan.queue(i, Box::new(Spy { inner, seen: Rc::clone(&seen) }));
    }
    let deployment = plan.build();
    let cfg = SimConfig { end_time: SEC, ..SimConfig::default() };
    let mut sim = Simulator::new(net, deployment, cfg);
    let there = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, A, B, 1_000_000)));
    let back = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, B, A, 1_000_000)));
    sim.run();
    assert!(sim.progress(there).delivered_bytes > 100_000);
    assert!(sim.progress(back).delivered_bytes > 100_000);
    let profile = sim.metrics.profile;
    assert_eq!(profile.link_events, 0, "the load was meant to leave every link idle");
    assert_eq!(seen.get(), (profile.enqueues, profile.dequeues));
}

/// Plan a boxed `DropTail` of the default limit over every link that would
/// have got the inline one, keeping whatever the defense planned.
fn box_the_default_fifos(net: &Network, queues: &mut Vec<(usize, Box<dyn QueueDisc>)>) {
    let mut planned = std::mem::take(queues).into_iter().peekable();
    for (i, link) in net.links.iter().enumerate() {
        match planned.next_if(|(at, _)| *at == i) {
            Some(entry) => queues.push(entry),
            None if link.queue == QueueKind::DropTail => {
                queues.push((i, Box::new(DropTail::for_capacity(link.capacity))));
            }
            None => {}
        }
    }
}

fn inline_matches_planned(cell: &str, spec: ScenarioSpec) -> Record {
    let runner = Runner::new(spec);
    let inline = runner.run();
    let planned = runner.run_edited(box_the_default_fifos);
    assert!(inline.engine.dequeues > 10_000, "{cell}: {:?}", inline.engine);
    assert_eq!(inline, planned, "{cell}: inline FIFOs and planned FIFOs disagree");
    inline
}

#[test]
fn fig8_quick_cells_do_not_depend_on_where_the_fifo_lives() {
    // `None`: every link but the RED bottleneck has the default FIFO.
    // NetFence: the host links do, under shims and three-channel routers.
    for kind in [DefenseKind::None, DefenseKind::NetFence] {
        inline_matches_planned(kind.label(), fig8_spec(&Size::Quick.scale(), kind, 100_000));
    }
}

#[test]
fn a_link_failure_cell_does_not_depend_on_where_the_fifo_lives() {
    // An eight-second outage under load: routes are recomputed twice and
    // senders behind the dead link lose packets unrouted. (The cut that
    // catches a straight-through packet on the wire is scripted to the
    // nanosecond in `tests/link_timing.rs`; no quick cell happens to make
    // one.)
    let point = ChaosPoint {
        topology: ChaosTopology::Dumbbell,
        fault: ChaosFault::LinkFailure,
        severity: Severity::Severe,
    };
    let scale = Size::Quick.scale_for(25, 60);
    for kind in [DefenseKind::None, DefenseKind::NetFence] {
        let record = inline_matches_planned(kind.label(), chaos::chaos_spec(&scale, kind, &point));
        let unrouted = record.report.drop_budget.get(DropCause::NoRoute);
        assert!(unrouted > 0, "{}: the outage cut nobody off", kind.label());
    }
}
