//! The link transmitter's timing model, checked to the nanosecond.
//!
//! A link serializes one packet at a time in FIFO order, and a packet
//! arrives `delay` after its last bit is out:
//! `start_k = max(enqueue_k, done_{k-1})`, `done_k = start_k + ser_k`,
//! `arrive_k = done_k + delay`, hop after hop. The engine queues a
//! completion event only for a wire something is waiting for, so these
//! equations — not the event sequence — are the contract: the property test
//! holds every delivery to them and the link events to the number of packets
//! that actually had to wait. The named cases are the coincidences
//! and faults a random script will not hit.
//!
//! Those runs plan a boxed FIFO on every link. The topology's *default*
//! FIFO sits inline in the engine, where a free link with nothing queued
//! transmits straight through instead of enqueue-then-dequeue; the
//! differential tests hold it to the planned path, hop for hop.

use netfence::sim::prelude::*;
use netfence::sim::time::transmission_time;
use netfence::sim::topology::LinkSpec;
use proptest::collection::vec;
use proptest::proptest;

const SRC: HostAddr = 0x0a00_0001;
/// A second sender on the first router, behind a 1 ns/byte zero-delay link:
/// a packet it sends at `t` reaches the router at `t + size`.
const SRC2: HostAddr = 0x0a00_0002;
const DST: HostAddr = 0x0b00_0001;

/// 1 ns per byte.
const FAST: u64 = 8_000_000_000;
/// 1 µs per byte: a 1000-byte packet serializes in exactly 1 ms.
const SLOW: u64 = 8_000_000;

/// `(send time, size, channel)`.
type Send = (Nanos, usize, ChannelClass);

/// Injects its scripted packets and logs every delivery in `completions` as
/// `(sent, delivered, size)`.
#[derive(Debug)]
struct Script {
    id: FlowId,
    src: HostAddr,
    sends: Vec<Send>,
    progress: FlowProgress,
}

impl Flow for Script {
    fn start(&mut self, _now: Nanos, out: &mut FlowActions) {
        // One timer per packet, armed in script order: same-instant sends
        // fire in that order.
        out.timers.extend(self.sends.iter().enumerate().map(|(k, send)| (send.0, k as u64)));
    }
    fn on_timer(&mut self, now: Nanos, token: u64, out: &mut FlowActions) {
        let (_, size, channel) = self.sends[token as usize];
        let mut pkt = Packet::udp(self.id, self.src, DST, size, now);
        pkt.channel = channel;
        out.packets.push(pkt);
    }
    fn on_packet(&mut self, now: Nanos, pkt: &Packet, _at: HostAddr, _out: &mut FlowActions) {
        self.progress.completions.push((pkt.created_at, now, pkt.size as u64));
    }
    fn progress(&self) -> &FlowProgress {
        &self.progress
    }
}

fn script(sim: &mut Simulator, src: HostAddr, sends: Vec<Send>) -> FlowId {
    sim.add_flow(0, |id| Box::new(Script { id, src, sends, progress: FlowProgress::default() }))
}

fn regular(sends: &[(Nanos, usize)]) -> Vec<Send> {
    sends.iter().map(|&(at, size)| (at, size, ChannelClass::Regular)).collect()
}

/// `SRC — r1 — … — rN — DST` with one `(capacity, delay)` per hop: the first
/// is SRC's access link, the last DST's, the others join consecutive
/// routers (a host always sits behind an access link, so the shortest chain
/// has two hops). Returns the network and the link index of every hop.
fn chain(hops: &[(u64, Nanos)]) -> (Network, Vec<usize>) {
    let mut b = Network::builder();
    let routers: Vec<NodeId> = (1..hops.len()).map(|i| b.router(i as u32, i == 1)).collect();
    for (i, pair) in routers.windows(2).enumerate() {
        let (bps, delay) = hops[i + 1];
        b.duplex(pair[0], pair[1], bps, delay, QueueKind::DropTail);
    }
    let (first, last) = (hops[0], hops[hops.len() - 1]);
    b.host(SRC, 1, routers[0], first.0, first.1);
    b.host(SRC2, 1, routers[0], FAST, 0);
    b.host(DST, routers.len() as u32, routers[routers.len() - 1], last.0, last.1);
    let net = b.build();
    let mut path = Vec::new();
    let mut node = net.host_node(SRC);
    while node != net.host_node(DST) {
        let link = net.next_hop(node, DST).expect("the chain is connected");
        path.push(link);
        node = net.links[link].to;
    }
    assert_eq!(path.len(), hops.len());
    (net, path)
}

/// A simulator over `net` that traces every packet and gives every link a
/// bottomless FIFO, except `custom`'s.
fn simulator(
    net: Network,
    end_time: Nanos,
    mut custom: Option<(usize, Box<dyn QueueDisc>)>,
) -> Simulator {
    planned_simulator(net, end_time, |link, _| match custom.take_if(|(at, _)| *at == link) {
        Some((_, queue)) => Some(queue),
        None => Some(Box::new(DropTail::new(usize::MAX))),
    })
}

fn planned_simulator(
    net: Network,
    end_time: Nanos,
    mut queue_for: impl FnMut(usize, &LinkSpec) -> Option<Box<dyn QueueDisc>>,
) -> Simulator {
    let mut plan = Deployment::builder(&net, "chain");
    for (link, spec) in net.links.iter().enumerate() {
        if let Some(queue) = queue_for(link, spec) {
            plan.queue(link, queue);
        }
    }
    let deployment = plan.build();
    let cfg = SimConfig {
        end_time,
        defense_tick: 0,
        telemetry: TelemetryConfig::full(0),
        ..SimConfig::default()
    };
    Simulator::new(net, deployment, cfg)
}

/// The closed form. Returns every packet's delivery time and how many
/// (packet, hop) pairs found the wire still busy.
fn model(hops: &[(u64, Nanos)], sends: &[(Nanos, usize)]) -> (Vec<Nanos>, u64) {
    let mut at: Vec<Nanos> = sends.iter().map(|send| send.0).collect();
    let mut found_busy = 0;
    for &(bps, delay) in hops {
        let mut done = 0;
        for (t, &(_, size)) in at.iter_mut().zip(sends) {
            found_busy += u64::from(*t < done);
            done = (*t).max(done) + transmission_time(size, bps);
            *t = done + delay;
        }
    }
    (at, found_busy)
}

/// Run `sends` (sorted by time) down the chain; every delivery must match
/// the model. Returns `(link events, packets that found a wire busy)`.
fn check_against_model(hops: &[(u64, Nanos)], sends: &[(Nanos, usize)]) -> (u64, u64) {
    let (expected, found_busy) = model(hops, sends);
    let (net, _) = chain(hops);
    let end_time = expected.iter().copied().max().unwrap_or(0);
    let mut sim = simulator(net, end_time, None);
    let flow = script(&mut sim, SRC, regular(sends));
    sim.run();
    let expected: Vec<_> =
        sends.iter().zip(expected).map(|(&(sent, size), at)| (sent, at, size as u64)).collect();
    assert_eq!(sim.progress(flow).completions, expected, "hops {hops:?}");
    assert_eq!(sim.metrics.total_drop_pkts(), 0);
    (sim.metrics.profile.link_events, found_busy)
}

/// `(packet id, time)` of every dequeue on `link`. Ids count injections
/// from 1.
fn dequeues(sim: &Simulator, link: usize) -> Vec<(u64, Nanos)> {
    sim.flight
        .events()
        .filter(|e| e.stage == HopStage::Dequeue && e.link == Some(link as u32))
        .map(|e| (e.pkt, e.at))
        .collect()
}

fn delivered_at(sim: &Simulator, flow: FlowId) -> Vec<Nanos> {
    sim.progress(flow).completions.iter().map(|c| c.1).collect()
}

/// Everything a run shows: every hop of every packet in order, every
/// delivery, the engine's counters and the drop total.
type Observed = (Vec<HopEvent>, Vec<(Nanos, Nanos, u64)>, EngineProfile, u64);

/// Run `sends` down the chain on the two forms of the topology's default
/// FIFO (finite: a burst overflows it) — inline in the engine, nothing
/// planned, and a boxed `DropTail` of the same limit planned over every link,
/// which never transmits straight through. The runs must be indistinguishable.
fn inline_matches_planned(
    hops: &[(u64, Nanos)],
    sends: &[(Nanos, usize)],
    faults: &[(Nanos, usize, bool)],
) -> Observed {
    let run = |planned: bool| {
        let (net, path) = chain(hops);
        let end_time = sends.last().map_or(0, |s| s.0) + SEC;
        let mut sim = planned_simulator(net, end_time, |_, spec| {
            planned.then(|| Box::new(DropTail::for_capacity(spec.capacity)) as Box<dyn QueueDisc>)
        });
        let flow = script(&mut sim, SRC, regular(sends));
        for &(at, hop, up) in faults {
            let link = path[hop];
            let action =
                if up { FaultAction::LinkUp { link } } else { FaultAction::LinkDown { link } };
            sim.schedule_fault(at, action);
        }
        sim.run();
        let hops = sim.flight.events().copied().collect();
        let delivered = sim.progress(flow).completions.clone();
        (hops, delivered, sim.metrics.profile, sim.metrics.total_drop_pkts())
    };
    let (inline, planned) = (run(false), run(true));
    assert_eq!(inline, planned, "hops {hops:?}, sends {sends:?}, faults {faults:?}");
    inline
}

const CAPACITIES: [u64; 4] = [2_000_000, 10_000_000, 100_000_000, FAST];
const DELAYS: [Nanos; 5] = [0, 1, 1_000, MILLI, 3_141_593];

proptest! {
    /// Two- to four-hop chains, packets of 1–1500 bytes sent at once, exactly
    /// back to back on the first hop, or up to 3 ms apart (a 1500-byte
    /// packet takes 6 ms, 1.2 ms, 0.12 ms or 1.5 µs to serialize).
    #[test]
    fn deliveries_follow_the_fifo_recurrence(
        hops in vec((0usize..4, 0usize..5), 2..5),
        gaps in vec((0u8..4, 0u64..3_000_000, 1usize..1501), 1..60),
    ) {
        let hops: Vec<_> = hops.iter().map(|&(c, d)| (CAPACITIES[c], DELAYS[d])).collect();
        let mut now = 0;
        let mut previous = 0;
        let mut sends = Vec::with_capacity(gaps.len());
        for &(shape, gap, size) in &gaps {
            now += match shape {
                0 => 0,
                1 => transmission_time(previous, hops[0].0),
                _ => gap,
            };
            sends.push((now, size));
            previous = size;
        }
        let (link_events, found_busy) = check_against_model(&hops, &sends);
        // No packet is empty here, so a wire is woken once per packet that
        // waited for it and never for one that did not.
        assert_eq!(link_events, found_busy);
        inline_matches_planned(&hops, &sends, &[]);
    }
}

#[test]
fn zero_size_packets_and_zero_delay_links() {
    // Everything below happens on two instants; only push order separates
    // the events. An empty packet frees its wire the instant it takes it, so
    // the wait count is not a bound here — the delivery times still are.
    let sends = [
        (0, 0),
        (0, 0),
        (0, 1000),
        (0, 0),
        (0, 500),
        (MILLI, 0),
        (MILLI, 700),
        (MILLI, 0),
        (MILLI, 0),
    ];
    for hops in [
        &[(SLOW, 0), (SLOW, 0)][..],
        &[(SLOW, 0), (FAST, 0), (SLOW, 0)],
        &[(FAST, 0), (SLOW, 0), (SLOW, MILLI), (FAST, 0)],
    ] {
        check_against_model(hops, &sends);
        inline_matches_planned(hops, &sends, &[]);
    }
}

#[test]
fn a_straight_through_packet_is_traced_and_counted_as_queued() {
    // One packet, three idle links: nothing ever waits, yet every hop shows
    // an enqueue and then a dequeue at the same instant, and both counters
    // move.
    let (hops, delivered, profile, _) =
        inline_matches_planned(&[(SLOW, MILLI), (SLOW, MILLI), (FAST, 0)], &[(0, 1000)], &[]);
    let stages: Vec<_> =
        hops.iter().filter(|e| e.link.is_some()).map(|e| (e.stage, e.at)).collect();
    let hop = |at| [(HopStage::Enqueue, at), (HopStage::Dequeue, at)];
    assert_eq!(stages, [hop(0), hop(2 * MILLI), hop(4 * MILLI)].concat());
    assert_eq!(delivered, [(0, 4_001_000, 1000)]);
    assert_eq!((profile.enqueues, profile.dequeues, profile.link_events), (3, 3, 0));
}

#[test]
fn an_arrival_on_the_nanosecond_of_a_wake_with_no_backlog_left_waits_for_it() {
    // Packet 1 holds the middle wire over 2.001–3.001 ms; packet 2 queues
    // behind it at 2.101 ms, so a wake is pending for 3.001 ms. A cut at
    // 2.5 ms takes packet 2; the restore at 2.6 ms saves packet 1. Packet 3's
    // arrival at exactly 3.001 ms was queued at 1 ms, ahead of the wake: it
    // finds the link free and the FIFO empty but must not start a second
    // transmission under the pending wake — the wake sends it.
    let hops = [(FAST, 2 * MILLI), (SLOW, 0), (FAST, 0)];
    let sends = [(0, 1000), (100_000, 1000), (MILLI, 1000)];
    let (trace, delivered, profile, drops) =
        inline_matches_planned(&hops, &sends, &[(2_500_000, 1, false), (2_600_000, 1, true)]);
    assert_eq!(delivered, [(0, 3_002_000, 1000), (MILLI, 4_002_000, 1000)]);
    assert_eq!((drops, profile.link_events), (1, 1));
    let third: Vec<_> =
        trace.iter().filter(|e| e.stage == HopStage::Dequeue && e.pkt == 3).map(|e| e.at).collect();
    assert_eq!(third, [MILLI, 3_001_000, 4_001_000]);
}

#[test]
fn a_cut_mid_serialization_of_a_straight_through_packet_loses_it() {
    // As below, on default FIFOs: packet 1 went straight onto the middle
    // wire (0.001–1.001 ms) and the link still knows it is there.
    let hops = [(FAST, 0), (SLOW, 10 * MILLI), (FAST, 0)];
    let sends = [(0, 1000), (2 * MILLI, 1000)];
    let (trace, delivered, _, drops) =
        inline_matches_planned(&hops, &sends, &[(500_000, 1, false), (1_500_000, 1, true)]);
    assert_eq!(delivered, [(2 * MILLI, 13_002_000, 1000)]);
    let lost: Vec<_> = trace.iter().filter(|e| e.stage == HopStage::Drop).collect();
    assert_eq!(lost.len(), 1);
    assert_eq!(
        (lost[0].pkt, lost[0].at, lost[0].cause),
        (1, 11_001_000, Some(DropCause::LinkDown))
    );
    assert_eq!(drops, 1);
    // Restored before the last bit is out: nothing is lost.
    let (_, delivered, _, drops) =
        inline_matches_planned(&hops, &sends, &[(300_000, 1, false), (600_000, 1, true)]);
    assert_eq!(delivered, [(0, 11_002_000, 1000), (2 * MILLI, 13_002_000, 1000)]);
    assert_eq!(drops, 0);
}

#[test]
fn a_poll_on_the_nanosecond_of_a_pending_wake_transmits_once() {
    let (net, path) = chain(&[(FAST, 0), (SLOW, 0), (FAST, 0)]);
    let middle = path[1];
    // Request channel capped at zero rate: its 24 000-bit burst pays for two
    // 1500-byte packets, the third is withheld for good.
    let capped = DualChannelQueue::new(
        Box::new(DropTail::new(usize::MAX)),
        Box::new(DropTail::new(usize::MAX)),
        usize::MAX,
        SLOW,
        0.0,
    );
    let mut sim = simulator(net, 8 * MILLI, Some((middle, Box::new(capped))));
    let request = ChannelClass::Request;
    let flow = script(
        &mut sim,
        SRC,
        vec![
            // Packets 1 and 2 reach the middle link at 0.0015 and 2.0015 ms
            // and spend the tokens.
            (0, 1500, request),
            (2 * MILLI, 1500, request),
            // Packet 3, at 4.0015 ms, is withheld: poll armed for 6.0015 ms.
            (4 * MILLI, 1500, request),
            // Packet 4 (regular) takes the free wire at 5.0015 ms; packet 3
            // is the backlog, so a wake is queued for 6.0015 ms too.
            (5 * MILLI + 500, 1000, ChannelClass::Regular),
            // Packet 5 waits behind it.
            (5 * MILLI + 500_500, 1000, ChannelClass::Regular),
        ],
    );
    sim.run();
    // Poll and wake both pop at 6.0015 ms, the poll first; packet 5 goes out
    // then, once.
    assert_eq!(
        dequeues(&sim, middle),
        [(1, 1_500), (2, 2_001_500), (4, 5_001_500), (5, 6_001_500)]
    );
    assert_eq!(delivered_at(&sim, flow), [1_503_000, 3_503_000, 6_002_500, 7_002_500]);
    // The poll and the wake at 6.0015 ms, and the wake after packet 5 that
    // finds packet 3 still withheld.
    assert_eq!(sim.metrics.profile.link_events, 3);
    assert_eq!(sim.metrics.total_drop_pkts(), 0);
    assert_eq!(sim.into_in_network(), 1);
}

#[test]
fn a_restore_on_the_nanosecond_of_a_pending_wake_transmits_once() {
    let (net, path) = chain(&[(SLOW, MILLI), (SLOW, MILLI), (FAST, 0)]);
    let middle = path[1];
    let mut sim = simulator(net, 10 * MILLI, None);
    // Packets 1 and 2 leave SRC back to back: 1 reaches the middle link at
    // 2 ms and holds its wire until 3 ms; 2 reaches it at exactly 3 ms, and
    // its arrival was queued at 1 ms — before anything below.
    let flow = script(&mut sim, SRC, regular(&[(0, 1000), (0, 1000)]));
    // Packet 3 finds the wire busy at 2.401 ms: a wake is queued for 3 ms.
    let other = script(&mut sim, SRC2, regular(&[(2_400_000, 1000)]));
    // The cut takes packet 3 from the queue and packet 1 off the wire; the
    // restore lands on the instant packet 1's last bit is out, the pending
    // wake fires and packet 2 arrives.
    sim.schedule_fault(2_600_000, FaultAction::LinkDown { link: middle });
    sim.schedule_fault(3 * MILLI, FaultAction::LinkUp { link: middle });
    sim.run();
    assert_eq!(dequeues(&sim, middle), [(1, 2 * MILLI), (2, 3 * MILLI)]);
    // Restored by completion: packet 1 is delivered after all.
    assert_eq!(delivered_at(&sim, flow), [4_001_000, 5_001_000]);
    assert!(delivered_at(&sim, other).is_empty());
    let drops = sim.metrics.drops.total();
    assert_eq!((drops.get(DropCause::LinkDown), drops.total()), (1, 1));
    assert_eq!(sim.into_in_network(), 0);
}

#[test]
fn a_cut_mid_serialization_loses_exactly_that_packet() {
    // Packet 1 is on the 10 ms-long middle link's wire over 0.001–1.001 ms,
    // packet 2 over 2.001–3.001 ms.
    let run = |faults: &[(Nanos, bool)]| {
        let (net, path) = chain(&[(FAST, 0), (SLOW, 10 * MILLI), (FAST, 0)]);
        let mut sim = simulator(net, 20 * MILLI, None);
        let flow = script(&mut sim, SRC, regular(&[(0, 1000), (2 * MILLI, 1000)]));
        for &(at, up) in faults {
            let link = path[1];
            let action =
                if up { FaultAction::LinkUp { link } } else { FaultAction::LinkDown { link } };
            sim.schedule_fault(at, action);
        }
        sim.run();
        let lost: Vec<_> = sim
            .flight
            .events()
            .filter(|e| e.stage == HopStage::Drop)
            .map(|e| (e.pkt, e.at, e.cause, e.link))
            .collect();
        assert_eq!(sim.metrics.total_drop_pkts(), lost.len() as u64);
        (delivered_at(&sim, flow), lost)
    };
    let untouched = [11_002_000, 13_002_000];
    assert_eq!(run(&[]), (untouched.to_vec(), vec![]));
    // Cut and not restored before the last bit is out: packet 1 is lost on
    // that link, recorded when it would have arrived; packet 2 is not.
    let (delivered, lost) = run(&[(500_000, false), (1_500_000, true)]);
    assert_eq!(delivered, untouched[1..]);
    assert_eq!(lost.len(), 1);
    let (pkt, at, cause, link) = lost[0];
    assert_eq!((pkt, at, cause), (1, 11_001_000, Some(DropCause::LinkDown)));
    assert!(link.is_some());
    // Restored mid-serialization: nothing is lost, nothing is late.
    assert_eq!(run(&[(300_000, false), (600_000, true)]), (untouched.to_vec(), vec![]));
    // Packet 1 cut for good, packet 2 cut and restored in time while packet
    // 1's arrival is still pending: the restore saves only packet 2.
    let (delivered, lost) =
        run(&[(500_000, false), (1_500_000, true), (2_500_000, false), (2_800_000, true)]);
    assert_eq!(delivered, untouched[1..]);
    assert_eq!(lost.iter().map(|l| l.0).collect::<Vec<_>>(), [1]);
}
