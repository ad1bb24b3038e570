//! Packet and byte conservation across every queue discipline.
//!
//! `QueueDisc::enqueue` hands back at most one packet — the offered one or a
//! queued one it displaced — and the engine accounts for drops from that
//! return value alone. So for any interleaving of offers and dequeues, on
//! every discipline: a packet is either still queued, was returned by
//! `enqueue`, or was dequeued, exactly once; the discipline's own
//! `len_pkts`/`len_bytes` agree with that ledger after every call; and a
//! call that returns a packet never also reports the queue as having grown.
//! A queue bounded in bytes holds no more than its bound after any call.

use std::collections::BTreeSet;

use netfence::sim::prelude::{
    ChannelClass, Classifier, DropTail, DrrQueue, DualChannelQueue, HierDrrQueue, Packet,
    PriorityLevelQueue, QueueDisc, RedQueue,
};
use proptest::collection::vec;
use proptest::proptest;

/// The six disciplines, with limits small enough that a few dozen offers
/// overflow them.
fn disciplines() -> Vec<(&'static str, Box<dyn QueueDisc>)> {
    vec![
        ("DropTail", Box::new(DropTail::new(9_000))),
        ("RedQueue", Box::new(RedQueue::for_capacity(500_000, 7))),
        ("DrrQueue", Box::new(DrrQueue::new(Classifier::BySource, 1500, 4_000))),
        ("HierDrrQueue", Box::new(HierDrrQueue::new(1500, 4_000))),
        ("PriorityLevelQueue", Box::new(PriorityLevelQueue::new(6_000))),
        (
            // As `NetFenceDefense` deploys it: RED regular channel, priority
            // request channel, drop-tail legacy channel.
            "DualChannelQueue",
            Box::new(DualChannelQueue::new(
                Box::new(RedQueue::for_capacity(500_000, 7)),
                Box::new(PriorityLevelQueue::new(1_000)),
                3_000,
                500_000,
                0.05,
            )),
        ),
    ]
}

/// Where every offered packet id ended up, and the byte totals.
#[derive(Default)]
struct Ledger {
    queued: BTreeSet<u64>,
    queued_bytes: usize,
    gone: BTreeSet<u64>,
}

impl Ledger {
    fn leave(&mut self, name: &str, how: &str, pkt: &Packet) {
        assert!(self.queued.remove(&pkt.id), "{name}: {how} packet {} was not queued", pkt.id);
        assert!(self.gone.insert(pkt.id), "{name}: packet {} left twice", pkt.id);
        self.queued_bytes -= pkt.size;
    }

    fn agrees_with(&self, name: &str, q: &dyn QueueDisc) {
        assert_eq!(q.len_pkts(), self.queued.len(), "{name}: len_pkts");
        assert_eq!(q.len_bytes(), self.queued_bytes, "{name}: len_bytes");
        assert_eq!(q.is_empty(), self.queued.is_empty(), "{name}: is_empty");
    }
}

/// The packet offered by step `(op, src, shape)` of a drawn script (only
/// `op < 5` offers; the rest dequeue): 64–1 500 bytes, three source ASes,
/// priority levels 0–3, all three channels.
fn drawn(id: u64, (op, src, shape): (u8, u32, u8), now: u64) -> Packet {
    let mut pkt = Packet::udp(0, src, 999, [64, 92, 700, 1500][usize::from(shape % 4)], now);
    pkt.id = id;
    pkt.src_as = 1 + src % 3;
    pkt.priority = shape / 4;
    pkt.channel = match op {
        0..=2 => ChannelClass::Regular,
        3 => ChannelClass::Request,
        _ => ChannelClass::Legacy,
    };
    pkt
}

proptest! {
    #[test]
    fn offered_equals_queued_plus_dropped_plus_served(
        ops in vec(((0u8..8, 0u32..12), (0u8..16, 0u64..4)), 1..300),
    ) {
        for (name, mut q) in disciplines() {
            let mut ledger = Ledger::default();
            let mut now = 0u64;
            let mut offered = 0u64;
            for &((op, src), (shape, step)) in &ops {
                // Up to 3 ms between calls: enough for the request
                // channel's token bucket to matter both ways.
                now += step * 1_000_000;
                if op < 5 {
                    offered += 1;
                    let pkt = drawn(offered, (op, src, shape), now);
                    let (id, size) = (pkt.id, pkt.size);
                    let pkts_before = q.len_pkts();
                    ledger.queued.insert(id);
                    ledger.queued_bytes += size;
                    match q.enqueue(now, pkt) {
                        Some(dropped) => {
                            ledger.leave(name, "returned", &dropped);
                            assert_eq!(q.len_pkts(), pkts_before, "{name}: dropped yet grew");
                        }
                        None => assert_eq!(q.len_pkts(), pkts_before + 1, "{name}: kept yet did not grow"),
                    }
                } else if let Some(pkt) = q.dequeue(now) {
                    ledger.leave(name, "dequeued", &pkt);
                }
                ledger.agrees_with(name, q.as_ref());
            }
            // What is left comes out of `drain`, once each.
            for pkt in q.drain(now) {
                ledger.leave(name, "drained", &pkt);
            }
            ledger.agrees_with(name, q.as_ref());
            assert!(ledger.queued.is_empty(), "{name}: drain left {:?} behind", ledger.queued);
            assert_eq!(ledger.gone.len() as u64, offered, "{name}: every offer accounted for");
        }
    }
}

proptest! {
    #[test]
    fn byte_bounded_queues_never_exceed_their_limit(
        ops in vec(((0u8..8, 0u32..12), (0u8..16, 0u64..4)), 1..300),
    ) {
        let bounded: [(&str, usize, Box<dyn QueueDisc>); 2] = [
            ("DropTail", 9_000, Box::new(DropTail::new(9_000))),
            ("PriorityLevelQueue", 6_000, Box::new(PriorityLevelQueue::new(6_000))),
        ];
        for (name, limit, mut q) in bounded {
            let mut now = 0u64;
            for (id, &((op, src), (shape, step))) in ops.iter().enumerate() {
                now += step * 1_000_000;
                if op < 5 {
                    q.enqueue(now, drawn(id as u64, (op, src, shape), now));
                } else {
                    q.dequeue(now);
                }
                assert!(q.len_bytes() <= limit, "{name}: {} bytes queued, limit {limit}", q.len_bytes());
            }
        }
    }
}
