//! Cross-commit pins on what each queue discipline serves, and in what order.
//!
//! `tests/queue_conservation.rs` proves that no discipline loses or
//! duplicates a packet, which any scheduling order passes. These constants
//! pin the order itself: for each of the six disciplines and three fixed
//! scripts of offers and dequeues, FNV-1a over the `(id, size)` of every
//! packet `dequeue` returns, then of every packet the final `drain` returns.
//! They were computed on the commit before the change they guard. A refactor
//! of a discipline must leave its row alone; a change that means to move one
//! says why in CHANGES.md.

use netfence::sim::prelude::{
    ChannelClass, Classifier, DropTail, DrrQueue, DualChannelQueue, HierDrrQueue, Packet,
    PriorityLevelQueue, QueueDisc, RedQueue, MILLI,
};

/// The six disciplines, with limits a few dozen offers overflow.
fn disciplines() -> [(&'static str, Box<dyn QueueDisc>); 6] {
    [
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
                Box::new(PriorityLevelQueue::new(3_000)),
                4_500,
                500_000,
                0.05,
            )),
        ),
    ]
}

/// `(generator seed, offers out of every 8 steps)`: an overload, a
/// balanced mix and a light load. Each script is 600 steps, 1 ms apart.
const SCRIPTS: [(u64, u64); 3] = [(1, 6), (2, 4), (3, 3)];

fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fold(h: u64, pkt: &Packet) -> u64 {
    fnv(fnv(h, pkt.id), pkt.size as u64)
}

fn served(q: &mut dyn QueueDisc, (seed, offers_in_8): (u64, u64)) -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut id = 0;
    let mut now = 0;
    for step in 0..600u64 {
        now = step * MILLI;
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state;
        if r % 8 < offers_in_8 {
            id += 1;
            let src = 1 + (r >> 8) % 6;
            let size = [64, 92, 700, 1500][((r >> 12) % 4) as usize];
            let mut pkt = Packet::udp(0, src as u32, 900 + (r >> 16) as u32 % 3, size, now);
            pkt.id = id;
            pkt.src_as = 1 + (src % 3) as u32;
            pkt.channel = [
                ChannelClass::Regular,
                ChannelClass::Regular,
                ChannelClass::Request,
                ChannelClass::Legacy,
            ][((r >> 20) % 4) as usize];
            pkt.priority = ((r >> 24) % 4) as u8;
            q.enqueue(now, pkt);
        } else if let Some(pkt) = q.dequeue(now) {
            h = fold(h, &pkt);
        }
    }
    q.drain(now).iter().fold(h, fold)
}

#[test]
fn every_discipline_serves_the_pinned_order() {
    let pins: [(&str, [u64; 3]); 6] = [
        ("DropTail", [0x2d1e_b72c_02cb_71ae, 0x7640_ca7b_8c49_ab50, 0x319b_1dad_77f8_aeab]),
        ("RedQueue", [0x7425_7437_0a0a_dc80, 0x32fa_8305_4d76_ecd8, 0x319b_1dad_77f8_aeab]),
        ("DrrQueue", [0x106d_11e3_26db_738d, 0x18e8_76ad_1db9_8237, 0xa179_2271_3422_88d3]),
        ("HierDrrQueue", [0xd017_566b_8e51_397f, 0xe8f7_15b8_ce5e_6771, 0x3414_9c3b_5557_6d2f]),
        (
            "PriorityLevelQueue",
            [0x2639_8bfe_9a71_9e55, 0x02ae_9a00_9b2d_0e1d, 0x9258_42c2_2a9d_f490],
        ),
        ("DualChannelQueue", [0xef21_c109_dd7b_8e7e, 0x4e82_aee9_5e7c_ac54, 0xdfd6_10d5_b1df_07bc]),
    ];
    // A fresh queue per script: RED's average, DRR deficits and the
    // request channel's tokens start from zero each time.
    let mut got = disciplines().map(|(name, _)| (name, [0; 3]));
    for (k, script) in SCRIPTS.into_iter().enumerate() {
        for ((_, row), (_, mut q)) in got.iter_mut().zip(disciplines()) {
            row[k] = served(q.as_mut(), script);
        }
    }
    assert_eq!(got, pins, "a discipline serves another order than the one pinned; got {got:#x?}");
}
