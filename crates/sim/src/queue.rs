//! Queue disciplines for simulated links.
//!
//! The substrate provides the schedulers the NetFence evaluation needs:
//!
//! * [`DropTail`] — plain FIFO with a byte limit;
//! * [`RedQueue`] — Random Early Detection with the queue rows of the
//!   paper's Figure 3, whose one spelling is [`RedParams::paper_defaults`]
//!   (`Q_lim` itself is [`qlim_bytes`]);
//! * [`DrrQueue`] — Deficit Round Robin fair queuing \[38\] with a
//!   [`Classifier`] (per-sender or per-destination);
//! * [`HierDrrQueue`] — two-level hierarchical DRR (per source AS, then per
//!   source host) as used by TVA+ and StopIt for their request/fallback
//!   channels: the same [`Drr`] round, over per-AS `DrrQueue`s;
//! * [`PriorityLevelQueue`] — strict priority across request-packet levels;
//! * [`DualChannelQueue`] — the request/regular/legacy channel split of a
//!   NetFence or TVA+ router (Figure 2), with the request channel capped at
//!   a configurable fraction of the link.
//!
//! All disciplines implement [`QueueDisc`], so links can host any of them
//! and defense systems can compose them.

use std::collections::VecDeque;

use netfence_telemetry::IdMap;

use crate::packet::{ChannelClass, Packet};
use crate::time::Nanos;

/// A queue discipline attached to a link.
pub trait QueueDisc: std::fmt::Debug {
    /// Offer a packet. Returns the packet dropped as a consequence, if any:
    /// the offered packet itself when the queue is full, or a queued packet
    /// it displaced. No discipline drops more than one packet per offer.
    fn enqueue(&mut self, now: Nanos, pkt: Packet) -> Option<Packet>;
    /// Remove the next packet to transmit.
    fn dequeue(&mut self, now: Nanos) -> Option<Packet>;
    /// Total queued bytes.
    fn len_bytes(&self) -> usize;
    /// Total queued packets.
    fn len_pkts(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }

    /// Remove and return *every* queued packet (fault injection: a link
    /// that goes down loses its whole backlog at once). The default
    /// repeatedly dequeues, tolerating disciplines that withhold a packet
    /// for a few rounds (DRR deficit build-up) but giving up once the
    /// queue stops making progress; disciplines that can withhold
    /// indefinitely at a fixed instant (token-capped channels) override
    /// this with a direct sweep.
    fn drain(&mut self, now: Nanos) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut idle_rounds = 0usize;
        while self.len_pkts() > 0 && idle_rounds < 64 {
            match self.dequeue(now) {
                Some(p) => {
                    out.push(p);
                    idle_rounds = 0;
                }
                None => idle_rounds += 1,
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// A FIFO queue that drops arriving packets once `limit_bytes` is reached.
#[derive(Debug)]
pub struct DropTail {
    queue: VecDeque<Packet>,
    bytes: usize,
    limit_bytes: usize,
}

impl DropTail {
    /// Create a drop-tail queue bounded to `limit_bytes`.
    pub fn new(limit_bytes: usize) -> Self {
        DropTail { queue: VecDeque::new(), bytes: 0, limit_bytes }
    }

    /// The topology's default FIFO for a link of `capacity_bps`: 0.2 s of
    /// the link, at least ten full-size packets.
    pub fn for_capacity(capacity_bps: u64) -> Self {
        Self::new(((capacity_bps / 8) / 5).max(15_000) as usize)
    }

    /// Whether offering `pkt` and then dequeuing would hand back `pkt` and
    /// leave the queue as it is (it is empty and `pkt` fits): a free link
    /// may then put the packet on the wire without queueing it.
    pub fn passes_straight_through(&self, pkt: &Packet) -> bool {
        self.queue.is_empty() && pkt.size <= self.limit_bytes
    }
}

impl QueueDisc for DropTail {
    fn enqueue(&mut self, _now: Nanos, pkt: Packet) -> Option<Packet> {
        if self.bytes + pkt.size > self.limit_bytes {
            return Some(pkt);
        }
        self.bytes += pkt.size;
        self.queue.push_back(pkt);
        None
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size;
        Some(pkt)
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------------

/// `Q_lim` of Figure 3 in bytes: 0.2 s of a link of `capacity_bps`. Every
/// user applies its own floor. ([`DropTail::for_capacity`] spells the same
/// quantity in integers and rounds differently.)
pub fn qlim_bytes(capacity_bps: u64) -> usize {
    (capacity_bps as f64 * 0.2 / 8.0) as usize
}

/// Random Early Detection parameters.
#[derive(Debug, Clone, Copy)]
pub struct RedParams {
    /// Hard queue limit in bytes (`Q_lim`).
    pub limit_bytes: usize,
    /// Early-drop lower threshold in bytes.
    pub min_thresh: usize,
    /// Early-drop upper threshold in bytes.
    pub max_thresh: usize,
    /// Maximum early-drop probability at `max_thresh`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub wq: f64,
}

impl RedParams {
    /// Figure 3's queue rows for a link of `capacity` bits/second:
    /// `Q_lim = 0.2 s × capacity`, `min_thresh = 0.5·Q_lim`,
    /// `max_thresh = 0.75·Q_lim`, `w_q = 0.1` (and standard RED's
    /// `max_p = 0.1`), each floored at a few full-size packets.
    pub fn paper_defaults(capacity_bps: u64) -> Self {
        let limit_bytes = qlim_bytes(capacity_bps);
        RedParams {
            limit_bytes: limit_bytes.max(6000),
            min_thresh: (limit_bytes / 2).max(3000),
            max_thresh: (limit_bytes * 3 / 4).max(4500),
            max_p: 0.1,
            wq: 0.1,
        }
    }
}

/// A RED queue (loss-based congestion detection, §4.6 of the paper): a
/// FIFO bounded at `Q_lim` in front of which arrivals are dropped early.
#[derive(Debug)]
pub struct RedQueue {
    params: RedParams,
    fifo: DropTail,
    avg: f64,
    /// Packets since the last early drop (makes drops roughly uniform, as in
    /// the RED paper).
    count_since_drop: u64,
    /// Cheap deterministic PRNG (xorshift) for drop decisions.
    prng: u64,
}

impl RedQueue {
    /// Create a RED queue with the paper's defaults for a link capacity.
    pub fn for_capacity(capacity_bps: u64, seed: u64) -> Self {
        let params = RedParams::paper_defaults(capacity_bps);
        RedQueue {
            fifo: DropTail::new(params.limit_bytes),
            params,
            avg: 0.0,
            count_since_drop: 0,
            prng: seed | 1,
        }
    }

    fn next_unit(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.prng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl QueueDisc for RedQueue {
    fn enqueue(&mut self, now: Nanos, pkt: Packet) -> Option<Packet> {
        // Update the average on every arrival.
        self.avg = self.avg * (1.0 - self.params.wq) + self.len_bytes() as f64 * self.params.wq;
        let early_drop = if self.avg >= self.params.max_thresh as f64 {
            true
        } else if self.avg >= self.params.min_thresh as f64 {
            let span = (self.params.max_thresh - self.params.min_thresh) as f64;
            let p_base = self.params.max_p * (self.avg - self.params.min_thresh as f64) / span;
            let p = (p_base / (1.0 - (self.count_since_drop as f64 * p_base).min(0.9))).min(1.0);
            self.next_unit() < p
        } else {
            false
        };
        // Past the hard limit the FIFO refuses the packet itself.
        let dropped = if early_drop { Some(pkt) } else { self.fifo.enqueue(now, pkt) };
        self.count_since_drop = if dropped.is_some() { 0 } else { self.count_since_drop + 1 };
        dropped
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.fifo.dequeue(now)
    }

    fn len_bytes(&self) -> usize {
        self.fifo.len_bytes()
    }

    fn len_pkts(&self) -> usize {
        self.fifo.len_pkts()
    }
}

// ---------------------------------------------------------------------------
// DRR
// ---------------------------------------------------------------------------

/// How a fair-queuing discipline maps packets to classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classifier {
    /// One class per source host (per-sender fair queuing).
    BySource,
    /// One class per destination host (TVA+'s per-receiver regular queuing).
    ByDestination,
}

/// Deficit Round Robin (Shreedhar & Varghese) with O(1) per-packet work,
/// over classes of type `C`: the one round that a [`DrrQueue`] runs over
/// per-host FIFOs and a [`HierDrrQueue`] over per-AS `DrrQueue`s.
#[derive(Debug)]
pub struct Drr<C> {
    /// The class a packet joins.
    class_of: fn(&Packet) -> u64,
    /// The byte limit of each FIFO under this round.
    class_limit: usize,
    /// Every class seen, with its deficit counter.
    classes: IdMap<u64, (C, usize)>,
    /// Classes with queued packets, in round-robin order.
    active: VecDeque<u64>,
    quantum: usize,
    bytes: usize,
    pkts: usize,
}

/// Deficit Round Robin fair queuing across per-host FIFOs.
pub type DrrQueue = Drr<DropTail>;

/// Two-level hierarchical fair queuing: the outer level shares the link
/// across source ASes, the inner level shares each AS's allocation across
/// its source hosts. TVA+ and StopIt use this for request packets and for
/// the fallback when receivers do not stop attack traffic (§6.3).
pub type HierDrrQueue = Drr<DrrQueue>;

/// What a deficit round needs of one class.
pub trait DrrClass: QueueDisc {
    /// A new, empty class whose FIFOs hold at most `limit` bytes each (a
    /// nested round serves its own classes `quantum` at a time).
    fn empty(quantum: usize, limit: usize) -> Self;
    /// The deficit the class must hold before its head is served.
    fn head_charge(&self) -> usize;
}

impl DrrClass for DropTail {
    fn empty(_quantum: usize, limit: usize) -> Self {
        DropTail::new(limit)
    }

    fn head_charge(&self) -> usize {
        self.queue.front().map_or(0, |pkt| pkt.size)
    }
}

impl DrrClass for DrrQueue {
    fn empty(quantum: usize, limit: usize) -> Self {
        DrrQueue::new(Classifier::BySource, quantum, limit)
    }

    /// A nested round cannot tell which of its classes serves next, so it
    /// charges one MTU, or its whole backlog when that is smaller.
    fn head_charge(&self) -> usize {
        1500.min(self.len_bytes().max(1))
    }
}

impl DrrQueue {
    /// Create a DRR queue. `per_class_limit` bounds each class's backlog in
    /// bytes; `quantum` is the per-round service quantum (typically one
    /// MTU).
    pub fn new(classifier: Classifier, quantum: usize, per_class_limit: usize) -> Self {
        let class_of: fn(&Packet) -> u64 = match classifier {
            Classifier::BySource => |pkt| u64::from(pkt.src),
            Classifier::ByDestination => |pkt| u64::from(pkt.dst),
        };
        Drr::over(class_of, quantum, per_class_limit)
    }
}

impl HierDrrQueue {
    /// Create the hierarchical queue.
    pub fn new(quantum: usize, per_source_limit: usize) -> Self {
        Drr::over(|pkt| u64::from(pkt.src_as), quantum, per_source_limit)
    }
}

impl<C: DrrClass> Drr<C> {
    fn over(class_of: fn(&Packet) -> u64, quantum: usize, class_limit: usize) -> Self {
        Drr {
            class_of,
            class_limit,
            classes: IdMap::default(),
            active: VecDeque::new(),
            quantum,
            bytes: 0,
            pkts: 0,
        }
    }
}

impl<C: DrrClass> QueueDisc for Drr<C> {
    fn enqueue(&mut self, now: Nanos, pkt: Packet) -> Option<Packet> {
        let id = (self.class_of)(&pkt);
        let (quantum, limit) = (self.quantum, self.class_limit);
        let (class, deficit) =
            self.classes.entry(id).or_insert_with(|| (C::empty(quantum, limit), 0));
        let (size, was_empty) = (pkt.size, class.is_empty());
        let dropped = class.enqueue(now, pkt);
        if dropped.is_none() {
            self.bytes += size;
            self.pkts += 1;
            if was_empty {
                self.active.push_back(id);
                *deficit = 0;
            }
        }
        dropped
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        // Standard DRR: visit the head of the active list, serve it if its
        // head charge fits in the deficit, otherwise add a quantum and
        // rotate. When the quantum is smaller than the largest packet,
        // several rounds may be needed before anything can be served.
        let rounds_needed = 1500 / self.quantum.max(1) + 2;
        let mut visited = 0;
        while let Some(&id) = self.active.front() {
            visited += 1;
            if visited > self.active.len() * rounds_needed + 2 {
                break;
            }
            let Some((class, deficit)) = self.classes.get_mut(&id).filter(|c| !c.0.is_empty())
            else {
                // Stale active entry (no class or an empty one): retire it.
                self.active.pop_front();
                continue;
            };
            if *deficit >= class.head_charge() {
                if let Some(pkt) = class.dequeue(now) {
                    *deficit -= pkt.size.min(*deficit);
                    self.bytes -= pkt.size;
                    self.pkts -= 1;
                    if class.is_empty() {
                        self.active.pop_front();
                    } // else keep the class at the head until its deficit runs out
                    return Some(pkt);
                }
                // A nested round declined (its own deficits need to build
                // up): give the turn to the next class, keeping this one.
            }
            *deficit += self.quantum;
            self.active.rotate_left(1);
        }
        None
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }
}

// ---------------------------------------------------------------------------
// Priority levels (request channel)
// ---------------------------------------------------------------------------

/// Strict-priority queue across request-packet priority levels: higher
/// levels are always served first (§4.2: "routers forward a level-k packet
/// with higher priority than lower-level packets").
///
/// One FIFO per level, indexed by priority and grown to the highest level
/// seen, plus a 256-bit occupancy mask: its lowest set bit is the level an
/// overflow displaces from, its highest the level served next.
#[derive(Debug)]
pub struct PriorityLevelQueue {
    levels: Vec<VecDeque<Packet>>,
    /// Bit `l` is set while level `l` holds packets.
    occupied: [u64; 4],
    bytes: usize,
    pkts: usize,
    limit_bytes: usize,
}

impl PriorityLevelQueue {
    /// Create a priority-level queue bounded to `limit_bytes`.
    pub fn new(limit_bytes: usize) -> Self {
        PriorityLevelQueue { levels: Vec::new(), occupied: [0; 4], bytes: 0, pkts: 0, limit_bytes }
    }

    /// The lowest occupied level.
    fn lowest(&self) -> Option<usize> {
        let word = self.occupied.iter().position(|&w| w != 0)?;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// The highest occupied level.
    fn highest(&self) -> Option<usize> {
        let word = self.occupied.iter().rposition(|&w| w != 0)?;
        Some(word * 64 + 63 - self.occupied[word].leading_zeros() as usize)
    }

    /// Pop the head of occupied level `level`, clearing its bit if it
    /// empties.
    fn pop_level(&mut self, level: usize) -> Option<Packet> {
        let q = &mut self.levels[level];
        let pkt = q.pop_front()?;
        if q.is_empty() {
            self.occupied[level / 64] &= !(1 << (level % 64));
        }
        self.bytes -= pkt.size;
        self.pkts -= 1;
        Some(pkt)
    }
}

impl QueueDisc for PriorityLevelQueue {
    fn enqueue(&mut self, _now: Nanos, pkt: Packet) -> Option<Packet> {
        let victim = if self.bytes + pkt.size <= self.limit_bytes {
            None
        } else {
            // Displace the lowest level's head if the newcomer outranks it
            // and dropping it makes room; otherwise drop the newcomer.
            match self.lowest() {
                Some(level)
                    if level < usize::from(pkt.priority)
                        && self.bytes - self.levels[level][0].size + pkt.size
                            <= self.limit_bytes =>
                {
                    self.pop_level(level)
                }
                _ => return Some(pkt),
            }
        };
        let level = usize::from(pkt.priority);
        if level >= self.levels.len() {
            self.levels.resize_with(level + 1, VecDeque::new);
        }
        self.occupied[level / 64] |= 1 << (level % 64);
        self.bytes += pkt.size;
        self.pkts += 1;
        self.levels[level].push_back(pkt);
        victim
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        // Serve the highest priority level that has packets.
        let level = self.highest()?;
        self.pop_level(level)
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }
}

// ---------------------------------------------------------------------------
// Channel split (request / regular / legacy)
// ---------------------------------------------------------------------------

/// The three-channel router queue of Figure 2: regular and request traffic
/// are separated, the request channel is strictly capped at a fraction of
/// the link capacity (§3.1/§4.2: "limited to consume no more than a small
/// fraction (5%) of the output link capacity"), and legacy traffic is only
/// served when both are empty.
///
/// The cap is enforced with a token bucket refilled at
/// `fraction × capacity`; when the request channel has exhausted its tokens
/// its packets wait even if the link is otherwise idle.
#[derive(Debug)]
pub struct DualChannelQueue {
    regular: Box<dyn QueueDisc>,
    request: Box<dyn QueueDisc>,
    legacy: DropTail,
    /// Request-channel rate cap in bits per second.
    request_rate_bps: f64,
    /// Token bucket (bits) for the request channel.
    request_tokens: f64,
    /// Maximum token accumulation (bits).
    request_burst: f64,
    /// Last token refill time.
    last_refill: Nanos,
}

impl DualChannelQueue {
    /// Build the channel split from a regular-channel and request-channel
    /// discipline. `capacity_bps` is the link capacity and
    /// `request_fraction` the share reserved for the request channel.
    pub fn new(
        regular: Box<dyn QueueDisc>,
        request: Box<dyn QueueDisc>,
        legacy_limit_bytes: usize,
        capacity_bps: u64,
        request_fraction: f64,
    ) -> Self {
        let rate = capacity_bps as f64 * request_fraction;
        DualChannelQueue {
            regular,
            request,
            legacy: DropTail::new(legacy_limit_bytes),
            request_rate_bps: rate,
            request_tokens: 2.0 * 1500.0 * 8.0,
            request_burst: (2.0 * 1500.0 * 8.0f64).max(rate * 0.05),
            last_refill: 0,
        }
    }
}

impl QueueDisc for DualChannelQueue {
    fn enqueue(&mut self, now: Nanos, pkt: Packet) -> Option<Packet> {
        match pkt.channel {
            ChannelClass::Regular => self.regular.enqueue(now, pkt),
            ChannelClass::Request => self.request.enqueue(now, pkt),
            ChannelClass::Legacy => self.legacy.enqueue(now, pkt),
        }
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        self.request_tokens = (self.request_tokens + elapsed as f64 / 1e9 * self.request_rate_bps)
            .min(self.request_burst);
        // Serve the request channel when it has packets and tokens: its
        // small slice is guaranteed even under regular backlog, and strictly
        // capped even when the link is idle.
        let pkt = if !self.request.is_empty() && self.request_tokens > 0.0 {
            self.request.dequeue(now)
        } else if !self.regular.is_empty() {
            self.regular.dequeue(now)
        } else if self.request.is_empty() {
            self.legacy.dequeue(now)
        } else {
            // Request packets waiting but out of tokens: keep the link idle
            // for them (strict cap).
            None
        };
        if let Some(p) = pkt.as_ref().filter(|p| p.channel == ChannelClass::Request) {
            self.request_tokens -= p.size as f64 * 8.0;
        }
        pkt
    }

    fn len_bytes(&self) -> usize {
        self.regular.len_bytes() + self.request.len_bytes() + self.legacy.len_bytes()
    }

    fn len_pkts(&self) -> usize {
        self.regular.len_pkts() + self.request.len_pkts() + self.legacy.len_pkts()
    }

    fn drain(&mut self, now: Nanos) -> Vec<Packet> {
        // The request channel's token cap would starve the default
        // dequeue-until-empty loop; sweep all three channels directly.
        let mut out = self.regular.drain(now);
        out.extend(self.request.drain(now));
        out.extend(self.legacy.drain(now));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    impl DropTail {
        /// Whether the queue has ever had to hold a packet (its ring is
        /// allocated on the first one that waits); for the engine's tests.
        pub(crate) fn owns_heap(&self) -> bool {
            self.queue.capacity() > 0
        }
    }

    fn pkt(src: u32, size: usize) -> Packet {
        Packet::udp(0, src, 999, size, 0)
    }

    #[test]
    fn drop_tail_limits_bytes() {
        let mut q = DropTail::new(3000);
        assert!(q.enqueue(0, pkt(1, 1500)).is_none());
        assert!(q.enqueue(0, pkt(1, 1500)).is_none());
        assert!(q.enqueue(0, pkt(1, 1500)).is_some());
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 3000);
        assert!(q.dequeue(0).is_some());
        assert_eq!(q.len_bytes(), 1500);
    }

    #[test]
    fn red_drops_probabilistically_under_load() {
        let mut q = RedQueue::for_capacity(1_000_000, 42); // Qlim = 25 kB
        let mut dropped = 0;
        // Fill without draining: the average climbs, early drops kick in,
        // and the hard limit is never exceeded.
        for _ in 0..100 {
            dropped += usize::from(q.enqueue(0, pkt(1, 1500)).is_some());
        }
        assert!(dropped > 0, "RED should early-drop under sustained arrival");
        assert!(q.len_bytes() <= RedParams::paper_defaults(1_000_000).limit_bytes);
        assert!(q.avg >= q.params.min_thresh as f64);
    }

    #[test]
    fn red_is_quiet_at_low_load() {
        let mut q = RedQueue::for_capacity(10_000_000, 42);
        for _ in 0..200 {
            assert!(q.enqueue(0, pkt(1, 1500)).is_none());
            assert!(q.dequeue(0).is_some());
        }
        assert!(q.avg < q.params.min_thresh as f64);
    }

    #[test]
    fn drr_shares_bandwidth_equally() {
        let mut q = DrrQueue::new(Classifier::BySource, 1500, 1_000_000);
        // Source 1 floods 100 packets, source 2 queues 10.
        for _ in 0..100 {
            q.enqueue(0, pkt(1, 1500));
        }
        for _ in 0..10 {
            q.enqueue(0, pkt(2, 1500));
        }
        assert_eq!(q.active.len(), 2);
        // Dequeue 20: both sources should be served ~10 times each.
        let mut count = BTreeMap::new();
        for _ in 0..20 {
            let p = q.dequeue(0).unwrap();
            *count.entry(p.src).or_insert(0) += 1;
        }
        assert_eq!(count[&2], 10, "the light source gets its full backlog served");
        assert_eq!(count[&1], 10, "the flooder gets only its fair share");
    }

    #[test]
    fn drr_respects_per_class_limit() {
        let mut q = DrrQueue::new(Classifier::BySource, 1500, 4500);
        let mut dropped = 0;
        for _ in 0..10 {
            dropped += usize::from(q.enqueue(0, pkt(7, 1500)).is_some());
        }
        assert_eq!(dropped, 7);
        assert_eq!(q.len_pkts(), 3);
    }

    #[test]
    fn drr_handles_unequal_packet_sizes() {
        let mut q = DrrQueue::new(Classifier::BySource, 1500, 1_000_000);
        for _ in 0..50 {
            q.enqueue(0, pkt(1, 1500)); // big packets
            for _ in 0..15 {
                q.enqueue(0, pkt(2, 100)); // the same bytes in small packets
            }
        }
        // Serve ~30 kB: byte shares should be roughly equal, so source 2
        // gets many more packets out.
        let mut bytes = BTreeMap::new();
        let mut served = 0usize;
        while served < 30_000 {
            let p = q.dequeue(0).unwrap();
            served += p.size;
            *bytes.entry(p.src).or_insert(0usize) += p.size;
        }
        let b1 = bytes[&1] as f64;
        let b2 = bytes[&2] as f64;
        assert!((b1 / b2) < 1.5 && (b2 / b1) < 1.5, "byte shares {b1} vs {b2}");
    }

    #[test]
    fn hierarchical_drr_fair_across_ases_then_sources() {
        let mut q = HierDrrQueue::new(1500, 1_000_000);
        // AS 1 has two hosts (one floods), AS 2 has one host.
        let mk = |src: u32, as_num: u32| {
            let mut p = pkt(src, 1500);
            p.src_as = as_num;
            p
        };
        for _ in 0..100 {
            q.enqueue(0, mk(11, 1));
        }
        for _ in 0..20 {
            q.enqueue(0, mk(12, 1));
            q.enqueue(0, mk(21, 2));
        }
        let mut count = BTreeMap::new();
        for _ in 0..40 {
            let p = q.dequeue(0).unwrap();
            *count.entry(p.src).or_insert(0) += 1;
        }
        // AS-level fairness: AS 2 gets ~half the service.
        assert!(count[&21] >= 15, "AS 2 share {:?}", count);
        // Within AS 1, host 12 is not starved by host 11.
        assert!(count[&12] >= 8, "intra-AS share {:?}", count);
    }

    #[test]
    fn priority_levels_served_highest_first() {
        let mut q = PriorityLevelQueue::new(1_000_000);
        let mk = |prio: u8| {
            let mut p = pkt(prio as u32, 92);
            p.priority = prio;
            p
        };
        q.enqueue(0, mk(0));
        q.enqueue(0, mk(5));
        q.enqueue(0, mk(3));
        q.enqueue(0, mk(5));
        let order: Vec<u8> = (0..4).map(|_| q.dequeue(0).unwrap().priority).collect();
        assert_eq!(order, vec![5, 5, 3, 0]);
    }

    #[test]
    fn priority_levels_in_every_mask_word() {
        let mk = |prio: u8| {
            let mut p = pkt(u32::from(prio), 100);
            p.priority = prio;
            p
        };
        let levels = [200, 0, 64, 255, 63, 128, 127, 64];
        let mut q = PriorityLevelQueue::new(100 * levels.len());
        for prio in levels {
            assert!(q.enqueue(0, mk(prio)).is_none());
        }
        // Full: each newcomer displaces the lowest occupied level's head,
        // crossing from one mask word into the next as levels empty.
        let displaced: Vec<u8> =
            (0..4).filter_map(|_| q.enqueue(0, mk(254)).map(|d| d.priority)).collect();
        assert_eq!(displaced, [0, 63, 64, 64]);
        let served: Vec<u8> = std::iter::from_fn(|| q.dequeue(0).map(|p| p.priority)).collect();
        assert_eq!(served, [255, 254, 254, 254, 254, 200, 128, 127]);
        assert_eq!((q.len_pkts(), q.len_bytes()), (0, 0));
        // An emptied level is occupied again by its next packet.
        q.enqueue(0, mk(64));
        q.enqueue(0, mk(3));
        assert_eq!(q.dequeue(0).map(|p| p.priority), Some(64));
    }

    #[test]
    fn priority_queue_evicts_lower_priority_when_full() {
        let mut q = PriorityLevelQueue::new(200);
        let mk = |prio: u8| {
            let mut p = pkt(prio as u32, 92);
            p.priority = prio;
            p
        };
        q.enqueue(0, mk(0));
        q.enqueue(0, mk(0));
        // A high-priority packet displaces a low-priority one.
        assert_eq!(q.enqueue(0, mk(9)).map(|d| d.priority), Some(0));
        // A low-priority packet arriving at a full queue is itself dropped.
        assert_eq!(q.enqueue(0, mk(0)).map(|d| d.priority), Some(0));
        assert_eq!(q.dequeue(0).unwrap().priority, 9);
    }

    #[test]
    fn priority_queue_displaces_only_when_that_makes_room() {
        let mut q = PriorityLevelQueue::new(200);
        let mk = |prio: u8, size: usize| {
            let mut p = pkt(prio as u32, size);
            p.priority = prio;
            p
        };
        q.enqueue(0, mk(0, 92));
        q.enqueue(0, mk(0, 92));
        // Dropping one 92 B head would leave 92 + 150 B: over the limit, so
        // the newcomer is refused however high its level.
        let dropped = q.enqueue(0, mk(9, 150));
        assert!(q.len_bytes() <= 200, "{} bytes queued", q.len_bytes());
        assert_eq!(dropped.map(|d| (d.priority, d.size)), Some((9, 150)));
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn dual_channel_caps_request_share_and_starves_legacy() {
        let mut q = DualChannelQueue::new(
            Box::new(DropTail::new(1_000_000)),
            Box::new(PriorityLevelQueue::new(1_000_000)),
            1_000_000,
            10_000_000,
            0.05,
        );
        for _ in 0..200 {
            let mut r = pkt(1, 1000);
            r.channel = ChannelClass::Regular;
            q.enqueue(0, r);
            let mut rq = pkt(2, 1000);
            rq.channel = ChannelClass::Request;
            q.enqueue(0, rq);
            let mut l = pkt(3, 1000);
            l.channel = ChannelClass::Legacy;
            q.enqueue(0, l);
        }
        let mut served = BTreeMap::new();
        for _ in 0..100 {
            let p = q.dequeue(0).unwrap();
            *served.entry(p.channel).or_insert(0) += 1;
        }
        // Request share stays close to the 5% cap while regular packets are
        // backlogged, and legacy gets nothing.
        let req = *served.get(&ChannelClass::Request).unwrap_or(&0);
        assert!(req <= 8, "request served {req} of 100");
        assert!(req >= 3, "request channel must not be fully starved, got {req}");
        assert_eq!(served.get(&ChannelClass::Legacy), None);
        assert!(served[&ChannelClass::Regular] >= 90);
    }

    #[test]
    fn dual_channel_is_work_conserving() {
        let mut q = DualChannelQueue::new(
            Box::new(DropTail::new(1_000_000)),
            Box::new(PriorityLevelQueue::new(1_000_000)),
            1_000_000,
            10_000_000,
            0.05,
        );
        for _ in 0..10 {
            let mut rq = pkt(2, 92);
            rq.channel = ChannelClass::Request;
            q.enqueue(0, rq);
        }
        let mut l = pkt(3, 1500);
        l.channel = ChannelClass::Legacy;
        q.enqueue(0, l);
        // With an empty regular channel the request packets are all served,
        // then the legacy packet.
        let mut kinds = Vec::new();
        while let Some(p) = q.dequeue(0) {
            kinds.push(p.channel);
        }
        assert_eq!(kinds.len(), 11);
        assert_eq!(kinds[10], ChannelClass::Legacy);
        assert!(kinds[..10].iter().all(|c| *c == ChannelClass::Request));
    }
}
