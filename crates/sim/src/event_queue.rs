//! The engine's pending-event set: a calendar queue over a slab.
//!
//! [`EventQueue`] pops in exactly `(at, seq)` order, where `seq` is the
//! push order — the order a `BinaryHeap` of `(at, seq, payload)` entries
//! would give — but it never moves a payload once it is queued. Payloads sit
//! in a slab (fixed-size chunks of slots threaded by a free list) from push
//! to pop; ordering works on 24-byte `(at, seq, slot)` keys, and time is
//! bucketed so that only the keys about to fire are ever sorted:
//!
//! * `run` holds the keys that were in the current bucket `cur`
//!   (`at >> SHIFT`) when the queue reached it, sorted descending: the next
//!   of them is `run.pop()`;
//! * `late`, a small binary heap, takes every key pushed since into a bucket
//!   `<= cur` (an event due within the bucket being drained, or in the past);
//! * `ring` holds the keys of the next `RING - 1` buckets, unsorted: entry
//!   `b % RING` heads a list, linked through each slot's `next` index, of
//!   the slots due in bucket `b`;
//! * `far`, a second binary heap, holds keys at or past the ring horizon.
//!
//! When `run` and `late` are both empty, `cur` jumps to the earliest
//! non-empty bucket and that bucket's chain, plus any `far` keys that fall
//! into it, is sorted into `run`.
//!
//! **Why pop order is `(at, seq)`.** The parts partition the keys by
//! bucket: `run` and `late` have buckets `<= cur`, `ring` and `far` only
//! buckets `> cur` (a push picks its part by that test, and a refill moves
//! `cur` to the minimum bucket present and empties exactly that bucket out
//! of `ring` and `far`). Buckets are monotone in `at`, so every key in `run`
//! or `late` precedes every key outside them, the two are never both empty
//! while the queue is not (pop refills first), and the smaller of
//! `run.last()` and `late.peek()` under `(at, seq)` is the minimum of their
//! union — the global minimum. A push into the past (`at` before the last
//! popped time) lands in `late` and is simply the next pop.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the bucket width in nanoseconds (2^18 ns ≈ 262 µs). The width
/// trades the keys sorted per refill and the size of `late` against refills
/// per pop; of 2^16, 2^18 and 2^20 under the heap that used to drain a
/// bucket, 2^20 was 3–10 % slower on four `perf` workloads and the other two
/// within noise, and under the sorted run 2^16 was no faster on `flood_none`
/// and slower on `flood_netfence` (DESIGN.md §1).
const SHIFT: u32 = 18;
/// Buckets in the ring; a power of two. The horizon `RING << SHIFT` = 2^32 ns
/// ≈ 4.3 s covers link, defense-tick and sample events and a TCP
/// retransmission timer through two back-offs (1 s, 2 s, 4 s), so `far`
/// sees only flow starts and long idle timers. A 4 096-bucket ring (1.07 s)
/// sent every RTO timer of `collude_web` — thousands pending — through
/// `far`: + 13 % peak RSS and + 7 % wall time there. Costs 64 KiB per
/// simulator.
const RING: u64 = 16_384;
/// Slots per slab chunk (128 KiB at the engine's 128-byte slots). The slab grows a
/// chunk at a time instead of by doubling one `Vec`: no payload is ever
/// copied, and every block the queue allocates while running has the same
/// size, which the allocator reuses exactly from one run to the next. One
/// doubling `Vec` was as fast but `peak_rss_mb` crept up with every
/// simulator built in the process (`flood_none`: + 11 % after 20 runs).
const CHUNK: usize = 1024;
/// End of a slot chain / of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Nanos,
    seq: u64,
    slot: u32,
}

/// `seq` is unique, so `(at, seq)` is already a total order: `slot` stays
/// out of the comparison.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Slot<T> {
    at: Nanos,
    seq: u64,
    /// Next slot in the same ring bucket, or in the free list.
    next: u32,
    payload: Option<T>,
}

/// A min-priority queue of `T` keyed by `(time, push order)`.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The slab: slot `i` is `chunks[i / CHUNK][i % CHUNK]`.
    chunks: Vec<Vec<Slot<T>>>,
    free: u32,
    run: Vec<Key>,
    late: BinaryHeap<Reverse<Key>>,
    ring: Vec<u32>,
    /// Keys currently chained in `ring`.
    ring_len: usize,
    far: BinaryHeap<Reverse<Key>>,
    /// The bucket `run` and `late` are draining.
    cur: u64,
    seq: u64,
    /// Pushes minus pops.
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            chunks: Vec::new(),
            free: NIL,
            run: Vec::new(),
            late: BinaryHeap::new(),
            ring: vec![NIL; RING as usize],
            ring_len: 0,
            far: BinaryHeap::new(),
            cur: 0,
            seq: 0,
            len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at time `at`. Entries with equal `at` pop in push
    /// order.
    // `inline` on push and pop is measured, not decoration: without it the
    // chunked slab's extra helper calls tip the inliner and `collude_web`
    // runs 7 % slower.
    #[inline]
    pub fn push(&mut self, at: Nanos, payload: T) {
        self.seq += 1;
        let seq = self.seq;
        let slot = if self.free == NIL {
            self.grow(Slot { at, seq, next: NIL, payload: Some(payload) })
        } else {
            // Field by field: building a `Slot` and moving it in was a
            // 128-byte `memcpy` per push.
            let slot = self.free;
            let reused = self.slot_mut(slot);
            reused.at = at;
            reused.seq = seq;
            reused.payload = Some(payload);
            self.free = reused.next;
            slot
        };
        let bucket = at >> SHIFT;
        if bucket <= self.cur {
            self.late.push(Reverse(Key { at, seq, slot }));
        } else if bucket - self.cur < RING {
            let head = &mut self.ring[(bucket % RING) as usize];
            let chained = std::mem::replace(head, slot);
            self.slot_mut(slot).next = chained;
            self.ring_len += 1;
        } else {
            self.far.push(Reverse(Key { at, seq, slot }));
        }
        self.len += 1;
        self.debug_check_parts();
    }

    /// Remove and return the entry with the smallest `(at, push order)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        if self.run.is_empty() && self.late.is_empty() && !self.refill() {
            return None;
        }
        let late_first = match (self.run.last(), self.late.peek()) {
            (Some(run), Some(Reverse(late))) => late < run,
            // Only one side has keys.
            (run, _) => run.is_none(),
        };
        let key = if late_first { self.late.pop().map(|Reverse(key)| key) } else { self.run.pop() };
        // `unreachable!`, not `?`: a `None` here would end `Simulator::run`
        // early and pass for a normal, shorter run.
        let Some(key) = key else { unreachable!("a refill leaves `run` or `late` non-empty") };
        let free = self.free;
        let slot = self.slot_mut(key.slot);
        let Some(payload) = slot.payload.take() else {
            unreachable!("a queued key owns its payload")
        };
        slot.next = free;
        self.free = key.slot;
        self.len -= 1;
        self.debug_check_parts();
        Some((key.at, payload))
    }

    /// Every pending key is in exactly one part.
    fn debug_check_parts(&self) {
        let parts = self.run.len() + self.late.len() + self.ring_len + self.far.len();
        debug_assert_eq!(parts, self.len, "the queue's parts do not add up to pushes - pops");
    }

    fn slot_mut(&mut self, slot: u32) -> &mut Slot<T> {
        &mut self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    /// Append a slot to the slab, opening a new chunk if the last is full.
    fn grow(&mut self, filled: Slot<T>) -> u32 {
        if self.chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        chunk.push(filled);
        let slot = last * CHUNK + chunk.len() - 1;
        assert!(slot < NIL as usize, "event queue holds 2^32 - 1 entries");
        slot as u32
    }

    /// `run` and `late` are empty: advance `cur` to the earliest bucket
    /// present in `ring` or `far` and sort that bucket's keys into `run`.
    /// False if there is none, that is, if the queue is empty.
    fn refill(&mut self) -> bool {
        let ring_next = if self.ring_len == 0 {
            None
        } else {
            // Ring entries cover buckets cur+1 ..= cur+RING-1; walk them in
            // bucket order, which is ring order starting after `cur`.
            let start = ((self.cur + 1) % RING) as usize;
            let (wrapped, first) = self.ring.split_at(start);
            first
                .iter()
                .chain(wrapped)
                .position(|&head| head != NIL)
                .map(|offset| self.cur + 1 + offset as u64)
        };
        let far_next = self.far.peek().map(|k| k.0.at >> SHIFT);
        let Some(next) = ring_next.into_iter().chain(far_next).min() else {
            return false;
        };
        self.cur = next;
        if ring_next == Some(next) {
            let mut slot = std::mem::replace(&mut self.ring[(next % RING) as usize], NIL);
            while slot != NIL {
                let s = &self.chunks[slot as usize / CHUNK][slot as usize % CHUNK];
                self.run.push(Key { at: s.at, seq: s.seq, slot });
                slot = s.next;
            }
            self.ring_len -= self.run.len();
        }
        while let Some(&Reverse(key)) = self.far.peek().filter(|k| k.0.at >> SHIFT == next) {
            self.far.pop();
            self.run.push(key);
        }
        // Descending, so the minimum is `Vec::pop`.
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_times_pop_in_push_order_across_all_three_parts() {
        let horizon = RING << SHIFT;
        let mut q = EventQueue::new();
        for at in [0, 1 << SHIFT, horizon - 1, horizon, 3 * horizon] {
            for tag in 0..3u64 {
                q.push(at, (at, tag));
            }
        }
        assert_eq!(q.len(), 15);
        let mut popped = Vec::new();
        while let Some((at, payload)) = q.pop() {
            assert_eq!(at, payload.0);
            popped.push(payload);
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn a_far_key_overtaken_by_the_ring_still_pops_in_order() {
        let horizon = RING << SHIFT;
        let mut q = EventQueue::new();
        q.push(horizon + 5, "far");
        q.push(2 << SHIFT, "first");
        assert_eq!(q.pop(), Some((2 << SHIFT, "first")));
        // `cur` is now 2: the same bucket that sent "far" to the far heap
        // is inside the ring for these two.
        q.push(horizon + 9, "after");
        q.push(horizon + 2, "before");
        assert_eq!((q.far.len(), q.ring_len), (1, 2));
        q.push(0, "past");
        assert_eq!(q.pop(), Some((0, "past")));
        assert_eq!(q.pop(), Some((horizon + 2, "before")));
        assert_eq!(q.pop(), Some((horizon + 5, "far")));
        assert_eq!(q.pop(), Some((horizon + 9, "after")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_push_into_the_bucket_being_drained_goes_late_and_interleaves() {
        let mut q = EventQueue::new();
        let base = 3 << SHIFT;
        for at in [base + 10, base + 30, base + 30] {
            q.push(at, at);
        }
        assert_eq!(q.pop(), Some((base + 10, base + 10)));
        assert_eq!((q.cur, q.run.len(), q.late.len()), (3, 2, 0));
        // Same bucket as `cur`: before, level with and after what `run` holds.
        for (at, tag) in [(base + 20, 1), (base + 30, 2), (base + 40, 3), (base + 20, 4)] {
            q.push(at, tag);
        }
        assert_eq!((q.run.len(), q.late.len(), q.ring_len), (2, 4, 0));
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, tag)| tag).collect();
        assert_eq!(tags, [1, 4, base + 30, base + 30, 2, 3]);
    }

    #[test]
    fn a_push_into_an_earlier_bucket_goes_late_and_pops_next() {
        let mut q = EventQueue::new();
        q.push(5 << SHIFT, "a");
        q.push(5 << SHIFT, "b");
        assert_eq!(q.pop(), Some((5 << SHIFT, "a")));
        q.push((2 << SHIFT) + 7, "earlier bucket");
        q.push(5 << SHIFT, "c");
        assert_eq!((q.cur, q.run.len(), q.late.len()), (5, 1, 2));
        assert_eq!(q.pop(), Some(((2 << SHIFT) + 7, "earlier bucket")));
        assert_eq!(q.pop(), Some((5 << SHIFT, "b")));
        assert_eq!(q.pop(), Some((5 << SHIFT, "c")));
        assert_eq!((q.pop(), q.len()), (None, 0));
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.push(round * 1000, round);
            q.push(round * 1000 + 1, round);
            assert_eq!(q.pop().map(|(_, r)| r), Some(round));
            assert_eq!(q.pop().map(|(_, r)| r), Some(round));
        }
        assert_eq!((q.chunks.len(), q.chunks[0].len()), (1, 2));
    }
}
