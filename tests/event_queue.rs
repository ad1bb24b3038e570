//! Model-based tests of the engine's `EventQueue` against the structure it
//! replaced: a `BinaryHeap` ordered by `(at, push order)`.
//!
//! The queue's bucket width and ring length are private, and both are powers
//! of two, so the time steps below cover *every* power of two from 2^10 to
//! 2^40 ns with its two neighbours: whatever the constants are tuned to,
//! "one bucket", "one ring lap" and the values either side are in the set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netfence::sim::event_queue::EventQueue;
use netfence::sim::rng::SimRng;
use proptest::collection::vec;
use proptest::proptest;

/// The old queue: a min-heap on `(at, seq)`; the payload is `seq` itself.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl Model {
    fn push(&mut self, at: u64) -> u64 {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq)));
        self.seq
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(entry)| entry)
    }
}

fn steps() -> Vec<u64> {
    let mut steps = vec![0, 1, u64::MAX / 2];
    for k in 10..=40 {
        steps.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    steps
}

/// Pop both sides once and check they agree; returns the popped time.
fn pop_both(queue: &mut EventQueue<u64>, model: &mut Model) -> Option<u64> {
    let got = queue.pop();
    assert_eq!(got, model.pop());
    assert_eq!(queue.len(), model.heap.len());
    assert_eq!(queue.is_empty(), model.heap.is_empty());
    got.map(|(at, _)| at)
}

fn push_both(queue: &mut EventQueue<u64>, model: &mut Model, at: u64) {
    let id = model.push(at);
    queue.push(at, id);
}

proptest! {
    /// Any interleaving of pushes (at the last popped time plus a step),
    /// pops and drain-to-empty yields the model's pop sequence exactly:
    /// `(at, push order)` order, so FIFO among equal times, and a queue
    /// that was emptied keeps ordering correctly when refilled later —
    /// many ring laps later, with the larger steps.
    #[test]
    fn pops_exactly_like_a_binary_heap(
        ops in vec((0u8..10, 0usize..96, 0u8..4), 1..400),
    ) {
        let steps = steps();
        assert_eq!(steps.len(), 96);
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for (op, step, repeat) in ops {
            match op {
                // Push a small burst at one time: equal-`at` entries.
                0..=5 => {
                    let at = now.saturating_add(steps[step]);
                    for _ in 0..=repeat {
                        let id = model.push(at);
                        queue.push(at, id);
                    }
                    assert_eq!(queue.len(), model.heap.len());
                }
                6..=8 => {
                    if let Some(at) = pop_both(&mut queue, &mut model) {
                        assert!(at >= now, "time went backwards");
                        now = at;
                    }
                }
                _ => {
                    while let Some(at) = pop_both(&mut queue, &mut model) {
                        now = at;
                    }
                }
            }
        }
        while pop_both(&mut queue, &mut model).is_some() {}
    }
}

/// A steady stream a little over one bucket apart, with a bounded backlog,
/// for several laps of the ring — the shape of a real run.
#[test]
fn steady_stream_over_many_ring_laps() {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for i in 0..100_000u64 {
        // ≈ 1.14 buckets of 2^18 ns per step: 30 s in all, several laps of
        // any ring shorter than that; every third event lands 2 s ahead.
        let at = i * 300_000 + if i % 3 == 0 { 2_000_000_000 } else { 0 };
        let id = model.push(at);
        queue.push(at, id);
        if i >= 50 {
            pop_both(&mut queue, &mut model);
        }
    }
    while pop_both(&mut queue, &mut model).is_some() {}
}

/// The queue is a plain priority queue: a push earlier than the last pop
/// (the engine clamps these, the queue need not rely on it) pops next.
#[test]
fn a_push_into_the_past_pops_next() {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for at in [5_000_000_000, 7_000_000_000, 9_000_000_000] {
        let id = model.push(at);
        queue.push(at, id);
    }
    pop_both(&mut queue, &mut model);
    for at in [0, 6_000_000_000, 5_000_000_000, 1] {
        let id = model.push(at);
        queue.push(at, id);
    }
    while pop_both(&mut queue, &mut model).is_some() {}
}

/// Offsets from the time just popped that land before, inside and after the
/// span being drained whether that span is 2^12 or 2^18 ns wide, in the
/// next bucket, and (0, 1) at the drain position itself.
const DELTAS: [u64; 10] = [0, 1, 100, 4_095, 4_096, 4_097, 50_000, 262_143, 262_144, 262_145];

/// One bucket holding thousands of keys — a whole sorted run — drained
/// while every pop pushes a key around the drain position.
#[test]
fn dense_bucket_with_pushes_around_the_drain_position() {
    const SPAN: u64 = 1 << 18;
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    let mut rng = SimRng::new(7);
    for _ in 0..6_000 {
        push_both(&mut queue, &mut model, rng.uniform_u64(40 * SPAN, 41 * SPAN));
    }
    let mut pops = 0;
    while let Some(now) = pop_both(&mut queue, &mut model) {
        // Feed for 30 000 pops (the backlog stays at 6 000), then drain.
        if pops < 30_000 {
            push_both(&mut queue, &mut model, now + DELTAS[pops % DELTAS.len()]);
        }
        pops += 1;
    }
    assert_eq!(pops, 36_000);
}

/// 100 000 pushes at the instant being drained pop after what was already
/// queued there, in push order, at O(log n) each: this test takes ≈ 0.1 s.
/// Inserting each key into the sorted run instead would pass the order
/// check and move ≈ 10^11 bytes — ten seconds or more, which is the signal
/// (10 000 keys would move 10^9, lost in the noise).
#[test]
fn a_same_instant_burst_during_a_drain_pops_fifo() {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for i in 0..100 {
        push_both(&mut queue, &mut model, 1_000_000 + i / 4);
    }
    let mut now = 0;
    for _ in 0..50 {
        now = pop_both(&mut queue, &mut model).expect("100 were pushed");
    }
    for _ in 0..100_000 {
        push_both(&mut queue, &mut model, now);
    }
    let mut burst = Vec::new();
    while let Some((at, id)) = queue.pop() {
        assert_eq!(Some((at, id)), model.pop());
        if at == now {
            burst.push(id);
        }
    }
    assert!(burst.len() > 100_000 && burst.is_sorted(), "equal times pop in push order");
}

/// Keys pushed past the ring horizon fall due in a bucket that, by then,
/// also holds ring keys and takes in-bucket pushes while it drains.
#[test]
fn far_keys_join_a_bucket_that_also_has_ring_keys_and_late_pushes() {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    // Past any horizon the constants could give (2^40 ns ≈ 18 min).
    let due = 1u64 << 41;
    for offset in [9_000, 17, 200_000, 17, 4_096] {
        push_both(&mut queue, &mut model, due + offset);
    }
    // Walk time up to just short of `due`, so the next pushes at `due + _`
    // are inside the ring.
    push_both(&mut queue, &mut model, due - 1_000_000);
    assert_eq!(pop_both(&mut queue, &mut model), Some(due - 1_000_000));
    for offset in [17, 5_000, 0, 262_143, 9_000] {
        push_both(&mut queue, &mut model, due + offset);
    }
    let mut pops = 0;
    while let Some(now) = pop_both(&mut queue, &mut model) {
        if pops < 40 {
            push_both(&mut queue, &mut model, now + DELTAS[pops % DELTAS.len()]);
        }
        pops += 1;
    }
    assert_eq!(pops, 50);
}
