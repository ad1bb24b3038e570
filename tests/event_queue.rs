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
