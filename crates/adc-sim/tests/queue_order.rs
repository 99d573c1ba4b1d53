//! Property tests pinning the event queue's determinism contract:
//! [`CalendarQueue`] pops in exactly the `(at, seq)` order a reference
//! `BinaryHeap` of bare keys produces, for arbitrary push/pop
//! interleavings and for the interleaved ascending streams the
//! simulator pushes, and breaks ties on `at` by `seq` whatever the push
//! order. The simulator's bit-for-bit reproducibility rests on this
//! total order: the goldens pin the schedule it produces.

use adc_sim::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push at this (possibly far-future, possibly past) timestamp.
    Push(u64),
    /// Pop once and compare.
    Pop,
}

/// Delays (µs) the simulator reschedules by: an instant hop, the
/// open-loop arrival step, the client and peer hops, and the origin's
/// two legs.
const DELAYS: [u64; 6] = [0, 50, 1_000, 2_000, 40_000, 42_000];

/// One step of a script over interleaved ascending streams.
#[derive(Debug, Clone)]
enum StreamOp {
    /// Push on this stream (modulo the stream count), at the last
    /// popped `at` plus the stream's delay.
    Push(usize),
    /// Push this many µs behind the last popped `at`.
    Behind(u64),
    /// Peek, pop once and compare both.
    Pop,
}

/// A stream count from 1 to 24, each stream's delay class, and a script
/// of mostly stream pushes and pops with a few pushes behind the last
/// pop.
fn streams() -> impl Strategy<Value = (usize, Vec<usize>, Vec<StreamOp>)> {
    let op = (0u32..100, 0usize..24, 1u64..50_000).prop_map(|(roll, stream, behind)| {
        if roll < 4 {
            StreamOp::Behind(behind)
        } else if roll < 60 {
            StreamOp::Push(stream)
        } else {
            StreamOp::Pop
        }
    });
    (
        1usize..25,
        prop::collection::vec(0..DELAYS.len(), 24..25),
        prop::collection::vec(op, 1..800),
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Timestamps mix nearby values, far jumps and pushes behind the
    // last pop.
    let op = prop_oneof![
        (0u64..5_000_000).prop_map(Op::Push),
        (0u64..u64::MAX / 2).prop_map(Op::Push),
        Just(Op::Pop),
    ];
    prop::collection::vec(op, 1..400)
}

proptest! {
    #[test]
    fn matches_binary_heap_reference(script in ops()) {
        let mut calendar = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for op in script {
            match op {
                Op::Push(at) => {
                    calendar.push(at, seq, ());
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                }
                Op::Pop => {
                    let expected = heap.pop().map(|Reverse(key)| key);
                    let got = calendar.pop().map(|(at, s, ())| (at, s));
                    prop_assert_eq!(got, expected);
                    prop_assert_eq!(calendar.len(), heap.len());
                }
            }
        }
        // Drain both: every remaining item must come out in heap order.
        while let Some(Reverse(expected)) = heap.pop() {
            let got = calendar.pop().map(|(at, s, ())| (at, s));
            prop_assert_eq!(got, Some(expected));
        }
        prop_assert!(calendar.is_empty());
    }

    /// The simulator's push stream: each push lands at the last popped
    /// `at` plus its stream's delay, so every stream ascends and the
    /// queue's runs take them. Stream `i`'s delay is its class's plus
    /// `i` µs, so no two streams share one, and more than sixteen
    /// streams outnumber the runs and reach the spill heap while runs
    /// hold items. The other scripts here draw timestamps at random, so
    /// past their first sixteen pushes they mostly test the spill heap.
    #[test]
    fn interleaved_streams_match_binary_heap_reference((k, classes, script) in streams()) {
        let delay = |stream: usize| DELAYS[classes[stream % k]] + (stream % k) as u64;
        let mut queue = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut last_at = 0u64;
        for op in script {
            let at = match op {
                StreamOp::Push(stream) => Some(last_at + delay(stream)),
                StreamOp::Behind(by) => Some(last_at.saturating_sub(by)),
                StreamOp::Pop => None,
            };
            if let Some(at) = at {
                queue.push(at, seq, seq);
                heap.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let expected = heap.pop().map(|Reverse(key)| key);
                prop_assert_eq!(queue.peek_key(), expected);
                prop_assert_eq!(queue.pop(), expected.map(|(at, s)| (at, s, s)));
                if let Some((at, _)) = expected {
                    last_at = at;
                }
            }
            prop_assert_eq!(queue.len(), heap.len());
        }
        while let Some(Reverse((at, s))) = heap.pop() {
            prop_assert_eq!(queue.peek_key(), Some((at, s)));
            prop_assert_eq!(queue.pop(), Some((at, s, s)));
            prop_assert_eq!(queue.len(), heap.len());
        }
        prop_assert_eq!(queue.peek_key(), None);
        prop_assert!(queue.is_empty());
    }

    /// Pops come out in strictly increasing `(at, seq)` order except
    /// immediately after a rewind (a push behind the last popped key),
    /// which legitimately restarts the monotone sequence. This is the
    /// external statement of the queue's debug-build `last_pop` check.
    #[test]
    fn pops_monotone_between_rewinds(script in ops()) {
        let mut calendar = CalendarQueue::new();
        let mut seq = 0u64;
        let mut last_pop: Option<(u64, u64)> = None;
        for op in script {
            match op {
                Op::Push(at) => {
                    if last_pop.is_some_and(|last| (at, seq) < last) {
                        last_pop = None; // rewind: monotonicity restarts
                    }
                    calendar.push(at, seq, ());
                    seq += 1;
                }
                Op::Pop => {
                    if let Some((at, s, ())) = calendar.pop() {
                        prop_assert!(
                            last_pop.is_none_or(|last| last < (at, s)),
                            "pop {:?} not after {:?}", (at, s), last_pop
                        );
                        last_pop = Some((at, s));
                    }
                }
            }
        }
    }

    /// Ties on `at` break by `seq`, never by push order: unique `seq`s
    /// whose order is independent of the push order, over a handful of
    /// timestamps, each carried as its own payload. Every pop must come
    /// out in `(at, seq)` order with the payload pushed under its key.
    #[test]
    fn ties_break_by_seq_not_push_order(
        draws in prop::collection::vec((0u64..4, 0u64..1 << 40), 1..300)
    ) {
        let mut queue = CalendarQueue::new();
        let mut keys = Vec::with_capacity(draws.len());
        for (i, &(at, high)) in draws.iter().enumerate() {
            // The random high bits set the order; the push index in the
            // low bits only makes each `seq` unique.
            let seq = high << 16 | i as u64;
            queue.push(at, seq, seq);
            keys.push((at, seq));
        }
        keys.sort_unstable();
        for (at, seq) in keys {
            prop_assert_eq!(queue.pop(), Some((at, seq, seq)));
        }
        prop_assert!(queue.is_empty());
    }

    #[test]
    fn monotone_simulation_shaped_batches(
        deltas in prop::collection::vec((0u64..100_000, 1usize..4), 1..200)
    ) {
        // The simulator's actual pattern: every push is at-or-after the
        // last popped time, with a few distinct latency magnitudes.
        let mut calendar = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        calendar.push(0, seq, ());
        heap.push(Reverse((0, seq)));
        seq += 1;
        let mut pending = deltas.into_iter();
        loop {
            let expected = heap.pop().map(|Reverse(key)| key);
            let got = calendar.pop().map(|(at, s, ())| (at, s));
            prop_assert_eq!(got, expected);
            let Some((at, _)) = expected else { break };
            now = at;
            if let Some((delta, fanout)) = pending.next() {
                for i in 0..fanout as u64 {
                    let t = now + delta + i * 1_000;
                    calendar.push(t, seq, ());
                    heap.push(Reverse((t, seq)));
                    seq += 1;
                }
            }
        }
        prop_assert!(calendar.is_empty());
        let _ = now;
    }
}
