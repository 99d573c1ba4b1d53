//! The event loop's priority queue: a binary heap over `(at, seq)` keys.
//!
//! Both executors pop events in nondecreasing time order. An open-loop
//! run keeps thousands of events queued, many at nearby instants; a heap
//! pushes and pops in O(log n) whatever the spread of their timestamps.
//! The type keeps its `CalendarQueue` name because the benchmark crate
//! imports it.
//!
//! Determinism contract: [`CalendarQueue::pop`] returns items in exactly
//! ascending `(at, seq)` order. `seq` values must be unique among live
//! items (the simulator uses its content-derived event key), so that order
//! is total and never depends on push order; `tests/queue_order.rs` pins
//! it, ties on `at` pushed out of `seq` order included.

// Hot path (adc-lint's `HOT_PATH_FILES`): every lossy cast and every
// index states its bound in an `#[expect]` reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::indexing_slicing
    )
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled item, ordered by its `(at, seq)` key alone and reversed,
/// so the standard max-heap pops the smallest key first.
#[derive(Debug)]
struct Item<T> {
    at: u64,
    seq: u64,
    value: T,
}

impl<T> Item<T> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Item<T> {}

impl<T> PartialOrd for Item<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Item<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A monotone priority queue over `(at, seq)` keys.
///
/// `seq` breaks ties between items scheduled for the same instant and
/// must be unique across live items (the simulator uses its
/// content-derived event key).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    heap: BinaryHeap<Item<T>>,
    /// Debug-only record of the last key handed out, backing the
    /// pop-order `debug_assert`: two live items with one key pop back to
    /// back, which it reports.
    #[cfg(debug_assertions)]
    last_pop: Option<(u64, u64)>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            heap: BinaryHeap::new(),
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `value` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        // A push behind the last pop (never done by the simulator)
        // legitimately restarts the monotone-pop sequence.
        #[cfg(debug_assertions)]
        if self.last_pop.is_some_and(|last| (at, seq) < last) {
            self.last_pop = None;
        }
        self.heap.push(Item { at, seq, value });
    }

    /// Returns the key of the minimum `(at, seq)` item without removing
    /// it. The sharded executor uses this to decide whether the next
    /// event falls inside the current synchronization window.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(Item::key)
    }

    /// Removes and returns the minimum `(at, seq)` item.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let item = self.heap.pop()?;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_pop.is_none_or(|last| last < item.key()),
                "queue popped {:?} after {:?}",
                item.key(),
                self.last_pop
            );
            self.last_pop = Some(item.key());
        }
        Some((item.at, item.seq, item.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        q.push(5, 2, "c");
        q.push(0, 3, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((0, 3, "d")));
        assert_eq!(q.pop(), Some((3, 1, "b")));
        assert_eq!(q.pop(), Some((5, 0, "a")));
        assert_eq!(q.pop(), Some((5, 2, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn handles_far_future_gaps() {
        let mut q = CalendarQueue::new();
        let far = 1u64 << 40;
        q.push(0, 0, 0u32);
        q.push(10 * far + 17, 1, 1);
        q.push(3 * far + 2, 2, 2);
        assert_eq!(q.pop(), Some((0, 0, 0)));
        assert_eq!(q.pop(), Some((3 * far + 2, 2, 2)));
        assert_eq!(q.pop(), Some((10 * far + 17, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaves_pushes_and_pops_monotonically() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut last = (0u64, 0u64);
        q.push(0, seq, ());
        seq += 1;
        let mut popped = 0;
        while let Some((at, s, ())) = q.pop() {
            assert!(
                (at, s) >= last,
                "out of order: {:?} after {:?}",
                (at, s),
                last
            );
            last = (at, s);
            popped += 1;
            if popped < 500 {
                // Mimic the simulator: reschedule at a few latency scales.
                for delta in [1_000, 2_000, 40_000] {
                    q.push(at + delta, seq, ());
                    seq += 1;
                    q.pop().unwrap();
                }
                q.push(at + (popped % 7) * 1_000, seq, ());
                seq += 1;
            }
        }
        assert_eq!(popped, 500);
    }

    #[test]
    fn peek_key_matches_pop_without_consuming() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        assert_eq!(q.peek_key(), Some((3, 1)));
        assert_eq!(q.peek_key(), Some((3, 1)), "peek must not consume");
        assert_eq!(q.pop(), Some((3, 1, "b")));
        assert_eq!(q.peek_key(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 0, "a")));
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn past_pushes_pop_first() {
        let mut q = CalendarQueue::new();
        q.push(1 << 20, 0, "future");
        assert_eq!(q.peek_key(), Some((1 << 20, 0)));
        assert_eq!(q.pop(), Some((1 << 20, 0, "future")));
        // A push behind the last pop must still peek and pop first.
        q.push(5, 1, "past");
        q.push((1 << 20) + 1, 2, "later");
        assert_eq!(q.peek_key(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 1, "past")));
        assert_eq!(q.pop(), Some(((1 << 20) + 1, 2, "later")));
    }
}
