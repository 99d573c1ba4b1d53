//! The event loop's priority queue: a merge of sorted runs over `(at, seq)`
//! keys, with a binary heap for what the runs cannot take.
//!
//! Every event the simulator schedules lands at the current time plus one
//! of a few constant delays (the latency model's classes and the open-loop
//! arrival step), and both executors pop in nondecreasing time, so the
//! pushes interleave a few ascending streams. The queue keeps up to
//! [`MAX_RUNS`] sorted FIFO runs. A push appends to the run whose back key
//! is the largest key strictly below its own (best fit), else to a drained
//! run, else to a new one; only with every run open and none fitting does
//! it go to the spill heap. Run backs fall with the run index (a run opens
//! below every back, and an append stays below the previous run's back),
//! so the best fit is the first run whose back is below the key, and the
//! last open run is the first to drain. The queue caches where its
//! minimum sits, so [`CalendarQueue::peek_key`] is O(1) and a pop compares
//! the run heads and the spill heap's top instead of sifting whole items.
//! Input with no order costs one heap operation plus a scan of the runs.
//! The type keeps its `CalendarQueue` name because the benchmark crate
//! imports it.
//!
//! Determinism contract: [`CalendarQueue::pop`] returns items in exactly
//! ascending `(at, seq)` order. `seq` values must be unique among live
//! items (the simulator uses its content-derived event key), so that order
//! is total and never depends on push order; `tests/queue_order.rs` pins
//! it, ties on `at` pushed out of `seq` order included.

// Hot path (`HOT_PATH_FILES` in the root `tests/lint_ratchet.rs`, which
// checks this header): every lossy cast and every index states its
// bound in an `#[expect]` reason.
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
use std::collections::{BinaryHeap, VecDeque};

/// Most runs the queue keeps open before it spills. The simulator's
/// streams fill 6–7.
const MAX_RUNS: usize = 16;

/// Where an item in the spill heap sits, in place of a run index. `runs`
/// never grows past [`MAX_RUNS`], so this indexes no run.
const SPILL: usize = MAX_RUNS;

/// Packs `(at, seq)` into one integer that orders the same way.
fn pack(at: u64, seq: u64) -> u128 {
    u128::from(at) << 64 | u128::from(seq)
}

/// Splits a packed key back into `(at, seq)`.
fn unpack(key: u128) -> (u64, u64) {
    // Each half fits in 64 bits, so neither conversion fails.
    let at = u64::try_from(key >> 64).unwrap_or(u64::MAX);
    let seq = u64::try_from(key & u128::from(u64::MAX)).unwrap_or(u64::MAX);
    (at, seq)
}

/// One queued item, ordered by its packed key alone and reversed, so the
/// spill's max-heap pops the smallest key first.
#[derive(Debug)]
struct Item<T> {
    key: u128,
    value: T,
}

impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
    }
}

/// A FIFO whose keys strictly ascend from front to back.
#[derive(Debug)]
struct Run<T> {
    /// Key of the front item, the run's minimum.
    head: u128,
    /// Key of the back item, the run's maximum.
    back: u128,
    items: VecDeque<Item<T>>,
}

/// A monotone priority queue over `(at, seq)` keys.
///
/// `seq` breaks ties between items scheduled for the same instant and
/// must be unique across live items (the simulator uses its
/// content-derived event key).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `runs[..active]` hold items; the drained runs after them keep
    /// their buffers for reuse.
    runs: Vec<Run<T>>,
    active: usize,
    /// Items that arrived with every run open and none fitting.
    spill: BinaryHeap<Item<T>>,
    len: usize,
    /// Key of the minimum item, while the queue holds any.
    min_key: u128,
    /// Where that item sits: a run below `active`, or [`SPILL`].
    min_src: usize,
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
            runs: Vec::new(),
            active: 0,
            spill: BinaryHeap::new(),
            len: 0,
            min_key: 0,
            min_src: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` at `(at, seq)`.
    #[inline]
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        // A push at or behind the last pop legitimately restarts the
        // monotone-pop sequence: an open-loop arrival every 0 µs
        // re-pushes the key it just popped.
        #[cfg(debug_assertions)]
        if self.last_pop.is_some_and(|last| (at, seq) <= last) {
            self.last_pop = None;
        }
        let key = pack(at, seq);
        self.len += 1;
        // An empty queue has no open run: the sequential runner's one
        // queued event always lands in run 0, with no scan.
        let i = if self.len == 1 { 0 } else { self.fit(key) };
        if self.len == 1 || key < self.min_key {
            self.min_key = key;
            self.min_src = i;
        }
        let item = Item { key, value };
        match self.runs.get_mut(i) {
            Some(run) => {
                if i == self.active {
                    run.head = key;
                    self.active += 1;
                }
                run.back = key;
                run.items.push_back(item);
            }
            None => self.open_or_spill(i, item),
        }
    }

    /// Where a push of `key` goes by the best-fit rule: the first open run
    /// whose back is below it, else the next run to open, else [`SPILL`].
    fn fit(&self, key: u128) -> usize {
        let mut open = self.runs.iter().take(self.active);
        match open.position(|run| run.back < key) {
            Some(i) => i,
            None if self.active < MAX_RUNS => self.active,
            None => SPILL,
        }
    }

    /// Files `item` at `i` where no run exists yet: a new run, or the
    /// spill heap.
    #[cold]
    fn open_or_spill(&mut self, i: usize, item: Item<T>) {
        if i == SPILL {
            self.spill.push(item);
        } else {
            self.runs.push(Run {
                head: item.key,
                back: item.key,
                items: VecDeque::from([item]),
            });
            self.active += 1;
        }
    }

    /// Returns the key of the minimum `(at, seq)` item without removing
    /// it. The sharded executor uses this to decide whether the next
    /// event falls inside the current synchronization window.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        (self.len > 0).then(|| unpack(self.min_key))
    }

    /// Removes and returns the minimum `(at, seq)` item.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.len = self.len.checked_sub(1)?;
        let i = self.min_src;
        // `SPILL` indexes no run.
        let Item { key, value } = match self.runs.get_mut(i) {
            Some(run) => {
                let item = run.items.pop_front()?;
                match run.items.front() {
                    Some(next) => run.head = next.key,
                    None => {
                        // With unique keys the drained run is the last open
                        // one; the swap keeps the open runs contiguous
                        // whatever the keys.
                        self.active -= 1;
                        if i != self.active {
                            self.runs.swap(i, self.active);
                        }
                    }
                }
                item
            }
            None => self.spill.pop()?,
        };
        // A pop that empties the queue, as the sequential runner's do,
        // skips the scan.
        if self.len > 0 {
            self.find_min();
        }
        let (at, seq) = unpack(key);
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_pop.is_none_or(|last| last < (at, seq)),
                "queue popped {:?} after {:?}",
                (at, seq),
                self.last_pop
            );
            self.last_pop = Some((at, seq));
        }
        Some((at, seq, value))
    }

    /// Points the cached minimum at the least of the run heads and the
    /// spill heap's top. Called only while the queue holds items.
    fn find_min(&mut self) {
        // With the spill heap empty, run 0 holds items, so the search
        // starts from it at the largest key: a real key may equal that,
        // and then it is the one item left, in run 0.
        let (mut key, mut src) = self
            .spill
            .peek()
            .map_or((u128::MAX, 0), |top| (top.key, SPILL));
        for (i, run) in self.runs.iter().take(self.active).enumerate() {
            if run.head < key {
                key = run.head;
                src = i;
            }
        }
        self.min_key = key;
        self.min_src = src;
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

    #[test]
    fn the_key_just_popped_can_be_pushed_again() {
        let mut q = CalendarQueue::new();
        q.push(0, u64::MAX, "arrival");
        assert_eq!(q.pop(), Some((0, u64::MAX, "arrival")));
        q.push(0, u64::MAX, "next arrival");
        assert_eq!(q.pop(), Some((0, u64::MAX, "next arrival")));
    }

    #[test]
    fn descending_pushes_fill_every_run_then_spill() {
        let mut q = CalendarQueue::new();
        for at in (0..48u64).rev() {
            q.push(at, 0, at);
            assert_eq!(q.peek_key(), Some((at, 0)));
        }
        // Each push sat below every run's back, so each opened a run
        // until all were open; the rest spilled.
        assert_eq!(q.runs.len(), MAX_RUNS);
        assert_eq!(q.spill.len(), 48 - MAX_RUNS);
        for (i, at) in (0..48u64).enumerate() {
            assert_eq!(q.pop(), Some((at, 0, at)));
            assert_eq!(q.len(), 47 - i);
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn keys_at_the_extremes_queue_like_any_other() {
        // `(0, u64::MAX)` is the runner's first arrival key; `(u64::MAX,
        // u64::MAX)` packs to the largest key there is, the value the
        // minimum search starts from.
        let arrival = (0, u64::MAX);
        let top = (u64::MAX, u64::MAX);
        let mut q = CalendarQueue::new();
        q.push(top.0, top.1, "top");
        assert_eq!(q.peek_key(), Some(top));
        q.push(arrival.0, arrival.1, "arrival");
        q.push(7, 3, "mid");
        assert_eq!(q.peek_key(), Some(arrival));
        assert_eq!(q.pop(), Some((arrival.0, arrival.1, "arrival")));
        assert_eq!(q.peek_key(), Some((7, 3)));
        assert_eq!(q.pop(), Some((7, 3, "mid")));
        assert_eq!(q.peek_key(), Some(top));
        assert_eq!(q.pop(), Some((top.0, top.1, "top")));
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.pop(), None);

        // Behind sixteen open runs the arrival key spills, while the
        // largest key still fits a run.
        for at in (1..=16u64).rev() {
            q.push(at, 0, "run");
        }
        q.push(top.0, top.1, "top");
        q.push(arrival.0, arrival.1, "arrival");
        assert_eq!(q.spill.len(), 1);
        assert_eq!(q.peek_key(), Some(arrival));
        assert_eq!(q.pop(), Some((arrival.0, arrival.1, "arrival")));
        for at in 1..=16u64 {
            assert_eq!(q.pop(), Some((at, 0, "run")));
        }
        assert_eq!(q.peek_key(), Some(top));
        assert_eq!(q.pop(), Some((top.0, top.1, "top")));
        assert!(q.is_empty());
    }

    #[test]
    fn run_backs_fall_with_the_run_index() {
        // Streams at the simulator's delays, a pop after every third push
        // and a push behind the last pop every seventh: the first run
        // whose back is below a key is the best fit only while this holds.
        let mut q = CalendarQueue::new();
        let mut now = 0;
        for i in 0..3_000u64 {
            let at = if i % 7 == 0 {
                now / 2
            } else {
                now + [0, 50, 1_000, 2_000, 40_000, 42_000][usize::try_from(i % 6).unwrap()]
            };
            q.push(at, i, ());
            if i % 3 == 0 {
                now = q.pop().unwrap().0;
            }
            let backs: Vec<u128> = q.runs.iter().take(q.active).map(|run| run.back).collect();
            assert!(backs.windows(2).all(|w| w[0] > w[1]), "backs {backs:?}");
        }
    }

    #[test]
    fn one_event_at_a_time_stays_in_run_zero() {
        let mut q = CalendarQueue::new();
        for at in [40, 0, 7_000, 3, u64::MAX, 12] {
            q.push(at, at, ());
            assert_eq!(q.pop(), Some((at, at, ())));
            assert_eq!(q.runs.len(), 1);
            assert_eq!(q.active, 0);
        }
    }

    #[test]
    fn drained_runs_are_reused() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        let mut buffers = None;
        // Four descending pushes open four runs, and the pops drain them.
        for round in 0..10u64 {
            for at in (0..4u64).rev() {
                q.push(round * 100 + at, seq, ());
                seq += 1;
            }
            assert_eq!(q.active, 4);
            while q.pop().is_some() {}
            assert_eq!(q.runs.len(), 4, "round {round} opened a fifth run");
            // Each drained run keeps the buffer it had.
            let held: Vec<usize> = q.runs.iter().map(|run| run.items.capacity()).collect();
            assert!(held.iter().all(|&c| c >= 1));
            assert_eq!(buffers.get_or_insert_with(|| held.clone()), &held);
        }
    }
}
