//! A slab-backed flow table: the single-queue runner's per-request
//! bookkeeping, without per-flow hashing or allocation.
//!
//! The runner looks flows up by request id because a fault duplicate
//! shares its original's flow, and must find none once that flow has
//! completed. The sharded engine has no duplicates and no table: each of
//! its queued events carries its flow.
//!
//! The workload generators stamp every [`RequestRecord`] with a globally
//! unique, monotone `seq` (its position in the trace), and the runner
//! inserts each flow once, at injection, in exactly that order. Live
//! flows therefore occupy a dense, sliding window of `seq` values, which
//! a ring of slot indices tracks directly — `O(1)` insert, lookup, and
//! remove with no hashing in the steady state. A flow inserted behind the
//! window base (only a workload whose seqs are out of order does that)
//! spills into a small overflow map, so correctness never depends on the
//! density assumption.
//!
//! [`RequestRecord`]: adc_workload::RequestRecord

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

use adc_core::RequestId;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A slab of flow states indexed by workload-unique request `seq`.
#[derive(Debug)]
pub struct FlowTable<V> {
    /// Slot storage; freed slots are recycled through `free`.
    slots: Vec<(RequestId, V)>,
    free: Vec<u32>,
    /// `window[id.seq - base]` holds `slot + 1`, or 0 for no flow.
    window: VecDeque<u32>,
    /// The `seq` the window's front corresponds to.
    base: u64,
    /// Flows inserted behind the window base (never, when inserts come
    /// in `seq` order as the runner's do). Ordered map: off the hot
    /// path, and iteration order must never depend on a randomized
    /// hasher.
    overflow: BTreeMap<RequestId, u32>,
    len: usize,
    peak: usize,
}

impl<V> Default for FlowTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlowTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            window: VecDeque::new(),
            base: 0,
            overflow: BTreeMap::new(),
            len: 0,
            peak: 0,
        }
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flows are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of flows ever live at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "free-list entries always index live slot storage"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the slot count is bounded by live flows, far below u32::MAX"
    )]
    fn alloc(&mut self, id: RequestId, value: V) -> u32 {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (id, value);
                slot
            }
            None => {
                self.slots.push((id, value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Inserts a flow. `id.seq` values must be unique across live flows
    /// (the workload's global trace position guarantees this).
    #[expect(
        clippy::indexing_slicing,
        reason = "resize() guarantees `offset` is in bounds"
    )]
    pub fn insert(&mut self, id: RequestId, value: V) {
        if self.window.is_empty() {
            self.base = id.seq;
        }
        if id.seq < self.base {
            let slot = self.alloc(id, value);
            self.overflow.insert(id, slot);
            return;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the window span tracks live flows, so the offset fits in memory"
        )]
        let offset = (id.seq - self.base) as usize;
        if self.window.len() <= offset {
            self.window.resize(offset + 1, 0);
        }
        debug_assert_eq!(
            self.window[offset], 0,
            "seq {} already has a live flow (seqs must be unique)",
            id.seq
        );
        let slot = self.alloc(id, value);
        self.window[offset] = slot + 1;
        debug_assert!(
            self.window.front().is_some_and(|&s| s != 0) || self.base == id.seq,
            "window front must stay live after insert"
        );
    }

    fn slot_of(&self, id: &RequestId) -> Option<u32> {
        if id.seq >= self.base {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the window never outgrows the live flow span"
            )]
            let offset = (id.seq - self.base) as usize;
            match self.window.get(offset).copied() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "nonzero window entries always point at a live slot"
                )]
                Some(s) if s != 0 && self.slots[(s - 1) as usize].0 == *id => {
                    return Some(s - 1);
                }
                _ => {}
            }
        }
        // Fall back to the overflow map even for seqs at or above the
        // base: window compaction can move the base below an overflowed
        // seq (e.g. after the window empties and the base resets).
        self.overflow.get(id).copied()
    }

    /// Borrows the flow for `id`.
    #[expect(clippy::indexing_slicing, reason = "slot_of names only live slots")]
    pub fn get(&self, id: &RequestId) -> Option<&V> {
        self.slot_of(id).map(|s| &self.slots[s as usize].1)
    }

    /// Mutably borrows the flow for `id`.
    #[expect(clippy::indexing_slicing, reason = "slot_of names only live slots")]
    pub fn get_mut(&mut self, id: &RequestId) -> Option<&mut V> {
        self.slot_of(id).map(|s| &mut self.slots[s as usize].1)
    }

    /// Removes and returns the flow for `id`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the returned slot was just resolved from the window or the overflow map"
    )]
    pub fn remove(&mut self, id: &RequestId) -> Option<V>
    where
        V: Copy,
    {
        let window_slot = if id.seq >= self.base {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the window never outgrows the live flow span"
            )]
            let offset = (id.seq - self.base) as usize;
            match self.window.get(offset).copied() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "nonzero window entries always point at a live slot, and `offset` \
                              was just read"
                )]
                Some(s) if s != 0 && self.slots[(s - 1) as usize].0 == *id => {
                    self.window[offset] = 0;
                    // Completed flows at the front shrink the window so
                    // it tracks the live range, not the whole trace.
                    while let Some(&0) = self.window.front() {
                        self.window.pop_front();
                        self.base += 1;
                    }
                    if self.window.is_empty() {
                        self.base = 0;
                    }
                    debug_assert!(
                        self.window.front().is_none_or(|&s| s != 0),
                        "window front must be live after compaction"
                    );
                    Some(s - 1)
                }
                _ => None,
            }
        } else {
            None
        };
        // As in slot_of: an overflowed seq can sit at or above the base
        // after compaction resets it, so the window miss is not final.
        let slot = match window_slot {
            Some(s) => s,
            None => self.overflow.remove(id)?,
        };
        debug_assert!(self.len > 0, "freed a slot with no live flows");
        self.free.push(slot);
        self.len -= 1;
        Some(self.slots[slot as usize].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::ClientId;

    fn id(client: u32, seq: u64) -> RequestId {
        RequestId::new(ClientId::new(client), seq)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = FlowTable::new();
        t.insert(id(0, 0), 'a');
        t.insert(id(1, 1), 'b');
        t.insert(id(0, 2), 'c');
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&id(1, 1)), Some(&'b'));
        assert_eq!(t.get(&id(1, 3)), None);
        assert_eq!(t.remove(&id(1, 1)), Some('b'));
        assert_eq!(t.remove(&id(1, 1)), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.peak(), 3);
    }

    #[test]
    fn mismatched_client_with_same_seq_misses() {
        let mut t = FlowTable::new();
        t.insert(id(0, 7), 1u32);
        assert_eq!(t.get(&id(1, 7)), None);
        assert_eq!(t.remove(&id(1, 7)), None);
        assert_eq!(t.get(&id(0, 7)), Some(&1));
    }

    #[test]
    fn window_slides_and_slots_recycle() {
        let mut t = FlowTable::new();
        // Sequential inject/complete like the closed-loop simulator.
        for seq in 0..10_000u64 {
            t.insert(id((seq % 5) as u32, seq), seq);
            assert_eq!(t.remove(&id((seq % 5) as u32, seq)), Some(seq));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.peak(), 1);
        // One slot and an empty window serve the whole trace.
        assert!(t.slots.len() <= 1, "slots grew: {}", t.slots.len());
        assert!(t.window.len() <= 1, "window grew: {}", t.window.len());
    }

    #[test]
    fn out_of_order_completion_keeps_window_bounded() {
        let mut t = FlowTable::new();
        // Open-loop style: up to 64 flows in flight, completing in a
        // scrambled order.
        let mut live: Vec<u64> = Vec::new();
        for seq in 0..5_000u64 {
            t.insert(id(0, seq), seq * 2);
            live.push(seq);
            if live.len() == 64 {
                // Complete a middle one, the oldest, and the newest.
                for pick in [32, 0, live.len() - 1] {
                    let s = live.remove(pick.min(live.len() - 1));
                    assert_eq!(t.remove(&id(0, s)), Some(s * 2));
                }
            }
        }
        for &s in &live {
            assert_eq!(t.remove(&id(0, s)), Some(s * 2));
        }
        assert!(t.is_empty());
        assert_eq!(t.peak(), 64);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = FlowTable::new();
        t.insert(id(3, 9), 10u32);
        *t.get_mut(&id(3, 9)).unwrap() += 5;
        assert_eq!(t.remove(&id(3, 9)), Some(15));
    }

    #[test]
    fn overflow_survives_base_reset() {
        let mut t = FlowTable::new();
        t.insert(id(0, 100), 'x');
        t.insert(id(0, 50), 'y'); // overflow, behind base 100
                                  // Removing the only windowed flow empties the window and resets
                                  // the base to 0; seq 50 now compares >= base but must still be
                                  // found in the overflow map.
        assert_eq!(t.remove(&id(0, 100)), Some('x'));
        assert_eq!(t.get(&id(0, 50)), Some(&'y'));
        assert_eq!(t.remove(&id(0, 50)), Some('y'));
        assert!(t.is_empty());
    }

    #[test]
    fn pre_window_seq_goes_to_overflow() {
        let mut t = FlowTable::new();
        t.insert(id(0, 100), 'x');
        t.insert(id(0, 50), 'y'); // behind the window base
        assert_eq!(t.get(&id(0, 50)), Some(&'y'));
        assert_eq!(t.remove(&id(0, 50)), Some('y'));
        assert_eq!(t.remove(&id(0, 100)), Some('x'));
        assert!(t.is_empty());
    }
}
