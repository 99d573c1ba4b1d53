//! The store underneath the mapping tables: one slab of [`TableEntry`]
//! slots with a free list, one object index, an LRU list linked through
//! the slots (the single-table) and indexed binary max-heaps on
//! `(average, seq)` (the multiple- and caching tables).
//!
//! An object's row keeps its slot for as long as the proxy remembers the
//! object. Moving the row between tables relinks the slot; it never
//! copies the row or touches the index, so finding a row costs one index
//! probe however it then moves.
//!
//! Every slot number held by the index, an LRU link or a heap node names
//! a live slot, and every heap position held in a slot's [`Place`] is
//! below its heap's length: links are rewired before a slot is freed, and
//! each heap write updates the moved slot's position in the same step.
//! `MappingTables::assert_invariants` checks all of it.

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

use crate::entry::{TableEntry, Tick};
use crate::ids::ObjectId;
use std::collections::hash_map::Entry;
// It stays randomized because in `adc-net` object ids arrive off the wire.
#[expect(
    clippy::disallowed_types,
    reason = "the index is keyed-only: rows are listed by following LRU links or by sorting \
              heap keys, never by walking the map, so the randomized hasher cannot leak into \
              any observable order"
)]
use std::collections::HashMap;

/// Marks a missing LRU neighbour.
const NIL: usize = usize::MAX;

/// Where a slot sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// On the free list.
    Free,
    /// In the LRU list between its newer and older neighbours.
    Lru { newer: usize, older: usize },
    /// At this position of an ordered table's heap.
    Heap(usize),
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: TableEntry,
    place: Place,
}

/// Order key of an ordered table: ascending stored average, first in,
/// first out among equal averages. `seq` is unique, so keys never tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    average: Tick,
    seq: u64,
}

/// What [`Slab::find_or_claim`] found.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Claim {
    /// The object already had this slot.
    Found(usize),
    /// The object was unknown and now owns `slot`. When the slot was
    /// reused, `forgotten` is the row it held before.
    New {
        slot: usize,
        forgotten: Option<TableEntry>,
    },
}

/// Slots, free list, object index and the order-key counter.
#[derive(Debug, Clone)]
pub(crate) struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    index: HashMap<ObjectId, usize>,
    next_seq: u64,
}

impl Slab {
    /// An empty slab with room reserved for `capacity` rows, capped so a
    /// huge configured bound does not reserve memory up front.
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    pub(crate) fn with_capacity(capacity: usize) -> Slab {
        let reserve = capacity.min(1 << 20);
        Slab {
            slots: Vec::with_capacity(reserve),
            free: Vec::new(),
            index: HashMap::with_capacity(reserve),
            next_seq: 0,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "slot numbers only come from the index, links and heap nodes, which name \
                  live slots (module invariant)"
    )]
    fn slot(&self, slot: usize) -> &Slot {
        &self.slots[slot]
    }

    #[expect(clippy::indexing_slicing, reason = "same invariant as `slot`")]
    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        &mut self.slots[slot]
    }

    /// The object's slot: one index probe.
    pub(crate) fn find(&self, object: ObjectId) -> Option<usize> {
        self.index.get(&object).copied()
    }

    /// The row in `slot`.
    pub(crate) fn entry(&self, slot: usize) -> &TableEntry {
        &self.slot(slot).entry
    }

    /// The row in `slot`, for an in-place refresh.
    pub(crate) fn entry_mut(&mut self, slot: usize) -> &mut TableEntry {
        &mut self.slot_mut(slot).entry
    }

    /// A fresh order key for a row with this stored average.
    pub(crate) fn key(&mut self, average: Tick) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        Key { average, seq }
    }

    /// Stores `entry` in a free or new slot and indexes its object.
    ///
    /// # Panics
    ///
    /// Panics if the object already has a slot: two slots for one object
    /// would leave one of them unreachable.
    pub(crate) fn insert(&mut self, entry: TableEntry) -> usize {
        let slot = take_slot(&mut self.slots, &mut self.free, entry);
        let previous = self.index.insert(entry.object, slot);
        assert!(previous.is_none(), "object {} stored twice", entry.object);
        slot
    }

    /// Finds `entry.object`'s slot with one index probe. An unknown object
    /// gets a slot holding `entry`: `reuse` if given, whose row is
    /// forgotten (its object unindexed, its links left for the caller to
    /// rewire), or else a free or new one.
    pub(crate) fn find_or_claim(&mut self, entry: TableEntry, reuse: Option<usize>) -> Claim {
        let slot = match self.index.entry(entry.object) {
            Entry::Occupied(found) => return Claim::Found(*found.get()),
            Entry::Vacant(vacant) => {
                let slot = match reuse {
                    Some(slot) => slot,
                    None => take_slot(&mut self.slots, &mut self.free, entry),
                };
                *vacant.insert(slot)
            }
        };
        let forgotten = reuse.map(|slot| {
            let old = std::mem::replace(self.entry_mut(slot), entry);
            self.index.remove(&old.object);
            old
        });
        Claim::New { slot, forgotten }
    }

    /// Unindexes `object` and returns its slot, still holding the row,
    /// for the caller to unlink and [`free`](Slab::free).
    pub(crate) fn unindex(&mut self, object: ObjectId) -> Option<usize> {
        self.index.remove(&object)
    }

    /// Puts the unlinked, unindexed `slot` on the free list and returns
    /// its row.
    pub(crate) fn free(&mut self, slot: usize) -> TableEntry {
        let freed = self.slot_mut(slot);
        freed.place = Place::Free;
        let entry = freed.entry;
        self.free.push(slot);
        entry
    }

    /// Rows currently stored.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Slots allocated so far, live or free.
    pub(crate) fn allocated(&self) -> usize {
        self.slots.len()
    }

    /// Frees every slot at once.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
    }

    /// Asserts the slab's own invariants: every live slot is indexed under
    /// its object, the index holds nothing else, and the free list holds
    /// exactly the free slots. Returns the number of live slots.
    pub(crate) fn assert_invariants(&self) -> usize {
        let mut live = 0;
        let mut free = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.place == Place::Free {
                free += 1;
            } else {
                live += 1;
                assert_eq!(
                    self.find(slot.entry.object),
                    Some(i),
                    "live slot {i} is not indexed under its object"
                );
            }
        }
        assert_eq!(live, self.index.len(), "index entries without a live slot");
        assert_eq!(
            free,
            self.free.len(),
            "free list out of step with free slots"
        );
        live
    }
}

/// Pops a free slot or appends a new one, storing `entry` in it.
#[expect(
    clippy::indexing_slicing,
    reason = "free-list entries are slot numbers below `slots.len()`"
)]
fn take_slot(slots: &mut Vec<Slot>, free: &mut Vec<usize>, entry: TableEntry) -> usize {
    let slot = Slot {
        entry,
        place: Place::Free,
    };
    match free.pop() {
        Some(i) => {
            slots[i] = slot;
            i
        }
        None => {
            slots.push(slot);
            slots.len() - 1
        }
    }
}

/// The single-table's LRU list, linked through the slab.
#[derive(Debug, Clone)]
pub(crate) struct Lru {
    capacity: usize,
    len: usize,
    newest: usize,
    oldest: usize,
}

impl Lru {
    pub(crate) fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            len: 0,
            newest: NIL,
            oldest: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// The least recently placed slot.
    pub(crate) fn oldest(&self) -> Option<usize> {
        (self.oldest != NIL).then_some(self.oldest)
    }

    /// Whether `slot` is on this list.
    pub(crate) fn holds(&self, slab: &Slab, slot: usize) -> bool {
        matches!(slab.slot(slot).place, Place::Lru { .. })
    }

    /// Links `slot` in as the newest row.
    pub(crate) fn push_front(&mut self, slab: &mut Slab, slot: usize) {
        slab.slot_mut(slot).place = Place::Lru {
            newer: NIL,
            older: self.newest,
        };
        if self.newest == NIL {
            self.oldest = slot;
        } else {
            set_newer(slab, self.newest, slot);
        }
        self.newest = slot;
        self.len += 1;
    }

    /// Unlinks `slot`, which must be on this list.
    pub(crate) fn unlink(&mut self, slab: &mut Slab, slot: usize) {
        let place = slab.slot(slot).place;
        debug_assert!(self.holds(slab, slot), "unlink of a slot off the LRU list");
        let Place::Lru { newer, older } = place else {
            return;
        };
        if newer == NIL {
            self.newest = older;
        } else {
            set_older(slab, newer, older);
        }
        if older == NIL {
            self.oldest = newer;
        } else {
            set_newer(slab, older, newer);
        }
        self.len -= 1;
    }

    /// Makes `slot`, which must be on this list, the newest row.
    pub(crate) fn move_to_front(&mut self, slab: &mut Slab, slot: usize) {
        if self.newest != slot {
            self.unlink(slab, slot);
            self.push_front(slab, slot);
        }
    }

    /// Slots newest to oldest.
    pub(crate) fn slots<'a>(&self, slab: &'a Slab) -> impl Iterator<Item = usize> + 'a {
        let mut cursor = self.newest;
        std::iter::from_fn(move || {
            let slot = (cursor != NIL).then_some(cursor)?;
            cursor = match slab.slot(slot).place {
                Place::Lru { older, .. } => older,
                Place::Free | Place::Heap(_) => NIL,
            };
            Some(slot)
        })
    }

    pub(crate) fn clear(&mut self) {
        *self = Lru::new(self.capacity);
    }

    /// Asserts that the links run both ways, end at `newest`/`oldest` and
    /// cover exactly `len` slots.
    pub(crate) fn assert_invariants(&self, slab: &Slab) {
        let (mut count, mut newer, mut cursor) = (0, NIL, self.newest);
        while cursor != NIL {
            let Place::Lru { newer: back, older } = slab.slot(cursor).place else {
                panic!("slot {cursor} is linked into the LRU list but not placed there");
            };
            assert_eq!(back, newer, "LRU back link of slot {cursor} is wrong");
            count += 1;
            assert!(count <= self.len, "LRU list longer than its length");
            (newer, cursor) = (cursor, older);
        }
        assert_eq!(
            newer, self.oldest,
            "LRU list does not end at its oldest slot"
        );
        assert_eq!(count, self.len, "LRU list shorter than its length");
        assert!(
            self.len <= self.capacity,
            "single-table exceeded its capacity"
        );
    }
}

fn set_newer(slab: &mut Slab, slot: usize, to: usize) {
    if let Place::Lru { newer, .. } = &mut slab.slot_mut(slot).place {
        *newer = to;
    }
}

fn set_older(slab: &mut Slab, slot: usize, to: usize) {
    if let Place::Lru { older, .. } = &mut slab.slot_mut(slot).place {
        *older = to;
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: Key,
    slot: usize,
}

/// An ordered table as an indexed binary max-heap: the worst row (largest
/// key) is at the root, and each slot records its heap position so any
/// row can be re-keyed or removed in O(log n).
#[derive(Debug, Clone)]
pub(crate) struct Heap {
    capacity: usize,
    nodes: Vec<Node>,
}

impl Heap {
    pub(crate) fn new(capacity: usize) -> Heap {
        Heap {
            capacity,
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn is_full(&self) -> bool {
        self.nodes.len() >= self.capacity
    }

    /// The worst row's slot, in O(1).
    pub(crate) fn worst(&self) -> Option<usize> {
        self.nodes.first().map(|n| n.slot)
    }

    /// `slot`'s position in this heap, if it is here.
    pub(crate) fn position(&self, slab: &Slab, slot: usize) -> Option<usize> {
        match slab.slot(slot).place {
            Place::Heap(pos) if self.nodes.get(pos).is_some_and(|n| n.slot == slot) => Some(pos),
            Place::Free | Place::Lru { .. } | Place::Heap(_) => None,
        }
    }

    /// Adds `slot` under `key`.
    pub(crate) fn push(&mut self, slab: &mut Slab, slot: usize, key: Key) {
        self.nodes.push(Node { key, slot });
        self.sift_up(slab, self.nodes.len() - 1);
    }

    /// Removes the row at `pos`, which must be below `len`, and returns
    /// its slot, whose place the caller sets next.
    pub(crate) fn remove(&mut self, slab: &mut Slab, pos: usize) -> usize {
        let removed = self.nodes.swap_remove(pos);
        if pos < self.nodes.len() {
            self.settle(slab, pos);
        }
        removed.slot
    }

    /// Gives the row at `pos` a new key.
    pub(crate) fn rekey(&mut self, slab: &mut Slab, pos: usize, key: Key) {
        let slot = self.node(pos).slot;
        self.replace(slab, pos, slot, key);
    }

    /// Puts `slot` under `key` where the row at `pos` was, and returns the
    /// slot it displaced, whose place the caller sets next.
    pub(crate) fn replace(&mut self, slab: &mut Slab, pos: usize, slot: usize, key: Key) -> usize {
        let displaced = self.node(pos).slot;
        self.put(slab, pos, Node { key, slot });
        self.settle(slab, pos);
        displaced
    }

    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Slots held, in heap order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().map(|n| n.slot)
    }

    /// Asserts the heap order, that every node's key carries its row's
    /// stored average, and that every slot knows its position.
    pub(crate) fn assert_invariants(&self, slab: &Slab) {
        assert!(
            self.len() <= self.capacity,
            "ordered table exceeded its capacity"
        );
        for (pos, node) in self.nodes.iter().enumerate() {
            assert_eq!(
                slab.slot(node.slot).place,
                Place::Heap(pos),
                "slot {} does not know its heap position {pos}",
                node.slot
            );
            assert_eq!(
                node.key.average,
                slab.entry(node.slot).average,
                "heap key of slot {} is stale",
                node.slot
            );
            if pos > 0 {
                assert!(
                    self.node((pos - 1) / 2).key > node.key,
                    "heap order broken at position {pos}"
                );
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass positions below `len`: a slot's recorded position, the root \
                  of a non-empty heap, or a parent/child checked against `len` in the sift \
                  loops"
    )]
    fn node(&self, pos: usize) -> Node {
        self.nodes[pos]
    }

    #[expect(clippy::indexing_slicing, reason = "same bound as `node`")]
    fn put(&mut self, slab: &mut Slab, pos: usize, node: Node) {
        self.nodes[pos] = node;
        slab.slot_mut(node.slot).place = Place::Heap(pos);
    }

    /// Restores heap order around `pos` after its key changed.
    fn settle(&mut self, slab: &mut Slab, pos: usize) {
        if pos > 0 && self.node(pos).key > self.node((pos - 1) / 2).key {
            self.sift_up(slab, pos);
        } else {
            self.sift_down(slab, pos);
        }
    }

    fn sift_up(&mut self, slab: &mut Slab, mut pos: usize) {
        let node = self.node(pos);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.node(parent);
            if above.key > node.key {
                break;
            }
            self.put(slab, pos, above);
            pos = parent;
        }
        self.put(slab, pos, node);
    }

    fn sift_down(&mut self, slab: &mut Slab, mut pos: usize) {
        let node = self.node(pos);
        let len = self.nodes.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.node(right).key > self.node(left).key {
                right
            } else {
                left
            };
            let below = self.node(child);
            if node.key > below.key {
                break;
            }
            self.put(slab, pos, below);
            pos = child;
        }
        self.put(slab, pos, node);
    }
}

/// Read-only view of the single-table: newest row first.
#[derive(Debug, Clone, Copy)]
pub struct SingleView<'a> {
    slab: &'a Slab,
    lru: &'a Lru,
}

impl<'a> SingleView<'a> {
    pub(crate) fn new(slab: &'a Slab, lru: &'a Lru) -> Self {
        SingleView { slab, lru }
    }

    /// The configured maximum number of rows.
    pub fn capacity(self) -> usize {
        self.lru.capacity()
    }

    /// Number of rows stored.
    pub fn len(self) -> usize {
        self.lru.len()
    }

    /// Returns `true` when no rows are stored.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `object` has a row here.
    pub fn contains(self, object: ObjectId) -> bool {
        self.get(object).is_some()
    }

    /// Borrows `object`'s row, if it is here.
    pub fn get(self, object: ObjectId) -> Option<&'a TableEntry> {
        let slot = self.slab.find(object)?;
        self.lru
            .holds(self.slab, slot)
            .then(|| self.slab.entry(slot))
    }

    /// Iterates rows newest to oldest.
    pub fn iter(self) -> impl Iterator<Item = &'a TableEntry> + 'a {
        let slab = self.slab;
        self.lru.slots(slab).map(move |slot| slab.entry(slot))
    }
}

/// Read-only view of an ordered table: rows in ascending order of stored
/// average (best first, worst last), first in, first out among equals.
#[derive(Debug, Clone, Copy)]
pub struct OrderedView<'a> {
    slab: &'a Slab,
    heap: &'a Heap,
}

impl<'a> OrderedView<'a> {
    pub(crate) fn new(slab: &'a Slab, heap: &'a Heap) -> Self {
        OrderedView { slab, heap }
    }

    /// The configured maximum number of rows.
    pub fn capacity(self) -> usize {
        self.heap.capacity()
    }

    /// Number of rows stored.
    pub fn len(self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no rows are stored.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the table is at capacity.
    pub fn is_full(self) -> bool {
        self.heap.is_full()
    }

    /// Returns `true` if `object` has a row here.
    pub fn contains(self, object: ObjectId) -> bool {
        self.get(object).is_some()
    }

    /// Borrows `object`'s row, if it is here.
    pub fn get(self, object: ObjectId) -> Option<&'a TableEntry> {
        let slot = self.slab.find(object)?;
        self.heap.position(self.slab, slot)?;
        Some(self.slab.entry(slot))
    }

    /// The row with the worst (largest) average, the last row of the
    /// paper's tables; O(1).
    pub fn worst(self) -> Option<&'a TableEntry> {
        self.heap.worst().map(|slot| self.slab.entry(slot))
    }

    /// The row with the best (smallest) average; a linear scan, since the
    /// heap keeps only the worst row at hand.
    pub fn best(self) -> Option<&'a TableEntry> {
        let best = self.heap.nodes.iter().min_by_key(|n| n.key)?;
        Some(self.slab.entry(best.slot))
    }

    /// Decides whether a candidate with stored average `average` may enter
    /// at time `now`: always while the table has room; once it is full,
    /// only below the worst row's average, aged to `now` when `aged`.
    pub fn admits(self, average: Tick, now: Tick, aged: bool) -> bool {
        match self.worst() {
            Some(worst) if self.is_full() => {
                let threshold = if aged {
                    worst.aged_average(now)
                } else {
                    worst.average
                };
                average < threshold
            }
            _ => true,
        }
    }

    /// Iterates rows best to worst. The heap keeps only the worst row at
    /// hand, so this sorts a copy of the keys first: O(n log n), meant for
    /// snapshots and tests.
    pub fn iter(self) -> impl Iterator<Item = &'a TableEntry> + 'a {
        let mut nodes = self.heap.nodes.clone();
        nodes.sort_unstable_by_key(|n| n.key);
        let slab = self.slab;
        nodes.into_iter().map(move |n| slab.entry(n.slot))
    }
}
