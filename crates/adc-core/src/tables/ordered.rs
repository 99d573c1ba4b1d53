//! A standalone ordered table: the multiple- and caching-table structure
//! on its own, as `UnlimitedAdcProxy` uses it for its caching table.
//!
//! Both tables are "always ordered in ascending order of the fourth column
//! (average request time). This order allows the simple identification of
//! the object with the worst average time and quick insertions/deletions
//! based using binary search." The table runs on the same store as
//! `MappingTables`: a slab of rows, an object index and an indexed binary
//! max-heap keyed by `(average, sequence)`. The worst row is at the root
//! (O(1)); insert, remove and re-key are O(log n); the sequence number
//! makes ties deterministic (older insertion ranks better).

use crate::entry::{TableEntry, Tick};
use crate::ids::ObjectId;
use crate::tables::store::{Heap, OrderedView, Slab};

/// A bounded table of [`TableEntry`] rows kept in ascending order of the
/// stored average inter-request time (best first, worst last).
///
/// # Examples
///
/// ```
/// use adc_core::tables::OrderedTable;
/// use adc_core::{Location, ObjectId, TableEntry};
///
/// let mut t = OrderedTable::new(2);
/// let mut fast = TableEntry::new(ObjectId::new(1), Location::This, 0);
/// fast.average = 10;
/// let mut slow = TableEntry::new(ObjectId::new(2), Location::This, 0);
/// slow.average = 500;
/// t.insert(fast);
/// t.insert(slow);
/// assert_eq!(t.worst().unwrap().object, ObjectId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct OrderedTable {
    slab: Slab,
    heap: Heap,
}

impl OrderedTable {
    /// Creates an empty table bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ordered table capacity must be positive");
        OrderedTable {
            slab: Slab::with_capacity(capacity),
            heap: Heap::new(capacity),
        }
    }

    fn view(&self) -> OrderedView<'_> {
        OrderedView::new(&self.slab, &self.heap)
    }

    /// The configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.heap.is_full()
    }

    /// Returns `true` if `object` has an entry.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.slab.find(object).is_some()
    }

    /// Borrows the entry for `object`, if present.
    pub fn get(&self, object: ObjectId) -> Option<&TableEntry> {
        self.slab.find(object).map(|slot| self.slab.entry(slot))
    }

    /// Removes and returns the entry for `object` (the paper's
    /// `RemoveEntry`).
    pub fn remove(&mut self, object: ObjectId) -> Option<TableEntry> {
        let slot = self.slab.unindex(object)?;
        if let Some(pos) = self.heap.position(&self.slab, slot) {
            self.heap.remove(&mut self.slab, pos);
        }
        let entry = self.slab.free(slot);
        self.debug_check();
        Some(entry)
    }

    /// Inserts `entry` at its ordered position (the paper's
    /// `InsertOrdered`).
    ///
    /// The caller is expected to have made room first (the `Update_Entry`
    /// procedure always removes the displaced worst entry before
    /// inserting); if the table is already full the worst entry is evicted
    /// and returned so the invariant `len <= capacity` can never break.
    ///
    /// # Panics
    ///
    /// Panics if `entry.object` is already present; remove it first.
    pub fn insert(&mut self, entry: TableEntry) -> Option<TableEntry> {
        let evicted = if self.is_full() {
            self.pop_worst()
        } else {
            None
        };
        let slot = self.slab.insert(entry);
        let key = self.slab.key(entry.average);
        self.heap.push(&mut self.slab, slot, key);
        self.debug_check();
        evicted
    }

    /// Borrows the entry with the worst (largest) average, i.e. the last
    /// row of the paper's tables.
    pub fn worst(&self) -> Option<&TableEntry> {
        self.view().worst()
    }

    /// Borrows the entry with the best (smallest) average. The heap keeps
    /// only the worst entry at hand, so this scans: O(n).
    pub fn best(&self) -> Option<&TableEntry> {
        self.view().best()
    }

    /// Removes and returns the worst entry (the paper's
    /// `RemoveLastEntry`).
    pub fn pop_worst(&mut self) -> Option<TableEntry> {
        let slot = self.heap.worst()?;
        self.heap.remove(&mut self.slab, 0);
        let entry = self.slab.free(slot);
        self.slab.unindex(entry.object);
        Some(entry)
    }

    /// The stored average of the worst entry; `None` when the table still
    /// has room (in which case any candidate is admitted).
    pub fn worst_average(&self) -> Option<Tick> {
        if self.is_full() {
            self.worst().map(|e| e.average)
        } else {
            None
        }
    }

    /// The *aged* average of the worst entry (Figure 4 of the paper),
    /// `None` when the table still has room.
    pub fn worst_aged_average(&self, now: Tick) -> Option<Tick> {
        if self.is_full() {
            self.worst().map(|e| e.aged_average(now))
        } else {
            None
        }
    }

    /// Decides whether a candidate with stored average `average` may enter
    /// the table at time `now`.
    ///
    /// Admission is automatic while the table has room; once full, the
    /// candidate "[has] to have a lower average value than the worst case
    /// currently residing in the table". With `aged == true` the worst
    /// entry's threshold is its aged average.
    pub fn admits(&self, average: Tick, now: Tick, aged: bool) -> bool {
        self.view().admits(average, now, aged)
    }

    /// Iterates entries best-to-worst; sorts on demand, O(n log n).
    pub fn iter(&self) -> impl Iterator<Item = &TableEntry> {
        self.view().iter()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.heap.clear();
    }

    /// Debug-build invariants, O(1): the index and the heap hold the same
    /// number of rows, within the capacity bound.
    #[inline]
    fn debug_check(&self) {
        debug_assert_eq!(
            self.slab.len(),
            self.heap.len(),
            "object index and heap must stay in sync"
        );
        debug_assert!(
            self.heap.len() <= self.heap.capacity(),
            "ordered table exceeded its capacity bound"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Location;

    fn entry(id: u64, average: Tick, last: Tick) -> TableEntry {
        let mut e = TableEntry::new(ObjectId::new(id), Location::This, last);
        e.average = average;
        e.hits = 2;
        e
    }

    #[test]
    fn keeps_ascending_order() {
        let mut t = OrderedTable::new(10);
        t.insert(entry(1, 300, 0));
        t.insert(entry(2, 100, 0));
        t.insert(entry(3, 200, 0));
        let avgs: Vec<Tick> = t.iter().map(|e| e.average).collect();
        assert_eq!(avgs, vec![100, 200, 300]);
        assert_eq!(t.best().unwrap().object, ObjectId::new(2));
        assert_eq!(t.worst().unwrap().object, ObjectId::new(1));
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut t = OrderedTable::new(10);
        t.insert(entry(1, 100, 0));
        t.insert(entry(2, 100, 0));
        // Entry 2 arrived later, so it is "worse" among equals.
        assert_eq!(t.worst().unwrap().object, ObjectId::new(2));
    }

    #[test]
    fn admits_everything_until_full() {
        let mut t = OrderedTable::new(2);
        assert!(t.admits(u64::MAX, 0, false));
        t.insert(entry(1, 10, 0));
        assert!(t.admits(u64::MAX, 0, false));
        t.insert(entry(2, 20, 0));
        assert!(!t.admits(20, 0, false));
        assert!(t.admits(19, 0, false));
    }

    #[test]
    fn aged_admission_lets_candidates_beat_stale_worst() {
        let mut t = OrderedTable::new(1);
        // Worst entry: avg 100, last seen at t=0.
        t.insert(entry(1, 100, 0));
        // Plain admission: candidate with avg 150 rejected.
        assert!(!t.admits(150, 1000, false));
        // Aged: worst aged avg = (100 + 1000) / 2 = 550, so 150 enters.
        assert!(t.admits(150, 1000, true));
    }

    #[test]
    fn insert_when_full_evicts_worst() {
        let mut t = OrderedTable::new(2);
        t.insert(entry(1, 10, 0));
        t.insert(entry(2, 500, 0));
        let evicted = t.insert(entry(3, 100, 0)).expect("eviction");
        assert_eq!(evicted.object, ObjectId::new(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.worst().unwrap().object, ObjectId::new(3));
    }

    #[test]
    fn remove_then_reinsert_reorders() {
        let mut t = OrderedTable::new(10);
        t.insert(entry(1, 100, 0));
        t.insert(entry(2, 200, 0));
        let mut e = t.remove(ObjectId::new(2)).unwrap();
        e.average = 50;
        t.insert(e);
        assert_eq!(t.best().unwrap().object, ObjectId::new(2));
    }

    #[test]
    fn pop_worst_empties_table() {
        let mut t = OrderedTable::new(4);
        for i in 0..4 {
            t.insert(entry(i, i * 10, 0));
        }
        let mut seen = Vec::new();
        while let Some(e) = t.pop_worst() {
            seen.push(e.average);
        }
        assert_eq!(seen, vec![30, 20, 10, 0]);
        assert!(t.is_empty());
        assert_eq!(t.worst_average(), None);
    }

    #[test]
    fn worst_average_none_until_full() {
        let mut t = OrderedTable::new(2);
        t.insert(entry(1, 10, 0));
        assert_eq!(t.worst_average(), None);
        t.insert(entry(2, 20, 0));
        assert_eq!(t.worst_average(), Some(20));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = OrderedTable::new(0);
    }

    #[test]
    fn get_and_contains() {
        let mut t = OrderedTable::new(2);
        t.insert(entry(7, 10, 0));
        assert!(t.contains(ObjectId::new(7)));
        assert_eq!(t.get(ObjectId::new(7)).unwrap().average, 10);
        assert!(!t.contains(ObjectId::new(8)));
        assert!(t.get(ObjectId::new(8)).is_none());
    }
}
