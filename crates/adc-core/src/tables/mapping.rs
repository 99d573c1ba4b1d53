//! The three-table mapping structure and the paper's `Update_Entry`
//! procedure (Figure 8).
//!
//! Objects migrate single-table → multiple-table → caching table as their
//! measured request frequency improves, and fall back down when displaced.
//! An object lives in **at most one** of the three tables at any time.
//!
//! All three tables live in one store (see `store.rs`): one slot per
//! remembered object, one object index, the single-table as an LRU list
//! through the slots and the two ordered tables as indexed max-heaps. A
//! row that changes table changes only its slot's links, so every
//! `Update_Entry` costs one index probe.

use crate::config::AgingMode;
use crate::entry::{TableEntry, Tick};
use crate::ids::{Location, ObjectId};
use crate::tables::store::{Claim, Heap, Lru, OrderedView, SingleView, Slab};

/// Which table an `Update_Entry` call found (or created) the entry in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableHit {
    /// Part 1: the object was in the caching table.
    Cached,
    /// Part 2: the object was in the multiple-table.
    Multiple,
    /// Part 3: the object was in the single-table.
    Single,
    /// Part 4: the object was unknown; a fresh entry was created.
    New,
}

/// Side effects of one `Update_Entry` call that the proxy must mirror in
/// its actual object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Where the entry was found.
    pub found_in: TableHit,
    /// The object was promoted into the caching table, so its data should
    /// now be stored locally.
    pub admitted_to_cache: bool,
    /// This object was displaced from the caching table (back into the
    /// multiple-table); its data must be evicted from the store.
    pub evicted_from_cache: Option<ObjectId>,
    /// The object was promoted from the single-table into the
    /// multiple-table (it proved a measurable inter-request average).
    pub promoted_to_multiple: bool,
    /// This object was displaced from the multiple-table back onto the
    /// top of the single-table to make room for a promotion.
    pub demoted_to_single: Option<ObjectId>,
    /// This object fell off the bottom of the single-table and is
    /// forgotten entirely.
    pub forgotten: Option<ObjectId>,
}

impl UpdateOutcome {
    /// An outcome for a row found in `found_in` that moved nothing else.
    fn new(found_in: TableHit) -> Self {
        UpdateOutcome {
            found_in,
            admitted_to_cache: false,
            evicted_from_cache: None,
            promoted_to_multiple: false,
            demoted_to_single: None,
            forgotten: None,
        }
    }
}

/// Whether the structure runs the full selective-caching scheme or only
/// the mapping part (used by the LRU-caching ablation, where the actual
/// store is managed outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Selective,
    MappingOnly,
}

/// The per-proxy mapping structure: single-, multiple- and caching table.
///
/// # Examples
///
/// ```
/// use adc_core::tables::MappingTables;
/// use adc_core::{AgingMode, Location, ObjectId};
///
/// let mut tables = MappingTables::new(10, 10, 10, AgingMode::AgedWorst);
/// let obj = ObjectId::new(1);
/// // First sighting creates a single-table entry...
/// tables.update_entry(obj, Location::This, 5);
/// assert!(tables.single().contains(obj));
/// // ...a second sighting promotes it to the multiple-table.
/// tables.update_entry(obj, Location::This, 9);
/// assert!(tables.multiple().contains(obj));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTables {
    slab: Slab,
    single: Lru,
    multiple: Heap,
    cached: Heap,
    aging: AgingMode,
    mode: Mode,
}

impl MappingTables {
    /// Creates the three tables with the given capacities.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    pub fn new(
        single_capacity: usize,
        multiple_capacity: usize,
        cache_capacity: usize,
        aging: AgingMode,
    ) -> Self {
        Self::build(
            single_capacity,
            multiple_capacity,
            cache_capacity,
            aging,
            Mode::Selective,
        )
    }

    /// Creates a mapping-only variant: the caching table is never
    /// populated, so objects stop at the multiple-table. Used when the
    /// actual store runs a plain LRU policy (ablation A1).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn mapping_only(
        single_capacity: usize,
        multiple_capacity: usize,
        aging: AgingMode,
    ) -> Self {
        // Capacity 1 placeholder; never inserted into in this mode.
        Self::build(
            single_capacity,
            multiple_capacity,
            1,
            aging,
            Mode::MappingOnly,
        )
    }

    fn build(single: usize, multiple: usize, cache: usize, aging: AgingMode, mode: Mode) -> Self {
        assert!(single > 0, "single-table capacity must be positive");
        assert!(multiple > 0, "multiple-table capacity must be positive");
        assert!(cache > 0, "caching table capacity must be positive");
        MappingTables {
            slab: Slab::with_capacity(single.saturating_add(multiple).saturating_add(cache)),
            single: Lru::new(single),
            multiple: Heap::new(multiple),
            cached: Heap::new(cache),
            aging,
            mode,
        }
    }

    /// Read-only view of the single-table.
    pub fn single(&self) -> SingleView<'_> {
        SingleView::new(&self.slab, &self.single)
    }

    /// Read-only view of the multiple-table.
    pub fn multiple(&self) -> OrderedView<'_> {
        OrderedView::new(&self.slab, &self.multiple)
    }

    /// Read-only view of the caching table.
    pub fn cached(&self) -> OrderedView<'_> {
        OrderedView::new(&self.slab, &self.cached)
    }

    /// Returns `true` if the caching table lists `object` (i.e. the object
    /// data is stored locally under the selective policy).
    pub fn is_cached(&self, object: ObjectId) -> bool {
        self.slab
            .find(object)
            .is_some_and(|slot| self.cached.position(&self.slab, slot).is_some())
    }

    /// Total number of entries across the three tables.
    pub fn len(&self) -> usize {
        self.single.len() + self.multiple.len() + self.cached.len()
    }

    /// Returns `true` when all three tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the learned entry for `object`. The paper's `Forward_Addr`
    /// searches the caching table, then the multiple-table, then the
    /// single-table; an object is in at most one of them, so one index
    /// probe finds the same entry.
    pub fn lookup(&self, object: ObjectId) -> Option<&TableEntry> {
        self.slab.find(object).map(|slot| self.slab.entry(slot))
    }

    /// The paper's `Update_Entry(Object, Location)` (Figure 8).
    ///
    /// Finds the entry (caching → multiple → single), refreshes its
    /// average via `Calc_Average`, records the new `location`, and applies
    /// the promotion/demotion rules. Unknown objects get a fresh entry on
    /// top of the single-table.
    ///
    /// An update arriving at the same local time as the entry's last one
    /// refreshes only the location, not the average: the backwarding pass
    /// of a *looping* request crosses the same proxy twice without the
    /// local clock advancing, and counting that as two requests would give
    /// the object a bogus zero inter-request gap (i.e. infinite apparent
    /// popularity). "The average time between two requests" (§III.3.1)
    /// refers to two distinct requests.
    ///
    /// A row that stays in its ordered table gets a fresh sequence number,
    /// as the paper's remove-then-insert would give it: it ranks behind
    /// every row with an equal average.
    pub fn update_entry(
        &mut self,
        object: ObjectId,
        location: Location,
        now: Tick,
    ) -> UpdateOutcome {
        let outcome = self.update_entry_inner(object, location, now);
        // The paper's core structural invariant: after every update the
        // object lives in exactly one of the three tables.
        debug_assert!(
            self.slab.find(object).is_some_and(|slot| {
                usize::from(self.single.holds(&self.slab, slot))
                    + usize::from(self.multiple.position(&self.slab, slot).is_some())
                    + usize::from(self.cached.position(&self.slab, slot).is_some())
                    == 1
            }),
            "object {object} must be in exactly one table after update_entry"
        );
        debug_assert!(
            self.single.len() <= self.single.capacity()
                && self.multiple.len() <= self.multiple.capacity()
                && self.cached.len() <= self.cached.capacity(),
            "a mapping table exceeded its capacity bound"
        );
        outcome
    }

    fn update_entry_inner(
        &mut self,
        object: ObjectId,
        location: Location,
        now: Tick,
    ) -> UpdateOutcome {
        // PART 4 reuses the single-table's bottom slot when the table is
        // full, forgetting its row.
        let bottom = if self.single.is_full() {
            self.single.oldest()
        } else {
            None
        };
        let fresh = TableEntry::new(object, location, now);
        let slot = match self.slab.find_or_claim(fresh, bottom) {
            Claim::Found(slot) => slot,
            // PART 4: unknown object; a fresh entry goes on top.
            Claim::New { slot, forgotten } => {
                if forgotten.is_some() {
                    self.single.move_to_front(&mut self.slab, slot);
                } else {
                    self.single.push_front(&mut self.slab, slot);
                }
                let mut outcome = UpdateOutcome::new(TableHit::New);
                outcome.forgotten = forgotten.map(|e| e.object);
                return outcome;
            }
        };

        let entry = self.slab.entry_mut(slot);
        if entry.last != now {
            entry.calc_average(now);
        }
        entry.location = location;
        let (average, has_average) = (entry.average, entry.has_average());
        let aged = self.aging.is_aged();

        // PART 1: the object is cached; re-key it in place.
        if let Some(pos) = self.cached.position(&self.slab, slot) {
            let key = self.slab.key(average);
            self.cached.rekey(&mut self.slab, pos, key);
            return UpdateOutcome::new(TableHit::Cached);
        }

        // PART 2: in the multiple-table; maybe promote into the cache.
        if let Some(pos) = self.multiple.position(&self.slab, slot) {
            let mut outcome = UpdateOutcome::new(TableHit::Multiple);
            let promote = self.mode == Mode::Selective && self.cached().admits(average, now, aged);
            if !promote {
                let key = self.slab.key(average);
                self.multiple.rekey(&mut self.slab, pos, key);
                return outcome;
            }
            outcome.admitted_to_cache = true;
            match self.cached.worst().filter(|_| self.cached.is_full()) {
                // The cache's worst row drops into the multiple-table
                // position this object leaves, and the object takes the
                // worst row's place at the root of the cache.
                Some(worst) => {
                    outcome.evicted_from_cache = Some(self.slab.entry(worst).object);
                    let worst_key = self.slab.key(self.slab.entry(worst).average);
                    self.multiple.replace(&mut self.slab, pos, worst, worst_key);
                    let key = self.slab.key(average);
                    self.cached.replace(&mut self.slab, 0, slot, key);
                }
                None => {
                    self.multiple.remove(&mut self.slab, pos);
                    let key = self.slab.key(average);
                    self.cached.push(&mut self.slab, slot, key);
                }
            }
            return outcome;
        }

        // PART 3: in the single-table; maybe promote to the multiple-table.
        // The multiple-table "contains only objects that were requested
        // more than once": an entry that never received a real second
        // request (hits == 1, average still 0) must stay in the
        // single-table — otherwise its zero average would rank it
        // best-in-table forever.
        let mut outcome = UpdateOutcome::new(TableHit::Single);
        if !(has_average && self.multiple().admits(average, now, aged)) {
            self.single.move_to_front(&mut self.slab, slot);
            return outcome;
        }
        outcome.promoted_to_multiple = true;
        self.single.unlink(&mut self.slab, slot);
        let key = self.slab.key(average);
        match self.multiple.worst().filter(|_| self.multiple.is_full()) {
            // The multiple-table's worst row goes back on top of the
            // single-table, which this object just left.
            Some(worst) => {
                outcome.demoted_to_single = Some(self.slab.entry(worst).object);
                self.multiple.replace(&mut self.slab, 0, slot, key);
                self.single.push_front(&mut self.slab, worst);
            }
            None => self.multiple.push(&mut self.slab, slot, key),
        }
        outcome
    }

    /// Refills the tables from captured contents: `single` newest-first,
    /// `multiple` and `cached` best-first (the orders produced by the
    /// tables' iterators). Existing contents are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the contents exceed the configured capacities or list an
    /// object twice.
    pub fn restore_contents(
        &mut self,
        single: &[TableEntry],
        multiple: &[TableEntry],
        cached: &[TableEntry],
    ) {
        assert!(
            single.len() <= self.single.capacity()
                && multiple.len() <= self.multiple.capacity()
                && cached.len() <= self.cached.capacity(),
            "restored contents exceed the table capacities"
        );
        self.clear();
        // Each entry goes on top, so feed oldest first.
        for e in single.iter().rev() {
            let slot = self.slab.insert(*e);
            self.single.push_front(&mut self.slab, slot);
        }
        // Best first: each entry ranks behind the ones before it.
        for (heap, entries) in [(&mut self.multiple, multiple), (&mut self.cached, cached)] {
            for e in entries {
                let slot = self.slab.insert(*e);
                let key = self.slab.key(e.average);
                heap.push(&mut self.slab, slot, key);
            }
        }
    }

    /// Removes every entry from all three tables.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.single.clear();
        self.multiple.clear();
        self.cached.clear();
    }

    /// Asserts the structural invariants. Intended for tests and debug
    /// builds:
    ///
    /// * every table is within its capacity; the ordered tables iterate in
    ///   ascending stored average; LRU links and heap positions agree;
    /// * every live slot is indexed under its object and listed in exactly
    ///   one table, so the live slots, the index entries and the sum of the
    ///   three table lengths are one number;
    /// * the slab never outgrows the sum of the capacities: forgotten rows
    ///   give their slots back.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn assert_invariants(&self) {
        let live = self.slab.assert_invariants();
        self.single.assert_invariants(&self.slab);
        self.multiple.assert_invariants(&self.slab);
        self.cached.assert_invariants(&self.slab);
        let mut listed = vec![false; self.slab.allocated()];
        for slot in self
            .single
            .slots(&self.slab)
            .chain(self.multiple.slots())
            .chain(self.cached.slots())
        {
            #[expect(
                clippy::indexing_slicing,
                reason = "tables list only allocated slots (checked just above)"
            )]
            let seen = std::mem::replace(&mut listed[slot], true);
            assert!(!seen, "slot {slot} is listed in two tables");
        }
        assert_eq!(live, self.slab.len(), "live slots and index entries differ");
        assert_eq!(live, self.len(), "live slots and table lengths differ");
        let capacity = self.single.capacity() + self.multiple.capacity() + self.cached.capacity();
        assert!(
            self.slab.allocated() <= capacity,
            "slab holds {} slots, more than the {capacity} the tables can use",
            self.slab.allocated()
        );
        for table in [self.multiple(), self.cached()] {
            let mut prev = None;
            for e in table.iter() {
                if let Some(p) = prev {
                    assert!(p <= e.average, "ordered table out of order");
                }
                prev = Some(e.average);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(s: usize, m: usize, c: usize) -> MappingTables {
        MappingTables::new(s, m, c, AgingMode::Off)
    }

    #[test]
    fn new_object_lands_in_single_table() {
        let mut t = tables(4, 4, 4);
        let out = t.update_entry(ObjectId::new(1), Location::This, 1);
        assert_eq!(out.found_in, TableHit::New);
        assert!(t.single().contains(ObjectId::new(1)));
        assert!(!t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn second_hit_promotes_to_multiple() {
        let mut t = tables(4, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        let out = t.update_entry(ObjectId::new(1), Location::This, 11);
        assert_eq!(out.found_in, TableHit::Single);
        assert!(out.promoted_to_multiple);
        assert_eq!(out.demoted_to_single, None);
        let e = t.multiple().get(ObjectId::new(1)).unwrap();
        assert_eq!(e.average, 10);
        assert_eq!(e.hits, 2);
        t.assert_invariants();
    }

    #[test]
    fn third_hit_promotes_to_cache() {
        let mut t = tables(4, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(1), Location::This, 11);
        let out = t.update_entry(ObjectId::new(1), Location::This, 21);
        assert_eq!(out.found_in, TableHit::Multiple);
        assert!(out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn cache_hit_refreshes_in_place() {
        let mut t = tables(4, 4, 4);
        for now in [1, 11, 21] {
            t.update_entry(ObjectId::new(1), Location::This, now);
        }
        let out = t.update_entry(ObjectId::new(1), Location::This, 31);
        assert_eq!(out.found_in, TableHit::Cached);
        assert!(!out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        assert_eq!(t.cached().get(ObjectId::new(1)).unwrap().hits, 4);
    }

    #[test]
    fn full_single_table_forgets_oldest() {
        let mut t = tables(2, 4, 4);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(2), Location::This, 2);
        let out = t.update_entry(ObjectId::new(3), Location::This, 3);
        assert_eq!(out.forgotten, Some(ObjectId::new(1)));
        assert_eq!(t.single().len(), 2);
        t.assert_invariants();
    }

    #[test]
    fn cache_displacement_returns_worst_to_multiple() {
        let mut t = tables(8, 8, 1);
        // Object 1: avg 100, cached (cache has room).
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 100);
        t.update_entry(ObjectId::new(1), Location::This, 200);
        assert!(t.is_cached(ObjectId::new(1)));
        // Object 2: avg 10, much hotter; displaces object 1.
        t.update_entry(ObjectId::new(2), Location::This, 200);
        t.update_entry(ObjectId::new(2), Location::This, 210);
        let out = t.update_entry(ObjectId::new(2), Location::This, 220);
        assert!(out.admitted_to_cache);
        assert_eq!(out.evicted_from_cache, Some(ObjectId::new(1)));
        assert!(t.is_cached(ObjectId::new(2)));
        assert!(t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn worse_candidate_does_not_enter_full_cache() {
        let mut t = tables(8, 8, 1);
        // Hot object 1 (avg 10) occupies the cache.
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 10);
        t.update_entry(ObjectId::new(1), Location::This, 20);
        assert!(t.is_cached(ObjectId::new(1)));
        // Cold object 2 (avg 500) does not displace it.
        t.update_entry(ObjectId::new(2), Location::This, 20);
        t.update_entry(ObjectId::new(2), Location::This, 520);
        let out = t.update_entry(ObjectId::new(2), Location::This, 1020);
        assert!(!out.admitted_to_cache);
        assert!(t.is_cached(ObjectId::new(1)));
        assert!(t.multiple().contains(ObjectId::new(2)));
        t.assert_invariants();
    }

    #[test]
    fn multiple_table_displacement_demotes_to_single_top() {
        let t = tables(8, 1, 8);
        // Object 1 (avg 100) fills the multiple-table... and immediately
        // gets promoted to the empty cache on its 3rd hit; use a worse
        // object to keep it in the multiple-table. Simplest: fill the
        // cache first with two very hot objects so object 3 stays put.
        let mut t2 = MappingTables::new(8, 1, 1, AgingMode::Off);
        // Hot object occupies the 1-slot cache.
        t2.update_entry(ObjectId::new(9), Location::This, 0);
        t2.update_entry(ObjectId::new(9), Location::This, 1);
        t2.update_entry(ObjectId::new(9), Location::This, 2);
        assert!(t2.is_cached(ObjectId::new(9)));
        // Object 1 (avg 100) sits in the 1-slot multiple-table.
        t2.update_entry(ObjectId::new(1), Location::This, 10);
        t2.update_entry(ObjectId::new(1), Location::This, 110);
        assert!(t2.multiple().contains(ObjectId::new(1)));
        // Object 2 (avg 50) displaces object 1 back to the single-table.
        t2.update_entry(ObjectId::new(2), Location::This, 200);
        let out = t2.update_entry(ObjectId::new(2), Location::This, 250);
        assert!(out.promoted_to_multiple);
        assert_eq!(out.demoted_to_single, Some(ObjectId::new(1)));
        assert!(t2.multiple().contains(ObjectId::new(2)));
        assert!(t2.single().contains(ObjectId::new(1)));
        // Demoted entry keeps its forwarding information and history.
        let demoted = t2.single().get(ObjectId::new(1)).unwrap();
        assert_eq!(demoted.average, 100);
        assert_eq!(demoted.hits, 2);
        t2.assert_invariants();
        drop(t);
    }

    #[test]
    fn lookup_priority_is_cached_then_multiple_then_single() {
        let mut t = tables(8, 8, 8);
        t.update_entry(
            ObjectId::new(1),
            Location::Remote(crate::ProxyId::new(4)),
            1,
        );
        let e = t.lookup(ObjectId::new(1)).unwrap();
        assert_eq!(e.location, Location::Remote(crate::ProxyId::new(4)));
        assert!(t.lookup(ObjectId::new(99)).is_none());
    }

    #[test]
    fn mapping_only_never_populates_cache_table() {
        let mut t = MappingTables::mapping_only(8, 8, AgingMode::Off);
        for now in [1, 11, 21, 31, 41] {
            t.update_entry(ObjectId::new(1), Location::This, now);
        }
        assert!(!t.is_cached(ObjectId::new(1)));
        assert!(t.multiple().contains(ObjectId::new(1)));
        t.assert_invariants();
    }

    #[test]
    fn aged_admission_displaces_stale_cache_resident() {
        let mut t = MappingTables::new(8, 8, 1, AgingMode::AgedWorst);
        // Object 1: avg 100, cached, last seen t=200.
        t.update_entry(ObjectId::new(1), Location::This, 0);
        t.update_entry(ObjectId::new(1), Location::This, 100);
        t.update_entry(ObjectId::new(1), Location::This, 200);
        assert!(t.is_cached(ObjectId::new(1)));
        // Object 2: avg 400 — worse than 100 stored, but at t=1600 the
        // resident's aged average is (100 + 1400)/2 = 750 > 400.
        t.update_entry(ObjectId::new(2), Location::This, 800);
        t.update_entry(ObjectId::new(2), Location::This, 1200);
        let out = t.update_entry(ObjectId::new(2), Location::This, 1600);
        assert!(out.admitted_to_cache);
        assert_eq!(out.evicted_from_cache, Some(ObjectId::new(1)));
    }

    #[test]
    #[should_panic(expected = "exceed the table capacities")]
    fn restore_contents_rejects_contents_over_capacity() {
        let mut t = tables(2, 2, 1);
        let rows: Vec<TableEntry> = (0..2)
            .map(|i| TableEntry::new(ObjectId::new(i), Location::This, i))
            .collect();
        t.restore_contents(&[], &[], &rows);
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn restore_contents_rejects_an_object_listed_twice() {
        let mut t = tables(2, 2, 2);
        let row = TableEntry::new(ObjectId::new(1), Location::This, 0);
        t.restore_contents(&[row], &[], &[row]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = tables(0, 4, 4);
    }

    #[test]
    fn location_updates_propagate() {
        let mut t = tables(8, 8, 8);
        let p = crate::ProxyId::new(2);
        t.update_entry(ObjectId::new(1), Location::This, 1);
        t.update_entry(ObjectId::new(1), Location::Remote(p), 5);
        assert_eq!(
            t.lookup(ObjectId::new(1)).unwrap().location,
            Location::Remote(p)
        );
    }
}
