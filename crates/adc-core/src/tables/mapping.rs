//! The three-table mapping structure and the paper's `Update_Entry`
//! procedure (Figure 8).
//!
//! Objects migrate single-table → multiple-table → caching table as their
//! measured request frequency improves, and fall back down when displaced.
//! An object lives in **at most one** of the three tables at any time.

use crate::config::AgingMode;
use crate::entry::{TableEntry, Tick};
use crate::ids::{Location, ObjectId};
use crate::tables::ordered::OrderedTable;
use crate::tables::single::SingleTable;

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
    single: SingleTable,
    multiple: OrderedTable,
    cached: OrderedTable,
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
        MappingTables {
            single: SingleTable::new(single_capacity),
            multiple: OrderedTable::new(multiple_capacity),
            cached: OrderedTable::new(cache_capacity),
            aging,
            mode: Mode::Selective,
        }
    }

    /// Creates a mapping-only variant: the caching table is never
    /// populated, so objects stop at the multiple-table. Used when the
    /// actual store runs a plain LRU policy (ablation A1).
    pub fn mapping_only(
        single_capacity: usize,
        multiple_capacity: usize,
        aging: AgingMode,
    ) -> Self {
        MappingTables {
            single: SingleTable::new(single_capacity),
            multiple: OrderedTable::new(multiple_capacity),
            // Capacity 1 placeholder; never inserted into in this mode.
            cached: OrderedTable::new(1),
            aging,
            mode: Mode::MappingOnly,
        }
    }

    /// Borrows the single-table.
    pub fn single(&self) -> &SingleTable {
        &self.single
    }

    /// Borrows the multiple-table.
    pub fn multiple(&self) -> &OrderedTable {
        &self.multiple
    }

    /// Borrows the caching table.
    pub fn cached(&self) -> &OrderedTable {
        &self.cached
    }

    /// Returns `true` if the caching table lists `object` (i.e. the object
    /// data is stored locally under the selective policy).
    pub fn is_cached(&self, object: ObjectId) -> bool {
        self.cached.contains(object)
    }

    /// Total number of entries across the three tables.
    pub fn len(&self) -> usize {
        self.single.len() + self.multiple.len() + self.cached.len()
    }

    /// Returns `true` when all three tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the learned entry for `object`, searching (as the paper's
    /// `Forward_Addr` does) the caching table, then the multiple-table,
    /// then the single-table.
    pub fn lookup(&self, object: ObjectId) -> Option<&TableEntry> {
        self.cached
            .get(object)
            .or_else(|| self.multiple.get(object))
            .or_else(|| self.single.get(object))
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
    pub fn update_entry(
        &mut self,
        object: ObjectId,
        location: Location,
        now: Tick,
    ) -> UpdateOutcome {
        let outcome = self.update_entry_inner(object, location, now);
        // The paper's core structural invariant: after every update the
        // object lives in exactly one of the three tables.
        debug_assert_eq!(
            usize::from(self.single.contains(object))
                + usize::from(self.multiple.contains(object))
                + usize::from(self.cached.contains(object)),
            1,
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
        let aged = self.aging.is_aged();

        // PART 1: the object is cached; refresh in place.
        if self.mode == Mode::Selective {
            if let Some(mut entry) = self.cached.remove(object) {
                if entry.last != now {
                    entry.calc_average(now);
                }
                entry.location = location;
                self.cached.insert(entry);
                return UpdateOutcome {
                    found_in: TableHit::Cached,
                    admitted_to_cache: false,
                    evicted_from_cache: None,
                    promoted_to_multiple: false,
                    demoted_to_single: None,
                    forgotten: None,
                };
            }
        }

        // PART 2: in the multiple-table; maybe promote into the cache.
        if let Some(mut entry) = self.multiple.remove(object) {
            if entry.last != now {
                entry.calc_average(now);
            }
            entry.location = location;
            let promote =
                self.mode == Mode::Selective && self.cached.admits(entry.average, now, aged);
            if promote {
                let mut evicted_from_cache = None;
                if self.cached.is_full() {
                    // Invariant: is_full() just returned true, so the
                    // table is non-empty.
                    let worst = self
                        .cached
                        .pop_worst()
                        .expect("full caching table has a worst entry"); // adc-lint: allow(panic)
                    evicted_from_cache = Some(worst.object);
                    // The multiple-table just lost `entry`, so it has room.
                    self.multiple.insert(worst);
                }
                self.cached.insert(entry);
                return UpdateOutcome {
                    found_in: TableHit::Multiple,
                    admitted_to_cache: true,
                    evicted_from_cache,
                    promoted_to_multiple: false,
                    demoted_to_single: None,
                    forgotten: None,
                };
            }
            self.multiple.insert(entry);
            return UpdateOutcome {
                found_in: TableHit::Multiple,
                admitted_to_cache: false,
                evicted_from_cache: None,
                promoted_to_multiple: false,
                demoted_to_single: None,
                forgotten: None,
            };
        }

        // PART 3: in the single-table; maybe promote to the multiple-table.
        if let Some(mut entry) = self.single.remove(object) {
            if entry.last != now {
                entry.calc_average(now);
            }
            entry.location = location;
            // The multiple-table "contains only objects that were
            // requested more than once": an entry that never received a
            // real second request (hits == 1, average still 0) must stay
            // in the single-table — otherwise its zero average would rank
            // it best-in-table forever.
            let mut promoted_to_multiple = false;
            let mut demoted_to_single = None;
            if entry.has_average() && self.multiple.admits(entry.average, now, aged) {
                if self.multiple.is_full() {
                    // Invariant: is_full() just returned true, so the
                    // table is non-empty.
                    let worst = self
                        .multiple
                        .pop_worst()
                        .expect("full multiple-table has a worst entry"); // adc-lint: allow(panic)
                    demoted_to_single = Some(worst.object);
                    // The single-table just lost `entry`, so it has room.
                    self.single.push_top(worst);
                }
                self.multiple.insert(entry);
                promoted_to_multiple = true;
            } else {
                self.single.push_top(entry);
            }
            return UpdateOutcome {
                found_in: TableHit::Single,
                admitted_to_cache: false,
                evicted_from_cache: None,
                promoted_to_multiple,
                demoted_to_single,
                forgotten: None,
            };
        }

        // PART 4: unknown object; create a fresh entry on top.
        let entry = TableEntry::new(object, location, now);
        let forgotten = self.single.push_top(entry).map(|e| e.object);
        UpdateOutcome {
            found_in: TableHit::New,
            admitted_to_cache: false,
            evicted_from_cache: None,
            promoted_to_multiple: false,
            demoted_to_single: None,
            forgotten,
        }
    }

    /// Refills the tables from captured contents: `single` newest-first,
    /// `multiple` and `cached` best-first (the orders produced by the
    /// tables' iterators). Existing contents are discarded.
    ///
    /// # Panics
    ///
    /// Panics (via the underlying tables) if the contents exceed the
    /// configured capacities.
    pub fn restore_contents(
        &mut self,
        single: &[TableEntry],
        multiple: &[TableEntry],
        cached: &[TableEntry],
    ) {
        self.clear();
        // push_top puts each entry on top, so feed oldest first.
        for e in single.iter().rev() {
            self.single.push_top(*e);
        }
        for e in multiple {
            self.multiple.insert(*e);
        }
        for e in cached {
            self.cached.insert(*e);
        }
    }

    /// Removes every entry from all three tables.
    pub fn clear(&mut self) {
        self.single.clear();
        self.multiple.clear();
        self.cached.clear();
    }

    /// Asserts the structural invariants (object uniqueness across tables,
    /// bounded sizes). Intended for tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn assert_invariants(&self) {
        assert!(self.single.len() <= self.single.capacity());
        assert!(self.multiple.len() <= self.multiple.capacity());
        assert!(self.cached.len() <= self.cached.capacity());
        let mut seen = std::collections::BTreeSet::new();
        for e in self
            .single
            .iter()
            .chain(self.multiple.iter())
            .chain(self.cached.iter())
        {
            assert!(
                seen.insert(e.object),
                "object {} present in more than one table",
                e.object
            );
        }
        // Ordered tables really are ordered by stored average.
        for table in [&self.multiple, &self.cached] {
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
