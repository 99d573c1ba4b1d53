//! Property-based tests of the mapping-table machinery.

use adc_core::tables::{MappingTables, OrderedTable, TableHit, UpdateOutcome};
use adc_core::{AgingMode, Location, ObjectId, ProxyId, TableEntry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An arbitrary update: which object, reported location, and how far the
/// local clock advances before the update.
#[derive(Debug, Clone, Copy)]
struct Update {
    object: u64,
    location: Option<u32>,
    advance: u64,
}

fn arb_updates(max: usize, universe: u64) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec((0..universe, prop::option::of(0u32..4), 0u64..5), 1..max).prop_map(|v| {
        v.into_iter()
            .map(|(object, location, advance)| Update {
                object,
                location,
                advance,
            })
            .collect()
    })
}

fn location_of(u: Update) -> Location {
    match u.location {
        None => Location::This,
        Some(p) => Location::Remote(ProxyId::new(p)),
    }
}

/// A literal model of the paper's `Update_Entry` (Figure 8): three plain
/// vectors searched linearly. The single-table is newest first; the
/// ordered tables keep ascending `(average, insertion counter)`, so equal
/// averages stay first-in-first-out.
#[derive(Debug)]
struct Figure8 {
    single: Vec<TableEntry>,
    multiple: Vec<(u64, TableEntry)>,
    cached: Vec<(u64, TableEntry)>,
    capacities: (usize, usize, usize),
    aged: bool,
    selective: bool,
    counter: u64,
}

impl Figure8 {
    fn new(capacities: (usize, usize, usize), aged: bool, selective: bool) -> Self {
        Figure8 {
            single: Vec::new(),
            multiple: Vec::new(),
            cached: Vec::new(),
            capacities,
            aged,
            selective,
            counter: 0,
        }
    }

    fn insert_ordered(table: &mut Vec<(u64, TableEntry)>, counter: &mut u64, entry: TableEntry) {
        *counter += 1;
        let key = (entry.average, *counter);
        let at = table
            .iter()
            .position(|&(seq, e)| (e.average, seq) > key)
            .unwrap_or(table.len());
        table.insert(at, (*counter, entry));
    }

    fn take(table: &mut Vec<(u64, TableEntry)>, object: ObjectId) -> Option<TableEntry> {
        let at = table.iter().position(|(_, e)| e.object == object)?;
        Some(table.remove(at).1)
    }

    fn admits(
        table: &[(u64, TableEntry)],
        capacity: usize,
        average: u64,
        now: u64,
        aged: bool,
    ) -> bool {
        match table.last() {
            Some(&(_, worst)) if table.len() >= capacity => {
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

    fn refresh(entry: &mut TableEntry, location: Location, now: u64) {
        if entry.last != now {
            entry.calc_average(now);
        }
        entry.location = location;
    }

    fn update(&mut self, object: ObjectId, location: Location, now: u64) -> UpdateOutcome {
        let (single_cap, multiple_cap, cache_cap) = self.capacities;
        let mut out = UpdateOutcome {
            found_in: TableHit::New,
            admitted_to_cache: false,
            evicted_from_cache: None,
            promoted_to_multiple: false,
            demoted_to_single: None,
            forgotten: None,
        };
        if self.selective {
            if let Some(mut entry) = Self::take(&mut self.cached, object) {
                Self::refresh(&mut entry, location, now);
                Self::insert_ordered(&mut self.cached, &mut self.counter, entry);
                out.found_in = TableHit::Cached;
                return out;
            }
        }
        if let Some(mut entry) = Self::take(&mut self.multiple, object) {
            Self::refresh(&mut entry, location, now);
            out.found_in = TableHit::Multiple;
            if self.selective
                && Self::admits(&self.cached, cache_cap, entry.average, now, self.aged)
            {
                if self.cached.len() >= cache_cap {
                    let (_, worst) = self.cached.pop().expect("full table has a worst row");
                    out.evicted_from_cache = Some(worst.object);
                    Self::insert_ordered(&mut self.multiple, &mut self.counter, worst);
                }
                Self::insert_ordered(&mut self.cached, &mut self.counter, entry);
                out.admitted_to_cache = true;
            } else {
                Self::insert_ordered(&mut self.multiple, &mut self.counter, entry);
            }
            return out;
        }
        if let Some(at) = self.single.iter().position(|e| e.object == object) {
            let mut entry = self.single.remove(at);
            Self::refresh(&mut entry, location, now);
            out.found_in = TableHit::Single;
            if entry.has_average()
                && Self::admits(&self.multiple, multiple_cap, entry.average, now, self.aged)
            {
                if self.multiple.len() >= multiple_cap {
                    let (_, worst) = self.multiple.pop().expect("full table has a worst row");
                    out.demoted_to_single = Some(worst.object);
                    self.single.insert(0, worst);
                }
                Self::insert_ordered(&mut self.multiple, &mut self.counter, entry);
                out.promoted_to_multiple = true;
            } else {
                self.single.insert(0, entry);
            }
            return out;
        }
        if self.single.len() >= single_cap {
            out.forgotten = self.single.pop().map(|e| e.object);
        }
        self.single
            .insert(0, TableEntry::new(object, location, now));
        out
    }

    fn lookup(&self, object: ObjectId) -> Option<TableEntry> {
        self.cached
            .iter()
            .chain(&self.multiple)
            .map(|&(_, e)| e)
            .chain(self.single.iter().copied())
            .find(|e| e.object == object)
    }
}

fn rows(table: &[(u64, TableEntry)]) -> Vec<TableEntry> {
    table.iter().map(|&(_, e)| e).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `MappingTables` is exactly the Figure 8 model: the same outcome for
    /// every update, and the same rows in the same iteration order in all
    /// three tables afterwards. Small clock advances make zero gaps and
    /// equal averages common, so first-in-first-out tie order is checked.
    #[test]
    fn mapping_tables_match_figure_8_model(
        updates in arb_updates(300, 24),
        single in 1usize..7,
        multiple in 1usize..7,
        cache in 1usize..5,
        aged in any::<bool>(),
        mapping_only in any::<bool>(),
    ) {
        let aging = if aged { AgingMode::AgedWorst } else { AgingMode::Off };
        let (mut tables, mut model) = if mapping_only {
            (
                MappingTables::mapping_only(single, multiple, aging),
                Figure8::new((single, multiple, 1), aged, false),
            )
        } else {
            (
                MappingTables::new(single, multiple, cache, aging),
                Figure8::new((single, multiple, cache), aged, true),
            )
        };
        let mut now = 0;
        for u in updates {
            now += u.advance;
            let object = ObjectId::new(u.object);
            let got = tables.update_entry(object, location_of(u), now);
            let want = model.update(object, location_of(u), now);
            prop_assert_eq!(got, want);
            prop_assert_eq!(tables.single().iter().copied().collect::<Vec<_>>(), model.single.clone());
            prop_assert_eq!(tables.multiple().iter().copied().collect::<Vec<_>>(), rows(&model.multiple));
            prop_assert_eq!(tables.cached().iter().copied().collect::<Vec<_>>(), rows(&model.cached));
            prop_assert_eq!(tables.lookup(object).copied(), model.lookup(object));
            prop_assert_eq!(tables.is_cached(object), model.cached.iter().any(|(_, e)| e.object == object));
            prop_assert_eq!(tables.len(), model.single.len() + model.multiple.len() + model.cached.len());
        }
    }

    /// Invariants hold after any update sequence, for any capacities and
    /// either aging mode.
    #[test]
    fn mapping_tables_invariants(
        updates in arb_updates(400, 60),
        single in 1usize..20,
        multiple in 1usize..20,
        cache in 1usize..10,
        aged in any::<bool>(),
    ) {
        let aging = if aged { AgingMode::AgedWorst } else { AgingMode::Off };
        let mut tables = MappingTables::new(single, multiple, cache, aging);
        let mut now = 0;
        for u in updates {
            now += u.advance;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            tables.assert_invariants();
        }
    }

    /// An object reported at least twice at distinct times is known
    /// afterwards unless capacity pressure displaced it; an object never
    /// reported is never known.
    #[test]
    fn lookup_soundness(updates in arb_updates(200, 40)) {
        let mut tables = MappingTables::new(64, 64, 32, AgingMode::Off);
        let mut now = 0;
        let mut reported = std::collections::HashSet::new();
        for u in updates {
            now += u.advance + 1;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            reported.insert(u.object);
        }
        // Tables are big enough that nothing is displaced here.
        for o in 0..40u64 {
            prop_assert_eq!(
                tables.lookup(ObjectId::new(o)).is_some(),
                reported.contains(&o)
            );
        }
    }

    /// The entry count never exceeds the sum of capacities and entries
    /// are conserved (every table member was reported at some point).
    #[test]
    fn bounded_and_sound(updates in arb_updates(500, 30), cap in 1usize..8) {
        let mut tables = MappingTables::new(cap, cap, cap, AgingMode::AgedWorst);
        let mut now = 0;
        let mut reported = std::collections::HashSet::new();
        for u in updates {
            now += u.advance;
            reported.insert(u.object);
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
        }
        prop_assert!(tables.len() <= 3 * cap);
        let members: Vec<ObjectId> = tables
            .single().iter().map(|e| e.object)
            .chain(tables.multiple().iter().map(|e| e.object))
            .chain(tables.cached().iter().map(|e| e.object))
            .collect();
        for m in members {
            prop_assert!(reported.contains(&m.raw()));
        }
    }

    /// The multiple-table only ever holds entries with >= 2 hits (the
    /// paper's definition), and therefore a meaningful average.
    #[test]
    fn multiple_table_needs_two_hits(updates in arb_updates(400, 25)) {
        let mut tables = MappingTables::new(8, 8, 4, AgingMode::AgedWorst);
        let mut now = 0;
        for u in updates {
            now += u.advance;
            tables.update_entry(ObjectId::new(u.object), location_of(u), now);
            for e in tables.multiple().iter().chain(tables.cached().iter()) {
                prop_assert!(e.hits >= 2, "entry {:?} in ordered table with 1 hit", e);
            }
        }
    }

    /// `OrderedTable` keeps exact membership and the model's row order,
    /// ascending average and first-in-first-out among equal averages,
    /// under arbitrary insert/remove/pop sequences. Averages come from a
    /// small range so ties are common.
    #[test]
    fn ordered_table_stays_ordered(
        ops in prop::collection::vec((0u8..3, 0u64..30, 0u64..12), 1..300),
        cap in 1usize..16,
    ) {
        let mut table = OrderedTable::new(cap);
        // Model rows in table order: ascending (average, insertion counter).
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut counter = 0u64;
        for (op, object, avg) in ops {
            match op {
                0 => {
                    if !model.iter().any(|&(_, _, o)| o == object) {
                        let mut e = TableEntry::new(ObjectId::new(object), Location::This, 0);
                        e.average = avg;
                        e.hits = 2;
                        let evicted = table.insert(e).map(|e| e.object.raw());
                        let model_evicted = if model.len() >= cap {
                            model.pop().map(|(_, _, o)| o)
                        } else {
                            None
                        };
                        prop_assert_eq!(evicted, model_evicted);
                        counter += 1;
                        let at = model
                            .iter()
                            .position(|&(a, s, _)| (a, s) > (avg, counter))
                            .unwrap_or(model.len());
                        model.insert(at, (avg, counter, object));
                    }
                }
                1 => {
                    let got = table.remove(ObjectId::new(object)).map(|e| e.object.raw());
                    let want = model
                        .iter()
                        .position(|&(_, _, o)| o == object)
                        .map(|at| model.remove(at).2);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got = table.pop_worst().map(|e| e.object.raw());
                    prop_assert_eq!(got, model.pop().map(|(_, _, o)| o));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert!(table.len() <= cap);
            let order: Vec<(u64, u64)> = table.iter().map(|e| (e.average, e.object.raw())).collect();
            let model_order: Vec<(u64, u64)> = model.iter().map(|&(a, _, o)| (a, o)).collect();
            prop_assert_eq!(order, model_order);
            prop_assert_eq!(table.worst().map(|e| e.object.raw()), model.last().map(|&(_, _, o)| o));
            prop_assert_eq!(table.best().map(|e| e.object.raw()), model.first().map(|&(_, _, o)| o));
        }
    }

    /// Calc_Average is bounded by the largest gap ever observed and LAST
    /// always equals the most recent request time.
    #[test]
    fn calc_average_bounds(gaps in prop::collection::vec(1u64..1000, 1..50)) {
        let mut entry = TableEntry::new(ObjectId::new(1), Location::This, 0);
        let mut now = 0;
        let mut max_gap = 0;
        for gap in &gaps {
            now += gap;
            max_gap = max_gap.max(*gap);
            entry.calc_average(now);
            prop_assert!(entry.average <= max_gap);
            prop_assert_eq!(entry.last, now);
        }
        prop_assert_eq!(entry.hits, gaps.len() as u64 + 1);
    }
}

/// The store reclaims what it forgets: over a long run on an object
/// universe far larger than the tables, every live slot stays indexed and
/// listed in exactly one table, and the slab never outgrows the sum of
/// the capacities (`assert_invariants` checks both after every update).
#[test]
fn long_run_reclaims_slots() {
    for aging in [AgingMode::AgedWorst, AgingMode::Off] {
        let mut tables = MappingTables::new(6, 5, 3, aging);
        let mut rng = StdRng::seed_from_u64(7);
        let mut now = 0;
        for _ in 0..100_000 {
            now += rng.gen_range(0..3u64);
            // A small hot set climbs into the ordered tables; the long
            // tail keeps churning the single-table.
            let object = if rng.gen_bool(0.5) {
                rng.gen_range(0..12)
            } else {
                rng.gen_range(0..1_000_000)
            };
            tables.update_entry(ObjectId::new(object), Location::This, now);
            tables.assert_invariants();
        }
        assert_eq!(tables.len(), 6 + 5 + 3);
    }
}
