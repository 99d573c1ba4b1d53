//! A bounded LRU object cache, as used by the hashing proxies ("the
//! second proxy will store the received data replacing existing
//! information based on the LRU algorithm"), SOAP, the caching tree and
//! ADC's cache-everything ablation.
//!
//! It runs on the mapping tables' store: a slab of rows with an object
//! index, and the single-table's LRU list linked through the slots. A
//! full cache reuses its oldest slot for the object it admits.

use super::store::{Claim, Lru, Slab};
use crate::entry::TableEntry;
use crate::ids::{Location, ObjectId, ProxyId};
use crate::stats::Tally;
use adc_obs::{Probe, SimEvent};

/// Bounded LRU set of object IDs.
///
/// # Examples
///
/// ```
/// use adc_core::tables::BoundedLru;
/// use adc_core::ObjectId;
///
/// let mut cache = BoundedLru::new(2);
/// cache.insert(ObjectId::new(1));
/// cache.insert(ObjectId::new(2));
/// let evicted = cache.insert(ObjectId::new(3));
/// assert_eq!(evicted, Some(ObjectId::new(1)));
/// assert!(cache.contains(ObjectId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedLru {
    slab: Slab,
    lru: Lru,
}

impl BoundedLru {
    /// Creates a cache bounded to `capacity` objects.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BoundedLru {
            slab: Slab::with_capacity(capacity),
            lru: Lru::new(capacity),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `object` is cached (does not touch LRU order).
    pub fn contains(&self, object: ObjectId) -> bool {
        self.slab.find(object).is_some()
    }

    /// Marks `object` as most recently used; returns `true` if present.
    pub fn touch(&mut self, object: ObjectId) -> bool {
        let Some(slot) = self.slab.find(object) else {
            return false;
        };
        self.lru.move_to_front(&mut self.slab, slot);
        true
    }

    /// Inserts `object` as most recently used, returning the evicted
    /// object if the cache was full. Re-inserting an existing object just
    /// refreshes it.
    pub fn insert(&mut self, object: ObjectId) -> Option<ObjectId> {
        // A full cache hands its oldest slot, still linked, to a new
        // object; a fresh slot is linked in.
        let reuse = self.lru.oldest().filter(|_| self.lru.is_full());
        let row = TableEntry::new(object, Location::This, 0);
        let (slot, evicted) = match self.slab.find_or_claim(row, reuse) {
            Claim::Found(slot) => (slot, None),
            Claim::New {
                slot,
                forgotten: None,
            } => {
                self.lru.push_front(&mut self.slab, slot);
                return None;
            }
            Claim::New { slot, forgotten } => (slot, forgotten.map(|row| row.object)),
        };
        self.lru.move_to_front(&mut self.slab, slot);
        evicted
    }

    /// The one LRU admission: stores `object` at `proxy` as most recently
    /// used, recording the eviction it forces and then the insertion. An
    /// object already held is only refreshed.
    #[inline]
    pub fn admit<P: Probe>(
        &mut self,
        proxy: ProxyId,
        object: ObjectId,
        tally: &mut Tally,
        probe: &mut P,
    ) {
        if self.touch(object) {
            return;
        }
        if let Some(evicted) = self.insert(object) {
            tally.record(
                probe,
                SimEvent::CacheEvict {
                    proxy: proxy.raw(),
                    object: evicted.raw(),
                },
            );
        }
        tally.record(
            probe,
            SimEvent::CacheInsert {
                proxy: proxy.raw(),
                object: object.raw(),
            },
        );
    }

    /// Removes `object`; returns `true` if it was present.
    pub fn remove(&mut self, object: ObjectId) -> bool {
        let Some(slot) = self.slab.unindex(object) else {
            return false;
        };
        self.lru.unlink(&mut self.slab, slot);
        self.slab.free(slot);
        true
    }

    /// Iterates cached objects, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let slab = &self.slab;
        self.lru.slots(slab).map(|slot| slab.entry(slot).object)
    }

    /// Removes every cached object.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.lru.clear();
    }

    /// Asserts the store's invariants: the LRU list links every live
    /// slot and nothing else, within the capacity.
    #[cfg(test)]
    fn assert_invariants(&self) {
        let live = self.slab.assert_invariants();
        self.lru.assert_invariants(&self.slab);
        assert_eq!(live, self.lru.len(), "a live slot is off the LRU list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_lru() {
        let mut c = BoundedLru::new(3);
        for i in 1..=3 {
            assert_eq!(c.insert(ObjectId::new(i)), None);
        }
        // Touch 1 so 2 becomes the eviction victim.
        assert!(c.touch(ObjectId::new(1)));
        assert_eq!(c.insert(ObjectId::new(4)), Some(ObjectId::new(2)));
        assert!(c.contains(ObjectId::new(1)));
        assert!(!c.contains(ObjectId::new(2)));
        assert_eq!(c.len(), 3);
        let order: Vec<u64> = c.iter().map(|o| o.raw()).collect();
        assert_eq!(order, vec![4, 1, 3]);
        c.assert_invariants();
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = BoundedLru::new(2);
        c.insert(ObjectId::new(1));
        c.insert(ObjectId::new(2));
        assert_eq!(c.insert(ObjectId::new(1)), None);
        assert_eq!(c.len(), 2);
        // 2 is now LRU.
        assert_eq!(c.insert(ObjectId::new(3)), Some(ObjectId::new(2)));
    }

    #[test]
    fn admit_records_the_eviction_before_the_insertion() {
        let mut c = BoundedLru::new(1);
        let mut tally = Tally::default();
        let p = ProxyId::new(0);
        c.admit(p, ObjectId::new(1), &mut tally, &mut adc_obs::NullProbe);
        c.admit(p, ObjectId::new(1), &mut tally, &mut adc_obs::NullProbe);
        c.admit(p, ObjectId::new(2), &mut tally, &mut adc_obs::NullProbe);
        use crate::CacheEvent::{Evict, Store};
        assert_eq!(
            tally.drain(),
            [
                Store(ObjectId::new(1)),
                Evict(ObjectId::new(1)),
                Store(ObjectId::new(2))
            ]
        );
        assert_eq!(tally.stats().cache_insertions, 2);
        assert!(c.contains(ObjectId::new(2)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut c = BoundedLru::new(2);
        assert!(!c.touch(ObjectId::new(9)));
    }

    #[test]
    fn remove_frees_space() {
        let mut c = BoundedLru::new(1);
        c.insert(ObjectId::new(1));
        assert!(c.remove(ObjectId::new(1)));
        assert!(!c.remove(ObjectId::new(1)));
        assert_eq!(c.insert(ObjectId::new(2)), None);
        c.assert_invariants();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.insert(ObjectId::new(3)), None);
        c.assert_invariants();
    }

    #[test]
    fn iter_most_recent_first() {
        let mut c = BoundedLru::new(3);
        for i in 1..=3 {
            c.insert(ObjectId::new(i));
        }
        let order: Vec<u64> = c.iter().map(|o| o.raw()).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedLru::new(0);
    }
}
