//! The paper's *predecessor* algorithm: Unlimited Adaptive Distributed
//! Caching (§II.3, reference [11]).
//!
//! "In our next step we tried to overcome the drawbacks of SOAP ... by a
//! direct mapping of each object onto exactly one location. ... the
//! mapping table that stores the URL mappings needed to be very large to
//! be able to store an entry for every experienced object-ID and we
//! accepted this drawback by letting the table grow indefinitely."
//!
//! [`UnlimitedAdcProxy`] keeps one unbounded mapping table (instead of
//! the bounded single/multiple tables) plus the same selective caching
//! table. It is the natural upper-bound comparison for the bounded
//! three-table design this repository reproduces: the paper's
//! contribution is showing the bounded tables reach the same performance
//! with fixed memory.

use crate::agent::{ActionSink, CacheAgent, CacheEvent};
use crate::entry::{TableEntry, Tick};
use crate::forwarding::ForwardingCore;
use crate::ids::{Location, ObjectId, ProxyId};
use crate::message::{Reply, Request};
use crate::stats::{ProxyStats, Tally};
use crate::tables::OrderedTable;
use adc_obs::{Probe, SimEvent, TableLevel};
use rand::RngCore;
#[expect(
    clippy::disallowed_types,
    reason = "keyed access only, never iterated: hasher randomization cannot leak into \
              simulation order"
)]
use std::collections::HashMap;

/// An ADC proxy with an unbounded mapping table (the paper's earlier
/// design, for comparison).
///
/// # Examples
///
/// ```
/// use adc_core::{CacheAgent, ProxyId, UnlimitedAdcProxy};
///
/// let proxy = UnlimitedAdcProxy::new(ProxyId::new(0), 5, 10_000, 16);
/// assert_eq!(proxy.proxy_id(), ProxyId::new(0));
/// assert_eq!(proxy.mapping_entries(), 0); // grows without bound from here
/// ```
#[derive(Debug)]
pub struct UnlimitedAdcProxy {
    core: ForwardingCore,
    store: UnlimitedStore,
}

/// What an unlimited ADC proxy learns and caches.
#[derive(Debug)]
struct UnlimitedStore {
    /// The unbounded object → entry map.
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    mapping: HashMap<ObjectId, TableEntry>,
    /// Bounded selective caching table, same as the bounded design.
    cached: OrderedTable,
    local_time: Tick,
}

impl UnlimitedAdcProxy {
    /// Creates a proxy in a dense deployment of `num_proxies`.
    ///
    /// # Panics
    ///
    /// Panics if `num_proxies` or `cache_capacity` or `max_hops` is zero,
    /// or `id` is out of range.
    #[expect(clippy::disallowed_types, reason = "keyed access only, never iterated")]
    pub fn new(id: ProxyId, num_proxies: u32, cache_capacity: usize, max_hops: u32) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(id.raw() < num_proxies, "proxy id out of range");
        assert!(max_hops > 0, "max_hops must be positive");
        let peers = (0..num_proxies).map(ProxyId::new).collect();
        UnlimitedAdcProxy {
            core: ForwardingCore::new(id, peers, max_hops),
            store: UnlimitedStore {
                mapping: HashMap::new(),
                cached: OrderedTable::new(cache_capacity),
                local_time: 0,
            },
        }
    }

    /// Current number of mapping entries — the unbounded memory cost the
    /// bounded three-table design exists to avoid.
    pub fn mapping_entries(&self) -> usize {
        self.store.mapping.len() + self.store.cached.len()
    }

    /// The proxy's local request-count clock.
    pub fn local_time(&self) -> Tick {
        self.store.local_time
    }

    /// Number of requests awaiting replies.
    pub fn pending_requests(&self) -> usize {
        self.core.pending_requests()
    }
}

impl UnlimitedStore {
    /// Updates `object`'s entry at proxy `at`, admitting it to the caching
    /// table when its average beats the worst cached one, and records the
    /// store changes. Returns whether the object's data is held here
    /// afterwards.
    fn learn<P: Probe>(
        &mut self,
        at: ProxyId,
        object: ObjectId,
        location: Location,
        tally: &mut Tally,
        probe: &mut P,
    ) -> bool {
        let now = self.local_time;
        // Cached entries refresh in place.
        if let Some(mut entry) = self.cached.remove(object) {
            if entry.last != now {
                entry.calc_average(now);
            }
            entry.location = location;
            self.cached.insert(entry);
            return true;
        }
        let Some(entry) = self.mapping.get_mut(&object) else {
            // Unbounded growth: every new object gets an entry, forever.
            self.mapping
                .insert(object, TableEntry::new(object, location, now));
            let event = SimEvent::TableMigration {
                proxy: at.raw(),
                object: object.raw(),
                from: TableLevel::Out,
                to: TableLevel::Multiple,
            };
            tally.record(probe, event);
            return false;
        };
        if entry.last != now {
            entry.calc_average(now);
        }
        entry.location = location;
        // Selective admission straight from the unbounded map.
        if !(entry.has_average() && self.cached.admits(entry.average, now, true)) {
            return false;
        }
        #[expect(clippy::expect_used, reason = "get_mut above proved membership")]
        let entry = self
            .mapping
            .remove(&object)
            .expect("entry was just borrowed");
        let proxy = at.raw();
        if self.cached.is_full() {
            #[expect(clippy::expect_used, reason = "is_full() implies non-empty")]
            let worst = self
                .cached
                .pop_worst()
                .expect("full caching table has a worst entry");
            let object = worst.object.raw();
            tally.record(probe, SimEvent::CacheEvict { proxy, object });
            let event = SimEvent::TableMigration {
                proxy,
                object,
                from: TableLevel::Caching,
                to: TableLevel::Multiple,
            };
            tally.record(probe, event);
            self.mapping.insert(worst.object, worst);
        }
        let raw = object.raw();
        tally.record(probe, SimEvent::CacheInsert { proxy, object: raw });
        // The unbounded map plays the multiple-table's role.
        let event = SimEvent::TableMigration {
            proxy,
            object: raw,
            from: TableLevel::Multiple,
            to: TableLevel::Caching,
        };
        tally.record(probe, event);
        self.cached.insert(entry);
        true
    }

    fn lookup(&self, object: ObjectId) -> Option<Location> {
        self.cached
            .get(object)
            .map(|e| e.location)
            .or_else(|| self.mapping.get(&object).map(|e| e.location))
    }
}

impl CacheAgent for UnlimitedAdcProxy {
    fn proxy_id(&self) -> ProxyId {
        self.core.id()
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        self.store.local_time += 1;
        let object = request.object;
        if !self.store.cached.contains(object) {
            let store = &self.store;
            self.core
                .miss(request, || store.lookup(object), rng, probe, out);
            return;
        }
        let at = self.core.id();
        self.core.hit(request, probe, out);
        self.store
            .learn(at, object, Location::This, self.core.tally_mut(), probe);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let (at, object) = (self.core.id(), reply.object);
        let store = &mut self.store;
        self.core
            .reply(reply, probe, out, |location, tally, probe| {
                store.learn(at, object, location, tally, probe)
            });
    }

    fn stats(&self) -> &ProxyStats {
        self.core.stats()
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        self.core.tally_mut().drain()
    }

    fn cached_objects(&self) -> usize {
        self.store.cached.len()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.store.cached.contains(object)
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        let at = self.core.id();
        self.store.lookup(object).map(|l| l.resolve(at))
    }

    fn reset(&mut self) {
        self.store.mapping.clear();
        self.store.cached.clear();
        self.core.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Action;
    use crate::ids::{ClientId, NodeId, RequestId};
    use crate::message::Message;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(seq: u64, object: u64) -> Request {
        Request::new(
            RequestId::new(ClientId::new(0), seq),
            ObjectId::new(object),
            ClientId::new(0),
        )
    }

    fn resolve(p: &mut UnlimitedAdcProxy, rng: &mut StdRng, seq: u64, object: u64) {
        let mut inbox = vec![Message::Request(req(seq, object))];
        while let Some(message) = inbox.pop() {
            let action = match message {
                Message::Request(r) => Some(p.request_action(r, rng)),
                Message::Reply(r) => p.reply_action(r),
            };
            if let Some(Action::Send { to, message }) = action {
                match to {
                    NodeId::Proxy(_) => inbox.push(message),
                    NodeId::Origin => {
                        if let Message::Request(f) = message {
                            inbox.push(Message::Reply(Reply::from_origin(&f, 64)));
                        }
                    }
                    NodeId::Client(_) => {}
                }
            }
        }
    }

    #[test]
    fn mapping_grows_without_bound() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 4, 8);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..100 {
            resolve(&mut p, &mut rng, i, i);
        }
        // Every distinct object keeps an entry — no single-table bound.
        assert_eq!(p.mapping_entries(), 100);
        assert!(p.cached_objects() <= 4);
    }

    #[test]
    fn repeated_objects_get_cached() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 4, 8);
        let mut rng = StdRng::seed_from_u64(1);
        for seq in 0..4 {
            resolve(&mut p, &mut rng, seq, 42);
        }
        assert!(p.is_cached(ObjectId::new(42)));
        // A later request is a local hit.
        let hits_before = p.stats().local_hits;
        let Action::Send { to, .. } = p.request_action(req(9, 42), &mut rng);
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert_eq!(p.stats().local_hits, hits_before + 1);
        assert_eq!(p.pending_requests(), 0);
    }

    #[test]
    fn cache_displacement_returns_entry_to_mapping() {
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 1, 8);
        let mut rng = StdRng::seed_from_u64(1);
        // Object 1 cached (slow), object 2 much hotter displaces it.
        for seq in [0, 10, 20] {
            resolve(&mut p, &mut rng, seq, 1);
        }
        assert!(p.is_cached(ObjectId::new(1)));
        for seq in [21, 22, 23, 24] {
            resolve(&mut p, &mut rng, seq, 2);
        }
        assert!(p.is_cached(ObjectId::new(2)));
        assert!(!p.is_cached(ObjectId::new(1)));
        // Object 1's entry (and learned location) survives in the map.
        assert!(p.store.lookup(ObjectId::new(1)).is_some());
        assert_eq!(p.stats().cache_evictions, 1);
    }

    #[test]
    fn hits_single_entry_invariant() {
        // No object is ever both cached and in the mapping.
        let mut p = UnlimitedAdcProxy::new(ProxyId::new(0), 1, 2, 8);
        let mut rng = StdRng::seed_from_u64(3);
        for seq in 0..200u64 {
            resolve(&mut p, &mut rng, seq, seq % 7);
        }
        for o in 0..7u64 {
            let in_cache = p.store.cached.contains(ObjectId::new(o));
            let in_map = p.store.mapping.contains_key(&ObjectId::new(o));
            assert!(!(in_cache && in_map), "object {o} in both structures");
            assert!(in_cache || in_map, "object {o} lost entirely");
        }
    }
}
