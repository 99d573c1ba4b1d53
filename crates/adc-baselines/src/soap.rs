//! SOAP — Self-Organized Adaptive Proxies (the paper's §II.2, reference
//! [10]): the ADC authors' earlier design, included for lineage
//! comparisons.
//!
//! Each proxy learns one forwarding location per URL *category* (domain),
//! not per object: "each mapping table contained one entry for a specific
//! URL domain (category) and the decision-making component mapped each
//! category onto one proxy location." Caching is plain LRU of everything
//! that passes — the paper's stated lesson from SOAP was precisely "the
//! importance of selective caching".

use adc_core::tables::BoundedLru;
use adc_core::{
    ActionSink, CacheAgent, CacheEvent, ForwardingCore, Location, ObjectId, Probe, ProxyId,
    ProxyStats, Reply, Request,
};
use rand::RngCore;

/// A SOAP-style proxy: per-category location learning + LRU caching.
#[derive(Debug)]
pub struct SoapProxy {
    core: ForwardingCore,
    /// Learned location per category; `None` until first observed.
    category_map: Vec<Option<ProxyId>>,
    cache: BoundedLru,
}

impl SoapProxy {
    /// Creates a SOAP proxy with `num_categories` URL categories.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `id` is out of range.
    pub fn new(
        id: ProxyId,
        num_proxies: u32,
        num_categories: usize,
        cache_capacity: usize,
        max_hops: u32,
    ) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(id.raw() < num_proxies, "proxy id out of range");
        assert!(num_categories > 0, "need at least one category");
        assert!(max_hops > 0, "max_hops must be positive");
        let peers = (0..num_proxies).map(ProxyId::new).collect();
        SoapProxy {
            core: ForwardingCore::new(id, peers, max_hops),
            category_map: vec![None; num_categories],
            cache: BoundedLru::new(cache_capacity),
        }
    }

    /// The category (URL domain surrogate) of an object.
    pub fn category_of(&self, object: ObjectId) -> usize {
        (object.raw() % self.category_map.len() as u64) as usize
    }

    /// The learned location for `category`, if any.
    pub fn category_location(&self, category: usize) -> Option<ProxyId> {
        self.category_map.get(category).copied().flatten()
    }
}

impl CacheAgent for SoapProxy {
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
        if self.cache.touch(request.object) {
            self.core.hit(request, probe, out);
            return;
        }
        let (at, category) = (self.core.id(), self.category_of(request.object));
        let category_map = &self.category_map;
        let lookup = || category_map[category].map(|p| Location::from_proxy(p, at));
        self.core.miss(request, lookup, rng, probe, out);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let (at, object) = (self.core.id(), reply.object);
        let category = self.category_of(object);
        let (category_map, cache) = (&mut self.category_map, &mut self.cache);
        self.core
            .reply(reply, probe, out, |location, tally, probe| {
                category_map[category] = Some(location.resolve(at));
                // SOAP lesson: no selectivity — cache every passing object.
                cache.admit(at, object, tally, probe);
                true
            });
    }

    fn stats(&self) -> &ProxyStats {
        self.core.stats()
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        self.core.tally_mut().drain()
    }

    fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.cache.contains(object)
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        // SOAP learns one location per *category*, so its "owner" for an
        // object is whatever its category currently maps to.
        self.category_location(self.category_of(object))
    }

    fn reset(&mut self) {
        for slot in &mut self.category_map {
            *slot = None;
        }
        self.cache.clear();
        self.core.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{Action, ClientId, Message, NodeId, RequestId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(seq: u64, object: u64) -> Request {
        Request::new(
            RequestId::new(ClientId::new(0), seq),
            ObjectId::new(object),
            ClientId::new(0),
        )
    }

    fn resolve(p: &mut SoapProxy, rng: &mut StdRng, seq: u64, object: u64) {
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
    fn categories_partition_objects() {
        let p = SoapProxy::new(ProxyId::new(0), 4, 16, 8, 8);
        assert_eq!(p.category_of(ObjectId::new(0)), 0);
        assert_eq!(p.category_of(ObjectId::new(16)), 0);
        assert_eq!(p.category_of(ObjectId::new(17)), 1);
    }

    #[test]
    fn learns_category_location_from_replies() {
        let mut p = SoapProxy::new(ProxyId::new(0), 1, 4, 8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let object = 5;
        resolve(&mut p, &mut rng, 0, object);
        let category = p.category_of(ObjectId::new(object));
        assert_eq!(p.category_location(category), Some(ProxyId::new(0)));
        // Objects of the same category share the mapping — the design's
        // coarseness.
        assert_eq!(p.category_of(ObjectId::new(object + 4)), category);
    }

    #[test]
    fn caches_everything_lru() {
        let mut p = SoapProxy::new(ProxyId::new(0), 1, 4, 2, 8);
        let mut rng = StdRng::seed_from_u64(1);
        resolve(&mut p, &mut rng, 0, 1);
        resolve(&mut p, &mut rng, 1, 2);
        resolve(&mut p, &mut rng, 2, 3);
        assert!(!p.is_cached(ObjectId::new(1)), "LRU evicts the oldest");
        assert!(p.is_cached(ObjectId::new(2)));
        assert!(p.is_cached(ObjectId::new(3)));
    }

    #[test]
    fn hit_after_caching() {
        let mut p = SoapProxy::new(ProxyId::new(0), 1, 4, 8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        resolve(&mut p, &mut rng, 0, 7);
        let Action::Send { to, .. } = p.request_action(req(1, 7), &mut rng);
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert_eq!(p.stats().local_hits, 1);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = SoapProxy::new(ProxyId::new(0), 1, 4, 8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        resolve(&mut p, &mut rng, 0, 7);
        assert!(p.is_cached(ObjectId::new(7)));
        p.reset();
        assert!(!p.is_cached(ObjectId::new(7)));
        assert_eq!(p.category_location(p.category_of(ObjectId::new(7))), None);
        assert_eq!(p.pending_count_for_tests(), 0);
    }

    impl SoapProxy {
        fn pending_count_for_tests(&self) -> usize {
            self.core.pending_requests()
        }
    }
}
