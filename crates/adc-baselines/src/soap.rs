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

use crate::lru_cache::BoundedLru;
use adc_core::{
    ActionSink, CacheAgent, CacheEvent, NodeId, ObjectId, Probe, ProxyId, ProxyStats, Reply,
    Request, RequestId, SimEvent, DEFAULT_OBJECT_SIZE,
};
use rand::Rng;
use rand::RngCore;
use std::collections::BTreeMap;

/// A SOAP-style proxy: per-category location learning + LRU caching.
#[derive(Debug)]
pub struct SoapProxy {
    id: ProxyId,
    peers: Vec<ProxyId>,
    max_hops: u32,
    /// Learned location per category; `None` until first observed.
    category_map: Vec<Option<ProxyId>>,
    cache: BoundedLru,
    pending: BTreeMap<RequestId, Vec<NodeId>>,
    stats: ProxyStats,
    cache_events: Vec<CacheEvent>,
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
        SoapProxy {
            id,
            peers: (0..num_proxies).map(ProxyId::new).collect(),
            max_hops,
            category_map: vec![None; num_categories],
            cache: BoundedLru::new(cache_capacity),
            pending: BTreeMap::new(),
            stats: ProxyStats::default(),
            cache_events: Vec::new(),
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

    fn store<P: Probe>(&mut self, object: ObjectId, probe: &mut P) {
        if self.cache.contains(object) {
            self.cache.touch(object);
            return;
        }
        if let Some(evicted) = self.cache.insert(object) {
            self.stats.cache_evictions += 1;
            self.cache_events.push(CacheEvent::Evict(evicted));
            if P::ENABLED {
                probe.emit(SimEvent::CacheEvict {
                    proxy: self.id.raw(),
                    object: evicted.raw(),
                });
            }
        }
        self.stats.cache_insertions += 1;
        self.cache_events.push(CacheEvent::Store(object));
        if P::ENABLED {
            probe.emit(SimEvent::CacheInsert {
                proxy: self.id.raw(),
                object: object.raw(),
            });
        }
    }
}

impl CacheAgent for SoapProxy {
    fn proxy_id(&self) -> ProxyId {
        self.id
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        self.stats.requests_received += 1;
        let object = request.object;

        if self.cache.contains(object) {
            self.cache.touch(object);
            self.stats.local_hits += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LocalHit {
                    proxy: self.id.raw(),
                    object: object.raw(),
                });
            }
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.sender, reply);
            return;
        }

        let loop_detected = self.pending.contains_key(&request.id);
        self.pending
            .entry(request.id)
            .or_default()
            .push(request.sender);

        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;

        let to = if loop_detected {
            self.stats.origin_loops += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LoopDetected {
                    proxy: self.id.raw(),
                    object: object.raw(),
                });
            }
            NodeId::Origin
        } else if request.hops >= self.max_hops {
            self.stats.origin_max_hops += 1;
            if P::ENABLED {
                probe.emit(SimEvent::HopLimitHit {
                    proxy: self.id.raw(),
                    object: object.raw(),
                    hops: request.hops,
                });
            }
            NodeId::Origin
        } else {
            let category = self.category_of(object);
            match self.category_map[category] {
                Some(p) if p != self.id => {
                    self.stats.forwards_learned += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::ForwardLearned {
                            proxy: self.id.raw(),
                            object: object.raw(),
                            to: p.raw(),
                        });
                    }
                    NodeId::Proxy(p)
                }
                Some(_) => {
                    // We are responsible for the category but miss the
                    // object: fetch from the origin.
                    self.stats.origin_this_miss += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::OriginThisMiss {
                            proxy: self.id.raw(),
                            object: object.raw(),
                        });
                    }
                    NodeId::Origin
                }
                None => {
                    self.stats.forwards_random += 1;
                    let i = rng.gen_range(0..self.peers.len());
                    let to = self.peers[i];
                    if P::ENABLED {
                        probe.emit(SimEvent::ForwardRandom {
                            proxy: self.id.raw(),
                            object: object.raw(),
                            to: to.raw(),
                        });
                    }
                    NodeId::Proxy(to)
                }
            }
        };
        out.send(to, forwarded);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let prev_hop = {
            let stack = match self.pending.get_mut(&reply.id) {
                Some(s) => s,
                None => {
                    self.stats.replies_orphaned += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::ReplyOrphaned {
                            proxy: self.id.raw(),
                            object: reply.object.raw(),
                        });
                    }
                    return;
                }
            };
            #[expect(
                clippy::expect_used,
                reason = "stacks are removed when their last hop pops"
            )]
            let hop = stack.pop().expect("pending stacks are never empty");
            if stack.is_empty() {
                self.pending.remove(&reply.id);
            }
            hop
        };
        self.stats.replies_processed += 1;

        let mut reply = reply;
        if reply.resolver.is_none() {
            reply.resolver = Some(self.id);
        }
        #[expect(clippy::expect_used, reason = "a None resolver was just replaced")]
        let resolver = reply.resolver.expect("resolver was just set");
        if P::ENABLED && resolver != self.id {
            probe.emit(SimEvent::BackwardAdoption {
                proxy: self.id.raw(),
                object: reply.object.raw(),
                owner: resolver.raw(),
            });
        }
        let category = self.category_of(reply.object);
        self.category_map[category] = Some(resolver);
        // SOAP lesson: no selectivity — cache every passing object.
        self.store(reply.object, probe);
        if self.cache.contains(reply.object) && reply.cached_by.is_none() {
            reply.resolver = Some(self.id);
            reply.cached_by = Some(self.id);
        }
        out.send(prev_hop, reply);
    }

    fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.cache_events)
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
        self.category_map[self.category_of(object)]
    }

    fn reset(&mut self) {
        for slot in &mut self.category_map {
            *slot = None;
        }
        self.cache.clear();
        self.pending.clear();
        self.cache_events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{Action, ClientId, Message};
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
            self.pending.len()
        }
    }
}
