//! The hash-routing proxy baseline (the paper's §V.1.1).
//!
//! "A proxy in the CARP algorithm tries to resolve incoming requests by
//! means of its locally cached data and forwards the unresolved request in
//! accordance to a globally known hashing function assigning the requested
//! object to a specific location in the total set of known proxies. If the
//! second proxy cannot resolve the forwarded request, the request will be
//! assigned to the origin server. After the request got resolved the
//! second proxy will store the received data replacing existing
//! information based on the LRU algorithm and forward the request directly
//! to the requesting client, bypassing the first proxy."

use crate::owner::{Hrw, OwnerMap};
use adc_core::tables::BoundedLru;
use adc_core::{
    ActionSink, CacheAgent, CacheEvent, ClientId, NodeId, ObjectId, Probe, ProxyId, ProxyStats,
    Reply, Request, RequestId, SimEvent, Tally, DEFAULT_OBJECT_SIZE,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// A hash-routing proxy, generic over the ownership function.
///
/// Use [`CarpProxy`] for the paper's CARP/HRW baseline or plug in a
/// [`ConsistentRing`](crate::ConsistentRing) for the consistent-hashing
/// variant.
#[derive(Debug)]
pub struct HashingProxy<O> {
    id: ProxyId,
    owner_map: O,
    cache: BoundedLru,
    /// Requests this proxy forwarded to the origin, awaiting the reply,
    /// mapped to the client the response must go to. One slot per
    /// request, not a hop stack: when a fault duplicate reaches the owner
    /// too, the client is answered once and the second origin reply is
    /// orphaned.
    pending: BTreeMap<RequestId, ClientId>,
    tally: Tally,
}

/// The paper's CARP baseline: HRW-hash routing with per-proxy LRU caches.
pub type CarpProxy = HashingProxy<Hrw>;

impl CarpProxy {
    /// Creates a CARP proxy in a dense deployment of `num_proxies`.
    ///
    /// # Panics
    ///
    /// Panics if `num_proxies` is zero, `id` out of range, or
    /// `cache_capacity` is zero.
    pub fn new(id: ProxyId, num_proxies: u32, cache_capacity: usize) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(id.raw() < num_proxies, "proxy id out of range");
        HashingProxy::with_owner_map(
            id,
            Hrw::new((0..num_proxies).map(ProxyId::new)),
            cache_capacity,
        )
    }
}

impl<O: OwnerMap> HashingProxy<O> {
    /// Creates a hashing proxy with an explicit ownership function.
    ///
    /// # Panics
    ///
    /// Panics if the owner map does not include `id` or `cache_capacity`
    /// is zero.
    pub fn with_owner_map(id: ProxyId, owner_map: O, cache_capacity: usize) -> Self {
        assert!(
            owner_map.proxies().contains(&id),
            "owner map must include this proxy"
        );
        HashingProxy {
            id,
            owner_map,
            cache: BoundedLru::new(cache_capacity),
            pending: BTreeMap::new(),
            tally: Tally::default(),
        }
    }

    /// Borrows the ownership function.
    pub fn owner_map(&self) -> &O {
        &self.owner_map
    }

    /// Number of requests awaiting an origin reply.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }
}

impl<O: OwnerMap> CacheAgent for HashingProxy<O> {
    fn proxy_id(&self) -> ProxyId {
        self.id
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        _rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        let (proxy, object) = (self.id.raw(), request.object.raw());
        if self.cache.touch(request.object) {
            // Hit anywhere (first proxy or owner): answer the client
            // directly, bypassing any first-hop proxy.
            self.tally
                .record(probe, SimEvent::LocalHit { proxy, object });
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.client, reply);
            return;
        }

        let owner = self.owner_map.owner(request.object);
        let to = if owner == self.id {
            // We are responsible but do not have it: fetch from the
            // origin and remember whom to answer.
            self.tally
                .record(probe, SimEvent::OriginThisMiss { proxy, object });
            self.pending.insert(request.id, request.client);
            NodeId::Origin
        } else {
            // Route to the globally agreed owner.
            let to = owner.raw();
            let event = SimEvent::ForwardLearned { proxy, object, to };
            self.tally.record(probe, event);
            NodeId::Proxy(owner)
        };
        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;
        out.send(to, forwarded);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let pending = self.pending.remove(&reply.id);
        let Some(client) = self.tally.reply(probe, self.id, &reply, pending) else {
            return;
        };
        // Store the fetched object under LRU replacement, then answer the
        // client directly.
        let object = reply.object;
        self.cache.admit(self.id, object, &mut self.tally, probe);
        let mut reply = reply;
        reply.resolver = Some(self.id);
        out.send(client, reply);
    }

    fn stats(&self) -> &ProxyStats {
        self.tally.stats()
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        self.tally.drain()
    }

    fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.cache.contains(object)
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        // Hash routing fixes ownership globally; every proxy "agrees" by
        // construction, making this the convergence sampler's upper bound.
        Some(self.owner_map.owner(object))
    }

    fn reset(&mut self) {
        self.cache.clear();
        self.pending.clear();
        self.tally.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{Action, Message, ServedFrom};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(seq: u64, object: u64) -> Request {
        Request::new(
            RequestId::new(ClientId::new(1), seq),
            ObjectId::new(object),
            ClientId::new(1),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    /// Finds an object owned by proxy `owner` in an `n`-proxy system.
    fn object_owned_by(owner: u32, n: u32) -> u64 {
        let hrw = Hrw::new((0..n).map(ProxyId::new));
        (0..)
            .find(|&i| hrw.owner(ObjectId::new(i)) == ProxyId::new(owner))
            .unwrap()
    }

    #[test]
    fn non_owner_routes_to_owner() {
        let n = 4;
        let obj = object_owned_by(2, n);
        let mut p = CarpProxy::new(ProxyId::new(0), n, 8);
        let Action::Send { to, message } = p.request_action(req(0, obj), &mut rng());
        assert_eq!(to, NodeId::Proxy(ProxyId::new(2)));
        match message {
            Message::Request(f) => {
                assert_eq!(f.hops, 1);
                assert_eq!(f.sender, NodeId::Proxy(ProxyId::new(0)));
            }
            _ => panic!("must forward"),
        }
        assert_eq!(p.pending_requests(), 0);
    }

    #[test]
    fn owner_miss_fetches_from_origin_then_answers_client() {
        let n = 4;
        let obj = object_owned_by(0, n);
        let mut p = CarpProxy::new(ProxyId::new(0), n, 8);
        let Action::Send { to, message } = p.request_action(req(0, obj), &mut rng());
        assert_eq!(to, NodeId::Origin);
        let forwarded = match message {
            Message::Request(f) => f,
            _ => panic!("must forward"),
        };
        assert_eq!(p.pending_requests(), 1);

        let Action::Send { to, message } =
            p.reply_action(Reply::from_origin(&forwarded, 10)).unwrap();
        assert_eq!(to, NodeId::Client(ClientId::new(1)));
        match message {
            Message::Reply(r) => {
                assert_eq!(r.served_from, ServedFrom::Origin);
                assert_eq!(r.resolver, Some(ProxyId::new(0)));
            }
            _ => panic!("must reply"),
        }
        assert!(p.is_cached(ObjectId::new(obj)));
        assert_eq!(p.pending_requests(), 0);
    }

    #[test]
    fn owner_hit_replies_directly_to_client() {
        let n = 4;
        let obj = object_owned_by(0, n);
        let mut p = CarpProxy::new(ProxyId::new(0), n, 8);
        // Prime the cache via an origin fetch.
        let Action::Send { message, .. } = p.request_action(req(0, obj), &mut rng());
        let forwarded = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let _ = p.reply_action(Reply::from_origin(&forwarded, 10));
        // Second request: direct hit to client (bypassing the first proxy).
        let mut second = req(1, obj);
        second.sender = NodeId::Proxy(ProxyId::new(3)); // arrived via proxy 3
        let Action::Send { to, message } = p.request_action(second, &mut rng());
        assert_eq!(to, NodeId::Client(ClientId::new(1)));
        match message {
            Message::Reply(r) => assert!(r.served_from.is_hit()),
            _ => panic!("hit must reply"),
        }
        assert_eq!(p.stats().local_hits, 1);
    }

    #[test]
    fn lru_replacement_in_cache() {
        let n = 1;
        let mut p = CarpProxy::new(ProxyId::new(0), n, 2);
        let mut r = rng();
        for (seq, obj) in [(0u64, 1u64), (1, 2), (2, 3)] {
            let Action::Send { message, .. } = p.request_action(req(seq, obj), &mut r);
            let f = match message {
                Message::Request(f) => f,
                _ => panic!(),
            };
            let _ = p.reply_action(Reply::from_origin(&f, 10));
        }
        assert!(!p.is_cached(ObjectId::new(1)), "object 1 evicted");
        assert!(p.is_cached(ObjectId::new(2)));
        assert!(p.is_cached(ObjectId::new(3)));
        assert_eq!(p.stats().cache_evictions, 1);
        assert_eq!(p.cached_objects(), 2);
    }

    #[test]
    fn orphan_reply_dropped() {
        let mut p = CarpProxy::new(ProxyId::new(0), 2, 2);
        assert!(p.reply_action(Reply::from_origin(&req(9, 9), 1)).is_none());
        assert_eq!(p.stats().replies_orphaned, 1);
    }

    #[test]
    fn cache_events_emitted() {
        let mut p = CarpProxy::new(ProxyId::new(0), 1, 1);
        let mut r = rng();
        for (seq, obj) in [(0u64, 1u64), (1, 2)] {
            let Action::Send { message, .. } = p.request_action(req(seq, obj), &mut r);
            let f = match message {
                Message::Request(f) => f,
                _ => panic!(),
            };
            let _ = p.reply_action(Reply::from_origin(&f, 10));
        }
        let events = p.drain_cache_events();
        assert_eq!(
            events,
            vec![
                CacheEvent::Store(ObjectId::new(1)),
                CacheEvent::Evict(ObjectId::new(1)),
                CacheEvent::Store(ObjectId::new(2)),
            ]
        );
    }
}
