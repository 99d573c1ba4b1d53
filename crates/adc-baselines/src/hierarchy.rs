//! A classic hierarchical caching baseline (the paper's other reference
//! point, e.g. Harvest/Squid-style trees, references [20][27]).
//!
//! Proxies form a tree. A miss travels up toward the root, the root
//! fetches from the origin, and on the way back down *every* proxy on the
//! path stores a copy under LRU replacement — the "every proxy stores all
//! passing objects regardless of its future significance" behaviour the
//! paper's selective caching argues against.

use crate::lru_cache::BoundedLru;
use adc_core::{
    ActionSink, CacheAgent, CacheEvent, NodeId, ObjectId, Probe, ProxyId, ProxyStats, Reply,
    Request, RequestId, SimEvent, DEFAULT_OBJECT_SIZE,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// One proxy in a caching hierarchy.
#[derive(Debug)]
pub struct HierarchyProxy {
    id: ProxyId,
    /// The next proxy up the tree; `None` for the root (which talks to
    /// the origin server).
    parent: Option<ProxyId>,
    cache: BoundedLru,
    pending: BTreeMap<RequestId, Vec<NodeId>>,
    stats: ProxyStats,
    cache_events: Vec<CacheEvent>,
}

impl HierarchyProxy {
    /// Creates one hierarchy node.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero or `parent == Some(id)`.
    pub fn new(id: ProxyId, parent: Option<ProxyId>, cache_capacity: usize) -> Self {
        assert_ne!(parent, Some(id), "a proxy cannot be its own parent");
        HierarchyProxy {
            id,
            parent,
            cache: BoundedLru::new(cache_capacity),
            pending: BTreeMap::new(),
            stats: ProxyStats::default(),
            cache_events: Vec::new(),
        }
    }

    /// Builds a complete binary tree of `n` proxies (node 0 is the root,
    /// node `i`'s parent is `(i − 1) / 2`), each with the same cache
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `cache_capacity` is zero.
    pub fn binary_tree(n: u32, cache_capacity: usize) -> Vec<HierarchyProxy> {
        assert!(n > 0, "need at least one proxy");
        (0..n)
            .map(|i| {
                let parent = (i > 0).then(|| ProxyId::new((i - 1) / 2));
                HierarchyProxy::new(ProxyId::new(i), parent, cache_capacity)
            })
            .collect()
    }

    /// This node's parent, if any.
    pub fn parent(&self) -> Option<ProxyId> {
        self.parent
    }

    /// Number of requests awaiting replies.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
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

impl CacheAgent for HierarchyProxy {
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
        self.stats.requests_received += 1;
        if self.cache.contains(request.object) {
            self.cache.touch(request.object);
            self.stats.local_hits += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LocalHit {
                    proxy: self.id.raw(),
                    object: request.object.raw(),
                });
            }
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.sender, reply);
            return;
        }
        self.pending
            .entry(request.id)
            .or_default()
            .push(request.sender);
        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;
        match self.parent {
            Some(parent) => {
                self.stats.forwards_learned += 1;
                if P::ENABLED {
                    probe.emit(SimEvent::ForwardLearned {
                        proxy: self.id.raw(),
                        object: forwarded.object.raw(),
                        to: parent.raw(),
                    });
                }
                out.send(parent, forwarded);
            }
            None => {
                self.stats.origin_this_miss += 1;
                if P::ENABLED {
                    probe.emit(SimEvent::OriginThisMiss {
                        proxy: self.id.raw(),
                        object: forwarded.object.raw(),
                    });
                }
                out.send(NodeId::Origin, forwarded);
            }
        }
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
        // Reply-path events are emitted by store() below (CacheInsert /
        // CacheEvict) and by the runner (RequestCompleted).
        // adc-lint: allow(obs-coverage)
        self.stats.replies_processed += 1;
        // Hierarchical caching: store every passing object.
        self.store(reply.object, probe);
        let mut reply = reply;
        if reply.resolver.is_none() {
            reply.resolver = Some(self.id);
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

    fn reset(&mut self) {
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

    #[test]
    fn binary_tree_shape() {
        let tree = HierarchyProxy::binary_tree(7, 8);
        assert_eq!(tree[0].parent(), None);
        assert_eq!(tree[1].parent(), Some(ProxyId::new(0)));
        assert_eq!(tree[2].parent(), Some(ProxyId::new(0)));
        assert_eq!(tree[3].parent(), Some(ProxyId::new(1)));
        assert_eq!(tree[6].parent(), Some(ProxyId::new(2)));
    }

    #[test]
    fn leaf_miss_climbs_to_parent() {
        let mut tree = HierarchyProxy::binary_tree(3, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let Action::Send { to, message } = tree[1].request_action(req(0, 5), &mut rng);
        assert_eq!(to, NodeId::Proxy(ProxyId::new(0)));
        let forwarded = match message {
            Message::Request(f) => f,
            _ => panic!("miss must forward"),
        };
        // Root misses too: goes to the origin.
        let Action::Send { to, message } = tree[0].request_action(forwarded, &mut rng);
        assert_eq!(to, NodeId::Origin);
        let at_origin = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        // Reply retraces: root caches, then leaf caches.
        let reply = Reply::from_origin(&at_origin, 10);
        let Action::Send { to, message } = tree[0].reply_action(reply).unwrap();
        assert_eq!(to, NodeId::Proxy(ProxyId::new(1)));
        assert!(tree[0].is_cached(ObjectId::new(5)));
        let reply = match message {
            Message::Reply(r) => r,
            _ => panic!(),
        };
        let Action::Send { to, .. } = tree[1].reply_action(reply).unwrap();
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert!(tree[1].is_cached(ObjectId::new(5)));
        assert_eq!(tree[0].pending_requests(), 0);
        assert_eq!(tree[1].pending_requests(), 0);
    }

    #[test]
    fn second_request_hits_at_leaf() {
        let mut tree = HierarchyProxy::binary_tree(3, 8);
        let mut rng = StdRng::seed_from_u64(1);
        // Prime via leaf 1 (as in the previous test, compressed).
        let Action::Send { message, .. } = tree[1].request_action(req(0, 5), &mut rng);
        let f = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let Action::Send { message, .. } = tree[0].request_action(f, &mut rng);
        let f = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let Action::Send { message, .. } =
            tree[0].reply_action(Reply::from_origin(&f, 10)).unwrap();
        let r = match message {
            Message::Reply(r) => r,
            _ => panic!(),
        };
        tree[1].reply_action(r).unwrap();
        // Second request: leaf hit, 0 extra hops.
        let Action::Send { to, message } = tree[1].request_action(req(1, 5), &mut rng);
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert!(matches!(message, Message::Reply(_)));
        assert_eq!(tree[1].stats().local_hits, 1);
    }

    #[test]
    fn sibling_hit_at_shared_parent() {
        let mut tree = HierarchyProxy::binary_tree(3, 8);
        let mut rng = StdRng::seed_from_u64(1);
        // Prime through leaf 1 so the root holds a copy.
        let Action::Send { message, .. } = tree[1].request_action(req(0, 5), &mut rng);
        let f = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let Action::Send { message, .. } = tree[0].request_action(f, &mut rng);
        let f = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let Action::Send { message, .. } =
            tree[0].reply_action(Reply::from_origin(&f, 10)).unwrap();
        let r = match message {
            Message::Reply(r) => r,
            _ => panic!(),
        };
        tree[1].reply_action(r).unwrap();
        // Leaf 2 misses but the root answers without the origin.
        let Action::Send { message, .. } = tree[2].request_action(req(1, 5), &mut rng);
        let f = match message {
            Message::Request(f) => f,
            _ => panic!(),
        };
        let Action::Send { to, message } = tree[0].request_action(f, &mut rng);
        assert_eq!(to, NodeId::Proxy(ProxyId::new(2)));
        match message {
            Message::Reply(r) => assert!(r.served_from.is_hit()),
            _ => panic!("root should answer from cache"),
        }
    }

    #[test]
    #[should_panic(expected = "own parent")]
    fn self_parent_rejected() {
        let _ = HierarchyProxy::new(ProxyId::new(1), Some(ProxyId::new(1)), 4);
    }
}
