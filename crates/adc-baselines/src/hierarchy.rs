//! A classic hierarchical caching baseline (the paper's other reference
//! point, e.g. Harvest/Squid-style trees, references [20][27]).
//!
//! Proxies form a tree. A miss travels up toward the root, the root
//! fetches from the origin, and on the way back down *every* proxy on the
//! path stores a copy under LRU replacement — the "every proxy stores all
//! passing objects regardless of its future significance" behaviour the
//! paper's selective caching argues against.

use adc_core::tables::BoundedLru;
use adc_core::{
    ActionSink, Backwarding, CacheAgent, CacheEvent, NodeId, ObjectId, Probe, ProxyId, ProxyStats,
    Reply, Request, SimEvent, Tally, DEFAULT_OBJECT_SIZE,
};
use rand::RngCore;

/// One proxy in a caching hierarchy.
#[derive(Debug)]
pub struct HierarchyProxy {
    id: ProxyId,
    /// The next proxy up the tree; `None` for the root (which talks to
    /// the origin server).
    parent: Option<ProxyId>,
    cache: BoundedLru,
    /// The hops every pending request's reply retraces down the tree.
    pending: Backwarding,
    tally: Tally,
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
            pending: Backwarding::new(),
            tally: Tally::default(),
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
        let (proxy, object) = (self.id.raw(), request.object.raw());
        if self.cache.touch(request.object) {
            self.tally
                .record(probe, SimEvent::LocalHit { proxy, object });
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.sender, reply);
            return;
        }
        // A revisit (a fault duplicate) stacks another hop; the tree has
        // no loops to detect.
        self.pending.push(request.id, request.sender);
        let to = match self.parent {
            Some(parent) => {
                let to = parent.raw();
                let event = SimEvent::ForwardLearned { proxy, object, to };
                self.tally.record(probe, event);
                NodeId::Proxy(parent)
            }
            None => {
                self.tally
                    .record(probe, SimEvent::OriginThisMiss { proxy, object });
                NodeId::Origin
            }
        };
        let mut forwarded = request;
        forwarded.sender = NodeId::Proxy(self.id);
        forwarded.hops += 1;
        out.send(to, forwarded);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let Some(prev_hop) = self
            .pending
            .pop_reply(self.id, &reply, &mut self.tally, probe)
        else {
            return;
        };
        // Hierarchical caching: store every passing object.
        self.cache
            .admit(self.id, reply.object, &mut self.tally, probe);
        let mut reply = reply;
        reply.resolver.get_or_insert(self.id);
        out.send(prev_hop, reply);
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

    fn reset(&mut self) {
        self.cache.clear();
        self.pending.clear();
        self.tally.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{Action, ClientId, Message, RequestId};
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
