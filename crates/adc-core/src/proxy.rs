//! The ADC proxy agent (§IV of the paper): `Receive_Request`,
//! `Receive_Reply`, `Forward_Addr` and the pending/backwarding store.

use crate::agent::{ActionSink, CacheAgent, CacheEvent};
use crate::backwarding::Backwarding;
use crate::config::{AdcConfig, CachePolicy};
use crate::entry::Tick;
use crate::ids::{Location, NodeId, ObjectId, ProxyId};
use crate::message::{Reply, Request};
use crate::stats::ProxyStats;
use crate::tables::{LruList, MappingTables, TableHit, UpdateOutcome};
use adc_obs::{Probe, SimEvent, TableLevel};
use rand::Rng;
use rand::RngCore;

/// Default size reported for objects when the runtime does not supply one.
pub const DEFAULT_OBJECT_SIZE: u32 = 8 * 1024;

/// One self-organizing ADC proxy.
///
/// The agent is sans-IO: it consumes [`Request`]/[`Reply`] messages and
/// pushes [`Action`](crate::Action)s into an [`ActionSink`]. Drive it
/// through the [`CacheAgent`] trait.
///
/// # Examples
///
/// ```
/// use adc_core::{Action, AdcConfig, AdcProxy, CacheAgent, NodeId};
/// use adc_core::{ClientId, ObjectId, ProxyId, Request, RequestId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut proxy = AdcProxy::new(ProxyId::new(0), 1, AdcConfig::default());
/// let mut rng = StdRng::seed_from_u64(7);
/// let req = Request::new(
///     RequestId::new(ClientId::new(0), 0),
///     ObjectId::new(1),
///     ClientId::new(0),
/// );
/// // Nothing cached yet, a single proxy: the request goes somewhere
/// // (to itself — detected as a loop next hop — or to the origin).
/// let Action::Send { to, .. } = proxy.request_action(req, &mut rng);
/// assert!(matches!(to, NodeId::Proxy(_) | NodeId::Origin));
/// ```
#[derive(Debug)]
pub struct AdcProxy {
    id: ProxyId,
    /// All proxies in the system, including this one; random forwarding
    /// selects uniformly over this set ("including itself").
    peers: Vec<ProxyId>,
    config: AdcConfig,
    tables: MappingTables,
    /// LRU store used only under [`CachePolicy::LruAll`].
    lru_store: Option<LruList<ObjectId, ()>>,
    /// Backwarding information: for every pending request ID, the stack of
    /// previous hops (a stack because a looping request can traverse the
    /// same proxy twice).
    pending: Backwarding,
    local_time: Tick,
    stats: ProxyStats,
    cache_events: Vec<CacheEvent>,
}

impl AdcProxy {
    /// Creates a proxy that knows about `num_proxies` peers with IDs
    /// `0..num_proxies` (the usual dense deployment).
    ///
    /// # Panics
    ///
    /// Panics if `num_proxies` is zero, `id` is out of range, or the
    /// configuration is invalid.
    pub fn new(id: ProxyId, num_proxies: u32, config: AdcConfig) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(id.raw() < num_proxies, "proxy id out of range");
        let peers = (0..num_proxies).map(ProxyId::new).collect();
        Self::with_peers(id, peers, config)
    }

    /// Creates a proxy with an explicit peer set (must contain `id`).
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id` or the configuration is
    /// invalid.
    pub fn with_peers(id: ProxyId, peers: Vec<ProxyId>, config: AdcConfig) -> Self {
        assert!(peers.contains(&id), "peer set must include the proxy");
        #[expect(
            clippy::expect_used,
            reason = "documented panic; callers wanting fallibility validate first"
        )]
        config.validate().expect("invalid ADC configuration");
        let (tables, lru_store) = match config.policy {
            CachePolicy::Selective => (
                MappingTables::new(
                    config.single_capacity,
                    config.multiple_capacity,
                    config.cache_capacity,
                    config.aging,
                ),
                None,
            ),
            CachePolicy::LruAll => (
                MappingTables::mapping_only(
                    config.single_capacity,
                    config.multiple_capacity,
                    config.aging,
                ),
                Some(LruList::with_capacity(config.cache_capacity.min(1 << 20))),
            ),
        };
        AdcProxy {
            id,
            peers,
            config,
            tables,
            lru_store,
            pending: Backwarding::new(),
            local_time: 0,
            stats: ProxyStats::default(),
            cache_events: Vec::new(),
        }
    }

    /// This proxy's identity (also available via
    /// [`CacheAgent::proxy_id`]).
    pub fn proxy_id_value(&self) -> ProxyId {
        self.id
    }

    /// Size of the peer set this proxy forwards over (including itself).
    pub fn num_proxies(&self) -> u32 {
        self.peers.len() as u32
    }

    /// The proxy's local request-count clock.
    pub fn local_time(&self) -> Tick {
        self.local_time
    }

    /// Rebuilds a warm proxy from restored tables (see
    /// [`ProxySnapshot`](crate::ProxySnapshot)). Only the selective
    /// policy is restorable; counters start from zero.
    pub(crate) fn from_restored(
        id: ProxyId,
        num_proxies: u32,
        config: AdcConfig,
        tables: MappingTables,
        local_time: Tick,
    ) -> Self {
        let mut proxy = AdcProxy::new(id, num_proxies, config);
        proxy.tables = tables;
        proxy.local_time = local_time;
        proxy
    }

    /// Borrows the mapping tables (single/multiple/caching).
    pub fn tables(&self) -> &MappingTables {
        &self.tables
    }

    /// The configuration this proxy runs with.
    pub fn config(&self) -> &AdcConfig {
        &self.config
    }

    /// Number of requests currently awaiting a reply.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// The paper's `Forward_Addr(Object)`: the learned location if any
    /// table has an entry, otherwise a uniformly random peer (including
    /// this proxy itself). An entry marked `THIS` means this proxy is
    /// responsible but does not hold the data, so the request must go to
    /// the origin server.
    fn forward_addr<P: Probe>(
        &mut self,
        object: ObjectId,
        rng: &mut dyn RngCore,
        probe: &mut P,
    ) -> NodeId {
        match self.tables.lookup(object).map(|e| e.location) {
            Some(Location::Remote(p)) => {
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
            Some(Location::This) => {
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
                #[expect(clippy::indexing_slicing, reason = "i < peers.len() by gen_range")]
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
    }

    /// Whether `object`'s data is stored locally under the active policy.
    fn locally_cached(&self, object: ObjectId) -> bool {
        match &self.lru_store {
            Some(lru) => lru.contains(&object),
            None => self.tables.is_cached(object),
        }
    }

    /// Runs `Update_Entry`, mirrors the outcome into the object store
    /// (selective policy) and returns it.
    fn update_entry<P: Probe>(
        &mut self,
        object: ObjectId,
        location: Location,
        probe: &mut P,
    ) -> UpdateOutcome {
        let outcome = self.tables.update_entry(object, location, self.local_time);
        if P::ENABLED {
            let proxy = self.id.raw();
            if outcome.promoted_to_multiple {
                probe.emit(SimEvent::TableMigration {
                    proxy,
                    object: object.raw(),
                    from: TableLevel::Single,
                    to: TableLevel::Multiple,
                });
            }
            if let Some(demoted) = outcome.demoted_to_single {
                probe.emit(SimEvent::TableMigration {
                    proxy,
                    object: demoted.raw(),
                    from: TableLevel::Multiple,
                    to: TableLevel::Single,
                });
            }
            if outcome.admitted_to_cache {
                probe.emit(SimEvent::TableMigration {
                    proxy,
                    object: object.raw(),
                    from: TableLevel::Multiple,
                    to: TableLevel::Caching,
                });
            }
            if let Some(evicted) = outcome.evicted_from_cache {
                probe.emit(SimEvent::TableMigration {
                    proxy,
                    object: evicted.raw(),
                    from: TableLevel::Caching,
                    to: TableLevel::Multiple,
                });
            }
            if let Some(forgotten) = outcome.forgotten {
                probe.emit(SimEvent::TableMigration {
                    proxy,
                    object: forgotten.raw(),
                    from: TableLevel::Single,
                    to: TableLevel::Out,
                });
            }
        }
        if self.lru_store.is_none() {
            if outcome.admitted_to_cache {
                self.stats.cache_insertions += 1;
                self.cache_events.push(CacheEvent::Store(object));
                if P::ENABLED {
                    probe.emit(SimEvent::CacheInsert {
                        proxy: self.id.raw(),
                        object: object.raw(),
                    });
                }
            }
            if let Some(evicted) = outcome.evicted_from_cache {
                self.stats.cache_evictions += 1;
                self.cache_events.push(CacheEvent::Evict(evicted));
                if P::ENABLED {
                    probe.emit(SimEvent::CacheEvict {
                        proxy: self.id.raw(),
                        object: evicted.raw(),
                    });
                }
            }
        }
        outcome
    }

    /// Stores `object` in the LRU store (ablation policy only), evicting
    /// the least recently used entry when full.
    fn lru_admit<P: Probe>(&mut self, object: ObjectId, probe: &mut P) {
        let capacity = self.config.cache_capacity;
        let Some(lru) = self.lru_store.as_mut() else {
            return;
        };
        if lru.contains(&object) {
            lru.get_refresh(&object);
            return;
        }
        lru.push_front(object, ());
        self.stats.cache_insertions += 1;
        self.cache_events.push(CacheEvent::Store(object));
        if P::ENABLED {
            probe.emit(SimEvent::CacheInsert {
                proxy: self.id.raw(),
                object: object.raw(),
            });
        }
        if lru.len() > capacity {
            if let Some((evicted, ())) = lru.pop_back() {
                self.stats.cache_evictions += 1;
                self.cache_events.push(CacheEvent::Evict(evicted));
                if P::ENABLED {
                    probe.emit(SimEvent::CacheEvict {
                        proxy: self.id.raw(),
                        object: evicted.raw(),
                    });
                }
            }
        }
    }
}

impl CacheAgent for AdcProxy {
    fn proxy_id(&self) -> ProxyId {
        self.id
    }

    /// The paper's `Receive_Request()` (Figure 5).
    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        self.local_time += 1;
        self.stats.requests_received += 1;
        let object = request.object;

        if self.locally_cached(object) {
            // Local hit: refresh the entry with ourselves as location and
            // return the data to the sender.
            self.stats.local_hits += 1;
            if P::ENABLED {
                probe.emit(SimEvent::LocalHit {
                    proxy: self.id.raw(),
                    object: object.raw(),
                });
            }
            self.update_entry(object, Location::This, probe);
            if self.lru_store.is_some() {
                self.lru_admit(object, probe);
            }
            let reply = Reply::from_cache(&request, self.id, DEFAULT_OBJECT_SIZE);
            out.send(request.sender, reply);
            return;
        }

        // Miss: remember the backwarding hop, then forward.
        let loop_detected = self.pending.push(request.id, request.sender);

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
        } else if request.hops >= self.config.max_hops {
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
            self.forward_addr(object, rng, probe)
        };
        out.send(to, forwarded);
    }

    /// The paper's `Receive_Reply()` (Figure 7).
    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let Some(prev_hop) = self
            .pending
            .pop_reply(self.id, &reply, &mut self.stats, probe)
        else {
            return;
        };
        self.stats.replies_processed += 1;

        let mut reply = reply;
        // NULL resolver means the data came from the origin server; this
        // proxy becomes the official resolver.
        if reply.resolver.is_none() {
            reply.resolver = Some(self.id);
        }
        #[expect(clippy::expect_used, reason = "a None resolver was just replaced")]
        let resolver = reply.resolver.expect("resolver was just set");
        if P::ENABLED && resolver != self.id {
            // Backwarding taught us a remote owner for this object.
            probe.emit(SimEvent::BackwardAdoption {
                proxy: self.id.raw(),
                object: reply.object.raw(),
                owner: resolver.raw(),
            });
        }
        let outcome =
            self.update_entry(reply.object, Location::from_proxy(resolver, self.id), probe);
        let cached_here = if self.lru_store.is_some() {
            // Cache-everything ablation: every passing object is stored.
            self.lru_admit(reply.object, probe);
            self.locally_cached(reply.object)
        } else {
            // Selective policy: the update says where the row ended up.
            outcome.found_in == TableHit::Cached || outcome.admitted_to_cache
        };

        // Claim the caching location if we hold the data and nobody else
        // on the path has cached it ("focus on only one caching location").
        if cached_here && reply.cached_by.is_none() {
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
        match &self.lru_store {
            Some(lru) => lru.len(),
            None => self.tables.cached().len(),
        }
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.locally_cached(object)
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        self.tables
            .lookup(object)
            .map(|e| e.location.resolve(self.id))
    }

    fn reset(&mut self) {
        self.tables.clear();
        if let Some(lru) = self.lru_store.as_mut() {
            lru.clear();
        }
        self.pending.clear();
        self.cache_events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Action;
    use crate::config::AgingMode;
    use crate::ids::{ClientId, RequestId};
    use crate::message::ServedFrom;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(seq: u64, object: u64) -> Request {
        Request::new(
            RequestId::new(ClientId::new(0), seq),
            ObjectId::new(object),
            ClientId::new(0),
        )
    }

    fn small_config() -> AdcConfig {
        AdcConfig::builder()
            .single_capacity(16)
            .multiple_capacity(16)
            .cache_capacity(8)
            .max_hops(8)
            .build()
    }

    fn proxy(id: u32, n: u32) -> AdcProxy {
        AdcProxy::new(ProxyId::new(id), n, small_config())
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Drives a full miss-resolve-backward cycle through one proxy.
    fn resolve_via_origin(p: &mut AdcProxy, r: Request, rng: &mut StdRng) -> Reply {
        let Action::Send { message, .. } = p.request_action(r, rng);
        let forwarded = match message {
            crate::message::Message::Request(f) => f,
            _ => panic!("miss must forward"),
        };
        let origin_reply = Reply::from_origin(&forwarded, 100);
        let Action::Send { to, message } = p.reply_action(origin_reply).expect("pending reply");
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        match message {
            crate::message::Message::Reply(rep) => rep,
            _ => panic!("backwarding carries a reply"),
        }
    }

    #[test]
    fn miss_forwards_and_stores_backwarding_info() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let Action::Send { to, message } = p.request_action(req(1, 10), &mut r);
        assert!(matches!(to, NodeId::Proxy(_)));
        match message {
            crate::message::Message::Request(f) => {
                assert_eq!(f.sender, NodeId::Proxy(ProxyId::new(0)));
                assert_eq!(f.hops, 1);
            }
            _ => panic!("expected forwarded request"),
        }
        assert_eq!(p.pending_requests(), 1);
    }

    #[test]
    fn reply_from_origin_sets_this_proxy_as_resolver() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let rep = resolve_via_origin(&mut p, req(1, 10), &mut r);
        assert_eq!(rep.resolver, Some(ProxyId::new(0)));
        assert_eq!(rep.served_from, ServedFrom::Origin);
        assert_eq!(p.pending_requests(), 0);
        // First sighting: entry in the single-table with location THIS.
        let e = p.tables().lookup(ObjectId::new(10)).unwrap();
        assert_eq!(e.location, Location::This);
    }

    #[test]
    fn loop_detection_sends_second_visit_to_origin() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        // First visit: miss, forwarded somewhere, pending stored.
        let _ = p.request_action(req(1, 10), &mut r);
        // The same request comes back (loop).
        let mut looped = req(1, 10);
        looped.sender = NodeId::Proxy(ProxyId::new(2));
        looped.hops = 3;
        let Action::Send { to, .. } = p.request_action(looped, &mut r);
        assert_eq!(to, NodeId::Origin);
        assert_eq!(p.stats().origin_loops, 1);
        // Two pending hops now (stacked).
        assert_eq!(p.pending_requests(), 1);
        assert_eq!(p.pending.depth(req(1, 10).id), 2);
    }

    #[test]
    fn fault_duplicate_stacks_a_third_hop_and_unwinds_it_first() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let _ = p.request_action(req(1, 10), &mut r); // prev hop: client
        for from in [2, 3] {
            // The loop, then a duplicate of it, come back from peers.
            let mut again = req(1, 10);
            again.sender = NodeId::Proxy(ProxyId::new(from));
            let Action::Send { to, .. } = p.request_action(again, &mut r);
            assert_eq!(to, NodeId::Origin);
        }
        assert_eq!(p.stats().origin_loops, 2);
        assert_eq!(p.pending.depth(req(1, 10).id), 3);
        let mut forwarded = req(1, 10);
        forwarded.sender = NodeId::Proxy(ProxyId::new(0));
        let mut reply = Reply::from_origin(&forwarded, 100);
        for expected in [
            NodeId::Proxy(ProxyId::new(3)),
            NodeId::Proxy(ProxyId::new(2)),
            NodeId::Client(ClientId::new(0)),
        ] {
            let Action::Send { to, message } = p.reply_action(reply).unwrap();
            assert_eq!(to, expected);
            reply = match message {
                crate::message::Message::Reply(r) => r,
                _ => panic!("backwarding carries a reply"),
            };
        }
        assert_eq!(p.pending_requests(), 0);
        assert!(p.reply_action(reply).is_none(), "fourth reply is an orphan");
    }

    #[test]
    fn looped_reply_unwinds_both_pending_hops_in_lifo_order() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let _ = p.request_action(req(1, 10), &mut r); // prev hop: client
        let mut looped = req(1, 10);
        looped.sender = NodeId::Proxy(ProxyId::new(2));
        let _ = p.request_action(looped, &mut r); // prev hop: proxy 2

        let forwarded = {
            let mut f = req(1, 10);
            f.sender = NodeId::Proxy(ProxyId::new(0));
            f.hops = 2;
            f
        };
        let rep = Reply::from_origin(&forwarded, 100);
        // First unwind goes to the most recent hop (proxy 2).
        let Action::Send { to, message } = p.reply_action(rep).unwrap();
        assert_eq!(to, NodeId::Proxy(ProxyId::new(2)));
        let rep2 = match message {
            crate::message::Message::Reply(r) => r,
            _ => panic!(),
        };
        // Second unwind (after the loop traverses back) goes to the client.
        let Action::Send { to, .. } = p.reply_action(rep2).unwrap();
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        assert_eq!(p.pending_requests(), 0);
    }

    #[test]
    fn max_hops_sends_to_origin() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let mut exhausted = req(1, 10);
        exhausted.hops = 8; // == max_hops
        exhausted.sender = NodeId::Proxy(ProxyId::new(1));
        let Action::Send { to, .. } = p.request_action(exhausted, &mut r);
        assert_eq!(to, NodeId::Origin);
        assert_eq!(p.stats().origin_max_hops, 1);
    }

    #[test]
    fn repeated_requests_promote_and_eventually_cache() {
        let mut p = proxy(0, 1);
        let mut r = rng();
        // Resolve the same object three times; with a 1-proxy system every
        // miss goes through this proxy.
        for seq in 0..3 {
            let rep = resolve_via_origin(&mut p, req(seq, 10), &mut r);
            let _ = rep;
        }
        assert!(p.is_cached(ObjectId::new(10)), "object should be cached");
        // Fourth request: local hit.
        let Action::Send { to, message } = p.request_action(req(3, 10), &mut r);
        assert_eq!(to, NodeId::Client(ClientId::new(0)));
        match message {
            crate::message::Message::Reply(rep) => {
                assert_eq!(rep.served_from, ServedFrom::Cache(ProxyId::new(0)));
                assert_eq!(rep.resolver, Some(ProxyId::new(0)));
            }
            _ => panic!("hit must reply"),
        }
        assert_eq!(p.stats().local_hits, 1);
    }

    #[test]
    fn backwarding_adopts_resolver_location() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        let _ = p.request_action(req(1, 10), &mut r);
        // Reply comes back already resolved by proxy 3.
        let mut rep = Reply::from_origin(
            &{
                let mut f = req(1, 10);
                f.sender = NodeId::Proxy(ProxyId::new(0));
                f
            },
            100,
        );
        rep.resolver = Some(ProxyId::new(3));
        rep.cached_by = Some(ProxyId::new(3));
        rep.served_from = ServedFrom::Cache(ProxyId::new(3));
        let _ = p.reply_action(rep).unwrap();
        let e = p.tables().lookup(ObjectId::new(10)).unwrap();
        assert_eq!(e.location, Location::Remote(ProxyId::new(3)));
    }

    #[test]
    fn this_location_without_data_goes_to_origin() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        // Learn THIS for object 10 (resolved once from origin).
        let _ = resolve_via_origin(&mut p, req(1, 10), &mut r);
        assert_eq!(
            p.tables().lookup(ObjectId::new(10)).unwrap().location,
            Location::This
        );
        assert!(!p.is_cached(ObjectId::new(10)));
        // Next request for it: responsible but not cached → origin.
        let Action::Send { to, .. } = p.request_action(req(2, 10), &mut r);
        assert_eq!(to, NodeId::Origin);
        assert_eq!(p.stats().origin_this_miss, 1);
    }

    #[test]
    fn orphan_reply_is_counted_and_dropped() {
        let mut p = proxy(0, 4);
        let rep = Reply::from_origin(&req(9, 9), 10);
        assert!(p.reply_action(rep).is_none());
        assert_eq!(p.stats().replies_orphaned, 1);
    }

    #[test]
    fn second_cacher_does_not_reclaim() {
        let mut p = proxy(0, 4);
        let mut r = rng();
        // Make object 10 cached locally via three origin resolutions.
        let mut p1 = proxy(0, 1);
        for seq in 0..3 {
            let _ = resolve_via_origin(&mut p1, req(seq, 10), &mut r);
        }
        // p holds data for object 10 as well: simulate by driving p alone.
        for seq in 0..3 {
            let _ = resolve_via_origin(&mut p, req(seq, 10), &mut r);
        }
        assert!(p.is_cached(ObjectId::new(10)));
        // A reply already marked as cached elsewhere passes through p.
        let _ = p.request_action(req(7, 10), &mut r); // shouldn't happen for cached, but force pending
                                                      // Actually cached objects reply immediately; craft pending manually
                                                      // via a different object to exercise the claim rule instead.
        let _ = p.request_action(req(8, 11), &mut r);
        let mut rep = Reply::from_origin(
            &{
                let mut f = req(8, 11);
                f.sender = NodeId::Proxy(ProxyId::new(0));
                f
            },
            100,
        );
        rep.resolver = Some(ProxyId::new(2));
        rep.cached_by = Some(ProxyId::new(2));
        let Action::Send { message, .. } = p.reply_action(rep).unwrap();
        match message {
            crate::message::Message::Reply(out) => {
                // Object 11 is not cached at p, and even if it were, the
                // cached_by marker from proxy 2 must survive.
                assert_eq!(out.cached_by, Some(ProxyId::new(2)));
                assert_eq!(out.resolver, Some(ProxyId::new(2)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn lru_policy_caches_every_passing_object() {
        let config = AdcConfig::builder()
            .single_capacity(16)
            .multiple_capacity(16)
            .cache_capacity(2)
            .max_hops(8)
            .policy(CachePolicy::LruAll)
            .aging(AgingMode::Off)
            .build();
        let mut p = AdcProxy::new(ProxyId::new(0), 1, config);
        let mut r = rng();
        // One pass each: LRU caches immediately (selective would not).
        let _ = resolve_via_origin(&mut p, req(0, 1), &mut r);
        assert!(p.is_cached(ObjectId::new(1)));
        let _ = resolve_via_origin(&mut p, req(1, 2), &mut r);
        let _ = resolve_via_origin(&mut p, req(2, 3), &mut r);
        // Capacity 2: object 1 evicted.
        assert!(!p.is_cached(ObjectId::new(1)));
        assert!(p.is_cached(ObjectId::new(2)));
        assert!(p.is_cached(ObjectId::new(3)));
        assert_eq!(p.cached_objects(), 2);
    }

    #[test]
    fn cache_events_mirror_store_changes() {
        let mut p = proxy(0, 1);
        let mut r = rng();
        for seq in 0..3 {
            let _ = resolve_via_origin(&mut p, req(seq, 10), &mut r);
        }
        let events = p.drain_cache_events();
        assert!(events.contains(&CacheEvent::Store(ObjectId::new(10))));
        // Draining empties the buffer.
        assert!(p.drain_cache_events().is_empty());
    }

    #[test]
    fn random_forwarding_is_uniform_over_peers() {
        let mut counts = [0usize; 4];
        let mut r = rng();
        for seq in 0..4000 {
            let mut p = proxy(0, 4);
            let Action::Send { to, .. } = p.request_action(req(seq, seq + 100), &mut r);
            if let NodeId::Proxy(pid) = to {
                counts[pid.raw() as usize] += 1;
            }
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "counts not uniform: {counts:?}");
        }
    }
}
