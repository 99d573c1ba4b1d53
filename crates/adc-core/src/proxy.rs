//! The ADC proxy agent (§IV of the paper): the lookup `Forward_Addr`
//! makes and the `Update_Entry` learning `Receive_Reply` does, plugged
//! into the forwarding core every learning agent shares.

use crate::agent::{ActionSink, CacheAgent, CacheEvent};
use crate::config::{AdcConfig, CachePolicy};
use crate::entry::Tick;
use crate::forwarding::ForwardingCore;
use crate::ids::{Location, ObjectId, ProxyId};
use crate::message::{Reply, Request};
use crate::stats::{ProxyStats, Tally};
use crate::tables::{BoundedLru, MappingTables, TableHit};
use adc_obs::{Probe, SimEvent, TableLevel};
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
    core: ForwardingCore,
    config: AdcConfig,
    store: AdcStore,
}

/// What an ADC proxy learns and caches: the mapping tables, the local
/// request clock their averages age by, and under
/// [`CachePolicy::LruAll`] the LRU store that replaces the caching table.
#[derive(Debug)]
struct AdcStore {
    tables: MappingTables,
    lru_store: Option<BoundedLru>,
    local_time: Tick,
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
                Some(BoundedLru::new(config.cache_capacity)),
            ),
        };
        AdcProxy {
            core: ForwardingCore::new(id, peers, config.max_hops),
            config,
            store: AdcStore {
                tables,
                lru_store,
                local_time: 0,
            },
        }
    }

    /// This proxy's identity (also available via
    /// [`CacheAgent::proxy_id`]).
    pub fn proxy_id_value(&self) -> ProxyId {
        self.core.id()
    }

    /// Size of the peer set this proxy forwards over (including itself).
    pub fn num_proxies(&self) -> u32 {
        self.core.peers().len() as u32
    }

    /// The proxy's local request-count clock.
    pub fn local_time(&self) -> Tick {
        self.store.local_time
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
        proxy.store.tables = tables;
        proxy.store.local_time = local_time;
        proxy
    }

    /// Borrows the mapping tables (single/multiple/caching).
    pub fn tables(&self) -> &MappingTables {
        &self.store.tables
    }

    /// The configuration this proxy runs with.
    pub fn config(&self) -> &AdcConfig {
        &self.config
    }

    /// Number of requests currently awaiting a reply.
    pub fn pending_requests(&self) -> usize {
        self.core.pending_requests()
    }
}

impl AdcStore {
    /// Whether `object`'s data is stored locally under the active policy.
    fn holds(&self, object: ObjectId) -> bool {
        match &self.lru_store {
            Some(lru) => lru.contains(object),
            None => self.tables.is_cached(object),
        }
    }

    /// The paper's `Forward_Addr(Object)` lookup: the learned location,
    /// if any table has an entry.
    fn lookup(&self, object: ObjectId) -> Option<Location> {
        self.tables.lookup(object).map(|e| e.location)
    }

    /// Runs `Update_Entry` at proxy `at`, recording the table migrations
    /// and store changes it makes; under the LRU ablation every passing
    /// object is stored as well. Returns whether the object's data is
    /// held here afterwards.
    fn learn<P: Probe>(
        &mut self,
        at: ProxyId,
        object: ObjectId,
        location: Location,
        tally: &mut Tally,
        probe: &mut P,
    ) -> bool {
        let outcome = self.tables.update_entry(object, location, self.local_time);
        let proxy = at.raw();
        let mut migrate = |object: ObjectId, from, to| {
            let object = object.raw();
            let event = SimEvent::TableMigration {
                proxy,
                object,
                from,
                to,
            };
            tally.record(probe, event);
        };
        if outcome.promoted_to_multiple {
            migrate(object, TableLevel::Single, TableLevel::Multiple);
        }
        if let Some(demoted) = outcome.demoted_to_single {
            migrate(demoted, TableLevel::Multiple, TableLevel::Single);
        }
        if outcome.admitted_to_cache {
            migrate(object, TableLevel::Multiple, TableLevel::Caching);
        }
        if let Some(evicted) = outcome.evicted_from_cache {
            migrate(evicted, TableLevel::Caching, TableLevel::Multiple);
        }
        if let Some(forgotten) = outcome.forgotten {
            migrate(forgotten, TableLevel::Single, TableLevel::Out);
        }
        if let Some(lru) = self.lru_store.as_mut() {
            // Cache-everything ablation: every passing object is stored.
            lru.admit(at, object, tally, probe);
            return true;
        }
        // Selective policy: the update says where the row ended up.
        if outcome.admitted_to_cache {
            let object = object.raw();
            tally.record(probe, SimEvent::CacheInsert { proxy, object });
        }
        if let Some(evicted) = outcome.evicted_from_cache {
            let object = evicted.raw();
            tally.record(probe, SimEvent::CacheEvict { proxy, object });
        }
        outcome.found_in == TableHit::Cached || outcome.admitted_to_cache
    }
}

impl CacheAgent for AdcProxy {
    fn proxy_id(&self) -> ProxyId {
        self.core.id()
    }

    /// The paper's `Receive_Request()` (Figure 5).
    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        self.store.local_time += 1;
        let object = request.object;
        if !self.store.holds(object) {
            let store = &self.store;
            self.core
                .miss(request, || store.lookup(object), rng, probe, out);
            return;
        }
        // Local hit: refresh the entry with ourselves as location and
        // return the data to the sender.
        let at = self.core.id();
        self.core.hit(request, probe, out);
        self.store
            .learn(at, object, Location::This, self.core.tally_mut(), probe);
    }

    /// The paper's `Receive_Reply()` (Figure 7).
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
        match &self.store.lru_store {
            Some(lru) => lru.len(),
            None => self.store.tables.cached().len(),
        }
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.store.holds(object)
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        let at = self.core.id();
        self.store.lookup(object).map(|l| l.resolve(at))
    }

    fn reset(&mut self) {
        self.store.tables.clear();
        if let Some(lru) = self.store.lru_store.as_mut() {
            lru.clear();
        }
        self.core.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Action;
    use crate::config::AgingMode;
    use crate::ids::{ClientId, NodeId, RequestId};
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
        assert_eq!(p.core.pending_depth(req(1, 10).id), 2);
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
        assert_eq!(p.core.pending_depth(req(1, 10).id), 3);
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
