//! Per-proxy counters, the one path every agent decision takes into
//! them, and their one rendering as metric families.

use crate::agent::CacheEvent;
use crate::ids::{ObjectId, ProxyId};
use crate::message::Reply;
use adc_metrics::{Family, Registry};
use adc_obs::{Probe, SimEvent};

/// Counters accumulated by one proxy agent over its lifetime.
///
/// Every field is a fold of the agent's decisions: [`ProxyStats::fold`]
/// is its definition, event by event, and an agent counts only through
/// [`Tally`]. Each received request ends in exactly one hit or one
/// forward, so `requests_received = local_hits + forwards()`. Rates and
/// series are derived by the metrics layer; [`ProxyStats::render`] is
/// the counters' one exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxyStats {
    /// Requests received (this is also the proxy's local clock under ADC).
    pub requests_received: u64,
    /// Requests served from the local cache.
    pub local_hits: u64,
    /// Requests forwarded to a peer chosen from the mapping tables.
    pub forwards_learned: u64,
    /// Requests forwarded to a uniformly random peer (no table entry).
    pub forwards_random: u64,
    /// Requests sent to the origin because a forwarding loop was detected.
    pub origin_loops: u64,
    /// Requests sent to the origin because the hop limit was reached.
    pub origin_max_hops: u64,
    /// Requests sent to the origin because the table says this proxy is
    /// responsible (`THIS`) but the object is not in its cache.
    pub origin_this_miss: u64,
    /// Replies matched to a pending request ([`Tally::reply`]; the one
    /// counter no event names).
    pub replies_processed: u64,
    /// Replies that did not match any pending request (duplicates or
    /// injected faults).
    pub replies_orphaned: u64,
    /// Objects admitted into the local cache.
    pub cache_insertions: u64,
    /// Objects evicted from the local cache.
    pub cache_evictions: u64,
}

impl ProxyStats {
    /// Counts one decision: the definition of every field but
    /// `replies_processed`. A request-outcome event (a local hit, one of
    /// the three forwards, a loop or the hop limit) also counts the
    /// request received; runner-side events and learning steps count
    /// nothing.
    #[inline(always)]
    pub fn fold(&mut self, event: &SimEvent) {
        match event {
            SimEvent::LocalHit { .. } => {
                self.requests_received += 1;
                self.local_hits += 1;
            }
            SimEvent::ForwardLearned { .. } => {
                self.requests_received += 1;
                self.forwards_learned += 1;
            }
            SimEvent::ForwardRandom { .. } => {
                self.requests_received += 1;
                self.forwards_random += 1;
            }
            SimEvent::OriginThisMiss { .. } => {
                self.requests_received += 1;
                self.origin_this_miss += 1;
            }
            SimEvent::LoopDetected { .. } => {
                self.requests_received += 1;
                self.origin_loops += 1;
            }
            SimEvent::HopLimitHit { .. } => {
                self.requests_received += 1;
                self.origin_max_hops += 1;
            }
            SimEvent::ReplyOrphaned { .. } => self.replies_orphaned += 1,
            SimEvent::CacheInsert { .. } => self.cache_insertions += 1,
            SimEvent::CacheEvict { .. } => self.cache_evictions += 1,
            // A restart drops state; it does no work to count.
            SimEvent::RequestInjected { .. }
            | SimEvent::RequestCompleted { .. }
            | SimEvent::BackwardAdoption { .. }
            | SimEvent::TableMigration { .. }
            | SimEvent::ProxyRestarted { .. } => {}
        }
    }

    /// Total requests forwarded to the origin server, for any reason.
    pub fn origin_forwards(&self) -> u64 {
        self.origin_loops + self.origin_max_hops + self.origin_this_miss
    }

    /// Total requests forwarded anywhere (peer or origin).
    pub fn forwards(&self) -> u64 {
        self.forwards_learned + self.forwards_random + self.origin_forwards()
    }

    /// Fraction of received requests served locally.
    pub fn local_hit_rate(&self) -> f64 {
        if self.requests_received == 0 {
            0.0
        } else {
            self.local_hits as f64 / self.requests_received as f64
        }
    }

    /// Adds every counter to `registry` at `proxy`'s slot, one family
    /// per field, zeros included. The simulator's metrics and a live
    /// node's scrape both render their counters through this, so the two
    /// name and count each family the same way.
    pub fn render(&self, proxy: ProxyId, registry: &mut Registry) {
        let families = [
            (Family::REQUESTS_RECEIVED, self.requests_received),
            (Family::LOCAL_HITS, self.local_hits),
            (Family::FORWARDS_LEARNED, self.forwards_learned),
            (Family::FORWARDS_RANDOM, self.forwards_random),
            (Family::LOOPS_DETECTED, self.origin_loops),
            (Family::HOP_LIMIT, self.origin_max_hops),
            (Family::ORIGIN_THIS_MISS, self.origin_this_miss),
            (Family::REPLIES_PROCESSED, self.replies_processed),
            (Family::REPLIES_ORPHANED, self.replies_orphaned),
            (Family::CACHE_INSERTS, self.cache_insertions),
            (Family::CACHE_EVICTS, self.cache_evictions),
        ];
        for (family, value) in families {
            registry.counter_add(family, proxy.raw(), value);
        }
    }

    /// Adds another stats block into this one (for cluster-wide totals).
    pub fn merge(&mut self, other: &ProxyStats) {
        self.requests_received += other.requests_received;
        self.local_hits += other.local_hits;
        self.forwards_learned += other.forwards_learned;
        self.forwards_random += other.forwards_random;
        self.origin_loops += other.origin_loops;
        self.origin_max_hops += other.origin_max_hops;
        self.origin_this_miss += other.origin_this_miss;
        self.replies_processed += other.replies_processed;
        self.replies_orphaned += other.replies_orphaned;
        self.cache_insertions += other.cache_insertions;
        self.cache_evictions += other.cache_evictions;
    }
}

/// One agent's accounting: its counters plus the store changes its
/// runtime has not drained yet.
///
/// Every decision an agent makes is one [`SimEvent`] passed to
/// [`Tally::record`], which counts it, queues the store change it names
/// and hands it to the probe, so the three can never disagree.
#[derive(Debug, Default)]
pub struct Tally {
    stats: ProxyStats,
    store_changes: Vec<CacheEvent>,
}

impl Tally {
    /// Records one decision: folds it into the counters, queues a
    /// [`CacheEvent`] for an insertion or eviction, and emits it to
    /// `probe` when the probe is enabled.
    ///
    /// Always inlined: each call site names one variant, so the fold
    /// reduces to the counter that variant moves, and with a disabled
    /// probe an event that moves no counter costs nothing.
    #[inline(always)]
    pub fn record<P: Probe>(&mut self, probe: &mut P, event: SimEvent) {
        self.stats.fold(&event);
        if let SimEvent::CacheInsert { object, .. } = event {
            self.store_changes
                .push(CacheEvent::Store(ObjectId::new(object)));
        } else if let SimEvent::CacheEvict { object, .. } = event {
            self.store_changes
                .push(CacheEvent::Evict(ObjectId::new(object)));
        }
        if P::ENABLED {
            probe.emit(event);
        }
    }

    /// Accounts for `reply` arriving at `proxy`, where `pending` is what
    /// the agent's pending store matched it to. A match counts as a
    /// processed reply; `None` records the reply as orphaned. Returns
    /// `pending`.
    #[inline]
    pub fn reply<T, P: Probe>(
        &mut self,
        probe: &mut P,
        proxy: ProxyId,
        reply: &Reply,
        pending: Option<T>,
    ) -> Option<T> {
        match pending {
            Some(_) => self.stats.replies_processed += 1,
            None => self.record(
                probe,
                SimEvent::ReplyOrphaned {
                    proxy: proxy.raw(),
                    object: reply.object.raw(),
                },
            ),
        }
        pending
    }

    /// The counters so far.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Removes and returns the queued store changes, oldest first.
    pub fn drain(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.store_changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_totals() {
        let s = ProxyStats {
            requests_received: 10,
            local_hits: 4,
            forwards_learned: 3,
            forwards_random: 1,
            origin_loops: 1,
            origin_max_hops: 0,
            origin_this_miss: 1,
            ..Default::default()
        };
        assert_eq!(s.origin_forwards(), 2);
        assert_eq!(s.forwards(), 6);
        assert!((s.local_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_queues_and_emits_each_decision_once() {
        use adc_obs::{CountingProbe, EventKind};
        let mut tally = Tally::default();
        let mut probe = CountingProbe::new();
        let (proxy, object) = (0, 7);
        tally.record(&mut probe, SimEvent::LocalHit { proxy, object });
        tally.record(&mut probe, SimEvent::LoopDetected { proxy, object });
        tally.record(&mut probe, SimEvent::CacheEvict { proxy, object: 3 });
        tally.record(&mut probe, SimEvent::CacheInsert { proxy, object });
        let owner = 2;
        tally.record(
            &mut probe,
            SimEvent::BackwardAdoption {
                proxy,
                object,
                owner,
            },
        );
        let reply = Reply::from_origin(
            &crate::Request::new(
                crate::RequestId::new(crate::ClientId::new(0), 1),
                ObjectId::new(object),
                crate::ClientId::new(0),
            ),
            1,
        );
        assert_eq!(
            tally.reply(&mut probe, ProxyId::new(0), &reply, Some(())),
            Some(())
        );
        assert_eq!(
            tally.reply::<(), _>(&mut probe, ProxyId::new(0), &reply, None),
            None
        );

        let s = *tally.stats();
        assert_eq!(
            (s.requests_received, s.local_hits, s.origin_loops),
            (2, 1, 1)
        );
        assert_eq!((s.cache_insertions, s.cache_evictions), (1, 1));
        assert_eq!((s.replies_processed, s.replies_orphaned), (1, 1));
        assert_eq!(s.requests_received, s.local_hits + s.forwards());
        assert_eq!(probe.total(), 6);
        assert_eq!(probe.count(EventKind::BackwardAdoption), 1);
        assert_eq!(
            tally.drain(),
            vec![
                CacheEvent::Evict(ObjectId::new(3)),
                CacheEvent::Store(ObjectId::new(object))
            ]
        );
        assert!(tally.drain().is_empty());
    }

    #[test]
    fn render_puts_every_field_in_its_own_family_at_the_proxy_slot() {
        let s = ProxyStats {
            requests_received: 1,
            local_hits: 2,
            forwards_learned: 3,
            forwards_random: 4,
            origin_loops: 5,
            origin_max_hops: 6,
            origin_this_miss: 7,
            replies_processed: 8,
            replies_orphaned: 9,
            cache_insertions: 10,
            cache_evictions: 0,
        };
        let mut registry = Registry::new();
        s.render(ProxyId::new(7), &mut registry);
        let expected = [
            (Family::REQUESTS_RECEIVED, s.requests_received),
            (Family::LOCAL_HITS, s.local_hits),
            (Family::FORWARDS_LEARNED, s.forwards_learned),
            (Family::FORWARDS_RANDOM, s.forwards_random),
            (Family::LOOPS_DETECTED, s.origin_loops),
            (Family::HOP_LIMIT, s.origin_max_hops),
            (Family::ORIGIN_THIS_MISS, s.origin_this_miss),
            (Family::REPLIES_PROCESSED, s.replies_processed),
            (Family::REPLIES_ORPHANED, s.replies_orphaned),
            (Family::CACHE_INSERTS, s.cache_insertions),
            (Family::CACHE_EVICTS, s.cache_evictions),
        ];
        let mut want: Vec<(Family, u32, u64)> = expected.iter().map(|&(f, v)| (f, 7, v)).collect();
        want.sort_unstable();
        // Eleven distinct families, all at slot 7, the zero included.
        assert_eq!(registry.counters().collect::<Vec<_>>(), want);
        assert_eq!(registry.gauges().count(), 0);
        assert_eq!(registry.histograms().count(), 0);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(ProxyStats::default().local_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ProxyStats {
            requests_received: 1,
            local_hits: 1,
            ..Default::default()
        };
        let b = ProxyStats {
            requests_received: 2,
            cache_insertions: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests_received, 3);
        assert_eq!(a.local_hits, 1);
        assert_eq!(a.cache_insertions, 5);
    }
}
