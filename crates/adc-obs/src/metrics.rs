//! Folding the event stream into the metric families `ProxyStats`
//! lacks.
//!
//! [`MetricsProbe`] is a [`Probe`] that records, in an
//! [`adc_metrics::Registry`] keyed by proxy id (each family a
//! [`Family`] const), what no agent counter holds: the cluster-wide
//! flow counters, hops-to-resolution and resolution-latency histograms,
//! the backward-adoption and table-migration counters, and live
//! table-occupancy gauges whose distribution is additionally sampled
//! into histograms on a completion cadence (every
//! [`MetricsProbe::with_cadence`] completed requests). One probe sees
//! every event of a run in order, so the completion that brings the
//! cadence due samples the gauges as they stand at that instant: the
//! simulator attaches it on its single-queue runner only. The eleven
//! per-proxy counters of `adc-core`'s `ProxyStats` are left to it: the
//! simulator renders the agents' final `ProxyStats` into the same
//! registry, through the render a live node's scrape uses.
//!
//! A completed flow's histograms are keyed by the server its
//! [`SimEvent::RequestCompleted`] names; origin-served flows land in the
//! [`CLUSTER`] slot.
//!
//! Everything here is deterministic (ordered maps, no clocks beyond the
//! probe's own `tick`), so two same-seed runs produce byte-identical
//! [`Registry`] snapshots, and byte-identical Prometheus text.

use crate::event::{SimEvent, TableLevel};
use crate::probe::Probe;
use adc_metrics::registry::CLUSTER;
use adc_metrics::{Family, Registry, RegistrySnapshot};

/// `(live gauge, sampled-occupancy histogram)` pairs recorded on the
/// cadence tick.
const OCCUPANCY_FAMILIES: [(Family, Family); 4] = [
    (Family::TABLE_SINGLE, Family::TABLE_SINGLE_OCCUPANCY),
    (Family::TABLE_MULTIPLE, Family::TABLE_MULTIPLE_OCCUPANCY),
    (Family::TABLE_CACHING, Family::TABLE_CACHING_OCCUPANCY),
    (Family::CACHED_OBJECTS, Family::CACHED_OBJECTS_OCCUPANCY),
];

/// Default occupancy-sampling cadence in completed requests; matches the
/// convergence sampler's `sample_every` default.
pub const DEFAULT_CADENCE: u64 = 5000;

/// A [`Probe`] that folds [`SimEvent`]s into the metric families
/// `ProxyStats` lacks.
///
/// See the [module docs](self) for the families it records.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    registry: Registry,
    now_us: u64,
    completed: u64,
    cadence: u64,
}

impl Default for MetricsProbe {
    fn default() -> Self {
        MetricsProbe::new()
    }
}

impl MetricsProbe {
    /// Creates a probe sampling occupancy every [`DEFAULT_CADENCE`]
    /// completed requests.
    pub fn new() -> Self {
        MetricsProbe::with_cadence(DEFAULT_CADENCE)
    }

    /// Creates a probe sampling table occupancy into histograms every
    /// `cadence` completed requests (0 disables occupancy sampling).
    pub fn with_cadence(cadence: u64) -> Self {
        MetricsProbe {
            registry: Registry::new(),
            now_us: 0,
            completed: 0,
            cadence,
        }
    }

    /// Consumes the probe, yielding the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Records the current table-occupancy gauges into their histogram
    /// families (one observation per known proxy and family).
    fn sample_occupancy(&mut self) {
        // Collect first: the registry cannot be iterated and mutated at
        // once. A handful of gauges, so the Vec is tiny.
        let live: Vec<(usize, u32, i64)> = self
            .registry
            .gauges()
            .filter_map(|(metric, proxy, value)| {
                OCCUPANCY_FAMILIES
                    .iter()
                    .position(|&(gauge, _)| gauge == metric)
                    .map(|slot| (slot, proxy, value))
            })
            .collect();
        for (slot, proxy, value) in live {
            // Occupancy gauges never go negative (paired insert/evict
            // events), but clamp instead of trusting that here.
            let value = u64::try_from(value).unwrap_or(0);
            self.registry
                .histogram_record(OCCUPANCY_FAMILIES[slot].1, proxy, value);
        }
    }
}

impl Probe for MetricsProbe {
    const ENABLED: bool = true;

    #[inline]
    fn tick(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    fn emit(&mut self, event: SimEvent) {
        let r = &mut self.registry;
        match event {
            SimEvent::RequestInjected { .. } => {
                r.counter_add(Family::REQUESTS_INJECTED, CLUSTER, 1);
            }
            SimEvent::RequestCompleted {
                server,
                hops,
                start_us,
                ..
            } => {
                r.counter_add(Family::REQUESTS_COMPLETED, CLUSTER, 1);
                if server.is_some() {
                    r.counter_add(Family::REQUEST_HITS, CLUSTER, 1);
                }
                let slot = server.unwrap_or(CLUSTER);
                r.histogram_record(Family::HOPS, slot, u64::from(hops));
                r.histogram_record(
                    Family::RESOLUTION_LATENCY_US,
                    slot,
                    self.now_us.saturating_sub(start_us),
                );
                self.completed += 1;
                if self.cadence > 0 && self.completed.is_multiple_of(self.cadence) {
                    self.sample_occupancy();
                }
            }
            SimEvent::BackwardAdoption { proxy, .. } => {
                r.counter_add(Family::BACKWARD_ADOPTIONS, proxy, 1);
            }
            SimEvent::TableMigration {
                proxy, from, to, ..
            } => {
                r.counter_add(Family::TABLE_MIGRATIONS, proxy, 1);
                if let Some(gauge) = table_gauge(from) {
                    r.gauge_add(gauge, proxy, -1);
                }
                if let Some(gauge) = table_gauge(to) {
                    r.gauge_add(gauge, proxy, 1);
                }
            }
            SimEvent::CacheInsert { proxy, .. } => {
                r.gauge_add(Family::CACHED_OBJECTS, proxy, 1);
            }
            SimEvent::CacheEvict { proxy, .. } => {
                r.gauge_add(Family::CACHED_OBJECTS, proxy, -1);
            }
            SimEvent::ProxyRestarted { proxy } => {
                // The restart emptied every table and the store without
                // a migration or eviction per entry. Gauges that never
                // had a sample keep none.
                for (gauge, _) in OCCUPANCY_FAMILIES {
                    if r.gauge(gauge, proxy) != 0 {
                        r.gauge_set(gauge, proxy, 0);
                    }
                }
            }
            // `ProxyStats::fold` counts these; their families come from
            // rendering the agents' counters, not from this probe.
            SimEvent::LocalHit { .. }
            | SimEvent::ForwardLearned { .. }
            | SimEvent::ForwardRandom { .. }
            | SimEvent::LoopDetected { .. }
            | SimEvent::HopLimitHit { .. }
            | SimEvent::OriginThisMiss { .. }
            | SimEvent::ReplyOrphaned { .. } => {}
        }
    }
}

/// The live-occupancy gauge family for a table level, if it has one.
fn table_gauge(level: TableLevel) -> Option<Family> {
    match level {
        TableLevel::Out => None,
        TableLevel::Single => Some(Family::TABLE_SINGLE),
        TableLevel::Multiple => Some(Family::TABLE_MULTIPLE),
        TableLevel::Caching => Some(Family::TABLE_CACHING),
    }
}

/// Per-proxy histogram summary derived from a [`Registry`], embedded in
/// the simulator's `SimReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyMetricsSummary {
    /// Proxy id, or [`CLUSTER`] for the origin-served flow slot.
    pub proxy: u32,
    /// Requests this proxy served from its local store.
    pub local_hits: u64,
    /// Misses it forwarded (learned plus random).
    pub forwards: u64,
    /// Flows attributed to this proxy in the hops histogram.
    pub flows_observed: u64,
    /// Median hops-to-resolution (log2-bucket upper edge), 0 when empty.
    pub hops_p50: u64,
    /// 99th-percentile hops-to-resolution, 0 when empty.
    pub hops_p99: u64,
    /// Median resolution latency in microseconds, 0 when empty.
    pub latency_p50_us: u64,
    /// 99th-percentile resolution latency in microseconds, 0 when empty.
    pub latency_p99_us: u64,
}

/// The metrics half of an observed run: the full sorted snapshot plus
/// per-proxy histogram summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Every family, sorted by `(metric, proxy)`.
    pub snapshot: RegistrySnapshot,
    /// One summary per proxy id appearing in any family (the
    /// [`CLUSTER`] slot last, when present).
    pub per_proxy: Vec<ProxyMetricsSummary>,
}

impl MetricsReport {
    /// Summarizes `registry` into per-proxy rows plus a full snapshot.
    pub fn from_registry(registry: &Registry) -> Self {
        let mut ids = registry.proxies();
        let has_cluster = registry
            .counters()
            .map(|(_, p, _)| p)
            .chain(registry.histograms().map(|(_, p, _)| p))
            .any(|p| p == CLUSTER);
        if has_cluster {
            ids.push(CLUSTER);
        }
        let per_proxy = ids
            .into_iter()
            .map(|proxy| {
                let hist_q = |name, q| {
                    registry
                        .histogram(name, proxy)
                        .and_then(|h| h.quantile(q))
                        .unwrap_or(0)
                };
                ProxyMetricsSummary {
                    proxy,
                    local_hits: registry.counter(Family::LOCAL_HITS, proxy),
                    forwards: registry.counter(Family::FORWARDS_LEARNED, proxy)
                        + registry.counter(Family::FORWARDS_RANDOM, proxy),
                    flows_observed: registry
                        .histogram(Family::HOPS, proxy)
                        .map(|h| h.count())
                        .unwrap_or(0),
                    hops_p50: hist_q(Family::HOPS, 0.5),
                    hops_p99: hist_q(Family::HOPS, 0.99),
                    latency_p50_us: hist_q(Family::RESOLUTION_LATENCY_US, 0.5),
                    latency_p99_us: hist_q(Family::RESOLUTION_LATENCY_US, 0.99),
                }
            })
            .collect();
        MetricsReport {
            snapshot: registry.snapshot(),
            per_proxy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_flow(probe: &mut MetricsProbe, proxy: u32, object: u64, hops: u32, latency_us: u64) {
        probe.emit(SimEvent::RequestInjected {
            client: 0,
            seq: 0,
            object,
        });
        probe.emit(SimEvent::LocalHit { proxy, object });
        probe.tick(1_000 + latency_us);
        probe.emit(SimEvent::RequestCompleted {
            client: 0,
            seq: 0,
            object,
            server: Some(proxy),
            hops,
            start_us: 1_000,
        });
    }

    #[test]
    fn hit_flows_key_their_histograms_by_the_named_server() {
        let mut p = MetricsProbe::with_cadence(0);
        hit_flow(&mut p, 3, 77, 2, 40);
        hit_flow(&mut p, 3, 77, 4, 60);
        hit_flow(&mut p, 5, 99, 1, 10);
        // The server is the completion's, whatever local hits came last.
        p.emit(SimEvent::LocalHit {
            proxy: 3,
            object: 99,
        });
        p.tick(1_005);
        p.emit(SimEvent::RequestCompleted {
            client: 1,
            seq: 0,
            object: 99,
            server: Some(5),
            hops: 1,
            start_us: 1_000,
        });
        let r = &p.registry;
        assert_eq!(r.counter(Family::REQUESTS_COMPLETED, CLUSTER), 4);
        assert_eq!(r.counter(Family::REQUEST_HITS, CLUSTER), 4);
        let hops3 = r.histogram(Family::HOPS, 3).expect("proxy 3 hops recorded");
        assert_eq!(hops3.count(), 2);
        assert_eq!(hops3.sum(), 6);
        let lat5 = r
            .histogram(Family::RESOLUTION_LATENCY_US, 5)
            .expect("proxy 5 latency recorded");
        assert_eq!((lat5.count(), lat5.sum()), (2, 15));
    }

    #[test]
    fn origin_served_flows_land_in_cluster_slot() {
        let mut p = MetricsProbe::with_cadence(0);
        p.tick(500);
        p.emit(SimEvent::RequestCompleted {
            client: 1,
            seq: 0,
            object: 42,
            server: None,
            hops: 6,
            start_us: 100,
        });
        let r = &p.registry;
        assert_eq!(r.counter(Family::REQUEST_HITS, CLUSTER), 0);
        assert_eq!(
            r.histogram(Family::HOPS, CLUSTER).map(|h| h.count()),
            Some(1),
            "miss hops go to the cluster slot"
        );
        assert_eq!(
            r.histogram(Family::RESOLUTION_LATENCY_US, CLUSTER)
                .map(|h| h.sum()),
            Some(400)
        );
    }

    #[test]
    fn agent_counters_are_left_to_proxy_stats() {
        let mut p = MetricsProbe::with_cadence(0);
        let (proxy, object) = (1, 3);
        for event in [
            SimEvent::LocalHit { proxy, object },
            SimEvent::ForwardLearned {
                proxy,
                object,
                to: 2,
            },
            SimEvent::ForwardRandom {
                proxy,
                object,
                to: 2,
            },
            SimEvent::LoopDetected { proxy, object },
            SimEvent::HopLimitHit {
                proxy,
                object,
                hops: 9,
            },
            SimEvent::OriginThisMiss { proxy, object },
            SimEvent::ReplyOrphaned { proxy, object },
            SimEvent::CacheInsert { proxy, object },
            SimEvent::CacheEvict { proxy, object },
        ] {
            p.emit(event);
        }
        let r = &p.registry;
        assert_eq!(r.counters().count(), 0, "{:?}", r.snapshot());
        assert_eq!(r.histograms().count(), 0);
        // Store changes still move the live gauge.
        assert_eq!(
            r.gauges().collect::<Vec<_>>(),
            vec![(Family::CACHED_OBJECTS, proxy, 0)]
        );
    }

    #[test]
    fn a_restart_zeroes_its_proxys_occupancy_gauges() {
        let mut p = MetricsProbe::with_cadence(0);
        for proxy in [1, 2] {
            p.emit(SimEvent::TableMigration {
                proxy,
                object: 9,
                from: TableLevel::Multiple,
                to: TableLevel::Caching,
            });
            p.emit(SimEvent::CacheInsert { proxy, object: 9 });
        }
        p.emit(SimEvent::ProxyRestarted { proxy: 1 });
        let r = &p.registry;
        assert_eq!(r.gauge(Family::CACHED_OBJECTS, 1), 0);
        assert_eq!(r.gauge(Family::TABLE_CACHING, 1), 0);
        // The multiple-table gauge went to -1 with the migration out of
        // it; the restart resets it too.
        assert_eq!(r.gauge(Family::TABLE_MULTIPLE, 1), 0);
        // Other proxies keep theirs, and no gauge is created.
        assert_eq!(r.gauge(Family::CACHED_OBJECTS, 2), 1);
        assert_eq!(r.gauge(Family::TABLE_CACHING, 2), 1);
        assert!(
            r.gauges()
                .all(|(family, _, _)| family != Family::TABLE_SINGLE),
            "{:?}",
            r.snapshot()
        );
        assert_eq!(r.counters().count(), 2, "only the two migrations count");
    }

    #[test]
    fn table_migrations_move_occupancy_gauges() {
        let mut p = MetricsProbe::with_cadence(0);
        let mig = |from, to| SimEvent::TableMigration {
            proxy: 2,
            object: 9,
            from,
            to,
        };
        p.emit(mig(TableLevel::Out, TableLevel::Single));
        p.emit(mig(TableLevel::Single, TableLevel::Multiple));
        p.emit(mig(TableLevel::Multiple, TableLevel::Caching));
        p.emit(SimEvent::BackwardAdoption {
            proxy: 2,
            object: 9,
            owner: 4,
        });
        let r = &p.registry;
        assert_eq!(r.gauge(Family::TABLE_SINGLE, 2), 0);
        assert_eq!(r.gauge(Family::TABLE_MULTIPLE, 2), 0);
        assert_eq!(r.gauge(Family::TABLE_CACHING, 2), 1);
        assert_eq!(r.counter(Family::TABLE_MIGRATIONS, 2), 3);
        assert_eq!(r.counter(Family::BACKWARD_ADOPTIONS, 2), 1);
        p.emit(SimEvent::CacheInsert {
            proxy: 2,
            object: 9,
        });
        p.emit(SimEvent::CacheEvict {
            proxy: 2,
            object: 9,
        });
        assert_eq!(p.registry.gauge(Family::CACHED_OBJECTS, 2), 0);
    }

    #[test]
    fn cadence_samples_occupancy_histograms() {
        let mut p = MetricsProbe::with_cadence(2);
        p.emit(SimEvent::TableMigration {
            proxy: 0,
            object: 1,
            from: TableLevel::Out,
            to: TableLevel::Single,
        });
        let mut samples = Vec::new();
        for seq in 0..4 {
            p.emit(SimEvent::RequestCompleted {
                client: 0,
                seq,
                object: 1,
                server: None,
                hops: 1,
                start_us: 0,
            });
            samples.push(
                p.registry
                    .histogram(Family::TABLE_SINGLE_OCCUPANCY, 0)
                    .map_or(0, |h| h.count()),
            );
        }
        // Every second completion samples the gauge (1).
        assert_eq!(samples, [0, 1, 1, 2]);
        let h = p
            .registry
            .histogram(Family::TABLE_SINGLE_OCCUPANCY, 0)
            .expect("occupancy sampled");
        assert_eq!(h.sum(), 2);
    }

    #[test]
    fn report_summarizes_per_proxy() {
        let mut p = MetricsProbe::with_cadence(0);
        hit_flow(&mut p, 1, 7, 2, 100);
        p.tick(0);
        p.emit(SimEvent::RequestCompleted {
            client: 0,
            seq: 1,
            object: 8,
            server: None,
            hops: 5,
            start_us: 0,
        });
        // What rendering proxy 1's counters adds.
        let mut registry = p.into_registry();
        registry.counter_add(Family::LOCAL_HITS, 1, 1);
        registry.counter_add(Family::FORWARDS_LEARNED, 1, 1);
        let report = MetricsReport::from_registry(&registry);
        assert_eq!(report.per_proxy.len(), 2, "proxy 1 and the cluster slot");
        let one = &report.per_proxy[0];
        assert_eq!((one.proxy, one.local_hits, one.forwards), (1, 1, 1));
        assert_eq!(one.flows_observed, 1);
        assert!(one.hops_p50 >= 2, "log2 upper edge of 2 is 3");
        let last = report.per_proxy.last().expect("cluster row");
        assert_eq!(last.proxy, CLUSTER);
        assert_eq!(last.flows_observed, 1);
        // The snapshot renders as valid Prometheus text.
        adc_metrics::validate_prometheus(&report.snapshot.to_prometheus())
            .expect("snapshot renders valid exposition text");
    }

    #[test]
    fn probe_is_deterministic_across_replays() {
        let run = || {
            let mut p = MetricsProbe::new();
            for i in 0..200u64 {
                hit_flow(&mut p, (i % 5) as u32, i % 17, (i % 7) as u32, i);
            }
            p.registry.snapshot().to_prometheus()
        };
        assert_eq!(run(), run());
    }
}
