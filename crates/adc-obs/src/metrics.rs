//! Folding the event stream into per-proxy metric families.
//!
//! [`MetricsProbe`] is a [`Probe`] that turns the 13 [`SimEvent`]
//! variants into counter/gauge/histogram families (each a
//! [`Family`] const) in an [`adc_metrics::Registry`], keyed by proxy
//! id: hops-to-resolution and
//! resolution-latency histograms, forward/loop/origin-terminate
//! counters, and live table-occupancy gauges whose distribution is
//! additionally sampled into histograms on the convergence cadence
//! (every [`MetricsProbe::with_cadence`] completed requests).
//!
//! Attribution caveat: flow-level events ([`SimEvent::RequestCompleted`])
//! carry no proxy id, so hit flows are attributed to the proxy whose
//! [`SimEvent::LocalHit`] for the same object was seen most recently —
//! exact when flows for an object do not interleave, and off by at most
//! the interleaving window when they do. Miss flows (origin-served) land
//! in the [`CLUSTER`] slot.
//!
//! Everything here is deterministic (ordered maps, no clocks beyond the
//! probe's own `tick`), so two same-seed runs produce byte-identical
//! [`RegistrySnapshot`]s — and byte-identical Prometheus text.

use crate::event::{SimEvent, TableLevel};
use crate::probe::Probe;
use adc_metrics::registry::CLUSTER;
use adc_metrics::{Family, Registry, RegistrySnapshot};
use std::collections::BTreeMap;

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

/// A [`Probe`] that folds [`SimEvent`]s into per-proxy metric families.
///
/// See the [module docs](self) for the families it records and the hit
/// attribution caveat.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    registry: Registry,
    now_us: u64,
    completed: u64,
    cadence: u64,
    /// object -> proxy that most recently served it from local store.
    last_server: BTreeMap<u64, u32>,
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
            last_server: BTreeMap::new(),
        }
    }

    /// The accumulated registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Consumes the probe, yielding the registry (for merging shards).
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// An owned, sorted snapshot of every family.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Builds the per-proxy summary report for `SimReport` embedding.
    pub fn report(&self) -> MetricsReport {
        MetricsReport::from_registry(&self.registry)
    }

    /// Records a completed flow with an exact serving-proxy attribution.
    ///
    /// Equivalent to emitting [`SimEvent::RequestCompleted`] except that
    /// the hit slot is `server` (the proxy named by the reply's
    /// `served_from`) instead of the most-recent [`SimEvent::LocalHit`]
    /// heuristic. The sharded executor folds completions on the
    /// coordinator, where the serving proxy is known exactly; in
    /// sequential injection the two attributions coincide (flows never
    /// interleave), so merged sharded registries stay byte-identical to
    /// a single-threaded run. `server = None` (origin-served) lands in
    /// the [`CLUSTER`] slot.
    pub fn record_completion(
        &mut self,
        now_us: u64,
        hit: bool,
        hops: u32,
        start_us: u64,
        server: Option<u32>,
    ) {
        self.now_us = now_us;
        let r = &mut self.registry;
        r.counter_add(Family::REQUESTS_COMPLETED, CLUSTER, 1);
        let slot = if hit {
            r.counter_add(Family::REQUEST_HITS, CLUSTER, 1);
            server.unwrap_or(CLUSTER)
        } else {
            CLUSTER
        };
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

    /// Immediately records the current table-occupancy gauges into their
    /// histogram families, regardless of the cadence.
    ///
    /// The sharded executor drives occupancy sampling from the
    /// coordinator's completion count (the cluster-wide cadence), since
    /// per-shard probes never observe completions.
    pub fn sample_occupancy_now(&mut self) {
        self.sample_occupancy();
    }

    /// Records current table-occupancy gauges into their histogram
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
                object,
                hit,
                hops,
                start_us,
                ..
            } => {
                r.counter_add(Family::REQUESTS_COMPLETED, CLUSTER, 1);
                let slot = if hit {
                    r.counter_add(Family::REQUEST_HITS, CLUSTER, 1);
                    self.last_server.get(&object).copied().unwrap_or(CLUSTER)
                } else {
                    CLUSTER
                };
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
            SimEvent::ForwardLearned { proxy, .. } => {
                r.counter_add(Family::FORWARDS_LEARNED, proxy, 1);
            }
            SimEvent::ForwardRandom { proxy, .. } => {
                r.counter_add(Family::FORWARDS_RANDOM, proxy, 1);
            }
            SimEvent::LoopDetected { proxy, .. } => {
                r.counter_add(Family::LOOPS_DETECTED, proxy, 1);
            }
            SimEvent::HopLimitHit { proxy, .. } => {
                r.counter_add(Family::HOP_LIMIT, proxy, 1);
            }
            SimEvent::OriginThisMiss { proxy, .. } => {
                r.counter_add(Family::ORIGIN_THIS_MISS, proxy, 1);
            }
            SimEvent::LocalHit { proxy, object } => {
                r.counter_add(Family::LOCAL_HITS, proxy, 1);
                self.last_server.insert(object, proxy);
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
                r.counter_add(Family::CACHE_INSERTS, proxy, 1);
                r.gauge_add(Family::CACHED_OBJECTS, proxy, 1);
            }
            SimEvent::CacheEvict { proxy, .. } => {
                r.counter_add(Family::CACHE_EVICTS, proxy, 1);
                r.gauge_add(Family::CACHED_OBJECTS, proxy, -1);
            }
            SimEvent::ReplyOrphaned { proxy, .. } => {
                r.counter_add(Family::REPLIES_ORPHANED, proxy, 1);
            }
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
            hit: true,
            hops,
            start_us: 1_000,
        });
    }

    #[test]
    fn counters_key_by_proxy_and_hits_attribute_to_server() {
        let mut p = MetricsProbe::with_cadence(0);
        hit_flow(&mut p, 3, 77, 2, 40);
        hit_flow(&mut p, 3, 77, 4, 60);
        hit_flow(&mut p, 5, 99, 1, 10);
        let r = p.registry();
        assert_eq!(r.counter(Family::LOCAL_HITS, 3), 2);
        assert_eq!(r.counter(Family::LOCAL_HITS, 5), 1);
        assert_eq!(r.counter(Family::REQUESTS_COMPLETED, CLUSTER), 3);
        assert_eq!(r.counter(Family::REQUEST_HITS, CLUSTER), 3);
        let hops3 = r.histogram(Family::HOPS, 3).expect("proxy 3 hops recorded");
        assert_eq!(hops3.count(), 2);
        assert_eq!(hops3.sum(), 6);
        let lat5 = r
            .histogram(Family::RESOLUTION_LATENCY_US, 5)
            .expect("proxy 5 latency recorded");
        assert_eq!(lat5.sum(), 10);
    }

    #[test]
    fn origin_served_flows_land_in_cluster_slot() {
        let mut p = MetricsProbe::with_cadence(0);
        p.tick(500);
        p.emit(SimEvent::RequestCompleted {
            client: 1,
            seq: 0,
            object: 42,
            hit: false,
            hops: 6,
            start_us: 100,
        });
        let r = p.registry();
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
        let r = p.registry();
        assert_eq!(r.gauge(Family::TABLE_SINGLE, 2), 0);
        assert_eq!(r.gauge(Family::TABLE_MULTIPLE, 2), 0);
        assert_eq!(r.gauge(Family::TABLE_CACHING, 2), 1);
        assert_eq!(r.counter(Family::TABLE_MIGRATIONS, 2), 3);
        p.emit(SimEvent::CacheInsert {
            proxy: 2,
            object: 9,
        });
        p.emit(SimEvent::CacheEvict {
            proxy: 2,
            object: 9,
        });
        assert_eq!(p.registry().gauge(Family::CACHED_OBJECTS, 2), 0);
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
        for seq in 0..4 {
            p.emit(SimEvent::RequestCompleted {
                client: 0,
                seq,
                object: 1,
                hit: false,
                hops: 1,
                start_us: 0,
            });
        }
        // 4 completions at cadence 2 -> two samples of the gauge (1).
        let h = p
            .registry()
            .histogram(Family::TABLE_SINGLE_OCCUPANCY, 0)
            .expect("occupancy sampled");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2);
    }

    #[test]
    fn report_summarizes_per_proxy() {
        let mut p = MetricsProbe::with_cadence(0);
        hit_flow(&mut p, 1, 7, 2, 100);
        p.emit(SimEvent::ForwardLearned {
            proxy: 1,
            object: 8,
            to: 2,
        });
        p.tick(0);
        p.emit(SimEvent::RequestCompleted {
            client: 0,
            seq: 1,
            object: 8,
            hit: false,
            hops: 5,
            start_us: 0,
        });
        let report = p.report();
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
    fn record_completion_matches_event_path_on_exact_attribution() {
        // Event path: hit attributed via last LocalHit for the object.
        let mut via_event = MetricsProbe::with_cadence(0);
        hit_flow(&mut via_event, 4, 11, 3, 250);
        // Direct path: same flow recorded with the exact server.
        let mut direct = MetricsProbe::with_cadence(0);
        direct.emit(SimEvent::RequestInjected {
            client: 0,
            seq: 0,
            object: 11,
        });
        direct.emit(SimEvent::LocalHit {
            proxy: 4,
            object: 11,
        });
        direct.record_completion(1_250, true, 3, 1_000, Some(4));
        assert_eq!(
            via_event.snapshot().to_prometheus(),
            direct.snapshot().to_prometheus(),
            "exact attribution must reproduce the heuristic when flows do not interleave"
        );
        // Origin-served flows land in the cluster slot either way.
        let mut miss = MetricsProbe::with_cadence(0);
        miss.record_completion(500, false, 6, 100, None);
        let r = miss.registry();
        assert_eq!(r.counter(Family::REQUEST_HITS, CLUSTER), 0);
        assert_eq!(
            r.histogram(Family::HOPS, CLUSTER).map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn sample_occupancy_now_records_outside_cadence() {
        let mut p = MetricsProbe::with_cadence(0);
        p.emit(SimEvent::TableMigration {
            proxy: 0,
            object: 1,
            from: TableLevel::Out,
            to: TableLevel::Single,
        });
        p.sample_occupancy_now();
        p.sample_occupancy_now();
        let h = p
            .registry()
            .histogram(Family::TABLE_SINGLE_OCCUPANCY, 0)
            .expect("occupancy sampled on demand");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2);
    }

    #[test]
    fn probe_is_deterministic_across_replays() {
        let run = || {
            let mut p = MetricsProbe::new();
            for i in 0..200u64 {
                hit_flow(&mut p, (i % 5) as u32, i % 17, (i % 7) as u32, i);
            }
            p.snapshot().to_prometheus()
        };
        assert_eq!(run(), run());
    }
}
