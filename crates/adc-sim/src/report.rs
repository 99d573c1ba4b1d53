//! Results of a simulation run.

use crate::tracelog::TraceLog;
use adc_core::{ProxyId, ProxyStats};
use adc_metrics::{Log2Histogram, Registry, Series, Summary};
use adc_obs::{ConvergenceReport, MetricsReport, SpanReport};
use adc_workload::Phase;
use std::time::Duration;

/// Hit/request counts for one workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Completed requests in this phase.
    pub requests: u64,
    /// Proxy-cache hits in this phase.
    pub hits: u64,
}

impl PhaseStats {
    /// Hit rate within the phase (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Synchronization-layer telemetry from the sharded engine (open-loop
/// runs only): evidence the persistent worker pool engaged.
/// Host-dependent by design, so it rides next to the wall/CPU clocks
/// rather than in the canonical JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardExecStats {
    /// Worker threads the persistent pool actually spawned — at most
    /// once each for the whole run, and at most one per core beyond the
    /// coordinator's. 0 means every window ran inline on the
    /// coordinator (single-core host, or one shard).
    pub pool_spawns: u64,
}

/// Wall-clock execution profile of one sharded run, collected when
/// [`ShardTuning::profile`](crate::ShardTuning::profile) is set. Every
/// field measures *how the host executed the run*, never what the run
/// computed, so the whole struct is excluded from
/// [`to_deterministic_json`](SimReport::to_deterministic_json) — the
/// canonical bytes must not move when the same simulation runs on a
/// slower machine or a different pool schedule.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Shard count of the profiled run.
    pub shards: usize,
    /// Barrier rounds the coordinator executed (windows run).
    pub windows: u64,
    /// Cumulative wall-clock time each shard spent draining its windows,
    /// nanoseconds, indexed by shard. Inline windows (run on the
    /// coordinator) are attributed to the shard they drained.
    pub shard_drain_ns: Vec<u64>,
    /// Window drains each shard executed (including empty drains the
    /// claim cursor handed it).
    pub shard_windows: Vec<u64>,
    /// Events each shard processed, indexed by shard.
    pub shard_events: Vec<u64>,
    /// Wall-clock time the coordinator spent in its own claim-and-drain
    /// participation plus inline window execution, nanoseconds.
    pub coordinator_busy_ns: u64,
    /// Wall-clock time the coordinator spent parked at the barrier
    /// waiting for worker shards, nanoseconds. The headline stall
    /// metric: see [`barrier_wait_fraction`](ShardProfile::barrier_wait_fraction).
    pub coordinator_wait_ns: u64,
    /// Events drained per (shard, window): the window-occupancy
    /// distribution. Bucket 0 counts empty drains.
    pub window_occupancy: Log2Histogram,
    /// Cross-shard messages pending per (source, destination) outbox at
    /// each barrier, over all ordered shard pairs. Bucket 0 counts empty
    /// outboxes.
    pub outbox_depth: Log2Histogram,
}

impl ShardProfile {
    /// Load-imbalance coefficient: max over mean of per-shard drain
    /// time. 1.0 means perfectly balanced; `k` means the slowest shard
    /// did `k`× the mean work, i.e. the pool idles `(k-1)/k` of its
    /// capacity at the barrier. 1.0 when nothing was drained.
    pub fn imbalance_coefficient(&self) -> f64 {
        let max = self.shard_drain_ns.iter().copied().max().unwrap_or(0);
        let total: u64 = self.shard_drain_ns.iter().sum();
        if max == 0 || self.shard_drain_ns.is_empty() {
            return 1.0;
        }
        // Counts are ≪ 2^53: exact in f64.
        let mean = total as f64 / self.shard_drain_ns.len() as f64;
        max as f64 / mean
    }

    /// Fraction of the coordinator's window-execution time spent parked
    /// at the barrier (0.0 when nothing was measured). High values mean
    /// the coordinator finishes its claim share early and stalls on a
    /// straggler shard.
    pub fn barrier_wait_fraction(&self) -> f64 {
        let total = self.coordinator_busy_ns + self.coordinator_wait_ns;
        if total == 0 {
            return 0.0;
        }
        self.coordinator_wait_ns as f64 / total as f64
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests that completed (reply reached the client).
    pub completed: u64,
    /// Requests served from some proxy cache.
    pub hits: u64,
    /// Per-phase breakdown, indexed by [`Phase`] order
    /// (fill, request I, request II).
    pub phases: [PhaseStats; 3],
    /// Hop counts per completed request.
    pub hops: Summary,
    /// End-to-end latency per completed request, in microseconds.
    pub latency_us: Summary,
    /// Streaming estimate of the median latency, microseconds.
    pub latency_p50_us: f64,
    /// Streaming estimate of the 99th-percentile latency, microseconds.
    pub latency_p99_us: f64,
    /// Moving-average hit rate sampled over the run (Figure 11 style).
    pub hit_series: Series,
    /// Moving-average hops sampled over the run (Figure 12 style).
    pub hops_series: Series,
    /// Final per-proxy counters.
    pub per_proxy: Vec<ProxyStats>,
    /// Objects cached per proxy at the end of the run.
    pub final_cache_sizes: Vec<usize>,
    /// Cache occupancy over time, one series per proxy (sampled on the
    /// same schedule as the hit-rate series).
    pub occupancy_series: Vec<Series>,
    /// Total message deliveries (including duplicates). A pure event
    /// count: the sharded executor merges it by summing per-shard
    /// counters.
    pub messages_delivered: u64,
    /// Total events the simulator processed (deliveries plus open-loop
    /// arrivals) — the denominator for events/sec throughput numbers.
    /// Deliveries are summed across shards; arrivals count as the
    /// single-queue runner pops them (one per request plus the final
    /// exhausted pull), for both executors.
    pub events_processed: u64,
    /// Largest number of flows in flight at once. **Not** a sum: this is
    /// a maximum over the time-ordered global schedule, so the sharded
    /// executor replays injections and completions in `(time, flow)`
    /// order on the coordinator rather than summing per-shard peaks
    /// (which would overcount flows that never coexisted).
    pub peak_flows: usize,
    /// Fault-injected duplicate deliveries.
    pub duplicates_injected: u64,
    /// Replies that reached a client for an already-completed flow.
    pub client_orphans: u64,
    /// Requests that reached the origin after their flow had already
    /// completed (e.g. a duplicated delivery racing the original). The
    /// origin still answers them — with the nominal default object size,
    /// since the workload's true size left with the flow — but silently
    /// substituting that size used to hide the mismatch; now it is
    /// counted.
    pub orphan_origin_requests: u64,
    /// Scheduled proxy restarts that fired (churn injection).
    pub proxies_reset: u64,
    /// Object-body bytes fetched from the origin server (misses).
    pub bytes_from_origin: u64,
    /// Object-body bytes served out of proxy caches (hits).
    pub bytes_from_caches: u64,
    /// Message deliveries captured when tracing was enabled.
    pub trace: Option<TraceLog>,
    /// Mapping-convergence series (agreement, remaps, churn), present
    /// when [`SimConfig::convergence`](crate::SimConfig::convergence)
    /// was set.
    pub convergence: Option<ConvergenceReport>,
    /// Per-proxy metric families and histogram summaries, present when
    /// the run was driven through a
    /// [`MetricsProbe`](adc_obs::MetricsProbe) (e.g.
    /// [`Simulation::run_with_metrics`](crate::Simulation::run_with_metrics));
    /// filled by [`SimReport::attach_metrics`].
    pub metrics: Option<MetricsReport>,
    /// Synchronization-layer telemetry from the sharded engine (`None`
    /// for runs on the single-queue runner, sequential `run_sharded`
    /// calls included). Like the wall/CPU clocks this is *excluded* from
    /// [`to_deterministic_json`]: `pool_spawns` depends on the host's
    /// core count, and the canonical JSON must not.
    ///
    /// [`to_deterministic_json`]: SimReport::to_deterministic_json
    pub shard_exec: Option<ShardExecStats>,
    /// Per-flow latency attribution (per-segment and per-proxy
    /// breakdowns plus the slowest-flows digest), present when the run
    /// was driven through a [`SpanProbe`](adc_obs::SpanProbe) (e.g.
    /// [`Simulation::run_with_spans`](crate::Simulation::run_with_spans)).
    /// Derived entirely from the probe's event stream — attaching it
    /// never perturbs the simulation — but *excluded* from
    /// [`to_deterministic_json`](SimReport::to_deterministic_json) like
    /// the metrics body: the canonical bytes must not depend on which
    /// probes were attached.
    pub spans: Option<SpanReport>,
    /// Wall-clock execution profile of the sharded run, present when
    /// [`ShardTuning::profile`](crate::ShardTuning::profile) was set
    /// (`None` for runs on the single-queue runner). Excluded from
    /// [`to_deterministic_json`](SimReport::to_deterministic_json) for
    /// the same reason as `wall_time`: every field is host telemetry.
    pub shard_profile: Option<ShardProfile>,
    /// Wall-clock time the simulation took (Figure 15 style).
    pub wall_time: Duration,
    /// CPU time the simulating thread consumed. Unlike [`wall_time`],
    /// this stays comparable when runs execute concurrently on worker
    /// threads; zero on platforms without a per-thread CPU clock.
    ///
    /// [`wall_time`]: SimReport::wall_time
    pub cpu_time: Duration,
}

impl SimReport {
    /// Overall hit rate across the whole run.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.hits as f64 / self.completed as f64
        }
    }

    /// Mean hops per completed request.
    pub fn mean_hops(&self) -> f64 {
        self.hops.mean().unwrap_or(0.0)
    }

    /// Per-phase stats accessor.
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        match phase {
            Phase::Fill => &self.phases[0],
            Phase::RequestI => &self.phases[1],
            Phase::RequestII => &self.phases[2],
        }
    }

    /// Fraction of served bytes that did not travel from the origin —
    /// the bandwidth the proxy system saved.
    pub fn byte_hit_rate(&self) -> f64 {
        let total = self.bytes_from_origin + self.bytes_from_caches;
        if total == 0 {
            0.0
        } else {
            self.bytes_from_caches as f64 / total as f64
        }
    }

    /// Fills [`SimReport::metrics`] from a metrics probe's `registry`:
    /// renders each agent's final [`ProxyStats`] into it at the agent's
    /// proxy slot ([`ProxyStats::render`], the render a live node's
    /// scrape uses), then summarizes it. Returns the filled report.
    pub fn attach_metrics(&mut self, mut registry: Registry) -> &MetricsReport {
        for (p, stats) in (0..).zip(&self.per_proxy) {
            stats.render(ProxyId::new(p), &mut registry);
        }
        self.metrics.insert(MetricsReport::from_registry(&registry))
    }

    /// Cluster-wide proxy counters (all proxies merged).
    pub fn cluster_stats(&self) -> ProxyStats {
        let mut total = ProxyStats::default();
        for p in &self.per_proxy {
            total.merge(p);
        }
        total
    }

    /// Deliveries the bounded [`TraceLog`] had to drop (0 when tracing
    /// was off). Non-zero means path-level analyses of this run are
    /// incomplete — surfaced so truncation is never silent.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceLog::dropped)
    }

    /// Renders every simulation-determined field as a canonical JSON
    /// document: fixed key order, floats in shortest-roundtrip form, no
    /// whitespace. Two runs produce identical strings iff their
    /// simulation outputs are bit-identical, which makes this the byte
    /// comparator for the sharded-vs-single-threaded identity tests.
    ///
    /// Host-dependent telemetry (`wall_time`, `cpu_time`) is excluded,
    /// as is the [`metrics`](SimReport::metrics) body — a metrics
    /// registry has its own canonical form (the Prometheus exposition),
    /// which identity tests compare separately; only its presence is
    /// recorded here.
    pub fn to_deterministic_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        push_u64(&mut out, "completed", self.completed);
        push_u64(&mut out, "hits", self.hits);
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_u64(&mut out, "requests", p.requests);
            push_u64(&mut out, "hits", p.hits);
            trim_comma(&mut out);
            out.push('}');
        }
        out.push_str("],");
        push_summary(&mut out, "hops", &self.hops);
        push_summary(&mut out, "latency_us", &self.latency_us);
        push_f64(&mut out, "latency_p50_us", self.latency_p50_us);
        push_f64(&mut out, "latency_p99_us", self.latency_p99_us);
        push_series(&mut out, "hit_series", &self.hit_series);
        push_series(&mut out, "hops_series", &self.hops_series);
        out.push_str("\"per_proxy\":[");
        for (i, p) in self.per_proxy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_u64(&mut out, "requests_received", p.requests_received);
            push_u64(&mut out, "local_hits", p.local_hits);
            push_u64(&mut out, "forwards_learned", p.forwards_learned);
            push_u64(&mut out, "forwards_random", p.forwards_random);
            push_u64(&mut out, "origin_loops", p.origin_loops);
            push_u64(&mut out, "origin_max_hops", p.origin_max_hops);
            push_u64(&mut out, "origin_this_miss", p.origin_this_miss);
            push_u64(&mut out, "replies_processed", p.replies_processed);
            push_u64(&mut out, "replies_orphaned", p.replies_orphaned);
            push_u64(&mut out, "cache_insertions", p.cache_insertions);
            push_u64(&mut out, "cache_evictions", p.cache_evictions);
            trim_comma(&mut out);
            out.push('}');
        }
        out.push_str("],\"final_cache_sizes\":[");
        for (i, &n) in self.final_cache_sizes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str("],\"occupancy_series\":[");
        for (i, s) in self.occupancy_series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_series_value(&mut out, s);
        }
        out.push_str("],");
        push_u64(&mut out, "messages_delivered", self.messages_delivered);
        push_u64(&mut out, "events_processed", self.events_processed);
        push_u64(&mut out, "peak_flows", self.peak_flows as u64);
        push_u64(&mut out, "duplicates_injected", self.duplicates_injected);
        push_u64(&mut out, "client_orphans", self.client_orphans);
        push_u64(
            &mut out,
            "orphan_origin_requests",
            self.orphan_origin_requests,
        );
        push_u64(&mut out, "proxies_reset", self.proxies_reset);
        push_u64(&mut out, "bytes_from_origin", self.bytes_from_origin);
        push_u64(&mut out, "bytes_from_caches", self.bytes_from_caches);
        push_u64(
            &mut out,
            "trace_len",
            self.trace.as_ref().map_or(0, |t| t.records().len() as u64),
        );
        push_u64(&mut out, "trace_dropped", self.trace_dropped());
        match &self.convergence {
            None => out.push_str("\"convergence\":null,"),
            Some(c) => {
                out.push_str("\"convergence\":{");
                push_series(&mut out, "agreement", &c.agreement);
                push_series(&mut out, "remaps", &c.remaps);
                push_series(&mut out, "churn", &c.churn);
                push_u64(&mut out, "samples", c.samples as u64);
                push_u64(&mut out, "total_remaps", c.total_remaps);
                push_u64(&mut out, "total_churn", c.total_churn);
                trim_comma(&mut out);
                out.push_str("},");
            }
        }
        out.push_str(if self.metrics.is_some() {
            "\"has_metrics\":true"
        } else {
            "\"has_metrics\":false"
        });
        out.push('}');
        out
    }

    /// A one-line human summary. Orphaned replies and trace-log drops
    /// are appended only when non-zero, so clean runs stay terse.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "completed={} hit_rate={:.4} mean_hops={:.2} wall={:?}",
            self.completed,
            self.hit_rate(),
            self.mean_hops(),
            self.wall_time
        );
        let orphaned = self.cluster_stats().replies_orphaned;
        if orphaned > 0 {
            line.push_str(&format!(" replies_orphaned={orphaned}"));
        }
        let trace_dropped = self.trace_dropped();
        if trace_dropped > 0 {
            line.push_str(&format!(" trace_dropped={trace_dropped}"));
        }
        line
    }
}

/// Appends `"key":value,` for an integer field.
fn push_u64(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

/// Appends `"key":value,` for a float field in shortest-roundtrip form
/// (Rust's `{:?}` for `f64`), which is a bijection on non-NaN bits — the
/// property the byte-identity tests rely on.
fn push_f64(out: &mut String, key: &str, value: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    push_f64_value(out, value);
    out.push(',');
}

fn push_f64_value(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value:?}"));
    } else {
        // Infinities/NaN only arise in fields the simulator never
        // produces; keep the document parseable anyway.
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, key: &str, value: Option<f64>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    match value {
        Some(v) => push_f64_value(out, v),
        None => out.push_str("null"),
    }
    out.push(',');
}

/// Appends `"key":{summary},` from the accessor surface (the raw
/// Welford state stays private).
fn push_summary(out: &mut String, key: &str, s: &Summary) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":{");
    push_u64(out, "count", s.count());
    push_f64(out, "sum", s.sum());
    push_opt_f64(out, "mean", s.mean());
    push_opt_f64(out, "min", s.min());
    push_opt_f64(out, "max", s.max());
    push_opt_f64(out, "std_dev", s.std_dev());
    trim_comma(out);
    out.push_str("},");
}

fn push_series(out: &mut String, key: &str, s: &Series) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    push_series_value(out, s);
    out.push(',');
}

fn push_series_value(out: &mut String, s: &Series) {
    out.push_str("{\"name\":");
    adc_obs::json::write_escaped(out, &s.name);
    out.push_str(",\"points\":[");
    for (i, &(x, y)) in s.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_f64_value(out, x);
        out.push(',');
        push_f64_value(out, y);
        out.push(']');
    }
    out.push_str("]}");
}

/// Drops a trailing comma left by the `push_*` helpers before a closing
/// brace.
fn trim_comma(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_hit_rate() {
        let p = PhaseStats {
            requests: 10,
            hits: 7,
        };
        assert!((p.hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(PhaseStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn report_accessors() {
        let report = SimReport {
            completed: 4,
            hits: 2,
            phases: [
                PhaseStats {
                    requests: 2,
                    hits: 0,
                },
                PhaseStats {
                    requests: 2,
                    hits: 2,
                },
                PhaseStats::default(),
            ],
            hops: [2.0, 4.0].into_iter().collect(),
            latency_us: Summary::new(),
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            hit_series: Series::new("hit"),
            hops_series: Series::new("hops"),
            per_proxy: vec![
                ProxyStats {
                    requests_received: 3,
                    ..Default::default()
                },
                ProxyStats {
                    requests_received: 1,
                    ..Default::default()
                },
            ],
            final_cache_sizes: vec![0, 0],
            occupancy_series: Vec::new(),
            messages_delivered: 12,
            events_processed: 16,
            peak_flows: 1,
            duplicates_injected: 0,
            client_orphans: 0,
            orphan_origin_requests: 0,
            proxies_reset: 0,
            bytes_from_origin: 0,
            bytes_from_caches: 0,
            trace: None,
            convergence: None,
            metrics: None,
            shard_exec: None,
            spans: None,
            shard_profile: None,
            wall_time: Duration::from_millis(1),
            cpu_time: Duration::from_millis(1),
        };
        assert_eq!(report.hit_rate(), 0.5);
        assert_eq!(report.mean_hops(), 3.0);
        assert_eq!(report.phase(Phase::RequestI).hits, 2);
        assert_eq!(report.cluster_stats().requests_received, 4);
        assert!(report.summary_line().contains("hit_rate=0.5000"));
        // Clean runs do not mention orphans or trace drops.
        assert!(!report.summary_line().contains("replies_orphaned"));
        assert!(!report.summary_line().contains("trace_dropped"));
        assert_eq!(report.trace_dropped(), 0);
    }

    #[test]
    fn deterministic_json_is_valid_stable_and_field_sensitive() {
        let mut report = SimReport {
            completed: 4,
            hits: 2,
            phases: [PhaseStats::default(); 3],
            hops: [2.0, 4.0].into_iter().collect(),
            latency_us: Summary::new(),
            latency_p50_us: 1.5,
            latency_p99_us: 0.1 + 0.2, // non-round bits must round-trip
            hit_series: {
                let mut s = Series::new("hit_rate");
                s.push(1.0, 0.25);
                s
            },
            hops_series: Series::new("hops"),
            per_proxy: vec![ProxyStats {
                requests_received: 3,
                ..Default::default()
            }],
            final_cache_sizes: vec![7],
            // `name` is public: a control character must still escape.
            occupancy_series: vec![Series::new("proxy0"), Series::new("a\nb")],
            messages_delivered: 12,
            events_processed: 16,
            peak_flows: 1,
            duplicates_injected: 0,
            client_orphans: 0,
            orphan_origin_requests: 0,
            proxies_reset: 0,
            bytes_from_origin: 10,
            bytes_from_caches: 20,
            trace: None,
            convergence: None,
            metrics: None,
            shard_exec: None,
            spans: None,
            shard_profile: None,
            wall_time: Duration::from_millis(1),
            cpu_time: Duration::from_millis(1),
        };
        let json = report.to_deterministic_json();
        adc_obs::validate_json(&json).expect("canonical report JSON must parse");
        // Host telemetry must not leak into the canonical form.
        report.wall_time = Duration::from_secs(999);
        report.cpu_time = Duration::from_secs(999);
        assert_eq!(json, report.to_deterministic_json());
        // Neither may span attribution or the shard profile: both are
        // probe/host products, not simulation outputs.
        report.spans = Some(adc_obs::SpanProbe::new().into_report());
        report.shard_profile = Some(ShardProfile {
            shards: 4,
            coordinator_wait_ns: 123,
            ..ShardProfile::default()
        });
        assert_eq!(json, report.to_deterministic_json());
        // Empty summaries render as nulls, floats round-trip exactly.
        assert!(json.contains("\"latency_us\":{\"count\":0,\"sum\":0.0,\"mean\":null"));
        assert!(json.contains(&format!("\"latency_p99_us\":{:?}", 0.1 + 0.2)));
        // Any simulation-determined field changes the bytes.
        report.hits = 3;
        assert_ne!(json, report.to_deterministic_json());
    }

    #[test]
    fn shard_profile_imbalance_and_wait_fraction() {
        let mut prof = ShardProfile {
            shards: 2,
            ..ShardProfile::default()
        };
        // Empty profile: trivially balanced, nothing waited.
        assert_eq!(prof.imbalance_coefficient(), 1.0);
        assert_eq!(prof.barrier_wait_fraction(), 0.0);
        // Max 300 over mean 200 → 1.5.
        prof.shard_drain_ns = vec![300, 100];
        assert!((prof.imbalance_coefficient() - 1.5).abs() < 1e-12);
        prof.coordinator_busy_ns = 75;
        prof.coordinator_wait_ns = 25;
        assert!((prof.barrier_wait_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_line_surfaces_orphans_and_trace_drops() {
        let mut report = SimReport {
            completed: 1,
            hits: 0,
            phases: [PhaseStats::default(); 3],
            hops: Summary::new(),
            latency_us: Summary::new(),
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            hit_series: Series::new("hit"),
            hops_series: Series::new("hops"),
            per_proxy: vec![ProxyStats {
                replies_orphaned: 3,
                ..Default::default()
            }],
            final_cache_sizes: vec![0],
            occupancy_series: Vec::new(),
            messages_delivered: 2,
            events_processed: 2,
            peak_flows: 1,
            duplicates_injected: 0,
            client_orphans: 0,
            orphan_origin_requests: 0,
            proxies_reset: 0,
            bytes_from_origin: 0,
            bytes_from_caches: 0,
            trace: Some(TraceLog::new(1)),
            convergence: None,
            metrics: None,
            shard_exec: None,
            spans: None,
            shard_profile: None,
            wall_time: Duration::from_millis(1),
            cpu_time: Duration::from_millis(1),
        };
        // Overflow the one-record trace log so two deliveries drop.
        let log = report.trace.as_mut().unwrap();
        for i in 0..3 {
            log.record(crate::tracelog::DeliveryRecord {
                at: crate::time::SimTime::from_micros(i),
                request: adc_core::RequestId::new(adc_core::ClientId::new(0), i),
                from: adc_core::NodeId::Origin,
                to: adc_core::NodeId::Origin,
                is_request: true,
            });
        }
        assert_eq!(report.trace_dropped(), 2);
        let line = report.summary_line();
        assert!(line.contains("replies_orphaned=3"), "{line}");
        assert!(line.contains("trace_dropped=2"), "{line}");
    }
}
