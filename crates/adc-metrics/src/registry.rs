//! Per-proxy metric registry with wire-scrapable exposition.
//!
//! Counters, gauges and [`Log2Histogram`]s keyed by
//! `(`[`Family`]`, proxy id)`. Everything about the registry is
//! deterministic: storage is ordered ([`std::collections::BTreeMap`]),
//! iteration and [`Registry::snapshot`] walk keys in sorted order, and
//! [`Registry::merge`] is a pure element-wise fold — so per-proxy
//! histograms collected on parallel sweep shards merge *exactly*, unlike
//! averaging quantile estimates after the fact.
//!
//! The log2 bucket layout is the key to exact merging: every histogram
//! has the same 65 buckets (`0`, then `[2^(k-1), 2^k)` for `k = 1..=64`),
//! so merging is element-wise addition and `merge`-then-`quantile`
//! equals record-everything-then-`quantile` bit for bit.
//!
//! [`RegistrySnapshot::to_prometheus`] renders the classic Prometheus
//! text exposition format (counters, gauges, and cumulative `le`-labelled
//! histogram series); [`validate_prometheus`] is the matching minimal
//! format checker used by the integration tests and the scrape tooling.
//!
//! # Examples
//!
//! ```
//! use adc_metrics::{Family, Registry};
//!
//! let mut shard_a = Registry::new();
//! let mut shard_b = Registry::new();
//! shard_a.counter_add(Family::LOCAL_HITS, 0, 3);
//! shard_b.counter_add(Family::LOCAL_HITS, 0, 4);
//! shard_a.histogram_record(Family::HOPS, 0, 2);
//! shard_b.histogram_record(Family::HOPS, 0, 9);
//! shard_a.merge(&shard_b);
//! assert_eq!(shard_a.counter(Family::LOCAL_HITS, 0), 7);
//! assert_eq!(shard_a.histogram(Family::HOPS, 0).unwrap().count(), 2);
//! ```

use crate::Family;
use std::collections::BTreeMap;

/// Proxy-id slot for cluster-wide (not per-proxy) metric values; rendered
/// as `proxy="all"` by the Prometheus exposition.
pub const CLUSTER: u32 = u32::MAX;

/// Number of buckets in a [`Log2Histogram`]: one zero bucket plus one per
/// power of two up to `2^63`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-shape base-2 exponential histogram over `u64` observations.
///
/// Bucket `0` counts exact zeros; bucket `k` (for `k >= 1`) counts values
/// in `[2^(k-1), 2^k)`. Because every instance shares the same bucket
/// edges, [`Log2Histogram::merge`] is element-wise addition and is exact:
/// merging shard histograms then taking a quantile equals recording the
/// interleaved stream into one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: vec![0; LOG2_BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Bucket index of `value`: 0 for 0, else `1 + floor(log2(value))`.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            // leading_zeros <= 63 for value >= 1, so this is in 1..=64.
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        // Vec always has LOG2_BUCKETS entries and bucket_of is <= 64.
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations in bucket `k` (see the type docs for edges).
    pub fn bucket_count(&self, k: usize) -> u64 {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// Inclusive upper edge of bucket `k`: 0, 1, 3, 7, … `u64::MAX`.
    pub fn bucket_upper_edge(k: usize) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Adds every observation of `other` into `self`. Exact: the result
    /// is identical to recording both streams into one histogram.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Approximate quantile (0.0–1.0), reported as the upper edge of the
    /// bucket holding the target rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil().max(1.0)) as u64; // <= total: exact in f64
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(Self::bucket_upper_edge(k));
            }
        }
        Some(u64::MAX)
    }

    /// Iterates `(bucket_upper_edge, count)` pairs in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(k, &c)| (Self::bucket_upper_edge(k), c))
    }
}

/// Key of one metric value: family plus proxy id.
pub type MetricKey = (Family, u32);

/// Deterministic families of counters, gauges and log2 histograms keyed
/// by `(family, proxy_id)`.
///
/// A [`Family`] is a `&'static str` underneath, so hot-path updates never
/// allocate; iteration in family-name order falls out of the ordered
/// map. See the module docs for the merge guarantees.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Log2Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `(family, proxy)`, creating it at zero.
    pub fn counter_add(&mut self, family: Family, proxy: u32, delta: u64) {
        *self.counters.entry((family, proxy)).or_insert(0) += delta;
    }

    /// Current value of the counter `(family, proxy)` (0 when absent).
    pub fn counter(&self, family: Family, proxy: u32) -> u64 {
        self.counters.get(&(family, proxy)).copied().unwrap_or(0)
    }

    /// Sets the gauge `(family, proxy)`.
    pub fn gauge_set(&mut self, family: Family, proxy: u32, value: i64) {
        self.gauges.insert((family, proxy), value);
    }

    /// Adds `delta` (possibly negative) to the gauge `(family, proxy)`,
    /// creating it at zero.
    pub fn gauge_add(&mut self, family: Family, proxy: u32, delta: i64) {
        *self.gauges.entry((family, proxy)).or_insert(0) += delta;
    }

    /// Current value of the gauge `(family, proxy)` (0 when absent).
    pub fn gauge(&self, family: Family, proxy: u32) -> i64 {
        self.gauges.get(&(family, proxy)).copied().unwrap_or(0)
    }

    /// Records `value` into the histogram `(family, proxy)`, creating it
    /// empty.
    pub fn histogram_record(&mut self, family: Family, proxy: u32, value: u64) {
        self.histograms
            .entry((family, proxy))
            .or_default()
            .record(value);
    }

    /// The histogram `(family, proxy)`, if any value was recorded.
    pub fn histogram(&self, family: Family, proxy: u32) -> Option<&Log2Histogram> {
        self.histograms.get(&(family, proxy))
    }

    /// Iterates counters in sorted `(family, proxy)` order.
    pub fn counters(&self) -> impl Iterator<Item = (Family, u32, u64)> + '_ {
        self.counters.iter().map(|(&(f, p), &v)| (f, p, v))
    }

    /// Iterates gauges in sorted `(family, proxy)` order.
    pub fn gauges(&self) -> impl Iterator<Item = (Family, u32, i64)> + '_ {
        self.gauges.iter().map(|(&(f, p), &v)| (f, p, v))
    }

    /// Iterates histograms in sorted `(family, proxy)` order.
    pub fn histograms(&self) -> impl Iterator<Item = (Family, u32, &Log2Histogram)> + '_ {
        self.histograms.iter().map(|(&(f, p), h)| (f, p, h))
    }

    /// Proxy ids (excluding [`CLUSTER`]) that appear in any family, in
    /// ascending order.
    pub fn proxies(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|&(_, p)| p)
            .filter(|&p| p != CLUSTER)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Folds every family of `other` into `self`: counters add, gauges
    /// add, histograms merge element-wise (exactly).
    pub fn merge(&mut self, other: &Registry) {
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.gauges {
            *self.gauges.entry(key).or_insert(0) += v;
        }
        for (&key, h) in &other.histograms {
            self.histograms.entry(key).or_default().merge(h);
        }
    }

    /// Folds an ordered sequence of registries into one, by repeated
    /// [`Registry::merge`].
    ///
    /// Shard-merge entry point: each simulation shard accumulates its own
    /// registry, and the coordinator folds them after the run. Because
    /// `merge` is element-wise addition over identically-shaped families,
    /// the fold is exact and independent of the shard partitioning — the
    /// merged registry for `shards=N` is byte-identical to the `shards=1`
    /// registry for the same event stream.
    pub fn merge_all<'a>(parts: impl IntoIterator<Item = &'a Registry>) -> Registry {
        let mut merged = Registry::new();
        for part in parts {
            merged.merge(part);
        }
        merged
    }

    /// An owned, render-ready copy of every family, sorted by family
    /// name, then proxy.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters().collect(),
            gauges: self.gauges().collect(),
            histograms: self
                .histograms()
                .map(|(f, p, h)| (f, p, h.clone()))
                .collect(),
        }
    }
}

/// An owned snapshot of a [`Registry`], sorted by `(family, proxy)` —
/// what crosses thread/process boundaries and what the exposition
/// renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(family, proxy, value)` counter triples, sorted.
    pub counters: Vec<(Family, u32, u64)>,
    /// `(family, proxy, value)` gauge triples, sorted.
    pub gauges: Vec<(Family, u32, i64)>,
    /// `(family, proxy, histogram)` triples, sorted.
    pub histograms: Vec<(Family, u32, Log2Histogram)>,
}

/// Writes the `proxy` label, mapping the [`CLUSTER`] slot to `"all"`.
fn push_proxy_label(out: &mut String, proxy: u32) {
    out.push_str("{proxy=\"");
    if proxy == CLUSTER {
        out.push_str("all");
    } else {
        out.push_str(&proxy.to_string());
    }
    out.push_str("\"}");
}

/// Writes `le`-labelled histogram sample lines for one proxy.
fn push_histogram_lines(out: &mut String, metric: &str, proxy: u32, h: &Log2Histogram) {
    let proxy_label = if proxy == CLUSTER {
        "all".to_string()
    } else {
        proxy.to_string()
    };
    let mut cum = 0u64;
    for (edge, count) in h.iter() {
        if count == 0 {
            continue; // sparse: empty buckets carry no information
        }
        cum += count;
        out.push_str(metric);
        out.push_str("_bucket{proxy=\"");
        out.push_str(&proxy_label);
        out.push_str("\",le=\"");
        out.push_str(&edge.to_string());
        out.push_str("\"} ");
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(metric);
    out.push_str("_bucket{proxy=\"");
    out.push_str(&proxy_label);
    out.push_str("\",le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(metric);
    out.push_str("_sum{proxy=\"");
    out.push_str(&proxy_label);
    out.push_str("\"} ");
    out.push_str(&h.sum().to_string());
    out.push('\n');
    out.push_str(metric);
    out.push_str("_count{proxy=\"");
    out.push_str(&proxy_label);
    out.push_str("\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per family, then one sample
    /// line per `(metric, proxy)` value; histograms render the classic
    /// cumulative `_bucket{le=...}` / `_sum` / `_count` series.
    ///
    /// Output is deterministic: families and samples appear in sorted
    /// `(family, proxy)` order, so two same-seed runs render identical
    /// text.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = None;
        for &(family, proxy, value) in &self.counters {
            let metric = family.name();
            if last_family != Some(family) {
                out.push_str("# TYPE ");
                out.push_str(metric);
                out.push_str(" counter\n");
                last_family = Some(family);
            }
            out.push_str(metric);
            push_proxy_label(&mut out, proxy);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        let mut last_family = None;
        for &(family, proxy, value) in &self.gauges {
            let metric = family.name();
            if last_family != Some(family) {
                out.push_str("# TYPE ");
                out.push_str(metric);
                out.push_str(" gauge\n");
                last_family = Some(family);
            }
            out.push_str(metric);
            push_proxy_label(&mut out, proxy);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        let mut last_family = None;
        for (family, proxy, h) in &self.histograms {
            let metric = family.name();
            if last_family != Some(*family) {
                out.push_str("# TYPE ");
                out.push_str(metric);
                out.push_str(" histogram\n");
                last_family = Some(*family);
            }
            push_histogram_lines(&mut out, metric, *proxy, h);
        }
        out
    }
}

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Checks one `label="value",...` block (without the braces).
fn check_labels(labels: &str) -> Result<(), String> {
    for part in labels.split(',') {
        let Some((name, value)) = part.split_once('=') else {
            return Err(format!("label without '=': {part:?}"));
        };
        if !valid_metric_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        if !(value.starts_with('"') && value.ends_with('"') && value.len() >= 2) {
            return Err(format!("label value not quoted: {value:?}"));
        }
    }
    Ok(())
}

/// A minimal Prometheus text-format checker: every non-comment line must
/// be `name[{label="value",...}] <number>`, comment lines must be
/// `# TYPE`/`# HELP`/plain comments, and `# TYPE` lines must name a valid
/// metric and one of the known types.
///
/// This is the round-trip half of [`RegistrySnapshot::to_prometheus`]:
/// everything the renderer emits validates, and the scrape/CI tooling
/// runs untrusted text through it before use.
///
/// # Errors
///
/// Returns `Err(description)` naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut words = rest.split_whitespace();
                let name = words.next().unwrap_or("");
                let kind = words.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type {kind:?}"));
                }
            }
            continue; // HELP and plain comments are free-form
        }
        // Sample line: name, optional {labels}, a space, a number.
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value: {line:?}"))?;
        let value = value.trim();
        let numeric = value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !numeric {
            return Err(format!("line {n}: non-numeric value {value:?}"));
        }
        let name = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unclosed label block: {line:?}"))?;
                check_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
                name
            }
            None => name_and_labels,
        };
        if !valid_metric_name(name.trim()) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no sample lines".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_land_on_power_of_two_edges() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.bucket_count(0), 1); // 0
        assert_eq!(h.bucket_count(1), 1); // 1
        assert_eq!(h.bucket_count(2), 2); // 2, 3
        assert_eq!(h.bucket_count(3), 2); // 4, 7
        assert_eq!(h.bucket_count(4), 1); // 8
        assert_eq!(h.bucket_count(10), 1); // 1023
        assert_eq!(h.bucket_count(11), 1); // 1024
        assert_eq!(h.bucket_count(64), 1); // u64::MAX
        assert_eq!(h.sum(), u64::MAX); // saturated
    }

    #[test]
    fn log2_quantiles_report_bucket_upper_edges() {
        let mut h = Log2Histogram::new();
        for _ in 0..9 {
            h.record(3);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.99), Some(1023));
        assert_eq!(Log2Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn log2_merge_is_exact_and_commutative() {
        let stream: Vec<u64> = (0..200).map(|i| i * i % 4099).collect();
        let mut whole = Log2Histogram::new();
        let mut left = Log2Histogram::new();
        let mut right = Log2Histogram::new();
        for (i, &v) in stream.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, whole);
        assert_eq!(rl, whole);
    }

    #[test]
    fn registry_families_are_sorted_and_mergeable() {
        let (a, b) = (Family::CACHE_EVICTS, Family::LOCAL_HITS);
        let mut r = Registry::new();
        r.counter_add(b, 1, 2);
        r.counter_add(a, 3, 1);
        r.counter_add(a, 0, 5);
        r.gauge_set(Family::CACHED_OBJECTS, 0, 7);
        r.gauge_add(Family::CACHED_OBJECTS, 0, -2);
        r.histogram_record(Family::HOPS, 2, 4);
        let order: Vec<(Family, u32)> = r.counters().map(|(f, p, _)| (f, p)).collect();
        assert_eq!(order, vec![(a, 0), (a, 3), (b, 1)]);
        assert_eq!(r.gauge(Family::CACHED_OBJECTS, 0), 5);
        assert_eq!(r.proxies(), vec![0, 1, 2, 3]);

        let mut other = Registry::new();
        other.counter_add(a, 0, 1);
        other.gauge_add(Family::CACHED_OBJECTS, 0, 1);
        other.histogram_record(Family::HOPS, 2, 4);
        r.merge(&other);
        assert_eq!(r.counter(a, 0), 6);
        assert_eq!(r.gauge(Family::CACHED_OBJECTS, 0), 6);
        assert_eq!(
            r.histogram(Family::HOPS, 2).map(Log2Histogram::count),
            Some(2)
        );
    }

    #[test]
    fn merge_all_is_partition_invariant() {
        // Record one stream whole, and the same stream split across 3
        // "shards"; the folded registries must be identical.
        let mut whole = Registry::new();
        let mut shards = [Registry::new(), Registry::new(), Registry::new()];
        for i in 0..300u64 {
            let proxy = (i % 5) as u32; // 5 proxies round-robin
            whole.counter_add(Family::LOCAL_HITS, proxy, 1);
            whole.histogram_record(Family::HOPS, proxy, i % 9);
            whole.gauge_add(Family::CACHED_OBJECTS, proxy, 1);
            let s = &mut shards[(i % 3) as usize]; // shard by index
            s.counter_add(Family::LOCAL_HITS, proxy, 1);
            s.histogram_record(Family::HOPS, proxy, i % 9);
            s.gauge_add(Family::CACHED_OBJECTS, proxy, 1);
        }
        let merged = Registry::merge_all(shards.iter());
        assert_eq!(merged, whole);
        assert_eq!(
            merged.snapshot().to_prometheus(),
            whole.snapshot().to_prometheus()
        );
        // Folding a single registry is the identity.
        assert_eq!(Registry::merge_all([&whole]), whole);
        // Folding nothing yields an empty registry.
        assert_eq!(Registry::merge_all([]), Registry::new());
    }

    #[test]
    fn snapshot_renders_valid_prometheus() {
        let mut r = Registry::new();
        r.counter_add(Family::LOCAL_HITS, 0, 3);
        r.counter_add(Family::LOCAL_HITS, 1, 4);
        r.counter_add(Family::REQUESTS_INJECTED, CLUSTER, 7);
        r.gauge_set(Family::CACHED_OBJECTS, 0, 12);
        r.histogram_record(Family::HOPS, 0, 2);
        r.histogram_record(Family::HOPS, 0, 5);
        let text = r.snapshot().to_prometheus();
        validate_prometheus(&text).expect("renderer output must validate");
        assert!(text.contains("# TYPE adc_local_hits_total counter"));
        assert!(text.contains("adc_local_hits_total{proxy=\"1\"} 4"));
        assert!(text.contains("adc_requests_injected_total{proxy=\"all\"} 7"));
        assert!(text.contains("adc_hops_bucket{proxy=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("adc_hops_sum{proxy=\"0\"} 7"));
        assert!(text.contains("adc_hops_count{proxy=\"0\"} 2"));
        // One TYPE line per family, not per sample.
        assert_eq!(text.matches("# TYPE adc_local_hits_total").count(), 1);
    }

    #[test]
    fn snapshot_rendering_is_deterministic() {
        let build = |order_flip: bool| {
            let mut r = Registry::new();
            let (a, b) = if order_flip { (1, 0) } else { (0, 1) };
            r.counter_add(Family::LOCAL_HITS, a, 1);
            r.counter_add(Family::LOCAL_HITS, b, 2);
            r.histogram_record(Family::HOPS, a, 3);
            r.histogram_record(Family::HOPS, b, 3);
            r.snapshot().to_prometheus()
        };
        // Same content inserted in a different order renders identically
        // except for the per-key values, which follow the key, not the
        // insertion order.
        let x = build(false);
        let y = build(true);
        assert_eq!(x.matches("adc_local_hits_total{proxy=\"0\"}").count(), 1);
        assert_eq!(y.matches("adc_local_hits_total{proxy=\"0\"}").count(), 1);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just words\n").is_err());
        assert!(validate_prometheus("ok_metric notanumber\n").is_err());
        assert!(validate_prometheus("bad-name 1\n").is_err());
        assert!(validate_prometheus("m{l=unquoted} 1\n").is_err());
        assert!(validate_prometheus("m{l=\"v\" 1\n").is_err());
        assert!(validate_prometheus("# TYPE m frobnicator\nm 1\n").is_err());
        assert!(validate_prometheus("# TYPE m counter\nm{p=\"0\"} 1\n").is_ok());
        assert!(validate_prometheus("m_bucket{le=\"+Inf\"} 4\n").is_ok());
    }
}
