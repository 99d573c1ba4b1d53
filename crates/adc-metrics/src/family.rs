//! The closed set of metric family names.
//!
//! [`Family`] is the key every [`Registry`](crate::Registry) method
//! takes. Its field is private, so its only values are the associated
//! consts declared here: a misspelt family name does not compile, and
//! the simulator's exposition, the live cluster's scrape and the tests
//! that pin either one spell every family the same way. Code that reads
//! scraped text back ([`sample`](crate::sample),
//! [`sample_value`](crate::sample_value)) looks families up by
//! [`Family::name`].

/// A metric family name: one of the associated consts of this type.
///
/// Families order by name, which is the order
/// [`Registry::snapshot`](crate::Registry::snapshot) and the Prometheus
/// exposition list them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Family(&'static str);

impl Family {
    /// The family's exposition name (`adc_…`).
    pub const fn name(self) -> &'static str {
        self.0
    }
}

/// Declares the family consts and [`Family::ALL`] from one list, so the
/// list cannot miss a family.
macro_rules! families {
    ($($(#[doc = $doc:literal])+ $id:ident = $name:literal;)+) => {
        impl Family {
            $($(#[doc = $doc])+ pub const $id: Family = Family($name);)+

            /// Every family, in declaration order.
            pub const ALL: &'static [Family] = &[$(Family::$id),+];
        }
    };
}

families! {
    /// Requests served from a proxy's local store, per serving proxy.
    LOCAL_HITS = "adc_local_hits_total";
    /// Misses forwarded to the peer the mapping tables named.
    FORWARDS_LEARNED = "adc_forwards_learned_total";
    /// Misses forwarded to a random peer (no table entry).
    FORWARDS_RANDOM = "adc_forwards_random_total";
    /// Requests that revisited a proxy and were sent to the origin.
    LOOPS_DETECTED = "adc_loops_detected_total";
    /// Requests that exhausted the hop limit and were sent to the origin.
    HOP_LIMIT = "adc_hop_limit_total";
    /// `THIS`-mapped objects whose data was missing; fetched from the
    /// origin.
    ORIGIN_THIS_MISS = "adc_origin_this_miss_total";
    /// Remote-owner adoptions learned from backwarded replies.
    BACKWARD_ADOPTIONS = "adc_backward_adoptions_total";
    /// Entries entering, leaving or moving between a proxy's mapping
    /// tables: one per table migration, first sightings and forgotten
    /// rows included.
    TABLE_MIGRATIONS = "adc_table_migrations_total";
    /// Objects admitted into a proxy's local store.
    CACHE_INSERTS = "adc_cache_inserts_total";
    /// Objects evicted from a proxy's local store.
    CACHE_EVICTS = "adc_cache_evicts_total";
    /// Replies that matched no pending request and were dropped.
    REPLIES_ORPHANED = "adc_replies_orphaned_total";
    /// Workload requests injected (cluster-wide,
    /// [`CLUSTER`](crate::registry::CLUSTER) slot).
    REQUESTS_INJECTED = "adc_requests_injected_total";
    /// Flows completed (cluster-wide,
    /// [`CLUSTER`](crate::registry::CLUSTER) slot).
    REQUESTS_COMPLETED = "adc_requests_completed_total";
    /// Completed flows served from some proxy cache
    /// ([`CLUSTER`](crate::registry::CLUSTER) slot).
    REQUEST_HITS = "adc_request_hits_total";
    /// Live single-table occupancy gauge, per proxy.
    TABLE_SINGLE = "adc_table_single";
    /// Live multiple-table occupancy gauge, per proxy.
    TABLE_MULTIPLE = "adc_table_multiple";
    /// Live caching-table occupancy gauge, per proxy.
    TABLE_CACHING = "adc_table_caching";
    /// Live stored-object count gauge, per proxy.
    CACHED_OBJECTS = "adc_cached_objects";
    /// [`Family::TABLE_SINGLE`] sampled into a histogram on the
    /// occupancy cadence.
    TABLE_SINGLE_OCCUPANCY = "adc_table_single_occupancy";
    /// [`Family::TABLE_MULTIPLE`] sampled into a histogram on the
    /// occupancy cadence.
    TABLE_MULTIPLE_OCCUPANCY = "adc_table_multiple_occupancy";
    /// [`Family::TABLE_CACHING`] sampled into a histogram on the
    /// occupancy cadence.
    TABLE_CACHING_OCCUPANCY = "adc_table_caching_occupancy";
    /// [`Family::CACHED_OBJECTS`] sampled into a histogram on the
    /// occupancy cadence.
    CACHED_OBJECTS_OCCUPANCY = "adc_cached_objects_occupancy";
    /// Hops-to-resolution histogram; hit flows keyed by serving proxy,
    /// origin-served flows in the [`CLUSTER`](crate::registry::CLUSTER)
    /// slot.
    HOPS = "adc_hops";
    /// Resolution-latency histogram (microseconds), keyed like
    /// [`Family::HOPS`].
    RESOLUTION_LATENCY_US = "adc_resolution_latency_us";
    /// Requests a proxy received (from a client or a peer).
    REQUESTS_RECEIVED = "adc_requests_received_total";
    /// Replies a proxy matched to a pending request and processed.
    REPLIES_PROCESSED = "adc_replies_processed_total";
    /// Requests the live origin server answered over its lifetime.
    ORIGIN_REQUESTS = "adc_origin_requests_total";
    /// Spans a live node's tracer recorded over its lifetime (kept or
    /// dropped).
    NET_TRACE_SPANS = "adc_net_trace_spans_total";
    /// Spans a live node's tracer lost: ring overwrites plus
    /// pending-table overflow.
    NET_TRACE_DROPPED = "adc_net_trace_dropped_total";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_distinct_and_prefixed() {
        let names: BTreeSet<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), Family::ALL.len(), "a family name repeats");
        for name in names {
            assert!(name.starts_with("adc_"), "{name} lacks the adc_ prefix");
        }
    }

    #[test]
    fn snapshot_lists_families_in_name_order() {
        // Record every family in reverse declaration order, in each of
        // the three kinds; the snapshot must come back sorted by name.
        let mut r = Registry::new();
        for (i, &family) in Family::ALL.iter().rev().enumerate() {
            let v = i as u64 + 1;
            r.counter_add(family, 0, v);
            r.gauge_set(family, 1, 1);
            r.histogram_record(family, 2, v);
        }
        let mut sorted: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        sorted.sort_unstable();
        let snap = r.snapshot();
        let counters: Vec<&str> = snap.counters.iter().map(|(f, _, _)| f.name()).collect();
        let gauges: Vec<&str> = snap.gauges.iter().map(|(f, _, _)| f.name()).collect();
        let histograms: Vec<&str> = snap.histograms.iter().map(|(f, _, _)| f.name()).collect();
        assert_eq!(counters, sorted);
        assert_eq!(gauges, sorted);
        assert_eq!(histograms, sorted);
    }
}
