//! Per-proxy counters.

/// Counters accumulated by one proxy agent over its lifetime.
///
/// All counters are plain totals; rates and series are derived by the
/// metrics layer.
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
    /// Replies processed on the backwarding path.
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
