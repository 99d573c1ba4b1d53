//! Optional event tracing: a bounded log of every message delivery,
//! for debugging and for tests that verify path-level properties (e.g.
//! that backwarding exactly retraces the forwarding path).

use crate::time::SimTime;
use adc_core::{NodeId, RequestId};

/// One recorded message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Simulated time of delivery.
    pub at: SimTime,
    /// The flow this message belongs to.
    pub request: RequestId,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// `true` for a request message, `false` for a reply.
    pub is_request: bool,
}

/// A bounded delivery log; recording stops silently once `capacity`
/// events have been captured (the bound keeps multi-million-request runs
/// usable with tracing left on).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<DeliveryRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceLog {
    /// The hard upper bound on stored records (2^20). Requests for a
    /// larger log are clamped to this, so a `TraceLog` never holds more
    /// than ~32 MiB of records regardless of the configured
    /// `trace_capacity`; everything past the bound is counted in
    /// [`dropped`](TraceLog::dropped) rather than stored.
    pub const MAX_CAPACITY: usize = 1 << 20;

    /// Creates a log bounded to `min(capacity, MAX_CAPACITY)` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.min(Self::MAX_CAPACITY);
        TraceLog {
            records: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The effective record bound (after clamping to
    /// [`MAX_CAPACITY`](TraceLog::MAX_CAPACITY)).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a delivery (drops it silently when full).
    pub fn record(&mut self, record: DeliveryRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// All captured records, in delivery order.
    pub fn records(&self) -> &[DeliveryRecord] {
        &self.records
    }

    /// Number of deliveries that arrived after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The deliveries of one flow, in order.
    pub fn flow(&self, request: RequestId) -> Vec<DeliveryRecord> {
        self.records
            .iter()
            .filter(|r| r.request == request)
            .copied()
            .collect()
    }

    /// Checks the backwarding invariant for `request`: the reply path
    /// visits the forward path's nodes in exact reverse order.
    ///
    /// Returns `false` for incomplete flows (e.g. truncated by the log
    /// bound).
    pub fn backwarding_retraces_forwarding(&self, request: RequestId) -> bool {
        let flow = self.flow(request);
        if flow.is_empty() {
            return false;
        }
        let forward: Vec<(NodeId, NodeId)> = flow
            .iter()
            .filter(|r| r.is_request)
            .map(|r| (r.from, r.to))
            .collect();
        let backward: Vec<(NodeId, NodeId)> = flow
            .iter()
            .filter(|r| !r.is_request)
            .map(|r| (r.from, r.to))
            .collect();
        if forward.len() != backward.len() {
            return false;
        }
        // Each backward edge must be the reverse of the corresponding
        // forward edge, in reverse order.
        forward
            .iter()
            .rev()
            .zip(backward.iter())
            .all(|(&(ffrom, fto), &(bfrom, bto))| ffrom == bto && fto == bfrom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{ClientId, ProxyId};

    fn delivery(seq: u64, from: NodeId, to: NodeId, is_request: bool) -> DeliveryRecord {
        DeliveryRecord {
            at: SimTime::from_micros(seq),
            request: RequestId::new(ClientId::new(0), 1),
            from,
            to,
            is_request,
        }
    }

    fn client() -> NodeId {
        NodeId::Client(ClientId::new(0))
    }

    fn proxy(i: u32) -> NodeId {
        NodeId::Proxy(ProxyId::new(i))
    }

    #[test]
    fn bounded_capacity() {
        let mut log = TraceLog::new(2);
        assert_eq!(log.capacity(), 2);
        for i in 0..5 {
            log.record(delivery(i, client(), proxy(0), true));
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn oversized_capacity_is_clamped() {
        // A request far beyond the bound must clamp the *accounting*
        // capacity, not just the pre-allocation — the log previously kept
        // the raw value and would have grown unbounded past 2^20.
        let log = TraceLog::new(usize::MAX);
        assert_eq!(log.capacity(), TraceLog::MAX_CAPACITY);
        let log = TraceLog::new(TraceLog::MAX_CAPACITY + 1);
        assert_eq!(log.capacity(), TraceLog::MAX_CAPACITY);
        // At or below the bound the request is honoured exactly.
        let log = TraceLog::new(TraceLog::MAX_CAPACITY);
        assert_eq!(log.capacity(), TraceLog::MAX_CAPACITY);
    }

    #[test]
    fn drop_accounting_at_the_boundary() {
        // Fill to exactly capacity: nothing drops.
        let mut log = TraceLog::new(3);
        for i in 0..3 {
            log.record(delivery(i, client(), proxy(0), true));
        }
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.dropped(), 0);
        // The first record past the bound is the first drop.
        log.record(delivery(3, client(), proxy(0), true));
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn symmetric_flow_validates() {
        let mut log = TraceLog::new(64);
        // C → P0 → P1 → O, then O → P1 → P0 → C.
        log.record(delivery(0, client(), proxy(0), true));
        log.record(delivery(1, proxy(0), proxy(1), true));
        log.record(delivery(2, proxy(1), NodeId::Origin, true));
        log.record(delivery(3, NodeId::Origin, proxy(1), false));
        log.record(delivery(4, proxy(1), proxy(0), false));
        log.record(delivery(5, proxy(0), client(), false));
        let id = RequestId::new(ClientId::new(0), 1);
        assert!(log.backwarding_retraces_forwarding(id));
        assert_eq!(log.flow(id).len(), 6);
    }

    #[test]
    fn asymmetric_flow_fails_validation() {
        let mut log = TraceLog::new(64);
        // Reply skips proxy 1 (a CARP-style direct return).
        log.record(delivery(0, client(), proxy(0), true));
        log.record(delivery(1, proxy(0), proxy(1), true));
        log.record(delivery(2, proxy(1), client(), false));
        let id = RequestId::new(ClientId::new(0), 1);
        assert!(!log.backwarding_retraces_forwarding(id));
    }

    #[test]
    fn unknown_flow_fails() {
        let log = TraceLog::new(4);
        assert!(!log.backwarding_retraces_forwarding(RequestId::new(ClientId::new(9), 9)));
    }
}
