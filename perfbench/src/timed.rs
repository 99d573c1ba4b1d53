//! `Timed<A>`: a [`CacheAgent`] wrapper that times the agent layer from
//! outside.
//!
//! Every trait method is forwarded to the wrapped agent unchanged; the
//! two message handlers are bracketed by clock reads. A request whose
//! pushed action is a reply counts as a hit, any other as a miss. The
//! measured clock-read cost is subtracted from every sample, so the
//! numbers are the agent's own time. Runtimes drive the wrapper exactly
//! like the bare agent (`Simulation::run_with_agents`,
//! `run_sharded_with_agents`, `Cluster::spawn_with_agents`).

use adc_core::{
    Action, ActionSink, CacheAgent, CacheEvent, Message, ObjectId, Probe, ProxyId, ProxyStats,
    Reply, Request, RequestId,
};
use adc_metrics::Log2Histogram;
use rand::RngCore;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The agent boundary a call crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `on_request` answered from the local cache.
    RequestHit,
    /// `on_request` forwarded to a peer or the origin.
    RequestMiss,
    /// `on_reply` on the backwarding path.
    Reply,
}

impl Boundary {
    /// Span name in the chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::RequestHit => "on_request_hit",
            Boundary::RequestMiss => "on_request_miss",
            Boundary::Reply => "on_reply",
        }
    }
}

/// Calls, total time and log2 histogram of one boundary (clock cost
/// already subtracted).
#[derive(Debug, Clone, Default)]
pub struct BoundaryStats {
    /// Calls made.
    pub calls: u64,
    /// Sum of per-call times, ns.
    pub total_ns: u64,
    /// Per-call times, ns.
    pub hist: Log2Histogram,
}

impl BoundaryStats {
    /// Records one call of `ns`.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    /// Adds another boundary's samples into this one.
    pub fn merge(&mut self, other: &BoundaryStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
    }

    /// Mean ns per call, 0 without calls.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Everything one wrapper measured.
#[derive(Debug, Clone, Default)]
pub struct AgentTiming {
    /// `on_request` calls answered locally.
    pub request_hit: BoundaryStats,
    /// `on_request` calls that forwarded.
    pub request_miss: BoundaryStats,
    /// `on_reply` calls.
    pub reply: BoundaryStats,
    /// Actions pushed (each is one message sent).
    pub sends: u64,
}

impl AgentTiming {
    /// Adds another wrapper's measurements into this one.
    pub fn merge(&mut self, other: &AgentTiming) {
        self.request_hit.merge(&other.request_hit);
        self.request_miss.merge(&other.request_miss);
        self.reply.merge(&other.reply);
        self.sends += other.sends;
    }

    /// Calls of `on_request`.
    pub fn request_calls(&self) -> u64 {
        self.request_hit.calls + self.request_miss.calls
    }

    /// Total agent time, ns.
    pub fn total_ns(&self) -> u64 {
        self.request_hit.total_ns + self.request_miss.total_ns + self.reply.total_ns
    }
}

/// One agent call, kept so a client request can find its agent work by
/// [`RequestId`].
#[derive(Debug, Clone, Copy)]
pub struct AgentSpan {
    /// The request the call belonged to.
    pub request: RequestId,
    /// The proxy that made the call.
    pub proxy: u32,
    /// The boundary crossed.
    pub boundary: Boundary,
    /// Start, ns since the span epoch.
    pub start_ns: u64,
    /// Duration, ns (clock cost subtracted).
    pub dur_ns: u64,
}

/// Per-request span log (live runs only): the agent time of every
/// request plus the first `cap` individual spans.
#[derive(Debug)]
struct SpanLog {
    epoch: Instant,
    per_request: HashMap<RequestId, u64>,
    spans: Vec<AgentSpan>,
    cap: usize,
}

/// The timing wrapper.
#[derive(Debug)]
pub struct Timed<A> {
    inner: A,
    clock_ns: u64,
    timing: AgentTiming,
    log: Option<SpanLog>,
}

impl<A: CacheAgent> Timed<A> {
    /// Wraps `inner`; `clock_ns` is the measured cost of one clock read,
    /// subtracted from every sample.
    pub fn new(inner: A, clock_ns: u64) -> Self {
        Timed {
            inner,
            clock_ns,
            timing: AgentTiming::default(),
            log: None,
        }
    }

    /// Like [`Timed::new`], additionally keeping per-request agent time
    /// and up to `cap` individual spans stamped against `epoch`.
    pub fn with_spans(inner: A, clock_ns: u64, epoch: Instant, cap: usize) -> Self {
        Timed {
            log: Some(SpanLog {
                epoch,
                per_request: HashMap::new(),
                spans: Vec::new(),
                cap,
            }),
            ..Timed::new(inner, clock_ns)
        }
    }

    /// What was measured so far.
    pub fn timing(&self) -> &AgentTiming {
        &self.timing
    }

    /// Returns and clears the measurements, per-request times and spans.
    pub fn take(&mut self) -> (AgentTiming, HashMap<RequestId, u64>, Vec<AgentSpan>) {
        let timing = std::mem::take(&mut self.timing);
        match &mut self.log {
            Some(log) => (
                timing,
                std::mem::take(&mut log.per_request),
                std::mem::take(&mut log.spans),
            ),
            None => (timing, HashMap::new(), Vec::new()),
        }
    }

    fn record(
        &mut self,
        id: RequestId,
        boundary: Boundary,
        start: Instant,
        elapsed: Duration,
        sends: usize,
    ) {
        let ns = (elapsed.as_nanos() as u64).saturating_sub(self.clock_ns);
        self.timing.sends += sends as u64;
        match boundary {
            Boundary::RequestHit => self.timing.request_hit.record(ns),
            Boundary::RequestMiss => self.timing.request_miss.record(ns),
            Boundary::Reply => self.timing.reply.record(ns),
        }
        if let Some(log) = &mut self.log {
            *log.per_request.entry(id).or_insert(0) += ns;
            if log.spans.len() < log.cap {
                log.spans.push(AgentSpan {
                    request: id,
                    proxy: self.inner.proxy_id().raw(),
                    boundary,
                    start_ns: start.duration_since(log.epoch).as_nanos() as u64,
                    dur_ns: ns,
                });
            }
        }
    }
}

impl<A: CacheAgent> CacheAgent for Timed<A> {
    fn proxy_id(&self) -> ProxyId {
        self.inner.proxy_id()
    }

    fn on_request<P: Probe>(
        &mut self,
        request: Request,
        rng: &mut dyn RngCore,
        probe: &mut P,
        out: &mut ActionSink,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.on_request(request, rng, probe, out);
        let elapsed = start.elapsed();
        let boundary = match out.as_slice().last() {
            Some(Action::Send {
                message: Message::Reply(_),
                ..
            }) => Boundary::RequestHit,
            _ => Boundary::RequestMiss,
        };
        self.record(request.id, boundary, start, elapsed, out.len() - before);
    }

    fn on_reply<P: Probe>(&mut self, reply: Reply, probe: &mut P, out: &mut ActionSink) {
        let before = out.len();
        let start = Instant::now();
        self.inner.on_reply(reply, probe, out);
        let elapsed = start.elapsed();
        self.record(
            reply.id,
            Boundary::Reply,
            start,
            elapsed,
            out.len() - before,
        );
    }

    fn owner_hint(&self, object: ObjectId) -> Option<ProxyId> {
        self.inner.owner_hint(object)
    }

    fn stats(&self) -> &ProxyStats {
        self.inner.stats()
    }

    fn drain_cache_events(&mut self) -> Vec<CacheEvent> {
        self.inner.drain_cache_events()
    }

    fn cached_objects(&self) -> usize {
        self.inner.cached_objects()
    }

    fn is_cached(&self, object: ObjectId) -> bool {
        self.inner.is_cached(object)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy, ClientId, NullProbe};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(seq: u64, object: u64) -> Request {
        let client = ClientId::new(0);
        Request::new(RequestId::new(client, seq), ObjectId::new(object), client)
    }

    fn agent() -> AdcProxy {
        let config = AdcConfig::builder()
            .single_capacity(8)
            .multiple_capacity(8)
            .cache_capacity(4)
            .max_hops(4)
            .build();
        AdcProxy::new(ProxyId::new(0), 1, config)
    }

    /// Drives the bare agent and the wrapper through the same script and
    /// compares every trait method's answer after each step.
    #[test]
    fn forwards_every_method_unchanged() {
        let mut bare = agent();
        let mut timed = Timed::with_spans(agent(), 0, Instant::now(), 16);
        let mut rng_bare = StdRng::seed_from_u64(3);
        let mut rng_timed = StdRng::seed_from_u64(3);
        let (mut out_bare, mut out_timed) = (ActionSink::new(), ActionSink::new());
        let mut replies = 0;
        let compare = |bare: &mut AdcProxy, timed: &mut Timed<AdcProxy>| {
            assert_eq!(bare.proxy_id(), timed.proxy_id());
            assert_eq!(bare.stats(), timed.stats());
            assert_eq!(bare.cached_objects(), timed.cached_objects());
            assert_eq!(bare.drain_cache_events(), timed.drain_cache_events());
            for object in 0..12 {
                let object = ObjectId::new(object);
                assert_eq!(bare.owner_hint(object), timed.owner_hint(object));
                assert_eq!(bare.is_cached(object), timed.is_cached(object));
            }
        };
        for seq in 0..40u64 {
            let req = request(seq, seq % 6);
            bare.on_request(req, &mut rng_bare, &mut NullProbe, &mut out_bare);
            timed.on_request(req, &mut rng_timed, &mut NullProbe, &mut out_timed);
            assert_eq!(out_bare.as_slice(), out_timed.as_slice());
            let forwarded = out_bare.drain().next();
            out_timed.clear();
            // A single proxy forwards misses to the origin; answer them.
            if let Some(Action::Send {
                message: Message::Request(fwd),
                ..
            }) = forwarded
            {
                let reply = Reply::from_origin(&fwd, 100);
                replies += 1;
                bare.on_reply(reply, &mut NullProbe, &mut out_bare);
                timed.on_reply(reply, &mut NullProbe, &mut out_timed);
                assert_eq!(out_bare.as_slice(), out_timed.as_slice());
                out_bare.clear();
                out_timed.clear();
            }
            compare(&mut bare, &mut timed);
        }
        assert_eq!(
            bare.request_action(request(99, 1), &mut rng_bare),
            timed.request_action(request(99, 1), &mut rng_timed)
        );
        bare.reset();
        timed.reset();
        compare(&mut bare, &mut timed);

        let (timing, per_request, spans) = timed.take();
        assert_eq!(timing.request_calls(), 41);
        assert!(timing.request_hit.calls > 0 && timing.request_miss.calls > 0);
        assert_eq!(timing.reply.calls, replies);
        assert_eq!(per_request.len(), 41);
        assert_eq!(spans.len(), 16, "span log stops at its cap");
        assert_eq!(timed.timing().request_calls(), 0, "take clears");
    }
}
