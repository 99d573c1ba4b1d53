//! The proxy and origin server nodes.

use crate::book::AddressBook;
use crate::flight::FlightRecorder;
use crate::protocol::{Frame, TraceContext, TraceScrape};
use crate::sync::Mutex;
use crate::trace::{NodeTracer, TraceCounters};
use crate::transport::{spawn_acceptor, write_frame, FrameReader, Pool};
use adc_core::{
    Action, ActionSink, CacheAgent, CacheEvent, Message, NodeId, NullProbe, ObjectId, Probe,
    ProxyId, ProxyStats, Reply, Request,
};
use adc_metrics::{Family, Registry};
use adc_obs::SegmentKind;
use adc_workload::SizeModel;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One outgoing transmission produced by a frame: the action, the body
/// bytes to attach to replies, and the trace context for the wire
/// frame (`None` keeps the frame on the untraced tags).
type Outgoing = (Action, Bytes, Option<TraceContext>);

/// A running proxy node: the sans-IO agent plus its socket plumbing.
///
/// Its threads (one accepting, one per inbound connection) are
/// detached and end with the process.
#[derive(Debug)]
pub struct ProxyNode<A> {
    /// The agent, shared for post-run inspection.
    pub agent: Arc<Mutex<A>>,
    /// The byte store backing the agent's cache decisions.
    pub store: Arc<Mutex<HashMap<ObjectId, Bytes>>>,
    /// The live span recorder, present when the node was spawned with
    /// tracing enabled. Shared so flight-recorder dumps and tests can
    /// read the ring without a wire scrape.
    pub tracer: Option<Arc<Mutex<NodeTracer>>>,
    alive: Arc<AtomicBool>,
}

impl<A: CacheAgent + Send + 'static> ProxyNode<A> {
    /// Spawns a proxy node serving `listener`, forwarding through `book`.
    /// Observability is disabled ([`NullProbe`]); use
    /// [`ProxyNode::spawn_observed`] to capture events.
    pub fn spawn(agent: A, listener: TcpListener, book: Arc<AddressBook>, seed: u64) -> Self {
        Self::spawn_observed(agent, listener, book, seed, Arc::new(Mutex::new(NullProbe)))
    }

    /// Spawns a proxy node that feeds every agent event through `probe`.
    /// Event timestamps are microseconds since the node was spawned
    /// (wall clock, unlike the simulator's virtual clock). The probe is
    /// shared so callers can drain or export it after the run.
    pub fn spawn_observed<P: Probe + Send + 'static>(
        agent: A,
        listener: TcpListener,
        book: Arc<AddressBook>,
        seed: u64,
        probe: Arc<Mutex<P>>,
    ) -> Self {
        Self::spawn_full(agent, listener, book, seed, probe, None, None)
    }

    /// Spawns a proxy node with the full option set: an event probe, an
    /// optional live tracer (recording spans for traced frames and
    /// answering in-band [`Frame::TraceRequest`] scrapes) and an
    /// optional flight recorder (post-mortem dump if the frame handler
    /// panics).
    pub fn spawn_full<P: Probe + Send + 'static>(
        agent: A,
        listener: TcpListener,
        book: Arc<AddressBook>,
        seed: u64,
        probe: Arc<Mutex<P>>,
        tracer: Option<Arc<Mutex<NodeTracer>>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let name = format!("adc-proxy-{}", agent.proxy_id().raw());
        let node = ProxyNode {
            agent: Arc::new(Mutex::new(agent)),
            store: Arc::new(Mutex::new(HashMap::new())),
            tracer,
            alive: Arc::new(AtomicBool::new(true)),
        };
        let server = ProxyServer {
            agent: Arc::clone(&node.agent),
            store: Arc::clone(&node.store),
            tracer: node.tracer.clone(),
            alive: Arc::clone(&node.alive),
            book,
            pool: Pool::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            probe,
            flight,
            epoch: Instant::now(),
        };
        let alive = Arc::clone(&node.alive);
        spawn_acceptor(
            &name,
            listener,
            move || alive.load(Ordering::Relaxed),
            move |conn| server.serve(conn),
        );
        node
    }

    /// Number of objects whose bytes are currently stored.
    pub fn stored_objects(&self) -> usize {
        self.store.lock().len()
    }

    /// Marks the node dead: every connection loop stops serving at its
    /// next frame and new connections are refused. Existing blocked
    /// accepts need one wake-up connection —
    /// [`Cluster::kill_proxy`][crate::Cluster::kill_proxy] handles that.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// Whether the node is still serving frames.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }
}

/// What a proxy's connection threads share.
struct ProxyServer<A, P> {
    agent: Arc<Mutex<A>>,
    store: Arc<Mutex<HashMap<ObjectId, Bytes>>>,
    tracer: Option<Arc<Mutex<NodeTracer>>>,
    alive: Arc<AtomicBool>,
    book: Arc<AddressBook>,
    pool: Pool,
    rng: Mutex<StdRng>,
    probe: Arc<Mutex<P>>,
    flight: Option<Arc<FlightRecorder>>,
    epoch: Instant,
}

impl<A: CacheAgent, P: Probe> ProxyServer<A, P> {
    /// Serves one inbound connection until it closes, breaks, or the
    /// node dies. Each frame's transmissions are written by this thread.
    fn serve(&self, mut conn: FrameReader<TcpStream>) {
        while let Ok(Some(frame)) = conn.next_frame() {
            // A killed node stops serving: in-flight connections fall
            // silent, which is what the driver's peer-death detection
            // watches for.
            if !self.alive.load(Ordering::Relaxed) {
                break;
            }
            // Scrapes (metrics and trace) are answered in-band on the
            // same connection — they belong to no flow and never touch
            // the address book or the pool.
            let answer = match frame {
                Frame::MetricsRequest => {
                    let text = {
                        let agent = self.agent.lock();
                        let trace = self.tracer.as_ref().map(|t| t.lock().counters());
                        render_node_metrics(
                            agent.proxy_id(),
                            agent.stats(),
                            self.store.lock().len(),
                            trace,
                        )
                    };
                    Frame::MetricsResponse(Bytes::from(text.into_bytes()))
                }
                Frame::TraceRequest => answer_trace_scrape(self.tracer.as_deref(), &self.epoch),
                frame => {
                    if !self.forward(frame) {
                        break;
                    }
                    continue;
                }
            };
            if write_frame(conn.get_mut(), &answer).is_err() {
                break;
            }
        }
    }

    /// Feeds `frame` through the agent and sends its transmissions;
    /// `false` when the agent panicked and took the node down.
    fn forward(&self, frame: Frame) -> bool {
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_frame(
                &self.agent,
                &self.store,
                &self.rng,
                &self.probe,
                self.tracer.as_deref(),
                &self.epoch,
                frame,
            )
        }));
        let Ok(outgoing) = result else {
            // The agent panicked mid-frame: dump the evidence and take
            // the whole node down — a half-mutated agent must not keep
            // serving.
            self.alive.store(false, Ordering::Relaxed);
            if let Some(flight) = &self.flight {
                dump_after_panic(
                    flight,
                    &self.agent,
                    &self.store,
                    self.tracer.as_deref(),
                    &self.epoch,
                );
            }
            return false;
        };
        for (action, body, ctx) in outgoing {
            let Action::Send { to, message } = action;
            let Some(addr) = self.book.addr_of(to) else {
                continue;
            };
            let frame = match message {
                Message::Request(r) => Frame::Request(r, ctx),
                Message::Reply(r) => Frame::Reply(r, body, ctx),
            };
            if self.pool.send(addr, &frame).is_err() {
                break;
            }
        }
        true
    }
}

/// Renders a node's trace scrape response: the ring drained as JSONL
/// plus the node-clock sample the merger aligns timelines with. A node
/// without a tracer answers with an empty scrape, so sweeps never hang.
fn answer_trace_scrape(tracer: Option<&Mutex<NodeTracer>>, epoch: &Instant) -> Frame {
    let (dropped, jsonl) = match tracer {
        Some(t) => t.lock().scrape(),
        None => (0, String::new()),
    };
    Frame::TraceResponse(TraceScrape {
        node_now_us: epoch.elapsed().as_micros() as u64,
        dropped,
        spans: Bytes::from(jsonl.into_bytes()),
    })
}

/// Best-effort post-mortem dump from inside a dying connection loop.
fn dump_after_panic<A: CacheAgent>(
    flight: &FlightRecorder,
    agent: &Mutex<A>,
    store: &Mutex<HashMap<ObjectId, Bytes>>,
    tracer: Option<&Mutex<NodeTracer>>,
    epoch: &Instant,
) {
    let (proxy, metrics) = {
        let agent = agent.lock();
        let trace = tracer.map(|t| t.lock().counters());
        (
            agent.proxy_id().raw(),
            render_node_metrics(agent.proxy_id(), agent.stats(), store.lock().len(), trace),
        )
    };
    let now_us = epoch.elapsed().as_micros() as u64;
    // The node is already going down; a failed dump must not panic the
    // loop again.
    let _ = flight.dump_parts(proxy, &metrics, tracer, now_us, "panic in frame handler");
}

/// Feeds one frame through the agent and returns the transmissions plus
/// the object body to attach to outgoing replies and the trace context
/// for the wire frames.
///
/// Tracing piggybacks on the agent's decision: a request the agent
/// forwarded opens a pending [`SegmentKind::ForwardHop`] (to a peer) or
/// [`SegmentKind::OriginFetch`] (to the origin) span, a request it
/// answered locally records a closed [`SegmentKind::ReplyReturn`] leaf,
/// and a returning reply closes the pending span. Frames without a
/// context never touch the tracer, and without a tracer the incoming
/// context is propagated unchanged so downstream traced nodes keep
/// their trace-id continuity.
fn handle_frame<A: CacheAgent, P: Probe>(
    agent: &Mutex<A>,
    store: &Mutex<HashMap<ObjectId, Bytes>>,
    rng: &Mutex<StdRng>,
    probe: &Mutex<P>,
    tracer: Option<&Mutex<NodeTracer>>,
    epoch: &Instant,
    frame: Frame,
) -> Vec<Outgoing> {
    let now_us = epoch.elapsed().as_micros() as u64;
    let mut agent = agent.lock();
    let mut sink = ActionSink::new();
    match frame {
        Frame::Request(request, ctx) => {
            let object = request.object;
            let id = request.id;
            {
                let mut rng = rng.lock();
                let mut probe = probe.lock();
                probe.tick(now_us);
                agent.on_request(request, &mut *rng, &mut *probe, &mut sink);
            }
            apply_cache_events(&mut *agent, store, None);
            // A local hit replies with data from the byte store; the
            // agent only knows a nominal size, so fix it up to the real
            // body length.
            sink.drain()
                .map(|mut action| {
                    let body = match &mut action {
                        Action::Send {
                            message: Message::Reply(reply),
                            ..
                        } => {
                            let body = store.lock().get(&object).cloned().unwrap_or_default();
                            reply.size = body.len() as u32;
                            body
                        }
                        _ => Bytes::new(),
                    };
                    let out_ctx = match (ctx, tracer) {
                        (None, _) => None,
                        (Some(ctx), None) => Some(propagate(ctx, &action)),
                        (Some(ctx), Some(tracer)) => Some(trace_request_action(
                            tracer,
                            id,
                            ctx,
                            object.raw(),
                            &action,
                            now_us,
                            epoch,
                        )),
                    };
                    (action, body, out_ctx)
                })
                .collect()
        }
        Frame::Reply(reply, body, ctx) => {
            let object = reply.object;
            let id = reply.id;
            {
                let mut probe = probe.lock();
                probe.tick(now_us);
                agent.on_reply(reply, &mut *probe, &mut sink);
            }
            // The passing body is the bytes the store keeps if the agent
            // decided to cache.
            apply_cache_events(&mut *agent, store, Some((object, body.clone())));
            // Closing the pending span uses a fresh clock read so the
            // span covers the agent's reply processing too.
            let out_ctx = match tracer {
                Some(tracer) => {
                    let end_us = epoch.elapsed().as_micros() as u64;
                    tracer.lock().finish(id, end_us).or(ctx)
                }
                None => ctx,
            };
            sink.drain().map(|a| (a, body.clone(), out_ctx)).collect()
        }
        // Scrape frames are handled in-band by the connection loop and
        // never reach the agent.
        Frame::MetricsRequest
        | Frame::MetricsResponse(_)
        | Frame::TraceRequest
        | Frame::TraceResponse(_) => Vec::new(),
    }
}

/// Context for an outgoing frame at a node with no tracer: unchanged,
/// except a forwarded request syncs its hop count.
fn propagate(ctx: TraceContext, action: &Action) -> TraceContext {
    match action {
        Action::Send {
            message: Message::Request(out),
            ..
        } => TraceContext {
            hop: out.hops,
            ..ctx
        },
        _ => ctx,
    }
}

/// Records the span a traced request's outcome implies and returns the
/// outgoing frame's context, nesting the next node under this one.
fn trace_request_action(
    tracer: &Mutex<NodeTracer>,
    id: adc_core::RequestId,
    ctx: TraceContext,
    object: u64,
    action: &Action,
    arrived_us: u64,
    epoch: &Instant,
) -> TraceContext {
    let mut tracer = tracer.lock();
    match action {
        Action::Send {
            to,
            message: Message::Request(out),
        } => {
            let kind = if *to == NodeId::Origin {
                SegmentKind::OriginFetch
            } else {
                SegmentKind::ForwardHop
            };
            let span_id = tracer.begin(id, ctx, object, kind, arrived_us);
            TraceContext {
                trace_id: ctx.trace_id,
                // On pending-table overflow the span is dropped; the
                // downstream node then nests under our parent instead.
                parent_span: span_id.unwrap_or(ctx.parent_span),
                hop: out.hops,
            }
        }
        Action::Send {
            message: Message::Reply(_),
            ..
        } => {
            let end_us = epoch.elapsed().as_micros() as u64;
            let span_id =
                tracer.record_leaf(ctx, object, SegmentKind::ReplyReturn, arrived_us, end_us);
            TraceContext {
                trace_id: ctx.trace_id,
                parent_span: span_id,
                hop: ctx.hop,
            }
        }
    }
}

/// Renders one proxy node's live counters in the Prometheus text
/// exposition format: the full [`ProxyStats`] block, through the same
/// [`ProxyStats::render`] the simulator's metrics use, plus a
/// stored-objects gauge, so simulated and scraped counters name and
/// count every family alike. A tracing-enabled node passes its span
/// counters in `trace` to expose the recorded/dropped totals alongside.
pub fn render_node_metrics(
    proxy: ProxyId,
    stats: &ProxyStats,
    stored_objects: usize,
    trace: Option<TraceCounters>,
) -> String {
    let p = proxy.raw();
    let mut reg = Registry::new();
    stats.render(proxy, &mut reg);
    reg.gauge_set(
        Family::CACHED_OBJECTS,
        p,
        i64::try_from(stored_objects).unwrap_or(i64::MAX),
    );
    if let Some(trace) = trace {
        reg.counter_add(Family::NET_TRACE_SPANS, p, trace.recorded);
        reg.counter_add(Family::NET_TRACE_DROPPED, p, trace.dropped);
    }
    reg.snapshot().to_prometheus()
}

fn apply_cache_events<A: CacheAgent>(
    agent: &mut A,
    store: &Mutex<HashMap<ObjectId, Bytes>>,
    passing: Option<(ObjectId, Bytes)>,
) {
    let events = agent.drain_cache_events();
    if events.is_empty() {
        return;
    }
    let mut store = store.lock();
    for event in events {
        match event {
            CacheEvent::Store(obj) => {
                let body = match &passing {
                    Some((passing_obj, bytes)) if *passing_obj == obj => bytes.clone(),
                    // Promotion of an object whose bytes did not travel
                    // with this frame (e.g. re-ordered events): store a
                    // placeholder; it is refreshed the next time the
                    // object passes.
                    _ => Bytes::new(),
                };
                store.insert(obj, body);
            }
            CacheEvent::Evict(obj) => {
                store.remove(&obj);
            }
        }
    }
}

/// A running origin server: resolves every request with deterministic
/// pseudo-content sized by the workload's [`SizeModel`].
///
/// Its threads (one accepting, one per inbound connection) are
/// detached and end with the process.
#[derive(Debug)]
pub struct OriginNode {
    /// The origin's span recorder, present when tracing is enabled. It
    /// records one [`SegmentKind::OriginFetch`] leaf per traced request
    /// served, so merged traces get an origin lane.
    pub tracer: Option<Arc<Mutex<NodeTracer>>>,
}

impl OriginNode {
    /// Spawns the origin server on `listener`.
    pub fn spawn(listener: TcpListener, book: Arc<AddressBook>) -> Self {
        Self::spawn_full(listener, book, None)
    }

    /// Spawns the origin server with an optional span recorder (lane
    /// [`ORIGIN_LANE`][adc_obs::netspan::ORIGIN_LANE]).
    pub fn spawn_full(
        listener: TcpListener,
        book: Arc<AddressBook>,
        tracer: Option<Arc<Mutex<NodeTracer>>>,
    ) -> Self {
        let server = OriginServer {
            book,
            pool: Pool::new(),
            size_model: SizeModel::default(),
            served: AtomicU64::new(0),
            tracer: tracer.clone(),
            epoch: Instant::now(),
        };
        spawn_acceptor(
            "adc-origin",
            listener,
            || true,
            move |conn| server.serve(conn),
        );
        OriginNode { tracer }
    }
}

/// What the origin's connection threads share.
struct OriginServer {
    book: Arc<AddressBook>,
    pool: Pool,
    size_model: SizeModel,
    served: AtomicU64,
    tracer: Option<Arc<Mutex<NodeTracer>>>,
    epoch: Instant,
}

impl OriginServer {
    /// Serves one inbound connection until it closes or breaks.
    fn serve(&self, mut conn: FrameReader<TcpStream>) {
        while let Ok(Some(frame)) = conn.next_frame() {
            // Answer scrapes so a metrics or trace sweep over every
            // address never hangs on the origin.
            let answer = match frame {
                Frame::MetricsRequest => {
                    let total = self.served.load(Ordering::Relaxed);
                    let family = Family::ORIGIN_REQUESTS.name();
                    let text = format!("# TYPE {family} counter\n{family} {total}\n");
                    Frame::MetricsResponse(Bytes::from(text.into_bytes()))
                }
                Frame::TraceRequest => answer_trace_scrape(self.tracer.as_deref(), &self.epoch),
                Frame::Request(request, ctx) => {
                    let reply = self.answer(request, ctx);
                    let Some(addr) = self.book.addr_of(request.sender) else {
                        continue;
                    };
                    if self.pool.send(addr, &reply).is_err() {
                        break;
                    }
                    continue;
                }
                _ => continue,
            };
            if write_frame(conn.get_mut(), &answer).is_err() {
                break;
            }
        }
    }

    /// The reply to `request`, recording its origin-fetch span when
    /// traced.
    fn answer(&self, request: Request, ctx: Option<TraceContext>) -> Frame {
        let arrived_us = self.epoch.elapsed().as_micros() as u64;
        self.served.fetch_add(1, Ordering::Relaxed);
        let body = origin_body(request.object, &self.size_model);
        let reply = Reply::from_origin(&request, body.len() as u32);
        let out_ctx = match (&self.tracer, ctx) {
            (Some(tracer), Some(ctx)) => {
                let end_us = self.epoch.elapsed().as_micros() as u64;
                let span_id = tracer.lock().record_leaf(
                    ctx,
                    request.object.raw(),
                    SegmentKind::OriginFetch,
                    arrived_us,
                    end_us,
                );
                Some(TraceContext {
                    trace_id: ctx.trace_id,
                    parent_span: span_id,
                    hop: ctx.hop,
                })
            }
            (None, ctx) => ctx,
            (_, None) => None,
        };
        Frame::Reply(reply, body, out_ctx)
    }
}

/// Deterministic pseudo-content for an object: size from the size model,
/// bytes derived from the object ID so integrity can be checked
/// end-to-end.
pub fn origin_body(object: ObjectId, size_model: &SizeModel) -> Bytes {
    let size = size_model.size_of(object) as usize;
    let mut out = Vec::with_capacity(size);
    let mut state = object.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    while out.len() < size {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let chunk = state.to_le_bytes();
        let n = (size - out.len()).min(8);
        out.extend_from_slice(&chunk[..n]);
    }
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy, ClientId, EventLog, ProxyId, Request, RequestId};

    #[test]
    fn handle_frame_feeds_events_through_the_probe() {
        let agent = Mutex::new(AdcProxy::new(ProxyId::new(0), 2, AdcConfig::default()));
        let store: Mutex<HashMap<ObjectId, Bytes>> = Mutex::new(HashMap::new());
        let rng = Mutex::new(StdRng::seed_from_u64(7));
        let probe = Mutex::new(EventLog::new());
        let epoch = Instant::now();

        let client = ClientId::new(0);
        let request = Request::new(RequestId::new(client, 0), ObjectId::new(5), client);
        let out = handle_frame(
            &agent,
            &store,
            &rng,
            &probe,
            None,
            &epoch,
            Frame::Request(request, None),
        );
        // A miss forwards exactly one message onward, context-free.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2, None, "untraced request stays untraced");
        let log = probe.lock();
        // The forward decision (learned/random/this-miss) was recorded
        // with one tick's timestamp.
        assert!(!log.is_empty(), "request handling must emit events");
        let first = log.events()[0].0;
        assert!(log.events().iter().all(|&(t, _)| t == first));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn traced_request_opens_a_span_and_reply_closes_it() {
        let agent = Mutex::new(AdcProxy::new(ProxyId::new(0), 2, AdcConfig::default()));
        let store: Mutex<HashMap<ObjectId, Bytes>> = Mutex::new(HashMap::new());
        let rng = Mutex::new(StdRng::seed_from_u64(7));
        let probe = Mutex::new(EventLog::new());
        let tracer = Mutex::new(NodeTracer::new(0, 64));
        let epoch = Instant::now();

        let client = ClientId::new(0);
        let id = RequestId::new(client, 0);
        let ctx = TraceContext {
            trace_id: 42,
            parent_span: 7,
            hop: 0,
        };
        let request = Request::new(id, ObjectId::new(5), client);
        let out = handle_frame(
            &agent,
            &store,
            &rng,
            &probe,
            Some(&tracer),
            &epoch,
            Frame::Request(request, Some(ctx)),
        );
        assert_eq!(out.len(), 1, "a miss forwards one message");
        let fwd_ctx = out[0].2.expect("forwarded frame carries a context");
        assert_eq!(fwd_ctx.trace_id, 42);
        assert_ne!(fwd_ctx.parent_span, 7, "nests under this node's span");
        assert_eq!(tracer.lock().pending_len(), 1);

        // The reply comes back along the chain and closes the span.
        let reply = Reply::from_origin(&Request::new(id, ObjectId::new(5), client), 3);
        let out = handle_frame(
            &agent,
            &store,
            &rng,
            &probe,
            Some(&tracer),
            &epoch,
            Frame::Reply(reply, Bytes::from_static(b"abc"), Some(fwd_ctx)),
        );
        assert!(!out.is_empty(), "reply backwards to the waiter");
        let back_ctx = out[0].2.expect("backwarded reply keeps the trace");
        assert_eq!(back_ctx.trace_id, 42);
        assert_eq!(back_ctx.parent_span, fwd_ctx.parent_span);
        let tracer = tracer.lock();
        assert_eq!(tracer.pending_len(), 0);
        let spans: Vec<_> = tracer.ring().iter_ordered().copied().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, 42);
        assert_eq!(spans[0].parent_span, 7, "nests under the sender's span");
        assert_eq!(spans[0].object, 5);
    }

    /// The scrape text for one fixed `ProxyStats` (every field distinct,
    /// one zero), pinned byte for byte, so no change to the counters'
    /// render can rename, reorder or drop a family unnoticed.
    #[test]
    fn node_metrics_text_is_pinned() {
        let stats = ProxyStats {
            requests_received: 1234,
            local_hits: 567,
            forwards_learned: 321,
            forwards_random: 45,
            origin_loops: 0,
            origin_max_hops: 7,
            origin_this_miss: 294,
            replies_processed: 890,
            replies_orphaned: 3,
            cache_insertions: 410,
            cache_evictions: 388,
        };
        let trace = TraceCounters {
            recorded: 96,
            dropped: 5,
        };
        let text = render_node_metrics(ProxyId::new(2), &stats, 22, Some(trace));
        let expected = "\
# TYPE adc_cache_evicts_total counter
adc_cache_evicts_total{proxy=\"2\"} 388
# TYPE adc_cache_inserts_total counter
adc_cache_inserts_total{proxy=\"2\"} 410
# TYPE adc_forwards_learned_total counter
adc_forwards_learned_total{proxy=\"2\"} 321
# TYPE adc_forwards_random_total counter
adc_forwards_random_total{proxy=\"2\"} 45
# TYPE adc_hop_limit_total counter
adc_hop_limit_total{proxy=\"2\"} 7
# TYPE adc_local_hits_total counter
adc_local_hits_total{proxy=\"2\"} 567
# TYPE adc_loops_detected_total counter
adc_loops_detected_total{proxy=\"2\"} 0
# TYPE adc_net_trace_dropped_total counter
adc_net_trace_dropped_total{proxy=\"2\"} 5
# TYPE adc_net_trace_spans_total counter
adc_net_trace_spans_total{proxy=\"2\"} 96
# TYPE adc_origin_this_miss_total counter
adc_origin_this_miss_total{proxy=\"2\"} 294
# TYPE adc_replies_orphaned_total counter
adc_replies_orphaned_total{proxy=\"2\"} 3
# TYPE adc_replies_processed_total counter
adc_replies_processed_total{proxy=\"2\"} 890
# TYPE adc_requests_received_total counter
adc_requests_received_total{proxy=\"2\"} 1234
# TYPE adc_cached_objects gauge
adc_cached_objects{proxy=\"2\"} 22
";
        assert_eq!(text, expected);
    }

    #[test]
    fn origin_body_is_deterministic_and_sized() {
        let model = SizeModel::default();
        let a = origin_body(ObjectId::new(7), &model);
        let b = origin_body(ObjectId::new(7), &model);
        assert_eq!(a, b);
        assert_eq!(a.len() as u32, model.size_of(ObjectId::new(7)));
        let c = origin_body(ObjectId::new(8), &model);
        assert_ne!(a, c);
    }
}
