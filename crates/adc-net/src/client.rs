//! A TCP client that issues requests to the proxy cluster and awaits the
//! matching replies.

use crate::book::AddressBook;
use crate::protocol::{Frame, TraceContext};
use crate::sync::Mutex;
use crate::trace::NodeTracer;
use crate::transport::{connect, spawn_acceptor, write_frame, FrameReader, Pool};
use adc_core::{ClientId, ObjectId, ProxyId, Reply, Request, RequestId};
use adc_obs::netspan::{derive_trace_id, CLIENT_LANE};
use adc_obs::SegmentKind;
use bytes::Bytes;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::oneshot;

/// Sends `request` on a scrape connection and reads the node's in-band
/// answer.
fn ask(conn: &mut FrameReader<TcpStream>, request: &Frame) -> io::Result<Frame> {
    write_frame(conn.get_mut(), request)?;
    conn.next_frame()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "node closed during scrape"))
}

/// Scrapes the Prometheus text exposition from the node listening at
/// `addr` by sending a [`Frame::MetricsRequest`] and reading the
/// in-band response on the same connection.
///
/// # Errors
///
/// Returns `UnexpectedEof` if the node closes the connection without
/// answering, `InvalidData` when the response is not a metrics frame or
/// is not valid UTF-8, or any underlying socket error.
pub async fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut conn = FrameReader::new(connect(addr)?);
    let Frame::MetricsResponse(body) = ask(&mut conn, &Frame::MetricsRequest)? else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected a metrics response frame",
        ));
    };
    String::from_utf8(body.to_vec())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad UTF-8: {e}")))
}

/// One node's trace scrape, annotated with the collector-side clock
/// samples the merger estimates the node's clock offset from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceScrapeResult {
    /// The node's clock (microseconds since its spawn) read while it
    /// answered.
    pub node_now_us: u64,
    /// Spans the node lost over its lifetime.
    pub dropped: u64,
    /// The drained spans as JSON Lines.
    pub jsonl: String,
    /// Collector clock (microseconds since `epoch`) just before the
    /// scrape request was written.
    pub sent_us: u64,
    /// Collector clock just after the response was read.
    pub recv_us: u64,
}

/// Drains the span ring of the node listening at `addr` by sending a
/// [`Frame::TraceRequest`] and reading the in-band response, sampling
/// the collector clock (`epoch`-relative) on both sides of the exchange
/// so the caller can estimate the node's clock offset.
///
/// # Errors
///
/// Returns `UnexpectedEof` if the node closes the connection without
/// answering, `InvalidData` when the response is not a trace frame or
/// its spans are not valid UTF-8, or any underlying socket error.
pub async fn scrape_trace(addr: SocketAddr, epoch: Instant) -> io::Result<TraceScrapeResult> {
    let mut conn = FrameReader::new(connect(addr)?);
    let sent_us = epoch.elapsed().as_micros() as u64;
    let frame = ask(&mut conn, &Frame::TraceRequest)?;
    let recv_us = epoch.elapsed().as_micros() as u64;
    let Frame::TraceResponse(scrape) = frame else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected a trace response frame",
        ));
    };
    let jsonl = String::from_utf8(scrape.spans.to_vec())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad UTF-8: {e}")))?;
    Ok(TraceScrapeResult {
        node_now_us: scrape.node_now_us,
        dropped: scrape.dropped,
        jsonl,
        sent_us,
        recv_us,
    })
}

/// Outstanding requests awaiting replies.
type PendingReplies = Arc<Mutex<HashMap<RequestId, oneshot::Sender<(Reply, Bytes)>>>>;

/// A client endpoint: registers itself in the address book, sends
/// requests, and matches replies by request ID.
///
/// With tracing enabled ([`NetClient::start_traced`]) every request
/// carries a [`TraceContext`] minted here, and its end-to-end wait is
/// recorded as a root `client_wait` span in the client's own ring
/// (lane [`CLIENT_LANE`]) — timed-out requests included.
#[derive(Debug)]
pub struct NetClient {
    id: ClientId,
    book: Arc<AddressBook>,
    pool: Pool,
    seq: AtomicU64,
    pending: PendingReplies,
    tracer: Option<Arc<Mutex<NodeTracer>>>,
    epoch: Instant,
}

/// A request on the wire, awaiting its reply.
struct Sent {
    id: RequestId,
    ctx: Option<TraceContext>,
    start_us: u64,
    reply: oneshot::Receiver<(Reply, Bytes)>,
}

impl NetClient {
    /// Binds a listener, registers this client in `book`, and starts the
    /// reply dispatcher. Requests are untraced.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn start(id: ClientId, book: Arc<AddressBook>) -> io::Result<NetClient> {
        Self::start_inner(id, book, None).await
    }

    /// Like [`NetClient::start`] but with tracing on: requests carry a
    /// trace context and root spans land in a ring of `span_capacity`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub async fn start_traced(
        id: ClientId,
        book: Arc<AddressBook>,
        span_capacity: usize,
    ) -> io::Result<NetClient> {
        let tracer = Arc::new(Mutex::new(NodeTracer::new(CLIENT_LANE, span_capacity)));
        Self::start_inner(id, book, Some(tracer)).await
    }

    async fn start_inner(
        id: ClientId,
        book: Arc<AddressBook>,
        tracer: Option<Arc<Mutex<NodeTracer>>>,
    ) -> io::Result<NetClient> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        book.register_client(id, listener.local_addr()?);
        let pending: PendingReplies = Arc::default();
        let waiting = Arc::clone(&pending);
        // The reply dispatcher: one reader thread per proxy connection,
        // each handing replies to the request awaiting them.
        let dispatch = move |mut conn: FrameReader<TcpStream>| {
            while let Ok(Some(frame)) = conn.next_frame() {
                if let Frame::Reply(reply, body, _) = frame {
                    let waiter = waiting.lock().remove(&reply.id);
                    if let Some(tx) = waiter {
                        tx.send((reply, body)).ok();
                    }
                }
            }
        };
        spawn_acceptor(
            &format!("adc-client-{}", id.raw()),
            listener,
            || true,
            dispatch,
        );
        Ok(NetClient {
            id,
            book,
            pool: Pool::new(),
            seq: AtomicU64::new(0),
            pending,
            tracer,
            epoch: Instant::now(),
        })
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The client's span ring, when tracing is enabled. Spans are on
    /// the clock of [`NetClient::epoch`].
    pub fn tracer(&self) -> Option<&Arc<Mutex<NodeTracer>>> {
        self.tracer.as_ref()
    }

    /// The instant the client's span clock counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Mints the root trace context for request `seq`, when tracing.
    fn root_ctx(&self, seq: u64) -> Option<TraceContext> {
        self.tracer.as_ref().map(|_| TraceContext {
            trace_id: derive_trace_id(self.id.raw(), seq),
            parent_span: 0,
            hop: 0,
        })
    }

    /// Records the root `client_wait` span for a finished (or timed
    /// out) traced request.
    fn record_root_span(&self, ctx: Option<TraceContext>, object: ObjectId, start_us: u64) {
        if let (Some(tracer), Some(ctx)) = (&self.tracer, ctx) {
            tracer.lock().record_leaf(
                ctx,
                object.raw(),
                SegmentKind::ClientWait,
                start_us,
                self.now_us(),
            );
        }
    }

    /// Registers a pending slot for a request of `object` and sends it
    /// through proxy `via`. A failed send takes its slot back out, so
    /// [`NetClient::in_flight`] counts only requests on the wire.
    fn send_request(&self, object: ObjectId, via: ProxyId) -> io::Result<Sent> {
        let addr = self.book.proxy_addr(via).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such proxy {via}"))
        })?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = RequestId::new(self.id, seq);
        let ctx = self.root_ctx(seq);
        let start_us = self.now_us();
        // The slot exists before the frame leaves, so a fast reply
        // always finds it.
        let (tx, reply) = oneshot::channel();
        self.pending.lock().insert(id, tx);
        let request = Request::new(id, object, self.id);
        if let Err(e) = self.pool.send(addr, &Frame::Request(request, ctx)) {
            self.pending.lock().remove(&id);
            return Err(e);
        }
        Ok(Sent {
            id,
            ctx,
            start_us,
            reply,
        })
    }

    /// Requests `object` via proxy `via` and awaits the reply with the
    /// object body.
    ///
    /// # Errors
    ///
    /// Returns `NotFound` for an unknown proxy, `BrokenPipe` when the
    /// reply channel is dropped, or any underlying socket error.
    pub async fn request(&self, object: ObjectId, via: ProxyId) -> io::Result<(Reply, Bytes)> {
        let sent = self.send_request(object, via)?;
        let result = sent
            .reply
            .await
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reply channel dropped"));
        if result.is_ok() {
            self.record_root_span(sent.ctx, object, sent.start_us);
        }
        result
    }

    /// Like [`NetClient::request`] but gives up after `timeout`,
    /// cleaning up the pending slot.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` when no reply arrives in time, otherwise the
    /// same errors as [`NetClient::request`].
    pub async fn request_timeout(
        &self,
        object: ObjectId,
        via: ProxyId,
        timeout: Duration,
    ) -> io::Result<(Reply, Bytes)> {
        let sent = self.send_request(object, via)?;
        match tokio::time::timeout(timeout, sent.reply).await {
            Ok(Ok(result)) => {
                self.record_root_span(sent.ctx, object, sent.start_us);
                Ok(result)
            }
            Ok(Err(_)) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "reply channel dropped",
            )),
            Err(_) => {
                self.pending.lock().remove(&sent.id);
                // The wait was real even though no reply came; record
                // it so merged traces show the abandoned flow.
                self.record_root_span(sent.ctx, object, sent.start_us);
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply for {object} within {timeout:?}"),
                ))
            }
        }
    }

    /// Number of requests still awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }
}
