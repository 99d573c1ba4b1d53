//! The wire protocol: length-prefixed binary frames.
//!
//! Each frame is `u32` big-endian payload length followed by the payload.
//! Payloads carry a [`Request`], a [`Reply`] plus (for replies) the
//! object body bytes, or one of two in-band scrape exchanges: an empty
//! [`Frame::MetricsRequest`] answered with a [`Frame::MetricsResponse`]
//! carrying Prometheus exposition text, and an empty
//! [`Frame::TraceRequest`] answered with a [`Frame::TraceResponse`]
//! draining the node's span ring as JSONL.
//! Encoding is fixed-width big-endian throughout — no self-describing
//! format, no versioning games.
//!
//! # Trace context
//!
//! Request and reply frames optionally carry a [`TraceContext`]
//! (trace id + parent span id + hop count). A context-free frame
//! encodes under the original tags 1/2 — byte-identical to the
//! pre-tracing protocol — while a traced frame uses the dedicated tags
//! 5/6 with the context prepended to the unchanged message layout, so
//! tracing-off clusters interoperate with (and are indistinguishable
//! from) old peers on the wire.

use adc_core::{ClientId, NodeId, ObjectId, ProxyId, Reply, Request, RequestId, ServedFrom};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Maximum accepted frame payload (object bodies are ≤ 1 MiB in the
/// default size model; this leaves generous headroom).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

const TAG_REQUEST: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_METRICS_REQUEST: u8 = 3;
const TAG_METRICS_RESPONSE: u8 = 4;
const TAG_TRACED_REQUEST: u8 = 5;
const TAG_TRACED_REPLY: u8 = 6;
const TAG_TRACE_REQUEST: u8 = 7;
const TAG_TRACE_RESPONSE: u8 = 8;

const NODE_CLIENT: u8 = 0;
const NODE_PROXY: u8 = 1;
const NODE_ORIGIN: u8 = 2;

/// Trace context carried alongside a request/reply flow on the wire.
///
/// Minted at the client that issues the root request and propagated by
/// every node the flow touches; each forwarding hop replaces
/// `parent_span` with its own span id and bumps `hop`, so the receiver
/// can nest its span under the sender's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The flow's trace id, constant across all hops.
    pub trace_id: u64,
    /// Span id of the sending node's open span; `0` when the sender
    /// recorded none.
    pub parent_span: u64,
    /// Forwarding hops taken so far (0 at the client).
    pub hop: u32,
}

/// Payload of a [`Frame::TraceResponse`]: the node's span ring drained
/// as JSONL plus the clock sample the merger aligns timelines with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceScrape {
    /// The node's monotonic clock (microseconds since its spawn) read
    /// while answering the scrape — pairs with the collector-side
    /// send/receive timestamps for offset estimation.
    pub node_now_us: u64,
    /// Spans lost to ring overwrites over the node's lifetime.
    pub dropped: u64,
    /// The drained spans as JSON Lines (UTF-8).
    pub spans: Bytes,
}

/// A decoded frame: a message plus (for replies) the object body, or an
/// in-band scrape exchange (metrics or trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A request on its way toward a resolver, with optional trace
    /// context.
    Request(Request, Option<TraceContext>),
    /// A reply with the object body attached, with optional trace
    /// context.
    Reply(Reply, Bytes, Option<TraceContext>),
    /// Asks the receiving node for its metric families; answered in-band
    /// on the same connection with a [`Frame::MetricsResponse`].
    MetricsRequest,
    /// Prometheus text-exposition payload (UTF-8) answering a
    /// [`Frame::MetricsRequest`].
    MetricsResponse(Bytes),
    /// Asks the receiving node to drain its span ring; answered in-band
    /// with a [`Frame::TraceResponse`].
    TraceRequest,
    /// The drained span ring answering a [`Frame::TraceRequest`].
    TraceResponse(TraceScrape),
}

impl Frame {
    /// The destination-independent request ID; `None` for the scrape
    /// frames, which belong to no flow.
    pub fn request_id(&self) -> Option<RequestId> {
        match self {
            Frame::Request(r, _) => Some(r.id),
            Frame::Reply(r, _, _) => Some(r.id),
            Frame::MetricsRequest
            | Frame::MetricsResponse(_)
            | Frame::TraceRequest
            | Frame::TraceResponse(_) => None,
        }
    }

    /// The trace context carried by a request/reply frame, if any.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            Frame::Request(_, ctx) | Frame::Reply(_, _, ctx) => *ctx,
            _ => None,
        }
    }
}

/// A protocol decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the message was complete.
    Truncated,
    /// An unknown message or node tag.
    BadTag(u8),
    /// Frame length exceeded [`MAX_FRAME`].
    Oversized(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtocolError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn put_node(buf: &mut BytesMut, node: NodeId) {
    match node {
        NodeId::Client(c) => {
            buf.put_u8(NODE_CLIENT);
            buf.put_u32(c.raw());
        }
        NodeId::Proxy(p) => {
            buf.put_u8(NODE_PROXY);
            buf.put_u32(p.raw());
        }
        NodeId::Origin => {
            buf.put_u8(NODE_ORIGIN);
            buf.put_u32(0);
        }
    }
}

fn get_node(buf: &mut Bytes) -> Result<NodeId, ProtocolError> {
    if buf.remaining() < 5 {
        return Err(ProtocolError::Truncated);
    }
    let tag = buf.get_u8();
    let raw = buf.get_u32();
    match tag {
        NODE_CLIENT => Ok(NodeId::Client(ClientId::new(raw))),
        NODE_PROXY => Ok(NodeId::Proxy(ProxyId::new(raw))),
        NODE_ORIGIN => Ok(NodeId::Origin),
        other => Err(ProtocolError::BadTag(other)),
    }
}

fn put_opt_proxy(buf: &mut BytesMut, p: Option<ProxyId>) {
    buf.put_u32(p.map(|p| p.raw()).unwrap_or(u32::MAX));
}

fn get_opt_proxy(buf: &mut Bytes) -> Result<Option<ProxyId>, ProtocolError> {
    if buf.remaining() < 4 {
        return Err(ProtocolError::Truncated);
    }
    let raw = buf.get_u32();
    Ok((raw != u32::MAX).then_some(ProxyId::new(raw)))
}

fn put_trace_context(buf: &mut BytesMut, ctx: &TraceContext) {
    buf.put_u64(ctx.trace_id);
    buf.put_u64(ctx.parent_span);
    buf.put_u32(ctx.hop);
}

fn get_trace_context(buf: &mut Bytes) -> Result<TraceContext, ProtocolError> {
    if buf.remaining() < CONTEXT_LEN {
        return Err(ProtocolError::Truncated);
    }
    Ok(TraceContext {
        trace_id: buf.get_u64(),
        parent_span: buf.get_u64(),
        hop: buf.get_u32(),
    })
}

fn put_request(buf: &mut BytesMut, r: &Request) {
    buf.put_u32(r.id.client.raw());
    buf.put_u64(r.id.seq);
    buf.put_u64(r.object.raw());
    buf.put_u32(r.client.raw());
    put_node(buf, r.sender);
    buf.put_u32(r.hops);
}

fn put_reply(buf: &mut BytesMut, r: &Reply, body: &Bytes) {
    buf.put_u32(r.id.client.raw());
    buf.put_u64(r.id.seq);
    buf.put_u64(r.object.raw());
    buf.put_u32(r.client.raw());
    put_opt_proxy(buf, r.resolver);
    put_opt_proxy(buf, r.cached_by);
    match r.served_from {
        ServedFrom::Origin => {
            buf.put_u8(0);
            buf.put_u32(0);
        }
        ServedFrom::Cache(p) => {
            buf.put_u8(1);
            buf.put_u32(p.raw());
        }
    }
    buf.put_u32(r.size);
    buf.put_u32(body.len() as u32);
    buf.put_slice(body);
}

/// Encoded size of a [`TraceContext`].
const CONTEXT_LEN: usize = 8 + 8 + 4;
/// Encoded size of a [`Request`] (after the tag and any context).
const REQUEST_LEN: usize = 4 + 8 + 8 + 4 + 5 + 4;
/// Encoded size of a [`Reply`] before its body (after the tag and any
/// context).
const REPLY_HEAD_LEN: usize = 4 + 8 + 8 + 4 + 4 + 4 + 5 + 4 + 4;

/// Payload length of `frame` as [`encode`] writes it, so every encoder
/// allocates its buffer once at the exact size.
fn encoded_len(frame: &Frame) -> usize {
    let ctx_len = |ctx: &Option<TraceContext>| if ctx.is_some() { CONTEXT_LEN } else { 0 };
    1 + match frame {
        Frame::Request(_, ctx) => ctx_len(ctx) + REQUEST_LEN,
        Frame::Reply(_, body, ctx) => ctx_len(ctx) + REPLY_HEAD_LEN + body.len(),
        Frame::MetricsRequest | Frame::TraceRequest => 0,
        Frame::MetricsResponse(text) => 4 + text.len(),
        Frame::TraceResponse(scrape) => 8 + 8 + 4 + scrape.spans.len(),
    }
}

/// Encodes a frame payload (without the length prefix).
///
/// A [`Frame::Request`]/[`Frame::Reply`] without a trace context
/// encodes under the original tags — byte-for-byte what the pre-tracing
/// protocol produced; a context selects the traced tag and prepends the
/// context to the otherwise unchanged layout.
pub fn encode(frame: &Frame) -> Bytes {
    let len = encoded_len(frame);
    let mut buf = BytesMut::with_capacity(len);
    put_frame(&mut buf, frame);
    debug_assert_eq!(buf.len(), len, "encoded_len disagrees with put_frame");
    buf.freeze()
}

/// The wire form of `frame` in one buffer of exact size: the payload
/// length as a `u32` big-endian prefix, then the payload [`encode`]
/// produces, written by the same code.
pub(crate) fn encode_framed(frame: &Frame) -> BytesMut {
    let len = encoded_len(frame);
    let mut buf = BytesMut::with_capacity(4 + len);
    buf.put_u32(len as u32);
    put_frame(&mut buf, frame);
    debug_assert_eq!(buf.len(), 4 + len, "encoded_len disagrees with put_frame");
    buf
}

fn put_frame(buf: &mut BytesMut, frame: &Frame) {
    match frame {
        Frame::Request(r, ctx) => {
            match ctx {
                None => buf.put_u8(TAG_REQUEST),
                Some(ctx) => {
                    buf.put_u8(TAG_TRACED_REQUEST);
                    put_trace_context(buf, ctx);
                }
            }
            put_request(buf, r);
        }
        Frame::Reply(r, body, ctx) => {
            match ctx {
                None => buf.put_u8(TAG_REPLY),
                Some(ctx) => {
                    buf.put_u8(TAG_TRACED_REPLY);
                    put_trace_context(buf, ctx);
                }
            }
            put_reply(buf, r, body);
        }
        Frame::MetricsRequest => {
            buf.put_u8(TAG_METRICS_REQUEST);
        }
        Frame::MetricsResponse(text) => {
            buf.put_u8(TAG_METRICS_RESPONSE);
            buf.put_u32(text.len() as u32);
            buf.put_slice(text);
        }
        Frame::TraceRequest => {
            buf.put_u8(TAG_TRACE_REQUEST);
        }
        Frame::TraceResponse(scrape) => {
            buf.put_u8(TAG_TRACE_RESPONSE);
            buf.put_u64(scrape.node_now_us);
            buf.put_u64(scrape.dropped);
            buf.put_u32(scrape.spans.len() as u32);
            buf.put_slice(&scrape.spans);
        }
    }
}

/// Decodes a frame payload produced by [`encode`].
///
/// # Errors
///
/// Returns a [`ProtocolError`] on truncated or malformed input.
pub fn decode(mut buf: Bytes) -> Result<Frame, ProtocolError> {
    if buf.remaining() < 1 {
        return Err(ProtocolError::Truncated);
    }
    let tag = buf.get_u8();
    match tag {
        TAG_REQUEST => Ok(Frame::Request(get_request(&mut buf)?, None)),
        TAG_TRACED_REQUEST => {
            let ctx = get_trace_context(&mut buf)?;
            Ok(Frame::Request(get_request(&mut buf)?, Some(ctx)))
        }
        TAG_REPLY => {
            let (reply, body) = get_reply(&mut buf)?;
            Ok(Frame::Reply(reply, body, None))
        }
        TAG_TRACED_REPLY => {
            let ctx = get_trace_context(&mut buf)?;
            let (reply, body) = get_reply(&mut buf)?;
            Ok(Frame::Reply(reply, body, Some(ctx)))
        }
        TAG_METRICS_REQUEST => Ok(Frame::MetricsRequest),
        TAG_METRICS_RESPONSE => {
            if buf.remaining() < 4 {
                return Err(ProtocolError::Truncated);
            }
            let text_len = buf.get_u32() as usize;
            if text_len > MAX_FRAME || buf.remaining() < text_len {
                return Err(ProtocolError::Truncated);
            }
            let text = buf.split_to(text_len);
            Ok(Frame::MetricsResponse(text))
        }
        TAG_TRACE_REQUEST => Ok(Frame::TraceRequest),
        TAG_TRACE_RESPONSE => {
            if buf.remaining() < 8 + 8 + 4 {
                return Err(ProtocolError::Truncated);
            }
            let node_now_us = buf.get_u64();
            let dropped = buf.get_u64();
            let spans_len = buf.get_u32() as usize;
            if spans_len > MAX_FRAME || buf.remaining() < spans_len {
                return Err(ProtocolError::Truncated);
            }
            let spans = buf.split_to(spans_len);
            Ok(Frame::TraceResponse(TraceScrape {
                node_now_us,
                dropped,
                spans,
            }))
        }
        other => Err(ProtocolError::BadTag(other)),
    }
}

fn get_request(buf: &mut Bytes) -> Result<Request, ProtocolError> {
    if buf.remaining() < 4 + 8 + 8 + 4 {
        return Err(ProtocolError::Truncated);
    }
    let id_client = ClientId::new(buf.get_u32());
    let seq = buf.get_u64();
    let object = ObjectId::new(buf.get_u64());
    let client = ClientId::new(buf.get_u32());
    let sender = get_node(buf)?;
    if buf.remaining() < 4 {
        return Err(ProtocolError::Truncated);
    }
    let hops = buf.get_u32();
    Ok(Request {
        id: RequestId::new(id_client, seq),
        object,
        client,
        sender,
        hops,
    })
}

fn get_reply(buf: &mut Bytes) -> Result<(Reply, Bytes), ProtocolError> {
    if buf.remaining() < 4 + 8 + 8 + 4 {
        return Err(ProtocolError::Truncated);
    }
    let id_client = ClientId::new(buf.get_u32());
    let seq = buf.get_u64();
    let object = ObjectId::new(buf.get_u64());
    let client = ClientId::new(buf.get_u32());
    let resolver = get_opt_proxy(buf)?;
    let cached_by = get_opt_proxy(buf)?;
    if buf.remaining() < 5 {
        return Err(ProtocolError::Truncated);
    }
    let served_tag = buf.get_u8();
    let served_raw = buf.get_u32();
    let served_from = match served_tag {
        0 => ServedFrom::Origin,
        1 => ServedFrom::Cache(ProxyId::new(served_raw)),
        other => return Err(ProtocolError::BadTag(other)),
    };
    if buf.remaining() < 8 {
        return Err(ProtocolError::Truncated);
    }
    let size = buf.get_u32();
    let body_len = buf.get_u32() as usize;
    if body_len > MAX_FRAME || buf.remaining() < body_len {
        return Err(ProtocolError::Truncated);
    }
    let body = buf.split_to(body_len);
    Ok((
        Reply {
            id: RequestId::new(id_client, seq),
            object,
            client,
            resolver,
            cached_by,
            served_from,
            size,
        },
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request {
            id: RequestId::new(ClientId::new(3), 99),
            object: ObjectId::new(0xdead_beef),
            client: ClientId::new(3),
            sender: NodeId::Proxy(ProxyId::new(2)),
            hops: 5,
        }
    }

    fn reply() -> Reply {
        Reply {
            id: RequestId::new(ClientId::new(3), 99),
            object: ObjectId::new(0xdead_beef),
            client: ClientId::new(3),
            resolver: Some(ProxyId::new(1)),
            cached_by: None,
            served_from: ServedFrom::Cache(ProxyId::new(1)),
            size: 4,
        }
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent_span: 0x99aa_bbcc_ddee_ff00,
            hop: 3,
        }
    }

    #[test]
    fn request_round_trip() {
        let f = Frame::Request(request(), None);
        assert_eq!(decode(encode(&f)).unwrap(), f);
    }

    #[test]
    fn reply_round_trip_with_body() {
        let f = Frame::Reply(reply(), Bytes::from_static(b"data"), None);
        assert_eq!(decode(encode(&f)).unwrap(), f);
    }

    #[test]
    fn reply_round_trip_from_origin() {
        let mut r = reply();
        r.resolver = None;
        r.cached_by = None;
        r.served_from = ServedFrom::Origin;
        let f = Frame::Reply(r, Bytes::new(), None);
        assert_eq!(decode(encode(&f)).unwrap(), f);
    }

    #[test]
    fn all_sender_kinds_round_trip() {
        for sender in [
            NodeId::Client(ClientId::new(7)),
            NodeId::Proxy(ProxyId::new(8)),
            NodeId::Origin,
        ] {
            let mut r = request();
            r.sender = sender;
            let f = Frame::Request(r, None);
            assert_eq!(decode(encode(&f)).unwrap(), f);
        }
    }

    #[test]
    fn traced_frames_round_trip() {
        let f = Frame::Request(request(), Some(ctx()));
        assert_eq!(decode(encode(&f)).unwrap(), f);
        let f = Frame::Reply(reply(), Bytes::from_static(b"data"), Some(ctx()));
        assert_eq!(decode(encode(&f)).unwrap(), f);
        assert_eq!(f.trace_context(), Some(ctx()));
    }

    #[test]
    fn trace_scrape_round_trips() {
        let f = Frame::TraceRequest;
        assert_eq!(decode(encode(&f)).unwrap(), f);
        let f = Frame::TraceResponse(TraceScrape {
            node_now_us: 123_456,
            dropped: 7,
            spans: Bytes::from_static(b"{\"trace\":1}\n{\"trace\":2}\n"),
        });
        assert_eq!(decode(encode(&f)).unwrap(), f);
        let f = Frame::TraceResponse(TraceScrape {
            node_now_us: 0,
            dropped: 0,
            spans: Bytes::new(),
        });
        assert_eq!(decode(encode(&f)).unwrap(), f);
    }

    /// With tracing off the encoder must produce the exact pre-tracing
    /// bytes — this pins the untraced layout field by field, so any
    /// accidental re-layout (or a context leaking into tag 1/2 frames)
    /// fails here before it breaks cross-version interop.
    #[test]
    fn untraced_encoding_is_byte_identical_to_pre_tracing_layout() {
        let mut expect = BytesMut::new();
        expect.put_u8(1); // TAG_REQUEST
        expect.put_u32(3); // id.client
        expect.put_u64(99); // id.seq
        expect.put_u64(0xdead_beef); // object
        expect.put_u32(3); // client
        expect.put_u8(1); // NODE_PROXY
        expect.put_u32(2); // sender proxy id
        expect.put_u32(5); // hops
        assert_eq!(encode(&Frame::Request(request(), None)), expect.freeze());

        let mut expect = BytesMut::new();
        expect.put_u8(2); // TAG_REPLY
        expect.put_u32(3); // id.client
        expect.put_u64(99); // id.seq
        expect.put_u64(0xdead_beef); // object
        expect.put_u32(3); // client
        expect.put_u32(1); // resolver = Some(1)
        expect.put_u32(u32::MAX); // cached_by = None
        expect.put_u8(1); // served from cache
        expect.put_u32(1); // cache proxy id
        expect.put_u32(4); // size
        expect.put_u32(4); // body length
        expect.put_slice(b"data");
        assert_eq!(
            encode(&Frame::Reply(reply(), Bytes::from_static(b"data"), None)),
            expect.freeze()
        );
    }

    /// A traced frame is the untraced layout with the 20-byte context
    /// between the tag and the message — nothing else moves.
    #[test]
    fn traced_encoding_prepends_context_to_unchanged_layout() {
        let untraced = encode(&Frame::Request(request(), None));
        let traced = encode(&Frame::Request(request(), Some(ctx())));
        assert_eq!(traced.len(), untraced.len() + 20);
        assert_eq!(traced[0], TAG_TRACED_REQUEST);
        assert_eq!(&traced[21..], &untraced[1..]);

        let untraced = encode(&Frame::Reply(reply(), Bytes::from_static(b"xy"), None));
        let traced = encode(&Frame::Reply(
            reply(),
            Bytes::from_static(b"xy"),
            Some(ctx()),
        ));
        assert_eq!(traced.len(), untraced.len() + 20);
        assert_eq!(traced[0], TAG_TRACED_REPLY);
        assert_eq!(&traced[21..], &untraced[1..]);
    }

    #[test]
    fn truncated_inputs_error() {
        let full = encode(&Frame::Reply(reply(), Bytes::from_static(b"data"), None));
        for cut in 0..full.len() {
            let partial = full.slice(0..cut);
            assert!(
                decode(partial).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn truncated_traced_frames_error() {
        for frame in [
            Frame::Request(request(), Some(ctx())),
            Frame::Reply(reply(), Bytes::from_static(b"data"), Some(ctx())),
            Frame::TraceResponse(TraceScrape {
                node_now_us: 9,
                dropped: 2,
                spans: Bytes::from_static(b"{}\n"),
            }),
        ] {
            let full = encode(&frame);
            for cut in 0..full.len() {
                assert!(
                    decode(full.slice(0..cut)).is_err(),
                    "decode of {cut}-byte prefix should fail"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_errors() {
        let buf = Bytes::from_static(&[42, 0, 0, 0]);
        assert_eq!(decode(buf), Err(ProtocolError::BadTag(42)));
    }

    #[test]
    fn frame_request_id_accessor() {
        let id = RequestId::new(ClientId::new(3), 99);
        assert_eq!(Frame::Request(request(), None).request_id(), Some(id));
        assert_eq!(
            Frame::Reply(reply(), Bytes::new(), Some(ctx())).request_id(),
            Some(id)
        );
        assert_eq!(Frame::MetricsRequest.request_id(), None);
        assert_eq!(Frame::MetricsResponse(Bytes::new()).request_id(), None);
        assert_eq!(Frame::TraceRequest.request_id(), None);
        let scrape = TraceScrape {
            node_now_us: 0,
            dropped: 0,
            spans: Bytes::new(),
        };
        assert_eq!(Frame::TraceResponse(scrape).request_id(), None);
    }

    #[test]
    fn metrics_frames_round_trip() {
        let f = Frame::MetricsRequest;
        assert_eq!(decode(encode(&f)).unwrap(), f);
        let f =
            Frame::MetricsResponse(Bytes::from_static(b"adc_local_hits_total{proxy=\"0\"} 1\n"));
        assert_eq!(decode(encode(&f)).unwrap(), f);
        let f = Frame::MetricsResponse(Bytes::new());
        assert_eq!(decode(encode(&f)).unwrap(), f);
    }

    #[test]
    fn truncated_metrics_response_errors() {
        let full = encode(&Frame::MetricsResponse(Bytes::from_static(b"metric 1\n")));
        for cut in 0..full.len() {
            assert!(
                decode(full.slice(0..cut)).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }
}
