//! Property-based tests of the wire protocol: arbitrary messages
//! round-trip, arbitrary junk never panics the decoder, and the
//! transport's frame reader returns exactly the frames on a stream
//! however the stream is split into reads.

use adc_core::{ClientId, NodeId, ObjectId, ProxyId, Reply, Request, RequestId, ServedFrom};
use adc_net::protocol::{decode, encode, Frame, TraceContext, TraceScrape, MAX_FRAME};
use adc_net::transport::{FrameReader, READ_BUFFER};
use bytes::Bytes;
use proptest::prelude::*;
use std::io::{self, Read};

fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    prop::option::of((any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(trace_id, parent_span, hop)| TraceContext {
            trace_id,
            parent_span,
            hop,
        },
    ))
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        any::<u32>().prop_map(|c| NodeId::Client(ClientId::new(c))),
        any::<u32>().prop_map(|p| NodeId::Proxy(ProxyId::new(p))),
        Just(NodeId::Origin),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        arb_node(),
        any::<u32>(),
    )
        .prop_map(|(idc, seq, object, client, sender, hops)| Request {
            id: RequestId::new(ClientId::new(idc), seq),
            object: ObjectId::new(object),
            client: ClientId::new(client),
            sender,
            hops,
        })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        prop::option::of(0u32..u32::MAX - 1),
        prop::option::of(0u32..u32::MAX - 1),
        prop::option::of(any::<u32>()),
        any::<u32>(),
    )
        .prop_map(
            |(idc, seq, object, client, resolver, cached_by, served, size)| Reply {
                id: RequestId::new(ClientId::new(idc), seq),
                object: ObjectId::new(object),
                client: ClientId::new(client),
                resolver: resolver.map(ProxyId::new),
                cached_by: cached_by.map(ProxyId::new),
                served_from: match served {
                    None => ServedFrom::Origin,
                    Some(p) => ServedFrom::Cache(ProxyId::new(p)),
                },
                size,
            },
        )
}

fn arb_bytes(max_len: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max_len).prop_map(Bytes::from)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (arb_request(), arb_ctx()).prop_map(|(request, ctx)| Frame::Request(request, ctx)),
        (arb_reply(), arb_bytes(600), arb_ctx())
            .prop_map(|(reply, body, ctx)| Frame::Reply(reply, body, ctx)),
        Just(Frame::MetricsRequest),
        arb_bytes(100).prop_map(Frame::MetricsResponse),
        Just(Frame::TraceRequest),
        (any::<u64>(), any::<u64>(), arb_bytes(100)).prop_map(|(node_now_us, dropped, spans)| {
            Frame::TraceResponse(TraceScrape {
                node_now_us,
                dropped,
                spans,
            })
        }),
    ]
}

/// The wire form of `frames`, and the offset at which each frame ends.
fn wire(frames: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut out = Vec::new();
    let mut ends = Vec::new();
    for frame in frames {
        let payload = encode(frame);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        ends.push(out.len());
    }
    (out, ends)
}

/// A stream over `data` whose `read` calls hand out at most
/// `chunks[i % chunks.len()]` bytes on the i-th call.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    calls: usize,
}

impl Trickle {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Trickle {
            data,
            pos: 0,
            chunks,
            calls: 0,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let step = self.chunks[self.calls % self.chunks.len()];
        self.calls += 1;
        let n = step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reads frames until the reader stops, returning them and how it
/// stopped.
fn read_all<R: Read>(reader: &mut FrameReader<R>) -> (Vec<Frame>, io::Result<()>) {
    let mut frames = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

/// A reply bigger than the default buffer passes through whole, next to
/// small frames on either side, and the buffer does not grow for it.
#[test]
fn frame_larger_than_the_buffer_round_trips_and_the_buffer_stays_fixed() {
    let request = Request::new(
        RequestId::new(ClientId::new(1), 7),
        ObjectId::new(9),
        ClientId::new(1),
    );
    let big = Bytes::from(
        (0..3 * READ_BUFFER + 17)
            .map(|i| i as u8)
            .collect::<Vec<u8>>(),
    );
    let frames = vec![
        Frame::Request(request, None),
        Frame::Reply(Reply::from_origin(&request, big.len() as u32), big, None),
        Frame::MetricsRequest,
    ];
    let (data, _) = wire(&frames);
    let mut reader = FrameReader::new(Trickle::new(data, vec![5000, 1, 70_000]));
    assert_eq!(reader.capacity(), READ_BUFFER);
    let (got, end) = read_all(&mut reader);
    end.unwrap();
    assert_eq!(got, frames);
    assert_eq!(reader.capacity(), READ_BUFFER);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the read sizes and buffer size, the reader returns
    /// exactly the frames written, then `Ok(None)` at the clean end, and
    /// its buffer keeps the size it was built with.
    #[test]
    fn frame_reader_returns_exactly_the_frames_sent(
        frames in prop::collection::vec(arb_frame(), 0..12),
        chunks in prop::collection::vec(1usize..=97, 1..6),
        capacity in 4usize..=1024,
    ) {
        let (data, _) = wire(&frames);
        let mut reader = FrameReader::with_capacity(Trickle::new(data, chunks), capacity);
        let (got, end) = read_all(&mut reader);
        prop_assert!(end.is_ok(), "clean end reported as {:?}", end);
        prop_assert_eq!(got, frames);
        prop_assert!(reader.next_frame().unwrap().is_none());
        prop_assert_eq!(reader.capacity(), capacity);
    }

    /// A stream cut anywhere yields the frames that ended before the
    /// cut, then `Ok(None)` when the cut is at a frame boundary and
    /// `UnexpectedEof` when it is inside a frame.
    #[test]
    fn cut_stream_ends_cleanly_only_at_a_frame_boundary(
        frames in prop::collection::vec(arb_frame(), 1..8),
        chunks in prop::collection::vec(1usize..=97, 1..6),
        capacity in 4usize..=1024,
        cut_fraction in 0.0f64..1.0,
    ) {
        let (mut data, ends) = wire(&frames);
        let cut = ((data.len() as f64) * cut_fraction) as usize;
        data.truncate(cut);
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let mut reader = FrameReader::with_capacity(Trickle::new(data, chunks), capacity);
        let (got, end) = read_all(&mut reader);
        prop_assert_eq!(&got[..], &frames[..whole]);
        if cut == 0 || ends.contains(&cut) {
            prop_assert!(end.is_ok(), "cut at a boundary reported as {:?}", end);
        } else {
            let kind = end.map_err(|e| e.kind());
            prop_assert_eq!(kind, Err(io::ErrorKind::UnexpectedEof));
        }
    }

    /// A length above `MAX_FRAME` is refused from the prefix alone: the
    /// stream holds no payload, so a reader that tried to read or
    /// allocate one would report `UnexpectedEof` instead.
    #[test]
    fn oversized_length_is_invalid_data_before_any_payload(
        len in (MAX_FRAME as u32 + 1)..=u32::MAX,
        chunks in prop::collection::vec(1usize..=8, 1..4),
    ) {
        let mut reader = FrameReader::new(Trickle::new(len.to_be_bytes().to_vec(), chunks));
        let kind = reader.next_frame().map_err(|e| e.kind());
        prop_assert_eq!(kind, Err(io::ErrorKind::InvalidData));
    }

    #[test]
    fn requests_round_trip(request in arb_request(), ctx in arb_ctx()) {
        let frame = Frame::Request(request, ctx);
        prop_assert_eq!(decode(encode(&frame)).unwrap(), frame);
    }

    #[test]
    fn replies_round_trip(reply in arb_reply(), body in prop::collection::vec(any::<u8>(), 0..2048), ctx in arb_ctx()) {
        let frame = Frame::Reply(reply, Bytes::from(body), ctx);
        prop_assert_eq!(decode(encode(&frame)).unwrap(), frame);
    }

    /// The decoder never panics on arbitrary bytes — it returns an error
    /// or a valid frame.
    #[test]
    fn decoder_never_panics(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(Bytes::from(junk));
    }

    /// Truncating a valid encoding anywhere yields an error, never a
    /// silently wrong frame.
    #[test]
    fn truncation_always_errors(reply in arb_reply(), ctx in arb_ctx(), cut_fraction in 0.0f64..1.0) {
        let full = encode(&Frame::Reply(reply, Bytes::from_static(b"abcdef"), ctx));
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        if cut < full.len() {
            prop_assert!(decode(full.slice(..cut)).is_err());
        }
    }
}
