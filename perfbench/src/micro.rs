//! Per-operation costs of layers the agent wrapper cannot see, measured
//! standalone on inputs shaped like the workload's. They feed the
//! reconciliation ledger (cost per op × the run's op count).

use crate::measure::ns_per_call;
use crate::timed::BoundaryStats;
use adc_core::{ClientId, Reply, Request, RequestId};
use adc_net::protocol::{decode, encode, Frame};
use adc_sim::{CalendarQueue, FlowTable};
use adc_workload::{RequestRecord, SharedTrace, SizeModel};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Simulated latencies (µs) events are rescheduled by: client, peer,
/// origin and peer hops, the default latency model's magnitudes.
const EVENT_DELAYS_US: [u64; 4] = [1_000, 2_000, 42_000, 2_000];

/// ns per pop + push pair on a calendar queue holding `occupancy` events.
pub fn queue_pair_ns(occupancy: usize) -> f64 {
    let occupancy = occupancy.max(1) as u64;
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    for i in 0..occupancy {
        queue.push(i * 44_000 / occupancy, i, i);
    }
    let mut seq = occupancy;
    ns_per_call(7, 200_000, || {
        let (at, _, value) = queue.pop().expect("the queue never drains");
        queue.push(at + EVENT_DELAYS_US[(seq % 4) as usize], seq, value);
        seq += 1;
    })
}

/// ns per insert + remove pair on a flow table holding `occupancy` live
/// flows in a sliding window of sequence numbers.
pub fn flows_pair_ns(occupancy: usize) -> f64 {
    let occupancy = occupancy.max(1) as u64;
    let client = ClientId::new(0);
    let mut flows: FlowTable<u64> = FlowTable::new();
    for seq in 0..occupancy {
        flows.insert(RequestId::new(client, seq), seq);
    }
    let mut next = occupancy;
    ns_per_call(7, 200_000, || {
        flows.insert(RequestId::new(client, next), next);
        black_box(flows.remove(&RequestId::new(client, next - occupancy)));
        next += 1;
    })
}

/// ns to pull one record out of the shared trace.
pub fn trace_iter_ns(trace: &SharedTrace) -> f64 {
    let len = trace.len().max(1);
    let batches = (2_000_000 / len).clamp(1, 7);
    ns_per_call(batches, 1, || {
        for record in trace.iter() {
            black_box(record);
        }
    }) / len as f64
}

/// Per-frame encode and decode cost of the request and reply frames the
/// workload's records produce (replies carry the origin's real body).
#[derive(Debug, Clone, Default)]
pub struct CodecCost {
    /// Encode samples, ns per frame.
    pub encode: BoundaryStats,
    /// Decode samples, ns per frame.
    pub decode: BoundaryStats,
    /// Mean encoded frame length, bytes.
    pub mean_frame_bytes: f64,
    /// Frames that did not decode back to themselves.
    pub mismatches: u64,
}

/// Times `encode`/`decode` per frame on frames built from `records`,
/// subtracting `clock_ns` per sample.
pub fn codec_cost(records: &[RequestRecord], clock_ns: u64) -> CodecCost {
    let sizes = SizeModel::default();
    let mut frames = Vec::with_capacity(2 * records.len());
    for (i, record) in records.iter().enumerate() {
        let id = RequestId::new(record.client, i as u64);
        let request = Request::new(id, record.object, record.client);
        let body = adc_net::origin_body(record.object, &sizes);
        let reply = Reply::from_origin(&request, body.len() as u32);
        frames.push(Frame::Request(request, None));
        frames.push(Frame::Reply(reply, body, None));
    }
    let mut cost = CodecCost::default();
    let mut bytes = 0usize;
    for frame in &frames {
        let start = Instant::now();
        let wire = black_box(encode(frame));
        cost.encode
            .record((start.elapsed().as_nanos() as u64).saturating_sub(clock_ns));
        bytes += wire.len();
        let start = Instant::now();
        let decoded = black_box(decode(wire));
        cost.decode
            .record((start.elapsed().as_nanos() as u64).saturating_sub(clock_ns));
        if decoded.as_ref() != Ok(frame) {
            cost.mismatches += 1;
        }
    }
    cost.mean_frame_bytes = bytes as f64 / frames.len().max(1) as f64;
    cost
}

/// ns per one-way loopback socket hop carrying a `payload`-byte frame:
/// half the round trip of a length-prefixed echo between two threads,
/// each blocking in `read` as the cluster's connection threads do.
///
/// # Errors
///
/// Propagates socket errors.
pub fn socket_hop_ns(payload: usize) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connect before the echo thread exists: loopback connects complete
    // from the backlog, and a failed connect leaves no thread behind.
    let mut stream = TcpStream::connect(listener.local_addr()?)?;
    stream.set_nodelay(true)?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = Vec::new();
        let mut len = [0u8; 4];
        while peer.read_exact(&mut len).is_ok() {
            buf.resize(u32::from_be_bytes(len) as usize, 0);
            peer.read_exact(&mut buf)?;
            peer.write_all(&len)?;
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let frame = vec![7u8; payload.max(1)];
    let len = (frame.len() as u32).to_be_bytes();
    let mut back = vec![0u8; frame.len()];
    let mut failed = None;
    let mut round_trip = || {
        let result = stream
            .write_all(&len)
            .and_then(|()| stream.write_all(&frame))
            .and_then(|()| stream.read_exact(&mut [0u8; 4]))
            .and_then(|()| stream.read_exact(&mut back));
        if let Err(e) = result {
            failed.get_or_insert(e);
        }
    };
    for _ in 0..200 {
        round_trip();
    }
    let ns = ns_per_call(5, 400, round_trip);
    // Closing our end ends the echo loop.
    drop(stream);
    echo.join()
        .map_err(|_| io::Error::other("echo thread panicked"))??;
    failed.map_or(Ok(ns / 2.0), Err)
}

/// A deterministic, evenly strided sample of at most `n` records.
pub fn sample(records: &[RequestRecord], n: usize) -> Vec<RequestRecord> {
    let step = (records.len() / n.max(1)).max(1);
    records.iter().step_by(step).take(n).cloned().collect()
}
