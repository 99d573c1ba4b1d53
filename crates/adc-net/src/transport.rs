//! Framed TCP transport over blocking `std::net` sockets.
//!
//! A frame on the wire is its payload length as a `u32` big-endian
//! prefix followed by the payload [`encode`][crate::protocol::encode]
//! produces.
//!
//! Threads: each listening node has one accept thread, and each inbound
//! connection one reader thread that pulls frames through a
//! [`FrameReader`]. No thread only writes: [`Pool`]
//! keeps one connection per destination behind its own lock, and the
//! thread that made a frame encodes it into one exact-size buffer and
//! writes it with one `write_all` under that lock. Frames from
//! concurrent senders therefore never interleave, and a full socket
//! blocks its sender; every caller in the workspace is closed-loop, so
//! the bytes in flight are bounded by the requests outstanding.

use crate::protocol::{decode, encode_framed, Frame, MAX_FRAME};
use crate::sync::Mutex;
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

/// Size of the length prefix in front of every payload.
const PREFIX_LEN: usize = 4;

/// Bytes each [`FrameReader`] buffers. Replies under the default size
/// model (median ≈ 6 KiB) fit in all but ~2 % of cases; larger frames
/// bypass the buffer, so it never grows.
pub const READ_BUFFER: usize = 64 * 1024;

/// Writes `frame` whole: length prefix and payload in one buffer, one
/// `write_all`.
///
/// # Errors
///
/// Propagates the write error.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_framed(frame))
}

/// Connects to `addr` with Nagle's algorithm off: every frame is written
/// whole, so there is nothing to coalesce.
pub(crate) fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Serves `listener` from an accept thread named `name`: every inbound
/// connection gets its own reader thread running `serve`. The loop ends
/// when an accept fails or `keep_accepting` returns false, which it asks
/// after each accept, so one wake-up connection stops a node that was
/// told to.
///
/// # Panics
///
/// Panics if the accept thread cannot be spawned.
pub(crate) fn spawn_acceptor<K, S>(name: &str, listener: TcpListener, keep_accepting: K, serve: S)
where
    K: Fn() -> bool + Send + 'static,
    S: Fn(FrameReader<TcpStream>) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    let reader_name = name.to_string();
    thread::Builder::new()
        .name(format!("{name} accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else {
                    break;
                };
                if !keep_accepting() {
                    break;
                }
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                let serve = Arc::clone(&serve);
                // A connection whose thread cannot start is dropped, and
                // its peer sees it close.
                let _ = thread::Builder::new()
                    .name(reader_name.clone())
                    .spawn(move || serve(FrameReader::new(stream)));
            }
        })
        .expect("the accept thread must start");
}

/// Reads length-prefixed frames through one buffer of fixed size.
///
/// A frame that fits is cut out of the buffer, so one `read` can bring
/// in several frames; a larger one is read straight into its own
/// payload. The buffer never grows, which bounds a connection's memory
/// to [`FrameReader::capacity`] plus the frame being decoded.
pub struct FrameReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// Buffered bytes not yet consumed are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl<R> fmt::Debug for FrameReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader")
            .field("capacity", &self.buf.len())
            .field("buffered", &(self.end - self.start))
            .finish_non_exhaustive()
    }
}

impl<R: Read> FrameReader<R> {
    /// A reader over `inner` with a [`READ_BUFFER`]-byte buffer.
    pub fn new(inner: R) -> Self {
        Self::with_capacity(inner, READ_BUFFER)
    }

    /// A reader over `inner` with a `capacity`-byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot hold a length prefix (4 bytes).
    pub fn with_capacity(inner: R, capacity: usize) -> Self {
        assert!(
            capacity >= PREFIX_LEN,
            "a frame reader must buffer a whole length prefix"
        );
        FrameReader {
            inner,
            buf: vec![0; capacity].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// The buffer's size, fixed for the reader's lifetime.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The underlying stream, for writing an answer on the same
    /// connection.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads the next frame; `Ok(None)` on a clean end of stream at a
    /// frame boundary.
    ///
    /// # Errors
    ///
    /// Returns `UnexpectedEof` when the stream ends inside a frame,
    /// `InvalidData` for a length above [`MAX_FRAME`] (before reading or
    /// allocating its payload) or a payload that does not decode, and
    /// otherwise propagates read errors.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if !self.fill(PREFIX_LEN)? {
            if self.start == self.end {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a length prefix",
            ));
        }
        let mut prefix = [0u8; PREFIX_LEN];
        prefix.copy_from_slice(&self.buf[self.start..self.start + PREFIX_LEN]);
        self.start += PREFIX_LEN;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        let payload = if len <= self.buf.len() {
            if !self.fill(len)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame",
                ));
            }
            let payload = Bytes::copy_from_slice(&self.buf[self.start..self.start + len]);
            self.start += len;
            payload
        } else {
            // `len` exceeds the buffer, so whatever is buffered is a
            // strict prefix of this payload.
            let buffered = self.end - self.start;
            let mut payload = vec![0u8; len];
            payload[..buffered].copy_from_slice(&self.buf[self.start..self.end]);
            self.start = self.end;
            self.inner.read_exact(&mut payload[buffered..])?;
            Bytes::from(payload)
        };
        decode(payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Reads until at least `n` (≤ capacity) bytes are buffered; `false`
    /// when the stream ends first.
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start + n > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        while self.end - self.start < n {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(read) => self.end += read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// One destination's connection, absent until first use and after a
/// failed write.
type Conn = Arc<Mutex<Option<TcpStream>>>;

/// A lazy pool of outbound connections: one per destination, each
/// behind its own lock.
#[derive(Debug, Default)]
pub struct Pool {
    conns: Mutex<HashMap<SocketAddr, Conn>>,
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool::default()
    }

    /// Sends `frame` to `addr` from the calling thread, connecting first
    /// if necessary. The frame is written whole under the destination's
    /// lock. When a pooled connection fails the write, it is dropped and
    /// the frame is resent once over a fresh connection.
    ///
    /// # Errors
    ///
    /// Returns the connect or write error of the fresh connection.
    pub fn send(&self, addr: SocketAddr, frame: &Frame) -> io::Result<()> {
        let wire = encode_framed(frame);
        let conn = Arc::clone(self.conns.lock().entry(addr).or_default());
        let mut slot = conn.lock();
        if let Some(stream) = slot.as_mut() {
            if stream.write_all(&wire).is_ok() {
                return Ok(());
            }
            *slot = None;
        }
        let mut stream = connect(addr)?;
        stream.write_all(&wire)?;
        *slot = Some(stream);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode, TraceContext, TraceScrape};
    use adc_core::{ClientId, ObjectId, ProxyId, Reply, Request, RequestId, ServedFrom};
    use std::sync::mpsc;

    fn frame(client: u32, seq: u64) -> Frame {
        Frame::Request(
            Request::new(
                RequestId::new(ClientId::new(client), seq),
                ObjectId::new(42),
                ClientId::new(client),
            ),
            None,
        )
    }

    /// Reads every frame of each connection `listener` accepts into
    /// `frames`, one reader thread per connection as the nodes do.
    fn collect_frames(listener: TcpListener, frames: mpsc::Sender<Frame>) {
        thread::spawn(move || {
            for stream in listener.incoming() {
                let frames = frames.clone();
                let mut reader = FrameReader::new(stream.unwrap());
                thread::spawn(move || {
                    while let Ok(Some(f)) = reader.next_frame() {
                        frames.send(f).ok();
                    }
                });
            }
        });
    }

    #[test]
    fn frame_round_trip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream);
            let mut got = Vec::new();
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
            got
        });
        let mut client = connect(addr).unwrap();
        write_frame(&mut client, &frame(1, 1)).unwrap();
        write_frame(&mut client, &frame(1, 2)).unwrap();
        drop(client);
        assert_eq!(server.join().unwrap(), vec![frame(1, 1), frame(1, 2)]);
    }

    #[test]
    fn pool_reuses_and_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        collect_frames(listener, tx);
        let pool = Pool::new();
        // The pooled connection's own address tells connections apart.
        let local = || {
            pool.conns.lock()[&addr]
                .lock()
                .as_ref()
                .unwrap()
                .local_addr()
                .unwrap()
        };
        pool.send(addr, &frame(1, 1)).unwrap();
        let first = local();
        pool.send(addr, &frame(1, 2)).unwrap();
        assert_eq!(local(), first, "the second frame reuses the connection");
        assert_eq!(rx.recv().unwrap(), frame(1, 1));
        assert_eq!(rx.recv().unwrap(), frame(1, 2));

        // Break the pooled connection: its next write fails, and the
        // frame is resent over a fresh one.
        let stale = pool.conns.lock()[&addr]
            .lock()
            .as_ref()
            .unwrap()
            .try_clone()
            .unwrap();
        stale.shutdown(std::net::Shutdown::Write).unwrap();
        pool.send(addr, &frame(1, 3)).unwrap();
        assert_eq!(rx.recv().unwrap(), frame(1, 3));
        assert_ne!(local(), first, "a failed write reconnects");
    }

    #[test]
    fn pool_errors_on_unreachable() {
        let pool = Pool::new();
        // A port that was bound and released has no listener.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        assert!(pool.send(addr, &frame(1, 1)).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            FrameReader::new(stream).next_frame()
        });
        let mut client = connect(addr).unwrap();
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Four threads share one pool to one listener: every frame arrives
    /// whole (a torn write would fail to decode or shift the stream), and
    /// each sender's frames arrive in the order it sent them.
    #[test]
    fn concurrent_senders_never_interleave() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u64 = 500;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        collect_frames(listener, tx);
        let pool = Pool::new();
        let start = std::sync::Barrier::new(SENDERS as usize);
        thread::scope(|scope| {
            for client in 0..SENDERS {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for seq in 0..PER_SENDER {
                        pool.send(addr, &frame(client, seq)).unwrap();
                    }
                });
            }
        });
        let mut next = [0u64; SENDERS as usize];
        for _ in 0..u64::from(SENDERS) * PER_SENDER {
            let Frame::Request(request, None) = rx.recv().unwrap() else {
                panic!("a frame changed kind on the wire");
            };
            let sender = request.id.client.raw() as usize;
            assert_eq!(request.id.seq, next[sender], "sender {sender} reordered");
            next[sender] += 1;
        }
        assert_eq!(next, [PER_SENDER; SENDERS as usize]);
    }

    /// What the pool puts on the wire, per frame variant, is the
    /// big-endian payload length followed by exactly `encode(frame)`.
    #[test]
    fn wire_bytes_are_length_prefix_then_encode() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent_span: 9,
            hop: 2,
        };
        let request = Request::new(
            RequestId::new(ClientId::new(3), 99),
            ObjectId::new(0xdead_beef),
            ClientId::new(3),
        );
        let reply = Reply {
            resolver: Some(ProxyId::new(1)),
            served_from: ServedFrom::Cache(ProxyId::new(1)),
            ..Reply::from_origin(&request, 4)
        };
        let frames = [
            Frame::Request(request, None),
            Frame::Request(request, Some(ctx)),
            Frame::Reply(reply, Bytes::from_static(b"data"), None),
            Frame::Reply(reply, Bytes::from(vec![7u8; 3 * READ_BUFFER]), Some(ctx)),
            Frame::MetricsRequest,
            Frame::MetricsResponse(Bytes::from_static(b"adc_local_hits_total 1\n")),
            Frame::TraceRequest,
            Frame::TraceResponse(TraceScrape {
                node_now_us: 5,
                dropped: 1,
                spans: Bytes::from_static(b"{}\n"),
            }),
        ];
        for frame in &frames {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut wire = Vec::new();
                stream.read_to_end(&mut wire).unwrap();
                wire
            });
            let pool = Pool::new();
            pool.send(addr, frame).unwrap();
            drop(pool);
            let payload = encode(frame);
            let mut expect = (payload.len() as u32).to_be_bytes().to_vec();
            expect.extend_from_slice(&payload);
            assert_eq!(server.join().unwrap(), expect, "{frame:?}");
        }
    }
}
