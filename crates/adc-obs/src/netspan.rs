//! Live-cluster spans: the wall-clock counterpart of [`crate::span`].
//!
//! The simulator attributes latency with [`SpanProbe`][crate::SpanProbe]
//! over virtual time; a live `adc-net` cluster has no global clock, so
//! each node records its own wall-clock spans into a bounded
//! [`SpanRing`] and a collector later merges the rings, aligning the
//! per-node monotonic clocks. Spans reuse the simulator's
//! [`SegmentKind`] taxonomy (one spelling per segment, held by
//! [`SegmentKind::name`]), so a live
//! trace and a simulated [`SpanReport`][crate::SpanReport] break down
//! latency into the same labelled segments.
//!
//! This module owns the span record ([`NetSpan`]), the ring
//! ([`SpanRing`]: fixed capacity, allocation-free once full, counted
//! drops), the JSONL codec the in-band trace scrape ships spans in, and
//! the chrome `trace_event` exporter that renders one lane per cluster
//! node ([`net_lanes_to_chrome_trace`]).

use crate::json::write_escaped;
use crate::span::SegmentKind;
use std::fmt::Write as _;
use std::io;

/// Lane id the origin server records spans under (proxies use their raw
/// proxy id; the reserved ids sit at the top of the `u32` range, far
/// above any real proxy count).
pub const ORIGIN_LANE: u32 = u32::MAX;

/// Lane id a client endpoint records spans under.
pub const CLIENT_LANE: u32 = u32::MAX - 1;

/// The chrome `pid` merged cluster-node lanes render under (pids 0 and 1
/// belong to the simulator's event exporter; see [`crate::chrome`]).
pub const NET_LANES_PID: u32 = 3;

/// Derives a trace id from the issuing client and its request counter.
///
/// A trace id is minted once, at the client that issues the root
/// request, and then travels the wire unchanged; deriving it by mixing
/// keeps it deterministic per request without any coordination.
/// `splitmix64` is a bijection, so distinct `(client, seq)` pairs map to
/// distinct ids while `seq < 2^32`.
pub fn derive_trace_id(client: u32, seq: u64) -> u64 {
    splitmix64(((client as u64) << 32) ^ seq)
}

/// Derives a span id from the recording node's lane and its local span
/// counter. Bijective mixing keeps ids unique across nodes while each
/// node records fewer than 2^32 spans.
pub fn derive_span_id(node: u32, counter: u64) -> u64 {
    splitmix64(((node as u64) << 32) ^ counter ^ 0x5EED_0BAD_CAFE)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One wall-clock span recorded at a cluster node.
///
/// Timestamps are microseconds on the *recording node's* monotonic
/// clock (since that node's spawn); only the merger converts them to a
/// shared timeline. `parent_span = 0` marks a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSpan {
    /// The request flow this span belongs to, minted at the client.
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The id of the span this one nests under; `0` for a root.
    pub parent_span: u64,
    /// Recording node's lane: proxy raw id, [`CLIENT_LANE`] or
    /// [`ORIGIN_LANE`].
    pub node: u32,
    /// Which latency segment this span attributes.
    pub kind: SegmentKind,
    /// Start, microseconds on the recording node's clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// The object the flow requested.
    pub object: u64,
    /// Hop count of the request when the span opened.
    pub hop: u32,
}

impl NetSpan {
    /// End of the span on the recording node's clock.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// A bounded ring of [`NetSpan`]s with counted drops.
///
/// Mirrors [`EventLog::ring`][crate::EventLog::ring]: recording never
/// blocks and never reallocates once the ring is full — the oldest span
/// is overwritten and the loss is counted, so the ring always holds the
/// *newest* `capacity` spans (what a flight-recorder dump wants) and
/// [`SpanRing::dropped`] says exactly how many were lost. The counters
/// are cumulative across [`SpanRing::drain_ordered`] calls, matching
/// the monotone `adc_net_trace_dropped_total` metric they back.
#[derive(Debug)]
pub struct SpanRing {
    slots: Vec<NetSpan>,
    capacity: usize,
    /// Index of the oldest slot once the ring has wrapped.
    next: usize,
    recorded: u64,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> SpanRing {
        assert!(capacity > 0, "span ring needs capacity");
        SpanRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Records one span, overwriting the oldest when full.
    pub fn record(&mut self, span: NetSpan) {
        self.recorded += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(span);
        } else {
            self.slots[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Spans recorded over the ring's lifetime (kept or dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans lost to overwrites over the ring's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring currently holds no spans.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the held spans oldest → newest.
    pub fn iter_ordered(&self) -> impl Iterator<Item = &NetSpan> {
        let (tail, head) = self.slots.split_at(self.next.min(self.slots.len()));
        head.iter().chain(tail.iter())
    }

    /// The newest `n` spans, oldest → newest — what a post-mortem dump
    /// wants.
    pub fn last(&self, n: usize) -> Vec<NetSpan> {
        let held = self.slots.len();
        self.iter_ordered()
            .skip(held.saturating_sub(n))
            .copied()
            .collect()
    }

    /// Removes and returns every held span, oldest → newest. The
    /// lifetime counters are *not* reset: `dropped`/`recorded` stay
    /// cumulative so repeated scrapes report monotone totals.
    pub fn drain_ordered(&mut self) -> Vec<NetSpan> {
        let out: Vec<NetSpan> = self.iter_ordered().copied().collect();
        self.slots.clear();
        self.next = 0;
        out
    }

    /// Renders the held spans as JSON Lines, oldest → newest.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.slots.len() * 128);
        for span in self.iter_ordered() {
            write_net_span_json(&mut out, span);
            out.push('\n');
        }
        out
    }
}

/// Appends one span as a flat JSON object (no trailing newline).
pub fn write_net_span_json(out: &mut String, s: &NetSpan) {
    let _ = write!(
        out,
        "{{\"trace\":{},\"span\":{},\"parent\":{},\"node\":{},\"seg\":",
        s.trace_id, s.span_id, s.parent_span, s.node
    );
    write_escaped(out, s.kind.name());
    let _ = write!(
        out,
        ",\"start_us\":{},\"dur_us\":{},\"object\":{},\"hop\":{}}}",
        s.start_us, s.dur_us, s.object, s.hop
    );
}

/// Renders `spans` as JSON Lines.
pub fn net_spans_to_jsonl(spans: &[NetSpan]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for span in spans {
        write_net_span_json(&mut out, span);
        out.push('\n');
    }
    out
}

/// Parses one JSONL line produced by [`write_net_span_json`].
///
/// # Errors
///
/// Returns a description of the first missing or malformed field. Only
/// the exact flat shape the writer emits is accepted — this is the
/// scrape codec, not a general JSON parser.
pub fn parse_net_span(line: &str) -> Result<NetSpan, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut span = NetSpan {
        trace_id: 0,
        span_id: 0,
        parent_span: 0,
        node: 0,
        kind: SegmentKind::ClientWait,
        start_us: 0,
        dur_us: 0,
        object: 0,
        hop: 0,
    };
    let mut seen = [false; 9];
    // The writer emits no strings containing ',' or ':' (segment names
    // are snake_case), so field-splitting on those is exact.
    for field in body.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("malformed field {field:?}"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("field {key:?} is not a number: {value:?}"))
        };
        match key {
            "trace" => {
                span.trace_id = num()?;
                seen[0] = true;
            }
            "span" => {
                span.span_id = num()?;
                seen[1] = true;
            }
            "parent" => {
                span.parent_span = num()?;
                seen[2] = true;
            }
            "node" => {
                span.node = num()? as u32;
                seen[3] = true;
            }
            "seg" => {
                let name = value.trim_matches('"');
                span.kind = SegmentKind::from_name(name)
                    .ok_or_else(|| format!("unknown segment name {name:?}"))?;
                seen[4] = true;
            }
            "start_us" => {
                span.start_us = num()?;
                seen[5] = true;
            }
            "dur_us" => {
                span.dur_us = num()?;
                seen[6] = true;
            }
            "object" => {
                span.object = num()?;
                seen[7] = true;
            }
            "hop" => {
                span.hop = num()? as u32;
                seen[8] = true;
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        const FIELDS: [&str; 9] = [
            "trace", "span", "parent", "node", "seg", "start_us", "dur_us", "object", "hop",
        ];
        return Err(format!("missing field {:?}", FIELDS[missing]));
    }
    Ok(span)
}

/// Parses a JSONL document of spans, ignoring blank lines.
///
/// # Errors
///
/// Propagates the first line-level parse error, annotated with its
/// 1-based line number.
pub fn parse_net_spans_jsonl(text: &str) -> Result<Vec<NetSpan>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_net_span(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// One cluster-node lane of a merged trace: a display name plus the
/// node's spans with `start_us` already aligned to the collector's
/// clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLane {
    /// Lane label, e.g. `proxy 0` or `origin`.
    pub name: String,
    /// The lane's spans on the shared (collector) timeline.
    pub spans: Vec<NetSpan>,
}

/// Renders merged cluster-node lanes as a chrome `trace_event` JSON
/// document: under [`NET_LANES_PID`], one named `tid` lane per node
/// (lanes keep their input order) carrying a `ph:"X"` slice per span,
/// named by its segment with the trace linkage under `args`. Follows
/// the [`crate::chrome`] conventions: metadata first, ascending `tid`
/// order, microsecond timestamps.
pub fn net_lanes_to_chrome_trace(lanes: &[NetLane]) -> String {
    let spans: usize = lanes.iter().map(|l| l.spans.len()).sum();
    let mut out = String::with_capacity(256 + spans * 144);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{NET_LANES_PID},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"cluster nodes (wall clock)\"}}}}"
    );
    for (tid, lane) in lanes.iter().enumerate() {
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":{NET_LANES_PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        write_escaped(&mut out, &lane.name);
        out.push_str("}}");
    }
    for (tid, lane) in lanes.iter().enumerate() {
        for s in &lane.spans {
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":{NET_LANES_PID},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":",
                s.start_us, s.dur_us
            );
            write_escaped(&mut out, s.kind.name());
            let _ = write!(
                out,
                ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"object\":{},\"hop\":{}}}}}",
                s.trace_id, s.span_id, s.parent_span, s.object, s.hop
            );
        }
    }
    out.push_str("]}");
    out
}

/// Writes the merged-lane chrome trace to `writer`.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_net_lanes<W: io::Write>(writer: &mut W, lanes: &[NetLane]) -> io::Result<()> {
    writer.write_all(net_lanes_to_chrome_trace(lanes).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn span(i: u64) -> NetSpan {
        NetSpan {
            trace_id: derive_trace_id(1, i),
            span_id: derive_span_id(0, i),
            parent_span: 0,
            node: 0,
            kind: SegmentKind::ALL[(i as usize) % SegmentKind::COUNT],
            start_us: i * 10,
            dur_us: 5,
            object: 42 + i,
            hop: i as u32,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = SpanRing::with_capacity(4);
        for i in 0..10 {
            ring.record(span(i));
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.len(), 4);
        let held: Vec<u64> = ring.iter_ordered().map(|s| s.start_us).collect();
        assert_eq!(held, vec![60, 70, 80, 90], "newest four, oldest first");
        assert_eq!(ring.last(2).len(), 2);
        assert_eq!(ring.last(2)[1].start_us, 90);
    }

    #[test]
    fn drain_resets_contents_but_not_counters() {
        let mut ring = SpanRing::with_capacity(3);
        for i in 0..5 {
            ring.record(span(i));
        }
        let drained = ring.drain_ordered();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drop counter is cumulative");
        ring.record(span(9));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 6);
    }

    #[test]
    fn ring_below_capacity_preserves_order() {
        let mut ring = SpanRing::with_capacity(8);
        for i in 0..3 {
            ring.record(span(i));
        }
        assert_eq!(ring.dropped(), 0);
        let held: Vec<u64> = ring.iter_ordered().map(|s| s.start_us).collect();
        assert_eq!(held, vec![0, 10, 20]);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans: Vec<NetSpan> = (0..7).map(span).collect();
        let text = net_spans_to_jsonl(&spans);
        for line in text.lines() {
            validate_json(line).expect("each span line is valid JSON");
        }
        let back = parse_net_spans_jsonl(&text).expect("parse back");
        assert_eq!(back, spans);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_net_span("not json").is_err());
        assert!(parse_net_span("{\"trace\":1}").is_err(), "missing fields");
        let mut good = String::new();
        write_net_span_json(&mut good, &span(0));
        let bad = good.replace("\"seg\":\"client_wait\"", "\"seg\":\"clientwait\"");
        assert!(parse_net_span(&bad).is_err(), "unknown segment name");
        let bad = good.replace("\"object\"", "\"objekt\"");
        assert!(parse_net_span(&bad).is_err(), "unknown field");
    }

    #[test]
    fn derived_ids_are_distinct() {
        let mut ids: Vec<u64> = (0..100).map(|i| derive_trace_id(3, i)).collect();
        ids.extend((0..100).map(|i| derive_span_id(3, i)));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn chrome_export_names_every_lane_and_validates() {
        let lanes = vec![
            NetLane {
                name: "client".into(),
                spans: vec![span(0)],
            },
            NetLane {
                name: "proxy 0".into(),
                spans: vec![span(1), span(2)],
            },
            NetLane {
                name: "origin".into(),
                spans: Vec::new(),
            },
        ];
        let trace = net_lanes_to_chrome_trace(&lanes);
        validate_json(&trace).expect("chrome trace must be valid JSON");
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"client\"}"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"proxy 0\"}"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"origin\"}"));
        // One process label plus one thread label per lane, even empty
        // ones.
        assert_eq!(trace.matches("\"ph\":\"M\"").count(), 4);
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 3);
        assert!(trace.contains(&format!("\"pid\":{NET_LANES_PID}")));
    }

    #[test]
    fn empty_lanes_still_validate() {
        let trace = net_lanes_to_chrome_trace(&[]);
        validate_json(&trace).expect("valid JSON");
    }
}
