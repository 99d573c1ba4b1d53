//! Cross-node merge of live-cluster trace scrapes: clock alignment,
//! parent/child clamping, per-node chrome lanes and a per-segment
//! latency table.
//!
//! Every cluster node stamps its spans on its own monotonic clock
//! (microseconds since the node spawned), so raw scrapes from different
//! nodes are mutually unordered. The collector samples its own clock on
//! both sides of each in-band scrape ([`TraceScrapeResult`]'s `sent_us`
//! / `recv_us`) and the node reports its clock (`node_now_us`) while
//! answering; the classic NTP midpoint estimate
//! `offset = (sent + recv) / 2 − node_now` then maps every node clock
//! onto the collector's timeline to within half the scrape round-trip.
//!
//! Residual error (and genuine clock drift during the run) can still
//! make a child span poke outside its parent — a forward hop apparently
//! starting before the request arrived. The merge walks each trace's
//! parent/child tree and clamps children into their parent's bounds, so
//! the rendered chrome trace never shows a causal inversion; the number
//! of clamped spans is reported, because a large count means the offset
//! estimates are bad, not that causality broke.

use adc_net::TraceScrapeResult;
use adc_obs::netspan::{net_lanes_to_chrome_trace, parse_net_spans_jsonl, NetLane, NetSpan};
use adc_obs::netspan::{CLIENT_LANE, ORIGIN_LANE};
use adc_obs::SegmentKind;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One node's scraped spans plus the clock-offset estimate that maps
/// them onto the collector timeline.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Lane name (`client`, `proxy-<p>`, `origin`).
    pub name: String,
    /// The node's spans, still on the node's own clock.
    pub spans: Vec<NetSpan>,
    /// Estimated node-clock offset: add this to a node timestamp to get
    /// collector time.
    pub offset_us: i64,
}

/// The NTP-style midpoint estimate of a node's clock offset from the
/// collector, in microseconds: `(sent + recv) / 2 − node_now`. Accurate
/// to within half the scrape round-trip.
pub fn clock_offset_us(scrape: &TraceScrapeResult) -> i64 {
    let midpoint = scrape.sent_us / 2 + scrape.recv_us / 2;
    midpoint as i64 - scrape.node_now_us as i64
}

impl NodeTrace {
    /// Parses one scrape into a merge input, estimating the offset from
    /// its clock samples.
    ///
    /// # Errors
    ///
    /// Propagates JSONL parse errors, prefixed with the lane name.
    pub fn from_scrape(name: &str, scrape: &TraceScrapeResult) -> Result<NodeTrace, String> {
        let spans =
            parse_net_spans_jsonl(&scrape.jsonl).map_err(|e| format!("lane {name}: {e}"))?;
        Ok(NodeTrace {
            name: name.to_string(),
            spans,
            offset_us: clock_offset_us(scrape),
        })
    }
}

/// Totals for one segment kind across the merged spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentTotal {
    /// The segment kind (spelled by [`SegmentKind::name`]).
    pub kind: SegmentKind,
    /// Spans of this kind.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
}

/// The result of merging every node's scrape onto one timeline.
#[derive(Debug, Clone)]
pub struct MergedTrace {
    /// Aligned spans grouped per node lane, each lane sorted by start
    /// time. Lane order: client, proxies ascending, origin.
    pub lanes: Vec<NetLane>,
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Trace ids whose spans touch two or more distinct nodes.
    pub cross_node_traces: usize,
    /// Spans clamped into their parent's bounds to repair residual
    /// clock-alignment error.
    pub clamped: usize,
    /// Per-segment latency totals, in [`SegmentKind::ALL`] order, with
    /// zero-count kinds retained so the table shape is stable.
    pub segments: Vec<SegmentTotal>,
}

impl MergedTrace {
    /// Renders the merged lanes as a chrome `trace_event` JSON document
    /// (cluster nodes under one process, one thread lane per node).
    pub fn to_chrome_trace(&self) -> String {
        net_lanes_to_chrome_trace(&self.lanes)
    }

    /// The per-segment table as aligned text, for logs.
    pub fn segment_table(&self) -> String {
        let mut out = String::from("segment        count    total_us     mean_us\n");
        for seg in &self.segments {
            let mean = if seg.count > 0 {
                seg.total_us as f64 / seg.count as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<12} {:>8} {:>11} {:>11.1}\n",
                seg.kind.name(),
                seg.count,
                seg.total_us,
                mean
            ));
        }
        out
    }
}

/// Sort key giving the conventional lane order: client first, proxies
/// ascending, origin last.
fn lane_rank(node: u32) -> u64 {
    match node {
        CLIENT_LANE => 0,
        ORIGIN_LANE => u64::from(u32::MAX) + 2,
        p => u64::from(p) + 1,
    }
}

fn lane_name(node: u32) -> String {
    match node {
        CLIENT_LANE => "client".to_string(),
        ORIGIN_LANE => "origin".to_string(),
        p => format!("proxy-{p}"),
    }
}

/// Merges every node's scraped spans onto the collector timeline:
/// applies each node's clock offset, clamps children into their
/// parent's bounds trace by trace, and groups the result into per-node
/// lanes plus a per-segment latency table.
pub fn merge_node_traces(nodes: &[NodeTrace]) -> MergedTrace {
    // Align every span onto the collector clock.
    let mut spans: Vec<NetSpan> = Vec::with_capacity(nodes.iter().map(|n| n.spans.len()).sum());
    for node in nodes {
        for span in &node.spans {
            let mut s = *span;
            s.start_us = (s.start_us as i64 + node.offset_us).max(0) as u64;
            spans.push(s);
        }
    }

    // Clamp children into their parents, one trace at a time, walking
    // down from the roots so bounds propagate through chains.
    let mut by_trace: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_trace.entry(s.trace_id).or_default().push(i);
    }
    let mut clamped = 0usize;
    let mut cross_node_traces = 0usize;
    for members in by_trace.values() {
        let nodes_touched: HashSet<u32> = members.iter().map(|&i| spans[i].node).collect();
        if nodes_touched.len() >= 2 {
            cross_node_traces += 1;
        }
        let by_span: HashMap<u64, usize> = members.iter().map(|&i| (spans[i].span_id, i)).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for &i in members {
            let parent = spans[i].parent_span;
            if parent != 0 && by_span.contains_key(&parent) {
                children.entry(parent).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        let mut stack = roots;
        while let Some(i) = stack.pop() {
            let (p_start, p_end) = (spans[i].start_us, spans[i].end_us());
            if let Some(kids) = children.get(&spans[i].span_id) {
                for &k in kids {
                    let start = spans[k].start_us.clamp(p_start, p_end);
                    let end = spans[k].end_us().clamp(start, p_end);
                    if start != spans[k].start_us || end != spans[k].end_us() {
                        clamped += 1;
                    }
                    spans[k].start_us = start;
                    spans[k].dur_us = end - start;
                    stack.push(k);
                }
            }
        }
    }
    let traces = by_trace.len();

    // Per-node lanes in conventional order, sorted within each lane.
    let mut by_lane: BTreeMap<u64, (u32, Vec<NetSpan>)> = BTreeMap::new();
    for s in spans {
        by_lane
            .entry(lane_rank(s.node))
            .or_insert_with(|| (s.node, Vec::new()))
            .1
            .push(s);
    }
    let lanes: Vec<NetLane> = by_lane
        .into_values()
        .map(|(node, mut spans)| {
            spans.sort_by_key(|s| (s.start_us, s.span_id));
            NetLane {
                name: lane_name(node),
                spans,
            }
        })
        .collect();

    let mut segments: Vec<SegmentTotal> = SegmentKind::ALL
        .into_iter()
        .map(|kind| SegmentTotal {
            kind,
            count: 0,
            total_us: 0,
        })
        .collect();
    for lane in &lanes {
        for s in &lane.spans {
            let seg = segments
                .iter_mut()
                .find(|seg| seg.kind == s.kind)
                .expect("SegmentKind::ALL covers every kind");
            seg.count += 1;
            seg.total_us += s.dur_us;
        }
    }

    MergedTrace {
        lanes,
        traces,
        cross_node_traces,
        clamped,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_obs::netspan::net_spans_to_jsonl;
    use adc_obs::validate_json;

    fn span(
        trace: u64,
        span_id: u64,
        parent: u64,
        node: u32,
        kind: SegmentKind,
        start_us: u64,
        dur_us: u64,
    ) -> NetSpan {
        NetSpan {
            trace_id: trace,
            span_id,
            parent_span: parent,
            node,
            kind,
            start_us,
            dur_us,
            object: 9,
            hop: 0,
        }
    }

    /// Packages spans as a scrape whose node clock is `true + skew`,
    /// scraped at collector time `scrape_at`.
    fn scrape(spans: &[NetSpan], skew: i64, scrape_at: u64) -> TraceScrapeResult {
        let shifted: Vec<NetSpan> = spans
            .iter()
            .map(|s| {
                let mut s = *s;
                s.start_us = (s.start_us as i64 + skew) as u64;
                s
            })
            .collect();
        TraceScrapeResult {
            node_now_us: (scrape_at as i64 + skew) as u64,
            dropped: 0,
            jsonl: net_spans_to_jsonl(&shifted),
            sent_us: scrape_at,
            recv_us: scrape_at,
        }
    }

    /// Three-node flow on the true timeline: the client waits 1000–9000,
    /// proxy 2 forwards 2000–8000 under it, the origin serves 3000–7000
    /// under that.
    fn true_flow() -> (Vec<NetSpan>, Vec<NetSpan>, Vec<NetSpan>) {
        let client = vec![span(
            7,
            100,
            0,
            CLIENT_LANE,
            SegmentKind::ClientWait,
            1000,
            8000,
        )];
        let proxy = vec![span(7, 200, 100, 2, SegmentKind::ForwardHop, 2000, 6000)];
        let origin = vec![span(
            7,
            300,
            200,
            ORIGIN_LANE,
            SegmentKind::OriginFetch,
            3000,
            4000,
        )];
        (client, proxy, origin)
    }

    fn assert_no_inversion(merged: &MergedTrace) {
        let all: Vec<&NetSpan> = merged.lanes.iter().flat_map(|l| &l.spans).collect();
        for s in &all {
            if s.parent_span == 0 {
                continue;
            }
            let parent = all
                .iter()
                .find(|p| p.span_id == s.parent_span)
                .expect("parent present");
            assert!(
                s.start_us >= parent.start_us && s.end_us() <= parent.end_us(),
                "span {} [{}, {}] pokes outside parent {} [{}, {}]",
                s.span_id,
                s.start_us,
                s.end_us(),
                parent.span_id,
                parent.start_us,
                parent.end_us()
            );
        }
        for lane in &merged.lanes {
            for pair in lane.spans.windows(2) {
                assert!(pair[0].start_us <= pair[1].start_us, "lane not monotone");
            }
        }
    }

    #[test]
    fn fixed_skew_realigns_exactly() {
        let (client, proxy, origin) = true_flow();
        // The proxy clock runs 500ms ahead, the origin 300ms behind.
        let nodes = vec![
            NodeTrace::from_scrape("client", &scrape(&client, 0, 100_000)).unwrap(),
            NodeTrace::from_scrape("proxy-2", &scrape(&proxy, 500_000, 100_000)).unwrap(),
            NodeTrace::from_scrape("origin", &scrape(&origin, -300_000, 100_000)).unwrap(),
        ];
        assert_eq!(nodes[1].offset_us, -500_000);
        assert_eq!(nodes[2].offset_us, 300_000);
        let merged = merge_node_traces(&nodes);
        assert_eq!(merged.traces, 1);
        assert_eq!(merged.cross_node_traces, 1);
        assert_eq!(merged.clamped, 0, "perfect offsets need no clamping");
        assert_eq!(merged.lanes.len(), 3);
        assert_eq!(merged.lanes[0].name, "client");
        assert_eq!(merged.lanes[1].name, "proxy-2");
        assert_eq!(merged.lanes[2].name, "origin");
        // Back on the true timeline.
        assert_eq!(merged.lanes[1].spans[0].start_us, 2000);
        assert_eq!(merged.lanes[2].spans[0].start_us, 3000);
        assert_no_inversion(&merged);
        validate_json(&merged.to_chrome_trace()).expect("chrome trace is valid JSON");
    }

    #[test]
    fn drifting_skew_is_clamped_into_causal_order() {
        let (client, proxy, origin) = true_flow();
        // The proxy's clock drifts: it gained 1500us between recording
        // the span and answering the scrape, so the scrape-time offset
        // over-corrects the span into the past — before its parent.
        let mut drifted = scrape(&proxy, 500_000, 100_000);
        drifted.node_now_us += 1500;
        let nodes = vec![
            NodeTrace::from_scrape("client", &scrape(&client, 0, 100_000)).unwrap(),
            NodeTrace::from_scrape("proxy-2", &drifted).unwrap(),
            NodeTrace::from_scrape("origin", &scrape(&origin, 0, 100_000)).unwrap(),
        ];
        let merged = merge_node_traces(&nodes);
        assert!(merged.clamped >= 1, "drift must force a clamp");
        assert_no_inversion(&merged);
        validate_json(&merged.to_chrome_trace()).unwrap();
    }

    #[test]
    fn asymmetric_scrape_window_still_bounds_the_offset() {
        let (client, _, _) = true_flow();
        let s = TraceScrapeResult {
            node_now_us: 61_000,
            dropped: 0,
            jsonl: net_spans_to_jsonl(&client),
            sent_us: 50_000,
            recv_us: 70_000,
        };
        // midpoint 60_000 − 61_000 = −1_000.
        assert_eq!(clock_offset_us(&s), -1_000);
    }

    #[test]
    fn segment_table_covers_every_kind_with_stable_shape() {
        let (client, proxy, origin) = true_flow();
        let nodes = vec![
            NodeTrace::from_scrape("client", &scrape(&client, 0, 100_000)).unwrap(),
            NodeTrace::from_scrape("proxy-2", &scrape(&proxy, 0, 100_000)).unwrap(),
            NodeTrace::from_scrape("origin", &scrape(&origin, 0, 100_000)).unwrap(),
        ];
        let merged = merge_node_traces(&nodes);
        assert_eq!(merged.segments.len(), SegmentKind::COUNT);
        let wait = &merged.segments[0];
        assert_eq!(wait.kind, SegmentKind::ClientWait);
        assert_eq!(wait.count, 1);
        assert_eq!(wait.total_us, 8000);
        let table = merged.segment_table();
        for kind in SegmentKind::ALL {
            assert!(table.contains(kind.name()), "table missing {kind:?}");
        }
    }

    #[test]
    fn orphan_spans_survive_as_roots() {
        // A span whose parent was dropped from a full ring merges as a
        // root rather than disappearing.
        let orphan = vec![span(9, 500, 12345, 1, SegmentKind::ReplyReturn, 50, 10)];
        let nodes = vec![NodeTrace::from_scrape("proxy-1", &scrape(&orphan, 0, 100)).unwrap()];
        let merged = merge_node_traces(&nodes);
        assert_eq!(merged.lanes.len(), 1);
        assert_eq!(merged.lanes[0].spans.len(), 1);
        assert_eq!(merged.cross_node_traces, 0);
        validate_json(&merged.to_chrome_trace()).unwrap();
    }
}
