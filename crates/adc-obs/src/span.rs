//! Causal flow spans: per-flow latency attribution from the event
//! stream.
//!
//! [`SpanProbe`] is a [`Probe`] that reconstructs every flow's hop chain
//! from the typed [`SimEvent`] stream and splits the flow's end-to-end
//! resolution latency into labelled simulated-time segments: the
//! client→first-proxy wait, each inter-proxy forward hop, the wasted hop
//! a loop detection ends, the origin round-trip, and the reply's return
//! leg. A critical-path aggregator folds the segments into per-proxy and
//! per-segment breakdown tables plus a top-K slowest-flows digest
//! ([`SpanReport`]).
//!
//! # Exactness
//!
//! Segment attribution telescopes by construction: a flow's segments are
//! the deltas between consecutive timestamps at which the recorder
//! touched that flow, starting at its injection tick and ending at its
//! completion tick. Whatever labels the deltas get, their sum is exactly
//! `completed_at - start_us` — the flow's end-to-end resolution latency.
//! The recorder additionally self-checks this per flow and counts any
//! violation in [`SpanReport::sum_check_failures`] (a property test pins
//! the counter at zero, fault injection included).
//!
//! # Cost
//!
//! The recorder is allocation-free on its steady-state path: per-flow
//! state lives in pooled fixed-size slots recycled through a free list,
//! and segment durations fold directly into the aggregation tables as
//! they close (no per-flow segment vectors). Only first-touch map nodes
//! (a new object id, a new proxy id, a slot-pool high-water mark)
//! allocate. Like every enabled probe it is opt-in: [`NullProbe`]
//! ([`Probe::ENABLED`]` = false`) keeps unobserved runs byte-identical.
//!
//! [`NullProbe`]: crate::NullProbe

// The recorder IS the probe: every counter in this file is mutated
// inside (or on behalf of) its own `Probe::emit` dispatch, and the
// per-flow sum self-check plus the prop_spans suite reconcile the
// aggregates.

use crate::event::SimEvent;
use crate::probe::Probe;
use std::collections::BTreeMap;
use std::fmt;

/// A labelled slice of one flow's resolution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SegmentKind {
    /// Injection → arrival at the first-hop proxy.
    ClientWait = 0,
    /// One inter-proxy forward (learned or random) → next proxy.
    ForwardHop,
    /// The wasted hop that ended in a loop detection.
    LoopPenalty,
    /// Give-up (loop/hop-limit/THIS-miss) → origin → reply at client.
    OriginFetch,
    /// Local hit → reply back at the client.
    ReplyReturn,
}

impl SegmentKind {
    /// Every segment kind, in discriminant order.
    pub const ALL: [SegmentKind; 5] = [
        SegmentKind::ClientWait,
        SegmentKind::ForwardHop,
        SegmentKind::LoopPenalty,
        SegmentKind::OriginFetch,
        SegmentKind::ReplyReturn,
    ];

    /// Number of kinds (length of [`SegmentKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name, the one spelling every exporter, bench
    /// table and the live-cluster span recorder use.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::ClientWait => "client_wait",
            SegmentKind::ForwardHop => "forward_hop",
            SegmentKind::LoopPenalty => "loop_penalty",
            SegmentKind::OriginFetch => "origin_fetch",
            SegmentKind::ReplyReturn => "reply_return",
        }
    }

    /// Inverse of [`SegmentKind::name`], used when parsing exported
    /// spans back (e.g. the cross-node trace merger).
    pub fn from_name(name: &str) -> Option<SegmentKind> {
        SegmentKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Attribution target for a segment that has opened but not yet closed.
/// `ClientWait` has no proxy until the request lands somewhere, so the
/// closing event supplies the proxy in that one case.
const NO_PROXY: u32 = u32::MAX;

/// Pooled per-flow state: one fixed-size slot per in-flight flow. The
/// flow's identity lives in the probe's lookup maps, not the slot.
#[derive(Debug, Clone, Copy)]
struct FlowSpan {
    start_us: u64,
    /// Timestamp at which the currently-open segment started.
    last_us: u64,
    /// Label the next closed delta will carry.
    pending: SegmentKind,
    /// Proxy the next closed delta is attributed to (`NO_PROXY` until
    /// the first hop lands).
    pending_proxy: u32,
    /// Per-segment microseconds accumulated by this flow so far.
    seg_us: [u64; SegmentKind::COUNT],
    live: bool,
}

impl FlowSpan {
    fn total_attributed(&self) -> u64 {
        self.seg_us.iter().sum()
    }
}

/// One row of the per-proxy breakdown table: simulated microseconds this
/// proxy contributed to flows, split by segment kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxySpans {
    /// The proxy the time is attributed to.
    pub proxy: u32,
    /// Microseconds per [`SegmentKind`] (indexed by discriminant).
    pub seg_us: [u64; SegmentKind::COUNT],
}

impl ProxySpans {
    /// Total microseconds attributed to this proxy across all segments.
    pub fn total_us(&self) -> u64 {
        self.seg_us.iter().sum()
    }
}

/// One aggregate row of the per-segment breakdown table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStat {
    /// The segment this row aggregates.
    pub kind: SegmentKind,
    /// Total simulated microseconds attributed to this segment.
    pub total_us: u64,
    /// Closed deltas that carried this label.
    pub count: u64,
}

/// One entry of the top-K slowest-flows digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowFlow {
    /// End-to-end resolution latency, microseconds.
    pub total_us: u64,
    /// Issuing client.
    pub client: u32,
    /// The client's request counter.
    pub seq: u64,
    /// Requested object.
    pub object: u64,
    /// Simulated injection time, microseconds.
    pub start_us: u64,
    /// Hops the flow took (from the completion event).
    pub hops: u32,
    /// Whether some proxy cache served it.
    pub hit: bool,
    /// The flow's own per-segment split, microseconds.
    pub seg_us: [u64; SegmentKind::COUNT],
}

/// The aggregated output of a [`SpanProbe`]: per-segment and per-proxy
/// latency breakdown tables plus the slowest-flows digest.
///
/// Everything in here is **simulated** time derived from the event
/// stream, so same-seed runs produce identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanReport {
    /// Flows closed by a completion event.
    pub flows: u64,
    /// Flows still open when the recorder was drained (none in a run
    /// that fully resolves its workload).
    pub flows_unclosed: u64,
    /// Completion events with no matching open flow (recorder attached
    /// mid-run, or a duplicated completion).
    pub unmatched_completions: u64,
    /// Flows whose segment sum disagreed with `completed - start_us`
    /// (always zero; pinned by a property test).
    pub sum_check_failures: u64,
    /// Sum of all closed flows' end-to-end latencies, microseconds.
    pub total_us: u64,
    /// Sum of every closed segment delta, microseconds. Equals
    /// [`total_us`](Self::total_us) when every flow closed cleanly.
    pub attributed_us: u64,
    /// Per-segment aggregate rows, in [`SegmentKind::ALL`] order.
    pub segments: Vec<SegmentStat>,
    /// Per-proxy rows, ascending by proxy id.
    pub per_proxy: Vec<ProxySpans>,
    /// The K slowest flows, slowest first (ties broken by client, seq).
    pub slowest: Vec<SlowFlow>,
}

impl SpanReport {
    /// Fraction of attributed time spent in `kind` (0 when nothing was
    /// attributed).
    pub fn fraction(&self, kind: SegmentKind) -> f64 {
        if self.attributed_us == 0 {
            return 0.0;
        }
        let total = self
            .segments
            .iter()
            .find(|s| s.kind == kind)
            .map_or(0, |s| s.total_us);
        total as f64 / self.attributed_us as f64
    }

    /// One-line human summary for run footers.
    pub fn summary(&self) -> String {
        let mut parts = String::new();
        for stat in &self.segments {
            if stat.total_us == 0 {
                continue;
            }
            if !parts.is_empty() {
                parts.push_str(", ");
            }
            let _ = fmt::Write::write_fmt(
                &mut parts,
                format_args!(
                    "{}={:.1}%",
                    stat.kind.name(),
                    100.0 * self.fraction(stat.kind)
                ),
            );
        }
        format!(
            "spans: {} flows, {} us attributed ({parts})",
            self.flows, self.attributed_us
        )
    }

    /// Renders the report as a standalone JSON object (hand-rolled like
    /// the other exporters). The output round-trips through
    /// [`validate_json`](crate::validate_json).
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"flows\": {},", self.flows);
        let _ = writeln!(out, "  \"flows_unclosed\": {},", self.flows_unclosed);
        let _ = writeln!(
            out,
            "  \"unmatched_completions\": {},",
            self.unmatched_completions
        );
        let _ = writeln!(
            out,
            "  \"sum_check_failures\": {},",
            self.sum_check_failures
        );
        let _ = writeln!(out, "  \"total_us\": {},", self.total_us);
        let _ = writeln!(out, "  \"attributed_us\": {},", self.attributed_us);
        out.push_str("  \"segments\": {\n");
        for (i, stat) in self.segments.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"total_us\": {}, \"count\": {} }}{}",
                stat.kind.name(),
                stat.total_us,
                stat.count,
                if i + 1 == self.segments.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  },\n  \"per_proxy\": {\n");
        for (i, row) in self.per_proxy.iter().enumerate() {
            let _ = write!(out, "    \"{}\": {{ ", row.proxy);
            for kind in SegmentKind::ALL {
                let _ = write!(out, "\"{}\": {}, ", kind.name(), row.seg_us[kind as usize]);
            }
            let _ = writeln!(
                out,
                "\"total_us\": {} }}{}",
                row.total_us(),
                if i + 1 == self.per_proxy.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  },\n  \"slowest\": {\n");
        for (i, flow) in self.slowest.iter().enumerate() {
            let _ = write!(
                out,
                "    \"{i}\": {{ \"total_us\": {}, \"client\": {}, \"seq\": {}, \
                 \"object\": {}, \"start_us\": {}, \"hops\": {}, \"hit\": {}, ",
                flow.total_us,
                flow.client,
                flow.seq,
                flow.object,
                flow.start_us,
                flow.hops,
                flow.hit
            );
            for (k, &kind) in SegmentKind::ALL.iter().enumerate() {
                let _ = write!(
                    out,
                    "\"{}\": {}{}",
                    kind.name(),
                    flow.seg_us[kind as usize],
                    if k + 1 == SegmentKind::COUNT {
                        ""
                    } else {
                        ", "
                    }
                );
            }
            let _ = writeln!(
                out,
                " }}{}",
                if i + 1 == self.slowest.len() { "" } else { "," }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Default size of the slowest-flows digest.
pub const DEFAULT_TOP_K: usize = 10;

/// The flow-span recorder: a [`Probe`] that attributes every simulated
/// microsecond of every flow to a [`SegmentKind`] and a proxy.
///
/// See the [module docs](self) for the reconstruction and exactness
/// model.
#[derive(Debug, Clone)]
pub struct SpanProbe {
    now_us: u64,
    /// Pooled flow slots; `free` holds recycled indices.
    slots: Vec<FlowSpan>,
    free: Vec<usize>,
    /// Open flows by identity, for completion lookup.
    open: BTreeMap<(u32, u64), usize>,
    /// Open flows by object, oldest first, for proxy-event attribution
    /// (proxy events carry the object, not the flow identity).
    by_object: BTreeMap<u64, Vec<usize>>,
    /// Aggregation tables (totals, counts) per segment.
    seg_total_us: [u64; SegmentKind::COUNT],
    seg_count: [u64; SegmentKind::COUNT],
    per_proxy: BTreeMap<u32, [u64; SegmentKind::COUNT]>,
    /// Min-heap-by-scan of the K slowest flows (K is small).
    slowest: Vec<SlowFlow>,
    top_k: usize,
    flows: u64,
    unmatched_completions: u64,
    sum_check_failures: u64,
    total_us: u64,
    attributed_us: u64,
}

impl Default for SpanProbe {
    fn default() -> Self {
        SpanProbe::new()
    }
}

impl SpanProbe {
    /// Creates a recorder with the default top-K digest size.
    pub fn new() -> Self {
        SpanProbe::with_top_k(DEFAULT_TOP_K)
    }

    /// Creates a recorder keeping the `top_k` slowest flows.
    pub fn with_top_k(top_k: usize) -> Self {
        SpanProbe {
            now_us: 0,
            slots: Vec::new(),
            free: Vec::new(),
            open: BTreeMap::new(),
            by_object: BTreeMap::new(),
            seg_total_us: [0; SegmentKind::COUNT],
            seg_count: [0; SegmentKind::COUNT],
            per_proxy: BTreeMap::new(),
            slowest: Vec::with_capacity(top_k),
            top_k,
            flows: 0,
            unmatched_completions: 0,
            sum_check_failures: 0,
            total_us: 0,
            attributed_us: 0,
        }
    }

    /// Flows currently open (injected, not yet completed).
    pub fn open_flows(&self) -> usize {
        self.open.len()
    }

    fn alloc_slot(&mut self, span: FlowSpan) -> usize {
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = span;
            idx
        } else {
            self.slots.push(span);
            self.slots.len() - 1
        }
    }

    /// Closes the open delta of slot `idx` at `now`, attributing it to
    /// the slot's pending label. `proxy_hint` supplies the attribution
    /// target when the pending segment opened without one (client wait).
    fn close_delta(&mut self, idx: usize, now: u64, proxy_hint: u32, relabel: Option<SegmentKind>) {
        // idx comes from `open`/`by_object`, which only hold live slots.
        let slot = &mut self.slots[idx];
        let delta = now.saturating_sub(slot.last_us);
        let kind = relabel.unwrap_or(slot.pending);
        let proxy = if slot.pending_proxy == NO_PROXY {
            proxy_hint
        } else {
            slot.pending_proxy
        };
        slot.last_us = now;
        slot.seg_us[kind as usize] += delta;
        self.seg_total_us[kind as usize] += delta;
        self.seg_count[kind as usize] += 1;
        self.attributed_us += delta;
        if proxy != NO_PROXY {
            self.per_proxy
                .entry(proxy)
                .or_insert([0; SegmentKind::COUNT])[kind as usize] += delta;
        }
    }

    /// The oldest open flow for `object`, if any.
    fn flow_for_object(&self, object: u64) -> Option<usize> {
        self.by_object
            .get(&object)
            .and_then(|flows| flows.first().copied())
    }

    fn on_proxy_step(
        &mut self,
        object: u64,
        proxy: u32,
        next: SegmentKind,
        relabel: Option<SegmentKind>,
    ) {
        let Some(idx) = self.flow_for_object(object) else {
            return; // stray event (duplicate delivery past completion)
        };
        self.close_delta(idx, self.now_us, proxy, relabel);
        let slot = &mut self.slots[idx];
        slot.pending = next;
        slot.pending_proxy = proxy;
    }

    fn push_slowest(&mut self, flow: SlowFlow) {
        if self.top_k == 0 {
            return;
        }
        if self.slowest.len() < self.top_k {
            self.slowest.push(flow);
            return;
        }
        // K is small (default 10): a linear scan for the current minimum
        // beats heap bookkeeping and keeps replacement deterministic.
        let mut min_at = 0;
        for (i, f) in self.slowest.iter().enumerate() {
            let min = &self.slowest[min_at];
            if (f.total_us, f.client, f.seq) < (min.total_us, min.client, min.seq) {
                min_at = i;
            }
        }
        let min = &self.slowest[min_at];
        if (flow.total_us, flow.client, flow.seq) > (min.total_us, min.client, min.seq) {
            self.slowest[min_at] = flow;
        }
    }

    /// Drains the recorder into its aggregated [`SpanReport`].
    pub fn into_report(mut self) -> SpanReport {
        let flows_unclosed = self.open.len() as u64;
        let segments = SegmentKind::ALL
            .iter()
            .map(|&kind| SegmentStat {
                kind,
                total_us: self.seg_total_us[kind as usize],
                count: self.seg_count[kind as usize],
            })
            .collect();
        let per_proxy = self
            .per_proxy
            .iter()
            .map(|(&proxy, &seg_us)| ProxySpans { proxy, seg_us })
            .collect();
        self.slowest
            .sort_by_key(|f| std::cmp::Reverse((f.total_us, f.client, f.seq)));
        SpanReport {
            flows: self.flows,
            flows_unclosed,
            unmatched_completions: self.unmatched_completions,
            sum_check_failures: self.sum_check_failures,
            total_us: self.total_us,
            attributed_us: self.attributed_us,
            segments,
            per_proxy,
            slowest: self.slowest,
        }
    }
}

impl Probe for SpanProbe {
    const ENABLED: bool = true;

    #[inline]
    fn tick(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    fn emit(&mut self, event: SimEvent) {
        match event {
            SimEvent::RequestInjected {
                client,
                seq,
                object,
            } => {
                let idx = self.alloc_slot(FlowSpan {
                    start_us: self.now_us,
                    last_us: self.now_us,
                    pending: SegmentKind::ClientWait,
                    pending_proxy: NO_PROXY,
                    seg_us: [0; SegmentKind::COUNT],
                    live: true,
                });
                self.open.insert((client, seq), idx);
                self.by_object.entry(object).or_default().push(idx);
            }
            // Request-path steps: the closing event tells us what the
            // *next* segment is; the incoming delta keeps the label the
            // previous step opened (except the loop relabel).
            SimEvent::ForwardLearned { proxy, object, .. }
            | SimEvent::ForwardRandom { proxy, object, .. } => {
                self.on_proxy_step(object, proxy, SegmentKind::ForwardHop, None);
            }
            SimEvent::LoopDetected { proxy, object } => {
                // The hop that came back to a visited proxy was wasted;
                // the proxy gives up and goes to the origin.
                self.on_proxy_step(
                    object,
                    proxy,
                    SegmentKind::OriginFetch,
                    Some(SegmentKind::LoopPenalty),
                );
            }
            SimEvent::HopLimitHit { proxy, object, .. }
            | SimEvent::OriginThisMiss { proxy, object } => {
                self.on_proxy_step(object, proxy, SegmentKind::OriginFetch, None);
            }
            SimEvent::LocalHit { proxy, object } => {
                self.on_proxy_step(object, proxy, SegmentKind::ReplyReturn, None);
            }
            SimEvent::RequestCompleted {
                client,
                seq,
                object,
                server,
                hops,
                start_us,
            } => {
                let Some(idx) = self.open.remove(&(client, seq)) else {
                    self.unmatched_completions += 1;
                    return;
                };
                self.close_delta(idx, self.now_us, NO_PROXY, None);
                let slot = self.slots[idx];
                // Detach from the object queue (swap-free removal keeps
                // oldest-first order for the survivors).
                if let Some(flows) = self.by_object.get_mut(&object) {
                    flows.retain(|&i| i != idx);
                    if flows.is_empty() {
                        self.by_object.remove(&object);
                    }
                }
                self.slots[idx].live = false;
                self.free.push(idx);
                let total = self.now_us.saturating_sub(start_us);
                self.flows += 1;
                self.total_us += total;
                if slot.start_us != start_us || slot.total_attributed() != total {
                    self.sum_check_failures += 1;
                }
                self.push_slowest(SlowFlow {
                    total_us: total,
                    client,
                    seq,
                    object,
                    start_us,
                    hops,
                    hit: server.is_some(),
                    seg_us: slot.seg_us,
                });
            }
            // Reply-path bookkeeping events and restarts carry no flow
            // identity and happen at timestamps already covered by the
            // surrounding segments; they never close deltas.
            SimEvent::BackwardAdoption { .. }
            | SimEvent::TableMigration { .. }
            | SimEvent::CacheInsert { .. }
            | SimEvent::CacheEvict { .. }
            | SimEvent::ReplyOrphaned { .. }
            | SimEvent::ProxyRestarted { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    fn inject(p: &mut SpanProbe, at: u64, client: u32, seq: u64, object: u64) {
        p.tick(at);
        p.emit(SimEvent::RequestInjected {
            client,
            seq,
            object,
        });
    }

    fn complete(p: &mut SpanProbe, at: u64, client: u32, seq: u64, object: u64, start: u64) {
        p.tick(at);
        p.emit(SimEvent::RequestCompleted {
            client,
            seq,
            object,
            server: Some(0),
            hops: 2,
            start_us: start,
        });
    }

    #[test]
    fn local_hit_splits_into_wait_and_reply() {
        let mut p = SpanProbe::new();
        inject(&mut p, 100, 0, 0, 7);
        p.tick(130);
        p.emit(SimEvent::LocalHit {
            proxy: 2,
            object: 7,
        });
        complete(&mut p, 160, 0, 0, 7, 100);
        let r = p.into_report();
        assert_eq!(r.flows, 1);
        assert_eq!(r.sum_check_failures, 0);
        assert_eq!(r.total_us, 60);
        assert_eq!(r.attributed_us, 60);
        assert_eq!(r.segments[SegmentKind::ClientWait as usize].total_us, 30);
        assert_eq!(r.segments[SegmentKind::ReplyReturn as usize].total_us, 30);
        // Both deltas land on proxy 2: it received the request and it
        // served the reply.
        assert_eq!(
            r.per_proxy,
            vec![ProxySpans {
                proxy: 2,
                seg_us: [30, 0, 0, 0, 30]
            }]
        );
    }

    #[test]
    fn forward_chain_loop_and_origin_attribute_in_order() {
        let mut p = SpanProbe::new();
        inject(&mut p, 0, 1, 5, 42);
        p.tick(10); // arrival at proxy 0, forwards to 1
        p.emit(SimEvent::ForwardLearned {
            proxy: 0,
            object: 42,
            to: 1,
        });
        p.tick(25); // arrival at proxy 1, forwards to 0 again
        p.emit(SimEvent::ForwardRandom {
            proxy: 1,
            object: 42,
            to: 0,
        });
        p.tick(40); // back at proxy 0: loop detected, off to the origin
        p.emit(SimEvent::LoopDetected {
            proxy: 0,
            object: 42,
        });
        complete(&mut p, 100, 1, 5, 42, 0);
        let r = p.into_report();
        assert_eq!(r.sum_check_failures, 0);
        assert_eq!(r.attributed_us, 100);
        assert_eq!(r.segments[SegmentKind::ClientWait as usize].total_us, 10);
        assert_eq!(r.segments[SegmentKind::ForwardHop as usize].total_us, 15);
        assert_eq!(r.segments[SegmentKind::LoopPenalty as usize].total_us, 15);
        assert_eq!(r.segments[SegmentKind::OriginFetch as usize].total_us, 60);
        // client wait lands on proxy 0 (first hop), the forward on proxy
        // 0 (it sent the hop), the wasted hop on proxy 1 (it sent the
        // request back), the origin fetch on proxy 0 (it gave up).
        let by_proxy: Vec<(u32, u64)> = r
            .per_proxy
            .iter()
            .map(|row| (row.proxy, row.total_us()))
            .collect();
        assert_eq!(by_proxy, vec![(0, 85), (1, 15)]);
    }

    #[test]
    fn overlapping_flows_still_sum_exactly() {
        let mut p = SpanProbe::new();
        inject(&mut p, 0, 0, 0, 9);
        inject(&mut p, 5, 1, 0, 9); // same object, overlapping
        p.tick(12);
        p.emit(SimEvent::LocalHit {
            proxy: 3,
            object: 9,
        });
        p.tick(14);
        p.emit(SimEvent::LocalHit {
            proxy: 3,
            object: 9,
        });
        complete(&mut p, 20, 0, 0, 9, 0);
        complete(&mut p, 24, 1, 0, 9, 5);
        let r = p.into_report();
        assert_eq!(r.flows, 2);
        assert_eq!(r.sum_check_failures, 0);
        assert_eq!(r.total_us, 20 + 19);
        assert_eq!(r.attributed_us, r.total_us);
    }

    #[test]
    fn stray_events_and_unmatched_completions_are_counted_not_fatal() {
        let mut p = SpanProbe::new();
        p.tick(50);
        p.emit(SimEvent::LocalHit {
            proxy: 0,
            object: 1,
        }); // no open flow
        complete(&mut p, 60, 9, 9, 1, 10); // never injected
        let r = p.into_report();
        assert_eq!(r.flows, 0);
        assert_eq!(r.unmatched_completions, 1);
        assert_eq!(r.attributed_us, 0);
    }

    #[test]
    fn top_k_digest_keeps_the_slowest_sorted() {
        let mut p = SpanProbe::with_top_k(2);
        for i in 0..5u64 {
            inject(&mut p, i * 1000, 0, i, i);
            // Flow i takes (i+1)*10 us.
            complete(&mut p, i * 1000 + (i + 1) * 10, 0, i, i, i * 1000);
        }
        let r = p.into_report();
        assert_eq!(r.slowest.len(), 2);
        assert_eq!(r.slowest[0].total_us, 50);
        assert_eq!(r.slowest[1].total_us, 40);
        assert_eq!(r.slowest[0].seq, 4);
    }

    #[test]
    fn unclosed_flows_are_reported() {
        let mut p = SpanProbe::new();
        inject(&mut p, 0, 0, 0, 1);
        let r = p.into_report();
        assert_eq!(r.flows, 0);
        assert_eq!(r.flows_unclosed, 1);
    }

    #[test]
    fn slot_pool_recycles() {
        let mut p = SpanProbe::new();
        for i in 0..100u64 {
            inject(&mut p, i * 10, 0, i, 7);
            complete(&mut p, i * 10 + 5, 0, i, 7, i * 10);
        }
        assert_eq!(p.slots.len(), 1, "sequential flows reuse one slot");
        assert!(!p.slots[0].live);
        let r = p.into_report();
        assert_eq!(r.flows, 100);
        assert_eq!(r.sum_check_failures, 0);
    }

    #[test]
    fn report_json_is_valid_and_fractions_sum() {
        let mut p = SpanProbe::new();
        inject(&mut p, 0, 0, 0, 1);
        p.tick(10);
        p.emit(SimEvent::LocalHit {
            proxy: 0,
            object: 1,
        });
        complete(&mut p, 30, 0, 0, 1, 0);
        let r = p.into_report();
        validate_json(&r.to_json()).expect("span JSON must parse");
        let total: f64 = SegmentKind::ALL.iter().map(|&k| r.fraction(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.summary().contains("1 flows"));
    }
}
