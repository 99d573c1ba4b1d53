//! The simulation model both executors share.
//!
//! Everything that decides *what* a run computes is defined here, once:
//! the latency function, the event key and its tie rule, the agent RNG
//! layout, flow start, the delivery step, the completion fold, and report
//! assembly. The single-queue runner (`runner.rs`) and the sharded engine
//! (`sharded.rs`) only decide *when* each step runs — one global event
//! queue versus per-shard queues under a window barrier.
//!
//! # Tie rule
//!
//! Events pop in ascending `(at, key)` order. A delivery's key is
//! [`event_key`]`(flow_seq, step)` = `(flow_seq << 16) | step`: at equal
//! timestamps the older flow goes first, then the flow's earlier step. The
//! key is content-derived, not a push counter, so it holds at every shard
//! count. An open-loop arrival sorts after every delivery at the same
//! instant ([`ARRIVAL_KEY`]): completions settle before arrivals, the rule
//! `SimReport::peak_flows` counts by.
//!
//! # RNG layout
//!
//! Sequential injection draws every agent decision from one stream seeded
//! `seed ^ 0xA6E7` (at most one event is live, so draw order is event
//! order); only the runner executes it. Open loop gives each agent its
//! own stream, seeded `seed ^ 0xA6E7 ^ splitmix64(proxy + 1)`, so no
//! agent's draws depend on how flows interleave at other agents, and no
//! stream is shared across shards. Client assignment draws from
//! `seed ^ 0xA551` in arrival order in both modes.
//!
//! # The completion fold
//!
//! Both executors fold each completion through [`Ledger::complete`],
//! which reads no agent. Only the runner follows it with
//! [`Ledger::sample_agents`], the occupancy and convergence samples that
//! read agent state at the completion instant: the sharded engine runs
//! no configuration that samples, so its reports are the runner's byte
//! for byte. [`Ledger::start_flow`] and [`Ledger::complete`] hand the
//! flow events to a probe, each completion naming its server.

// Hot path (`HOT_PATH_FILES` in the root `tests/lint_ratchet.rs`, which
// checks this header): every lossy cast and every index states its
// bound in an `#[expect]` reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::indexing_slicing
    )
)]

use crate::config::{ClientAssignment, InjectionMode, SimConfig};
use crate::network::LatencyModel;
use crate::report::{PhaseStats, SimReport};
use crate::time::SimTime;
use adc_core::{
    Action, ActionSink, CacheAgent, Message, NodeId, ObjectId, ProxyId, Reply, Request, RequestId,
    ServedFrom,
};
use adc_metrics::{MovingAverage, P2Quantile, Sampler, Summary};
use adc_obs::{ConvergenceConfig, ConvergenceTracker, Probe, SimEvent};
use adc_workload::{Phase, RequestRecord};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock time feeds report telemetry only, never simulation state"
)]
use std::time::Instant;

/// Bits of the event key reserved for the per-flow step counter.
const STEP_BITS: u32 = 16;

/// Keys from here up never come from [`event_key`] (flow seqs stay below
/// `2^47`). They go to deliveries outside any live flow: the runner's
/// fault duplicates, and whatever a delivery sends after its flow has
/// already completed. A counter hands them out, so they never collide.
pub(crate) const STRAY_KEYS: u64 = 1 << 63;

/// The key of an open-loop arrival: after every delivery at its instant.
pub(crate) const ARRIVAL_KEY: u64 = u64::MAX;

/// Hands out the next stray key, counting in `strays`.
fn next_stray(strays: &mut u64) -> u64 {
    *strays += 1;
    STRAY_KEYS + *strays
}

/// The queue key of a flow's `step`-th event (see the module docs).
pub(crate) fn event_key(flow_seq: u64, step: u32) -> u64 {
    debug_assert!(
        flow_seq < STRAY_KEYS >> STEP_BITS,
        "workload seq {flow_seq} overflows the event key"
    );
    debug_assert!(
        u64::from(step) < 1 << STEP_BITS,
        "flow step overflows the event key"
    );
    (flow_seq << STEP_BITS) | u64::from(step)
}

/// The latency function: the class model, the proxy↔proxy matrix
/// override, and the origin's service time.
#[derive(Debug)]
pub(crate) struct Net {
    base: LatencyModel,
    matrix: Option<Vec<Vec<SimTime>>>,
}

impl Net {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Net {
            base: config.latency,
            matrix: config.proxy_latency_matrix.clone(),
        }
    }

    /// One-way wire latency from `from` to `to`.
    fn latency(&self, from: NodeId, to: NodeId) -> SimTime {
        if let (Some(m), NodeId::Proxy(a), NodeId::Proxy(b)) = (&self.matrix, from, to) {
            if a != b {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the matrix is n×n over dense proxy ids (checked in new())"
                )]
                return m[a.raw() as usize][b.raw() as usize];
            }
        }
        self.base.latency(from, to)
    }

    /// When a message `from` sends to `to` at `now` is delivered. The
    /// origin's service time is charged up front, so its reply goes out
    /// at arrival + service + wire time.
    fn deliver_at(&self, now: SimTime, from: NodeId, to: NodeId) -> u64 {
        let mut at = now + self.latency(from, to);
        if to == NodeId::Origin {
            at += self.base.origin_service;
        }
        at.as_micros()
    }
}

/// One in-flight delivery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) message: Message,
}

/// Per-flow bookkeeping from injection to completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flow {
    start: SimTime,
    hops: u32,
    /// Events this flow has sent so far: the tie-breaking half of the
    /// event key. Bounded by hop limits far below `2^16`.
    step: u32,
    size: u32,
    phase: Phase,
}

/// A new flow's bookkeeping and first delivery, for the executor to file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Start {
    pub(crate) id: RequestId,
    /// The first-hop proxy the client was assigned.
    pub(crate) proxy: ProxyId,
    pub(crate) flow: Flow,
    pub(crate) at: u64,
    pub(crate) key: u64,
    pub(crate) event: Event,
}

/// A completed flow, handed from the delivery step to the fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    pub(crate) at: u64,
    pub(crate) id: RequestId,
    object: ObjectId,
    /// The proxy whose cache served the reply (`None` = the origin),
    /// from its `served_from`; a hit is `server.is_some()`.
    server: Option<u32>,
    hops: u32,
    start_us: u64,
    phase: Phase,
}

/// Delivery counters. Every field is a pure event count, so summing is
/// the exact merge across shards.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    pub(crate) messages_delivered: u64,
    bytes_from_origin: u64,
    bytes_from_caches: u64,
    client_orphans: u64,
    orphan_origin_requests: u64,
}

impl Counters {
    /// Element-wise sum.
    pub(crate) fn merge(&mut self, other: &Counters) {
        self.messages_delivered += other.messages_delivered;
        self.bytes_from_origin += other.bytes_from_origin;
        self.bytes_from_caches += other.bytes_from_caches;
        self.client_orphans += other.client_orphans;
        self.orphan_origin_requests += other.orphan_origin_requests;
    }
}

/// SplitMix64: decorrelates per-agent seeds derived from (seed, proxy).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The agent RNG layout of one executor unit (see the module docs).
#[derive(Debug)]
enum AgentRngs {
    /// Sequential: every agent draws from the one stream.
    Shared(StdRng),
    /// Open loop: one stream per agent, in local-index order.
    PerAgent(Vec<StdRng>),
}

impl AgentRngs {
    /// The layout for the agents with global ids `proxies`, in local
    /// order.
    fn new(config: &SimConfig, proxies: impl Iterator<Item = usize>) -> Self {
        let seed = config.seed ^ 0xA6E7;
        match config.injection {
            InjectionMode::Sequential => AgentRngs::Shared(StdRng::seed_from_u64(seed)),
            InjectionMode::OpenLoop { .. } => AgentRngs::PerAgent(
                proxies
                    // Dense proxy ids fit u64.
                    .map(|p| StdRng::seed_from_u64(seed ^ splitmix64(p as u64 + 1)))
                    .collect(),
            ),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "one stream per local agent, built alongside the agents"
    )]
    fn stream(&mut self, local: usize) -> &mut dyn RngCore {
        match self {
            AgentRngs::Shared(r) => r,
            AgentRngs::PerAgent(v) => &mut v[local],
        }
    }
}

/// The delivery side of one executor unit — the runner's whole cluster,
/// or one shard's slice of it: the agents, their RNG streams, the action
/// sink, and the delivery counters.
pub(crate) struct Proxies<A> {
    /// Agents in local order: local index `l` holds proxy `first + l·stride`.
    pub(crate) agents: Vec<A>,
    /// Distance between consecutive local proxy ids (the shard count).
    stride: usize,
    rngs: AgentRngs,
    sink: ActionSink,
    pub(crate) counters: Counters,
    /// Stray keys handed out so far (see [`STRAY_KEYS`]).
    strays: u64,
}

impl<A: CacheAgent> Proxies<A> {
    /// The unit holding `agents`, the proxies `first, first + stride, …`.
    pub(crate) fn new(config: &SimConfig, agents: Vec<A>, first: usize, stride: usize) -> Self {
        let rngs = AgentRngs::new(config, (first..).step_by(stride).take(agents.len()));
        Proxies {
            agents,
            stride,
            rngs,
            sink: ActionSink::new(),
            counters: Counters::default(),
            strays: 0,
        }
    }

    /// A fresh key from the stray range.
    pub(crate) fn stray_key(&mut self) -> u64 {
        next_stray(&mut self.strays)
    }

    /// Delivers `ev` at `at`: counts it, charges its bytes and hop to
    /// `flow`, dispatches it to the proxy, origin or client it is
    /// addressed to, and hands each resulting send to `send` as
    /// `(delivery time, key, event, flow after the send)`. `flow` is the
    /// delivery's live flow, `None` for a stray (only fault duplicates
    /// outlive their flow). Returns the completion when this delivery
    /// brings the flow's reply to its client.
    pub(crate) fn deliver<P: Probe>(
        &mut self,
        net: &Net,
        at: u64,
        ev: Event,
        mut flow: Option<&mut Flow>,
        probe: &mut P,
        mut send: impl FnMut(u64, u64, Event, Option<Flow>),
    ) -> Option<Completion> {
        if P::ENABLED {
            probe.tick(at);
        }
        self.counters.messages_delivered += 1;
        let Event { from, to, message } = ev;
        let id = message.request_id();
        // A hop is any message transfer between distinct nodes, counted
        // for the flow it belongs to; a reply's body travels once per
        // transfer, attributed to its producer.
        if from != to {
            if let Some(f) = flow.as_deref_mut() {
                f.hops += 1;
            }
            if let Message::Reply(rep) = &message {
                if from == NodeId::Origin {
                    self.counters.bytes_from_origin += u64::from(rep.size);
                } else if rep.served_from.is_hit() && matches!(to, NodeId::Client(_)) {
                    self.counters.bytes_from_caches += u64::from(rep.size);
                }
            }
        }

        debug_assert!(self.sink.is_empty(), "sink drained after every delivery");
        match (to, message) {
            (NodeId::Proxy(pid), message) => {
                // Round-robin partitioning: local index = proxy / stride.
                let local = pid.raw() as usize / self.stride;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "proxies on this unit have local indexes below the agent count"
                )]
                let agent = &mut self.agents[local];
                match message {
                    Message::Request(req) => {
                        let rng = self.rngs.stream(local);
                        agent.on_request(req, rng, probe, &mut self.sink);
                    }
                    Message::Reply(rep) => agent.on_reply(rep, probe, &mut self.sink),
                }
                // The simulator tracks object ids only, so it drops the
                // store changes a payload-holding runtime would apply.
                drop(agent.drain_cache_events());
            }
            (NodeId::Origin, Message::Request(req)) => {
                // The origin always resolves; reply to the proxy that
                // sent the request. A stray request gets the nominal
                // size, and is counted rather than silently patched over.
                let size = match flow.as_deref() {
                    Some(f) => f.size,
                    None => {
                        self.counters.orphan_origin_requests += 1;
                        adc_core::DEFAULT_OBJECT_SIZE
                    }
                };
                self.sink.send(req.sender, Reply::from_origin(&req, size));
            }
            (NodeId::Client(_), Message::Reply(rep)) => {
                let Some(f) = flow else {
                    self.counters.client_orphans += 1;
                    return None;
                };
                return Some(Completion {
                    at,
                    id,
                    object: rep.object,
                    server: match rep.served_from {
                        ServedFrom::Cache(p) => Some(p.raw()),
                        ServedFrom::Origin => None,
                    },
                    hops: f.hops,
                    start_us: f.start.as_micros(),
                    phase: f.phase,
                });
            }
            (NodeId::Origin, Message::Reply(_)) => {
                debug_assert!(false, "origin never receives replies");
            }
            (NodeId::Client(_), Message::Request(_)) => {
                debug_assert!(false, "clients never receive requests");
            }
        }

        let now = SimTime::from_micros(at);
        for action in self.sink.drain() {
            let Action::Send {
                to: dest,
                mut message,
            } = action;
            let key = match flow.as_deref_mut() {
                Some(f) => {
                    // Agents only know a nominal object size; the
                    // workload's lives in the flow. Normalize replies so
                    // byte accounting and the client-visible size are
                    // the workload's.
                    if let Message::Reply(rep) = &mut message {
                        rep.size = f.size;
                    }
                    f.step += 1;
                    event_key(id.seq, f.step)
                }
                None => next_stray(&mut self.strays),
            };
            let ev = Event {
                from: to,
                to: dest,
                message,
            };
            send(
                net.deliver_at(now, to, dest),
                key,
                ev,
                flow.as_deref().copied(),
            );
        }
        None
    }
}

/// Live state for the periodic convergence sampler: injected-request
/// counts (to pick the hot set) plus the tracker folding snapshots into
/// series.
struct ConvState {
    cfg: ConvergenceConfig,
    /// Ordered map: the hot-set selection iterates it, and that order
    /// must not depend on a randomized hasher.
    counts: BTreeMap<u64, u64>,
    tracker: ConvergenceTracker,
}

/// The coordinator half of the model: starts flows, folds their
/// completions in completion order, and assembles the report.
pub(crate) struct Ledger {
    proxies: u32,
    assignment: ClientAssignment,
    assign_rng: StdRng,
    open_loop: bool,
    /// Flows started so far.
    injected: u64,
    completed: u64,
    hits: u64,
    phases: [PhaseStats; 3],
    hops: Summary,
    latency: Summary,
    latency_p50: P2Quantile,
    latency_p99: P2Quantile,
    hit_window: MovingAverage,
    hops_window: MovingAverage,
    hit_sampler: Sampler,
    hops_sampler: Sampler,
    /// Occupancy samplers are optional (sweeps never read them) and
    /// unnamed until the report is built, keeping string formatting off
    /// the hot path.
    occupancy: Option<Vec<Sampler>>,
    conv: Option<ConvState>,
    #[expect(clippy::disallowed_types, reason = "wall telemetry only")]
    wall_start: Instant,
    cpu_start: Duration,
}

impl Ledger {
    /// Starts the run's books (and its wall and CPU clocks).
    pub(crate) fn new(config: &SimConfig, proxies: usize) -> Self {
        Ledger {
            #[expect(clippy::cast_possible_truncation, reason = "proxy counts stay tiny")]
            proxies: proxies as u32,
            assignment: config.assignment,
            assign_rng: StdRng::seed_from_u64(config.seed ^ 0xA551),
            open_loop: config.injection != InjectionMode::Sequential,
            injected: 0,
            completed: 0,
            hits: 0,
            phases: [PhaseStats::default(); 3],
            hops: Summary::new(),
            latency: Summary::new(),
            latency_p50: P2Quantile::new(0.5),
            latency_p99: P2Quantile::new(0.99),
            hit_window: MovingAverage::new(config.hit_window),
            hops_window: MovingAverage::new(config.hit_window),
            hit_sampler: Sampler::new("hit_rate", config.sample_every),
            hops_sampler: Sampler::new("hops", config.sample_every),
            occupancy: config.sample_occupancy.then(|| {
                (0..proxies)
                    .map(|_| Sampler::new("", config.sample_every))
                    .collect()
            }),
            conv: config.convergence.map(|cfg| ConvState {
                cfg,
                counts: BTreeMap::new(),
                tracker: ConvergenceTracker::new(),
            }),
            #[expect(
                clippy::disallowed_methods,
                clippy::disallowed_types,
                reason = "wall telemetry only"
            )]
            wall_start: Instant::now(),
            cpu_start: crate::cputime::thread_cpu_now(),
        }
    }

    /// Flows completed so far.
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// Starts the flow for `record` at `now`: counts it, reports it to
    /// `probe`, assigns its first-hop proxy, and returns its bookkeeping
    /// and first delivery.
    pub(crate) fn start_flow<P: Probe>(
        &mut self,
        record: RequestRecord,
        now: SimTime,
        net: &Net,
        probe: &mut P,
    ) -> Start {
        self.injected += 1;
        if let Some(c) = self.conv.as_mut() {
            *c.counts.entry(record.object.raw()).or_insert(0) += 1;
        }
        if P::ENABLED {
            probe.emit(SimEvent::RequestInjected {
                client: record.client.raw(),
                seq: record.seq,
                object: record.object.raw(),
            });
        }
        let proxy = match self.assignment {
            ClientAssignment::Sticky => ProxyId::new(record.client.raw() % self.proxies),
            ClientAssignment::RandomPerRequest => {
                ProxyId::new(self.assign_rng.gen_range(0..self.proxies))
            }
        };
        let id = RequestId::new(record.client, record.seq);
        let from = NodeId::Client(record.client);
        let to = NodeId::Proxy(proxy);
        Start {
            id,
            proxy,
            flow: Flow {
                start: now,
                hops: 0,
                step: 0,
                size: record.size,
                phase: record.phase,
            },
            at: (now + net.latency(from, to)).as_micros(),
            key: event_key(record.seq, 0),
            event: Event {
                from,
                to,
                message: Message::Request(Request::new(id, record.object, record.client)),
            },
        }
    }

    /// Folds one completion: counts, phases, summaries, quantiles and
    /// moving-average series. Reports it to `probe`, ticked to the
    /// completion instant first.
    #[expect(clippy::indexing_slicing, reason = "phase is 0..3 by construction")]
    pub(crate) fn complete<P: Probe>(&mut self, c: &Completion, probe: &mut P) {
        let hit = c.server.is_some();
        self.completed += 1;
        self.hits += u64::from(hit);
        if P::ENABLED {
            probe.tick(c.at);
            probe.emit(SimEvent::RequestCompleted {
                client: c.id.client.raw(),
                seq: c.id.seq,
                object: c.object.raw(),
                server: c.server,
                hops: c.hops,
                start_us: c.start_us,
            });
        }
        let phase = match c.phase {
            Phase::Fill => 0,
            Phase::RequestI => 1,
            Phase::RequestII => 2,
        };
        self.phases[phase].requests += 1;
        self.phases[phase].hits += u64::from(hit);
        let hops = f64::from(c.hops);
        #[expect(clippy::cast_precision_loss, reason = "< 2^53: exact")]
        let completed = self.completed as f64;
        #[expect(clippy::cast_precision_loss, reason = "< 2^53: exact")]
        let latency_us = (c.at - c.start_us) as f64;
        self.hops.push(hops);
        self.latency.push(latency_us);
        self.latency_p50.push(latency_us);
        self.latency_p99.push(latency_us);
        self.hit_window.push_bool(hit);
        self.hops_window.push(hops);
        if let Some(v) = self.hit_window.value() {
            self.hit_sampler.observe(completed, v);
        }
        if let Some(v) = self.hops_window.value() {
            self.hops_sampler.observe(completed, v);
        }
    }

    /// Takes the occupancy and convergence samples due after the
    /// completion just folded, reading proxy `p`'s agent through
    /// `agent(p)`. A no-op when neither sampler is on.
    #[expect(
        clippy::cast_precision_loss,
        reason = "completion counts and cache sizes ≪ 2^53: exact"
    )]
    pub(crate) fn sample_agents<'a, A: CacheAgent + 'a>(&mut self, agent: impl Fn(usize) -> &'a A) {
        let completed = self.completed as f64;
        if let Some(occupancy) = self.occupancy.as_mut() {
            for (p, sampler) in occupancy.iter_mut().enumerate() {
                sampler.observe(completed, agent(p).cached_objects() as f64);
            }
        }
        // Convergence: snapshot every agent's owner hint for the hot set
        // on the sampling schedule.
        if let Some(conv) = self.conv.as_mut() {
            if self.completed.is_multiple_of(conv.cfg.sample_every) {
                let mut hot: Vec<(u64, u64)> = conv.counts.iter().map(|(&o, &n)| (o, n)).collect();
                hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                hot.truncate(conv.cfg.top_k);
                let snapshot: Vec<(u64, Vec<Option<u32>>)> = hot
                    .iter()
                    .map(|&(object, _)| {
                        let hints = (0..self.proxies)
                            .map(|p| {
                                // u32 → usize widens on 64-bit.
                                let agent = agent(p as usize);
                                agent.owner_hint(ObjectId::new(object)).map(|o| o.raw())
                            })
                            .collect();
                        (object, hints)
                    })
                    .collect();
                conv.tracker.sample(completed, &snapshot);
            }
        }
    }

    /// Assembles the report from the books, the agents in proxy-id order,
    /// the merged delivery counters, and the executor's live-flow peak.
    /// Executor-specific fields (faults, churn, tracing, shard telemetry)
    /// start empty for the caller to fill.
    pub(crate) fn into_report<A: CacheAgent>(
        self,
        agents: &[A],
        counters: Counters,
        peak_flows: usize,
    ) -> SimReport {
        // The single-queue runner pops one arrival event per open-loop
        // request plus the final exhausted pull; the sharded engine never
        // queues arrivals, so both count them here.
        let arrivals = if self.open_loop { self.injected + 1 } else { 0 };
        SimReport {
            completed: self.completed,
            hits: self.hits,
            phases: self.phases,
            hops: self.hops,
            latency_us: self.latency,
            latency_p50_us: self.latency_p50.value().unwrap_or(0.0),
            latency_p99_us: self.latency_p99.value().unwrap_or(0.0),
            hit_series: self.hit_sampler.into_series(),
            hops_series: self.hops_sampler.into_series(),
            per_proxy: agents.iter().map(|a| *a.stats()).collect(),
            final_cache_sizes: agents.iter().map(|a| a.cached_objects()).collect(),
            occupancy_series: self
                .occupancy
                .map(|samplers| {
                    samplers
                        .into_iter()
                        .enumerate()
                        .map(|(i, sampler)| {
                            let mut series = sampler.into_series();
                            series.name = format!("proxy{i}");
                            series
                        })
                        .collect()
                })
                .unwrap_or_default(),
            messages_delivered: counters.messages_delivered,
            events_processed: counters.messages_delivered + arrivals,
            peak_flows,
            duplicates_injected: 0,
            client_orphans: counters.client_orphans,
            orphan_origin_requests: counters.orphan_origin_requests,
            proxies_reset: 0,
            bytes_from_origin: counters.bytes_from_origin,
            bytes_from_caches: counters.bytes_from_caches,
            trace: None,
            convergence: self.conv.map(|c| c.tracker.into_report()),
            metrics: None,
            spans: None,
            shard_profile: None,
            wall_time: self.wall_start.elapsed(),
            cpu_time: crate::cputime::thread_cpu_now().saturating_sub(self.cpu_start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_older_flows_then_steps_then_strays_then_arrivals() {
        // Older flow first, whatever the step...
        assert!(event_key(7, 0xFFFF) < event_key(8, 0));
        // ...then the flow's earlier step.
        assert!(event_key(8, 1) < event_key(8, 2));
        // Strays sort after every flow key, arrivals after everything.
        let mut strays = 0;
        let stray = next_stray(&mut strays);
        assert!(event_key((STRAY_KEYS >> STEP_BITS) - 1, 0xFFFF) < stray);
        assert!(stray < next_stray(&mut strays));
        assert!(next_stray(&mut strays) < ARRIVAL_KEY);
    }
}
