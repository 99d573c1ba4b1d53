//! Sharded (multi-core) execution of the simulation.
//!
//! Proxies are partitioned round-robin across `N` worker shards (proxy
//! `p` lives on shard `p % N`). Each shard owns its own event queue and
//! agent RNG streams; every queued event carries its flow's bookkeeping,
//! so no shard keeps a flow table. The run proceeds in fixed time
//! windows of width `W` — the *lookahead bound*: the minimum
//! configured network latency over every edge that can carry a
//! cross-shard message (client→proxy plus the proxy↔proxy minimum;
//! origin round trips and client deliveries are processed on the sending
//! proxy's shard, so they never cross shards). Within a window
//! `[T, T + W)` every shard drains its local queue independently: any
//! message produced inside the window is either shard-local (arbitrary
//! latency, including zero-latency self-sends) or crosses shards with
//! latency `≥ W`, hence lands at or after the barrier `T + W`.
//! Cross-shard messages accumulate in per-destination outboxes and are
//! routed at the barrier.
//!
//! # Determinism
//!
//! What each event does is the shared model's (see the `model` module):
//! this file only schedules. Three properties of the model make the
//! schedule's shape invisible in the report:
//!
//! 1. **Content-derived event keys.** Every queued event carries the key
//!    `(flow seq << 16) | step`, unique per event and identical under any
//!    partitioning, so per-shard pop order and the barrier merge order
//!    are shard-count invariant — and equal to the single-queue runner's.
//! 2. **Canonical completion folding.** Workers only record completions;
//!    the coordinator folds them at each barrier in `(at, flow seq)`
//!    order through the model's fold (series, quantiles, convergence
//!    snapshots, metrics, sequential re-injection), exactly as the
//!    single-queue runner folds them one by one.
//! 3. **The model's RNG layout.** Sequential injection shares one agent
//!    stream across shards (behind an uncontended mutex: at most one
//!    event is live in the whole system); open-loop injection gives each
//!    agent its own stream seeded from `(seed, proxy id)`.
//!
//! So the report is byte-identical at every shard count and to
//! [`Simulation::run`], with one exception: in open-loop mode,
//! occupancy/convergence/metrics sampling reads agent state at the
//! enclosing barrier rather than at the completion instant (they coincide
//! in sequential mode). `events_processed` counts the arrival events the
//! single-queue runner pops, so the field reconciles across executors.
//!
//! # Synchronization layer
//!
//! Two mechanisms amortize the barrier cost; neither has a knob, and
//! neither moves a report byte:
//!
//! 1. **Persistent worker pool** ([`pool`](crate::pool) module): shard
//!    threads are spawned at most once per run — lazily, on the first
//!    window with more than one active shard — and windows are dispatched
//!    through one mutex-guarded barrier with a claim cursor, instead of
//!    spawning fresh OS threads every window. The pool has
//!    `min(cores, shards) - 1` workers, since the coordinator drains
//!    shards too; on a single-core host it has none and every window
//!    runs inline on the coordinator.
//! 2. **Adaptive window widening**: each shard maintains counts of its
//!    pending proxy-bound and origin-bound events, from which the
//!    coordinator derives a conservative lower bound on the earliest
//!    possible cross-shard *send* (proxy-bound work can send immediately;
//!    origin-bound work cannot reach a proxy again before the
//!    origin→proxy reply latency; client-bound deliveries never spawn
//!    anything). When the global minimum bound `S_min` lies beyond the
//!    next grid barrier, the window extends straight to the grid barrier
//!    after `S_min` — every cross-shard delivery still lands at
//!    `≥ S_min + W ≥` that barrier, so the lookahead argument is intact
//!    (full proof in DESIGN.md §6c). Widening changes *barrier
//!    placement*, which is observable only by barrier-driven state
//!    sampling (occupancy series, convergence snapshots, metrics
//!    probes) in open-loop mode — sequential windows hold at most one
//!    completion, so sequential folds see identical agent state — and is
//!    therefore off in exactly those runs.
//!
//! The coordinator folds each barrier's completions, gathered from the
//! shards into one reused buffer and sorted by `(at, flow_seq)`, before
//! it opens the next window.
//!
//! # Unsupported configurations
//!
//! Fault injection, churn and delivery tracing are rejected (see
//! [`Simulation::run_sharded`]): duplicates and restarts would need
//! cross-shard coordination mid-window (and a duplicate its original's
//! flow by request id, which only the runner's flow table keeps), and the
//! trace log is inherently a single totally-ordered stream.

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

use crate::config::{InjectionMode, SimConfig};
use crate::model::{
    sequential_stream, Completion, Counters, Event, Flow, Ledger, Net, Proxies, SharedRng,
};
use crate::pool::{self, WindowTask};
use crate::queue::CalendarQueue;
use crate::report::{ShardExecStats, ShardProfile, SimReport};
use crate::runner::Simulation;
use crate::time::SimTime;
use adc_core::{CacheAgent, NodeId, ProxyId};
use adc_metrics::{Log2Histogram, Registry};
use adc_obs::{MetricsProbe, NullProbe, Probe, ShardSlice};
use adc_workload::RequestRecord;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock time feeds report telemetry only, never simulation state"
)]
use std::time::Instant;

/// A delivery crossing shards, carried through a barrier outbox with
/// its flow's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Routed {
    at: u64,
    key: u64,
    ev: Event,
    flow: Option<Flow>,
}

/// Shard owning proxy `p` under round-robin partitioning.
fn shard_of(p: ProxyId, shards: usize) -> usize {
    // Dense proxy ids fit usize on every supported target.
    p.raw() as usize % shards
}

/// The conservative lookahead bound `W` in microseconds: the minimum
/// latency over the edges that can carry a message whose production and
/// delivery live on different shards (client→proxy for injections,
/// proxy↔proxy for forwards). Origin hops are shard-local and do not
/// constrain `W`.
fn lookahead_us(config: &SimConfig, proxies: usize) -> u64 {
    let mut w = config.latency.client_proxy.as_micros();
    if proxies > 1 {
        match &config.proxy_latency_matrix {
            Some(m) => {
                for (a, row) in m.iter().enumerate() {
                    for (b, cell) in row.iter().enumerate() {
                        if a != b {
                            w = w.min(cell.as_micros());
                        }
                    }
                }
            }
            None => w = w.min(config.latency.proxy_proxy.as_micros()),
        }
    }
    w
}

/// The probe features the sharded executor needs beyond [`Probe`]: one
/// probe per shard for the agent events plus one on the coordinator for
/// the flow events, occupancy sampling on the cluster-wide cadence, and
/// registry extraction for the exact merge.
trait ShardProbe: Probe + Send {
    /// A fresh probe, for a shard or for the coordinator.
    fn for_shard() -> Self;
    /// Whether the completion just reported to this probe brought the
    /// occupancy cadence due (asked of the coordinator's probe).
    fn sample_due(&self) -> bool;
    /// Samples the occupancy gauges this probe holds (each shard's, when
    /// the coordinator's cadence comes due).
    fn barrier_sample(&mut self);
    /// The accumulated registry (empty when the probe keeps none).
    fn into_registry(self) -> Registry;
}

impl ShardProbe for NullProbe {
    fn for_shard() -> Self {
        NullProbe
    }
    fn sample_due(&self) -> bool {
        false
    }
    fn barrier_sample(&mut self) {}
    fn into_registry(self) -> Registry {
        Registry::new()
    }
}

impl ShardProbe for MetricsProbe {
    fn for_shard() -> Self {
        // Shard probes see no completions, so only the coordinator's
        // cadence ever comes due; its own registry holds no gauges.
        MetricsProbe::new()
    }
    fn sample_due(&self) -> bool {
        self.cadence_due()
    }
    fn barrier_sample(&mut self) {
        self.sample_occupancy_now();
    }
    fn into_registry(self) -> Registry {
        self.into_registry()
    }
}

/// Per-shard half of the execution profiler
/// ([`ShardTuning::profile`](crate::ShardTuning::profile)): wall-clock
/// drain accounting, the window-occupancy histogram, and chrome-trace
/// drain slices. Boxed behind an `Option` so the unprofiled hot path
/// pays one null test per window and nothing per event.
struct ShardProfState {
    /// Shared zero point for chrome-trace lane offsets (the run's
    /// `wall_start`).
    #[expect(clippy::disallowed_types, reason = "profiler telemetry only")]
    run_start: Instant,
    /// Cumulative wall-clock drain time, nanoseconds.
    drain_ns: u64,
    /// Window drains executed (including empty drains).
    windows: u64,
    /// Events processed by this shard.
    events: u64,
    /// Events drained per window.
    occupancy: Log2Histogram,
    /// Drain slices for the chrome-trace shard lane (empty drains are
    /// skipped; they would render as zero-width noise).
    slices: Vec<ShardSlice>,
    /// Drain slices not recorded because the bound was reached.
    slices_dropped: u64,
}

impl ShardProfState {
    #[expect(clippy::disallowed_types, reason = "profiler telemetry only")]
    fn new(run_start: Instant) -> Self {
        ShardProfState {
            run_start,
            drain_ns: 0,
            windows: 0,
            events: 0,
            occupancy: Log2Histogram::new(),
            slices: Vec::new(),
            slices_dropped: 0,
        }
    }
}

/// Coordinator-side half of the execution profiler: the busy/wait split
/// of every pooled window, outbox depths at each barrier, and the
/// barrier timeline.
struct CoordProf {
    /// Coordinator claim-and-drain plus inline-window time, nanoseconds.
    busy_ns: u64,
    /// Time parked at the barrier waiting for workers, nanoseconds.
    wait_ns: u64,
    /// Cross-shard messages pending per (src, dst) outbox per barrier.
    outbox_depth: Log2Histogram,
    /// Barrier-wait slices for the coordinator chrome-trace lane.
    wait_slices: Vec<ShardSlice>,
    /// Wait slices not recorded because the bound was reached.
    slices_dropped: u64,
    /// Barrier completion offsets, microseconds since run start.
    barriers_us: Vec<u64>,
}

impl CoordProf {
    fn new() -> Self {
        CoordProf {
            busy_ns: 0,
            wait_ns: 0,
            outbox_depth: Log2Histogram::new(),
            wait_slices: Vec::new(),
            slices_dropped: 0,
            barriers_us: Vec::new(),
        }
    }
}

/// A shard's backlog: its queued events, each with its flow as of the
/// send, and the counts the widening bound reads.
struct Backlog {
    queue: CalendarQueue<(Event, Option<Flow>)>,
    /// Timestamp of the earliest pending event (`u64::MAX` when idle);
    /// exact between windows, maintained by `drain_events` and
    /// `enqueue`.
    next_at: u64,
    /// Pending events addressed to a proxy — work that could emit a
    /// cross-shard message the moment it is processed. Fuels the
    /// widening bound (see [`cross_send_bound`](Backlog::cross_send_bound)).
    pending_proxy: usize,
    /// Pending events addressed to the origin — work whose earliest
    /// cross-shard consequence is one origin→proxy reply latency away.
    pending_origin: usize,
}

impl Backlog {
    /// Queues `ev` with its flow at `(at, key)`, classifying the
    /// destination for the widening bound.
    fn enqueue(&mut self, at: u64, key: u64, ev: Event, flow: Option<Flow>) {
        match ev.to {
            NodeId::Proxy(_) => self.pending_proxy += 1,
            NodeId::Origin => self.pending_origin += 1,
            NodeId::Client(_) => {}
        }
        self.next_at = self.next_at.min(at);
        self.queue.push(at, key, (ev, flow));
    }

    /// Conservative lower bound on the earliest simulation time at which
    /// this shard could *send* a cross-shard message, given its current
    /// queue. `u64::MAX` means "never, until new work arrives": pending
    /// client deliveries complete flows and spawn nothing.
    ///
    /// Proxy-bound work can forward the instant it is processed, so the
    /// bound is this shard's earliest pending timestamp. Origin-bound
    /// work is strictly weaker: the origin replies only to its local
    /// proxy, so the earliest a proxy on this shard can act again — and
    /// hence send anything cross-shard — is one origin→proxy reply
    /// latency after the earliest pending event. Using `next_at` (≤ the
    /// earliest event of either class) keeps both branches conservative.
    fn cross_send_bound(&self, origin_reply_us: u64) -> u64 {
        if self.pending_proxy > 0 {
            self.next_at
        } else if self.pending_origin > 0 {
            self.next_at.saturating_add(origin_reply_us)
        } else {
            u64::MAX
        }
    }
}

/// One worker shard: a vertical slice of the simulator owning every
/// `index + i·N`-th proxy, its events, and its resident flows.
struct Shard<A, P> {
    index: usize,
    /// The shard count `N`.
    shards: usize,
    /// Local agents (local index `l` holds proxy `index + l·N`), their
    /// RNG streams, and the delivery counters.
    proxies: Proxies<A, SharedRng>,
    probe: P,
    backlog: Backlog,
    /// Completions recorded this window, drained by the coordinator.
    records: Vec<Completion>,
    /// Cross-shard deliveries produced this window, per destination
    /// shard, routed by the coordinator at the barrier.
    outboxes: Vec<Vec<Routed>>,
    /// The latency function, shared immutably with the coordinator and
    /// every sibling shard.
    net: Arc<Net>,
    /// Wall-clock drain profiler, present when
    /// [`ShardTuning::profile`](crate::ShardTuning::profile) is set.
    prof: Option<Box<ShardProfState>>,
}

impl<A: CacheAgent, P: ShardProbe> Shard<A, P> {
    /// Drains the window, measuring the drain on the wall clock when
    /// profiling is on. Called for both execution paths (pool workers
    /// via [`WindowTask`], the coordinator inline), so the profile
    /// attributes every drain to the shard that did it regardless of
    /// which thread ran it.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "profiler telemetry only"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "durations ≪ 2^64 ns (584 years): the casts are lossless"
    )]
    fn drain_window(&mut self, window_end: u64) {
        if self.prof.is_none() {
            self.drain_events(window_end);
            return;
        }
        let before = self.proxies.counters.messages_delivered;
        let t0 = Instant::now();
        self.drain_events(window_end);
        let dur = t0.elapsed();
        let drained = self.proxies.counters.messages_delivered - before;
        #[expect(clippy::cast_possible_truncation, reason = "shard counts stay tiny")]
        let lane = self.index as u32;
        if let Some(prof) = self.prof.as_mut() {
            // Wall-clock profiler accounting sits deliberately outside
            // the SimEvent stream; the occupancy-sum identity test
            // reconciles it.
            prof.drain_ns += dur.as_nanos() as u64;
            prof.windows += 1;
            prof.events += drained;
            prof.occupancy.record(drained);
            if drained > 0 {
                if prof.slices.len() < ShardProfile::MAX_SLICES {
                    prof.slices.push(ShardSlice {
                        lane,
                        start_us: t0.duration_since(prof.run_start).as_micros() as u64,
                        dur_us: dur.as_micros() as u64,
                        wait: false,
                    });
                } else {
                    // Trace cap hit; counted so the report says so.
                    prof.slices_dropped += 1;
                }
            }
        }
    }

    /// Drains every local event with `at < window_end`, in `(at, key)`
    /// order, then records the next pending timestamp.
    fn drain_events(&mut self, window_end: u64) {
        while let Some((next, _)) = self.backlog.queue.peek_key() {
            if next >= window_end {
                self.backlog.next_at = next;
                return;
            }
            let Some((at, _, (ev, flow))) = self.backlog.queue.pop() else {
                // peek_key just returned Some.
                unreachable!("peeked event vanished");
            };
            match ev.to {
                NodeId::Proxy(_) => self.backlog.pending_proxy -= 1,
                NodeId::Origin => self.backlog.pending_origin -= 1,
                NodeId::Client(_) => {}
            }
            self.process(at, ev, flow, window_end);
        }
        self.backlog.next_at = u64::MAX;
    }

    /// Processes one delivery through the model's delivery step, filing
    /// its sends locally or into a cross-shard outbox.
    fn process(&mut self, at: u64, ev: Event, mut flow: Option<Flow>, window_end: u64) {
        if let NodeId::Proxy(pid) = ev.to {
            debug_assert_eq!(
                shard_of(pid, self.shards),
                self.index,
                "event delivered to wrong shard"
            );
        }
        // The flow's bookkeeping rides with its message: each send queues
        // its own copy, locally or through an outbox, with whatever the
        // delivery changed.
        let (index, shards) = (self.index, self.shards);
        let (backlog, outboxes) = (&mut self.backlog, &mut self.outboxes);
        let done = self.proxies.deliver(
            &self.net,
            at,
            ev,
            flow.as_mut(),
            &mut self.probe,
            |out_at, key, ev, flow| match ev.to {
                NodeId::Proxy(p) if shard_of(p, shards) != index => {
                    // Conservative synchronization: a cross-shard message
                    // travels a proxy↔proxy edge with latency ≥ W, so it
                    // cannot land inside the current window — widened
                    // windows included, because `window_end` never
                    // exceeds the grid barrier after the global earliest
                    // cross-shard send bound (see `cross_send_bound`).
                    debug_assert!(
                        out_at >= window_end,
                        "lookahead violated: cross-shard delivery at {out_at} inside window \
                         ending {window_end}"
                    );
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "outboxes are sized to the shard count at startup"
                    )]
                    outboxes[shard_of(p, shards)].push(Routed {
                        at: out_at,
                        key,
                        ev,
                        flow,
                    });
                }
                NodeId::Proxy(_) | NodeId::Client(_) | NodeId::Origin => {
                    backlog.enqueue(out_at, key, ev, flow);
                }
            },
        );
        if let Some(done) = done {
            self.records.push(done);
        }
    }
}

/// A shard cell is the pool's unit of work: one window drain. Running a
/// window is a pure function of the cell's own state and `window_end`,
/// which is what makes the claim-cursor schedule irrelevant to the
/// result (see the [`pool`] module docs).
impl<A: CacheAgent + Send, P: ShardProbe> WindowTask for Shard<A, P> {
    fn run_window(&mut self, window_end: u64) {
        self.drain_window(window_end);
    }
}

/// Locks every shard cell for a coordinator phase. Uncontended by the
/// barrier protocol: the coordinator only locks while every worker is
/// parked between windows.
fn lock_all<W>(cells: &[Mutex<W>]) -> Vec<MutexGuard<'_, W>> {
    cells
        .iter()
        .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Rejects configurations the sharded executor cannot reproduce
/// deterministically, returning the lookahead `W` in microseconds.
fn validate_sharded(config: &SimConfig, proxies: usize, shards: usize) -> u64 {
    assert!(shards >= 1, "shards must be at least 1");
    assert!(
        config.faults.is_clean(),
        "sharded execution does not support fault injection (duplicates would need \
         cross-shard coordination mid-window)"
    );
    assert!(
        config.churn.is_empty(),
        "sharded execution does not support churn (restarts fire on the global \
         completion count, which workers cannot observe mid-window)"
    );
    assert_eq!(
        config.trace_capacity, 0,
        "sharded execution does not support delivery tracing (the trace log is a \
         single totally-ordered stream)"
    );
    if let InjectionMode::OpenLoop { interval } = config.injection {
        assert!(
            interval.as_micros() > 0,
            "open-loop interval must be positive under sharded execution"
        );
    }
    let w = lookahead_us(config, proxies);
    assert!(
        w > 0,
        "sharded execution needs a positive minimum latency as its lookahead bound \
         (instant networks serialize everything; use the single-threaded runner)"
    );
    w
}

impl<A: CacheAgent + Send> Simulation<A> {
    /// Runs the workload on `shards` worker shards and returns the
    /// report; see DESIGN.md §6c for the synchronization protocol and
    /// the determinism guarantees. The report is invariant
    /// in `shards` (any `shards ≥ 1`, including counts exceeding the
    /// proxy count) and byte-identical to [`Simulation::run`], except
    /// that open-loop runs sample occupancy and convergence at barriers
    /// rather than at completions.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, if the configuration enables faults,
    /// churn or tracing, if an open-loop interval is zero, or if every
    /// configured latency is zero (no positive lookahead bound).
    pub fn run_sharded(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        self.run_sharded_with_agents(workload, shards).0
    }

    /// [`run_sharded`](Simulation::run_sharded), additionally returning
    /// the agents in proxy-id order for post-run inspection.
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> (SimReport, Vec<A>) {
        let (report, agents, _) = run_sharded_inner::<A, NullProbe>(self, workload, shards);
        (report, agents)
    }

    /// [`run_sharded`](Simulation::run_sharded) with a
    /// [`MetricsProbe`] on every shard (the agent events) and one on the
    /// coordinator (the flow events, each completion naming its server).
    /// Their registries fold through the exact [`Registry::merge`], and
    /// [`SimReport::attach_metrics`] adds the agents' final counters and
    /// fills [`SimReport::metrics`], as
    /// [`Simulation::run_with_metrics`] does. Sequential runs give the
    /// same bytes as that runner; open-loop runs differ from it only in
    /// the occupancy samples, taken at barriers.
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_metrics(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        let (mut report, _, registry) =
            run_sharded_inner::<A, MetricsProbe>(self, workload, shards);
        report.attach_metrics(registry);
        report
    }
}

/// Starts the next workload flow at `now`, reporting it to the
/// coordinator's `probe` and filing its first delivery in the owner
/// shard. `shards` is the coordinator's locked view of the shard cells.
/// Returns false when the workload is exhausted.
fn inject_next<A, P, G>(
    now: SimTime,
    shards: &mut [G],
    workload: &mut dyn Iterator<Item = RequestRecord>,
    ledger: &mut Ledger,
    net: &Net,
    probe: &mut P,
    inj_times: &mut VecDeque<u64>,
) -> bool
where
    A: CacheAgent,
    P: ShardProbe,
    G: std::ops::DerefMut<Target = Shard<A, P>>,
{
    let Some(record) = workload.next() else {
        return false;
    };
    let start = ledger.start_flow(record, now, net, probe);
    #[expect(
        clippy::indexing_slicing,
        reason = "shard_of() is always below the shard count"
    )]
    let shard = &mut shards[shard_of(start.proxy, shards.len())];
    shard
        .backlog
        .enqueue(start.at, start.key, start.event, Some(start.flow));
    inj_times.push_back(now.as_micros());
    true
}

/// The coordinator loop: builds the shards, advances the window barrier
/// until every queue drains, folds completions, and assembles the
/// report. Returns `(report, agents in id order, merged registry)`.
fn run_sharded_inner<A: CacheAgent + Send, P: ShardProbe>(
    sim: Simulation<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    shards_n: usize,
) -> (SimReport, Vec<A>, Registry) {
    let Simulation { agents, config } = sim;
    let n_proxies = agents.len();
    let window_us = validate_sharded(&config, n_proxies, shards_n);
    // The ledger starts the run's clocks; CPU telemetry covers the
    // coordinator thread only (worker CPU would need cross-thread
    // aggregation for a number no gate consumes).
    let mut ledger = Ledger::new(&config, n_proxies);
    // The coordinator's probe sees the flow events; each shard's sees
    // its agents' events.
    let mut coord_probe = P::for_shard();
    let wall_start = ledger.wall_start();
    let net = Arc::new(Net::new(&config));

    // Partition agents round-robin: proxy p → shard p % N. Sequential
    // runs share the one agent stream across shards.
    let sequential = config.injection == InjectionMode::Sequential;
    let shared_rng = SharedRng::new(sequential_stream(config.seed));
    let mut shard_agents: Vec<Vec<A>> = (0..shards_n).map(|_| Vec::new()).collect();
    for (p, agent) in agents.into_iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "round-robin: proxy p lives on shard p % N"
        )]
        shard_agents[p % shards_n].push(agent);
    }
    let shards: Vec<Shard<A, P>> = shard_agents
        .into_iter()
        .enumerate()
        .map(|(index, agents)| Shard {
            index,
            shards: shards_n,
            proxies: Proxies::new(&config, agents, index, shards_n, shared_rng.clone()),
            probe: P::for_shard(),
            backlog: Backlog {
                queue: CalendarQueue::new(),
                next_at: u64::MAX,
                pending_proxy: 0,
                pending_origin: 0,
            },
            records: Vec::new(),
            outboxes: (0..shards_n).map(|_| Vec::new()).collect(),
            net: Arc::clone(&net),
            prof: config
                .shard
                .profile
                .then(|| Box::new(ShardProfState::new(wall_start))),
        })
        .collect();

    let mut workload = workload.into_iter();

    // Live-flow peak accounting: flows enter at injection and leave at
    // completion; the coordinator replays both in time order (see
    // SimReport::peak_flows for the tie rule).
    let mut inj_times: VecDeque<u64> = VecDeque::new();
    let mut live_flows: usize = 0;
    let mut peak_flows: usize = 0;
    let mut workload_done = false;

    // Widening moves barrier placement, which is observable only by
    // barrier-driven state sampling (occupancy series, convergence
    // snapshots, metrics probes) in open-loop runs; sequential mode is
    // immune — each of its folds sees at most one completion, with all
    // of that flow's agent mutations already settled. So widen unless
    // an open-loop run samples state at barriers.
    let widen = sequential || !(ledger.samples_state() || P::ENABLED);
    let workers = pool::default_workers(shards_n);

    let interval_us = match config.injection {
        InjectionMode::Sequential => 0,
        InjectionMode::OpenLoop { interval } => interval.as_micros(),
    };
    let mut next_inject_at: u64 = 0;
    let client_proxy_us = config.latency.client_proxy.as_micros();
    // The origin→proxy reply latency: the widening slack of
    // origin-bound work. Latency matrices only override proxy↔proxy
    // edges, so the class model's value is exact.
    let origin_reply_us = config.latency.proxy_origin.as_micros();

    let mut exec = ShardExecStats::default();
    // Coordinator half of the execution profiler (None = profiling off).
    let mut coord_prof: Option<CoordProf> = config.shard.profile.then(CoordProf::new);
    // Reusable fold buffer: every shard's completions, sorted globally.
    let mut records_buf: Vec<Completion> = Vec::new();

    let cells: Vec<Mutex<Shard<A, P>>> = shards.into_iter().map(Mutex::new).collect();
    let ((), spawned) = pool::with_pool(&cells, workers, |pool| {
        let mut guards = lock_all(&cells);

        // Prime the pump. Sequential injects the first request at t=0;
        // open-loop arrivals are generated window by window below.
        if sequential {
            workload_done = !inject_next(
                SimTime::ZERO,
                &mut guards,
                &mut workload,
                &mut ledger,
                &net,
                &mut coord_probe,
                &mut inj_times,
            );
        }

        loop {
            // Earliest pending work across shards and (open-loop) the
            // arrival process; the plain next window is the
            // lookahead-aligned window containing it.
            let mut min_next = guards
                .iter()
                .map(|s| s.backlog.next_at)
                .min()
                .unwrap_or(u64::MAX);
            if interval_us > 0 && !workload_done {
                min_next = min_next.min(next_inject_at + client_proxy_us);
            }
            if min_next == u64::MAX {
                // Drained; the last barrier folded every completion.
                break;
            }
            let grid_end = (min_next / window_us) * window_us + window_us;

            // Adaptive widening: when no shard can emit a cross-shard
            // message before `grid_end`, jump the barrier to the
            // lookahead-aligned window containing the earliest possible
            // cross-shard send. Every such send is delivered a full
            // lookahead later, i.e. at or after the widened barrier, so
            // the jump never admits a delivery into the widened range
            // (conservatism argument in DESIGN.md §6c).
            let mut window_end = grid_end;
            if widen {
                let mut earliest_send = guards
                    .iter()
                    .map(|s| s.backlog.cross_send_bound(origin_reply_us))
                    .min()
                    .unwrap_or(u64::MAX);
                if interval_us > 0 && !workload_done {
                    // A future arrival is a fresh proxy-bound delivery.
                    earliest_send = earliest_send.min(next_inject_at + client_proxy_us);
                }
                if earliest_send == u64::MAX {
                    // Nothing left can ever cross shards: drain fully.
                    window_end = u64::MAX;
                } else {
                    window_end = ((earliest_send / window_us) * window_us)
                        .saturating_add(window_us)
                        .max(grid_end);
                }
            }
            exec.windows_advanced += 1;
            if window_end > grid_end {
                exec.windows_widened += 1;
                if window_end != u64::MAX {
                    exec.windows_skipped += (window_end - grid_end) / window_us;
                }
            }

            // Open-loop: generate every arrival whose *arrival time*
            // precedes this barrier. Arrivals whose first delivery
            // falls beyond the barrier merely sit in the owner queue,
            // so the event schedule is a pure function of the arrival
            // grid — but pushing them now puts their timestamps in
            // `inj_times` before any fold that could observe a
            // completion after them, which makes the live-flow
            // interleave pure global time order, independent of
            // barrier placement (widening, shard count).
            if interval_us > 0 {
                while !workload_done && next_inject_at < window_end {
                    if inject_next(
                        SimTime::from_micros(next_inject_at),
                        &mut guards,
                        &mut workload,
                        &mut ledger,
                        &net,
                        &mut coord_probe,
                        &mut inj_times,
                    ) {
                        next_inject_at += interval_us;
                    } else {
                        workload_done = true;
                    }
                }
            }

            // Run the window: every shard with work below the barrier
            // drains independently. A single active shard (sequential
            // mode always lands here) or an empty pool drains inline —
            // zero synchronization; otherwise release the cells to the
            // persistent pool and re-lock after the barrier.
            let active = guards
                .iter()
                .filter(|s| s.backlog.next_at < window_end)
                .count();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "wall-clock durations ≪ 2^64 ns (584 years) and shard counts stay \
                          tiny: the casts are lossless"
            )]
            if active > 1 && workers > 0 {
                guards.clear();
                match coord_prof.as_mut() {
                    None => pool.run_window(window_end, active),
                    Some(cp) => {
                        let t = pool.run_window_timed(window_end, active);
                        // Wall-clock split from the pool, outside the
                        // SimEvent stream.
                        cp.busy_ns += t.busy_ns;
                        cp.wait_ns += t.wait_ns;
                        // The wait slice ends at the barrier, just now.
                        let wait_us = t.wait_ns / 1_000;
                        if wait_us > 0 {
                            if cp.wait_slices.len() < ShardProfile::MAX_SLICES {
                                cp.wait_slices.push(ShardSlice {
                                    // Coordinator lane sits after the
                                    // shard lanes.
                                    lane: shards_n as u32,
                                    start_us: (wall_start.elapsed().as_micros() as u64)
                                        .saturating_sub(wait_us),
                                    dur_us: wait_us,
                                    wait: true,
                                });
                            } else {
                                // Trace cap hit; counted so the report
                                // says so.
                                cp.slices_dropped += 1;
                            }
                        }
                    }
                }
                guards = lock_all(&cells);
            } else {
                // Inline windows count toward coordinator busy time; the
                // per-shard drain profiling happens inside drain_window.
                #[expect(
                    clippy::disallowed_methods,
                    clippy::disallowed_types,
                    reason = "profiler telemetry only"
                )]
                let t0 = coord_prof.as_ref().map(|_| Instant::now());
                for shard in guards.iter_mut().filter(|s| s.backlog.next_at < window_end) {
                    shard.drain_window(window_end);
                }
                if let (Some(cp), Some(t0)) = (coord_prof.as_mut(), t0) {
                    // Wall clock only.
                    cp.busy_ns += t0.elapsed().as_nanos() as u64;
                }
            }

            // Profiler barrier bookkeeping: outbox depths before routing
            // drains them, and the barrier's place on the wall-clock
            // timeline.
            if let Some(cp) = coord_prof.as_mut() {
                for (src, guard) in guards.iter().enumerate() {
                    for (dst, outbox) in guard.outboxes.iter().enumerate() {
                        if src != dst {
                            cp.outbox_depth.record(outbox.len() as u64);
                        }
                    }
                }
                if cp.barriers_us.len() < ShardProfile::MAX_SLICES {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "wall-clock offsets ≪ 2^64 µs: the cast is lossless"
                    )]
                    cp.barriers_us.push(wall_start.elapsed().as_micros() as u64);
                }
            }

            // Barrier: route cross-shard outboxes in (source,
            // destination) order — the insertion order is irrelevant
            // because delivery order is keyed, but keep it fixed anyway.
            // The emptied outbox Vec is recycled to its owner.
            #[expect(
                clippy::indexing_slicing,
                reason = "src and dst range over the shard count, and every shard's outboxes \
                          are sized to it at startup"
            )]
            for src in 0..shards_n {
                for dst in 0..shards_n {
                    if src == dst {
                        // process() never routes shard-local work
                        // through an outbox.
                        continue;
                    }
                    let mut routed = std::mem::take(&mut guards[src].outboxes[dst]);
                    for r in routed.drain(..) {
                        debug_assert!(r.at >= window_end, "lookahead violated at the barrier");
                        guards[dst].backlog.enqueue(r.at, r.key, r.ev, r.flow);
                    }
                    guards[src].outboxes[dst] = routed;
                }
            }

            // Canonical completion fold: replay the `(at, flow_seq)`-sorted
            // global completion sequence through the model's fold, then
            // settle injections up to the barrier.
            records_buf.clear();
            for shard in guards.iter_mut() {
                records_buf.append(&mut shard.records);
            }
            records_buf.sort_unstable_by_key(|r| (r.at, r.id.seq));
            for rec in &records_buf {
                // Flows injected before this completion went live first
                // (completions settle first on exact timestamp ties, the
                // model's tie rule).
                while inj_times.front().is_some_and(|&t| t < rec.at) {
                    inj_times.pop_front();
                    live_flows += 1;
                    peak_flows = peak_flows.max(live_flows);
                }
                live_flows = live_flows.saturating_sub(1);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "proxy p lives on shard p % N at local index p / N"
                )]
                let agent = |p: usize| &guards[p % shards_n].proxies.agents[p / shards_n];
                ledger.complete(rec, &mut coord_probe, agent);
                if coord_probe.sample_due() {
                    // The shard probes hold the occupancy gauges.
                    for shard in guards.iter_mut() {
                        shard.probe.barrier_sample();
                    }
                }
                // Sequential: the completed flow hands its slot to the
                // next workload request, injected at the completion
                // instant.
                if sequential && !workload_done {
                    workload_done = !inject_next(
                        SimTime::from_micros(rec.at),
                        &mut guards,
                        &mut workload,
                        &mut ledger,
                        &net,
                        &mut coord_probe,
                        &mut inj_times,
                    );
                }
            }
            // Settle injections up to the barrier so the live-flow
            // counter tracks time order even across completion-free
            // windows.
            while inj_times.front().is_some_and(|&t| t < window_end) {
                inj_times.pop_front();
                live_flows += 1;
                peak_flows = peak_flows.max(live_flows);
            }
        }
        drop(guards);
    });
    exec.pool_spawns = spawned as u64;

    // Recover the shards from their pool cells for final accounting.
    let mut shards: Vec<Shard<A, P>> = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    // Merge per-shard counters (pure event counts: sum is exact).
    let mut counters = Counters::default();
    for shard in &shards {
        counters.merge(&shard.proxies.counters);
    }

    // Assemble the execution profile: per-shard drain accounting merged
    // with the coordinator's barrier-wait half, slices interleaved on
    // the shared wall-clock timeline.
    let shard_profile = coord_prof.map(|cp| {
        let mut profile = ShardProfile {
            shards: shards_n,
            windows: exec.windows_advanced,
            shard_drain_ns: Vec::with_capacity(shards_n),
            shard_windows: Vec::with_capacity(shards_n),
            shard_events: Vec::with_capacity(shards_n),
            coordinator_busy_ns: cp.busy_ns,
            coordinator_wait_ns: cp.wait_ns,
            window_occupancy: Log2Histogram::new(),
            outbox_depth: cp.outbox_depth,
            slices: cp.wait_slices,
            slices_dropped: cp.slices_dropped,
            barriers_us: cp.barriers_us,
        };
        for shard in &mut shards {
            // Profiling is a run-wide switch: every shard carries state.
            #[expect(
                clippy::expect_used,
                reason = "this branch only runs when coord_prof was built, and every shard \
                          then got a profiler at construction"
            )]
            let sp = shard
                .prof
                .as_mut()
                .expect("profiled run built shard profilers");
            profile.shard_drain_ns.push(sp.drain_ns);
            profile.shard_windows.push(sp.windows);
            profile.shard_events.push(sp.events);
            profile.window_occupancy.merge(&sp.occupancy);
            profile.slices.append(&mut sp.slices);
            // Fold of per-shard caps into the report total.
            profile.slices_dropped += sp.slices_dropped;
        }
        profile
            .slices
            .sort_unstable_by_key(|s| (s.start_us, s.lane));
        profile
    });
    // Tear the shards down: agents back into proxy-id order, registries
    // folded through the exact merge (coordinator first, then shards in
    // index order — merge is commutative, the order is cosmetic).
    let mut agent_iters: Vec<std::vec::IntoIter<A>> = Vec::with_capacity(shards_n);
    let mut registry = coord_probe.into_registry();
    for shard in shards {
        agent_iters.push(shard.proxies.agents.into_iter());
        registry.merge(&shard.probe.into_registry());
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "p % N is below the shard count, one agent iterator per shard"
    )]
    let agents: Vec<A> = (0..n_proxies)
        .map(|p| {
            // Shard p % N yields its agents in local (ascending id)
            // order, so proxy p is the next item of iterator p % N.
            match agent_iters[p % shards_n].next() {
                Some(a) => a,
                // Partitioning placed exactly n agents.
                None => unreachable!("shard ran out of agents"),
            }
        })
        .collect();
    let report = SimReport {
        shard_exec: Some(exec),
        shard_profile,
        ..ledger.into_report(&agents, counters, peak_flows)
    };

    (report, agents, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy};
    use adc_workload::StationaryZipf;

    fn adc_agents(n: u32) -> Vec<AdcProxy> {
        let config = AdcConfig::builder()
            .single_capacity(64)
            .multiple_capacity(64)
            .cache_capacity(32)
            .max_hops(8)
            .build();
        (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
            .collect()
    }

    /// Default-latency config (the sharded executor needs positive
    /// latencies for its lookahead bound).
    fn config() -> SimConfig {
        SimConfig {
            hit_window: 500,
            sample_every: 500,
            ..SimConfig::default()
        }
    }

    #[test]
    fn lookahead_is_min_latency_over_cross_shard_edges() {
        let c = config();
        // Default model: client_proxy 1ms, proxy_proxy 2ms → W = 1ms.
        assert_eq!(lookahead_us(&c, 5), 1_000);
        // Single proxy: no proxy↔proxy edges, W = client_proxy.
        assert_eq!(lookahead_us(&c, 1), 1_000);
        // A matrix with a faster off-diagonal pair tightens W.
        let mut m = vec![vec![SimTime::from_micros(700); 3]; 3];
        m[0][0] = SimTime::ZERO; // diagonal never constrains W
        let c = SimConfig {
            proxy_latency_matrix: Some(m),
            ..config()
        };
        assert_eq!(lookahead_us(&c, 3), 700);
    }

    #[test]
    fn sequential_sharded_matches_single_threaded_exactly() {
        let workload = || StationaryZipf::new(120, 0.9, 6, 7).take(2_500);
        let legacy = Simulation::new(adc_agents(3), config()).run(workload());
        for shards in [1, 2, 3, 5] {
            let sharded = Simulation::new(adc_agents(3), config()).run_sharded(workload(), shards);
            assert_eq!(legacy.completed, sharded.completed, "shards={shards}");
            assert_eq!(legacy.hits, sharded.hits, "shards={shards}");
            assert_eq!(
                legacy.messages_delivered, sharded.messages_delivered,
                "shards={shards}"
            );
            assert_eq!(
                legacy.events_processed, sharded.events_processed,
                "shards={shards}"
            );
            assert_eq!(legacy.hit_series, sharded.hit_series, "shards={shards}");
            assert_eq!(legacy.peak_flows, sharded.peak_flows, "shards={shards}");
            assert_eq!(legacy.per_proxy, sharded.per_proxy, "shards={shards}");
        }
    }

    #[test]
    fn open_loop_sharded_is_shard_count_invariant() {
        let mut c = config();
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(100),
        };
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_500);
        let run =
            |shards| Simulation::new(adc_agents(4), c.clone()).run_sharded(workload(), shards);
        let one = run(1);
        assert_eq!(one.completed, 1_500);
        for shards in [2, 3, 7] {
            let k = run(shards);
            assert_eq!(one.completed, k.completed, "shards={shards}");
            assert_eq!(one.hits, k.hits, "shards={shards}");
            assert_eq!(
                one.messages_delivered, k.messages_delivered,
                "shards={shards}"
            );
            assert_eq!(one.events_processed, k.events_processed, "shards={shards}");
            assert_eq!(one.peak_flows, k.peak_flows, "shards={shards}");
            assert_eq!(one.hit_series, k.hit_series, "shards={shards}");
            assert_eq!(one.per_proxy, k.per_proxy, "shards={shards}");
        }
        // Open loop genuinely overlaps flows.
        assert!(one.peak_flows > 1, "open loop should overlap flows");
    }

    #[test]
    fn profiling_and_widening_never_move_the_bytes() {
        // Widening and the pool are execution strategy and profiling is
        // measurement: the 3-shard report must equal the runner's, in
        // both injection modes, with profiling on and off. The one
        // exception is open loop with occupancy sampling, which samples
        // at barriers (widening stays off there); it must equal the
        // 1-shard report instead.
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_000);
        for open_loop in [false, true] {
            for occupancy in [false, true] {
                let mut base = config();
                base.sample_occupancy = occupancy;
                if open_loop {
                    base.injection = InjectionMode::OpenLoop {
                        interval: SimTime::from_micros(60),
                    };
                }
                let reference = Simulation::new(adc_agents(3), base.clone());
                let reference = if open_loop && occupancy {
                    reference.run_sharded(workload(), 1)
                } else {
                    reference.run(workload())
                };
                for profile in [false, true] {
                    let mut c = base.clone();
                    c.shard.profile = profile;
                    let r = Simulation::new(adc_agents(3), c).run_sharded(workload(), 3);
                    assert_eq!(
                        reference.to_deterministic_json(),
                        r.to_deterministic_json(),
                        "bytes moved at open_loop={open_loop} occupancy={occupancy} \
                         profile={profile}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiling_collects_drain_wait_and_histograms() {
        // Open loop keeps several shards busy per window so the profile
        // has real drain slices and outbox traffic to account for.
        let workload = || StationaryZipf::new(100, 0.9, 8, 5).take(2_000);
        let mut cfg = config();
        cfg.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(60),
        };
        cfg.shard.profile = true;
        let report = Simulation::new(adc_agents(8), cfg).run_sharded(workload(), 4);
        let p = report.shard_profile.expect("profile=true populates it");
        assert_eq!(p.shards, 4);
        assert_eq!(p.shard_drain_ns.len(), 4);
        assert_eq!(p.shard_windows.len(), 4);
        assert_eq!(p.shard_events.len(), 4);
        assert!(p.windows > 0, "{p:?}");
        assert!(p.total_drain_ns() > 0, "{p:?}");
        // Occupancy records every invoked drain; its sum is exactly the
        // events the shards processed.
        assert!(p.window_occupancy.count() > 0);
        assert_eq!(p.window_occupancy.sum(), p.shard_events.iter().sum::<u64>());
        assert!(p.outbox_depth.count() > 0, "barriers inspect outboxes");
        assert!(p.imbalance_coefficient() >= 1.0, "{p:?}");
        let frac = p.barrier_wait_fraction();
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        assert!(!p.slices.is_empty(), "non-empty drains leave slices");
        assert!(
            p.slices.windows(2).all(|w| w[0].start_us <= w[1].start_us),
            "slices sorted by start time"
        );
        assert!(!p.barriers_us.is_empty());
        // The slices render into a parseable chrome trace with shard
        // lanes plus the coordinator wait lane.
        let trace = adc_obs::shard_lanes_to_chrome_trace(p.shards, &p.slices, &p.barriers_us);
        assert!(trace.starts_with('{') && trace.ends_with('}'), "{trace}");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"shard 0\""));
        assert!(trace.contains("\"coordinator\""));
        // Default config leaves profiling off and the report clean.
        let plain = Simulation::new(adc_agents(8), config()).run_sharded(workload(), 4);
        assert!(plain.shard_profile.is_none());
    }

    #[test]
    fn widening_engages_and_reports_stats() {
        // Sequential mode always widens: a flow's origin round trip
        // leaves only origin-/client-bound work pending, so the barrier
        // regularly jumps several windows at once.
        let workload = || StationaryZipf::new(80, 0.9, 4, 5).take(600);
        let on = Simulation::new(adc_agents(3), config()).run_sharded(workload(), 3);
        let exec_on = on.shard_exec.expect("sharded runs report exec stats");
        assert!(exec_on.windows_widened > 0, "{exec_on:?}");
        assert!(exec_on.windows_skipped > 0, "{exec_on:?}");
        // Widening exists to cut barrier count; the report bytes stay
        // the runner's.
        let plain = Simulation::new(adc_agents(3), config()).run(workload());
        assert_eq!(plain.to_deterministic_json(), on.to_deterministic_json());
        // Open loop with state sampling active must hold the plain
        // barrier grid (widening off).
        let mut sampled = config();
        sampled.sample_occupancy = true;
        sampled.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(100),
        };
        let s = Simulation::new(adc_agents(3), sampled).run_sharded(workload(), 3);
        let exec_s = s.shard_exec.expect("sharded runs report exec stats");
        assert_eq!(exec_s.windows_widened, 0, "{exec_s:?}");
        // ...and without samplers, a sparse open-loop arrival schedule
        // widens across the idle stretches between arrivals.
        let mut sparse = config();
        sparse.sample_occupancy = false;
        sparse.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(5_000),
        };
        let sp = Simulation::new(adc_agents(3), sparse).run_sharded(workload(), 3);
        let exec_sp = sp.shard_exec.expect("sharded runs report exec stats");
        assert!(exec_sp.windows_widened > 0, "{exec_sp:?}");
    }

    #[test]
    fn pool_spawns_stay_within_the_default_worker_count() {
        // The pool sizes itself to the host and spawns each worker at
        // most once per run; whatever it spawns, the bytes stay the
        // 1-shard run's.
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_000);
        let mut c = config();
        c.sample_occupancy = false;
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(60),
        };
        let one = Simulation::new(adc_agents(4), c.clone()).run_sharded(workload(), 1);
        let exec_one = one.shard_exec.expect("sharded runs report exec stats");
        assert_eq!(exec_one.pool_spawns, 0, "one shard never spawns");
        let four = Simulation::new(adc_agents(4), c).run_sharded(workload(), 4);
        let exec = four.shard_exec.expect("sharded runs report exec stats");
        assert!(
            exec.pool_spawns <= pool::default_workers(4) as u64,
            "{exec:?}"
        );
        assert_eq!(one.to_deterministic_json(), four.to_deterministic_json());
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn faulty_configs_rejected() {
        let mut c = config();
        c.faults.duplicate_prob = 0.1;
        let _ = Simulation::new(adc_agents(2), c).run_sharded(std::iter::empty(), 2);
    }

    #[test]
    #[should_panic(expected = "lookahead bound")]
    fn instant_networks_rejected() {
        let _ =
            Simulation::new(adc_agents(2), SimConfig::fast()).run_sharded(std::iter::empty(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 0);
    }

    #[test]
    fn empty_workload_is_a_clean_no_op() {
        let report = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.events_processed, 0);
        let mut c = config();
        c.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(50),
        };
        let report = Simulation::new(adc_agents(2), c).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        // The single-queue runner pops exactly one (exhausted) Inject.
        assert_eq!(report.events_processed, 1);
    }
}
