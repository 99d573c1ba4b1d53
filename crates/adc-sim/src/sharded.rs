//! Sharded (multi-core) execution of open-loop runs.
//!
//! [`Simulation::run_sharded`] hands a sequential run to the single-queue
//! runner: sequential injection keeps one event live in the whole
//! cluster, so no window could ever drain two shards at once. What this
//! file executes is open-loop injection.
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
//!    snapshots, metrics), exactly as the single-queue runner folds them
//!    one by one.
//! 3. **The model's RNG layout.** Open-loop injection gives each agent
//!    its own stream seeded from `(seed, proxy id)`, so no stream is
//!    shared across shards.
//!
//! So the report is byte-identical at every shard count, and to
//! [`Simulation::run`] with one exception: occupancy, convergence and
//! metrics sampling read agent state at the enclosing barrier rather
//! than at the completion instant. `events_processed` counts the
//! arrival events the single-queue runner pops, so the field reconciles
//! across executors.
//!
//! # Synchronization layer
//!
//! Shard threads live in a persistent worker pool
//! ([`pool`](crate::pool) module): they are spawned at most once per
//! run — lazily, on the first window with more than one active shard —
//! and windows are dispatched through one mutex-guarded barrier with a
//! claim cursor, instead of spawning fresh OS threads every window. The
//! pool has `min(cores, shards) - 1` workers, since the coordinator
//! drains shards too; on a single-core host it has none and every
//! window runs inline on the coordinator. It has no knob, and it moves
//! no report byte.
//!
//! The coordinator folds each barrier's completions, gathered from the
//! shards into one reused buffer and sorted by `(at, flow_seq)`, before
//! it opens the next window.
//!
//! # Unsupported configurations
//!
//! Fault injection, churn and delivery tracing are rejected in open loop
//! (see [`Simulation::run_sharded`]): duplicates and restarts would need
//! cross-shard coordination mid-window (and a duplicate its original's
//! flow by request id, which only the runner's flow table keeps), and the
//! trace log is inherently a single totally-ordered stream. Sequential
//! runs with any of them go to the runner like every sequential run.

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
use crate::model::{Completion, Counters, Event, Flow, Ledger, Net, Proxies};
use crate::pool::{self, WindowTask};
use crate::queue::CalendarQueue;
use crate::report::{ShardExecStats, ShardProfile, SimReport};
use crate::runner::Simulation;
use crate::time::SimTime;
use adc_core::{CacheAgent, NodeId, ProxyId};
use adc_metrics::{Log2Histogram, Registry};
use adc_obs::{MetricsProbe, NullProbe, Probe};
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
/// drain accounting and the window-occupancy histogram. Boxed behind an
/// `Option` so the unprofiled hot path pays one null test per window and
/// nothing per event.
#[derive(Default)]
struct ShardProfState {
    /// Cumulative wall-clock drain time, nanoseconds.
    drain_ns: u64,
    /// Window drains executed (including empty drains).
    windows: u64,
    /// Events processed by this shard.
    events: u64,
    /// Events drained per window.
    occupancy: Log2Histogram,
}

/// One worker shard: a vertical slice of the simulator owning every
/// `index + i·N`-th proxy, its events, and its resident flows.
struct Shard<A, P> {
    index: usize,
    /// The shard count `N`.
    shards: usize,
    /// Local agents (local index `l` holds proxy `index + l·N`), their
    /// RNG streams, and the delivery counters.
    proxies: Proxies<A>,
    probe: P,
    /// Queued events, each with its flow as of the send.
    queue: CalendarQueue<(Event, Option<Flow>)>,
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
    /// Timestamp of the earliest pending event (`u64::MAX` when idle).
    fn next_at(&self) -> u64 {
        self.queue.peek_key().map_or(u64::MAX, |(at, _)| at)
    }

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
        reason = "durations ≪ 2^64 ns (584 years): the cast is lossless"
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
        if let Some(prof) = self.prof.as_mut() {
            // Wall-clock profiler accounting sits deliberately outside
            // the SimEvent stream; the occupancy-sum identity test
            // reconciles it.
            prof.drain_ns += dur.as_nanos() as u64;
            prof.windows += 1;
            prof.events += drained;
            prof.occupancy.record(drained);
        }
    }

    /// Drains every local event with `at < window_end`, in `(at, key)`
    /// order.
    fn drain_events(&mut self, window_end: u64) {
        while let Some((next, _)) = self.queue.peek_key() {
            if next >= window_end {
                return;
            }
            let Some((at, _, (ev, flow))) = self.queue.pop() else {
                // peek_key just returned Some.
                unreachable!("peeked event vanished");
            };
            self.process(at, ev, flow, window_end);
        }
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
        let (queue, outboxes) = (&mut self.queue, &mut self.outboxes);
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
                    // cannot land inside the current window.
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
                    queue.push(out_at, key, (ev, flow));
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

/// The open-loop interval of `config` in microseconds, `None` for a
/// sequential run (which the runner executes).
fn open_loop_interval(config: &SimConfig, shards: usize) -> Option<u64> {
    assert!(shards >= 1, "shards must be at least 1");
    match config.injection {
        InjectionMode::Sequential => None,
        InjectionMode::OpenLoop { interval } => Some(interval.as_micros()),
    }
}

/// Rejects open-loop configurations the sharded executor cannot
/// reproduce deterministically, returning the lookahead `W` in
/// microseconds.
fn validate_sharded(config: &SimConfig, proxies: usize, interval_us: u64) -> u64 {
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
    assert!(
        interval_us > 0,
        "open-loop interval must be positive under sharded execution"
    );
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
    /// report. An open-loop run executes on the sharded engine (DESIGN.md
    /// §6c): its report is invariant in `shards` (any `shards ≥ 1`,
    /// including counts exceeding the proxy count) and byte-identical to
    /// [`Simulation::run`], except that occupancy and convergence are
    /// sampled at barriers rather than at completions. A sequential run
    /// keeps one event live at a time, so shards cannot run it in
    /// parallel: it goes to [`Simulation::run`], and the report is that
    /// runner's.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`; under open loop, also if the
    /// configuration enables faults, churn or tracing, if the interval is
    /// zero, or if every configured latency is zero (no positive
    /// lookahead bound).
    pub fn run_sharded(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        self.run_sharded_with_agents(workload, shards).0
    }

    /// [`run_sharded`](Simulation::run_sharded), additionally returning
    /// the agents in proxy-id order for post-run inspection; a sequential
    /// run is [`Simulation::run_with_agents`].
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> (SimReport, Vec<A>) {
        let Some(interval_us) = open_loop_interval(&self.config, shards) else {
            return self.run_with_agents(workload);
        };
        let (report, agents, _) =
            run_open_loop::<A, NullProbe>(self, workload, shards, interval_us);
        (report, agents)
    }

    /// [`run_sharded`](Simulation::run_sharded) with a
    /// [`MetricsProbe`] on every shard (the agent events) and one on the
    /// coordinator (the flow events, each completion naming its server).
    /// Their registries fold through the exact [`Registry::merge`], and
    /// [`SimReport::attach_metrics`] adds the agents' final counters and
    /// fills [`SimReport::metrics`], as
    /// [`Simulation::run_with_metrics`] does. An open-loop run differs
    /// from that runner only in the occupancy samples, taken at
    /// barriers; a sequential run is [`Simulation::run_with_metrics`].
    ///
    /// # Panics
    ///
    /// As [`run_sharded`](Simulation::run_sharded).
    pub fn run_sharded_with_metrics(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        let Some(interval_us) = open_loop_interval(&self.config, shards) else {
            return self.run_with_metrics(workload);
        };
        let (mut report, _, registry) =
            run_open_loop::<A, MetricsProbe>(self, workload, shards, interval_us);
        report.attach_metrics(registry);
        report
    }
}

/// The coordinator loop of an open-loop run with one arrival every
/// `interval_us`: builds the shards, advances the window barrier until
/// every queue drains, folds completions, and assembles the report.
/// Returns `(report, agents in id order, merged registry)`.
fn run_open_loop<A: CacheAgent + Send, P: ShardProbe>(
    sim: Simulation<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    shards_n: usize,
    interval_us: u64,
) -> (SimReport, Vec<A>, Registry) {
    let Simulation { agents, config } = sim;
    let n_proxies = agents.len();
    let window_us = validate_sharded(&config, n_proxies, interval_us);
    // The ledger starts the run's clocks; CPU telemetry covers the
    // coordinator thread only (worker CPU would need cross-thread
    // aggregation for a number no gate consumes).
    let mut ledger = Ledger::new(&config, n_proxies);
    // The coordinator's probe sees the flow events; each shard's sees
    // its agents' events.
    let mut coord_probe = P::for_shard();
    let net = Arc::new(Net::new(&config));

    // Partition agents round-robin: proxy p → shard p % N.
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
            proxies: Proxies::new(&config, agents, index, shards_n),
            probe: P::for_shard(),
            queue: CalendarQueue::new(),
            records: Vec::new(),
            outboxes: (0..shards_n).map(|_| Vec::new()).collect(),
            net: Arc::clone(&net),
            prof: config.shard.profile.then(Box::default),
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

    let workers = pool::default_workers(shards_n);
    let mut next_inject_at: u64 = 0;
    let client_proxy_us = config.latency.client_proxy.as_micros();

    // Barrier rounds run (the profile's `windows`).
    let mut windows: u64 = 0;
    // The execution profile (None = profiling off): the coordinator adds
    // its barrier-wait split and outbox depths as the run goes, and the
    // shards' drain accounting at the end.
    let mut profile: Option<ShardProfile> = config.shard.profile.then(|| ShardProfile {
        shards: shards_n,
        ..ShardProfile::default()
    });
    // Reusable fold buffer: every shard's completions, sorted globally.
    let mut records_buf: Vec<Completion> = Vec::new();

    let cells: Vec<Mutex<Shard<A, P>>> = shards.into_iter().map(Mutex::new).collect();
    let ((), spawned) = pool::with_pool(&cells, workers, |pool| {
        let mut guards = lock_all(&cells);
        loop {
            // Earliest pending work across shards and the arrival
            // process; the next window is the lookahead-aligned window
            // containing it.
            let mut min_next = guards.iter().map(|s| s.next_at()).min().unwrap_or(u64::MAX);
            if !workload_done {
                min_next = min_next.min(next_inject_at + client_proxy_us);
            }
            if min_next == u64::MAX {
                // Drained; the last barrier folded every completion.
                break;
            }
            let window_end = (min_next / window_us) * window_us + window_us;
            windows += 1;

            // Generate every arrival whose *arrival time* precedes this
            // barrier. Arrivals whose first delivery falls beyond the
            // barrier merely sit in the owner queue, so the event
            // schedule is a pure function of the arrival grid — but
            // pushing them now puts their timestamps in `inj_times`
            // before any fold that could observe a completion after
            // them, which makes the live-flow interleave pure global
            // time order, independent of barrier placement (the shard
            // count).
            while !workload_done && next_inject_at < window_end {
                let Some(record) = workload.next() else {
                    workload_done = true;
                    break;
                };
                let now = SimTime::from_micros(next_inject_at);
                let start = ledger.start_flow(record, now, &net, &mut coord_probe);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "shard_of() is always below the shard count"
                )]
                guards[shard_of(start.proxy, shards_n)].queue.push(
                    start.at,
                    start.key,
                    (start.event, Some(start.flow)),
                );
                inj_times.push_back(next_inject_at);
                next_inject_at += interval_us;
            }

            // Run the window: every shard with work below the barrier
            // drains independently. A single active shard or an empty
            // pool drains inline — zero synchronization; otherwise
            // release the cells to the persistent pool and re-lock after
            // the barrier.
            let active = guards.iter().filter(|s| s.next_at() < window_end).count();
            if active > 1 && workers > 0 {
                guards.clear();
                match profile.as_mut() {
                    None => pool.run_window(window_end, active),
                    Some(p) => {
                        // Wall-clock split from the pool, outside the
                        // SimEvent stream.
                        let t = pool.run_window_timed(window_end, active);
                        p.coordinator_busy_ns += t.busy_ns;
                        p.coordinator_wait_ns += t.wait_ns;
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
                let t0 = profile.as_ref().map(|_| Instant::now());
                for shard in guards.iter_mut().filter(|s| s.next_at() < window_end) {
                    shard.drain_window(window_end);
                }
                if let (Some(p), Some(t0)) = (profile.as_mut(), t0) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "wall-clock durations ≪ 2^64 ns (584 years): the cast is \
                                  lossless"
                    )]
                    let busy_ns = t0.elapsed().as_nanos() as u64;
                    p.coordinator_busy_ns += busy_ns;
                }
            }

            // Profiler barrier bookkeeping: outbox depths before routing
            // drains them.
            if let Some(p) = profile.as_mut() {
                for (src, guard) in guards.iter().enumerate() {
                    for (dst, outbox) in guard.outboxes.iter().enumerate() {
                        if src != dst {
                            p.outbox_depth.record(outbox.len() as u64);
                        }
                    }
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
                        guards[dst].queue.push(r.at, r.key, (r.ev, r.flow));
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

    // Recover the shards from their pool cells for final accounting.
    let shards: Vec<Shard<A, P>> = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    // Merge per-shard counters (pure event counts: sum is exact).
    let mut counters = Counters::default();
    for shard in &shards {
        counters.merge(&shard.proxies.counters);
    }

    // Complete the execution profile with each shard's drain accounting.
    if let Some(profile) = profile.as_mut() {
        profile.windows = windows;
        for sp in shards.iter().filter_map(|s| s.prof.as_deref()) {
            profile.shard_drain_ns.push(sp.drain_ns);
            profile.shard_windows.push(sp.windows);
            profile.shard_events.push(sp.events);
            profile.window_occupancy.merge(&sp.occupancy);
        }
    }
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
        shard_exec: Some(ShardExecStats {
            pool_spawns: spawned as u64,
        }),
        shard_profile: profile,
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
    /// latencies for its lookahead bound), open loop every 100 µs.
    fn config() -> SimConfig {
        SimConfig {
            hit_window: 500,
            sample_every: 500,
            injection: InjectionMode::OpenLoop {
                interval: SimTime::from_micros(100),
            },
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
    fn open_loop_sharded_is_shard_count_invariant() {
        let c = config();
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
    fn profiling_never_moves_the_bytes() {
        // The pool is execution strategy and profiling is measurement:
        // the 3-shard report must equal the runner's, with profiling on
        // and off. With occupancy sampling, which reads agents at
        // barriers, it must equal the 1-shard report instead.
        let workload = || StationaryZipf::new(100, 0.9, 4, 5).take(1_000);
        for occupancy in [false, true] {
            let mut base = config();
            base.sample_occupancy = occupancy;
            base.injection = InjectionMode::OpenLoop {
                interval: SimTime::from_micros(60),
            };
            let reference = Simulation::new(adc_agents(3), base.clone());
            let reference = if occupancy {
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
                    "bytes moved at occupancy={occupancy} profile={profile}"
                );
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
        assert!(p.shard_drain_ns.iter().sum::<u64>() > 0, "{p:?}");
        // Occupancy records every invoked drain; its sum is exactly the
        // events the shards processed.
        assert!(p.window_occupancy.count() > 0);
        assert_eq!(p.window_occupancy.sum(), p.shard_events.iter().sum::<u64>());
        assert!(p.outbox_depth.count() > 0, "barriers inspect outboxes");
        assert!(p.imbalance_coefficient() >= 1.0, "{p:?}");
        let frac = p.barrier_wait_fraction();
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        // Default config leaves profiling off and the report clean.
        let plain = Simulation::new(adc_agents(8), config()).run_sharded(workload(), 4);
        assert!(plain.shard_profile.is_none());
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
        let c = SimConfig {
            injection: config().injection,
            ..SimConfig::fast()
        };
        let _ = Simulation::new(adc_agents(2), c).run_sharded(std::iter::empty(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 0);
    }

    #[test]
    fn empty_workload_is_a_clean_no_op() {
        // Sequential injection goes to the runner.
        let sequential = SimConfig {
            injection: InjectionMode::Sequential,
            ..config()
        };
        let report = Simulation::new(adc_agents(2), sequential).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.events_processed, 0);
        assert!(report.shard_exec.is_none());
        let report = Simulation::new(adc_agents(2), config()).run_sharded(std::iter::empty(), 2);
        assert_eq!(report.completed, 0);
        // The single-queue runner pops exactly one (exhausted) Inject.
        assert_eq!(report.events_processed, 1);
    }
}
