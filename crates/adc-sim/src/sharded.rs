//! The open-loop engine: sharded (multi-core) execution of the runs whose
//! schedule cannot show in the report.
//!
//! [`Simulation::run_sharded`] returns what [`Simulation::run`] returns,
//! byte for byte, for every valid configuration and every shard count.
//! This file executes a configuration only when it reproduces the runner
//! exactly: open-loop injection with a positive interval and a positive
//! lookahead bound, and none of fault injection, churn, the delivery
//! trace, occupancy sampling or convergence sampling (see
//! `engine_windows`). Every other configuration goes to the single-queue
//! runner, sequential ones included.
//!
//! Proxies are partitioned round-robin across `N` worker shards (proxy
//! `p` lives on shard `p % N`). Each shard owns its own event queue and
//! agent RNG streams; every queued event carries its flow's bookkeeping,
//! so no shard keeps a flow table. The run proceeds in fixed time
//! windows of width `W` — the *lookahead bound*: the minimum
//! proxy↔proxy latency, over the only edges a shard sends over to
//! another shard inside a window. Origin round trips and client
//! deliveries are processed on the sending proxy's shard, and every
//! client→proxy delivery is an injection, which the coordinator files
//! before the window containing it opens; a single proxy keeps the
//! client→proxy latency as `W`, so its windows stay finite. Within a
//! window `[T, T + W)` every shard drains its local queue
//! independently: any message produced inside the window is either
//! shard-local (arbitrary latency, including zero-latency self-sends)
//! or crosses shards with latency `≥ W`, hence lands at or after the
//! barrier `T + W`. Cross-shard messages accumulate in per-destination
//! outboxes and are routed at the barrier.
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
//!    order through the model's fold (counts, series, quantiles), exactly
//!    as the single-queue runner folds them one by one. The fold reads no
//!    agent: the samplers that do run on the runner only.
//! 3. **The model's RNG layout.** Open-loop injection gives each agent
//!    its own stream seeded from `(seed, proxy id)`, so no stream is
//!    shared across shards.
//!
//! So the report is byte-identical to [`Simulation::run`]'s at every
//! shard count. `events_processed` counts the arrival events the
//! single-queue runner pops, so that field reconciles too.
//!
//! # Configurations the runner executes
//!
//! * Sequential injection keeps one event live in the whole cluster, so
//!   no window could ever drain two shards at once.
//! * A zero interval or a zero lookahead leaves no window to advance
//!   by: an instant network serializes everything.
//! * A fault duplicate would need its original's flow by request id,
//!   which only the runner's flow table keeps, and cross-shard
//!   coordination mid-window.
//! * Churn restarts fire on the global completion count, which workers
//!   cannot observe mid-window.
//! * The delivery trace is one totally ordered stream.
//! * Occupancy and convergence samples read agent state at the
//!   completion instant; the coordinator folds at barriers, after the
//!   shards have moved past it.
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
use crate::report::{ShardProfile, SimReport};
use crate::runner::Simulation;
use crate::time::SimTime;
use adc_core::{CacheAgent, NodeId, ProxyId};
use adc_metrics::Log2Histogram;
use adc_obs::NullProbe;
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
/// latency over the off-diagonal proxy↔proxy edges, the only ones a
/// shard sends over to another shard inside a window. A client→proxy
/// delivery is an injection, which the coordinator files before the
/// window containing it opens, and origin hops and client deliveries
/// stay on the sending proxy's shard. A single proxy has no such edge
/// and keeps the client→proxy latency, so its windows stay finite.
fn lookahead_us(config: &SimConfig, proxies: usize) -> u64 {
    if proxies <= 1 {
        return config.latency.client_proxy.as_micros();
    }
    let Some(m) = &config.proxy_latency_matrix else {
        return config.latency.proxy_proxy.as_micros();
    };
    // The matrix is n×n (checked in `Simulation::new`), and n > 1 gives
    // it an off-diagonal cell.
    let mut w = u64::MAX;
    for (a, row) in m.iter().enumerate() {
        for (b, cell) in row.iter().enumerate() {
            if a != b {
                w = w.min(cell.as_micros());
            }
        }
    }
    w
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
struct Shard<A> {
    index: usize,
    /// The shard count `N`.
    shards: usize,
    /// Local agents (local index `l` holds proxy `index + l·N`), their
    /// RNG streams, and the delivery counters.
    proxies: Proxies<A>,
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

impl<A: CacheAgent> Shard<A> {
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
            &mut NullProbe,
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
impl<A: CacheAgent + Send> WindowTask for Shard<A> {
    fn run_window(&mut self, window_end: u64) {
        self.drain_window(window_end);
    }
}

/// Locks every shard cell for a coordinator phase. Uncontended by the
/// barrier protocol: the coordinator only locks while every worker is
/// waiting between windows.
fn lock_all<W>(cells: &[Mutex<W>]) -> Vec<MutexGuard<'_, W>> {
    cells
        .iter()
        .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// The open-loop interval and the lookahead `W` of `config` over
/// `proxies` proxies, both in microseconds, when the engine reproduces
/// the runner byte for byte; `None` sends the run to the runner (see the
/// module docs for why each other configuration goes there).
fn engine_windows(config: &SimConfig, proxies: usize) -> Option<(u64, u64)> {
    let InjectionMode::OpenLoop { interval } = config.injection else {
        return None;
    };
    let interval_us = interval.as_micros();
    let window_us = lookahead_us(config, proxies);
    let exact = interval_us > 0
        && window_us > 0
        && config.faults.is_clean()
        && config.churn.is_empty()
        && config.trace_capacity == 0
        && !config.sample_occupancy
        && config.convergence.is_none();
    exact.then_some((interval_us, window_us))
}

impl<A: CacheAgent + Send> Simulation<A> {
    /// Runs the workload on `shards` worker shards and returns exactly
    /// the report [`Simulation::run`] returns, for any `shards ≥ 1`
    /// (including counts exceeding the proxy count). An open-loop run
    /// with a positive interval and lookahead and no faults, churn,
    /// tracing, occupancy sampling or convergence sampling executes on
    /// the sharded engine (DESIGN.md §6c); every other run goes to
    /// [`Simulation::run`] itself.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn run_sharded(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> SimReport {
        self.run_sharded_with_agents(workload, shards).0
    }

    /// [`run_sharded`](Simulation::run_sharded), additionally returning
    /// the agents in proxy-id order for post-run inspection: exactly what
    /// [`Simulation::run_with_agents`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn run_sharded_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        shards: usize,
    ) -> (SimReport, Vec<A>) {
        assert!(shards >= 1, "shards must be at least 1");
        match engine_windows(&self.config, self.agents.len()) {
            Some((interval_us, window_us)) => {
                run_open_loop(self, workload, shards, interval_us, window_us)
            }
            None => self.run_with_agents(workload),
        }
    }
}

/// The coordinator loop of an open-loop run with one arrival every
/// `interval_us` and windows of `window_us`: builds the shards, advances
/// the window barrier until every queue drains, folds completions, and
/// assembles the report. Returns the report and the agents in id order.
fn run_open_loop<A: CacheAgent + Send>(
    sim: Simulation<A>,
    workload: impl IntoIterator<Item = RequestRecord>,
    shards_n: usize,
    interval_us: u64,
    window_us: u64,
) -> (SimReport, Vec<A>) {
    let Simulation { agents, config } = sim;
    let n_proxies = agents.len();
    // The ledger starts the run's clocks; CPU telemetry covers the
    // coordinator thread only (worker CPU would need cross-thread
    // aggregation for a number no gate consumes).
    let mut ledger = Ledger::new(&config, n_proxies);
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
    let shards: Vec<Shard<A>> = shard_agents
        .into_iter()
        .enumerate()
        .map(|(index, agents)| Shard {
            index,
            shards: shards_n,
            proxies: Proxies::new(&config, agents, index, shards_n),
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

    let cells: Vec<Mutex<Shard<A>>> = shards.into_iter().map(Mutex::new).collect();
    pool::with_pool(&cells, workers, |pool| {
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
                let start = ledger.start_flow(record, now, &net, &mut NullProbe);
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
                ledger.complete(rec, &mut NullProbe);
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
    let shards: Vec<Shard<A>> = cells
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
    // Tear the shards down: agents back into proxy-id order.
    let mut agent_iters: Vec<std::vec::IntoIter<A>> = shards
        .into_iter()
        .map(|shard| shard.proxies.agents.into_iter())
        .collect();
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
        shard_profile: profile,
        ..ledger.into_report(&agents, counters, peak_flows)
    };
    (report, agents)
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

    /// Default-latency config (the engine needs positive latencies for
    /// its lookahead bound), open loop every 100 µs.
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

    fn workload(requests: usize) -> impl Iterator<Item = RequestRecord> {
        StationaryZipf::new(100, 0.9, 4, 5).take(requests)
    }

    /// Runs `requests` requests on `proxies` proxies through
    /// `run_sharded` at `shards` twice, with the profiler off and on,
    /// demands [`Simulation::run`]'s bytes from both, and returns the
    /// profiled report; its `shard_profile` shows whether the engine ran.
    fn matches_the_runner(
        proxies: u32,
        config: &SimConfig,
        requests: usize,
        shards: usize,
    ) -> SimReport {
        let runner = Simulation::new(adc_agents(proxies), config.clone()).run(workload(requests));
        let [plain, profiled] = [false, true].map(|profile| {
            let mut c = config.clone();
            c.shard.profile = profile;
            let sharded =
                Simulation::new(adc_agents(proxies), c).run_sharded(workload(requests), shards);
            assert_eq!(
                runner.to_deterministic_json(),
                sharded.to_deterministic_json(),
                "shards={shards} profile={profile}"
            );
            sharded
        });
        assert!(plain.shard_profile.is_none(), "shards={shards}");
        profiled
    }

    #[test]
    fn lookahead_is_min_latency_over_cross_shard_edges() {
        let c = config();
        // Default model: client_proxy 1ms, proxy_proxy 2ms → W = 2ms,
        // since injections never cross a barrier.
        assert_eq!(lookahead_us(&c, 5), 2_000);
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

    /// An instant client edge leaves the lookahead at the proxy↔proxy
    /// latency: each injection is filed before its window opens, so the
    /// run goes on the engine (a debug build checks the lookahead of
    /// every cross-shard send) and gives the runner's bytes.
    #[test]
    fn an_instant_client_edge_keeps_the_proxy_lookahead() {
        let mut c = config();
        c.latency.client_proxy = SimTime::ZERO;
        assert_eq!(lookahead_us(&c, 4), 2_000);
        for shards in [1, 2, 3] {
            let r = matches_the_runner(4, &c, 1_500, shards);
            assert!(r.peak_flows > 1, "open loop should overlap flows");
            assert!(
                r.shard_profile.is_some(),
                "shards={shards} ran on the engine"
            );
        }
    }

    /// The engine's report is the runner's at every shard count,
    /// including counts that do not divide the proxy count or exceed it.
    #[test]
    fn open_loop_runs_give_the_runners_bytes() {
        for shards in [1, 2, 3, 7] {
            let r = matches_the_runner(4, &config(), 1_500, shards);
            assert_eq!(r.completed, 1_500);
            assert!(r.peak_flows > 1, "open loop should overlap flows");
            assert!(
                r.shard_profile.is_some(),
                "shards={shards} ran on the engine"
            );
        }
    }

    /// Occupancy and convergence samples read agents at completion
    /// instants, so a run that takes them goes to the runner; the
    /// profiler is pure measurement either way.
    #[test]
    fn sampling_runs_go_to_the_runner() {
        let mut base = config();
        base.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(60),
        };
        let occupancy = SimConfig {
            sample_occupancy: true,
            ..base.clone()
        };
        let convergence = SimConfig {
            convergence: Some(adc_obs::ConvergenceConfig {
                sample_every: 250,
                top_k: 16,
            }),
            ..base.clone()
        };
        for (c, engine) in [(base, true), (occupancy, false), (convergence, false)] {
            let r = matches_the_runner(3, &c, 1_000, 3);
            assert_eq!(r.shard_profile.is_some(), engine, "{c:?}");
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

    /// Fault duplicates need the runner's flow table, so an open-loop
    /// run with faults goes to the runner.
    #[test]
    fn faulty_configs_go_to_the_runner() {
        let mut c = config();
        c.faults.duplicate_prob = 0.1;
        let r = matches_the_runner(2, &c, 500, 2);
        assert!(r.duplicates_injected > 0);
        assert!(r.shard_profile.is_none());
    }

    /// An instant network gives no lookahead to window by, so it goes to
    /// the runner.
    #[test]
    fn instant_networks_go_to_the_runner() {
        let c = SimConfig {
            injection: config().injection,
            ..SimConfig::fast()
        };
        assert_eq!(lookahead_us(&c, 2), 0);
        let r = matches_the_runner(2, &c, 500, 2);
        assert_eq!(r.completed, 500);
        assert!(r.shard_profile.is_none());
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
        let report = matches_the_runner(2, &sequential, 0, 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.events_processed, 0);
        assert!(report.shard_profile.is_none());
        let report = matches_the_runner(2, &config(), 0, 2);
        assert_eq!(report.completed, 0);
        // The single-queue runner pops exactly one (exhausted) Inject.
        assert_eq!(report.events_processed, 1);
        assert!(report.shard_profile.is_some());
    }
}
