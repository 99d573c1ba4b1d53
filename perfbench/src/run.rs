//! The workloads and the two kinds of run.
//!
//! An untraced run measures the end-to-end metrics: it sets the workload
//! up several times (median `setup_s`), warms up once, then repeats the
//! timed call until `--seconds` have passed, checking every repeat's
//! output. `req_per_s` is the rate of the fastest call: other tenants of
//! a shared machine only ever slow a call down, so the fastest call is
//! the one they disturbed least.
//!
//! A traced run measures every layer on the workload's trace. The
//! workload's own executor is its primary path; untraced and traced
//! (`Timed` agents) timed calls alternate on it, which gives the tracing
//! overhead, and its layer costs feed the reconciliation ledger. Layers
//! the primary path skips are measured on companion runs of the same
//! trace: the simulator (plain runner, probes, profiled sharded run) for
//! the live workload, a live loopback replay of a strided sample for the
//! simulator workloads.

use crate::chrome::{Chrome, PID_BENCH, PID_CLIENTS, PID_PROXIES};
use crate::live::{ClientSpan, LiveRig, Replay, LIVE_LANES};
use crate::measure::{clock_read_ns, fastest, median, peak_rss_mb, quantile};
use crate::micro;
use crate::timed::{AgentSpan, AgentTiming, BoundaryStats, Timed};
use adc_bench::{Experiment, Scale};
use adc_core::{ProxyStats, RequestId};
use adc_sim::{InjectionMode, ShardProfile, SimReport, SimTime, Simulation};
use adc_workload::{RequestRecord, SharedTrace};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

/// Worker shards of the sharded executor: the machine's two cores.
pub const SHARDS: usize = 2;

/// Proxies of the live cluster.
pub const LIVE_PROXIES: u32 = 4;

/// Open-loop inter-arrival time of `openloop-sharded`, µs.
const OPEN_LOOP_INTERVAL_US: u64 = 50;

/// Rounds of plain/metrics-probe/span-probe runs per traced run.
const PROBE_ROUNDS: usize = 3;

/// Request/reply frame pairs the codec is timed on.
const CODEC_FRAMES: usize = 2_000;

/// Agent spans each live proxy keeps for the chrome trace.
const AGENT_SPAN_CAP: usize = 20_000;

/// Client requests per lane written to the chrome trace.
const CLIENT_SPAN_CAP: usize = 2_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 11 setup on the plain runner, closed loop.
    SeqFig11,
    /// The same trace open loop on the sharded executor.
    OpenloopSharded,
    /// A small Polygraph trace through a live loopback cluster.
    LiveLoopback,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SeqFig11,
        Workload::OpenloopSharded,
        Workload::LiveLoopback,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqFig11 => "seq-fig11",
            Workload::OpenloopSharded => "openloop-sharded",
            Workload::LiveLoopback => "live-loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_live(self) -> bool {
        self == Workload::LiveLoopback
    }

    fn sharded(self) -> bool {
        self == Workload::OpenloopSharded
    }

    /// Request chains that run in parallel: the capacity busy fractions
    /// and the ledger are taken against is wall time × lanes.
    fn lanes(self) -> usize {
        match self {
            Workload::SeqFig11 => 1,
            Workload::OpenloopSharded => SHARDS,
            Workload::LiveLoopback => LIVE_LANES,
        }
    }

    /// The workload's experiment: trace, agents and simulator settings.
    /// The seed drives both the trace and the simulator's RNG.
    pub fn experiment(self, size: &Size, seed: u64) -> Experiment {
        let scale = match self {
            Workload::SeqFig11 => size.seq_scale,
            Workload::OpenloopSharded => size.open_scale,
            Workload::LiveLoopback => size.live_scale,
        };
        let mut e = Experiment::at_scale(Scale::Custom(scale));
        e.workload.seed = seed;
        e.sim.seed = seed;
        // As in the figure sweeps: occupancy series are never read.
        e.sim.sample_occupancy = false;
        match self {
            Workload::SeqFig11 => {}
            Workload::OpenloopSharded => {
                e.sim.injection = InjectionMode::OpenLoop {
                    interval: SimTime::from_micros(OPEN_LOOP_INTERVAL_US),
                };
            }
            Workload::LiveLoopback => e.proxies = LIVE_PROXIES,
        }
        e
    }
}

/// How much work a run does. Per-request cost grows with table size, so
/// the scales are part of each workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `seq-fig11` scale (fraction of the paper's 3.99 M requests).
    pub seq_scale: f64,
    /// `openloop-sharded` scale.
    pub open_scale: f64,
    /// `live-loopback` scale.
    pub live_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Fewest measured repeats of the timed call.
    pub min_reps: usize,
    /// Records the simulator workloads replay through a live cluster.
    pub twin_requests: usize,
    /// Records replayed through a fresh cluster before timing, so its
    /// connections are up.
    pub warmup_requests: usize,
}

impl Size {
    /// The benchmark's definition.
    pub const FULL: Size = Size {
        seq_scale: 0.3,
        open_scale: 0.2,
        live_scale: 0.015,
        setup_repeats: 5,
        min_reps: 3,
        twin_requests: 4_000,
        warmup_requests: 2_000,
    };

    /// A seconds-long smoke run of the same code paths, for tests.
    pub const SMOKE: Size = Size {
        seq_scale: 0.002,
        open_scale: 0.002,
        live_scale: 0.001,
        setup_repeats: 2,
        min_reps: 1,
        twin_requests: 200,
        warmup_requests: 50,
    };
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long the timed calls repeat.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Work per run.
    pub size: Size,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests the run issued.
    pub attempted: u64,
    /// Requests that failed, timed out, were not completed or returned
    /// a wrong result.
    pub failed: u64,
    /// Failed checks.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.problem(format!("metric {name} is not a number ({value})"));
            self.metrics.push((name.to_string(), 0.0, unit));
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    match (p.trace, p.workload.is_live()) {
        (false, false) => sim_untraced(p, &mut out),
        (false, true) => live_untraced(p, &mut out),
        (true, _) => traced(p, &mut out),
    }
    out
}

/// Builds `repeats` times, returning the last build and the median time
/// one build took (earlier builds are dropped off the clock).
fn set_up<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let value = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one build"), median(&times))
}

/// Runs the simulator over `trace`: the sharded executor when `sharded`,
/// the plain runner otherwise. Returns the wall time of the call.
fn simulate<A: adc_core::CacheAgent + Send>(
    exp: &Experiment,
    agents: Vec<A>,
    trace: &SharedTrace,
    sharded: bool,
    profile: bool,
) -> (SimReport, Vec<A>, Duration) {
    let mut config = exp.sim.clone();
    config.shard.profile = profile;
    let start = Instant::now();
    let sim = Simulation::new(agents, config);
    let (report, agents) = if sharded {
        sim.run_sharded_with_agents(trace.iter(), SHARDS)
    } else {
        sim.run_with_agents(trace.iter())
    };
    (report, agents, start.elapsed())
}

/// Checks a simulator report: every request completed, no orphaned
/// reply, and the deterministic bytes equal `reference` (the first
/// report checked against it, which this call records).
fn check_sim(
    report: &SimReport,
    trace: &SharedTrace,
    reference: &mut Option<String>,
    what: &str,
    out: &mut Outcome,
) {
    let len = trace.len() as u64;
    let orphaned = report.cluster_stats().replies_orphaned;
    out.attempted += len;
    out.failed += len.saturating_sub(report.completed) + orphaned;
    if report.completed != len {
        out.problem(format!(
            "{what}: {} of {len} requests completed",
            report.completed
        ));
    }
    if orphaned != 0 {
        out.problem(format!("{what}: {orphaned} orphaned replies"));
    }
    let json = report.to_deterministic_json();
    match reference {
        Some(r) if *r != json => out.problem(format!(
            "{what}: deterministic report differs from the reference run's"
        )),
        Some(_) => {}
        None => *reference = Some(json),
    }
}

fn absorb(out: &mut Outcome, replay: &Replay, what: &str) {
    out.attempted += replay.attempted;
    out.failed += replay.failed;
    if replay.failed != 0 {
        out.problem(format!(
            "{what}: {} of {} requests failed, timed out or returned a wrong body",
            replay.failed, replay.attempted
        ));
    }
}

fn rss(out: &mut Outcome) {
    match peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MiB"),
        None => out.problem("peak RSS unreadable (/proc/self/status)".into()),
    }
}

fn error_line(out: &Outcome) -> String {
    format!(
        "error_rate {} ({} of {} requests)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    )
}

fn sim_untraced(p: &Params, out: &mut Outcome) {
    let w = p.workload;
    let ((exp, trace, agents), setup_s) = set_up(p.size.setup_repeats, || {
        let exp = w.experiment(&p.size, p.seed);
        let trace = exp.trace();
        let agents = exp.adc_agents();
        (exp, trace, agents)
    });
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut reference = None;
    // Warm-up: pages the trace and the allocator in before timing.
    let (mut last, _, _) = simulate(&exp, agents, &trace, w.sharded(), false);
    check_sim(&last, &trace, &mut reference, "warm-up", out);
    let mut rates = Vec::new();
    while rates.len() < p.size.min_reps || Instant::now() < deadline {
        let (report, _, wall) = simulate(&exp, exp.adc_agents(), &trace, w.sharded(), false);
        check_sim(&report, &trace, &mut reference, "timed call", out);
        rates.push(report.completed as f64 / wall.as_secs_f64());
        last = report;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("req_per_s", fastest(&rates), "1/s");
    rss(out);
    out.lines.push(format!(
        "{} timed calls of {} requests; req/s per call {:?}",
        rates.len(),
        trace.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "hit_rate {:.6}  mean_hops {:.6}  events {}  (deterministic per seed)",
        last.hit_rate(),
        last.mean_hops(),
        last.events_processed
    ));
    out.lines.push(error_line(out));
}

fn live_untraced(p: &Params, out: &mut Outcome) {
    let w = p.workload;
    let (built, setup_s) = set_up(p.size.setup_repeats, || -> io::Result<_> {
        let exp = w.experiment(&p.size, p.seed);
        let trace = exp.trace();
        let rig = LiveRig::spawn(exp.adc_agents())?;
        Ok((trace, rig))
    });
    let (trace, mut rig) = match built {
        Ok(built) => built,
        Err(e) => return out.problem(format!("cluster spawn failed: {e}")),
    };
    let epoch = Instant::now();
    let records = trace.records();
    let warm = &records[..p.size.warmup_requests.min(records.len())];
    absorb(out, &rig.replay(warm, false, epoch), "warm-up");
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let (mut rates, mut hits, mut completed, mut cpu) = (Vec::new(), 0, 0, Vec::new());
    // Round trips of the fastest replay only, so memory stays the same
    // however many replays fit in the run.
    let mut latencies = Vec::new();
    while rates.len() < p.size.min_reps || Instant::now() < deadline {
        rig.reset();
        let replay = rig.replay(records, false, epoch);
        absorb(out, &replay, "replay");
        let rate = replay.completed as f64 / replay.wall.as_secs_f64();
        if rate > fastest(&rates) {
            latencies = replay.latencies_ns;
        }
        rates.push(rate);
        hits += replay.hits;
        completed += replay.completed;
        cpu.push(replay.lane_cpu_fraction);
    }
    latencies.sort_unstable();
    out.metric("setup_s", setup_s, "s");
    out.metric("req_per_s", fastest(&rates), "1/s");
    rss(out);
    out.lines.push(format!(
        "{} timed replays of {} requests on {LIVE_PROXIES} proxies, {LIVE_LANES} closed-loop clients; req/s per replay {:?}",
        rates.len(),
        records.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "latency_p50_us {:.1}  latency_p99_us {:.1}  (n = {}, fastest replay)",
        quantile(&latencies, 0.50) as f64 / 1e3,
        quantile(&latencies, 0.99) as f64 / 1e3,
        latencies.len()
    ));
    out.lines.push(format!(
        "hit_rate {:.4}  client cpu fraction {:.3}",
        hits as f64 / completed.max(1) as f64,
        median(&cpu)
    ));
    out.lines.push(error_line(out));
}

/// The simulator on one trace: timed calls with and without `Timed`
/// agents, the probes on the plain runner, and a profiled sharded run.
#[derive(Debug, Default)]
struct SimPass {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    timing: AgentTiming,
    stats: ProxyStats,
    completed: u64,
    hits: u64,
    events: u64,
    peak_flows: usize,
    metrics_probe_ns: f64,
    span_probe_ns: f64,
    profile: ShardProfile,
}

fn sim_pass(
    exp: &Experiment,
    trace: &SharedTrace,
    sharded: bool,
    clock_ns: u64,
    deadline: Instant,
    chrome: &mut Chrome,
    out: &mut Outcome,
) -> SimPass {
    let mut pass = SimPass::default();
    let mut reference = None;
    let (warm, _, _) = chrome.time("sim: warm-up", || {
        simulate(exp, exp.adc_agents(), trace, sharded, false)
    });
    check_sim(&warm, trace, &mut reference, "sim warm-up", out);
    loop {
        let (report, _, wall) = chrome.time("sim: untraced timed call", || {
            simulate(exp, exp.adc_agents(), trace, sharded, false)
        });
        check_sim(&report, trace, &mut reference, "sim untraced", out);
        pass.untraced_s.push(wall.as_secs_f64());
        let timed: Vec<_> = exp
            .adc_agents()
            .into_iter()
            .map(|a| Timed::new(a, clock_ns))
            .collect();
        let (report, agents, wall) = chrome.time("sim: traced timed call", || {
            simulate(exp, timed, trace, sharded, false)
        });
        check_sim(&report, trace, &mut reference, "sim with Timed agents", out);
        pass.traced_s.push(wall.as_secs_f64());
        pass.timing = AgentTiming::default();
        for agent in &agents {
            pass.timing.merge(agent.timing());
        }
        pass.stats = report.cluster_stats();
        pass.completed = report.completed;
        pass.hits = report.hits;
        pass.events = report.events_processed;
        pass.peak_flows = report.peak_flows;
        if Instant::now() >= deadline {
            break;
        }
    }

    // Probe cost per event on the plain runner: each round runs plain,
    // metrics probe and span probe back to back, and each cost is the
    // median over rounds of the probe run minus the same round's plain
    // run, so slow drifts in machine speed cancel. On the plain-runner
    // workloads the reports must equal the timed calls'; the probes must
    // not move them either way.
    let mut plain_ref = if sharded { None } else { reference.clone() };
    let (mut metrics_ns, mut span_ns) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_ROUNDS {
        let mut walls = [0.0; 3];
        let mut events = 0;
        for (k, name) in ["plain runner", "metrics probe", "span probe"]
            .into_iter()
            .enumerate()
        {
            let (mut report, wall) = chrome.time(&format!("sim: {name}"), || {
                let sim = Simulation::new(exp.adc_agents(), exp.sim.clone());
                let start = Instant::now();
                let report = match k {
                    0 => sim.run(trace.iter()),
                    1 => sim.run_with_metrics(trace.iter()),
                    _ => sim.run_with_spans(trace.iter(), 5),
                };
                (report, start.elapsed().as_secs_f64())
            });
            // The deterministic bytes flag an attached metrics section;
            // everything else must match the unobserved run.
            report.metrics = None;
            check_sim(&report, trace, &mut plain_ref, name, out);
            walls[k] = wall;
            events = report.events_processed.max(1);
        }
        metrics_ns.push((walls[1] - walls[0]) * 1e9 / events as f64);
        span_ns.push((walls[2] - walls[0]) * 1e9 / events as f64);
    }
    pass.metrics_probe_ns = median(&metrics_ns);
    pass.span_probe_ns = median(&span_ns);

    // The sharded executor with its profiler on. Under sequential
    // injection it must reproduce the plain runner byte for byte.
    let (profiled, _, _) = chrome.time("sim: profiled sharded run", || {
        simulate(exp, exp.adc_agents(), trace, true, true)
    });
    check_sim(
        &profiled,
        trace,
        &mut reference,
        "profiled sharded run",
        out,
    );
    pass.profile = profiled.shard_profile.unwrap_or_default();
    pass
}

/// The live cluster on a record stream: replays through a plain and a
/// `Timed` cluster alternate until the deadline (at least one pair).
#[derive(Debug, Default)]
struct LivePass {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Round trips of the untraced replays, ns.
    latencies_ns: Vec<u64>,
    requests: u64,
    completed: u64,
    hits: u64,
    timing: AgentTiming,
    stats: ProxyStats,
    /// Per request of the last traced replay: round trip minus the agent
    /// time linked to it by request id, ns.
    self_ns: Vec<u64>,
    cpu_fraction: f64,
    client_spans: Vec<ClientSpan>,
    agent_spans: Vec<AgentSpan>,
}

fn live_pass(
    exp: &Experiment,
    records: &[RequestRecord],
    clock_ns: u64,
    deadline: Instant,
    size: &Size,
    chrome: &mut Chrome,
    out: &mut Outcome,
) -> LivePass {
    let mut pass = LivePass::default();
    let epoch = chrome.epoch();
    let spawned = chrome.time("live: spawn clusters", || -> io::Result<_> {
        let plain = LiveRig::spawn(exp.adc_agents())?;
        let timed = exp
            .adc_agents()
            .into_iter()
            .map(|a| Timed::with_spans(a, clock_ns, epoch, AGENT_SPAN_CAP))
            .collect();
        Ok((plain, LiveRig::spawn(timed)?))
    });
    let (mut plain, mut timed) = match spawned {
        Ok(rigs) => rigs,
        Err(e) => {
            out.problem(format!("live cluster spawn failed: {e}"));
            return pass;
        }
    };
    let warm = &records[..size.warmup_requests.min(records.len())];
    chrome.time("live: warm-up", || {
        absorb(out, &plain.replay(warm, false, epoch), "live warm-up");
        absorb(out, &timed.replay(warm, false, epoch), "live warm-up");
    });
    loop {
        plain.reset();
        let replay = chrome.time("live: untraced timed call", || {
            plain.replay(records, false, epoch)
        });
        absorb(out, &replay, "live untraced");
        pass.untraced_s.push(replay.wall.as_secs_f64());
        pass.latencies_ns.extend(&replay.latencies_ns);

        timed.reset();
        for node in &timed.cluster.proxies {
            node.agent.lock().take();
        }
        let replay = chrome.time("live: traced timed call", || {
            timed.replay(records, true, epoch)
        });
        absorb(out, &replay, "live with Timed agents");
        pass.traced_s.push(replay.wall.as_secs_f64());
        let mut timing = AgentTiming::default();
        let mut agent_ns: HashMap<RequestId, u64> = HashMap::new();
        let mut spans = Vec::new();
        for node in &timed.cluster.proxies {
            let (t, per_request, s) = node.agent.lock().take();
            timing.merge(&t);
            for (id, ns) in per_request {
                *agent_ns.entry(id).or_insert(0) += ns;
            }
            spans.extend(s);
        }
        pass.self_ns = replay
            .spans
            .iter()
            .map(|c| {
                c.dur_ns
                    .saturating_sub(agent_ns.get(&c.request).copied().unwrap_or(0))
            })
            .collect();
        pass.timing = timing;
        pass.stats = replay.stats;
        pass.requests = replay.attempted;
        pass.completed = replay.completed;
        pass.hits = replay.hits;
        pass.cpu_fraction = replay.lane_cpu_fraction;
        pass.client_spans = replay.spans;
        pass.agent_spans = spans;
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.latencies_ns.sort_unstable();
    pass
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn traced(p: &Params, out: &mut Outcome) {
    let w = p.workload;
    let mut chrome = Chrome::new(Instant::now());
    chrome.lane(PID_BENCH, 0, w.name());
    let clock = chrome.time("clock-read cost", clock_read_ns);
    let clock_ns = clock.round() as u64;
    let ((exp, trace), gen_s) = chrome.time("setup", || {
        set_up(p.size.setup_repeats, || {
            let exp = w.experiment(&p.size, p.seed);
            let trace = exp.trace();
            (exp, trace)
        })
    });
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    // The primary path runs until the deadline, companions one round.
    let sim = sim_pass(
        &exp,
        &trace,
        w.sharded(),
        clock_ns,
        if w.is_live() {
            Instant::now()
        } else {
            deadline
        },
        &mut chrome,
        out,
    );
    let live_records = if w.is_live() {
        trace.records().to_vec()
    } else {
        micro::sample(trace.records(), p.size.twin_requests)
    };
    let live = live_pass(
        &exp,
        &live_records,
        clock_ns,
        if w.is_live() {
            deadline
        } else {
            Instant::now()
        },
        &p.size,
        &mut chrome,
        out,
    );
    let codec = chrome.time("codec", || {
        micro::codec_cost(&micro::sample(trace.records(), CODEC_FRAMES), clock_ns)
    });
    if codec.mismatches != 0 {
        out.problem(format!("{} frames did not round-trip", codec.mismatches));
    }
    let queue_ns = chrome.time("calendar queue", || micro::queue_pair_ns(sim.peak_flows));
    let flow_ns = chrome.time("flow table", || micro::flows_pair_ns(sim.peak_flows));
    let iter_ns = chrome.time("trace iteration", || micro::trace_iter_ns(&trace));
    let hop_ns = match chrome.time("socket hop", || {
        micro::socket_hop_ns(codec.mean_frame_bytes as usize)
    }) {
        Ok(ns) => ns,
        Err(e) => {
            out.problem(format!("socket hop measurement failed: {e}"));
            0.0
        }
    };

    // The primary path: the workload's own executor.
    let (timing, stats, untraced, traced_s, completed, hits) = if w.is_live() {
        (
            &live.timing,
            live.stats,
            &live.untraced_s,
            &live.traced_s,
            live.completed,
            live.hits,
        )
    } else {
        (
            &sim.timing,
            sim.stats,
            &sim.untraced_s,
            &sim.traced_s,
            sim.completed,
            sim.hits,
        )
    };
    let capacity_ns = median(untraced) * 1e9 * w.lanes() as f64;
    let agent_ns = timing.total_ns() as f64;
    let codec_ns = codec.encode.mean_ns() + codec.decode.mean_ns();
    let frames =
        |pass: &LivePass| (pass.requests + pass.timing.sends + pass.stats.origin_forwards()) as f64;
    // The ledger: per-op costs × the primary run's op counts.
    let explained = agent_ns
        + if w.is_live() {
            frames(&live) * (codec_ns + hop_ns)
        } else {
            sim.events as f64 * queue_ns + sim.completed as f64 * (flow_ns + iter_ns)
        };
    let sim_lanes = if w.sharded() { SHARDS } else { 1 } as f64;
    let sim_self_s = median(&sim.untraced_s) * sim_lanes - sim.timing.total_ns() as f64 / 1e9;
    let profile = &sim.profile;
    let drain_s = |i: usize| profile.shard_drain_ns.get(i).copied().unwrap_or(0) as f64 / 1e9;
    let learned = stats.forwards_learned as f64;
    let live_calls = live.timing.request_calls() + live.timing.reply.calls;
    let mut self_ns = live.self_ns.clone();
    self_ns.sort_unstable();

    out.metric("trace.clock_read_ns", clock, "ns");
    out.metric(
        "trace_overhead_fraction",
        median(traced_s) / median(untraced) - 1.0,
        "fraction",
    );
    out.metric(
        "unexplained_fraction",
        1.0 - explained / capacity_ns,
        "fraction",
    );
    out.metric("adc-workload.gen_s", gen_s, "s");
    out.metric("adc-workload.trace_iter_ns", iter_ns, "ns");
    out.metric(
        "adc-core.on_request.calls",
        timing.request_calls() as f64,
        "count",
    );
    out.metric(
        "adc-core.on_request_hit_ns",
        timing.request_hit.mean_ns(),
        "ns",
    );
    out.metric(
        "adc-core.on_request_miss_ns",
        timing.request_miss.mean_ns(),
        "ns",
    );
    out.metric(
        "adc-core.on_reply.calls",
        timing.reply.calls as f64,
        "count",
    );
    out.metric("adc-core.on_reply_ns", timing.reply.mean_ns(), "ns");
    out.metric("adc-core.busy_fraction", agent_ns / capacity_ns, "fraction");
    out.metric(
        "adc-core.cache_insertions",
        stats.cache_insertions as f64,
        "count",
    );
    out.metric(
        "adc-core.cache_evictions",
        stats.cache_evictions as f64,
        "count",
    );
    out.metric(
        "adc-core.origin_fetches",
        stats.origin_forwards() as f64,
        "count",
    );
    out.metric(
        "adc-core.learned_forward_ratio",
        ratio(learned, learned + stats.forwards_random as f64),
        "fraction",
    );
    out.metric(
        "adc-core.hit_rate",
        ratio(hits as f64, completed as f64),
        "fraction",
    );
    out.metric(
        "adc-core.forwards_per_request",
        ratio(stats.forwards() as f64, completed as f64),
        "count",
    );
    out.metric("adc-sim.events", sim.events as f64, "count");
    out.metric("adc-sim.self_s", sim_self_s, "s");
    out.metric(
        "adc-sim.ns_per_event",
        sim_self_s * 1e9 / sim.events.max(1) as f64,
        "ns",
    );
    out.metric("adc-sim.peak_flows", sim.peak_flows as f64, "count");
    out.metric("adc-sim.queue_pair_ns", queue_ns, "ns");
    out.metric("adc-sim.flow_pair_ns", flow_ns, "ns");
    for i in 0..SHARDS {
        out.metric(&format!("adc-sim.shard.drain_s.{i}"), drain_s(i), "s");
    }
    out.metric(
        "adc-sim.shard.imbalance",
        profile.imbalance_coefficient(),
        "ratio",
    );
    out.metric(
        "adc-sim.shard.coordinator_busy_s",
        profile.coordinator_busy_ns as f64 / 1e9,
        "s",
    );
    out.metric(
        "adc-sim.shard.barrier_wait_fraction",
        profile.barrier_wait_fraction(),
        "fraction",
    );
    out.metric("adc-sim.shard.windows", profile.windows as f64, "count");
    out.metric(
        "adc-sim.shard.outbox_depth_p99",
        profile.outbox_depth.quantile(0.99).unwrap_or(0) as f64,
        "count",
    );
    out.metric(
        "adc-obs.metrics_probe_ns_per_event",
        sim.metrics_probe_ns,
        "ns",
    );
    out.metric("adc-obs.span_probe_ns_per_event", sim.span_probe_ns, "ns");
    out.metric(
        "adc-net.agent_ns",
        ratio(live.timing.total_ns() as f64, live_calls as f64),
        "ns",
    );
    out.metric("adc-net.codec_encode_ns", codec.encode.mean_ns(), "ns");
    out.metric("adc-net.codec_decode_ns", codec.decode.mean_ns(), "ns");
    out.metric("adc-net.socket_hop_ns", hop_ns, "ns");
    out.metric(
        "adc-net.request_self_us_p50",
        quantile(&self_ns, 0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "adc-net.messages_per_request",
        ratio(frames(&live), live.requests as f64),
        "count",
    );
    out.metric(
        "adc-net.hit_rate",
        ratio(live.hits as f64, live.completed as f64),
        "fraction",
    );
    out.metric(
        "adc-net.latency_p50_us",
        quantile(&live.latencies_ns, 0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "adc-net.latency_p99_us",
        quantile(&live.latencies_ns, 0.99) as f64 / 1e3,
        "us",
    );
    out.metric(
        "adc-net.latency_samples",
        live.latencies_ns.len() as f64,
        "count",
    );
    out.metric("loadgen.cpu_fraction", live.cpu_fraction, "fraction");

    write_chrome(p, chrome, &live, timing, &codec, clock, out);
}

/// Adds the live spans and the per-boundary aggregates, validates the
/// document and writes it to `out/<workload>-seed<seed>.trace.json`.
fn write_chrome(
    p: &Params,
    mut chrome: Chrome,
    live: &LivePass,
    timing: &AgentTiming,
    codec: &micro::CodecCost,
    clock: f64,
    out: &mut Outcome,
) {
    let id = |r: &RequestId| format!("\"request\":\"{}/{}\"", r.client.raw(), r.seq);
    let mut written = HashSet::new();
    for lane in 0..LIVE_LANES {
        chrome.lane(PID_CLIENTS, lane as u64, &format!("client {lane}"));
        let mine = live.client_spans.iter().filter(|c| c.lane == lane);
        for c in mine.take(CLIENT_SPAN_CAP) {
            let args = format!("{},\"object\":{}", id(&c.request), c.object.raw());
            chrome.span(
                PID_CLIENTS,
                lane as u64,
                "request",
                c.start_ns,
                c.dur_ns,
                &args,
            );
            written.insert(c.request);
        }
    }
    let mut proxies = HashSet::new();
    for s in live
        .agent_spans
        .iter()
        .filter(|s| written.contains(&s.request))
    {
        if proxies.insert(s.proxy) {
            chrome.lane(
                PID_PROXIES,
                u64::from(s.proxy),
                &format!("proxy {}", s.proxy),
            );
        }
        let args = id(&s.request);
        chrome.span(
            PID_PROXIES,
            u64::from(s.proxy),
            s.boundary.name(),
            s.start_ns,
            s.dur_ns,
            &args,
        );
    }
    let boundary = |b: &BoundaryStats| {
        let hist: Vec<String> = b
            .hist
            .iter()
            .filter(|&(_, n)| n > 0)
            .map(|(edge, n)| format!("\"{edge}\":{n}"))
            .collect();
        format!(
            "{{\"count\":{},\"total_ns\":{},\"log2_hist_le\":{{{}}}}}",
            b.calls,
            b.total_ns,
            hist.join(",")
        )
    };
    let other = format!(
        "\"workload\":\"{}\",\"seed\":{},\"clock_read_ns\":{clock},\"layers\":{{\
         \"adc-core.on_request_hit\":{},\"adc-core.on_request_miss\":{},\"adc-core.on_reply\":{},\
         \"adc-net.codec_encode\":{},\"adc-net.codec_decode\":{}}}",
        p.workload.name(),
        p.seed,
        boundary(&timing.request_hit),
        boundary(&timing.request_miss),
        boundary(&timing.reply),
        boundary(&codec.encode),
        boundary(&codec.decode),
    );
    let doc = chrome.finish(&other);
    if let Err(e) = adc_obs::validate_json(&doc) {
        return out.problem(format!("chrome trace is not valid JSON: {e}"));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", p.workload.name(), p.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => out.lines.push(format!("chrome trace: {}", path.display())),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        let line = out.json();
        adc_obs::validate_json(&line).expect("valid JSON");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        out.metric("bad", f64::NAN, "s");
        assert!(!out.correct(), "a non-finite metric fails the run");
    }
}
