//! Differential determinism harness for the sharded executor.
//!
//! Runs Figure-11-scale workloads through the single-threaded runner and
//! through `run_sharded` at several shard counts — including a
//! non-power-of-two count, a count that does not divide the proxy count,
//! and a count exceeding it — and demands *byte identity* of the
//! canonical report JSON, the Prometheus metrics exposition, and the
//! convergence series. Sequential injection must match the
//! single-threaded runner exactly; open-loop injection must be invariant
//! in the shard count, and match the single-threaded runner too whenever
//! nothing samples agent state (occupancy, convergence, metrics). Both
//! executors attribute each hit flow to the server its completion
//! names, so their hop and latency histograms agree under open loop.

use adc_core::{AdcConfig, AdcProxy, CacheAgent, EventLog, ProxyId, SimEvent};
use adc_metrics::registry::CLUSTER;
use adc_metrics::{Family, Log2Histogram};
use adc_sim::{ConvergenceConfig, InjectionMode, SimConfig, SimReport, SimTime, Simulation};
use adc_workload::PolygraphConfig;
use std::collections::BTreeMap;

/// Five proxies: 2 and 4 do not divide it, 7 exceeds it, so the suite
/// covers uneven and partially-empty partitions.
const PROXIES: u32 = 5;

/// Shard counts under test (1 = the sharded code path on one worker).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn agents() -> Vec<AdcProxy> {
    let config = AdcConfig::builder()
        .single_capacity(400)
        .multiple_capacity(400)
        .cache_capacity(200)
        .build();
    (0..PROXIES)
        .map(|i| AdcProxy::new(ProxyId::new(i), PROXIES, config.clone()))
        .collect()
}

/// Figure-11-style workload at CI scale (~8 k requests).
fn workload() -> impl Iterator<Item = adc_workload::RequestRecord> {
    PolygraphConfig::scaled(0.002).build()
}

/// Default latencies (the sharded executor needs a positive lookahead),
/// with convergence probing on so its series enter the comparison.
fn config() -> SimConfig {
    SimConfig {
        convergence: Some(ConvergenceConfig {
            sample_every: 1000,
            top_k: 64,
        }),
        hit_window: 1000,
        sample_every: 1000,
        ..SimConfig::default()
    }
}

#[test]
fn sequential_report_is_byte_identical_to_single_threaded() {
    let reference = Simulation::new(agents(), config()).run(workload());
    let reference_json = reference.to_deterministic_json();
    let reference_conv = reference.convergence.as_ref().expect("convergence enabled");
    assert!(
        reference_conv.samples > 0,
        "the comparison must actually exercise convergence sampling"
    );
    assert!(reference.hits > 0, "workload must produce hits");
    for shards in SHARD_COUNTS {
        let report = Simulation::new(agents(), config()).run_sharded(workload(), shards);
        assert_eq!(
            reference_json,
            report.to_deterministic_json(),
            "shards={shards} diverged from the single-threaded runner"
        );
        // The JSON covers these, but keep first-class failures readable.
        assert_eq!(
            reference_conv.agreement,
            report
                .convergence
                .as_ref()
                .expect("convergence enabled")
                .agreement,
            "shards={shards} convergence series diverged"
        );
    }
}

#[test]
fn sequential_metrics_exposition_is_byte_identical_to_single_threaded() {
    let reference = Simulation::new(agents(), config()).run_with_metrics(workload());
    let reference_prom = reference
        .metrics
        .as_ref()
        .expect("metrics probe attached")
        .snapshot
        .to_prometheus();
    assert!(
        reference_prom.contains("adc_requests_completed"),
        "exposition must carry completion families:\n{reference_prom}"
    );
    for shards in SHARD_COUNTS {
        let report =
            Simulation::new(agents(), config()).run_sharded_with_metrics(workload(), shards);
        let prom = report
            .metrics
            .as_ref()
            .expect("metrics probe attached")
            .snapshot
            .to_prometheus();
        assert_eq!(
            reference_prom, prom,
            "shards={shards} metrics exposition diverged"
        );
        assert_eq!(
            reference.metrics, report.metrics,
            "shards={shards} per-proxy metric summaries diverged"
        );
        assert_eq!(
            reference.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} report diverged under the metrics probe"
        );
    }
}

#[test]
fn sequential_returns_agents_in_proxy_id_order() {
    let (_, reference) = Simulation::new(agents(), config()).run_with_agents(workload());
    for shards in SHARD_COUNTS {
        let (_, returned) =
            Simulation::new(agents(), config()).run_sharded_with_agents(workload(), shards);
        assert_eq!(reference.len(), returned.len());
        for (p, (a, b)) in reference.iter().zip(&returned).enumerate() {
            assert_eq!(
                a.proxy_id(),
                b.proxy_id(),
                "shards={shards}: agent {p} out of order"
            );
            assert_eq!(
                a.stats(),
                b.stats(),
                "shards={shards}: agent {p} state diverged"
            );
        }
    }
}

#[test]
fn profiled_widened_runs_stay_byte_identical_at_figure_scale() {
    // The synchronization layer (persistent pool, widening) is pure
    // execution strategy and the profiler pure measurement: with the
    // profiler's clock reads on, demand byte identity with the
    // single-threaded runner in both modes, and with shards=1 in
    // open-loop mode.
    let reference = Simulation::new(agents(), config()).run(workload());
    let mut seq = config();
    seq.shard.profile = true;
    for shards in SHARD_COUNTS {
        let report = Simulation::new(agents(), seq.clone()).run_sharded(workload(), shards);
        assert_eq!(
            reference.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} diverged with the profiler on (sequential)"
        );
    }
    // Open loop without barrier-driven samplers, so widening genuinely
    // engages.
    let mut open = config();
    open.convergence = None;
    open.sample_occupancy = false;
    open.injection = InjectionMode::OpenLoop {
        interval: SimTime::from_micros(200),
    };
    let mut open_profiled = open.clone();
    open_profiled.shard.profile = true;
    let plain = Simulation::new(agents(), open.clone()).run(workload());
    let base = Simulation::new(agents(), open).run_sharded(workload(), 1);
    let exec = base.shard_exec.expect("sharded runs report exec stats");
    assert!(exec.windows_widened > 0, "widening must engage: {exec:?}");
    // Nothing samples agent state here, so the single-queue runner
    // computes the same open-loop report byte for byte.
    assert_eq!(
        plain.to_deterministic_json(),
        base.to_deterministic_json(),
        "the single-queue runner's open-loop report diverged from shards=1"
    );
    for shards in &SHARD_COUNTS[1..] {
        let report =
            Simulation::new(agents(), open_profiled.clone()).run_sharded(workload(), *shards);
        assert_eq!(
            base.to_deterministic_json(),
            report.to_deterministic_json(),
            "shards={shards} open-loop report diverged with the profiler on"
        );
    }
}

#[test]
fn open_loop_report_is_invariant_in_the_shard_count() {
    let mut open = config();
    open.injection = InjectionMode::OpenLoop {
        interval: SimTime::from_micros(200),
    };
    let run = |shards| {
        Simulation::new(agents(), open.clone()).run_sharded_with_metrics(workload(), shards)
    };
    let reference = run(1);
    let reference_json = reference.to_deterministic_json();
    let reference_prom = reference
        .metrics
        .as_ref()
        .expect("metrics probe attached")
        .snapshot
        .to_prometheus();
    assert!(
        reference.peak_flows > 1,
        "open loop must actually overlap flows for this test to bite"
    );
    // Skip the already-covered shards=1 self-comparison.
    for shards in &SHARD_COUNTS[1..] {
        let report = run(*shards);
        assert_eq!(
            reference_json,
            report.to_deterministic_json(),
            "shards={shards} open-loop report diverged from shards=1"
        );
        assert_eq!(
            reference_prom,
            report
                .metrics
                .as_ref()
                .expect("metrics probe attached")
                .snapshot
                .to_prometheus(),
            "shards={shards} open-loop metrics exposition diverged"
        );
    }

    // The runner names each hit flow's server exactly as the engine
    // does, so their hop and latency histograms agree; only the
    // occupancy samples differ (the engine takes them at barriers).
    let runner = Simulation::new(agents(), open.clone()).run_with_metrics(workload());
    let histograms = |report: &SimReport, family: Family| -> Vec<(u32, Log2Histogram)> {
        let metrics = report.metrics.as_ref().expect("metrics probe attached");
        metrics
            .snapshot
            .histograms
            .iter()
            .filter(|(f, _, _)| *f == family)
            .map(|(_, p, h)| (*p, h.clone()))
            .collect()
    };
    for family in [Family::HOPS, Family::RESOLUTION_LATENCY_US] {
        assert_eq!(
            histograms(&runner, family),
            histograms(&reference, family),
            "{} diverged between the runner and the 1-shard engine",
            family.name()
        );
    }
    // Each proxy's hop count is the number of completions naming it.
    let mut log = EventLog::new();
    Simulation::new(agents(), open.clone()).run_observed(workload(), &mut log);
    assert_eq!(log.dropped(), 0, "the event log must hold the whole run");
    let mut served: BTreeMap<u32, u64> = BTreeMap::new();
    for (_, event) in log.events() {
        if let SimEvent::RequestCompleted {
            server: Some(p), ..
        } = event
        {
            *served.entry(*p).or_default() += 1;
        }
    }
    let hop_counts: BTreeMap<u32, u64> = histograms(&runner, Family::HOPS)
        .into_iter()
        .filter(|&(p, _)| p != CLUSTER)
        .map(|(p, h)| (p, h.count()))
        .collect();
    assert_eq!(served.len(), PROXIES as usize, "every proxy serves hits");
    assert_eq!(hop_counts, served);
}
