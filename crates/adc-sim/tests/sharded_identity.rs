//! Differential determinism harness for `run_sharded` at figure scale.
//!
//! Runs Figure-11-scale workloads through the single-threaded runner and
//! through `run_sharded_with_agents` at several shard counts — including
//! a non-power-of-two count, a count that does not divide the proxy
//! count, and a count exceeding it — and demands the runner's canonical
//! report JSON, agent ids and agent stats from every one. Open-loop runs
//! with nothing sampling agent state execute on the sharded engine;
//! sequential runs and runs that sample occupancy or convergence go to
//! the runner. The execution profile shows which executor ran.

use adc_core::{AdcConfig, AdcProxy, CacheAgent, EventLog, ProxyId, SimEvent};
use adc_metrics::registry::CLUSTER;
use adc_metrics::Family;
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

/// Runs `config` through `run_with_agents` and through
/// `run_sharded_with_agents` at every shard count under test, each with
/// the profiler off and on, and demands the runner's bytes, agent ids
/// and agent stats from every run. The profiled run's profile must
/// appear exactly when `engine` says the configuration runs on the
/// sharded engine; the unprofiled run never carries one.
fn assert_run_sharded_is_run(config: &SimConfig, engine: bool) -> SimReport {
    let (reference, reference_agents) =
        Simulation::new(agents(), config.clone()).run_with_agents(workload());
    assert!(reference.hits > 0, "workload must produce hits");
    for shards in SHARD_COUNTS {
        for profile in [false, true] {
            let mut c = config.clone();
            c.shard.profile = profile;
            let (report, returned) =
                Simulation::new(agents(), c).run_sharded_with_agents(workload(), shards);
            assert_eq!(
                reference.to_deterministic_json(),
                report.to_deterministic_json(),
                "shards={shards} profile={profile}: diverged from the runner"
            );
            assert_eq!(
                report.shard_profile.is_some(),
                engine && profile,
                "shards={shards} profile={profile}: ran on the wrong executor"
            );
            assert_eq!(reference_agents.len(), returned.len());
            for (p, (a, b)) in reference_agents.iter().zip(&returned).enumerate() {
                assert_eq!(
                    a.proxy_id(),
                    b.proxy_id(),
                    "shards={shards} profile={profile}: agent {p}"
                );
                assert_eq!(
                    a.stats(),
                    b.stats(),
                    "shards={shards} profile={profile}: agent {p}"
                );
            }
        }
    }
    reference
}

fn open_loop() -> SimConfig {
    SimConfig {
        injection: InjectionMode::OpenLoop {
            interval: SimTime::from_micros(200),
        },
        ..config()
    }
}

/// Sequential injection keeps one event live, so `run_sharded*` hands
/// it to the runner, even with the profiler asked for. Zero shards is
/// still an error.
#[test]
fn sequential_runs_delegate_to_the_runner() {
    let reference = assert_run_sharded_is_run(&config(), false);
    assert!(
        reference
            .convergence
            .as_ref()
            .is_some_and(|conv| conv.samples > 0),
        "the comparison must actually exercise convergence sampling"
    );
    let zero =
        std::panic::catch_unwind(|| Simulation::new(agents(), config()).run_sharded(workload(), 0));
    let payload = zero.expect_err("zero shards must panic");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(message.contains("at least 1"), "{message}");
}

/// With nothing sampling agent state, an open-loop run executes on the
/// engine and gives the runner's report and agents at every shard count.
#[test]
fn open_loop_runs_on_the_engine_match_the_runner() {
    let open = SimConfig {
        convergence: None,
        ..open_loop()
    };
    let reference = assert_run_sharded_is_run(&open, true);
    assert!(
        reference.peak_flows > 1,
        "open loop must actually overlap flows for this test to bite"
    );
}

/// Convergence and occupancy samples read agents at completion
/// instants, so an open-loop run that takes them goes to the runner.
#[test]
fn sampling_open_loop_runs_go_to_the_runner() {
    let reference = assert_run_sharded_is_run(&open_loop(), false);
    assert!(reference.convergence.is_some_and(|conv| conv.samples > 0));
    let occupancy = SimConfig {
        convergence: None,
        sample_occupancy: true,
        ..open_loop()
    };
    let reference = assert_run_sharded_is_run(&occupancy, false);
    assert_eq!(reference.occupancy_series.len(), PROXIES as usize);
}

/// The runner names each hit flow's server, so each proxy's hop count
/// in its metrics is the number of completions naming that proxy.
#[test]
fn each_proxys_hop_count_is_the_completions_naming_it() {
    let open = open_loop();
    let runner = Simulation::new(agents(), open.clone()).run_with_metrics(workload());
    let metrics = runner.metrics.as_ref().expect("metrics probe attached");
    let hop_counts: BTreeMap<u32, u64> = metrics
        .snapshot
        .histograms
        .iter()
        .filter(|&&(f, p, _)| f == Family::HOPS && p != CLUSTER)
        .map(|(_, p, h)| (*p, h.count()))
        .collect();
    let mut log = EventLog::new();
    Simulation::new(agents(), open).run_observed(workload(), &mut log);
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
    assert_eq!(served.len(), PROXIES as usize, "every proxy serves hits");
    assert_eq!(hop_counts, served);
}
