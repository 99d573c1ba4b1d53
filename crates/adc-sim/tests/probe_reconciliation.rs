//! Property test: over random micro-runs of every agent configuration
//! `compare_schemes` runs, the typed [`SimEvent`] stream exactly
//! reconciles with the [`ProxyStats`] counters the agents report. A
//! divergence here means a decision was counted without its event (or
//! the reverse), or was gated differently from its counter — the
//! contract the exporters rely on.
//!
//! The same file checks that a real run emits every event kind the
//! taxonomy declares, and that the simulator consumes the store changes
//! ([`CacheEvent`]s) agents queue, so none outlive the call that made
//! them.
//!
//! [`SimEvent`]: adc_core::SimEvent
//! [`ProxyStats`]: adc_core::ProxyStats
//! [`CacheEvent`]: adc_core::CacheEvent

use adc_baselines::{CarpProxy, ConsistentRing, HashingProxy, HierarchyProxy, SoapProxy};
use adc_core::{
    AdcConfig, AdcProxy, CacheAgent, CachePolicy, CountingProbe, EventKind, ProxyId,
    UnlimitedAdcProxy,
};
use adc_metrics::Family;
use adc_sim::{ChurnEvent, FaultPlan, InjectionMode, MetricsProbe, SimConfig, SimTime, Simulation};
use adc_workload::{PolygraphConfig, StationaryZipf};
use proptest::prelude::*;

/// The seven agent configurations, in `compare_schemes` row order.
const SCHEMES: [&str; 7] = [
    "adc",
    "adc_lru",
    "adc_unlimited",
    "soap",
    "carp",
    "consistent",
    "hierarchy",
];

const CACHE: usize = 16;
const MAX_HOPS: u32 = 6;

fn adc_config(policy: CachePolicy) -> AdcConfig {
    AdcConfig::builder()
        .single_capacity(64)
        .multiple_capacity(64)
        .cache_capacity(CACHE)
        .max_hops(MAX_HOPS)
        .policy(policy)
        .build()
}

/// One micro-run's simulator settings and Zipf trace.
struct Run {
    config: SimConfig,
    objects: usize,
    requests: usize,
    seed: u64,
}

/// Runs `agents` over the micro-trace with a counting probe attached
/// and checks every counter against its event count.
fn reconcile<A: CacheAgent>(agents: Vec<A>, run: Run) -> Result<(), TestCaseError> {
    let Run {
        config,
        objects,
        requests,
        seed,
    } = run;
    let mut probe = CountingProbe::new();
    let report = Simulation::new(agents, config).run_observed(
        StationaryZipf::new(objects, 0.9, 4, seed).take(requests),
        &mut probe,
    );
    let stats = report.cluster_stats();

    // Agent-side events mirror the per-proxy counters one-for-one.
    prop_assert_eq!(
        probe.count(EventKind::ForwardLearned),
        stats.forwards_learned
    );
    prop_assert_eq!(probe.count(EventKind::ForwardRandom), stats.forwards_random);
    prop_assert_eq!(probe.count(EventKind::LoopDetected), stats.origin_loops);
    prop_assert_eq!(probe.count(EventKind::HopLimitHit), stats.origin_max_hops);
    prop_assert_eq!(
        probe.count(EventKind::OriginThisMiss),
        stats.origin_this_miss
    );
    prop_assert_eq!(probe.count(EventKind::LocalHit), stats.local_hits);
    prop_assert_eq!(
        probe.count(EventKind::ReplyOrphaned),
        stats.replies_orphaned
    );
    prop_assert_eq!(probe.count(EventKind::CacheInsert), stats.cache_insertions);
    prop_assert_eq!(probe.count(EventKind::CacheEvict), stats.cache_evictions);
    // Every received request ends in exactly one hit or one forward.
    prop_assert_eq!(stats.requests_received, stats.local_hits + stats.forwards());

    // Runner-side flow events account for every request exactly once.
    prop_assert_eq!(probe.count(EventKind::RequestInjected), requests as u64);
    prop_assert_eq!(probe.count(EventKind::RequestCompleted), report.completed);
    prop_assert_eq!(report.completed, requests as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]
    #[test]
    fn event_counts_reconcile_with_proxy_stats(
        scheme in 0..SCHEMES.len(),
        n in 1u32..5,
        objects in 10usize..200,
        requests in 200usize..1200,
        seed in 0u64..1_000,
        // Duplicate faults exercise the orphaned-reply path, so the
        // ReplyOrphaned <-> replies_orphaned pairing is covered too.
        dup in prop_oneof![Just(0.0f64), Just(0.15f64)],
    ) {
        let mut config = SimConfig::fast();
        config.faults = FaultPlan {
            duplicate_prob: dup,
            duplicate_jitter: SimTime::from_micros(3),
        };
        config.seed ^= seed;
        let run = Run { config, objects, requests, seed };

        let ids = || (0..n).map(ProxyId::new);
        let adc = |policy| -> Vec<AdcProxy> {
            ids().map(|i| AdcProxy::new(i, n, adc_config(policy))).collect()
        };
        match SCHEMES[scheme] {
            "adc" => reconcile(adc(CachePolicy::Selective), run),
            "adc_lru" => reconcile(adc(CachePolicy::LruAll), run),
            "adc_unlimited" => reconcile::<UnlimitedAdcProxy>(
                ids().map(|i| UnlimitedAdcProxy::new(i, n, CACHE, MAX_HOPS)).collect(),
                run,
            ),
            "soap" => reconcile::<SoapProxy>(
                ids().map(|i| SoapProxy::new(i, n, 8, CACHE, MAX_HOPS)).collect(),
                run,
            ),
            "carp" => reconcile::<CarpProxy>(ids().map(|i| CarpProxy::new(i, n, CACHE)).collect(), run),
            "consistent" => reconcile::<HashingProxy<ConsistentRing>>(
                ids()
                    .map(|i| HashingProxy::with_owner_map(i, ConsistentRing::new(ids(), 16), CACHE))
                    .collect(),
                run,
            ),
            _ => reconcile(HierarchyProxy::binary_tree(n, CACHE), run),
        }?;
    }
}

/// One fault-injected ADC run emits every [`EventKind`] at least once,
/// so no variant of the taxonomy can drift ahead of the simulator that
/// feeds it. A small cache and a hop limit of 2 make evictions, loops
/// and hop-limit give-ups common; duplicated messages make orphaned
/// replies, and one scheduled restart a churn event.
#[test]
fn one_faulty_adc_run_emits_every_event_kind() {
    let config = AdcConfig::builder()
        .single_capacity(64)
        .multiple_capacity(64)
        .cache_capacity(8)
        .max_hops(2)
        .build();
    let agents: Vec<AdcProxy> = (0..5)
        .map(|i| AdcProxy::new(ProxyId::new(i), 5, config.clone()))
        .collect();
    let mut sim = SimConfig::fast();
    sim.faults = FaultPlan {
        duplicate_prob: 0.15,
        duplicate_jitter: SimTime::from_micros(3),
    };
    sim.churn = vec![ChurnEvent {
        after_completed: 2_000,
        proxy: ProxyId::new(1),
    }];
    let mut probe = CountingProbe::new();
    Simulation::new(agents, sim)
        .run_observed(StationaryZipf::new(400, 0.9, 4, 1).take(4_000), &mut probe);
    for kind in EventKind::ALL {
        assert!(probe.count(kind) > 0, "the run emitted no {kind} event");
    }
}

/// What an agent's table-occupancy gauges must read: the lengths of its
/// single, multiple and caching tables, all 0 for an agent without them.
trait TableLengths: CacheAgent {
    fn table_lengths(&self) -> [usize; 3] {
        [0; 3]
    }
}

impl TableLengths for AdcProxy {
    fn table_lengths(&self) -> [usize; 3] {
        let tables = self.tables();
        [
            tables.single().len(),
            tables.multiple().len(),
            tables.cached().len(),
        ]
    }
}

impl TableLengths for UnlimitedAdcProxy {
    fn table_lengths(&self) -> [usize; 3] {
        // The unbounded map plays the multiple table's role, and
        // `mapping_entries()` counts the cached entries as well.
        let cached = self.cached_objects();
        [0, self.mapping_entries() - cached, cached]
    }
}

impl TableLengths for SoapProxy {}
impl TableLengths for CarpProxy {}
impl TableLengths for HashingProxy<ConsistentRing> {}
impl TableLengths for HierarchyProxy {}

/// Runs `agents` over the gauge check's trace, with proxy 0 restarted
/// after 3,000 completions and a [`MetricsProbe`] attached, and checks
/// every occupancy gauge against the agent's own count.
fn gauges_reconcile<A: TableLengths>(scheme: &str, agents: Vec<A>) {
    let mut sim = SimConfig::fast();
    sim.churn = vec![ChurnEvent {
        after_completed: 3_000,
        proxy: ProxyId::new(0),
    }];
    let mut probe = MetricsProbe::new();
    let (report, agents) = Simulation::new(agents, sim)
        .run_observed_with_agents(PolygraphConfig::scaled(0.002).build(), &mut probe);
    assert_eq!(report.proxies_reset, 1, "{scheme}");
    let registry = probe.into_registry();
    let count = |n: usize| i64::try_from(n).expect("a table length fits i64");
    for agent in &agents {
        let p = agent.proxy_id().raw();
        assert_eq!(
            registry.gauge(Family::CACHED_OBJECTS, p),
            count(agent.cached_objects()),
            "{scheme} proxy {p}"
        );
        let families = [
            Family::TABLE_SINGLE,
            Family::TABLE_MULTIPLE,
            Family::TABLE_CACHING,
        ];
        for (family, len) in families.into_iter().zip(agent.table_lengths()) {
            assert_eq!(
                registry.gauge(family, p),
                count(len),
                "{scheme} proxy {p} {family:?}"
            );
        }
    }
}

/// After a churn restart every agent's occupancy gauges read its true
/// occupancy: the restart empties the tables and the store without a
/// migration or eviction per entry, so the metrics probe zeroes the
/// restarted proxy's gauges on its event and counts on from there. The
/// table gauges count entries entering (`Out → Single` in ADC, `Out →
/// Multiple` in unlimited ADC) and leaving as well as moving, so they
/// hold the tables' sizes. Five proxies with a cache of 200 each run
/// every configuration `compare_schemes` does.
#[test]
fn occupancy_gauges_follow_a_restart() {
    const PROXIES: u32 = 5;
    const CACHE: usize = 200;
    const MAX_HOPS: u32 = 8;
    let ids = || (0..PROXIES).map(ProxyId::new);
    let adc = |policy| -> Vec<AdcProxy> {
        let config = AdcConfig::builder()
            .single_capacity(400)
            .multiple_capacity(400)
            .cache_capacity(CACHE)
            .max_hops(MAX_HOPS)
            .policy(policy)
            .build();
        ids()
            .map(|i| AdcProxy::new(i, PROXIES, config.clone()))
            .collect()
    };
    for scheme in SCHEMES {
        match scheme {
            "adc" => gauges_reconcile(scheme, adc(CachePolicy::Selective)),
            "adc_lru" => gauges_reconcile(scheme, adc(CachePolicy::LruAll)),
            "adc_unlimited" => gauges_reconcile::<UnlimitedAdcProxy>(
                scheme,
                ids()
                    .map(|i| UnlimitedAdcProxy::new(i, PROXIES, CACHE, MAX_HOPS))
                    .collect(),
            ),
            "soap" => gauges_reconcile::<SoapProxy>(
                scheme,
                ids()
                    .map(|i| SoapProxy::new(i, PROXIES, 1_024, CACHE, MAX_HOPS))
                    .collect(),
            ),
            "carp" => gauges_reconcile::<CarpProxy>(
                scheme,
                ids().map(|i| CarpProxy::new(i, PROXIES, CACHE)).collect(),
            ),
            "consistent" => gauges_reconcile::<HashingProxy<ConsistentRing>>(
                scheme,
                ids()
                    .map(|i| {
                        HashingProxy::with_owner_map(i, ConsistentRing::new(ids(), 128), CACHE)
                    })
                    .collect(),
            ),
            _ => gauges_reconcile(scheme, HierarchyProxy::binary_tree(PROXIES, CACHE)),
        }
    }
}

/// Both executors drain the store changes an agent queues after every
/// call, so a finished run hands back agents with none pending. CARP
/// queues one or two per origin fetch, more than any other agent.
#[test]
fn simulator_leaves_no_store_change_undrained() {
    let agents = || -> Vec<CarpProxy> {
        (0..5)
            .map(|i| CarpProxy::new(ProxyId::new(i), 5, 50))
            .collect()
    };
    let trace = || PolygraphConfig::scaled(0.002).build();

    let (report, mut left) =
        Simulation::new(agents(), SimConfig::default()).run_with_agents(trace());
    assert!(report.cluster_stats().cache_insertions > 0);
    // An open-loop run that samples nothing runs on the sharded engine,
    // and `run_sharded` returns the runner's bytes.
    let open = SimConfig {
        injection: InjectionMode::OpenLoop {
            interval: SimTime::from_micros(50),
        },
        ..SimConfig::default()
    };
    let (open_report, mut open_left) =
        Simulation::new(agents(), open.clone()).run_with_agents(trace());
    let (sharded, mut sharded_left) =
        Simulation::new(agents(), open).run_sharded_with_agents(trace(), 2);
    assert!(sharded.peak_flows > 1, "open loop must overlap flows");
    assert_eq!(
        open_report.to_deterministic_json(),
        sharded.to_deterministic_json()
    );
    for agent in left
        .iter_mut()
        .chain(&mut open_left)
        .chain(&mut sharded_left)
    {
        assert_eq!(
            agent.drain_cache_events(),
            [],
            "proxy {} kept store changes past the run",
            agent.proxy_id().raw()
        );
    }
}
