//! The single-queue executor: one event queue holds every pending
//! event, and the loop pops them in `(at, key)` order. What each event
//! does is the shared model's business (see the `model` module); this
//! file adds only the schedule, plus what the sharded engine leaves to
//! it: fault duplicates, churn, the delivery trace log, and the
//! occupancy and convergence samples. It is the reference executor:
//! `Simulation::run_sharded` returns its report byte for byte, and hands
//! it every configuration the engine does not run, sequential ones
//! included.

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

use crate::config::{ChurnEvent, InjectionMode, SimConfig};
use crate::flows::FlowTable;
use crate::model::{Event, Flow, Ledger, Net, Proxies, ARRIVAL_KEY};
use crate::queue::CalendarQueue;
use crate::report::SimReport;
use crate::time::SimTime;
use crate::tracelog::{DeliveryRecord, TraceLog};
use adc_core::{CacheAgent, Message, ProxyId};
use adc_obs::{NullProbe, Probe, SimEvent};
use adc_workload::RequestRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the queue holds.
#[derive(Debug, Clone, Copy)]
enum Queued {
    /// A message delivery.
    Deliver(Event),
    /// The next open-loop arrival: pull a request from the workload.
    Arrival,
}

/// A deterministic discrete-event simulation of one proxy cluster.
///
/// Generic over the agent type, so ADC proxies and baseline hashing
/// proxies run under identical accounting. See the crate docs for a
/// complete example.
#[derive(Debug)]
pub struct Simulation<A> {
    /// Dense-id proxy agents; the sharded executor re-partitions them.
    pub(crate) agents: Vec<A>,
    /// Validated configuration (see [`Simulation::new`]).
    pub(crate) config: SimConfig,
}

impl<A: CacheAgent> Simulation<A> {
    /// Creates a simulation over the given proxy agents.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty, agent IDs are not dense `0..n`, the
    /// configuration is invalid, its latency matrix is not `n×n`, or a
    /// churn event names a proxy outside `0..n`.
    pub fn new(agents: Vec<A>, config: SimConfig) -> Self {
        assert!(!agents.is_empty(), "need at least one proxy agent");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "dense ids: i < agent count ≤ u32::MAX"
        )]
        for (i, a) in agents.iter().enumerate() {
            assert_eq!(
                a.proxy_id(),
                ProxyId::new(i as u32),
                "agent IDs must be dense 0..n in order"
            );
        }
        #[expect(
            clippy::expect_used,
            reason = "documented precondition (see \"# Panics\")"
        )]
        config.validate().expect("invalid simulator configuration");
        if let Some(matrix) = &config.proxy_latency_matrix {
            assert_eq!(
                matrix.len(),
                agents.len(),
                "proxy_latency_matrix must match the proxy count"
            );
        }
        for c in &config.churn {
            // u32 → usize widens on 64-bit.
            assert!(
                (c.proxy.raw() as usize) < agents.len(),
                "churn event names proxy {}, outside the {} proxies",
                c.proxy.raw(),
                agents.len()
            );
        }
        Simulation { agents, config }
    }

    /// Number of proxies.
    pub fn num_proxies(&self) -> usize {
        self.agents.len()
    }

    /// Runs the workload to completion and returns the report together
    /// with the agents (for post-run inspection). Observability is off
    /// ([`NullProbe`]); the probe plumbing compiles away entirely, so
    /// this is byte-for-byte the unobserved hot path.
    pub fn run_with_agents(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
    ) -> (SimReport, Vec<A>) {
        self.run_observed_with_agents(workload, &mut NullProbe)
    }

    /// Runs the workload with every simulation event fed through
    /// `probe`, returning the report and the agents.
    ///
    /// The probe is ticked with virtual time (microseconds) before each
    /// event is processed, then receives the typed [`SimEvent`]s the
    /// agents and the runner emit. With [`NullProbe`] every emission
    /// site is statically dead code, so observability costs nothing
    /// unless a real probe is attached.
    ///
    /// [`SimEvent`]: adc_obs::SimEvent
    pub fn run_observed_with_agents<P: Probe>(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        probe: &mut P,
    ) -> (SimReport, Vec<A>) {
        let Simulation { agents, config } = self;
        let n = agents.len();
        let net = Net::new(&config);
        let mut ledger = Ledger::new(&config, n);
        let mut proxies = Proxies::new(&config, agents, 0, 1);
        let mut workload = workload.into_iter();
        let mut fault_rng = StdRng::seed_from_u64(config.seed ^ 0xFA17);
        let mut queue: CalendarQueue<Queued> = CalendarQueue::new();
        let mut flows: FlowTable<Flow> = FlowTable::new();
        let mut trace = (config.trace_capacity > 0).then(|| TraceLog::new(config.trace_capacity));
        let mut duplicates_injected: u64 = 0;
        let mut churn: Vec<ChurnEvent> = config.churn.clone();
        churn.sort_by_key(|c| c.after_completed);
        let mut churn_idx = 0;
        let mut proxies_reset: u64 = 0;
        let faults = config.faults;

        // Starts the next workload flow at `now`. Returns false when the
        // workload is exhausted.
        let mut inject = |now: SimTime,
                          queue: &mut CalendarQueue<Queued>,
                          flows: &mut FlowTable<Flow>,
                          ledger: &mut Ledger,
                          probe: &mut P|
         -> bool {
            let Some(record) = workload.next() else {
                return false;
            };
            let start = ledger.start_flow(record, now, &net, probe);
            flows.insert(start.id, start.flow);
            queue.push(start.at, start.key, Queued::Deliver(start.event));
            true
        };

        // Prime the pump.
        match config.injection {
            InjectionMode::Sequential => {
                inject(SimTime::ZERO, &mut queue, &mut flows, &mut ledger, probe);
            }
            InjectionMode::OpenLoop { .. } => queue.push(0, ARRIVAL_KEY, Queued::Arrival),
        }

        while let Some((at, _key, queued)) = queue.pop() {
            let now = SimTime::from_micros(at);
            let ev = match queued {
                Queued::Arrival => {
                    if P::ENABLED {
                        probe.tick(at);
                    }
                    if inject(now, &mut queue, &mut flows, &mut ledger, probe) {
                        if let InjectionMode::OpenLoop { interval } = config.injection {
                            queue.push((now + interval).as_micros(), ARRIVAL_KEY, Queued::Arrival);
                        }
                    }
                    continue;
                }
                Queued::Deliver(ev) => ev,
            };
            let id = ev.message.request_id();
            if let Some(log) = trace.as_mut() {
                log.record(DeliveryRecord {
                    at: now,
                    request: id,
                    from: ev.from,
                    to: ev.to,
                    is_request: matches!(ev.message, Message::Request(_)),
                });
            }
            // Fault injection: deliver this message a second time.
            if faults.duplicate_prob > 0.0 && fault_rng.gen_bool(faults.duplicate_prob) {
                duplicates_injected += 1;
                let at = (now + faults.duplicate_jitter).as_micros();
                queue.push(at, proxies.stray_key(), Queued::Deliver(ev));
            }

            let completion =
                proxies.deliver(&net, at, ev, flows.get_mut(&id), probe, |at, key, ev, _| {
                    queue.push(at, key, Queued::Deliver(ev));
                });
            let Some(done) = completion else {
                continue;
            };
            flows.remove(&id);
            ledger.complete(&done, probe);
            #[expect(
                clippy::indexing_slicing,
                reason = "proxy ids are dense 0..n, the agents' indexes"
            )]
            ledger.sample_agents(|p| &proxies.agents[p]);
            // Scheduled proxy restarts fire on completion boundaries.
            let completed = ledger.completed();
            while let Some(c) = churn
                .get(churn_idx)
                .filter(|c| c.after_completed <= completed)
            {
                // u32 → usize widens on 64-bit; `new` checked the id.
                if let Some(agent) = proxies.agents.get_mut(c.proxy.raw() as usize) {
                    agent.reset();
                    proxies_reset += 1;
                    if P::ENABLED {
                        probe.emit(SimEvent::ProxyRestarted {
                            proxy: c.proxy.raw(),
                        });
                    }
                }
                churn_idx += 1;
            }
            if config.injection == InjectionMode::Sequential {
                inject(now, &mut queue, &mut flows, &mut ledger, probe);
            }
        }

        let report = SimReport {
            duplicates_injected,
            proxies_reset,
            trace,
            ..ledger.into_report(&proxies.agents, proxies.counters, flows.peak())
        };
        (report, proxies.agents)
    }

    /// Runs the workload to completion.
    pub fn run(self, workload: impl IntoIterator<Item = RequestRecord>) -> SimReport {
        self.run_with_agents(workload).0
    }

    /// Runs the workload to completion with `probe` attached; see
    /// [`run_observed_with_agents`](Simulation::run_observed_with_agents).
    pub fn run_observed<P: Probe>(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        probe: &mut P,
    ) -> SimReport {
        self.run_observed_with_agents(workload, probe).0
    }

    /// Runs the workload with a [`MetricsProbe`](adc_obs::MetricsProbe)
    /// attached, then [`SimReport::attach_metrics`] adds the agents'
    /// final counters to its registry and fills [`SimReport::metrics`].
    /// Each completion names its server, so hit flows land in the exact
    /// proxy's histograms under any injection. The probe is a pure event
    /// consumer — it never touches the RNG streams or event order, so
    /// results are identical to an unobserved run of the same seed.
    pub fn run_with_metrics(self, workload: impl IntoIterator<Item = RequestRecord>) -> SimReport {
        let mut probe = adc_obs::MetricsProbe::new();
        let (mut report, _) = self.run_observed_with_agents(workload, &mut probe);
        report.attach_metrics(probe.into_registry());
        report
    }

    /// Runs the workload with a [`SpanProbe`](adc_obs::SpanProbe)
    /// attached and the resulting causal latency breakdown embedded in
    /// [`SimReport::spans`], keeping the `top_k` slowest flows in the
    /// digest. Like every probe, the recorder is a pure event consumer:
    /// the deterministic report is identical to an unobserved run.
    pub fn run_with_spans(
        self,
        workload: impl IntoIterator<Item = RequestRecord>,
        top_k: usize,
    ) -> SimReport {
        let mut probe = adc_obs::SpanProbe::with_top_k(top_k);
        let (mut report, _) = self.run_observed_with_agents(workload, &mut probe);
        report.spans = Some(probe.into_report());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClientAssignment, FaultPlan};
    use adc_baselines::CarpProxy;
    use adc_core::{AdcConfig, AdcProxy, ClientId, ObjectId};
    use adc_metrics::Family;
    use adc_workload::{Phase, PolygraphConfig, StationaryZipf};

    fn adc_agents(n: u32, config: AdcConfig) -> Vec<AdcProxy> {
        (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
            .collect()
    }

    fn carp_agents(n: u32, cache: usize) -> Vec<CarpProxy> {
        (0..n)
            .map(|i| CarpProxy::new(ProxyId::new(i), n, cache))
            .collect()
    }

    /// A workload of hand-written records.
    fn records(objects: &[u64]) -> Vec<RequestRecord> {
        objects
            .iter()
            .enumerate()
            .map(|(i, &o)| RequestRecord {
                seq: i as u64,
                client: ClientId::new(0),
                object: ObjectId::new(o),
                size: 100,
                phase: Phase::RequestI,
            })
            .collect()
    }

    #[test]
    fn single_adc_proxy_learns_to_hit() {
        let config = AdcConfig::builder()
            .single_capacity(16)
            .multiple_capacity(16)
            .cache_capacity(8)
            .max_hops(8)
            .build();
        let sim = Simulation::new(adc_agents(1, config), SimConfig::fast());
        let report = sim.run(records(&[1, 1, 1, 1, 1, 1]));
        assert_eq!(report.completed, 6);
        assert!(report.hits >= 2, "should hit after learning: {report:?}");
        // The last requests must be local hits with exactly 2 hops.
        assert!(report.hops.min().unwrap() >= 2.0);
    }

    #[test]
    fn carp_hop_counts_match_hand_calculation() {
        // One proxy: miss = C→P, P→O, O→P, P→C = 4 hops; hit = 2 hops.
        let sim = Simulation::new(carp_agents(1, 8), SimConfig::fast());
        let report = sim.run(records(&[1, 1]));
        assert_eq!(report.completed, 2);
        assert_eq!(report.hits, 1);
        assert_eq!(report.hops.min(), Some(2.0));
        assert_eq!(report.hops.max(), Some(4.0));
    }

    #[test]
    fn carp_multi_proxy_routes_to_owner() {
        let sim = Simulation::new(carp_agents(4, 64), SimConfig::fast());
        // Same object requested many times by different clients lands on
        // the same owner; all but the first are hits.
        let recs: Vec<RequestRecord> = (0..20)
            .map(|i| RequestRecord {
                seq: i,
                client: ClientId::new(i as u32 % 7),
                object: ObjectId::new(42),
                size: 10,
                phase: Phase::RequestI,
            })
            .collect();
        let report = sim.run(recs);
        assert_eq!(report.completed, 20);
        assert_eq!(report.hits, 19);
    }

    #[test]
    fn run_with_metrics_matches_unobserved_run_and_reconciles() {
        let build = || {
            let config = AdcConfig::builder()
                .single_capacity(64)
                .multiple_capacity(64)
                .cache_capacity(32)
                .max_hops(8)
                .build();
            Simulation::new(adc_agents(3, config), SimConfig::fast())
        };
        let workload = || StationaryZipf::new(200, 0.9, 8, 11).take(3_000);
        let plain = build().run(workload());
        let observed = build().run_with_metrics(workload());
        // The probe is a pure consumer: same seed, same results.
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(plain.hits, observed.hits);
        assert_eq!(plain.messages_delivered, observed.messages_delivered);
        let metrics = observed.metrics.as_ref().expect("metrics embedded");
        let snap = &metrics.snapshot;
        // Registry counters reconcile with the report totals.
        let total = |family: Family| -> u64 {
            snap.counters
                .iter()
                .filter(|&&(f, _, _)| f == family)
                .map(|&(_, _, v)| v)
                .sum()
        };
        assert_eq!(total(Family::REQUESTS_COMPLETED), plain.completed);
        assert_eq!(total(Family::REQUEST_HITS), plain.hits);
        assert_eq!(total(Family::LOCAL_HITS), plain.hits);
        // Per-proxy summaries cover each agent that served something,
        // and the exposition text round-trips the format checker.
        assert!(!metrics.per_proxy.is_empty());
        adc_metrics::validate_prometheus(&snap.to_prometheus()).expect("valid exposition");
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let config = AdcConfig::builder()
                .single_capacity(64)
                .multiple_capacity(64)
                .cache_capacity(32)
                .max_hops(8)
                .build();
            let sim = Simulation::new(adc_agents(3, config), SimConfig::fast());
            sim.run(StationaryZipf::new(200, 0.9, 8, 11).take(3_000))
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.hit_series, b.hit_series);
        assert_eq!(a.hops.mean(), b.hops.mean());
    }

    #[test]
    fn open_loop_completes_every_request() {
        let mut config = SimConfig::fast();
        config.injection = InjectionMode::OpenLoop {
            interval: SimTime::from_micros(100),
        };
        config.latency = crate::network::LatencyModel::default();
        let adc = AdcConfig::builder()
            .single_capacity(64)
            .multiple_capacity(64)
            .cache_capacity(32)
            .max_hops(8)
            .build();
        let sim = Simulation::new(adc_agents(3, adc), config);
        let report = sim.run(StationaryZipf::new(100, 0.9, 4, 5).take(500));
        assert_eq!(report.completed, 500);
        // Open loop at 100us with 40ms origin RTTs must overlap flows, so
        // total simulated latency must exceed the injection span.
        assert!(report.latency_us.max().unwrap() > 40_000.0);
    }

    #[test]
    fn duplicate_faults_do_not_lose_requests() {
        let mut config = SimConfig::fast();
        config.faults = FaultPlan {
            duplicate_prob: 0.2,
            duplicate_jitter: SimTime::from_micros(7),
        };
        let adc = AdcConfig::builder()
            .single_capacity(64)
            .multiple_capacity(64)
            .cache_capacity(32)
            .max_hops(6)
            .build();
        let sim = Simulation::new(adc_agents(3, adc), config);
        let report = sim.run(StationaryZipf::new(100, 0.9, 4, 5).take(2_000));
        assert_eq!(report.completed, 2_000);
        assert!(report.duplicates_injected > 100);
        // Duplicated replies to clients show up as orphans, and orphaned
        // replies at proxies are counted, not crashed on.
        let orphans: u64 = report.cluster_stats().replies_orphaned;
        assert!(orphans + report.client_orphans > 0);
    }

    #[test]
    fn sticky_vs_random_assignment_changes_first_hop_distribution() {
        let recs: Vec<RequestRecord> = (0..300)
            .map(|i| RequestRecord {
                seq: i,
                client: ClientId::new(0), // one client only
                object: ObjectId::new(i),
                size: 10,
                phase: Phase::Fill,
            })
            .collect();
        let carp = || carp_agents(3, 64);
        let sticky = Simulation::new(carp(), SimConfig::fast()).run(recs.clone());
        // Sticky: client 0 always hits proxy 0 first.
        assert!(sticky.per_proxy[0].requests_received >= 300);

        let mut config = SimConfig::fast();
        config.assignment = ClientAssignment::RandomPerRequest;
        let random = Simulation::new(carp(), config).run(recs);
        assert!(random.per_proxy[1].requests_received > 30);
        assert!(random.per_proxy[2].requests_received > 30);
    }

    #[test]
    fn phase_accounting_separates_fill_and_request_phases() {
        let config = AdcConfig::builder()
            .single_capacity(256)
            .multiple_capacity(256)
            .cache_capacity(128)
            .max_hops(8)
            .build();
        let workload = PolygraphConfig {
            fill_requests: 300,
            phase_requests: 600,
            hot_set: 50,
            recurrence: 0.8,
            fill_recurrence: 0.0,
            zipf_alpha: 0.8,
            clients: 10,
            seed: 3,
            exact_replay: true,
            size_model: adc_workload::SizeModel::default(),
        };
        let sim = Simulation::new(adc_agents(3, config), SimConfig::fast());
        let report = sim.run(workload.build());
        assert_eq!(report.phase(Phase::Fill).requests, 300);
        assert_eq!(report.phase(Phase::RequestI).requests, 600);
        assert_eq!(report.phase(Phase::RequestII).requests, 600);
        // Fill phase has no repeats, so (almost) no hits.
        assert_eq!(report.phase(Phase::Fill).hits, 0);
        // The replayed phase must hit more than the learning phase.
        assert!(
            report.phase(Phase::RequestII).hit_rate() > report.phase(Phase::RequestI).hit_rate()
        );
    }

    #[test]
    #[should_panic(expected = "dense 0..n")]
    fn non_dense_agent_ids_rejected() {
        let agents = vec![AdcProxy::with_peers(
            ProxyId::new(1),
            vec![ProxyId::new(1)],
            AdcConfig::default(),
        )];
        let _ = Simulation::new(agents, SimConfig::fast());
    }

    #[test]
    #[should_panic(expected = "at least one proxy")]
    fn empty_agent_set_rejected() {
        let _ = Simulation::new(Vec::<AdcProxy>::new(), SimConfig::fast());
    }
}

#[cfg(test)]
mod observed_tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy, CountingProbe, EventLog};
    use adc_obs::ConvergenceConfig;
    use adc_obs::EventKind as ObsEventKind;
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

    #[test]
    fn observed_run_matches_unobserved_run() {
        let workload = || StationaryZipf::new(120, 0.9, 6, 7).take(2_500);
        let plain = Simulation::new(adc_agents(3), SimConfig::fast()).run(workload());
        let mut probe = CountingProbe::new();
        let observed =
            Simulation::new(adc_agents(3), SimConfig::fast()).run_observed(workload(), &mut probe);
        // Attaching a probe must not perturb the simulation itself.
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(plain.hits, observed.hits);
        assert_eq!(plain.messages_delivered, observed.messages_delivered);
        assert_eq!(plain.hit_series, observed.hit_series);
        // Runner-level events account for every request exactly once.
        assert_eq!(probe.count(ObsEventKind::RequestInjected), 2_500);
        assert_eq!(
            probe.count(ObsEventKind::RequestCompleted),
            observed.completed
        );
        assert!(probe.total() > 2 * 2_500, "agent events missing");
    }

    #[test]
    fn event_log_timestamps_are_monotone_virtual_time() {
        let mut log = EventLog::new();
        let report = Simulation::new(adc_agents(2), SimConfig::fast())
            .run_observed(StationaryZipf::new(40, 0.9, 4, 3).take(400), &mut log);
        assert_eq!(report.completed, 400);
        assert!(!log.is_empty());
        assert_eq!(log.dropped(), 0);
        let times: Vec<u64> = log.events().iter().map(|&(t, _)| t).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "virtual time ran backwards"
        );
    }

    #[test]
    fn convergence_sampling_reports_rising_agreement() {
        let mut config = SimConfig::fast();
        config.convergence = Some(ConvergenceConfig {
            sample_every: 500,
            top_k: 32,
        });
        let report = Simulation::new(adc_agents(3), config)
            .run(StationaryZipf::new(100, 0.9, 6, 7).take(6_000));
        let conv = report.convergence.as_ref().expect("sampling was on");
        assert_eq!(conv.samples, (6_000 / 500) as usize);
        assert_eq!(conv.agreement.len(), conv.samples);
        // Backwarding drives the cluster toward agreement: the late
        // samples must agree more than the early ones on average.
        let early = conv.agreement.points[..conv.samples / 2]
            .iter()
            .map(|&(_, y)| y)
            .sum::<f64>()
            / (conv.samples / 2) as f64;
        let late = conv.agreement.points[conv.samples / 2..]
            .iter()
            .map(|&(_, y)| y)
            .sum::<f64>()
            / (conv.samples - conv.samples / 2) as f64;
        assert!(
            late >= early,
            "agreement should trend upward: early={early} late={late}"
        );
        assert!(conv.final_agreement().unwrap() > 0.5);
        // Convergence sampling alone must not disturb the run either.
        let plain = Simulation::new(adc_agents(3), SimConfig::fast())
            .run(StationaryZipf::new(100, 0.9, 6, 7).take(6_000));
        assert_eq!(plain.hits, report.hits);
        assert_eq!(plain.messages_delivered, report.messages_delivered);
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy};
    use adc_workload::StationaryZipf;

    #[test]
    fn churn_resets_fire_and_system_recovers() {
        let config = AdcConfig::builder()
            .single_capacity(128)
            .multiple_capacity(128)
            .cache_capacity(64)
            .max_hops(8)
            .build();
        let agents: Vec<AdcProxy> = (0..3)
            .map(|i| AdcProxy::new(ProxyId::new(i), 3, config.clone()))
            .collect();
        let mut sim_config = SimConfig::fast();
        sim_config.churn = vec![
            ChurnEvent {
                after_completed: 2_000,
                proxy: ProxyId::new(0),
            },
            ChurnEvent {
                after_completed: 2_500,
                proxy: ProxyId::new(1),
            },
        ];
        let sim = Simulation::new(agents, sim_config);
        let (report, agents) = sim.run_with_agents(StationaryZipf::new(80, 0.9, 8, 5).take(6_000));
        assert_eq!(report.proxies_reset, 2);
        assert_eq!(report.completed, 6_000);
        // After the restart the proxies relearn and keep hitting.
        let late = report
            .hit_series
            .tail_mean_y(0.2)
            .expect("series has points");
        assert!(late > 0.5, "system failed to recover after churn: {late}");
        for agent in &agents {
            agent.tables().assert_invariants();
        }
    }

    #[test]
    fn churn_against_workload_end_is_a_no_op() {
        let agents: Vec<AdcProxy> = vec![AdcProxy::new(
            ProxyId::new(0),
            1,
            AdcConfig::builder()
                .single_capacity(16)
                .multiple_capacity(16)
                .cache_capacity(8)
                .build(),
        )];
        let mut sim_config = SimConfig::fast();
        sim_config.churn = vec![ChurnEvent {
            after_completed: 1_000_000, // never reached
            proxy: ProxyId::new(0),
        }];
        let sim = Simulation::new(agents, sim_config);
        let report = sim.run(StationaryZipf::new(10, 0.9, 2, 1).take(100));
        assert_eq!(report.proxies_reset, 0);
        assert_eq!(report.completed, 100);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy, ClientId, ObjectId, RequestId};
    use adc_workload::{Phase, StationaryZipf};

    fn adc(n: u32) -> Vec<AdcProxy> {
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

    #[test]
    fn adc_backwarding_retraces_every_forward_path() {
        let mut config = SimConfig::fast();
        config.trace_capacity = 100_000;
        let sim = Simulation::new(adc(4), config);
        let records: Vec<RequestRecord> = StationaryZipf::new(60, 0.9, 6, 3).take(1_500).collect();
        let ids: Vec<RequestId> = records
            .iter()
            .map(|r| RequestId::new(r.client, r.seq))
            .collect();
        let report = sim.run(records);
        let log = report.trace.as_ref().expect("tracing was on");
        assert_eq!(log.dropped(), 0, "log capacity too small for the run");
        for id in ids {
            assert!(
                log.backwarding_retraces_forwarding(id),
                "flow {id} did not retrace: {:?}",
                log.flow(id)
            );
        }
    }

    #[test]
    fn byte_accounting_sums_to_served_volume() {
        let mut config = SimConfig::fast();
        config.trace_capacity = 0;
        let records: Vec<RequestRecord> = (0..200)
            .map(|i| RequestRecord {
                seq: i,
                client: ClientId::new(0),
                object: ObjectId::new(i % 10),
                size: 100,
                phase: Phase::RequestI,
            })
            .collect();
        let sim = Simulation::new(adc(2), config);
        let report = sim.run(records);
        assert!(report.trace.is_none());
        // Every completed request's body came from exactly one producer.
        assert_eq!(
            report.bytes_from_origin + report.bytes_from_caches,
            report.completed * 100
        );
        assert!(report.byte_hit_rate() > 0.0);
        // Byte hit rate equals object hit rate here (uniform sizes).
        assert!((report.byte_hit_rate() - report.hit_rate()).abs() < 1e-9);
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;
    use adc_core::{AdcConfig, AdcProxy};
    use adc_workload::StationaryZipf;

    #[test]
    fn occupancy_series_tracks_cache_fill() {
        let config = AdcConfig::builder()
            .single_capacity(64)
            .multiple_capacity(64)
            .cache_capacity(16)
            .max_hops(8)
            .build();
        let agents: Vec<AdcProxy> = (0..2)
            .map(|i| AdcProxy::new(ProxyId::new(i), 2, config.clone()))
            .collect();
        let config = SimConfig {
            sample_occupancy: true,
            ..SimConfig::fast()
        };
        let report =
            Simulation::new(agents, config).run(StationaryZipf::new(40, 0.9, 4, 3).take(3_000));
        assert_eq!(report.occupancy_series.len(), 2);
        for (i, series) in report.occupancy_series.iter().enumerate() {
            assert!(!series.is_empty(), "proxy {i} series empty");
            // Occupancy is monotone here (no displacement pressure) and
            // bounded by the cache capacity.
            let ys: Vec<f64> = series.points.iter().map(|&(_, y)| y).collect();
            assert!(ys.iter().all(|&y| y <= 16.0));
            assert!(ys.windows(2).all(|w| w[0] <= w[1] + 1e-9));
            // Final sample agrees with the final cache size.
            assert_eq!(*ys.last().unwrap() as usize, report.final_cache_sizes[i]);
        }
    }
}

#[cfg(test)]
mod matrix_tests {
    use super::*;
    use crate::network::LatencyModel;
    use adc_core::{AdcConfig, AdcProxy};
    use adc_workload::StationaryZipf;

    fn agents(n: u32) -> Vec<AdcProxy> {
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

    /// Two 2-proxy LAN islands joined by a slow WAN link.
    fn wan_matrix(lan: SimTime, wan: SimTime) -> Vec<Vec<SimTime>> {
        let island = |p: usize| p / 2;
        (0..4)
            .map(|a| {
                (0..4)
                    .map(|b| if island(a) == island(b) { lan } else { wan })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matrix_changes_latency_but_not_hits_or_hops() {
        let run = |matrix: Option<Vec<Vec<SimTime>>>| {
            let config = SimConfig {
                latency: LatencyModel::default(),
                hit_window: 500,
                sample_every: 500,
                proxy_latency_matrix: matrix,
                ..SimConfig::default()
            };
            Simulation::new(agents(4), config).run(StationaryZipf::new(50, 0.9, 8, 9).take(2_000))
        };
        let uniform = run(None);
        let wan = run(Some(wan_matrix(
            SimTime::from_millis(1),
            SimTime::from_millis(80),
        )));
        // Hits and hops are topology-independent...
        assert_eq!(uniform.hits, wan.hits);
        assert_eq!(uniform.hops.mean(), wan.hops.mean());
        // ...but the WAN topology costs real time.
        assert!(
            wan.latency_us.mean().unwrap() > uniform.latency_us.mean().unwrap(),
            "WAN {:?} should exceed uniform {:?}",
            wan.latency_us.mean(),
            uniform.latency_us.mean()
        );
        assert!(wan.latency_p99_us >= wan.latency_p50_us);
    }

    #[test]
    #[should_panic(expected = "must match the proxy count")]
    fn wrong_sized_matrix_rejected() {
        let mut config = SimConfig::fast();
        config.proxy_latency_matrix = Some(vec![vec![SimTime::ZERO; 2]; 2]);
        let _ = Simulation::new(agents(3), config);
    }

    #[test]
    #[should_panic(expected = "churn event names proxy 3")]
    fn churn_on_a_missing_proxy_rejected() {
        let mut config = SimConfig::fast();
        config.churn = vec![ChurnEvent {
            after_completed: 10,
            proxy: ProxyId::new(3),
        }];
        let _ = Simulation::new(agents(3), config);
    }

    #[test]
    fn non_square_matrix_rejected_by_validation() {
        let mut config = SimConfig::fast();
        config.proxy_latency_matrix = Some(vec![vec![SimTime::ZERO; 3], vec![SimTime::ZERO; 2]]);
        assert!(config.validate().is_err());
    }

    #[test]
    fn run_with_spans_reconciles_and_preserves_results() {
        let workload = || StationaryZipf::new(80, 0.9, 4, 11).take(2_000);
        let config = || SimConfig {
            injection: InjectionMode::OpenLoop {
                interval: SimTime::from_micros(80),
            },
            ..SimConfig::fast()
        };
        let plain = Simulation::new(agents(4), config()).run(workload());
        let observed = Simulation::new(agents(4), config()).run_with_spans(workload(), 5);
        // The span recorder is a pure consumer: deterministic bytes match.
        assert_eq!(
            plain.to_deterministic_json(),
            observed.to_deterministic_json()
        );
        let spans = observed.spans.expect("run_with_spans populates spans");
        assert_eq!(spans.flows, observed.completed);
        assert_eq!(spans.sum_check_failures, 0, "{spans:?}");
        assert_eq!(spans.attributed_us, spans.total_us, "{spans:?}");
        assert_eq!(spans.slowest.len(), 5);
        // Digest is sorted slowest-first and bounded by the total.
        assert!(spans
            .slowest
            .windows(2)
            .all(|w| w[0].total_us >= w[1].total_us));
    }
}
