//! The standard experiment setup shared by every figure.
//!
//! The paper's §V.2 settings: 5 proxies, 20 k single-table, 20 k
//! multiple-table, 10 k caching table, a ~3.99 M-request Polygraph
//! workload, hit/hop curves as 5000-request moving averages.

use crate::scale::Scale;
use adc_baselines::CarpProxy;
use adc_core::{AdcConfig, AdcProxy, CacheAgent, ProxyId};
use adc_sim::{SimConfig, SimReport, Simulation};
use adc_workload::{PolygraphConfig, SharedTrace};

/// A fully specified experiment: cluster size, ADC parameters, workload
/// and simulator settings.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Number of cooperating proxies (paper: 5).
    pub proxies: u32,
    /// ADC table configuration.
    pub adc: AdcConfig,
    /// The request workload.
    pub workload: PolygraphConfig,
    /// Simulator settings (latency model, windows, seed).
    pub sim: SimConfig,
}

impl Experiment {
    /// The paper's experiment at the given scale: workload, table sizes
    /// and measurement windows all shrink together.
    pub fn at_scale(scale: Scale) -> Self {
        let adc = AdcConfig::builder()
            .single_capacity(scale.size(20_000))
            .multiple_capacity(scale.size(20_000))
            .cache_capacity(scale.size(10_000))
            .max_hops(16)
            .build();
        let sim = SimConfig {
            hit_window: scale.window(5_000),
            sample_every: scale.window(5_000) as u64,
            ..SimConfig::default()
        };
        Experiment {
            proxies: 5,
            adc,
            workload: PolygraphConfig::scaled(scale.factor()),
            sim,
        }
    }

    /// Builds the ADC proxy agents for this experiment.
    pub fn adc_agents(&self) -> Vec<AdcProxy> {
        (0..self.proxies)
            .map(|i| AdcProxy::new(ProxyId::new(i), self.proxies, self.adc.clone()))
            .collect()
    }

    /// Builds CARP baseline agents with the same cache budget as the ADC
    /// caching table.
    pub fn carp_agents(&self) -> Vec<CarpProxy> {
        (0..self.proxies)
            .map(|i| CarpProxy::new(ProxyId::new(i), self.proxies, self.adc.cache_capacity))
            .collect()
    }

    /// Materializes this experiment's workload once for sharing across
    /// runs (`run_*_on` variants). The records are exactly what
    /// `self.workload.build()` would regenerate.
    pub fn trace(&self) -> SharedTrace {
        self.workload.materialize()
    }

    /// Runs the ADC system over the workload.
    pub fn run_adc(&self) -> SimReport {
        Simulation::new(self.adc_agents(), self.sim.clone()).run(self.workload.build())
    }

    /// Runs the CARP baseline over the same workload.
    pub fn run_carp(&self) -> SimReport {
        Simulation::new(self.carp_agents(), self.sim.clone()).run(self.workload.build())
    }

    /// Runs ADC with an alternative table configuration (parameter
    /// sweeps, ablations), leaving everything else identical.
    pub fn run_adc_with(&self, adc: AdcConfig) -> SimReport {
        let agents: Vec<AdcProxy> = (0..self.proxies)
            .map(|i| AdcProxy::new(ProxyId::new(i), self.proxies, adc.clone()))
            .collect();
        Simulation::new(agents, self.sim.clone()).run(self.workload.build())
    }

    /// [`run_adc`](Self::run_adc) over a pre-materialized trace.
    pub fn run_adc_on(&self, trace: &SharedTrace) -> SimReport {
        Simulation::new(self.adc_agents(), self.sim.clone()).run(trace.iter())
    }

    /// [`run_adc_on`](Self::run_adc_on) on the sharded executor.
    /// Sequential injection reproduces `run_adc_on` byte-for-byte at any
    /// shard count; open-loop injection is invariant in `shards`.
    ///
    /// # Panics
    ///
    /// As [`Simulation::run_sharded`] (zero shards, faults/churn/tracing
    /// enabled, or a zero-latency network).
    pub fn run_adc_sharded_on(&self, trace: &SharedTrace, shards: usize) -> SimReport {
        Simulation::new(self.adc_agents(), self.sim.clone()).run_sharded(trace.iter(), shards)
    }

    /// [`run_carp_on`](Self::run_carp_on) on the sharded executor.
    ///
    /// # Panics
    ///
    /// As [`Simulation::run_sharded`].
    pub fn run_carp_sharded_on(&self, trace: &SharedTrace, shards: usize) -> SimReport {
        Simulation::new(self.carp_agents(), self.sim.clone()).run_sharded(trace.iter(), shards)
    }

    /// [`run_adc_on`](Self::run_adc_on) with the causal flow-span
    /// recorder attached: the report additionally carries
    /// [`SimReport::spans`] (per-segment / per-proxy latency attribution
    /// and the `top_k` slowest flows). Deterministic fields are
    /// identical to the unobserved run.
    pub fn run_adc_spans_on(&self, trace: &SharedTrace, top_k: usize) -> SimReport {
        Simulation::new(self.adc_agents(), self.sim.clone()).run_with_spans(trace.iter(), top_k)
    }

    /// [`run_carp`](Self::run_carp) over a pre-materialized trace.
    pub fn run_carp_on(&self, trace: &SharedTrace) -> SimReport {
        Simulation::new(self.carp_agents(), self.sim.clone()).run(trace.iter())
    }

    /// [`run_adc_with`](Self::run_adc_with) over a pre-materialized
    /// trace.
    pub fn run_adc_with_on(&self, adc: AdcConfig, trace: &SharedTrace) -> SimReport {
        let agents: Vec<AdcProxy> = (0..self.proxies)
            .map(|i| AdcProxy::new(ProxyId::new(i), self.proxies, adc.clone()))
            .collect();
        Simulation::new(agents, self.sim.clone()).run(trace.iter())
    }

    /// Runs arbitrary agents under this experiment's simulator settings
    /// over a pre-materialized trace, returning the report and the
    /// agents for post-run inspection.
    pub fn run_agents_on<A: CacheAgent>(
        &self,
        agents: Vec<A>,
        trace: &SharedTrace,
    ) -> (SimReport, Vec<A>) {
        Simulation::new(agents, self.sim.clone()).run_with_agents(trace.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_experiment_is_consistent() {
        let e = Experiment::at_scale(Scale::Custom(0.01));
        assert_eq!(e.proxies, 5);
        assert_eq!(e.adc.single_capacity, 200);
        assert_eq!(e.adc.cache_capacity, 100);
        assert_eq!(e.workload.total_requests(), 39_900);
        assert_eq!(e.sim.hit_window, 100);
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let e = Experiment::at_scale(Scale::Custom(0.002));
        let adc = e.run_adc();
        let carp = e.run_carp();
        assert_eq!(adc.completed, e.workload.total_requests());
        assert_eq!(carp.completed, e.workload.total_requests());
        // Both systems get a meaningful number of hits on the replayed
        // phases.
        assert!(adc.hits > 0);
        assert!(carp.hits > 0);
    }

    #[test]
    fn shared_trace_matches_regeneration() {
        let e = Experiment::at_scale(Scale::Custom(0.001));
        let trace = e.trace();
        assert_eq!(trace.len() as u64, e.workload.total_requests());
        let fresh = e.run_adc();
        let shared = e.run_adc_on(&trace);
        assert_eq!(shared.completed, fresh.completed);
        assert_eq!(shared.hits, fresh.hits);
        assert_eq!(shared.phases, fresh.phases);
        assert_eq!(shared.messages_delivered, fresh.messages_delivered);
        let (via_agents, agents) = e.run_agents_on(e.carp_agents(), &trace);
        assert_eq!(agents.len(), e.proxies as usize);
        assert_eq!(via_agents.completed, e.run_carp_on(&trace).completed);
    }

    #[test]
    fn sharded_run_matches_the_single_threaded_runner() {
        let e = Experiment::at_scale(Scale::Custom(0.001));
        let trace = e.trace();
        let single = e.run_adc_on(&trace);
        for shards in [1, 3, 4] {
            let sharded = e.run_adc_sharded_on(&trace, shards);
            assert_eq!(
                single.to_deterministic_json(),
                sharded.to_deterministic_json(),
                "sharded ({shards}) diverged from the single-threaded run"
            );
        }
        let carp = e.run_carp_on(&trace);
        let carp_sharded = e.run_carp_sharded_on(&trace, 4);
        assert_eq!(
            carp.to_deterministic_json(),
            carp_sharded.to_deterministic_json()
        );
    }

    #[test]
    fn span_run_observes_without_perturbing() {
        let e = Experiment::at_scale(Scale::Custom(0.001));
        let trace = e.trace();
        let plain = e.run_adc_on(&trace);
        let spans = e.run_adc_spans_on(&trace, 3);
        assert_eq!(plain.to_deterministic_json(), spans.to_deterministic_json());
        let span_report = spans.spans.expect("span run fills the report");
        assert_eq!(span_report.flows, plain.completed);
        assert_eq!(span_report.sum_check_failures, 0);
    }
}
