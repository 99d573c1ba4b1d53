//! Simulation configuration.

use crate::network::LatencyModel;
use crate::time::SimTime;
use adc_core::ProxyId;
use adc_obs::ConvergenceConfig;

/// How client requests enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionMode {
    /// One outstanding request at a time: the next request is injected
    /// when the previous one completes. This mirrors replaying a request
    /// file through the system and keeps per-proxy clocks aligned with
    /// the global request order.
    #[default]
    Sequential,
    /// Open-loop arrivals at a fixed interval; flows overlap.
    OpenLoop {
        /// Inter-arrival time between consecutive requests.
        interval: SimTime,
    },
}

/// How a request's client is mapped to its first-hop proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientAssignment {
    /// Client `c` always talks to proxy `c mod n` (Polygraph robots are
    /// pinned to proxies).
    #[default]
    Sticky,
    /// Every request picks a uniformly random first-hop proxy.
    RandomPerRequest,
}

/// Fault injection knobs. All default to off; the paper assumes a
/// loss-free network.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that any delivered message is delivered a second time
    /// (tests duplicate-suppression / orphan-reply handling).
    pub duplicate_prob: f64,
    /// Extra latency jitter applied to duplicated deliveries.
    pub duplicate_jitter: SimTime,
}

impl FaultPlan {
    /// Returns `true` when no faults are configured.
    pub fn is_clean(&self) -> bool {
        // Exact-zero sentinel means "faults disabled"; the value is only
        // ever set, never computed.
        self.duplicate_prob == 0.0
    }
}

/// A scheduled proxy restart: after `after_completed` requests have
/// finished, the proxy forgets all learned state (tables, cache,
/// pending).
///
/// The paper lists "changes of the infrastructure" as an unused
/// parameter; churn injection lets the ablation binaries study it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Number of completed requests after which the restart fires.
    pub after_completed: u64,
    /// The proxy to restart.
    pub proxy: ProxyId,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Network latencies.
    pub latency: LatencyModel,
    /// Arrival process.
    pub injection: InjectionMode,
    /// Client → first-hop proxy mapping.
    pub assignment: ClientAssignment,
    /// Fault injection.
    pub faults: FaultPlan,
    /// Scheduled proxy restarts (empty by default).
    pub churn: Vec<ChurnEvent>,
    /// When non-zero, record up to this many message deliveries in the
    /// report's [`TraceLog`](crate::TraceLog).
    pub trace_capacity: usize,
    /// Optional per-pair proxy↔proxy latencies (row = sender, column =
    /// receiver), overriding the class model's uniform `proxy_proxy`
    /// value — e.g. two LAN clusters joined by a WAN link. Must be a
    /// square matrix matching the proxy count.
    pub proxy_latency_matrix: Option<Vec<Vec<SimTime>>>,
    /// Window length for moving-average series (the paper uses 5000).
    pub hit_window: usize,
    /// Keep one series point per this many completed requests.
    pub sample_every: u64,
    /// Record per-proxy cache-occupancy series
    /// ([`SimReport::occupancy_series`](crate::SimReport::occupancy_series)).
    /// Off by default: it reads every proxy's cache size at every
    /// completion, which costs measurable time, and no figure writes the
    /// series out. A run that samples goes to the single-queue runner
    /// under [`Simulation::run_sharded`](crate::Simulation::run_sharded)
    /// too, since it reads agent state at completion instants.
    pub sample_occupancy: bool,
    /// When set, periodically snapshot every agent's
    /// [`owner_hint`](adc_core::CacheAgent::owner_hint) for the hottest
    /// objects and report cluster-wide mapping agreement, remaps and
    /// churn as a [`ConvergenceReport`](adc_obs::ConvergenceReport). Off
    /// (`None`) by default — the sampling walks every agent once per
    /// interval, so it is opt-in like tracing. Like occupancy sampling,
    /// it keeps a run on the single-queue runner.
    pub convergence: Option<ConvergenceConfig>,
    /// Seed for all simulator-side randomness (agent RNG, assignment,
    /// faults). A run is a pure function of (workload, agents, config).
    pub seed: u64,
    /// Execution-profiler switch for the runs
    /// [`Simulation::run_sharded`](crate::Simulation::run_sharded)
    /// executes on the sharded engine. Pure measurement: the report
    /// bytes are the same with it on or off, so the single-threaded
    /// runner (which also executes every `run_sharded` call the engine
    /// does not) ignores this field entirely.
    pub shard: ShardTuning,
}

/// The sharded engine's one setting. Its synchronization layer has no
/// knobs: the pool sizes itself to the host, every window is one
/// lookahead step, and completions fold at every barrier (DESIGN.md
/// §6c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardTuning {
    /// Collect the wall-clock execution profile
    /// ([`SimReport::shard_profile`](crate::SimReport::shard_profile)):
    /// per-shard drain times, coordinator barrier-wait time, and
    /// window-occupancy and outbox-depth histograms. Pure measurement —
    /// the deterministic report bytes never move — but each window pays
    /// a few clock reads, so it is off by default.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            injection: InjectionMode::default(),
            assignment: ClientAssignment::default(),
            faults: FaultPlan::default(),
            churn: Vec::new(),
            trace_capacity: 0,
            proxy_latency_matrix: None,
            hit_window: 5_000,
            sample_every: 5_000,
            sample_occupancy: false,
            convergence: None,
            seed: 0xADC0_5EED,
            shard: ShardTuning::default(),
        }
    }
}

impl SimConfig {
    /// A configuration tuned for fast tests: instant network, small
    /// windows.
    pub fn fast() -> Self {
        SimConfig {
            latency: LatencyModel::instant(),
            hit_window: 500,
            sample_every: 500,
            ..SimConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.hit_window == 0 {
            return Err("hit_window must be positive".into());
        }
        if self.sample_every == 0 {
            return Err("sample_every must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.faults.duplicate_prob) {
            return Err("duplicate_prob must be in [0, 1]".into());
        }
        if let Some(matrix) = &self.proxy_latency_matrix {
            if matrix.iter().any(|row| row.len() != matrix.len()) {
                return Err("proxy_latency_matrix must be square".into());
            }
        }
        if let Some(conv) = &self.convergence {
            if conv.sample_every == 0 {
                return Err("convergence.sample_every must be positive".into());
            }
            if conv.top_k == 0 {
                return Err("convergence.top_k must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_measurement_setup() {
        let c = SimConfig::default();
        assert_eq!(c.hit_window, 5_000);
        assert_eq!(c.injection, InjectionMode::Sequential);
        assert!(c.faults.is_clean());
        assert!(!c.sample_occupancy);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = SimConfig {
            hit_window: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            sample_every: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.faults.duplicate_prob = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fast_config_is_valid() {
        assert!(SimConfig::fast().validate().is_ok());
    }

    #[test]
    fn convergence_config_validated() {
        let mut c = SimConfig {
            convergence: Some(ConvergenceConfig::default()),
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
        c.convergence = Some(ConvergenceConfig {
            sample_every: 0,
            top_k: 8,
        });
        assert!(c.validate().is_err());
        c.convergence = Some(ConvergenceConfig {
            sample_every: 100,
            top_k: 0,
        });
        assert!(c.validate().is_err());
    }
}
