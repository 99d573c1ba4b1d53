//! # adc — Adaptive Distributed Caching
//!
//! A complete reproduction of *"A Study of the Performance and Parameter
//! Sensitivity of Adaptive Distributed Caching"* (Kaiser, Tsui, Liu —
//! ICDCS 2003): the self-organizing ADC proxy algorithm, the CARP-style
//! hashing baseline, a deterministic discrete-event simulator, a
//! Polygraph-like workload generator, a TCP runtime, and the
//! benchmark harness that regenerates every figure of the paper.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * `adc_core` (re-exported flat) — the ADC algorithm itself;
//! * [`baselines`] — CARP/HRW hash routing, consistent hashing, LRU;
//! * [`sim`] — the discrete-event simulator;
//! * [`workload`] — Zipf, Polygraph-like streams, traces;
//! * [`metrics`] — moving averages, series, summaries, CSV;
//! * [`net`] — the TCP deployment.
//!
//! # Examples
//!
//! The headline experiment in six lines (a scaled-down Figure 11):
//!
//! ```
//! use adc::prelude::*;
//!
//! let experiment_scale = 0.002;
//! let workload = PolygraphConfig::scaled(experiment_scale);
//! let agents = adc::adc_cluster(5, AdcConfig::builder()
//!     .single_capacity(64).multiple_capacity(64).cache_capacity(32).build());
//! let report = Simulation::new(agents, SimConfig::fast()).run(workload.build());
//! assert_eq!(report.completed, workload.total_requests());
//! ```

#![warn(missing_docs)]

pub mod guide;

pub use adc_baselines as baselines;
pub use adc_core::*;
pub use adc_metrics as metrics;
pub use adc_net as net;
pub use adc_sim as sim;
pub use adc_workload as workload;

/// The most commonly used items from every crate, for glob import.
pub mod prelude {
    pub use adc_baselines::{
        BoundedLru, CarpProxy, ConsistentRing, HashingProxy, HierarchyProxy, Hrw, OwnerMap,
        SoapProxy,
    };
    pub use adc_core::{
        Action, AdcConfig, AdcProxy, AgingMode, CacheAgent, CachePolicy, ClientId, Location,
        Message, NodeId, ObjectId, ProxyId, ProxySnapshot, ProxyStats, Reply, Request, RequestId,
        ServedFrom, TableEntry, UnlimitedAdcProxy,
    };
    pub use adc_metrics::{Histogram, MovingAverage, Sampler, Series, Summary};
    pub use adc_net::Cluster;
    pub use adc_sim::{
        ChurnEvent, ClientAssignment, FaultPlan, InjectionMode, LatencyModel, SimConfig, SimReport,
        SimTime, Simulation,
    };
    pub use adc_workload::{
        FlashCrowd, Phase, PolygraphConfig, RequestRecord, ShiftingZipf, SizeModel, StationaryZipf,
        UniformWorkload, Zipf,
    };
}

use adc_baselines::CarpProxy;

/// Builds a dense cluster of `n` ADC proxies sharing one configuration.
///
/// # Panics
///
/// Panics if `n` is zero or the configuration is invalid.
///
/// # Examples
///
/// ```
/// use adc::prelude::*;
///
/// let agents = adc::adc_cluster(5, AdcConfig::default());
/// assert_eq!(agents.len(), 5);
/// ```
pub fn adc_cluster(n: u32, config: AdcConfig) -> Vec<AdcProxy> {
    assert!(n > 0, "need at least one proxy");
    (0..n)
        .map(|i| AdcProxy::new(ProxyId::new(i), n, config.clone()))
        .collect()
}

/// Builds a dense cluster of `n` CARP hashing proxies with per-proxy LRU
/// caches of `cache_capacity` objects.
///
/// # Panics
///
/// Panics if `n` or `cache_capacity` is zero.
///
/// # Examples
///
/// ```
/// let agents = adc::carp_cluster(5, 10_000);
/// assert_eq!(agents.len(), 5);
/// ```
pub fn carp_cluster(n: u32, cache_capacity: usize) -> Vec<CarpProxy> {
    assert!(n > 0, "need at least one proxy");
    (0..n)
        .map(|i| CarpProxy::new(ProxyId::new(i), n, cache_capacity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn clusters_have_dense_ids() {
        let adc = crate::adc_cluster(3, AdcConfig::default());
        for (i, a) in adc.iter().enumerate() {
            assert_eq!(a.proxy_id(), ProxyId::new(i as u32));
        }
        let carp = crate::carp_cluster(3, 10);
        for (i, a) in carp.iter().enumerate() {
            assert_eq!(a.proxy_id(), ProxyId::new(i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "at least one proxy")]
    fn zero_proxies_rejected() {
        let _ = crate::adc_cluster(0, AdcConfig::default());
    }
}
