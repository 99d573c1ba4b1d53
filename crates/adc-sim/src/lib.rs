//! # adc-sim
//!
//! A deterministic discrete-event simulator for cooperative proxy
//! systems: seeded clients inject a workload, proxies (any
//! [`adc_core::CacheAgent`] — ADC or a baseline) exchange messages over a
//! latency-modelled network, and an always-resolving origin server backs
//! the whole system. The simulator does the paper's accounting: hits are
//! requests served by any proxy cache, a hop is any message transfer
//! between distinct nodes, and hit/hop curves are 5000-request moving
//! averages.
//!
//! A run is a pure function of `(workload, agents, SimConfig)` — every
//! RNG is seeded, events are totally ordered, and repeated runs produce
//! identical reports (modulo wall-clock time).
//!
//! # Examples
//!
//! Simulate 5 ADC proxies against a small Polygraph-like workload:
//!
//! ```
//! use adc_core::{AdcConfig, AdcProxy, ProxyId};
//! use adc_sim::{SimConfig, Simulation};
//! use adc_workload::PolygraphConfig;
//!
//! let agents: Vec<AdcProxy> = (0..5)
//!     .map(|i| AdcProxy::new(ProxyId::new(i), 5, AdcConfig::default()))
//!     .collect();
//! let sim = Simulation::new(agents, SimConfig::fast());
//! let report = sim.run(PolygraphConfig::scaled(0.002).build());
//! assert_eq!(report.completed, PolygraphConfig::scaled(0.002).total_requests());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Lint levels of DESIGN.md §8; the disallowed method, type and macro
// lists live in the root clippy.toml. Unit tests may compare floats
// exactly and match one remaining variant with `_`.
#![deny(
    unsafe_code,
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::wildcard_enum_match_arm,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    not(test),
    deny(clippy::float_cmp, clippy::match_wildcard_for_single_variants)
)]

mod config;
mod cputime;
mod flows;
mod model;
mod network;
mod pool;
mod queue;
mod report;
mod runner;
mod sharded;
mod time;
mod tracelog;

pub use config::{ChurnEvent, ClientAssignment, FaultPlan, InjectionMode, ShardTuning, SimConfig};
pub use cputime::thread_cpu_now;
pub use flows::FlowTable;
pub use network::LatencyModel;
pub use queue::CalendarQueue;
pub use report::{PhaseStats, ShardExecStats, ShardProfile, SimReport};
pub use runner::Simulation;
pub use time::SimTime;
pub use tracelog::{DeliveryRecord, TraceLog};

// Convergence sampling and metrics vocabulary, re-exported so simulator
// users can configure and read them without a direct `adc-obs`
// dependency.
pub use adc_obs::{
    ConvergenceConfig, ConvergenceReport, MetricsProbe, MetricsReport, ProxyMetricsSummary,
    SegmentKind, SpanProbe, SpanReport,
};
