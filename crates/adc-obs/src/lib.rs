//! Structured observability for the ADC reproduction.
//!
//! This crate defines the typed event taxonomy ([`SimEvent`]), the
//! zero-cost [`Probe`] trait agents and runtimes are generic over, an
//! in-memory bounded recorder ([`EventLog`]), exporters (JSON Lines and
//! chrome://tracing `trace_event`), and the convergence sampler that
//! turns mapping-table snapshots into agreement/remap/churn series.
//!
//! It sits *below* `adc-core` in the dependency graph — the agent trait
//! itself takes a `Probe` type parameter — so events carry raw integer
//! ids instead of the core newtypes.

#![warn(missing_docs, unreachable_pub)]
// Lint levels of DESIGN.md §8. Unit tests may compare floats exactly.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod chrome;
pub mod convergence;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod log;
pub mod metrics;
pub mod netspan;
pub mod probe;
pub mod span;

pub use chrome::{
    shard_lanes_to_chrome_trace, to_chrome_trace, write_chrome_trace, write_shard_lanes, ShardSlice,
};
pub use convergence::{ConvergenceConfig, ConvergenceReport, ConvergenceTracker};
pub use event::{EventKind, SimEvent, TableLevel};
pub use json::validate_json;
pub use jsonl::{to_jsonl_string, write_event_json, write_jsonl};
pub use log::EventLog;
pub use metrics::{MetricsProbe, MetricsReport, ProxyMetricsSummary};
pub use netspan::{
    derive_span_id, derive_trace_id, net_lanes_to_chrome_trace, net_spans_to_jsonl, parse_net_span,
    parse_net_spans_jsonl, write_net_lanes, write_net_span_json, NetLane, NetSpan, SpanRing,
    CLIENT_LANE, NET_LANES_PID, ORIGIN_LANE,
};
pub use probe::{CountingProbe, NullProbe, Probe};
pub use span::{ProxySpans, SegmentKind, SegmentStat, SlowFlow, SpanProbe, SpanReport};
