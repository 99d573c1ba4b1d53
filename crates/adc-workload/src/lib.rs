//! # adc-workload
//!
//! Synthetic request workloads for the ADC reproduction.
//!
//! The paper evaluated against a ~3.99-million-request file produced by
//! the Web Polygraph benchmarking tool; [`PolygraphConfig`] generates a
//! deterministic stream with the same three-phase shape (fill → request
//! phase I → replayed request phase II), Zipf-like popularity and
//! heavy-tailed object sizes. [`StationaryZipf`], [`UniformWorkload`] and
//! [`FlashCrowd`] provide additional scenarios, and [`trace`] reads and
//! writes request traces as CSV.
//!
//! # Examples
//!
//! ```
//! use adc_workload::PolygraphConfig;
//!
//! // A 1/1000-scale version of the paper's workload.
//! let config = PolygraphConfig::scaled(0.001);
//! let requests: Vec<_> = config.build().collect();
//! assert_eq!(requests.len() as u64, config.total_requests());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Lint levels of DESIGN.md §8; the disallowed method, type and macro
// lists live in the root clippy.toml. Unit tests may compare floats
// exactly.
#![deny(
    unsafe_code,
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod analysis;
mod polygraph;
mod shared;
mod sizes;
mod synthetic;
pub mod trace;
mod zipf;

pub use polygraph::{Polygraph, PolygraphConfig};
pub use shared::{SharedTrace, SharedTraceIter};
pub use sizes::SizeModel;
pub use synthetic::{FlashCrowd, LruStackWorkload, ShiftingZipf, StationaryZipf, UniformWorkload};
pub use trace::{Phase, RequestRecord, TraceParseError};
pub use zipf::Zipf;
