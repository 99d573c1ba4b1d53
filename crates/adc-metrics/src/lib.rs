//! # adc-metrics
//!
//! Measurement utilities shared by the ADC simulator, benchmarks and
//! examples: the 5000-request [`MovingAverage`] from the paper's figures,
//! sampled [`Series`] for plotting, streaming [`Summary`] statistics,
//! [`Histogram`]s, tiny CSV export helpers (see [`csv`]), and the
//! per-proxy metric [`Registry`] with Prometheus text exposition (see
//! [`registry`]).
//!
//! # Examples
//!
//! Track a hit-rate curve the way Figure 11 of the paper does:
//!
//! ```
//! use adc_metrics::{MovingAverage, Sampler};
//!
//! let mut window = MovingAverage::new(5000);
//! let mut curve = Sampler::new("adc", 5000);
//! for i in 0..20_000u64 {
//!     let hit = i % 3 == 0;
//!     window.push_bool(hit);
//!     if let Some(rate) = window.value() {
//!         curve.observe(i as f64, rate);
//!     }
//! }
//! assert_eq!(curve.series().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Lint levels of DESIGN.md §8. Unit tests may compare floats exactly.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod csv;
mod histogram;
mod moving;
mod quantile;
pub mod registry;
mod series;
mod summary;
mod text;

pub use histogram::Histogram;
pub use moving::MovingAverage;
pub use quantile::P2Quantile;
pub use registry::{validate_prometheus, Log2Histogram, Registry, RegistrySnapshot};
pub use series::{Sampler, Series};
pub use summary::Summary;
pub use text::{sample, sample_value};
