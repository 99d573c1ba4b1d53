//! # adc-net
//!
//! A TCP runtime for the ADC system — the paper's future-work item of
//! "the creation of a real proxy system".
//!
//! The same sans-IO agents that run under the deterministic simulator
//! ([`adc_core::AdcProxy`], the baselines in `adc-baselines`) are wrapped
//! in socket plumbing here: a length-prefixed binary [`protocol`], a lazy
//! outbound connection [`transport::Pool`], proxy/origin nodes and a
//! request/reply [`NetClient`]. Object bodies are real bytes, generated
//! deterministically by the origin so end-to-end integrity is checkable.
//!
//! # Threads
//!
//! Sockets are blocking `std::net` sockets on plain threads:
//!
//! - one accept thread per node (each proxy, the origin, each client);
//! - one reader thread per inbound connection, reading through a
//!   [`transport::FrameReader`]; a proxy's or the origin's reader runs the
//!   frame through the node and writes what it sends itself;
//! - no thread that only writes: whichever thread made a frame writes it
//!   whole under its destination's lock in [`transport::Pool`].
//!
//! The public calls stay `async` (run them under
//! `tokio::runtime::block_on` or `#[tokio::main]`): a client's request
//! awaits its reply on a oneshot channel that its reply reader fills.
//!
//! # Examples
//!
//! ```no_run
//! use adc_core::{AdcConfig, ClientId, ObjectId, ProxyId};
//! use adc_net::Cluster;
//!
//! # async fn demo() -> std::io::Result<()> {
//! let cluster = Cluster::spawn_adc(5, AdcConfig::default()).await?;
//! let client = cluster.client(ClientId::new(0)).await?;
//! let (reply, body) = client
//!     .request(ObjectId::from_url("http://example.com/"), ProxyId::new(2))
//!     .await?;
//! assert_eq!(reply.size as usize, body.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Lint levels of DESIGN.md §8.
#![deny(
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason
)]

mod book;
mod client;
mod cluster;
mod driver;
mod flight;
mod node;
pub mod protocol;
mod trace;
pub mod transport;

pub use book::AddressBook;
pub use client::{scrape_metrics, scrape_trace, NetClient, TraceScrapeResult};
pub use cluster::{Cluster, ClusterOptions};
pub use driver::{drive_workload, drive_workload_traced, DriveReport, TracedDriveReport};
pub use flight::FlightRecorder;
pub use node::{origin_body, render_node_metrics, OriginNode, ProxyNode};
pub use trace::{NodeTracer, TraceCounters};
