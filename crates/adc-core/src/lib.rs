//! # adc-core — Adaptive Distributed Caching
//!
//! Core implementation of the ADC algorithm from *"A Study of the
//! Performance and Parameter Sensitivity of Adaptive Distributed Caching"*
//! (Kaiser, Tsui, Liu — ICDCS 2003): a self-organizing distributed
//! proxy-cache scheme in which every proxy learns, purely from local
//! observations, which peer is responsible for each object — no central
//! coordinator, no broadcasts.
//!
//! The four mechanisms (§III of the paper):
//!
//! 1. **Request forwarding & looping** — misses are forwarded to the
//!    learned location or a random peer; loops and hop-limit hits
//!    terminate at the origin server.
//! 2. **Multicasting by backwarding** — replies retrace the forwarding
//!    path and carry the resolver's address, so whole groups of proxies
//!    agree on one location per object for free.
//! 3. **Mapping tables** — bounded single- (LRU), multiple- and caching
//!    tables ordered by average inter-request time.
//! 4. **Selective caching with aging** — only objects whose request
//!    frequency beats the current cache's worst entry are stored; the
//!    aging rule `(avg + (now − last)) / 2` lets stale entries decay.
//!
//! The agent is **sans-IO**: it consumes messages and returns actions, so
//! the same code runs under the deterministic discrete-event simulator
//! (`adc-sim`) and the TCP runtime (`adc-net`).
//!
//! # Examples
//!
//! Build a proxy, miss on an object, resolve it via the origin and watch
//! the proxy learn the mapping:
//!
//! ```
//! use adc_core::{
//!     Action, AdcConfig, AdcProxy, CacheAgent, ClientId, Location, Message, NodeId,
//!     ObjectId, ProxyId, Reply, Request, RequestId,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut proxy = AdcProxy::new(ProxyId::new(0), 1, AdcConfig::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let client = ClientId::new(0);
//! let request = Request::new(RequestId::new(client, 0), ObjectId::new(7), client);
//!
//! // Miss: the proxy forwards the request (here: to itself or the origin).
//! let Action::Send { message, .. } = proxy.request_action(request, &mut rng);
//! let forwarded = match message {
//!     Message::Request(r) => r,
//!     _ => unreachable!(),
//! };
//!
//! // The origin resolves it; the reply backtracks through the proxy.
//! let reply = Reply::from_origin(&forwarded, 1024);
//! proxy.reply_action(reply);
//!
//! // The proxy has learned that it is responsible for object 7.
//! let entry = proxy.tables().lookup(ObjectId::new(7)).unwrap();
//! assert_eq!(entry.location, Location::This);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![warn(missing_debug_implementations)]
// Lint levels of DESIGN.md §8; the disallowed method and type lists
// live in the root clippy.toml. Unit tests may compare floats exactly.
#![deny(
    unsafe_code,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::dbg_macro,
    clippy::allow_attributes_without_reason,
    clippy::indexing_slicing
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod agent;
mod backwarding;
mod config;
mod entry;
mod error;
mod forwarding;
mod ids;
mod message;
mod proxy;
mod snapshot;
mod stats;
pub mod tables;
mod unlimited;

pub use agent::{Action, ActionSink, CacheAgent, CacheEvent};
pub use backwarding::Backwarding;
pub use config::{AdcConfig, AdcConfigBuilder, AgingMode, CachePolicy};
pub use entry::{TableEntry, Tick};
pub use error::ConfigError;
pub use forwarding::ForwardingCore;
pub use ids::{ClientId, Location, NodeId, ObjectId, ProxyId, RequestId};
pub use message::{Message, Reply, Request, ServedFrom};
pub use proxy::{AdcProxy, DEFAULT_OBJECT_SIZE};
pub use snapshot::{ProxySnapshot, SnapshotError};
pub use stats::{ProxyStats, Tally};
pub use unlimited::UnlimitedAdcProxy;

// Observability vocabulary, re-exported so agent implementors and
// runtimes need only depend on `adc-core`.
pub use adc_obs::{CountingProbe, EventKind, EventLog, NullProbe, Probe, SimEvent, TableLevel};
