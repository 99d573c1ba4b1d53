//! # adc-baselines
//!
//! Baseline distributed-caching schemes for comparison against ADC:
//!
//! * [`CarpProxy`] — the paper's baseline: CARP-style highest-random-
//!   weight hash routing ([`Hrw`]) with per-proxy LRU caches, replies
//!   returned directly to the client.
//! * [`ConsistentRing`] — consistent hashing with virtual nodes, usable
//!   with the same [`HashingProxy`] agent.
//! * [`HierarchyProxy`] — a Harvest-style caching tree in which every
//!   node stores all passing objects (the paper's other contrast class).
//! * [`SoapProxy`] — the ADC authors' earlier per-category design
//!   (§II.2), for lineage comparisons.
//! * [`BoundedLru`] — the plain LRU object cache they all use
//!   (re-exported from `adc_core::tables`).
//!
//! All agents implement [`adc_core::CacheAgent`] and can be driven by the
//! simulator or the TCP runtime interchangeably with ADC proxies.
//!
//! # Examples
//!
//! ```
//! use adc_baselines::{CarpProxy, Hrw, OwnerMap};
//! use adc_core::{CacheAgent, ObjectId, ProxyId};
//!
//! let proxy = CarpProxy::new(ProxyId::new(0), 5, 10_000);
//! // Every proxy agrees on who owns each object, with no communication.
//! let owner = proxy.owner_map().owner(ObjectId::new(123));
//! assert!(owner.raw() < 5);
//! ```

#![warn(missing_docs)]
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
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod hashing_proxy;
mod hierarchy;
mod owner;
mod soap;

pub use adc_core::tables::BoundedLru;
pub use hashing_proxy::{CarpProxy, HashingProxy};
pub use hierarchy::HierarchyProxy;
pub use owner::{ConsistentRing, Hrw, OwnerMap};
pub use soap::SoapProxy;
