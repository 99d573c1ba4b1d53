//! The repository benchmark for the ADC reproduction.
//!
//! Three workloads (`seq-fig11`, `openloop-sharded`, `live-loopback`)
//! exercise the simulator's plain runner, its sharded executor and the
//! live `adc-net` cluster. Everything is measured from outside, through
//! the library crates' public APIs: the agent layer through the
//! [`timed::Timed`] wrapper, the other layers by timing their public
//! entry points. See `README.md` beside this crate for the metrics, the
//! layer map and how to run it.

pub mod chrome;
pub mod live;
pub mod measure;
pub mod micro;
pub mod run;
pub mod timed;
