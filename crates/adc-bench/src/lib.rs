//! # adc-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation section. Performance is measured by the separate
//! `perfbench` crate, not here.
//!
//! | Paper figure | Binary | Output |
//! |--------------|--------|--------|
//! | Fig. 11 (hit rate, ADC vs hashing) | `fig11_hit_rate` | `results/fig11_hit_rate_<scale>.csv` |
//! | Fig. 12 (hops, ADC vs hashing) | `fig12_hops` | `results/fig12_hops_<scale>.csv` |
//! | Fig. 13 (hits by table size) | `fig13_hits_by_size` | `results/fig13_hits_by_size_<scale>.csv` |
//! | Fig. 14 (hops by table size) | `fig14_hops_by_size` | `results/fig14_hops_by_size_<scale>.csv` |
//! | Fig. 15 (time by table size) | `fig15_time_by_size` | `results/fig15_time_by_size_<scale>.csv` |
//! | ablations (ours) | `ablation_policy`, `ablation_aging`, `ablation_max_hops` | `results/ablation_*.csv` |
//!
//! Run, for example:
//!
//! ```text
//! cargo run -p adc-bench --release --bin fig11_hit_rate -- --scale ci
//! ```
//!
//! Figures 13–15 share one 18-simulation sweep; its result is cached in
//! `results/sweep_<scale>.csv` so the three binaries compute it once.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiment;
pub mod netlive;
pub mod netmerge;
pub mod observe;
pub mod output;
pub mod parallel;
pub mod scale;
pub mod sweep;

pub use cli::BenchArgs;
pub use experiment::Experiment;
pub use netlive::{live_workload, replay_live, LiveReplay, LIVE_PROXIES};
pub use netmerge::{clock_offset_us, merge_node_traces, MergedTrace, NodeTrace, SegmentTotal};
pub use observe::{obs_enabled, observe_default_run, run_adc_observed};
pub use parallel::{default_jobs, run_jobs, ExperimentJob};
pub use scale::Scale;
pub use sweep::{
    load_or_run_sweep, load_or_run_sweep_with, run_sweep, run_sweep_with, SweepOptions, SweepPoint,
    SweptTable, NOMINAL_SIZES,
};
