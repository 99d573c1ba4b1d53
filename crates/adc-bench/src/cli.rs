//! Minimal command-line parsing shared by the figure binaries.
//!
//! Every binary accepts:
//!
//! * `--scale ci|full|<factor>` — experiment scale (default `ci`);
//! * `--out <dir>` — output directory for CSV files (default `results`);
//! * `--seed <u64>` — workload/simulator seed override;
//! * `--jobs <n>` — worker threads for independent runs (default: the
//!   machine's available parallelism);
//! * `--serial-timing` — after a parallel sweep, re-run the
//!   timing-sensitive points sequentially so wall-clock numbers are not
//!   inflated by core sharing (Figure 15);
//! * `--events <file>` — capture the typed simulation event stream of
//!   the main ADC run as JSON-Lines;
//! * `--chrome-trace <file>` — export the same stream as a
//!   `chrome://tracing` / Perfetto `trace_event` file;
//! * `--convergence` — sample mapping-table convergence (agreement,
//!   remaps, churn) during the main ADC run;
//! * `--metrics <file>` — fold the main ADC run's events into the
//!   per-proxy metrics registry and write the Prometheus text
//!   exposition to this file;
//! * `--spans <file.json>` — attach the causal flow-span recorder to the
//!   main ADC run and write the per-segment / per-proxy latency
//!   attribution report.
//!
//! Every figure replays its trace one request at a time (sequential
//! injection), which the single-queue runner executes; the sharded
//! engine runs open loop only, so no binary takes a shard count.

use crate::parallel::default_jobs;
use crate::scale::Scale;
use std::path::PathBuf;

/// Parsed common arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Output directory.
    pub out: PathBuf,
    /// Optional seed override.
    pub seed: Option<u64>,
    /// Worker threads for independent simulation runs.
    pub jobs: usize,
    /// Re-run timing-sensitive points serially after a parallel sweep.
    pub serial_timing: bool,
    /// Write the main ADC run's event stream to this JSON-Lines file.
    pub events: Option<PathBuf>,
    /// Write the main ADC run's events as a `chrome://tracing` file.
    pub chrome_trace: Option<PathBuf>,
    /// Sample mapping-table convergence during the main ADC run.
    pub convergence: bool,
    /// Write the main ADC run's Prometheus text exposition to this file.
    pub metrics: Option<PathBuf>,
    /// Write the main ADC run's flow-span attribution report (JSON) to
    /// this file.
    pub spans: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: Scale::default(),
            out: PathBuf::from("results"),
            seed: None,
            jobs: default_jobs(),
            serial_timing: false,
            events: None,
            chrome_trace: None,
            convergence: false,
            metrics: None,
            spans: None,
        }
    }
}

impl BenchArgs {
    /// Parses an argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value_for = |flag: &str| {
                iter.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--scale" => out.scale = value_for("--scale")?.parse()?,
                "--out" => out.out = PathBuf::from(value_for("--out")?),
                "--seed" => {
                    out.seed = Some(
                        value_for("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?,
                    )
                }
                "--jobs" => {
                    let jobs: usize = value_for("--jobs")?
                        .parse()
                        .map_err(|e| format!("bad --jobs: {e}"))?;
                    if jobs == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    out.jobs = jobs;
                }
                "--serial-timing" => out.serial_timing = true,
                "--events" => out.events = Some(PathBuf::from(value_for("--events")?)),
                "--chrome-trace" => {
                    out.chrome_trace = Some(PathBuf::from(value_for("--chrome-trace")?))
                }
                "--convergence" => out.convergence = true,
                "--metrics" => out.metrics = Some(PathBuf::from(value_for("--metrics")?)),
                "--spans" => out.spans = Some(PathBuf::from(value_for("--spans")?)),
                "--help" | "-h" => return Err(Self::usage()),
                other => return Err(format!("unknown argument {other:?}\n{}", Self::usage())),
            }
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a message on
    /// error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Usage text.
    pub fn usage() -> String {
        "usage: <figure-bin> [--scale ci|full|<factor>] [--out <dir>] [--seed <u64>] \
         [--jobs <n>] [--serial-timing] [--events <file.jsonl>] \
         [--chrome-trace <file.json>] [--convergence] [--metrics <file.prom>] \
         [--spans <file.json>]"
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.out, PathBuf::from("results"));
        assert!(a.jobs >= 1);
        assert!(!a.serial_timing);
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--scale",
            "full",
            "--out",
            "/tmp/x",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--serial-timing",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.jobs, 3);
        assert!(a.serial_timing);
    }

    #[test]
    fn custom_scale() {
        let a = parse(&["--scale", "0.25"]).unwrap();
        assert_eq!(a.scale, Scale::Custom(0.25));
    }

    #[test]
    fn jobs_flag() {
        assert_eq!(parse(&["--jobs", "1"]).unwrap().jobs, 1);
        assert_eq!(parse(&["--jobs", "16"]).unwrap().jobs, 16);
    }

    #[test]
    fn observability_flags() {
        let a = parse(&[
            "--events",
            "/tmp/ev.jsonl",
            "--chrome-trace",
            "/tmp/trace.json",
            "--convergence",
            "--metrics",
            "/tmp/m.prom",
        ])
        .unwrap();
        assert_eq!(a.events, Some(PathBuf::from("/tmp/ev.jsonl")));
        assert_eq!(a.chrome_trace, Some(PathBuf::from("/tmp/trace.json")));
        assert!(a.convergence);
        assert_eq!(a.metrics, Some(PathBuf::from("/tmp/m.prom")));
        // Off by default — the unobserved hot path must stay the default.
        let d = parse(&[]).unwrap();
        assert_eq!(d.events, None);
        assert_eq!(d.chrome_trace, None);
        assert!(!d.convergence);
        assert_eq!(d.metrics, None);
    }

    #[test]
    fn span_flag() {
        let a = parse(&["--spans", "/tmp/spans.json"]).unwrap();
        assert_eq!(a.spans, Some(PathBuf::from("/tmp/spans.json")));
        // Off by default — the unobserved hot path must stay the default.
        assert_eq!(parse(&[]).unwrap().spans, None);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--events"]).is_err());
        assert!(parse(&["--chrome-trace"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
        assert!(parse(&["--scale", "nope"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "two"]).is_err());
        assert!(parse(&["--spans"]).is_err());
        // Every figure runs on the single-queue runner: no shard flags.
        assert!(parse(&["--shards", "4"]).is_err());
        assert!(parse(&["--profile-shards"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
