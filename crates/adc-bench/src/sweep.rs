//! The table-size parameter sweep behind Figures 13, 14 and 15.
//!
//! "Our experiments with different table sizes were focused on the size
//! of 5k to 30k for the Caching, Multiple and Single-table. [...] The
//! static settings for all simulations were 10k for the caching table and
//! 20k for the single and multiple-table." One sweep produces the data
//! for all three figures (hits, hops, processing time by table size), so
//! the sweep result is cached on disk and shared between the figure
//! binaries.
//!
//! The 18 simulations are independent, so [`run_sweep_with`] fans them
//! out over [`crate::parallel::run_jobs`] against one shared,
//! pre-materialized trace. Results are collected into per-point slots,
//! making every field except the timing ones byte-identical to a serial
//! sweep. Because Figure 15 plots time, [`SweepOptions::serial_timing`]
//! optionally re-runs the sweep serially afterwards just to refresh
//! `wall_secs`/`cpu_secs` without core-sharing inflation.

use crate::experiment::Experiment;
use crate::parallel::{run_jobs, ExperimentJob};
use crate::scale::Scale;
use adc_core::AdcConfig;
use adc_sim::SimReport;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Which of the three tables a sweep point varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweptTable {
    /// Vary the caching table, keep single/multiple at their defaults.
    Caching,
    /// Vary the multiple-table.
    Multiple,
    /// Vary the single-table.
    Single,
}

impl SweptTable {
    /// All three tables, in the paper's plotting order.
    pub const ALL: [SweptTable; 3] = [
        SweptTable::Caching,
        SweptTable::Multiple,
        SweptTable::Single,
    ];
}

impl fmt::Display for SweptTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SweptTable::Caching => "caching",
            SweptTable::Multiple => "multiple",
            SweptTable::Single => "single",
        };
        f.write_str(s)
    }
}

impl FromStr for SweptTable {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "caching" => Ok(SweptTable::Caching),
            "multiple" => Ok(SweptTable::Multiple),
            "single" => Ok(SweptTable::Single),
            other => Err(format!("unknown table {other:?}")),
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The table being varied.
    pub table: SweptTable,
    /// The varied table's capacity, in *paper-scale* entries (i.e. the
    /// nominal 5000..30000 axis, before scaling).
    pub nominal_size: usize,
    /// The actual capacity used after scaling.
    pub actual_size: usize,
    /// Overall hit rate of the run (Figure 13's y axis).
    pub hit_rate: f64,
    /// Mean hops per request (Figure 14's y axis).
    pub mean_hops: f64,
    /// Wall-clock seconds the simulation took (Figure 15's y axis).
    /// Inflated by core sharing when the sweep ran with `jobs > 1`; see
    /// [`SweepOptions::serial_timing`].
    pub wall_secs: f64,
    /// CPU seconds the simulating thread consumed — comparable across
    /// parallel runs, unlike `wall_secs`. Zero on platforms without a
    /// per-thread CPU clock.
    pub cpu_secs: f64,
    /// Hit rate over the two request phases only (excludes the fill
    /// phase's compulsory misses).
    pub steady_hit_rate: f64,
}

/// The paper's sweep axis: 5k to 30k in steps of 5k.
pub const NOMINAL_SIZES: [usize; 6] = [5_000, 10_000, 15_000, 20_000, 25_000, 30_000];

/// How a sweep executes: worker-thread count and timing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// After a parallel sweep, re-run every point serially and keep only
    /// the serial timings, so `wall_secs` stays meaningful for Figure 15.
    pub serial_timing: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: crate::parallel::default_jobs(),
            serial_timing: false,
        }
    }
}

impl SweepOptions {
    /// Strictly serial execution — the reference the parallel path must
    /// reproduce.
    pub fn serial() -> Self {
        SweepOptions {
            jobs: 1,
            serial_timing: false,
        }
    }
}

impl From<&crate::cli::BenchArgs> for SweepOptions {
    fn from(args: &crate::cli::BenchArgs) -> Self {
        SweepOptions {
            jobs: args.jobs,
            serial_timing: args.serial_timing,
        }
    }
}

fn steady_hit_rate(report: &SimReport) -> f64 {
    let p1 = report.phases[1];
    let p2 = report.phases[2];
    let reqs = p1.requests + p2.requests;
    if reqs == 0 {
        0.0
    } else {
        (p1.hits + p2.hits) as f64 / reqs as f64
    }
}

fn point_from_report(
    table: SweptTable,
    nominal: usize,
    actual: usize,
    report: &SimReport,
) -> SweepPoint {
    SweepPoint {
        table,
        nominal_size: nominal,
        actual_size: actual,
        hit_rate: report.hit_rate(),
        mean_hops: report.mean_hops(),
        wall_secs: report.wall_time.as_secs_f64(),
        cpu_secs: report.cpu_time.as_secs_f64(),
        steady_hit_rate: steady_hit_rate(report),
    }
}

/// The sweep's 18 `(table, nominal, actual)` coordinates in output order.
fn sweep_grid(scale: Scale) -> Vec<(SweptTable, usize, usize)> {
    let mut grid = Vec::with_capacity(SweptTable::ALL.len() * NOMINAL_SIZES.len());
    for table in SweptTable::ALL {
        for nominal in NOMINAL_SIZES {
            grid.push((table, nominal, scale.size(nominal)));
        }
    }
    grid
}

/// Runs the full 3-table × 6-size sweep at the given scale, serially.
///
/// This is 18 complete simulations; at `Scale::Full` expect tens of
/// minutes, at `Scale::Ci` a couple of minutes in release mode. Use
/// [`run_sweep_with`] to spread the runs over worker threads.
pub fn run_sweep(scale: Scale) -> Vec<SweepPoint> {
    run_sweep_with(scale, SweepOptions::serial())
}

/// Runs the sweep with explicit execution options.
///
/// The workload trace is generated once and shared immutably across all
/// runs. Every run seeds its own RNGs, so the resulting points are
/// identical (excluding `wall_secs`/`cpu_secs`) for any `jobs` count;
/// the output order is always the grid order of
/// [`SweptTable::ALL`] × [`NOMINAL_SIZES`].
pub fn run_sweep_with(scale: Scale, options: SweepOptions) -> Vec<SweepPoint> {
    let base = Experiment::at_scale(scale);
    let trace = base.trace();
    let grid = sweep_grid(scale);

    // Each job also carries its run's orphaned-reply and trace-drop
    // counts, aggregated below — the sweep CSV schema itself is pinned
    // by golden files and stays unchanged.
    let jobs: Vec<ExperimentJob<(SweepPoint, u64, u64)>> = grid
        .iter()
        .map(|&(table, nominal, actual)| {
            let base = base.clone();
            let trace = trace.clone();
            ExperimentJob::new(format!("{table}@{nominal}"), move || {
                let adc = config_with(&base.adc, table, actual);
                let report = base.run_adc_with_on(adc, &trace);
                let orphaned = report.cluster_stats().replies_orphaned;
                (
                    point_from_report(table, nominal, actual, &report),
                    orphaned,
                    report.trace_dropped(),
                )
            })
        })
        .collect();
    let mut orphaned_total: u64 = 0;
    let mut dropped_total: u64 = 0;
    let mut points: Vec<SweepPoint> = run_jobs(jobs, options.jobs)
        .into_iter()
        .map(|(point, orphaned, dropped)| {
            orphaned_total += orphaned;
            dropped_total += dropped;
            point
        })
        .collect();
    if orphaned_total > 0 || dropped_total > 0 {
        eprintln!(
            "sweep observability: {orphaned_total} orphaned replies, \
             {dropped_total} trace-log drops across {} runs",
            points.len()
        );
    }

    if options.serial_timing && options.jobs > 1 {
        // Timing re-pass: identical runs, one at a time, keeping only the
        // uncontended timings. All other fields are already equal by
        // determinism (asserted here as a cheap regression tripwire).
        for (point, &(table, nominal, actual)) in points.iter_mut().zip(&grid) {
            let adc = config_with(&base.adc, table, actual);
            let report = base.run_adc_with_on(adc, &trace);
            let serial = point_from_report(table, nominal, actual, &report);
            assert_eq!(
                (point.hit_rate, point.mean_hops, point.steady_hit_rate),
                (serial.hit_rate, serial.mean_hops, serial.steady_hit_rate),
                "serial timing re-run diverged from the parallel run"
            );
            point.wall_secs = serial.wall_secs;
            point.cpu_secs = serial.cpu_secs;
        }
    }
    points
}

/// Derives an [`AdcConfig`] with one table capacity overridden.
pub fn config_with(base: &AdcConfig, table: SweptTable, size: usize) -> AdcConfig {
    let mut adc = base.clone();
    match table {
        SweptTable::Caching => adc.cache_capacity = size,
        SweptTable::Multiple => adc.multiple_capacity = size,
        SweptTable::Single => adc.single_capacity = size,
    }
    adc
}

/// Where the sweep cache for `scale` lives under `out_dir`.
pub fn sweep_cache_path(out_dir: &Path, scale: Scale) -> PathBuf {
    out_dir.join(format!("sweep_{}.csv", scale.tag()))
}

/// Loads the cached sweep for `scale` if present, otherwise runs it
/// serially and caches the result. Figures 13–15 all call this, so the
/// 18 simulations run once.
///
/// # Errors
///
/// Returns I/O or parse errors from the cache file; a missing cache is
/// not an error (it triggers the run).
pub fn load_or_run_sweep(out_dir: &Path, scale: Scale) -> std::io::Result<Vec<SweepPoint>> {
    load_or_run_sweep_with(out_dir, scale, SweepOptions::serial())
}

/// [`load_or_run_sweep`] with explicit execution options for the
/// cache-miss path.
///
/// # Errors
///
/// Returns I/O or parse errors from the cache file; a missing cache is
/// not an error (it triggers the run).
pub fn load_or_run_sweep_with(
    out_dir: &Path,
    scale: Scale,
    options: SweepOptions,
) -> std::io::Result<Vec<SweepPoint>> {
    let path = sweep_cache_path(out_dir, scale);
    if path.exists() {
        let points = read_sweep(&path)?;
        if !points.is_empty() {
            eprintln!("using cached sweep {}", path.display());
            return Ok(points);
        }
    }
    eprintln!(
        "running 18-point table-size sweep at scale {scale} ({} worker{}) ...",
        options.jobs,
        if options.jobs == 1 { "" } else { "s" }
    );
    let points = run_sweep_with(scale, options);
    write_sweep(&path, &points)?;
    Ok(points)
}

fn non_finite_error(context: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("non-finite value in sweep data: {context}"),
    )
}

/// Checks that every float field of `point` is finite.
///
/// # Errors
///
/// Returns `InvalidData` naming the first offending field.
fn validate_point(point: &SweepPoint) -> std::io::Result<()> {
    let fields = [
        ("hit_rate", point.hit_rate),
        ("mean_hops", point.mean_hops),
        ("wall_secs", point.wall_secs),
        ("cpu_secs", point.cpu_secs),
        ("steady_hit_rate", point.steady_hit_rate),
    ];
    for (name, value) in fields {
        if !value.is_finite() {
            return Err(non_finite_error(&format!(
                "{name}={value} ({} nominal {})",
                point.table, point.nominal_size
            )));
        }
    }
    Ok(())
}

/// Writes sweep points as CSV.
///
/// # Errors
///
/// Propagates I/O errors; rejects points containing non-finite floats
/// with `InvalidData` (NaN/inf would not round-trip through the reader).
pub fn write_sweep(path: &Path, points: &[SweepPoint]) -> std::io::Result<()> {
    for p in points {
        validate_point(p)?;
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "table,nominal_size,actual_size,hit_rate,mean_hops,wall_secs,cpu_secs,steady_hit_rate"
    )?;
    for p in points {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{}",
            p.table,
            p.nominal_size,
            p.actual_size,
            p.hit_rate,
            p.mean_hops,
            p.wall_secs,
            p.cpu_secs,
            p.steady_hit_rate
        )?;
    }
    f.flush()
}

/// Reads sweep points written by [`write_sweep`].
///
/// # Errors
///
/// Returns `InvalidData` on malformed content, including any non-finite
/// float field.
pub fn read_sweep(path: &Path) -> std::io::Result<Vec<SweepPoint>> {
    let f = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in f.lines().enumerate() {
        let line = line?;
        if i == 0 || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let bad =
            || std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad line: {line}"));
        if fields.len() != 8 {
            return Err(bad());
        }
        let point = SweepPoint {
            table: fields[0].parse().map_err(|_| bad())?,
            nominal_size: fields[1].parse().map_err(|_| bad())?,
            actual_size: fields[2].parse().map_err(|_| bad())?,
            hit_rate: fields[3].parse().map_err(|_| bad())?,
            mean_hops: fields[4].parse().map_err(|_| bad())?,
            wall_secs: fields[5].parse().map_err(|_| bad())?,
            cpu_secs: fields[6].parse().map_err(|_| bad())?,
            steady_hit_rate: fields[7].parse().map_err(|_| bad())?,
        };
        validate_point(&point)?;
        out.push(point);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A per-test unique directory, so concurrently running tests (and
    /// concurrent invocations of the whole suite) never share paths.
    fn unique_temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("adc-sweep-{tag}-{}-{n}", std::process::id()))
    }

    fn sample_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                table: SweptTable::Caching,
                nominal_size: 5_000,
                actual_size: 500,
                hit_rate: 0.62,
                mean_hops: 6.9,
                wall_secs: 1.25,
                cpu_secs: 1.2,
                steady_hit_rate: 0.7,
            },
            SweepPoint {
                table: SweptTable::Single,
                nominal_size: 30_000,
                actual_size: 3_000,
                hit_rate: 0.66,
                mean_hops: 6.5,
                wall_secs: 1.5,
                cpu_secs: 1.4,
                steady_hit_rate: 0.74,
            },
        ]
    }

    #[test]
    fn config_with_overrides_one_table() {
        let base = AdcConfig::default();
        let c = config_with(&base, SweptTable::Caching, 7);
        assert_eq!(c.cache_capacity, 7);
        assert_eq!(c.single_capacity, base.single_capacity);
        let c = config_with(&base, SweptTable::Single, 9);
        assert_eq!(c.single_capacity, 9);
        let c = config_with(&base, SweptTable::Multiple, 11);
        assert_eq!(c.multiple_capacity, 11);
    }

    #[test]
    fn sweep_csv_round_trip() {
        let points = sample_points();
        let dir = unique_temp_dir("round-trip");
        let path = dir.join("sweep.csv");
        write_sweep(&path, &points).unwrap();
        let back = read_sweep(&path).unwrap();
        assert_eq!(back, points);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_rejects_non_finite() {
        let dir = unique_temp_dir("write-nonfinite");
        let path = dir.join("sweep.csv");
        for (field, value) in [("nan", f64::NAN), ("inf", f64::INFINITY)] {
            let mut points = sample_points();
            points[0].mean_hops = value;
            let err = write_sweep(&path, &points).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{field}");
            assert!(!path.exists(), "rejected write must not create the file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_rejects_non_finite() {
        let dir = unique_temp_dir("read-nonfinite");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        for bad in ["NaN", "inf", "-inf"] {
            let csv = format!(
                "table,nominal_size,actual_size,hit_rate,mean_hops,wall_secs,cpu_secs,steady_hit_rate\n\
                 caching,5000,500,0.6,{bad},1.0,0.9,0.7\n"
            );
            std::fs::write(&path, csv).unwrap();
            let err = read_sweep(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_rejects_wrong_arity() {
        let dir = unique_temp_dir("read-arity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        // The pre-cpu_secs 7-column layout must be rejected, not
        // silently misparsed.
        std::fs::write(
            &path,
            "table,nominal_size,actual_size,hit_rate,mean_hops,wall_secs,steady_hit_rate\n\
             caching,5000,500,0.6,6.9,1.0,0.7\n",
        )
        .unwrap();
        let err = read_sweep(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_parse_round_trip() {
        for t in SweptTable::ALL {
            assert_eq!(t.to_string().parse::<SweptTable>().unwrap(), t);
        }
        assert!("bogus".parse::<SweptTable>().is_err());
    }

    #[test]
    fn tiny_sweep_runs() {
        // Not the cached path — a direct micro-scale sweep.
        let points = run_sweep(Scale::Custom(0.0005));
        assert_eq!(points.len(), 18);
        for p in &points {
            assert!(p.hit_rate >= 0.0 && p.hit_rate <= 1.0);
            assert!(p.mean_hops >= 2.0, "mean hops {}", p.mean_hops);
        }
    }
}
