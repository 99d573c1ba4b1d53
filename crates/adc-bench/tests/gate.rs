//! End-to-end checks for the perf-regression gate and the metrics
//! exposition: the `bench_diff` binary must exit non-zero on a doctored
//! regression, and the Prometheus text a figure run writes must be
//! identical across two same-seed runs and pass the format checker.

use adc_bench::observe::run_adc_observed;
use adc_bench::{BenchArgs, Experiment, Scale};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch path per call: the process id keeps parallel test
/// binaries apart, and the test's name plus a counter keep the tests of
/// this binary apart (libtest runs them on concurrent threads).
fn scratch(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("main").replace("::", "_");
    std::env::temp_dir().join(format!(
        "adc_gate_test_{}_{test}_{call}_{name}",
        std::process::id()
    ))
}

const BASELINE: &str = r#"{
  "benchmark": "adc_end_to_end_5_proxies",
  "smoke": false,
  "scale": "ci",
  "requests": 399000,
  "events": 2126120,
  "messages": 2126120,
  "peak_flows": 1,
  "hit_rate": 0.525434,
  "mean_hops": 4.857724,
  "replies_orphaned": 0,
  "trace_dropped": 0,
  "lint": { "rules": 10, "suppressions": 44 },
  "wall_seconds": 0.529920,
  "cpu_seconds": 0.526393,
  "requests_per_sec": 752943.2,
  "events_per_sec": 4012149.2,
  "shard": {
    "shards": 4,
    "requests": 399000,
    "events": 2525120,
    "messages": 2126120,
    "peak_flows": 212,
    "hit_rate": 0.525434,
    "pool_spawns": 3,
    "windows_advanced": 1200,
    "windows_widened": 900,
    "windows_skipped": 64000,
    "baseline_wall_seconds": 0.810000,
    "wall_seconds": 0.270000,
    "baseline_events_per_sec": 3117432.1,
    "events_per_sec": 9352296.3,
    "speedup": 3.000
  },
  "profile": {
    "total": { "wall_seconds": 0.619812, "cpu_seconds": 0.607532 }
  }
}
"#;

fn run_bench_diff(baseline: &str, current: &str, extra: &[&str]) -> std::process::Output {
    let base_path = scratch("baseline.json");
    let cur_path = scratch("current.json");
    std::fs::write(&base_path, baseline).unwrap();
    std::fs::write(&cur_path, current).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(&base_path)
        .arg(&cur_path)
        .args(extra)
        .output()
        .expect("spawn bench_diff");
    std::fs::remove_file(&base_path).ok();
    std::fs::remove_file(&cur_path).ok();
    output
}

#[test]
fn bench_diff_passes_identical_reports() {
    let output = run_bench_diff(BASELINE, BASELINE, &[]);
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("OK"));
}

#[test]
fn bench_diff_fails_on_a_doctored_deterministic_regression() {
    // A one-count drift in a deterministic field: behaviour changed.
    let doctored = BASELINE.replace("\"events\": 2126120", "\"events\": 2126121");
    let output = run_bench_diff(BASELINE, &doctored, &[]);
    assert_eq!(output.status.code(), Some(1), "gate must exit 1");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("REGRESSION"), "stdout: {stdout}");
    assert!(stdout.contains("events"), "stdout: {stdout}");
}

#[test]
fn bench_diff_throughput_warn_mode_downgrades_to_exit_zero() {
    let slow = BASELINE.replace(
        "\"events_per_sec\": 4012149.2",
        "\"events_per_sec\": 1000000.0",
    );
    let hard = run_bench_diff(BASELINE, &slow, &[]);
    assert_eq!(hard.status.code(), Some(1));
    let soft = run_bench_diff(BASELINE, &slow, &["--warn-throughput"]);
    assert!(soft.status.success());
    assert!(String::from_utf8_lossy(&soft.stdout).contains("warning"));
}

#[test]
fn bench_diff_enforces_the_shard_speedup_floor() {
    // 2.5 is a mild relative dip from 3.0 (inside the 30% tolerance),
    // so only the explicit floor rejects it.
    let doctored = BASELINE.replace("\"speedup\": 3.000", "\"speedup\": 2.500");
    let no_floor = run_bench_diff(BASELINE, &doctored, &[]);
    assert!(
        no_floor.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&no_floor.stdout)
    );
    let floored = run_bench_diff(BASELINE, &doctored, &["--min-shard-speedup", "2.8"]);
    assert_eq!(floored.status.code(), Some(1), "floor must exit 1");
    let stdout = String::from_utf8_lossy(&floored.stdout);
    assert!(stdout.contains("REGRESSION"), "stdout: {stdout}");
    assert!(stdout.contains("shard.speedup"), "stdout: {stdout}");
    // A parallel-efficiency collapse trips the relative gate even
    // without a floor, and --warn-throughput does not silence a floor.
    let collapsed = BASELINE.replace("\"speedup\": 3.000", "\"speedup\": 0.900");
    assert_eq!(
        run_bench_diff(BASELINE, &collapsed, &[]).status.code(),
        Some(1)
    );
    let warned = run_bench_diff(
        BASELINE,
        &collapsed,
        &["--warn-throughput", "--min-shard-speedup", "1.0"],
    );
    assert_eq!(warned.status.code(), Some(1), "floor survives warn mode");
    // Bad flag values are usage errors.
    assert_eq!(
        run_bench_diff(BASELINE, BASELINE, &["--min-shard-speedup", "-1"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn bench_diff_rejects_incomparable_and_malformed_input() {
    let smoke = BASELINE.replace("\"smoke\": false", "\"smoke\": true");
    assert_eq!(run_bench_diff(BASELINE, &smoke, &[]).status.code(), Some(2));
    assert_eq!(
        run_bench_diff(BASELINE, "not json at all", &[])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn metrics_exposition_is_deterministic_across_same_seed_runs() {
    let run = |name: &str| {
        let path = scratch(name);
        let args = BenchArgs {
            metrics: Some(path.clone()),
            ..BenchArgs::default()
        };
        let report = run_adc_observed(&Experiment::at_scale(Scale::Custom(0.004)), &args);
        let text = std::fs::read_to_string(&path).expect("exposition written");
        std::fs::remove_file(&path).ok();
        (report, text)
    };
    let (report_a, text_a) = run("a.prom");
    let (report_b, text_b) = run("b.prom");
    assert_eq!(text_a, text_b, "same seed must give identical expositions");
    adc_metrics::validate_prometheus(&text_a).expect("exposition must pass the format checker");
    // The per-proxy summaries are part of the SimReport and equally
    // deterministic.
    let a = report_a.metrics.expect("metrics on");
    let b = report_b.metrics.expect("metrics on");
    assert_eq!(a.per_proxy, b.per_proxy);
    assert!(text_a.contains("# TYPE adc_local_hits_total counter"));
    assert!(text_a.contains("# TYPE adc_hops histogram"));
}
