//! End-to-end checks for the observability layer as the figure binaries
//! use it: convergence sampling over a real (scaled-down) fig11-style
//! run must show agreement rising in trend, both export formats must be
//! syntactically valid, and the Prometheus text a figure run writes must
//! be identical across two same-seed runs and pass the format checker.

use adc_bench::observe::run_adc_observed;
use adc_bench::{BenchArgs, Experiment, Scale};
use adc_obs::validate_json;
use std::path::PathBuf;
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
        "adc_obs_test_{}_{test}_{call}_{name}",
        std::process::id()
    ))
}

#[test]
fn convergence_agreement_rises_over_a_fig11_run() {
    let args = BenchArgs {
        convergence: true,
        ..BenchArgs::default()
    };
    let experiment = Experiment::at_scale(Scale::Custom(0.01));
    let report = run_adc_observed(&experiment, &args);
    let conv = report.convergence.expect("convergence sampling was on");
    assert!(conv.samples >= 8, "too few samples: {}", conv.samples);

    // Trend, not strict monotonicity: the mean agreement over the first
    // quarter of samples must not exceed the mean over the last quarter,
    // and the run must actually end substantially converged.
    let ys: Vec<f64> = conv.agreement.points.iter().map(|&(_, y)| y).collect();
    let quarter = (ys.len() / 4).max(1);
    let head: f64 = ys[..quarter].iter().sum::<f64>() / quarter as f64;
    let tail: f64 = ys[ys.len() - quarter..].iter().sum::<f64>() / quarter as f64;
    assert!(
        head <= tail,
        "agreement fell over the run: head mean {head:.4} > tail mean {tail:.4}"
    );
    assert!(
        conv.final_agreement().unwrap_or(0.0) > 0.5,
        "run ended unconverged: {:?}",
        conv.final_agreement()
    );
}

#[test]
fn exports_are_valid_json() {
    let events = scratch("events.jsonl");
    let chrome = scratch("trace.json");
    let args = BenchArgs {
        events: Some(events.clone()),
        chrome_trace: Some(chrome.clone()),
        ..BenchArgs::default()
    };
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let report = run_adc_observed(&experiment, &args);
    assert!(report.completed > 0);

    let jsonl = std::fs::read_to_string(&events).expect("events file written");
    let mut lines = 0usize;
    for line in jsonl.lines() {
        validate_json(line).unwrap_or_else(|e| panic!("bad JSONL line {e}: {line}"));
        lines += 1;
    }
    assert!(lines > 1_000, "suspiciously few events: {lines}");

    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    validate_json(&trace).expect("chrome trace is one valid JSON document");
    assert!(trace.contains("\"traceEvents\""));

    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&chrome);
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
