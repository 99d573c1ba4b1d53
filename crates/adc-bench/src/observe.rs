//! Observability wiring for the figure binaries: runs the main ADC
//! simulation with a probe attached when any of `--events`,
//! `--chrome-trace`, `--convergence` or `--metrics` was given, writes
//! the requested exports, and prints a capture summary. Without those
//! flags the run goes through the plain (probe-free) path, so default
//! invocations stay bit-for-bit identical to the pre-observability
//! harness. Either way the run is sequential, on the single-queue
//! runner, which carries every probe.

use crate::cli::BenchArgs;
use crate::experiment::Experiment;
use adc_obs::{self, ConvergenceConfig, EventLog, MetricsProbe, SpanProbe};
use adc_sim::SimReport;
use adc_sim::Simulation;
use std::io::BufWriter;
use std::io::Write;
use std::path::Path;

/// Whether any observability flag was given.
pub fn obs_enabled(args: &BenchArgs) -> bool {
    args.events.is_some()
        || args.chrome_trace.is_some()
        || args.convergence
        || args.metrics.is_some()
        || args.spans.is_some()
}

/// Event-log bound for one observed run: generous enough that a CI-scale
/// figure run captures everything (~a dozen events per request), capped
/// so a full-scale run cannot exhaust memory — overflow is *counted* and
/// reported, never silent.
fn log_capacity(total_requests: u64) -> usize {
    (total_requests as usize)
        .saturating_mul(12)
        .clamp(1 << 16, 1 << 23)
}

/// Runs the experiment's main ADC simulation, observed if any flag asks
/// for it. Exports are written immediately; capture and convergence
/// summaries go to stderr so figure stdout stays machine-readable.
pub fn run_adc_observed(experiment: &Experiment, args: &BenchArgs) -> SimReport {
    if !obs_enabled(args) {
        return experiment.run_adc();
    }

    let mut sim = experiment.sim.clone();
    if args.convergence {
        sim.convergence = Some(ConvergenceConfig {
            sample_every: sim.sample_every,
            ..ConvergenceConfig::default()
        });
    }
    // One observed run feeds every export: the bounded event log, the
    // metrics registry and the span recorder all ride the same probe
    // stack (each is a pure consumer, so the composition is free of
    // interference); files are only written for the flags given.
    let capacity = log_capacity(experiment.workload.total_requests());
    let mut probe = (
        (EventLog::with_capacity(capacity), MetricsProbe::new()),
        SpanProbe::new(),
    );
    let mut report = Simulation::new(experiment.adc_agents(), sim)
        .run_observed(experiment.workload.build(), &mut probe);
    let ((log, metrics), span_probe) = probe;
    if let Some(path) = &args.metrics {
        let metrics = report.attach_metrics(metrics.into_registry());
        write_prom_text(path, &metrics.snapshot.to_prometheus());
    }
    if let Some(path) = &args.spans {
        let spans = span_probe.into_report();
        eprintln!("{}", spans.summary());
        write_spans_json(path, &spans);
        report.spans = Some(spans);
    }

    eprintln!(
        "observability: captured {} events ({} dropped at the {}-event bound)",
        log.len(),
        log.dropped(),
        log.capacity()
    );
    if let Some(path) = &args.events {
        write_events_jsonl(path, &log);
    }
    if let Some(path) = &args.chrome_trace {
        write_chrome(path, &log);
    }
    if let Some(conv) = &report.convergence {
        eprintln!(
            "convergence: {} samples, final agreement {:.4}, {} remaps, {} churn",
            conv.samples,
            conv.final_agreement().unwrap_or(0.0),
            conv.total_remaps,
            conv.total_churn
        );
    }
    report
}

/// For the sweep-driven binaries (fig13–15, ablations), which never run
/// a single "main" simulation: when any observability flag is set, runs
/// one extra default-configuration ADC simulation with the probe
/// attached so event/convergence exports are still available. The sweep
/// itself is untouched. No-op without flags.
pub fn observe_default_run(args: &BenchArgs) {
    if !obs_enabled(args) {
        return;
    }
    eprintln!("observability: running one default-config ADC simulation for export...");
    let experiment = crate::output::apply_args(Experiment::at_scale(args.scale), args);
    let _ = run_adc_observed(&experiment, args);
}

fn create_export_file(path: &Path) -> std::fs::File {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create export directory");
        }
    }
    std::fs::File::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()))
}

fn write_events_jsonl(path: &Path, log: &EventLog) {
    let mut out = BufWriter::new(create_export_file(path));
    adc_obs::write_jsonl(&mut out, log.events()).expect("write event JSONL");
    eprintln!("wrote {} ({} events)", path.display(), log.len());
}

fn write_prom_text(path: &Path, text: &str) {
    let mut out = BufWriter::new(create_export_file(path));
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .expect("write metrics exposition");
    eprintln!(
        "wrote {} ({} bytes of Prometheus text)",
        path.display(),
        text.len()
    );
}

fn write_chrome(path: &Path, log: &EventLog) {
    let mut out = BufWriter::new(create_export_file(path));
    adc_obs::write_chrome_trace(&mut out, log.events()).expect("write chrome trace");
    eprintln!(
        "wrote {} (open via chrome://tracing or https://ui.perfetto.dev)",
        path.display()
    );
}

fn write_spans_json(path: &Path, spans: &adc_obs::SpanReport) {
    let text = spans.to_json();
    let mut out = BufWriter::new(create_export_file(path));
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .expect("write span report");
    eprintln!(
        "wrote {} ({} flows, {} slowest-flow entries)",
        path.display(),
        spans.flows,
        spans.slowest.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn disabled_flags_take_the_plain_path() {
        let args = BenchArgs::default();
        assert!(!obs_enabled(&args));
        let experiment = Experiment::at_scale(Scale::Custom(0.001));
        let plain = experiment.run_adc();
        let observed = run_adc_observed(&experiment, &args);
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(plain.hits, observed.hits);
        assert!(observed.convergence.is_none());
    }

    #[test]
    fn capacity_is_clamped_both_ways() {
        assert_eq!(log_capacity(0), 1 << 16);
        assert_eq!(log_capacity(u64::MAX), 1 << 23);
        assert_eq!(log_capacity(100_000), 1_200_000);
    }

    #[test]
    fn metrics_flag_writes_exposition_and_fills_report() {
        let path = std::env::temp_dir().join(format!(
            "adc_bench_metrics_test_{}.prom",
            std::process::id()
        ));
        let args = BenchArgs {
            metrics: Some(path.clone()),
            ..BenchArgs::default()
        };
        assert!(obs_enabled(&args));
        let experiment = Experiment::at_scale(Scale::Custom(0.002));
        let plain = experiment.run_adc();
        let observed = run_adc_observed(&experiment, &args);
        // The metrics probe must not perturb the simulation.
        assert_eq!(plain.completed, observed.completed);
        assert_eq!(plain.hits, observed.hits);
        let metrics = observed.metrics.expect("metrics probe was on");
        assert!(!metrics.per_proxy.is_empty());
        let text = std::fs::read_to_string(&path).expect("exposition file written");
        std::fs::remove_file(&path).ok();
        adc_metrics::validate_prometheus(&text).expect("exposition must parse");
        assert_eq!(text, metrics.snapshot.to_prometheus());
    }

    #[test]
    fn spans_flag_writes_report_and_fills_it() {
        let path =
            std::env::temp_dir().join(format!("adc_bench_spans_test_{}.json", std::process::id()));
        let args = BenchArgs {
            spans: Some(path.clone()),
            ..BenchArgs::default()
        };
        assert!(obs_enabled(&args));
        let experiment = Experiment::at_scale(Scale::Custom(0.002));
        let plain = experiment.run_adc();
        let observed = run_adc_observed(&experiment, &args);
        // The span recorder must not perturb the simulation.
        assert_eq!(
            plain.to_deterministic_json(),
            observed.to_deterministic_json()
        );
        let spans = observed.spans.expect("span recorder was on");
        assert_eq!(spans.flows, observed.completed);
        assert_eq!(spans.sum_check_failures, 0);
        let text = std::fs::read_to_string(&path).expect("span file written");
        std::fs::remove_file(&path).ok();
        adc_obs::validate_json(&text).expect("span report must be valid JSON");
        assert_eq!(text, spans.to_json());
    }

    #[test]
    fn convergence_flag_populates_the_report() {
        let args = BenchArgs {
            convergence: true,
            ..BenchArgs::default()
        };
        assert!(obs_enabled(&args));
        let experiment = Experiment::at_scale(Scale::Custom(0.002));
        let report = run_adc_observed(&experiment, &args);
        let conv = report.convergence.expect("convergence sampling was on");
        assert!(conv.samples > 0);
        assert_eq!(conv.agreement.len(), conv.samples);
    }
}
