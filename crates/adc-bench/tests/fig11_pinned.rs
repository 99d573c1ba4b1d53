//! Pins the fixed 5-proxy end-to-end scenario's hit and hop numbers to
//! golden files, at a micro scale that still exercises both systems.
//!
//! The golden sweep CSV (`determinism.rs`) covers the ADC parameter
//! sweep; `fig11_micro.txt` covers the Figure 11 comparison path — ADC
//! and the CARP baseline over the shared Polygraph trace — so an
//! event-loop or agent rewrite that shifts any count by even one is
//! caught. Hit counts, hop sums and message totals there were produced
//! by the pre-calendar-queue binary-heap event loop; the rewrite
//! reproduced them exactly. `openloop_spans_micro.txt` covers the same
//! trace under open-loop injection, on the sharded engine at 1 and 4
//! shards and on the runner, and the flow-span attribution of the
//! sequential run; `schemes_micro.txt` covers the other five agent
//! configurations `compare_schemes` runs.
//!
//! Regenerate after an *intentional* behavior change:
//!
//! ```text
//! ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned
//! ```

use adc_baselines::{ConsistentRing, HashingProxy, HierarchyProxy, SoapProxy};
use adc_bench::experiment::Experiment;
use adc_bench::scale::Scale;
use adc_core::{CachePolicy, ProxyId, UnlimitedAdcProxy};
use adc_sim::{InjectionMode, SimReport, SimTime, Simulation};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

fn read_golden(file: &str) -> String {
    std::fs::read_to_string(golden_path(file)).expect(
        "golden file missing; bless it with \
         ADC_BLESS_GOLDEN=1 cargo test -p adc-bench --test fig11_pinned",
    )
}

/// Rewrites `file` with `rendered` when `ADC_BLESS_GOLDEN` is set;
/// otherwise asserts the two are identical.
fn assert_golden(file: &str, rendered: &str) {
    if std::env::var_os("ADC_BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path(file), rendered).expect("write golden file");
        return;
    }
    assert_eq!(
        rendered,
        read_golden(file),
        "{file} diverged from the current counts; if the change is \
         intentional, re-bless with ADC_BLESS_GOLDEN=1"
    );
}

/// Renders every deterministic count the comparison produces. Floats are
/// printed with `{:?}` (shortest round-trip form), so any bit-level
/// change shows up.
fn render(name: &str, report: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{name}]");
    let _ = writeln!(out, "completed = {}", report.completed);
    let _ = writeln!(out, "hits = {}", report.hits);
    for (phase, stats) in ["fill", "request1", "request2"].iter().zip(&report.phases) {
        let _ = writeln!(out, "{phase} = {}/{}", stats.hits, stats.requests);
    }
    let _ = writeln!(out, "mean_hops = {:?}", report.mean_hops());
    let _ = writeln!(out, "messages_delivered = {}", report.messages_delivered);
    let _ = writeln!(out, "events_processed = {}", report.events_processed);
    let _ = writeln!(out, "peak_flows = {}", report.peak_flows);
    let _ = writeln!(out, "client_orphans = {}", report.client_orphans);
    let _ = writeln!(
        out,
        "orphan_origin_requests = {}",
        report.orphan_origin_requests
    );
    let _ = writeln!(out, "bytes_from_origin = {}", report.bytes_from_origin);
    let _ = writeln!(out, "bytes_from_caches = {}", report.bytes_from_caches);
    let cluster = report.cluster_stats();
    let _ = writeln!(
        out,
        "origin_fetches = {}",
        cluster.origin_loops + cluster.origin_max_hops + cluster.origin_this_miss
    );
    let _ = writeln!(out, "per_proxy_requests = {:?}", {
        let mut v: Vec<u64> = report
            .per_proxy
            .iter()
            .map(|p| p.requests_received)
            .collect();
        v.sort_unstable();
        v
    });
    out
}

#[test]
fn fig11_micro_counts_match_golden() {
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let trace = experiment.trace();
    let adc = experiment.run_adc_on(&trace);
    let carp = experiment.run_carp_on(&trace);
    let rendered = format!("{}\n{}", render("adc", &adc), render("carp", &carp));
    assert_golden("fig11_micro.txt", &rendered);
}

/// The same trace with a request injected every 50 µs, so flows overlap
/// and the event queue, the runner's flow table and the shard windows
/// carry load, plus the flow-span attribution of the sequential run. The
/// open-loop bytes must not depend on the shard count or on the
/// executor, and the span recorder must leave the report it observes
/// unchanged.
#[test]
fn openloop_and_span_counts_match_golden() {
    let mut experiment = Experiment::at_scale(Scale::Custom(0.002));
    experiment.sim.sample_occupancy = false;
    let trace = experiment.trace();

    let plain = experiment.run_adc_on(&trace);
    let spans = experiment.run_adc_spans_on(&trace, 5);
    assert_eq!(
        plain.to_deterministic_json(),
        spans.to_deterministic_json(),
        "the span recorder must not move the deterministic bytes"
    );
    let spans = spans.spans.expect("span run reports the breakdown");

    let mut open = experiment;
    open.sim.injection = InjectionMode::OpenLoop {
        interval: SimTime::from_micros(50),
    };
    let sharded = |shards| {
        Simulation::new(open.adc_agents(), open.sim.clone()).run_sharded(trace.iter(), shards)
    };
    let one_shard = sharded(1);
    let expected = one_shard.to_deterministic_json();
    assert_eq!(
        sharded(4).to_deterministic_json(),
        expected,
        "open-loop counts must not depend on the shard count"
    );
    assert_eq!(
        open.run_adc_on(&trace).to_deterministic_json(),
        expected,
        "the runner and the sharded engine must agree in open loop"
    );

    let rendered = format!(
        "{}\n[adc-spans]\n{}",
        render("adc-openloop", &one_shard),
        spans.to_json()
    );
    assert_golden("openloop_spans_micro.txt", &rendered);
}

/// The five `compare_schemes` rows `fig11_micro.txt` leaves out, built as
/// that binary builds them: ADC's cache-everything LRU ablation,
/// unlimited ADC, SOAP, consistent-hash routing and the caching tree.
/// Each row also prints its summed per-proxy counters, so every
/// `ProxyStats` field of every agent is pinned.
#[test]
fn schemes_micro_counts_match_golden() {
    let experiment = Experiment::at_scale(Scale::Custom(0.002));
    let trace = experiment.trace();
    let n = experiment.proxies;
    let cache = experiment.adc.cache_capacity;
    let max_hops = experiment.adc.max_hops;
    let ids = || (0..n).map(ProxyId::new);
    let mut lru = experiment.adc.clone();
    lru.policy = CachePolicy::LruAll;

    let unlimited = ids()
        .map(|i| UnlimitedAdcProxy::new(i, n, cache, max_hops))
        .collect();
    let soap = ids()
        .map(|i| SoapProxy::new(i, n, 1_024, cache, max_hops))
        .collect();
    let consistent = ids()
        .map(|i| HashingProxy::with_owner_map(i, ConsistentRing::new(ids(), 128), cache))
        .collect();
    let rows = [
        ("adc_lru", experiment.run_adc_with_on(lru, &trace)),
        (
            "adc_unlimited",
            experiment
                .run_agents_on::<UnlimitedAdcProxy>(unlimited, &trace)
                .0,
        ),
        (
            "soap",
            experiment.run_agents_on::<SoapProxy>(soap, &trace).0,
        ),
        (
            "consistent",
            experiment
                .run_agents_on::<HashingProxy<ConsistentRing>>(consistent, &trace)
                .0,
        ),
        (
            "hierarchy",
            experiment
                .run_agents_on(HierarchyProxy::binary_tree(n, cache), &trace)
                .0,
        ),
    ];
    let rendered: Vec<String> = rows
        .iter()
        .map(|(name, report)| {
            format!(
                "{}cluster_stats = {:?}\n",
                render(name, report),
                report.cluster_stats()
            )
        })
        .collect();
    assert_golden("schemes_micro.txt", &rendered.join("\n"));
}
