//! A smoke-size run of each workload, untraced and traced, passes every
//! check and emits exactly the metrics `BENCHMARK.json` declares, with
//! the declared units.

use adc_perfbench::run::{run, Params, Size, Workload};

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let value_of = |object: &str, key: &str| {
        let at = object.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &object[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|object| (value_of(object, "name"), value_of(object, "unit")))
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let params = Params {
        workload,
        seed: 7,
        seconds: 0.1,
        trace,
        size: Size::SMOKE,
    };
    let outcome = run(&params);
    assert!(
        outcome.correct(),
        "{} (trace {trace}) failed its checks: {:?}",
        workload.name(),
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.to_string()))
        .collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(emitted, declared(section), "{} {section}", workload.name());
    adc_obs::validate_json(&outcome.json()).expect("the result line is valid JSON");
}

#[test]
fn seq_fig11_smoke() {
    check(Workload::SeqFig11, false);
    check(Workload::SeqFig11, true);
}

#[test]
fn openloop_sharded_smoke() {
    check(Workload::OpenloopSharded, false);
    check(Workload::OpenloopSharded, true);
}

#[test]
fn live_loopback_smoke() {
    check(Workload::LiveLoopback, false);
    check(Workload::LiveLoopback, true);
}
