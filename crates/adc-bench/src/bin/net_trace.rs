//! Live cluster tracing smoke: replays a request stream through a real
//! 4-proxy TCP cluster with tracing on, scrapes every node's span ring,
//! merges the scrapes onto the collector timeline and writes the merged
//! chrome trace plus the per-segment latency table.
//!
//! ```text
//! cargo run -p adc-bench --release --bin net_trace -- --scale ci --out results
//! ```
//!
//! Outputs:
//!
//! * `results/net_trace_<scale>.json` — merged chrome `trace_event`
//!   file, one lane per node (client, `proxy-0..3`, origin);
//! * `results/net_trace_<scale>.txt` — per-segment latency table.
//!
//! The binary hard-fails unless the merge shows one lane per cluster
//! node and at least one multi-hop trace crossing two or more nodes —
//! the same assertions the CI smoke leg relies on.

use adc_bench::{live_workload, replay_live, BenchArgs, LIVE_PROXIES};
use adc_obs::validate_json;

fn main() {
    let args = BenchArgs::from_env();
    // 600 requests at ci scale: a few seconds of live TCP traffic.
    let requests = ((6000.0 * args.scale.factor()) as u64).max(60);
    eprintln!(
        "net_trace: replaying {requests} requests through a traced {LIVE_PROXIES}-proxy cluster..."
    );
    let replay = replay_live(live_workload(requests), 8192).expect("live traced replay");
    let merged = &replay.merged;

    // One lane per cluster node (client + proxies + origin), and the
    // workload's cold misses must show up as multi-hop traces.
    assert_eq!(replay.completed, requests, "every request completes");
    assert_eq!(replay.spans_dropped, 0, "ring capacity covers the run");
    let node_lanes = merged.lanes.len().saturating_sub(1); // client lane aside
    assert!(
        node_lanes >= LIVE_PROXIES as usize,
        "expected at least {LIVE_PROXIES} node lanes, got {node_lanes}"
    );
    assert!(
        merged.cross_node_traces >= 1,
        "no trace crossed two nodes — forwarding is not being traced"
    );

    let chrome = merged.to_chrome_trace();
    validate_json(&chrome).expect("merged chrome trace is valid JSON");

    std::fs::create_dir_all(&args.out).expect("create output dir");
    let tag = args.scale.tag();
    let json_path = args.out.join(format!("net_trace_{tag}.json"));
    let table_path = args.out.join(format!("net_trace_{tag}.txt"));
    std::fs::write(&json_path, &chrome).expect("write chrome trace");
    std::fs::write(&table_path, merged.segment_table()).expect("write segment table");

    println!(
        "net_trace: merged {} traces ({} cross-node) across {} lanes",
        merged.traces,
        merged.cross_node_traces,
        merged.lanes.len()
    );
    println!(
        "  completed        : {}/{} ({} hits, {:.0} req/s)",
        replay.completed,
        replay.requests,
        replay.hits,
        replay.requests_per_sec()
    );
    println!("  clamped spans    : {}", merged.clamped);
    print!("{}", merged.segment_table());
    println!("wrote {}", json_path.display());
    println!("wrote {}", table_path.display());
}
