//! chrome://tracing (`trace_event` JSON) export of a captured stream.
//!
//! The output is the stable "JSON object format": a single object with a
//! `traceEvents` array, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Layout:
//!
//! - **pid 0 / tid = client**: one complete span (`ph:"X"`) per finished
//!   request, from injection to completion, named `hit` or `miss`;
//! - **pid 1 / tid = proxy**: one instant event (`ph:"i"`) per agent
//!   event (forwards, loops, migrations, cache churn), with the
//!   variant's fields under `args`;
//! - metadata events (`ph:"M"`): `process_name` for each pid and one
//!   `thread_name` per tid, emitted in ascending tid order so every lane
//!   is labeled and lanes sort stably in the viewer.
//!
//! Timestamps (`ts`) and durations (`dur`) are in microseconds of the
//! simulator's clock.

use crate::event::SimEvent;
use crate::json::write_escaped;
use crate::jsonl::write_event_json;
use std::fmt::Write as _;
use std::io;

fn push_process_meta(out: &mut String, pid: u32, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":"
    );
    write_escaped(out, name);
    out.push_str("}}");
}

fn push_thread_meta(out: &mut String, pid: u32, tid: u32, name: &str) {
    let _ = write!(
        out,
        ",{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
    );
    write_escaped(out, name);
    out.push_str("}}");
}

/// Renders the captured stream in chrome `trace_event` format.
pub fn to_chrome_trace(events: &[(u64, SimEvent)]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    push_process_meta(&mut out, 0, "clients (request flows)");
    out.push(',');
    push_process_meta(&mut out, 1, "proxies (agent events)");
    // Label every lane up front, in ascending tid order, so the viewer
    // shows named tracks in a stable order instead of one anonymous
    // track per bare tid.
    let mut clients: Vec<u32> = Vec::new();
    let mut proxies: Vec<u32> = Vec::new();
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "deliberately binary: the two request-flow variants get client lanes, \
                  every other variant classifies by its proxy, so a new variant lands in \
                  the proxy lane, where agent-side events belong"
    )]
    for (_, event) in events {
        match *event {
            SimEvent::RequestInjected { client, .. }
            | SimEvent::RequestCompleted { client, .. } => clients.push(client),
            _ => {
                if let Some(proxy) = event.proxy() {
                    proxies.push(proxy);
                }
            }
        }
    }
    clients.sort_unstable();
    clients.dedup();
    proxies.sort_unstable();
    proxies.dedup();
    let mut name = String::new();
    for &client in &clients {
        name.clear();
        let _ = write!(name, "client {client}");
        push_thread_meta(&mut out, 0, client, &name);
    }
    for &proxy in &proxies {
        name.clear();
        let _ = write!(name, "proxy {proxy}");
        push_thread_meta(&mut out, 1, proxy, &name);
    }
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "only completions render as spans; the fallback arm emits an instant \
                  named via `kind().name()` with the full JSONL payload as args, so a new \
                  variant shows up in traces automatically"
    )]
    for &(t, ref event) in events {
        out.push(',');
        match *event {
            // Injections are represented by the span start of the matching
            // completion; emit nothing separate to keep traces compact.
            SimEvent::RequestInjected { .. } => {
                out.pop();
                continue;
            }
            SimEvent::RequestCompleted {
                client,
                seq,
                object,
                server,
                hops,
                start_us,
            } => {
                let name = if server.is_some() { "hit" } else { "miss" };
                let dur = t.saturating_sub(start_us);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{client},\"ts\":{start_us},\"dur\":{dur},\"name\":\"{name}\",\"args\":{{\"object\":{object},\"seq\":{seq},\"hops\":{hops}}}}}"
                );
            }
            _ => {
                let proxy = event.proxy().unwrap_or(0);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{proxy},\"ts\":{t},\"name\":"
                );
                write_escaped(&mut out, event.kind().name());
                out.push_str(",\"args\":");
                // Reuse the JSONL object as the args payload: it is a
                // flat JSON object carrying every field of the variant.
                write_event_json(&mut out, t, event);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

/// Writes the chrome trace to `writer`.
pub fn write_chrome_trace<W: io::Write>(
    writer: &mut W,
    events: &[(u64, SimEvent)],
) -> io::Result<()> {
    writer.write_all(to_chrome_trace(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn trace_is_valid_json_with_expected_rows() {
        let events = [
            (
                0,
                SimEvent::RequestInjected {
                    client: 1,
                    seq: 0,
                    object: 42,
                },
            ),
            (
                5,
                SimEvent::ForwardLearned {
                    proxy: 0,
                    object: 42,
                    to: 3,
                },
            ),
            (
                12,
                SimEvent::RequestCompleted {
                    client: 1,
                    seq: 0,
                    object: 42,
                    server: Some(0),
                    hops: 3,
                    start_us: 0,
                },
            ),
        ];
        let trace = to_chrome_trace(&events);
        validate_json(&trace).expect("chrome trace must be valid JSON");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        // Injection is folded into the span; span covers 0..12 on tid 1.
        assert!(
            trace.contains("\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"dur\":12,\"name\":\"hit\"")
        );
        assert!(trace.contains("\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":5"));
        assert!(trace.contains("\"name\":\"forward_learned\""));
        // Two process_name rows plus one thread_name per lane (client 1,
        // proxy 0).
        assert_eq!(trace.matches("\"ph\":\"M\"").count(), 4);
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"client 1\"}"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"proxy 0\"}"));
    }

    #[test]
    fn lane_metadata_is_sorted_and_deduplicated() {
        let hit = |proxy| SimEvent::LocalHit { proxy, object: 1 };
        let events = [(0, hit(3)), (1, hit(0)), (2, hit(3)), (3, hit(2))];
        let trace = to_chrome_trace(&events);
        validate_json(&trace).expect("valid JSON");
        let p0 = trace.find("\"proxy 0\"").expect("proxy 0 labeled");
        let p2 = trace.find("\"proxy 2\"").expect("proxy 2 labeled");
        let p3 = trace.find("\"proxy 3\"").expect("proxy 3 labeled");
        assert!(p0 < p2 && p2 < p3, "thread names in ascending tid order");
        assert_eq!(trace.matches("\"proxy 3\"").count(), 1, "deduplicated");
    }

    #[test]
    fn empty_stream_is_still_valid() {
        let trace = to_chrome_trace(&[]);
        validate_json(&trace).expect("empty trace must be valid JSON");
    }
}
