//! JSON-Lines export of a captured event stream.
//!
//! One event per line, e.g.
//!
//! ```text
//! {"t":1250,"event":"forward_learned","proxy":0,"object":42,"to":3}
//! {"t":5250,"event":"request_completed","client":1,"seq":7,"object":42,"hit":true,"server":3,"hops":4,"start_us":0}
//! ```
//!
//! `t` is the emission timestamp in simulated microseconds; `event` is
//! the [`EventKind`] name; the remaining keys are the variant's fields.
//! A completion's `server` is `null` when the origin served the reply;
//! its `hit` says whether `server` is set.
//!
//! [`EventKind`]: crate::EventKind

use crate::event::SimEvent;
use crate::json::write_escaped;
use std::fmt::Write as _;
use std::io;

/// Renders one `(timestamp, event)` pair as a JSON object (no trailing
/// newline), appending to `out`.
pub fn write_event_json(out: &mut String, t_us: u64, event: &SimEvent) {
    let _ = write!(out, "{{\"t\":{t_us},\"event\":");
    write_escaped(out, event.kind().name());
    match *event {
        SimEvent::RequestInjected {
            client,
            seq,
            object,
        } => {
            let _ = write!(
                out,
                ",\"client\":{client},\"seq\":{seq},\"object\":{object}"
            );
        }
        SimEvent::RequestCompleted {
            client,
            seq,
            object,
            server,
            hops,
            start_us,
        } => {
            let hit = server.is_some();
            let _ = write!(
                out,
                ",\"client\":{client},\"seq\":{seq},\"object\":{object},\"hit\":{hit},\"server\":"
            );
            let _ = match server {
                Some(proxy) => write!(out, "{proxy}"),
                None => out.write_str("null"),
            };
            let _ = write!(out, ",\"hops\":{hops},\"start_us\":{start_us}");
        }
        SimEvent::ForwardLearned { proxy, object, to }
        | SimEvent::ForwardRandom { proxy, object, to } => {
            let _ = write!(out, ",\"proxy\":{proxy},\"object\":{object},\"to\":{to}");
        }
        SimEvent::HopLimitHit {
            proxy,
            object,
            hops,
        } => {
            let _ = write!(
                out,
                ",\"proxy\":{proxy},\"object\":{object},\"hops\":{hops}"
            );
        }
        SimEvent::BackwardAdoption {
            proxy,
            object,
            owner,
        } => {
            let _ = write!(
                out,
                ",\"proxy\":{proxy},\"object\":{object},\"owner\":{owner}"
            );
        }
        SimEvent::TableMigration {
            proxy,
            object,
            from,
            to,
        } => {
            let _ = write!(out, ",\"proxy\":{proxy},\"object\":{object},\"from\":");
            write_escaped(out, from.name());
            out.push_str(",\"to\":");
            write_escaped(out, to.name());
        }
        SimEvent::LoopDetected { proxy, object }
        | SimEvent::OriginThisMiss { proxy, object }
        | SimEvent::LocalHit { proxy, object }
        | SimEvent::CacheInsert { proxy, object }
        | SimEvent::CacheEvict { proxy, object }
        | SimEvent::ReplyOrphaned { proxy, object } => {
            let _ = write!(out, ",\"proxy\":{proxy},\"object\":{object}");
        }
        SimEvent::ProxyRestarted { proxy } => {
            let _ = write!(out, ",\"proxy\":{proxy}");
        }
    }
    out.push('}');
}

/// Writes the captured stream as JSON Lines to `writer`, one event per
/// line, in emission order.
pub fn write_jsonl<W: io::Write>(writer: &mut W, events: &[(u64, SimEvent)]) -> io::Result<()> {
    let mut line = String::with_capacity(128);
    for (t, event) in events {
        line.clear();
        write_event_json(&mut line, *t, event);
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Renders the captured stream as one JSONL string (for tests).
#[expect(
    clippy::expect_used,
    reason = "Vec<u8> writes are infallible and the emitter only produces ASCII-escaped JSON"
)]
pub fn to_jsonl_string(events: &[(u64, SimEvent)]) -> String {
    let mut out = Vec::new();
    write_jsonl(&mut out, events).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSONL output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TableLevel;
    use crate::json::validate_json;

    #[test]
    fn every_variant_renders_valid_json() {
        let events = [
            (
                0,
                SimEvent::RequestInjected {
                    client: 1,
                    seq: 2,
                    object: 3,
                },
            ),
            (
                9,
                SimEvent::RequestCompleted {
                    client: 1,
                    seq: 2,
                    object: 3,
                    server: None,
                    hops: 4,
                    start_us: 0,
                },
            ),
            (
                10,
                SimEvent::RequestCompleted {
                    client: 1,
                    seq: 3,
                    object: 3,
                    server: Some(2),
                    hops: 2,
                    start_us: 4,
                },
            ),
            (
                1,
                SimEvent::ForwardLearned {
                    proxy: 0,
                    object: 3,
                    to: 2,
                },
            ),
            (
                2,
                SimEvent::ForwardRandom {
                    proxy: 2,
                    object: 3,
                    to: 4,
                },
            ),
            (
                3,
                SimEvent::LoopDetected {
                    proxy: 4,
                    object: 3,
                },
            ),
            (
                3,
                SimEvent::HopLimitHit {
                    proxy: 4,
                    object: 3,
                    hops: 16,
                },
            ),
            (
                4,
                SimEvent::OriginThisMiss {
                    proxy: 4,
                    object: 3,
                },
            ),
            (
                5,
                SimEvent::LocalHit {
                    proxy: 1,
                    object: 3,
                },
            ),
            (
                6,
                SimEvent::BackwardAdoption {
                    proxy: 0,
                    object: 3,
                    owner: 4,
                },
            ),
            (
                7,
                SimEvent::TableMigration {
                    proxy: 0,
                    object: 3,
                    from: TableLevel::Single,
                    to: TableLevel::Multiple,
                },
            ),
            (
                8,
                SimEvent::CacheInsert {
                    proxy: 0,
                    object: 3,
                },
            ),
            (
                8,
                SimEvent::CacheEvict {
                    proxy: 0,
                    object: 7,
                },
            ),
            (
                9,
                SimEvent::ReplyOrphaned {
                    proxy: 2,
                    object: 3,
                },
            ),
            (10, SimEvent::ProxyRestarted { proxy: 4 }),
        ];
        let jsonl = to_jsonl_string(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            validate_json(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        }
        assert!(lines[0].starts_with(r#"{"t":0,"event":"request_injected""#));
        assert!(lines[1].contains(r#""hit":false,"server":null,"hops":4"#));
        assert!(lines[2].contains(r#""hit":true,"server":2,"hops":2"#));
        assert!(lines[3].contains(r#""to":2"#));
        assert!(lines[10].contains(r#""from":"single","to":"multiple""#));
        assert_eq!(
            lines.last().copied(),
            Some(r#"{"t":10,"event":"proxy_restarted","proxy":4}"#)
        );
    }
}
