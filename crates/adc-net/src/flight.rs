//! The crash flight recorder: post-mortem dumps of a node's last spans
//! and metric registry.
//!
//! A [`FlightRecorder`] is shared by every node of a cluster. Two
//! events trigger a dump: the node's own frame handler panicking (the
//! connection loop catches the unwind, dumps, and takes the node
//! down), and the replay driver declaring a peer dead after repeated
//! consecutive timeouts ([`crate::drive_workload_traced`]). Either way
//! the dump is a self-describing JSONL file: a header object carrying
//! the reason, the drop counters and the full Prometheus registry
//! snapshot, followed by the newest spans from the node's ring — the
//! last causally-ordered evidence of what the node was doing.

use crate::node::{render_node_metrics, ProxyNode};
use crate::sync::Mutex;
use crate::trace::NodeTracer;
use adc_core::CacheAgent;
use adc_obs::json::write_escaped;
use adc_obs::netspan::write_net_span_json;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes post-mortem files for dead or dying nodes.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    last: usize,
}

impl FlightRecorder {
    /// Creates a recorder writing into `dir` (created if missing),
    /// keeping the newest `last` spans per dump.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn new(dir: impl Into<PathBuf>, last: usize) -> io::Result<FlightRecorder> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FlightRecorder { dir, last })
    }

    /// Where dumps for proxy `p` land.
    pub fn path_for(&self, proxy: u32) -> PathBuf {
        self.dir.join(format!("postmortem-proxy-{proxy}.jsonl"))
    }

    /// Dumps `node`'s registry snapshot and newest spans, returning the
    /// file path. Used by the driver when it declares a peer dead; the
    /// node itself may be unresponsive, so everything is read from the
    /// shared in-process handles, not over the wire.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn dump_proxy<A: CacheAgent>(
        &self,
        node: &ProxyNode<A>,
        now_us: u64,
        reason: &str,
    ) -> io::Result<PathBuf> {
        let (proxy, metrics) = {
            let agent = node.agent.lock();
            let trace = node.tracer.as_ref().map(|t| t.lock().counters());
            (
                agent.proxy_id().raw(),
                render_node_metrics(
                    agent.proxy_id(),
                    agent.stats(),
                    node.store.lock().len(),
                    trace,
                ),
            )
        };
        self.dump_parts(proxy, &metrics, node.tracer.as_deref(), now_us, reason)
    }

    /// The dump primitive: also called from inside a node's connection
    /// loop on panic, where only the shared parts are in scope.
    pub(crate) fn dump_parts(
        &self,
        proxy: u32,
        metrics: &str,
        tracer: Option<&Mutex<NodeTracer>>,
        now_us: u64,
        reason: &str,
    ) -> io::Result<PathBuf> {
        let (dropped, spans) = match tracer {
            Some(t) => {
                let t = t.lock();
                (t.dropped_total(), t.ring().last(self.last))
            }
            None => (0, Vec::new()),
        };
        let mut out = String::with_capacity(1024 + spans.len() * 128);
        let _ = write!(out, "{{\"node\":{proxy},\"reason\":");
        write_escaped(&mut out, reason);
        let _ = write!(
            out,
            ",\"now_us\":{now_us},\"spans_dropped\":{dropped},\"spans\":{},\"metrics\":",
            spans.len()
        );
        write_escaped(&mut out, metrics);
        out.push_str("}\n");
        for span in &spans {
            write_net_span_json(&mut out, span);
            out.push('\n');
        }
        let path = self.path_for(proxy);
        fs::write(&path, out)?;
        Ok(path)
    }

    /// The directory dumps land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TraceContext;
    use adc_obs::validate_json;
    use adc_obs::SegmentKind;

    #[test]
    fn dump_writes_header_plus_newest_spans() {
        let dir = std::env::temp_dir().join(format!("adc-flight-{}", std::process::id()));
        let recorder = FlightRecorder::new(&dir, 2).unwrap();
        let tracer = Mutex::new(NodeTracer::new(3, 8));
        for i in 0..4u64 {
            tracer.lock().record_leaf(
                TraceContext {
                    trace_id: 1,
                    parent_span: 0,
                    hop: 0,
                },
                i,
                SegmentKind::ReplyReturn,
                i * 10,
                i * 10 + 5,
            );
        }
        let path = recorder
            .dump_parts(
                3,
                "adc_requests_received_total{proxy=\"3\"} 4\n",
                Some(&tracer),
                99,
                "test dump",
            )
            .unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header plus the newest two spans");
        for line in &lines {
            validate_json(line).expect("every dump line is valid JSON");
        }
        assert!(lines[0].contains("\"reason\":\"test dump\""));
        assert!(lines[0].contains("\"spans\":2"));
        assert!(lines[0].contains("adc_requests_received_total"));
        assert!(lines[2].contains("\"object\":3"), "newest span last");
        fs::remove_dir_all(&dir).ok();
    }
}
