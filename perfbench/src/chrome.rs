//! Spans kept in memory during a traced run and written at exit as one
//! chrome-trace JSON document (`chrome://tracing`, Perfetto).

use adc_obs::json::write_escaped;
use std::fmt::Write as _;
use std::time::Instant;

/// Process lanes of the trace.
pub const PID_BENCH: u32 = 1;
/// Client lanes (live paths), one thread lane per client.
pub const PID_CLIENTS: u32 = 2;
/// Agent lanes (live paths), one thread lane per proxy.
pub const PID_PROXIES: u32 = 3;

/// An in-memory chrome trace.
#[derive(Debug)]
pub struct Chrome {
    epoch: Instant,
    events: Vec<String>,
}

impl Chrome {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Chrome {
            epoch,
            events: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Names a lane.
    pub fn lane(&mut self, pid: u32, tid: u64, name: &str) {
        let mut e = format!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":");
        write_escaped(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    /// A complete span; `args` is a JSON object body (without braces).
    pub fn span(&mut self, pid: u32, tid: u64, name: &str, start_ns: u64, dur_ns: u64, args: &str) {
        let mut e = String::from("{\"ph\":\"X\",\"name\":");
        write_escaped(&mut e, name);
        let _ = write!(
            e,
            ",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            start_ns as f64 / 1e3,
            dur_ns as f64 / 1e3
        );
        self.events.push(e);
    }

    /// Runs `f` inside a span on the benchmark's main lane.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let from = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (from(start), from(end));
        self.span(PID_BENCH, 0, name, start_ns, end_ns - start_ns, "");
        value
    }

    /// The finished document; `other_data` is a JSON object body placed
    /// under `otherData`.
    pub fn finish(self, other_data: &str) -> String {
        let mut doc = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        doc.push_str(&self.events.join(",\n"));
        let _ = write!(doc, "\n],\"otherData\":{{{other_data}}}}}\n");
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_is_valid_json() {
        let mut chrome = Chrome::new(Instant::now());
        chrome.lane(PID_BENCH, 0, "main \"lane\"");
        chrome.time("setup", || ());
        chrome.span(PID_CLIENTS, 1, "request", 5, 7, "\"request\":\"1/2\"");
        let doc = chrome.finish("\"clock_read_ns\":21.5");
        adc_obs::validate_json(&doc).expect("valid chrome trace");
        assert!(doc.contains("\"ph\":\"X\""));
    }
}
