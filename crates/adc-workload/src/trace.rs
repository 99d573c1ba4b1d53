//! Request records and trace files.

use adc_core::{ClientId, ObjectId};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::str::FromStr;

/// Which of the paper's three workload phases a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase 1: the fill phase, "almost no request repetitions".
    Fill,
    /// Phase 2: request phase I.
    RequestI,
    /// Phase 3: request phase II, which "repeats" phase I.
    RequestII,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Fill => "fill",
            Phase::RequestI => "request1",
            Phase::RequestII => "request2",
        };
        f.write_str(s)
    }
}

impl FromStr for Phase {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fill" => Ok(Phase::Fill),
            "request1" => Ok(Phase::RequestI),
            "request2" => Ok(Phase::RequestII),
            other => Err(TraceParseError::BadPhase(other.to_string())),
        }
    }
}

/// One request in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Global position in the trace (0-based).
    pub seq: u64,
    /// The client issuing the request.
    pub client: ClientId,
    /// The requested object.
    pub object: ObjectId,
    /// Object size in bytes.
    pub size: u32,
    /// The workload phase this request belongs to.
    pub phase: Phase,
}

/// Error parsing a trace file.
#[derive(Debug)]
pub enum TraceParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line did not have the expected five fields.
    BadLine(String),
    /// A numeric field failed to parse.
    BadNumber(String),
    /// An unknown phase tag.
    BadPhase(String),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Io(e) => write!(f, "trace io error: {e}"),
            TraceParseError::BadLine(l) => write!(f, "malformed trace line: {l:?}"),
            TraceParseError::BadNumber(t) => write!(f, "bad number in trace: {t:?}"),
            TraceParseError::BadPhase(p) => write!(f, "unknown phase tag: {p:?}"),
        }
    }
}

impl std::error::Error for TraceParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceParseError {
    fn from(e: io::Error) -> Self {
        TraceParseError::Io(e)
    }
}

/// Writes records as `seq,client,object,size,phase` lines.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(
    w: W,
    records: impl IntoIterator<Item = RequestRecord>,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "seq,client,object,size,phase")?;
    for r in records {
        writeln!(
            w,
            "{},{},{},{},{}",
            r.seq,
            r.client.raw(),
            r.object.raw(),
            r.size,
            r.phase
        )?;
    }
    w.flush()
}

/// Reads a trace written by [`write_trace`].
///
/// # Errors
///
/// Returns a [`TraceParseError`] on I/O failure or malformed content.
pub fn read_trace<R: Read>(r: R) -> Result<Vec<RequestRecord>, TraceParseError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 {
            // Header row.
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut next = || {
            parts
                .next()
                .ok_or_else(|| TraceParseError::BadLine(line.clone()))
        };
        let seq: u64 = parse_num(next()?)?;
        let client: u32 = parse_num(next()?)?;
        let object: u64 = parse_num(next()?)?;
        let size: u32 = parse_num(next()?)?;
        let phase: Phase = next()?.parse()?;
        out.push(RequestRecord {
            seq,
            client: ClientId::new(client),
            object: ObjectId::new(object),
            size,
            phase,
        });
    }
    Ok(out)
}

fn parse_num<T: FromStr>(s: &str) -> Result<T, TraceParseError> {
    s.trim()
        .parse()
        .map_err(|_| TraceParseError::BadNumber(s.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, object: u64, phase: Phase) -> RequestRecord {
        RequestRecord {
            seq,
            client: ClientId::new((seq % 7) as u32),
            object: ObjectId::new(object),
            size: 1024,
            phase,
        }
    }

    #[test]
    fn round_trip() {
        let records = vec![
            record(0, 10, Phase::Fill),
            record(1, 11, Phase::RequestI),
            record(2, 10, Phase::RequestII),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, records.clone()).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn rejects_bad_phase() {
        let text = "seq,client,object,size,phase\n0,0,1,10,banana\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceParseError::BadPhase(_)));
    }

    #[test]
    fn rejects_short_line() {
        let text = "seq,client,object,size,phase\n0,0,1\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceParseError::BadLine(_)));
    }

    #[test]
    fn rejects_bad_number() {
        let text = "seq,client,object,size,phase\nx,0,1,10,fill\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceParseError::BadNumber(_)));
    }

    #[test]
    fn skips_blank_lines() {
        let text = "seq,client,object,size,phase\n0,0,1,10,fill\n\n";
        assert_eq!(read_trace(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn phase_display_round_trip() {
        for p in [Phase::Fill, Phase::RequestI, Phase::RequestII] {
            assert_eq!(p.to_string().parse::<Phase>().unwrap(), p);
        }
    }
}
