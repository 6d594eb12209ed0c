//! Trace records: a plain-text format, replay, and arrival-rate scaling.
//!
//! The format is one request per line, whitespace-separated:
//!
//! ```text
//! # arrival_seconds  lbn  sectors  R|W
//! 0.001250 123456 8 R
//! 0.001980 8192 16 W
//! ```
//!
//! Replay follows the paper's §4.3 methodology for driving faster devices
//! with old traces: a *scale factor* divides the traced interarrival
//! times (scale 2 doubles the average arrival rate).

use std::fmt::Write as _;
use std::str::FromStr;

use storage_sim::{IoKind, Request, SimTime, Workload};

/// One traced request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Arrival time in seconds from trace start.
    pub arrival: f64,
    /// Start LBN.
    pub lbn: u64,
    /// Sectors transferred.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl TraceRecord {
    /// Formats the record as one trace line (no newline).
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        let k = if self.kind.is_read() { 'R' } else { 'W' };
        write!(s, "{:.6} {} {} {}", self.arrival, self.lbn, self.sectors, k)
            .expect("writing to String cannot fail");
        s
    }
}

impl FromStr for TraceRecord {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let mut parts = line.split_whitespace();
        let arrival: f64 = parts
            .next()
            .ok_or("missing arrival time")?
            .parse()
            .map_err(|e| format!("bad arrival time: {e}"))?;
        let lbn: u64 = parts
            .next()
            .ok_or("missing lbn")?
            .parse()
            .map_err(|e| format!("bad lbn: {e}"))?;
        let sectors: u32 = parts
            .next()
            .ok_or("missing sector count")?
            .parse()
            .map_err(|e| format!("bad sector count: {e}"))?;
        let kind = match parts.next().ok_or("missing R|W flag")? {
            "R" | "r" => IoKind::Read,
            "W" | "w" => IoKind::Write,
            other => return Err(format!("bad R|W flag: {other:?}")),
        };
        if parts.next().is_some() {
            return Err("trailing fields".to_string());
        }
        if sectors == 0 {
            return Err("zero-sector request".to_string());
        }
        if !arrival.is_finite() || arrival < 0.0 {
            return Err("arrival time must be finite and non-negative".to_string());
        }
        Ok(TraceRecord {
            arrival,
            lbn,
            sectors,
            kind,
        })
    }
}

/// Parses a whole trace (one record per line; `#` comments and blank
/// lines ignored).
///
/// # Examples
///
/// ```
/// use storage_trace::parse_trace;
///
/// let text = "# demo\n0.0 100 8 R\n0.5 200 16 W\n";
/// let records = parse_trace(text).unwrap();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].sectors, 16);
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let rec: TraceRecord = trimmed
            .parse()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Serializes records to the text format.
pub fn format_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("# arrival_seconds lbn sectors R|W\n");
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Replays a recorded trace as a workload, dividing interarrival times by
/// `scale` (§4.3: scale 1 = as traced, scale 2 = twice the arrival rate).
#[derive(Debug)]
pub struct TraceWorkload {
    records: std::vec::IntoIter<TraceRecord>,
    scale: f64,
    next_id: u64,
}

impl TraceWorkload {
    /// Creates a replay of `records` at the given scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive or the records are not sorted by
    /// arrival time.
    pub fn new(records: Vec<TraceRecord>, scale: f64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        for pair in records.windows(2) {
            assert!(
                pair[0].arrival <= pair[1].arrival,
                "trace must be sorted by arrival time"
            );
        }
        TraceWorkload {
            records: records.into_iter(),
            scale,
            next_id: 0,
        }
    }
}

impl Workload for TraceWorkload {
    fn next_request(&mut self) -> Option<Request> {
        let rec = self.records.next()?;
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(rec.arrival / self.scale),
            rec.lbn,
            rec.sectors,
            rec.kind,
        );
        self.next_id += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

/// Replays any stream of [`TraceRecord`]s as a workload without
/// materializing them — the streaming counterpart of [`TraceWorkload`].
///
/// The source is an ordinary `Iterator` (every generator in this crate —
/// [`crate::CelloWorkload`], [`crate::TpccWorkload`],
/// [`crate::StreamingWorkload`] — yields its records this way), and the
/// `ExactSizeIterator` bound keeps `len_hint` exact at any trace length,
/// as a streaming fleet requires. Interarrival times are
/// divided by `scale`, exactly as [`TraceWorkload`] does (§4.3).
///
/// # Examples
///
/// ```
/// use storage_sim::Workload;
/// use storage_trace::{CelloParams, CelloWorkload, Replay};
///
/// let source = CelloWorkload::new(&CelloParams::default(), 7);
/// let mut workload = Replay::new(source, 2.0);
/// assert_eq!(workload.len_hint(), Some(10_000));
/// assert!(workload.next_request().is_some());
/// ```
#[derive(Debug)]
pub struct Replay<I> {
    records: I,
    scale: f64,
    next_id: u64,
    last_arrival: f64,
}

impl<I> Replay<I>
where
    I: Iterator<Item = TraceRecord> + ExactSizeIterator,
{
    /// Creates a streaming replay of `records` at the given scale factor.
    /// Arrival-time ordering is asserted as records stream through.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn new(records: I, scale: f64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        Replay {
            records,
            scale,
            next_id: 0,
            last_arrival: 0.0,
        }
    }
}

impl<I> Workload for Replay<I>
where
    I: Iterator<Item = TraceRecord> + ExactSizeIterator,
{
    fn next_request(&mut self) -> Option<Request> {
        let rec = self.records.next()?;
        assert!(
            rec.arrival >= self.last_arrival,
            "trace must be sorted by arrival time"
        );
        self.last_arrival = rec.arrival;
        let req = Request::new(
            self.next_id,
            SimTime::from_secs(rec.arrival / self.scale),
            rec.lbn,
            rec.sectors,
            rec.kind,
        );
        self.next_id += 1;
        Some(req)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_text() {
        let r = TraceRecord {
            arrival: 1.25,
            lbn: 424242,
            sectors: 7,
            kind: IoKind::Write,
        };
        let parsed: TraceRecord = r.to_line().parse().unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn trace_round_trips_through_text() {
        let records = vec![
            TraceRecord {
                arrival: 0.0,
                lbn: 1,
                sectors: 8,
                kind: IoKind::Read,
            },
            TraceRecord {
                arrival: 0.5,
                lbn: 100,
                sectors: 2,
                kind: IoKind::Write,
            },
        ];
        let text = format_trace(&records);
        assert_eq!(parse_trace(&text).unwrap(), records);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_trace("nonsense").is_err());
        assert!(parse_trace("0.0 1 8").is_err());
        assert!(parse_trace("0.0 1 8 X").is_err());
        assert!(parse_trace("0.0 1 0 R").is_err());
        assert!(parse_trace("-1.0 1 8 R").is_err());
        assert!(parse_trace("0.0 1 8 R extra").is_err());
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let text = "\n# header\n\n0.0 5 8 R\n  \n";
        assert_eq!(parse_trace(text).unwrap().len(), 1);
    }

    #[test]
    fn scaling_divides_arrival_times() {
        let records = vec![
            TraceRecord {
                arrival: 0.0,
                lbn: 0,
                sectors: 1,
                kind: IoKind::Read,
            },
            TraceRecord {
                arrival: 2.0,
                lbn: 0,
                sectors: 1,
                kind: IoKind::Read,
            },
        ];
        let mut w = TraceWorkload::new(records, 2.0);
        assert_eq!(w.next_request().unwrap().arrival, SimTime::ZERO);
        assert_eq!(w.next_request().unwrap().arrival, SimTime::from_secs(1.0));
        assert!(w.next_request().is_none());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let records = vec![
            TraceRecord {
                arrival: 2.0,
                lbn: 0,
                sectors: 1,
                kind: IoKind::Read,
            },
            TraceRecord {
                arrival: 1.0,
                lbn: 0,
                sectors: 1,
                kind: IoKind::Read,
            },
        ];
        let _ = TraceWorkload::new(records, 1.0);
    }
}
