//! Line-delimited JSON wire protocol between sweep-service clients and
//! the `csmt-serve` daemon.
//!
//! Every message is one JSON object on one line. A connection carries a
//! sequence of client [`Request`]s; the daemon answers each with one
//! [`Response`] — except `Events`, which streams one `Response::Event`
//! line per job event and ends the stream with the job's
//! [`JobEvent::Finished`] event (the connection then accepts further
//! requests). Enums use the vendored serde's externally-tagged encoding,
//! e.g. `{"Submit":{"spec":{...}}}` and plain `"Stats"` for unit
//! variants.

use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};

/// What a client can ask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job. Answered with `Submitted` (possibly attached to an
    /// identical in-flight job) or `Rejected` (queue full / bad spec).
    Submit { spec: JobSpec },
    /// One-shot state query for a job id.
    Status { job: u64 },
    /// Stream the job's events from the beginning (history replays
    /// first), ending with its `Finished` event.
    Events { job: u64 },
    /// Cancel a queued job. Running jobs are not interrupted.
    Cancel { job: u64 },
    /// Daemon-wide counters.
    Stats,
    /// Stop accepting work and exit once running jobs finish. Queued
    /// jobs stay journaled and are recovered by the next daemon.
    Shutdown,
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Job accepted. `attached = true` means an identical job was
    /// already queued or running and this submission joined it.
    Submitted { job: u64, attached: bool },
    /// Job refused. `retry_after_ms` > 0 marks backpressure (admission
    /// queue full): retry after the hint. `retry_after_ms == 0` marks a
    /// permanent rejection (malformed spec) — do not retry.
    Rejected { reason: String, retry_after_ms: u64 },
    /// Current lifecycle state: `queued`, `running`, `done`, `failed`,
    /// or `cancelled`.
    Status { job: u64, state: String },
    /// One streamed job event.
    Event { job: u64, event: JobEvent },
    /// Daemon-wide counters.
    Stats { stats: ServeStats },
    /// The request could not be served (unknown job, cancel of a
    /// running job, ...).
    Error { message: String },
    /// Acknowledges `Shutdown`.
    ShuttingDown,
}

/// Progress events of one job, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// Admitted to the queue.
    Queued,
    /// Left the queue; simulations may now run.
    Started,
    /// One artifact's computation began.
    ArtifactStart { name: String },
    /// One artifact finished; `table_json` is the rendered
    /// [`crate::report::Table`] serialized with `to_json`, so clients
    /// reproduce the batch CLI's output byte-for-byte.
    ArtifactDone { name: String, table_json: String },
    /// Terminal event: `state` is `done`, `cancelled`, or
    /// `failed:<message>`.
    Finished { state: String },
}

/// Daemon-wide counters: job lifecycle totals plus the underlying
/// sweep-layer counters (store traffic, simulation outcomes, executor
/// activity, single-flight coalescing), flattened for a stable wire
/// shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    pub jobs_submitted: u64,
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub jobs_queued: u64,
    pub jobs_running: u64,
    /// Store lookups served from disk ([`csmt_store::StoreCounters`]).
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_puts: u64,
    pub store_quarantined: u64,
    /// Simulation outcomes ([`csmt_store::OrchCounters`]): `sims_completed`
    /// counts actual simulations — the exactly-once witness.
    pub sims_completed: u64,
    pub sims_retried: u64,
    pub sims_failed: u64,
    /// Executor traffic ([`csmt_store::ExecCounters`]).
    pub exec_workers: u64,
    pub exec_executed: u64,
    pub exec_steals: u64,
    /// Single-flight traffic: `flights_coalesced` counts duplicate
    /// concurrent simulations that were avoided.
    pub flights_led: u64,
    pub flights_coalesced: u64,
}

/// Write one message as a JSON line and flush it (the peer blocks on the
/// newline).
pub fn write_line<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let text = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Longest request line the daemon reads, newline included. Requests are
/// small specs; the cap bounds what one client can make the daemon buffer.
/// Responses are not capped: `ArtifactDone` lines carry whole tables.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Read the next non-empty line and parse it as a [`Request`]. `None` on
/// clean EOF; an `InvalidData` error names the offending line, or says
/// that it ran past [`MAX_REQUEST_LINE`] bytes.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    read_parsed(r, MAX_REQUEST_LINE)
}

/// Read the next non-empty line and parse it as a [`Response`]. `None`
/// on clean EOF.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    read_parsed(r, usize::MAX)
}

fn read_parsed<T: Deserialize>(r: &mut impl BufRead, max_line: usize) -> io::Result<Option<T>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    // One byte past the cap tells a line that fits from one that does not.
    let limit = u64::try_from(max_line).map_or(u64::MAX, |n| n.saturating_add(1));
    loop {
        let mut bytes = Vec::new();
        if r.take(limit).read_until(b'\n', &mut bytes)? == 0 {
            return Ok(None);
        }
        if bytes.len() > max_line {
            return Err(invalid(format!(
                "protocol line longer than {max_line} bytes"
            )));
        }
        let line = String::from_utf8(bytes).map_err(|e| invalid(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde_json::from_str(trimmed)
            .map(Some)
            .map_err(|e| invalid(format!("bad protocol line '{trimmed}': {e}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpOptions;

    fn spec() -> JobSpec {
        JobSpec::new(vec!["fig2".into()], &ExpOptions::default())
    }

    #[test]
    fn requests_round_trip_the_wire() {
        let reqs = vec![
            Request::Submit { spec: spec() },
            Request::Status { job: 3 },
            Request::Events { job: 3 },
            Request::Cancel { job: 4 },
            Request::Stats,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_line(&mut buf, r).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for expect in &reqs {
            assert_eq!(read_request(&mut r).unwrap().as_ref(), Some(expect));
        }
        assert_eq!(read_request(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn responses_round_trip_the_wire() {
        let resps = vec![
            Response::Submitted {
                job: 1,
                attached: true,
            },
            Response::Rejected {
                reason: "queue full".into(),
                retry_after_ms: 250,
            },
            Response::Status {
                job: 1,
                state: "running".into(),
            },
            Response::Event {
                job: 1,
                event: JobEvent::ArtifactDone {
                    name: "fig2".into(),
                    table_json: "{}".into(),
                },
            },
            Response::Stats {
                stats: ServeStats {
                    jobs_submitted: 2,
                    sims_completed: 7,
                    flights_coalesced: 1,
                    ..ServeStats::default()
                },
            },
            Response::Error {
                message: "unknown job 9".into(),
            },
            Response::ShuttingDown,
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_line(&mut buf, r).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for expect in &resps {
            assert_eq!(read_response(&mut r).unwrap().as_ref(), Some(expect));
        }
        assert_eq!(read_response(&mut r).unwrap(), None);
    }

    #[test]
    fn blank_lines_are_skipped_and_junk_is_an_error() {
        let mut r = std::io::Cursor::new(b"\n\n\"Stats\"\nnot json\n".to_vec());
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Stats));
        let err = read_request(&mut r).unwrap_err();
        assert!(err.to_string().contains("not json"), "{err}");
    }

    #[test]
    fn only_request_lines_are_capped() {
        let padding = " ".repeat(MAX_REQUEST_LINE);
        let mut r = std::io::Cursor::new(format!("{padding}\"Stats\"\n").into_bytes());
        let err = read_request(&mut r).unwrap_err();
        assert!(err.to_string().contains("longer than"), "{err}");
        let mut r = std::io::Cursor::new(format!("{padding}\"ShuttingDown\"\n").into_bytes());
        assert_eq!(read_response(&mut r).unwrap(), Some(Response::ShuttingDown));
    }

    #[test]
    fn job_events_replay_in_order() {
        let events = vec![
            JobEvent::Queued,
            JobEvent::Started,
            JobEvent::ArtifactStart {
                name: "fig2".into(),
            },
            JobEvent::ArtifactDone {
                name: "fig2".into(),
                table_json: "{\"title\":\"t\"}".into(),
            },
            JobEvent::Finished {
                state: "done".into(),
            },
        ];
        for e in &events {
            let text = serde_json::to_string(e).unwrap();
            let back: JobEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, e);
        }
    }
}
