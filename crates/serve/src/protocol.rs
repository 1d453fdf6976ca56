//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! compact JSON (the [`aem_obs::json`] dialect used everywhere else in the
//! workspace). Frames are capped at [`MAX_FRAME`] bytes; a peer announcing
//! a longer frame is rejected before any allocation. Decoding is pure
//! (`&[u8] -> Result<Option<(Json, usize)>>`) so the truncation and
//! oversize paths are property-testable without sockets.

use aem_machine::Cost;
use aem_obs::json::{parse, Json};
use aem_obs::json_table;
use std::io::{Read, Write};

/// Hard cap on a frame's JSON payload, in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// The job kinds the service prices and executes: exactly the workload
/// registry's kinds. Registering a new kind in `aem-core` extends the
/// wire protocol with no change here.
pub use aem_core::workload::WorkloadKind as JobKind;

json_table! {
    /// One job request: what to run, on which machine shape, and whether
    /// the caller wants the payload back or only the metered cost.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JobSpec {
        /// Caller-chosen id, echoed on every response for this job.
        pub id: u64,
        /// Which workload family.
        pub kind: JobKind,
        /// Input size in elements (for spmv: columns).
        pub n: usize,
        /// Internal memory capacity `M` in elements.
        pub mem: usize,
        /// Block size `B` in elements.
        pub block: usize,
        /// Write/read cost ratio `ω`.
        pub omega: u64,
        /// The kind's second shape parameter (`Workload::delta_name`):
        /// non-zeros per column for spmv, lookups for search, prefix
        /// queries for scan, out-degree for bfs; sort, permute, pq and
        /// matmul ignore it.
        pub delta: usize = 0,
        /// Workload seed: equal seeds give equal instances, bit for bit.
        pub seed: u64 = 0,
        /// `true` if the caller needs the computed payload verified;
        /// `false` for cost-only queries, which the planner may route to
        /// ghost or compiled-trace replay.
        pub payload: bool = false,
        /// Force a specific backend by name, or `None` to let the planner
        /// pick.
        pub backend: Option<String> = omit,
    }
}

json_table! {
    /// A client-to-server message. The server answers one that fails to
    /// decode with [`Response::Error`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request: "type" {
        /// Register (or top up) a tenant with an additional cost budget.
        Hello = "hello" {
            /// Tenant name; one connection serves one tenant.
            tenant: String,
            /// Budget units of `Q = Q_r + ω·Q_w` to add.
            budget: u64,
        },
        /// Price, admit and execute one job.
        Job = "job" (JobSpec = flat),
        /// Admit sequentially, execute in parallel, reply in order.
        Batch = "batch" (Vec<JobSpec> as "jobs"),
        /// Price a job without executing or debiting the budget.
        Quote = "quote" (JobSpec = flat),
        /// This tenant's metering snapshot.
        Stats = "stats",
        /// The full Prometheus text exposition.
        Metrics = "metrics",
        /// Ask the server to stop accepting and drain (used by tests; CI
        /// exercises the SIGTERM path).
        Shutdown = "shutdown",
    }
}

json_table! {
    /// The outcome of one executed job.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JobOutcome {
        /// Echo of the request id.
        pub id: u64,
        /// The algorithm the planner chose (e.g. `"aem"`, `"by-sort"`).
        pub algo: String,
        /// The backend it ran on. May differ between identical runs (a
        /// repeated cost-only config replays its compiled trace); costs
        /// may not, per the `COST_MODEL.md` replay contract.
        pub backend: String,
        /// The predictor's priced cost, fixed at admission.
        pub predicted: Cost,
        /// The metered cost of the actual run.
        pub measured: Cost,
        /// `measured` collapsed to `Q = Q_r + ω·Q_w`.
        pub q: u64,
        /// FNV-1a digest of the verified output payload (0 for cost-only).
        pub checksum: u64,
    }
}

json_table! {
    /// A server-to-client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response: "type" {
        /// Tenant registered; total budget now as stated. A top-up that
        /// releases parked jobs carries their in-order outcomes here, so
        /// the client never has to guess how many extra frames to read.
        HelloOk = "hello_ok" {
            /// The tenant's cumulative budget after this hello.
            budget: u64,
            /// Outcomes of jobs drained from the queue by this top-up.
            drained: Vec<Response> = (Vec::new()),
        },
        /// Job executed.
        Done = "done" (JobOutcome = flat),
        /// Cost-only quote: what the job *would* cost.
        Quoted = "quoted" {
            /// Echo of the request id.
            id: u64,
            /// The algorithm the planner would choose.
            algo: String,
            /// The predicted component costs.
            predicted: Cost,
            /// Predicted `Q` under the job's ω.
            q: u64,
        },
        /// Admission refused the job.
        Rejected = "rejected" {
            /// Echo of the request id.
            id: u64,
            /// `"over_budget"` or `"bad_request: ..."`.
            reason: String,
            /// The priced `Q` (0 when the spec itself was invalid).
            q: u64,
            /// Budget remaining after the decision.
            remaining: u64,
        },
        /// Job parked until a future budget top-up covers it.
        Queued = "queued" {
            /// Echo of the request id.
            id: u64,
            /// The priced `Q` it is waiting to afford.
            q: u64,
        },
        /// In-order replies for a batch, one per submitted job.
        Batch = "batch" (Vec<Response> as "results"),
        /// Per-tenant metering snapshot.
        Stats = "stats" {
            /// Tenant name.
            tenant: String,
            /// Cumulative budget granted.
            budget: u64,
            /// Predicted `Q` debited by admission so far.
            spent: u64,
            /// Jobs accepted (including drained ones).
            accepted: u64,
            /// Jobs rejected.
            rejected: u64,
            /// Jobs currently parked.
            queued: u64,
            /// Quotes served.
            quotes: u64,
            /// Measured read I/Os across completed jobs.
            reads: u64,
            /// Measured write I/Os across completed jobs.
            writes: u64,
        },
        /// Prometheus text exposition of every tenant's meters.
        Metrics = "metrics" {
            /// The exposition body.
            text: String,
        },
        /// Shutdown acknowledged; the server drains and exits.
        Bye = "bye",
        /// Request-level failure (malformed frame, unknown type, no hello).
        Error = "error" {
            /// Human-readable cause.
            message: String,
        },
    }
}

/// Encode one JSON value as a length-prefixed frame.
pub fn encode_frame(j: &Json) -> Vec<u8> {
    let body = j.to_string_compact();
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((json, consumed)))` — a complete frame; drop `consumed` bytes.
/// * `Ok(None)` — the frame is not complete yet; read more.
/// * `Err(_)` — the stream is unrecoverable (oversized announcement, bad
///   UTF-8, or malformed JSON). Never panics, whatever the bytes.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Json, usize)>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(format!(
            "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body =
        std::str::from_utf8(&buf[4..4 + len]).map_err(|e| format!("frame not UTF-8: {e}"))?;
    let json = parse(body).map_err(|e| format!("frame not JSON: {e}"))?;
    Ok(Some((json, 4 + len)))
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, j: &Json) -> Result<(), String> {
    w.write_all(&encode_frame(j))
        .and_then(|_| w.flush())
        .map_err(|e| format!("write: {e}"))
}

/// What [`FrameReader::poll`] observed on the stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Json),
    /// Nothing complete yet (timeout or partial frame); poll again.
    Idle,
    /// The peer closed the connection cleanly between frames.
    Closed,
}

/// An accumulating frame reader tolerant of read timeouts: bytes are
/// buffered across polls, so a frame split by a timeout is reassembled
/// instead of lost.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the stream one step; see [`ReadOutcome`].
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<ReadOutcome, String> {
        if let Some((json, consumed)) = decode_frame(&self.buf)? {
            self.buf.drain(..consumed);
            return Ok(ReadOutcome::Frame(json));
        }
        let mut chunk = [0u8; 16 * 1024];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err("connection closed mid-frame".into())
                }
            }
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                match decode_frame(&self.buf)? {
                    Some((json, consumed)) => {
                        self.buf.drain(..consumed);
                        Ok(ReadOutcome::Frame(json))
                    }
                    None => Ok(ReadOutcome::Idle),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(ReadOutcome::Idle)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Blocking request/response exchange used by clients (the load generator
/// and tests): write one frame, then poll until a full response arrives.
pub fn exchange<S: Read + Write>(stream: &mut S, req: &Request) -> Result<Response, String> {
    write_frame(stream, &req.to_json())?;
    read_response(stream)
}

/// Block until one response frame arrives on `stream`.
pub fn read_response<S: Read>(stream: &mut S) -> Result<Response, String> {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(stream)? {
            ReadOutcome::Frame(j) => return Response::from_json(&j),
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => return Err("connection closed awaiting response".into()),
        }
    }
}
