//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! compact JSON (the [`aem_obs::json`] dialect used everywhere else in the
//! workspace). Frames are capped at [`MAX_FRAME`] bytes; a peer announcing
//! a longer frame is rejected before any allocation. Decoding is pure
//! (`&[u8] -> Result<Option<(Json, usize)>>`) so the truncation and
//! oversize paths are property-testable without sockets.

use aem_machine::Cost;
use aem_obs::json::{obj, parse, Json};
use std::io::{Read, Write};

/// Hard cap on a frame's JSON payload, in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// The job kinds the service prices and executes: exactly the workload
/// registry's kinds. Registering a new kind in `aem-core` extends the
/// wire protocol with no change here.
pub use aem_core::workload::WorkloadKind as JobKind;

/// One job request: what to run, on which machine shape, and whether the
/// caller wants the payload back or only the metered cost.
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
    /// non-zeros per column for spmv, lookups for search, prefix queries
    /// for scan, out-degree for bfs; sort, permute, pq and matmul ignore
    /// it.
    pub delta: usize,
    /// Workload seed: equal seeds give equal instances, bit for bit.
    pub seed: u64,
    /// `true` if the caller needs the computed payload verified; `false`
    /// for cost-only queries, which the planner may route to ghost or
    /// compiled-trace replay.
    pub payload: bool,
    /// Force a specific backend by name, or `None` to let the planner pick.
    pub backend: Option<String>,
}

impl JobSpec {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("id", Json::UInt(self.id)),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("n", Json::UInt(self.n as u64)),
            ("mem", Json::UInt(self.mem as u64)),
            ("block", Json::UInt(self.block as u64)),
            ("omega", Json::UInt(self.omega)),
            ("delta", Json::UInt(self.delta as u64)),
            ("seed", Json::UInt(self.seed)),
            ("payload", Json::Bool(self.payload)),
        ];
        if let Some(b) = &self.backend {
            members.push(("backend", Json::Str(b.clone())));
        }
        obj(members)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let kind = JobKind::from_name(req_str(j, "kind")?)?;
        Ok(JobSpec {
            id: req_u64(j, "id")?,
            kind,
            n: req_u64(j, "n")? as usize,
            mem: req_u64(j, "mem")? as usize,
            block: req_u64(j, "block")? as usize,
            omega: req_u64(j, "omega")?,
            delta: j.get("delta").and_then(Json::as_u64).unwrap_or(0) as usize,
            seed: j.get("seed").and_then(Json::as_u64).unwrap_or(0),
            payload: j.get("payload").and_then(Json::as_bool).unwrap_or(false),
            backend: j.get("backend").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or top up) a tenant with an additional cost budget.
    Hello {
        /// Tenant name; one connection serves one tenant.
        tenant: String,
        /// Budget units of `Q = Q_r + ω·Q_w` to add.
        budget: u64,
    },
    /// Price, admit and execute one job.
    Job(JobSpec),
    /// Admit sequentially, execute in parallel, reply in order.
    Batch(Vec<JobSpec>),
    /// Price a job without executing or debiting the budget.
    Quote(JobSpec),
    /// This tenant's metering snapshot.
    Stats,
    /// The full Prometheus text exposition.
    Metrics,
    /// Ask the server to stop accepting and drain (used by tests; CI
    /// exercises the SIGTERM path).
    Shutdown,
}

impl Request {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { tenant, budget } => obj(vec![
                ("type", Json::Str("hello".into())),
                ("tenant", Json::Str(tenant.clone())),
                ("budget", Json::UInt(*budget)),
            ]),
            Request::Job(spec) => with_type("job", spec.to_json()),
            Request::Quote(spec) => with_type("quote", spec.to_json()),
            Request::Batch(jobs) => obj(vec![
                ("type", Json::Str("batch".into())),
                (
                    "jobs",
                    Json::Arr(jobs.iter().map(JobSpec::to_json).collect()),
                ),
            ]),
            Request::Stats => obj(vec![("type", Json::Str("stats".into()))]),
            Request::Metrics => obj(vec![("type", Json::Str("metrics".into()))]),
            Request::Shutdown => obj(vec![("type", Json::Str("shutdown".into()))]),
        }
    }

    /// Parse a wire frame. Unknown or malformed requests are `Err` — the
    /// server answers those with [`Response::Error`], never a panic.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        match req_str(j, "type")? {
            "hello" => Ok(Request::Hello {
                tenant: req_str(j, "tenant")?.to_string(),
                budget: req_u64(j, "budget")?,
            }),
            "job" => Ok(Request::Job(JobSpec::from_json(j)?)),
            "quote" => Ok(Request::Quote(JobSpec::from_json(j)?)),
            "batch" => {
                let jobs = j
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or("batch requires a 'jobs' array")?;
                Ok(Request::Batch(
                    jobs.iter()
                        .map(JobSpec::from_json)
                        .collect::<Result<_, _>>()?,
                ))
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
}

/// The outcome of one executed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Echo of the request id.
    pub id: u64,
    /// The algorithm the planner chose (e.g. `"aem"`, `"by-sort"`).
    pub algo: String,
    /// The backend it ran on. May differ between identical runs (a
    /// repeated cost-only config replays its compiled trace); costs may
    /// not, per the `COST_MODEL.md` replay contract.
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

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tenant registered; total budget now as stated. A top-up that
    /// releases parked jobs carries their in-order outcomes here, so the
    /// client never has to guess how many extra frames to read.
    HelloOk {
        /// The tenant's cumulative budget after this hello.
        budget: u64,
        /// Outcomes of jobs drained from the queue by this top-up.
        drained: Vec<Response>,
    },
    /// Job executed.
    Done(JobOutcome),
    /// Cost-only quote: what the job *would* cost.
    Quoted {
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
    Rejected {
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
    Queued {
        /// Echo of the request id.
        id: u64,
        /// The priced `Q` it is waiting to afford.
        q: u64,
    },
    /// In-order replies for a batch, one per submitted job.
    Batch(Vec<Response>),
    /// Per-tenant metering snapshot.
    Stats {
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
    Metrics {
        /// The exposition body.
        text: String,
    },
    /// Shutdown acknowledged; the server drains and exits.
    Bye,
    /// Request-level failure (malformed frame, unknown type, no hello).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

fn cost_json(c: Cost) -> Json {
    obj(vec![
        ("reads", Json::UInt(c.reads)),
        ("writes", Json::UInt(c.writes)),
    ])
}

fn cost_from(j: &Json, key: &str) -> Result<Cost, String> {
    let c = j.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    Ok(Cost::new(req_u64(c, "reads")?, req_u64(c, "writes")?))
}

impl Response {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Response::HelloOk { budget, drained } => obj(vec![
                ("type", Json::Str("hello_ok".into())),
                ("budget", Json::UInt(*budget)),
                (
                    "drained",
                    Json::Arr(drained.iter().map(Response::to_json).collect()),
                ),
            ]),
            Response::Done(o) => obj(vec![
                ("type", Json::Str("done".into())),
                ("id", Json::UInt(o.id)),
                ("algo", Json::Str(o.algo.clone())),
                ("backend", Json::Str(o.backend.clone())),
                ("predicted", cost_json(o.predicted)),
                ("measured", cost_json(o.measured)),
                ("q", Json::UInt(o.q)),
                ("checksum", Json::UInt(o.checksum)),
            ]),
            Response::Quoted {
                id,
                algo,
                predicted,
                q,
            } => obj(vec![
                ("type", Json::Str("quoted".into())),
                ("id", Json::UInt(*id)),
                ("algo", Json::Str(algo.clone())),
                ("predicted", cost_json(*predicted)),
                ("q", Json::UInt(*q)),
            ]),
            Response::Rejected {
                id,
                reason,
                q,
                remaining,
            } => obj(vec![
                ("type", Json::Str("rejected".into())),
                ("id", Json::UInt(*id)),
                ("reason", Json::Str(reason.clone())),
                ("q", Json::UInt(*q)),
                ("remaining", Json::UInt(*remaining)),
            ]),
            Response::Queued { id, q } => obj(vec![
                ("type", Json::Str("queued".into())),
                ("id", Json::UInt(*id)),
                ("q", Json::UInt(*q)),
            ]),
            Response::Batch(rs) => obj(vec![
                ("type", Json::Str("batch".into())),
                (
                    "results",
                    Json::Arr(rs.iter().map(Response::to_json).collect()),
                ),
            ]),
            Response::Stats {
                tenant,
                budget,
                spent,
                accepted,
                rejected,
                queued,
                quotes,
                reads,
                writes,
            } => obj(vec![
                ("type", Json::Str("stats".into())),
                ("tenant", Json::Str(tenant.clone())),
                ("budget", Json::UInt(*budget)),
                ("spent", Json::UInt(*spent)),
                ("accepted", Json::UInt(*accepted)),
                ("rejected", Json::UInt(*rejected)),
                ("queued", Json::UInt(*queued)),
                ("quotes", Json::UInt(*quotes)),
                ("reads", Json::UInt(*reads)),
                ("writes", Json::UInt(*writes)),
            ]),
            Response::Metrics { text } => obj(vec![
                ("type", Json::Str("metrics".into())),
                ("text", Json::Str(text.clone())),
            ]),
            Response::Bye => obj(vec![("type", Json::Str("bye".into()))]),
            Response::Error { message } => obj(vec![
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Parse a wire frame.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        match req_str(j, "type")? {
            "hello_ok" => {
                let drained = match j.get("drained").and_then(Json::as_array) {
                    Some(arr) => arr
                        .iter()
                        .map(Response::from_json)
                        .collect::<Result<_, _>>()?,
                    None => Vec::new(),
                };
                Ok(Response::HelloOk {
                    budget: req_u64(j, "budget")?,
                    drained,
                })
            }
            "done" => Ok(Response::Done(JobOutcome {
                id: req_u64(j, "id")?,
                algo: req_str(j, "algo")?.to_string(),
                backend: req_str(j, "backend")?.to_string(),
                predicted: cost_from(j, "predicted")?,
                measured: cost_from(j, "measured")?,
                q: req_u64(j, "q")?,
                checksum: req_u64(j, "checksum")?,
            })),
            "quoted" => Ok(Response::Quoted {
                id: req_u64(j, "id")?,
                algo: req_str(j, "algo")?.to_string(),
                predicted: cost_from(j, "predicted")?,
                q: req_u64(j, "q")?,
            }),
            "rejected" => Ok(Response::Rejected {
                id: req_u64(j, "id")?,
                reason: req_str(j, "reason")?.to_string(),
                q: req_u64(j, "q")?,
                remaining: req_u64(j, "remaining")?,
            }),
            "queued" => Ok(Response::Queued {
                id: req_u64(j, "id")?,
                q: req_u64(j, "q")?,
            }),
            "batch" => {
                let rs = j
                    .get("results")
                    .and_then(Json::as_array)
                    .ok_or("batch requires a 'results' array")?;
                Ok(Response::Batch(
                    rs.iter()
                        .map(Response::from_json)
                        .collect::<Result<_, _>>()?,
                ))
            }
            "stats" => Ok(Response::Stats {
                tenant: req_str(j, "tenant")?.to_string(),
                budget: req_u64(j, "budget")?,
                spent: req_u64(j, "spent")?,
                accepted: req_u64(j, "accepted")?,
                rejected: req_u64(j, "rejected")?,
                queued: req_u64(j, "queued")?,
                quotes: req_u64(j, "quotes")?,
                reads: req_u64(j, "reads")?,
                writes: req_u64(j, "writes")?,
            }),
            "metrics" => Ok(Response::Metrics {
                text: req_str(j, "text")?.to_string(),
            }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: req_str(j, "message")?.to_string(),
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

fn with_type(t: &str, j: Json) -> Json {
    match j {
        Json::Obj(mut members) => {
            members.insert(0, ("type".to_string(), Json::Str(t.to_string())));
            Json::Obj(members)
        }
        other => other,
    }
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn req_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
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
