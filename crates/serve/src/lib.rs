//! # `aem-serve` — a cost-metered multi-tenant job service
//!
//! The repo's algorithms, predictors and backends, assembled into one
//! long-lived system: a TCP server speaking length-prefixed JSON frames
//! that accepts batched jobs of every registered workload kind (`sort |
//! permute | spmv | pq | search | scan | matmul | bfs`) with per-job
//! `(M, B, ω, n)` machine shapes from many concurrent tenants.
//!
//! The pipeline per request:
//!
//! 1. **Pricing** ([`planner`]) — the paper's closed-form predictors
//!    price the job *before* execution; the planner picks the cheapest
//!    eligible algorithm and a cost-model-sound backend (ghost for
//!    payload-oblivious cost queries, compiled-trace replay for repeated
//!    cells, vec for payload-carrying jobs, labelled arena when large).
//! 2. **Admission** ([`admission`]) — the predicted `Q` is debited
//!    against the tenant's budget; over-budget jobs are rejected or
//!    parked until a top-up. Decisions are deterministic integers, so the
//!    sorted admission log is byte-identical across same-seed runs.
//! 3. **Execution** ([`exec`], [`server`]) — the workspace's one worker
//!    pool, [`aem_obs::pool`] (shared queue, panics caught per job,
//!    replies reassembled in declaration order), runs the simulation and
//!    meters the actual cost.
//! 4. **Metering** ([`metering`]) — per-tenant JSONL records and a
//!    Prometheus text exposition via `aem-obs`.
//!
//! The seeded load generator ([`load`]) simulates whole tenant
//! populations reproducibly from one seed; CI uses it to assert the
//! determinism contract end to end.

#![warn(missing_docs)]

pub mod admission;
pub mod exec;
pub mod load;
pub mod metering;
pub mod planner;
pub mod protocol;
pub mod server;
pub mod signal;

pub use admission::{Admission, Decision, TenantSnapshot};
pub use exec::{ExecResult, TraceCache};
pub use load::{run_load, LoadOptions};
pub use metering::{Metering, TenantMeter};
pub use planner::{plan, price, Plan};
pub use protocol::{
    decode_frame, encode_frame, JobKind, JobOutcome, JobSpec, Request, Response, MAX_FRAME,
};
pub use server::{serve, ServeOptions};
pub use signal::{install_shutdown_signals, SHUTDOWN};
