//! # `aem-obs` — the observability layer
//!
//! Everything needed to *watch* an AEM algorithm run: give a machine a
//! [`RunRecorder`] sink (the vec machine with one is
//! [`InstrumentedMachine`]), execute any `aem-core` algorithm on it, and
//! get back a [`RunRecord`] containing the full I/O trace, per-event
//! internal-memory occupancy, a phase-attributed cost tree, and a metrics
//! registry — all serializable to a line-oriented JSONL format and
//! checkable against the paper's invariants.
//!
//! The crate has four layers, each usable on its own:
//!
//! * **Collection** — [`RunRecorder`] is an [`aem_machine::Observer`]: the
//!   machine hands it every metered operation, and algorithms annotate
//!   structure through the `phase_enter`/`phase_exit` hooks, which the
//!   machine forwards to it. Other sinks compose with it as a pair.
//! * **Aggregation** — [`Metrics`] (counters, high-water [`Gauge`]s,
//!   fixed-bucket [`Histogram`]s) and the [`PhaseNode`] tree built by the
//!   span stack, with inclusive cost attribution via the
//!   [`aem_machine::Cost::since`] snapshot-difference pattern.
//! * **Interchange** — [`RunRecord::to_jsonl`] / [`RunRecord::from_jsonl`],
//!   exact-round-trip JSON Lines built on the workspace's one JSON module
//!   and its field tables ([`json`]), plus text and markdown renderers
//!   ([`render_text`], [`render_markdown`]).
//! * **Verification** — the paper-invariant checkers (module [`check`]):
//!   §3's pointer-rewrite discipline, Lemma 4.1's round structure, and the
//!   Theorem 4.5 / Theorem 3.2 cost sandwich.
//!
//! It also holds the workspace's one worker pool ([`pool`]), shared by the
//! sweep engine, the job server and its load generator, and its one panic
//! decoder ([`pool::catch`]).
//!
//! Dependency direction: `aem-core` never depends on this crate — its
//! algorithms only call the phase hooks on `AemAccess`. The CLI, the
//! experiments and the integration tests attach a recorder when they want
//! the data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod flight;
pub mod harness;
pub mod instrument;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod pool;
pub mod profile;
pub mod promtext;
pub mod record;
pub mod report;

pub use check::{
    check_cost_sandwich, check_pointer_rewrites, check_round_structure, first_failure,
    predicted_cost, run_all, CheckResult,
};
pub use error::ObsError;
pub use flight::{tail_from_record, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use harness::{ProfileHarness, ProfiledRun};
pub use instrument::{InstrumentedMachine, RunRecorder};
pub use metrics::{Gauge, Histogram, Metrics};
pub use phase::{node_depth, PhaseNode, PhaseStack};
pub use profile::{Heatmap, Profile, Residual};
pub use promtext::{prom_label_value, prom_name, PromText};
pub use record::{Op, RunRecord, WorkloadMeta, FORMAT_VERSION};
pub use report::{render_markdown, render_text};
