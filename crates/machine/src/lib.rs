//! # `aem-machine` — an executable `(M, B, ω)`-Asymmetric External Memory model
//!
//! This crate implements the machine model of
//! *Jacob & Sitchinava, "Lower Bounds in the Asymmetric External Memory
//! Model", SPAA 2017* as an **instrumented, enforcing simulator** rather than
//! a pencil-and-paper abstraction.
//!
//! The `(M, B, ω)`-AEM model consists of:
//!
//! * an unbounded **external (asymmetric) memory** holding the input, divided
//!   into blocks of `B` elements each;
//! * a small **internal (symmetric) memory** of capacity `M` elements;
//! * transfers between the two happen in whole blocks; a **read** I/O costs
//!   `1` and a **write** I/O costs `ω ≥ 1`;
//! * computation inside internal memory is free (the model only meters I/O).
//!
//! The cost of a computation performing `Q_r` reads and `Q_w` writes is
//! `Q = Q_r + ω·Q_w`. Setting `B = 1` recovers the `(M, ω)`-ARAM model of
//! Blelloch et al., and setting `ω = 1` recovers the classical
//! Aggarwal–Vitter external memory (EM) model.
//!
//! ## What this crate provides
//!
//! * [`AemConfig`] — the model parameters `M`, `B`, `ω` plus all the derived
//!   quantities the paper uses (`m = ⌈M/B⌉`, `n = ⌈N/B⌉`, round budget `ωm`).
//! * [`Machine`] — the *copy-semantics* machine used to run algorithms:
//!   block-granular I/O, enforced internal-memory capacity, exact metering of
//!   reads/writes. Algorithms access it through the [`AemAccess`] trait so
//!   they run unmodified on wrappers that change behaviour.
//! * [`MachineCore`] / [`BlockStore`] — the meter behind [`Machine`],
//!   generic over pluggable storage backends: the copying [`VecStore`]
//!   (default), the buffer-recycling [`ArenaStore`] ([`ArenaMachine`]) and
//!   the cost-only [`GhostStore`] ([`GhostMachine`]), which carries no data
//!   payload and lets pure cost sweeps scale `N` by two orders of
//!   magnitude. See [`store`] for when each backend is sound.
//! * [`Observer`] — the one I/O event sink. A [`MachineCore`] calls its
//!   sink after every successful metered operation and on the phase
//!   hooks; the default `()` sink costs nothing, and every recorder
//!   ([`Trace`], [`CompiledTrace`], `aem-obs`'s run recorder) is a sink.
//! * [`AtomMachine`] — the *move-semantics* machine of §4.2 of the paper,
//!   used for the lower-bound machinery: elements are indivisible **atoms**,
//!   a read chooses the subset of atoms to keep (destroying their external
//!   copies), writes may only target empty blocks. Programs recorded on this
//!   machine carry exactly the per-read "which atoms were used" annotations
//!   required by the flash-model simulation of Lemma 4.3.
//! * [`rounds`] — the round decomposition of §4 and an executable version of
//!   **Lemma 4.1**: [`rounds::RoundBasedMachine`] runs any algorithm as a
//!   round-based program on a `2M` machine with (measured) constant-factor
//!   overhead, and [`rounds::round_based_cost`] computes the exact cost of
//!   the Lemma 4.1 conversion of a recorded trace.
//! * [`Trace`] — recorded straight-line I/O programs (the paper's notion of
//!   *program* as opposed to *algorithm*), replayable and analyzable.
//! * [`TraceMachine`] / [`CompiledTrace`] — schedule recording and
//!   arithmetic replay: a vec machine whose sink compiles its metered I/O
//!   (bulk runs as single ops) into a schedule whose cost re-evaluates
//!   as one pass of integer additions — see [`compiled`].
//!
//! Every [`AemAccess`] machine also exposes **bulk block I/O**
//! ([`AemAccess::read_run`] / [`AemAccess::write_run`]): a contiguous run
//! of blocks in one call, one cost-ledger update, one bounds sweep —
//! cost-equivalent to the per-block loop (the contract is documented in
//! `docs/COST_MODEL.md`).
//!
//! ## Example
//!
//! ```
//! use aem_machine::{AemConfig, Machine, AemAccess};
//!
//! // A machine with M = 64 elements of internal memory, blocks of B = 8,
//! // and writes 16x more expensive than reads.
//! let cfg = AemConfig::new(64, 8, 16).unwrap();
//! let mut machine: Machine<u64> = Machine::new(cfg);
//!
//! // Install an input array (free: the input starts in external memory).
//! let input: Vec<u64> = (0..64).rev().collect();
//! let region = machine.install(&input);
//!
//! // Read the first block, reverse it in internal memory (free), write it out.
//! let mut data = machine.read_block(region.block(0)).unwrap();
//! data.reverse();
//! let out = machine.alloc_block();
//! machine.write_block(out, data).unwrap();
//!
//! let cost = machine.cost();
//! assert_eq!(cost.reads, 1);
//! assert_eq!(cost.writes, 1);
//! assert_eq!(cost.q(machine.cfg().omega), 1 + 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod block;
pub mod compiled;
pub mod config;
pub mod cost;
pub mod error;
pub mod external;
pub mod machine;
pub mod observer;
pub mod rounds;
pub mod store;
pub mod trace;

pub use atom::{AtomId, AtomMachine};
pub use block::{Block, BlockId, Region};
pub use compiled::{CompiledTrace, TraceMachine, TraceOp};
pub use config::AemConfig;
pub use cost::{Cost, IoCounter};
pub use error::{MachineError, Result};
pub use machine::{AemAccess, ArenaMachine, GhostMachine, Machine, MachineCore};
pub use observer::{IoRun, Observer};
pub use rounds::RoundBasedMachine;
pub use store::{ArenaStore, Backend, BlockStore, GhostStore, VecStore};
pub use trace::{IoEvent, Trace, TraceStats};
