//! # `aem-bench` — the experiment harness
//!
//! The paper proves bounds instead of plotting measurements, so the
//! "tables and figures" this harness regenerates are the quantitative
//! claims of its theorems (see DESIGN.md §3 for the experiment index):
//!
//! | Id | Claim | Module |
//! |----|-------|--------|
//! | T1/F1 | Thm 3.2 sorting cost; AEM vs EM separation | [`exp::sorting`] |
//! | T9 | §3.2 buffered PQ and replacement selection | [`exp::pq`] |
//! | T2 | Thm 3.2 merging cost | [`exp::merge`] |
//! | T3 | Lemma 4.1 round-based overhead | [`exp::rounds`] |
//! | T4 | Lemma 4.3 flash simulation volume | [`exp::flash`] |
//! | T5/T8/F2/F4 | Thm 4.5 permuting bound & branch crossover | [`exp::permute`] |
//! | T6/T7 | §5 SpMxV upper bounds & Thm 5.1 | [`exp::spmv`] |
//! | T11 | static search layouts: build vs lookups | [`exp::search`] |
//! | T12 | prefix scans: materialize vs tree vs rescan | [`exp::scan`] |
//! | T13 | dense matmul tilings | [`exp::matmul`] |
//! | T14 | BFS traversals | [`exp::bfs`] |
//! | F3 | ARAM ≡ (M,1,ω)-AEM | [`exp::model`] |
//! | F5 | §1.1 optimality map | [`exp::optimality`] |
//!
//! Every experiment is deterministic (seeded workloads, exact I/O
//! metering), so the emitted tables are reproducible bit-for-bit. The
//! `run_all` binary is the one front end: it regenerates the data behind
//! `EXPERIMENTS.md` (`--only IDS` picks experiments, `--help` lists the
//! flags).
//!
//! Experiments are declared as [`sweep::Sweep`]s — grids of independent
//! keyed cells — and executed on the parallel engine ([`sweep::run`]),
//! whose output does not depend on the worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costgate;
pub mod exp;
pub mod sweep;
pub mod table;

pub use table::Table;
