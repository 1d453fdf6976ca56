//! # `aem-core` — algorithms and lower bounds of the Asymmetric External
//! Memory model
//!
//! This crate is the primary contribution of the reproduction of
//! *Jacob & Sitchinava, "Lower Bounds in the Asymmetric External Memory
//! Model", SPAA 2017*. It contains:
//!
//! * [`sort`] — the paper's §3 **`ωm`-way mergesort** with external-memory
//!   run pointers (cost `O(ω n log_{ωm} n)` for *any* `ω`, including
//!   `ω > B`), its building blocks (the Blelloch-style small sort base case
//!   and the §3.1 `ωm`-way merge), and the classical `ω`-oblivious EM
//!   mergesort baseline;
//! * [`permute`] — permuting algorithms whose best-of cost matches the §4
//!   lower bound `Ω(min{N, ω n log_{ωm} n})`: block-gather "naive"
//!   permuting and sort-based permuting, plus an auto-selecting wrapper;
//! * [`spmv`] — sparse-matrix × dense-vector multiplication over an
//!   abstract [`spmv::Semiring`]: the direct (`O(H + ωn)`) and the
//!   sorting-based meta-column (`O(ω h log_{ωm} N/max{δ,B} + ωn)`)
//!   algorithms of §5;
//! * [`search`] — static search structures under `ω` (T11): sorted-array
//!   binary search, a blocked B-tree, and the cache-oblivious Eytzinger
//!   layout, trading an `ω`-priced build against read-only lookups;
//! * [`scan`] — blocked reduction and prefix scan (T12): the classic
//!   materialized scan vs a block-sum reduction tree vs pure
//!   recompute-from-reads, the Blelloch-style reduce/scan trade;
//! * [`matmul`] — tiled dense matrix multiply (T13): the write-avoiding
//!   resident-output tiling vs the standard streaming tiling, both with
//!   exact-schedule predictors;
//! * [`bfs`] — level-synchronous BFS over CSR blocks (T14): the
//!   write-marking baseline vs a frontier re-derivation traversal that
//!   writes only the final distance file — the data-routed family where
//!   ghost pricing is unsound;
//! * [`workload`] — the workload registry: one descriptor per kind
//!   (names, menus, predictors, ghost flags, validity, seeded instances)
//!   that serve, the CLI, the fuzzer, and the cost gate all iterate;
//! * [`bounds`] — numeric evaluation of every lower bound in the paper: the
//!   §4.2 counting inequality (1) (Theorem 4.5), the flash-model reduction
//!   bound (Corollary 4.4), the §5 SpMxV bound with its `τ(N, δ, B)` table
//!   (Theorem 5.1), the classical Aggarwal–Vitter bounds they build on, and
//!   closed-form *upper*-bound predictors for each implemented algorithm.
//!
//! All algorithms run on any [`aem_machine::AemAccess`] implementation and
//! are exercised both on the plain [`aem_machine::Machine`] and under the
//! round-based Lemma 4.1 wrapper in the test suite.
//!
//! ## Quickstart
//!
//! ```
//! use aem_core::sort::merge_sort;
//! use aem_machine::{AemAccess, AemConfig, Machine};
//!
//! let cfg = AemConfig::new(64, 8, 16).unwrap(); // M=64, B=8, writes 16x reads
//! let mut machine: Machine<u64> = Machine::new(cfg);
//! let input: Vec<u64> = (0..512).rev().collect();
//! let region = machine.install(&input);
//!
//! let sorted = merge_sort(&mut machine, region).unwrap();
//! assert_eq!(machine.inspect(sorted), (0..512).collect::<Vec<u64>>());
//!
//! let cost = machine.cost();
//! // Writes are what the asymmetric model saves on:
//! assert!(cost.writes < cost.reads);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod bounds;
pub mod matmul;
pub mod oracle;
pub mod permute;
pub mod pq;
pub mod scan;
pub mod search;
pub mod sort;
pub mod spmv;
pub mod workload;

pub use aem_machine::{AemAccess, AemConfig, Cost, Machine, MachineError};
pub use workload::{Workload, WorkloadKind};
