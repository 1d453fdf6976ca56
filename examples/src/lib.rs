//! Runnable example applications for the AEM workspace.
//!
//! * `quickstart` — the five-minute tour: configure a machine, sort,
//!   permute, check costs against the bounds.
//! * `nvm_sort_planner` — a capacity-planning tool: given an NVM device's
//!   write/read cost ratio, compare sorting strategies and report the
//!   predicted and measured savings.
//! * `spmv_pipeline` — an iterative SpMxV workload (PageRank-style power
//!   iteration over a semiring) with crossover-aware algorithm selection.
//! * `flash_reduction` — watch Lemma 4.3 compile an AEM permutation
//!   program into a flash-model program, op by op.
//!
//! Run with `cargo run --release -p aem-examples --bin <name>`.
