//! Experiment implementations — one module per table/figure family.
//!
//! Each module exposes `sweeps(quick: bool, backend: Backend) -> Vec<Sweep>`,
//! the declarative form the engine ([`crate::sweep::run`]) executes;
//! [`all_sweeps`] concatenates them in DESIGN.md §3 order, and the
//! `run_all` binary is the one front end over it.
//!
//! `quick` shrinks the grids for use inside the test suite; `run_all`
//! runs the full sizes unless given `--quick`. All workloads are seeded,
//! all costs exact: tables regenerate bit-for-bit regardless of worker
//! count.
//!
//! A cell that runs a registered `(kind, algo)` goes through the workload
//! registry's [`run_workload`] via [`measured`], so it runs the same
//! instance, algorithm and oracle check as `aemsim run`, serve and the
//! fuzzer. Only what the registry does not register is hand-written: the
//! fan-in and resident-cursor ablations (T1c, T1d), the raw merge (T2),
//! round-based execution (T3), flash simulation (T4), rotate-by-1 and the
//! exhaustive search (T8), replacement selection (T9b), the constant-key
//! PQ grid (T9G), the tiled transpose (F4) and the closed-form map (F5).
//!
//! The `backend` axis selects the [`aem_machine::BlockStore`] the machine
//! runs on. Cost metering is backend-independent, so every sweep a backend
//! supports renders byte-identically across backends — CI enforces this
//! for `vec` vs `ghost`. Not every sweep runs on every backend:
//!
//! * `vec` / `arena` / `trace` carry payloads and run **everything**;
//! * `ghost` carries no payload, so only *payload-oblivious* workloads are
//!   sound on it (see `aem_machine::store`): the naive permuter, the tiled
//!   transpose, and machine-free analyses. Merge-based sorting reads keys
//!   and aux pointers to steer control flow and is excluded; ghost instead
//!   adds the frontier sweep `T5X` at sizes the copying backends cannot
//!   reach. One PQ grid crosses the divide: `T9G` runs the buffered
//!   priority queue on **constant keys**, where every comparison resolves
//!   by deterministic positional tie-breaks, so it is payload-oblivious
//!   and byte-compares across `vec` and `ghost`.

pub mod bfs;
pub mod flash;
pub mod matmul;
pub mod merge;
pub mod model;
pub mod optimality;
pub mod permute;
pub mod pq;
pub mod rounds;
pub mod scan;
pub mod search;
pub mod sorting;
pub mod spmv;

use aem_core::workload::{run_workload, LiveHarness, RunCtx, WorkloadKind};
use aem_machine::{AemConfig, Backend, Cost};

use crate::sweep::Sweep;

/// The registry context for `(kind, algo)` on the named `input` at this
/// shape.
///
/// # Panics
///
/// Panics if the registry rejects the shape, algorithm or input — a sweep
/// declaring a cell the registry cannot run is a programming error.
pub fn registry_ctx(
    kind: WorkloadKind,
    algo: &str,
    input: &str,
    cfg: AemConfig,
    n: usize,
    delta: usize,
    seed: u64,
) -> RunCtx {
    RunCtx::new(kind, algo, cfg, n, delta, seed)
        .and_then(|ctx| ctx.with_input(input))
        .unwrap_or_else(|e| panic!("{kind}/{algo}: {e}"))
}

/// Run a registered workload live on `backend` and return its metered
/// cost.
///
/// # Panics
///
/// Panics if the run fails: [`run_workload`] checks the output against
/// the kind's RAM oracle on every payload-carrying backend, so a wrong
/// answer panics the cell and the engine reports its experiment as PANIC.
pub fn measured(backend: Backend, ctx: RunCtx) -> Cost {
    let (cost, _) = run_workload(&ctx, &mut LiveHarness { backend })
        .unwrap_or_else(|e| panic!("{}/{}: {e}", ctx.kind, ctx.algo.name));
    cost
}

/// Every experiment in DESIGN.md §3 order that `backend` supports, in
/// declarative sweep form.
pub fn all_sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    let mut out = Vec::new();
    out.extend(sorting::sweeps(quick, backend));
    out.extend(pq::sweeps(quick, backend));
    out.extend(merge::sweeps(quick, backend));
    out.extend(rounds::sweeps(quick, backend));
    out.extend(flash::sweeps(quick, backend));
    out.extend(permute::sweeps(quick, backend));
    out.extend(spmv::sweeps(quick, backend));
    out.extend(search::sweeps(quick, backend));
    out.extend(scan::sweeps(quick, backend));
    out.extend(matmul::sweeps(quick, backend));
    out.extend(bfs::sweeps(quick, backend));
    out.extend(model::sweeps(quick, backend));
    out.extend(optimality::sweeps(quick, backend));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sweep::{self, RunOptions};
    use crate::table::Table;

    /// Run `sweeps` serially and return each table, in order.
    pub(crate) fn tables(sweeps: Vec<Sweep>) -> Vec<Table> {
        let opts = RunOptions {
            jobs: 1,
            ..Default::default()
        };
        let report = sweep::run(&sweeps, &opts).expect("no --only filter");
        (report.outcomes.into_iter())
            .map(|o| match o.table {
                Some(t) => t,
                None => panic!("{} panicked: {:?}", o.id, o.panic),
            })
            .collect()
    }

    /// Run `sweeps` serially and return each table's markdown, in order.
    pub(crate) fn markdown(sweeps: Vec<Sweep>) -> Vec<String> {
        tables(sweeps).iter().map(Table::to_markdown).collect()
    }

    /// Run `sweeps` serially, assert every table has rows and no `FAIL`
    /// note, and return the tables.
    pub(crate) fn passing_tables(sweeps: Vec<Sweep>) -> Vec<Table> {
        let tables = tables(sweeps);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has rows", t.id);
            for n in &t.notes {
                assert!(!n.contains("FAIL"), "{}: {}", t.id, n);
            }
        }
        tables
    }

    #[test]
    fn backend_sweep_sets_are_consistent() {
        let vec_ids: Vec<String> = all_sweeps(true, Backend::Vec)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        let arena_ids: Vec<String> = all_sweeps(true, Backend::Arena)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        // The payload-carrying backends run the identical experiment set.
        assert_eq!(vec_ids, arena_ids);
        // The trace backend records vec-semantics runs, so it gets exactly
        // the vec sweep set.
        let trace_ids: Vec<String> = all_sweeps(true, Backend::Trace)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        assert_eq!(vec_ids, trace_ids);
        // Ghost runs a strict subset of the shared grid plus its exclusive
        // frontier sweep T5X.
        for s in all_sweeps(true, Backend::Ghost) {
            if s.id == "T5X" {
                assert!(!vec_ids.contains(&s.id), "T5X is ghost-only");
            } else {
                assert!(vec_ids.contains(&s.id), "{} missing from vec set", s.id);
            }
        }
    }
}
