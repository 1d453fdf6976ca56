//! # The experiment sweep engine
//!
//! Every EXPERIMENTS.md table is a grid over `(N, M, B, ω, …)` whose
//! points are **independent deterministic simulations**. This module
//! turns each experiment into a declarative [`Sweep`]:
//!
//! * a list of [`Cell`]s — one per grid point, each a keyed closure
//!   returning a typed [`CellOut`];
//! * a `render` function assembling the cells' outputs (always presented
//!   in declaration order) into the final [`Table`].
//!
//! Splitting *compute* from *render* buys two things:
//!
//! 1. **Parallelism** — [`engine::run`] executes all cells of all tables
//!    on one work-stealing pool ([`engine::RunOptions::jobs`] workers), so
//!    a wide `ω`-sweep in T1b can overlap with T5's big-`N` rows instead
//!    of queueing behind them.
//! 2. **Determinism** — rendering never sees execution order or timing,
//!    so `--jobs N` output is byte-identical to `--jobs 1`. (Wall-clock
//!    goes to [`engine::RunReport`] instead.)

pub mod engine;
pub mod value;

pub use engine::{run, RunOptions, RunReport, SweepOutcome};
pub use value::CellOut;

use crate::table::Table;

/// One grid point of a sweep: a stable key plus the deterministic
/// simulation producing its output.
pub struct Cell {
    /// Unique (within the sweep), stable identifier of the grid point,
    /// e.g. `"n=4096"` or `"omega=64,two_pass"`.
    pub key: String,
    /// The simulation. Must be deterministic, so the rendered table does
    /// not depend on the worker count.
    pub run: Box<dyn Fn() -> CellOut + Send + Sync>,
}

impl Cell {
    /// Build a cell from a key and a closure.
    pub fn new(key: impl Into<String>, run: impl Fn() -> CellOut + Send + Sync + 'static) -> Self {
        Self {
            key: key.into(),
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("key", &self.key).finish()
    }
}

/// The renderer half of a [`Sweep`]: a pure function from cell outputs
/// (in declaration order) to the finished table.
pub type RenderFn = Box<dyn Fn(&[CellOut]) -> Table + Send + Sync>;

/// A declarative experiment: independent cells plus a pure renderer.
pub struct Sweep {
    /// Experiment id ("T1a", "F5", …) — names the table and is what
    /// `--only` matches.
    pub id: String,
    /// The grid, in presentation order.
    pub cells: Vec<Cell>,
    /// Assembles cell outputs (given in declaration order) into the
    /// table. Must be pure.
    pub render: RenderFn,
}

impl Sweep {
    /// Build a sweep from an id, its cells and a renderer.
    pub fn new(
        id: &str,
        cells: Vec<Cell>,
        render: impl Fn(&[CellOut]) -> Table + Send + Sync + 'static,
    ) -> Self {
        assert!(
            {
                let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
                keys.sort_unstable();
                keys.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate cell key in sweep {id}"
        );
        Self {
            id: id.to_string(),
            cells,
            render: Box::new(render),
        }
    }
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("id", &self.id)
            .field("cells", &self.cells)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sweep() -> Sweep {
        let cells = (0..4u64)
            .map(|i| {
                Cell::new(format!("i={i}"), move || {
                    CellOut::new().with_u64("sq", i * i)
                })
            })
            .collect();
        Sweep::new("D1", cells, |outs| {
            let mut t = Table::new("D1", "squares", &["i", "sq"]);
            for (i, o) in outs.iter().enumerate() {
                t.row(vec![i.to_string(), o.u64("sq").to_string()]);
            }
            t
        })
    }

    fn markdown(report: &RunReport) -> String {
        report.outcomes[0].table.as_ref().unwrap().to_markdown()
    }

    #[test]
    fn serial_run_renders_in_declaration_order() {
        let opts = RunOptions {
            jobs: 1,
            ..Default::default()
        };
        let report = run(&[demo_sweep()], &opts).unwrap();
        let t = report.outcomes[0].table.as_ref().unwrap();
        assert_eq!(t.rows[3], vec!["3".to_string(), "9".to_string()]);
    }

    #[test]
    #[should_panic(expected = "duplicate cell key")]
    fn duplicate_keys_rejected() {
        let cells = vec![
            Cell::new("same", CellOut::new),
            Cell::new("same", CellOut::new),
        ];
        Sweep::new("D2", cells, |_| Table::new("D2", "", &[]));
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run(
            &[demo_sweep()],
            &RunOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run(
            &[demo_sweep()],
            &RunOptions {
                jobs: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(parallel.executed, 4);
        assert_eq!(markdown(&parallel), markdown(&serial));
    }

    #[test]
    fn panicking_cell_is_contained() {
        let cells = vec![
            Cell::new("ok", || CellOut::new().with_u64("v", 1)),
            Cell::new("boom", || panic!("cell exploded")),
        ];
        let sweep = Sweep::new("D4", cells, |outs| {
            let mut t = Table::new("D4", "", &["v"]);
            for o in outs {
                t.row(vec![o.u64("v").to_string()]);
            }
            t
        });
        let report = run(&[sweep], &RunOptions::default()).unwrap();
        let o = &report.outcomes[0];
        assert_eq!(o.verdict(), "PANIC");
        assert!(o.table.is_none());
        assert!(o.panic.as_deref().unwrap().contains("cell exploded"));
        assert!(!report.all_pass());
    }

    #[test]
    fn only_filter_selects_by_prefix() {
        let opts = RunOptions {
            only: Some(vec!["t1".into(), "F5".into()]),
            ..Default::default()
        };
        assert!(opts.selects("T1a"));
        assert!(opts.selects("T1f"));
        assert!(opts.selects("F5"));
        assert!(!opts.selects("T5"));
        assert!(!opts.selects("F2"));
        assert!(RunOptions::default().selects("anything"));
    }

    #[test]
    fn only_filter_with_unknown_id_is_an_error_listing_valid_ids() {
        let sweep = Sweep::new(
            "T9",
            vec![Cell::new("c", || CellOut::new().with_u64("v", 1))],
            |_| Table::new("T9", "", &["v"]),
        );
        let opts = RunOptions {
            only: Some(vec!["t9".into(), "nope".into()]),
            ..Default::default()
        };
        let err = run(&[sweep], &opts).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(err.contains("valid ids: T9"), "{err}");
        assert!(
            !err.contains("t9,"),
            "matched patterns are not reported: {err}"
        );
    }
}
