//! The parallel sweep executor.
//!
//! Takes a list of [`Sweep`]s, flattens them into independent cells and
//! executes them on the workspace's worker pool, [`aem_obs::pool`]: scoped
//! workers pulling from one shared queue (work stealing at cell
//! granularity — no static partitioning, so one slow table cannot idle the
//! other workers).
//!
//! Determinism: execution order is whatever the pool produces, but results
//! are reassembled **in cell-declaration order** (the per-sweep `render`
//! always sees the declared sequence), so the tables a parallel run prints
//! are byte-identical to a `--jobs 1` run. Wall-clock timings never enter a
//! table cell; they are reported separately via [`RunReport::stats_table`]
//! and the [`aem_obs::Metrics`] registry.

use std::time::{Duration, Instant};

use aem_obs::pool::{self, Handle};
use aem_obs::Metrics;

use super::Sweep;
use crate::table::Table;

/// Options controlling one engine run (the `run_all` flags, in struct
/// form).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Restrict to experiments whose id matches one of these patterns
    /// (case-insensitive exact match or prefix, so `t1` selects T1a–T1f).
    pub only: Option<Vec<String>>,
}

/// `true` if the `--only` pattern selects experiment `id`: a
/// case-insensitive prefix match.
fn matches(pattern: &str, id: &str) -> bool {
    id.get(..pattern.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(pattern))
}

impl RunOptions {
    /// `true` if `id` is selected by the `only` filter (everything is
    /// selected when no filter is set).
    pub fn selects(&self, id: &str) -> bool {
        match &self.only {
            None => true,
            Some(pats) => pats.iter().any(|p| matches(p, id)),
        }
    }

    /// The effective worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Per-experiment outcome of an engine run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Experiment id (e.g. "T1a").
    pub id: String,
    /// The rendered table, unless a cell or the renderer panicked.
    pub table: Option<Table>,
    /// First panic message observed, if any.
    pub panic: Option<String>,
    /// Cells in the sweep's grid, all simulated in this run.
    pub cells: usize,
    /// Summed wall time of this sweep's cells.
    pub cell_nanos: u128,
}

impl SweepOutcome {
    /// Machine-checked verdict: `PANIC` if any cell or the renderer
    /// panicked, `FAIL` if a rendered note carries a failed check,
    /// `PASS` otherwise.
    pub fn verdict(&self) -> &'static str {
        if self.panic.is_some() {
            "PANIC"
        } else if self
            .table
            .as_ref()
            .is_some_and(|t| t.notes.iter().any(|n| n.contains("FAIL")))
        {
            "FAIL"
        } else {
            "PASS"
        }
    }
}

/// The result of one engine run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-experiment outcomes, in declaration order.
    pub outcomes: Vec<SweepOutcome>,
    /// Total cells simulated.
    pub executed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the execution phase.
    pub wall: Duration,
    /// Summed busy time across all workers.
    pub busy_nanos: u128,
    /// Phase-attributed engine metrics (cell timings, utilization).
    pub metrics: Metrics,
}

impl RunReport {
    /// `true` when every experiment's verdict is PASS.
    pub fn all_pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.verdict() == "PASS")
    }

    /// Worker utilization in `[0, 1]`: busy time / (wall × workers).
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_nanos() as f64 * self.jobs as f64;
        if denom == 0.0 {
            return 0.0;
        }
        (self.busy_nanos as f64 / denom).min(1.0)
    }

    /// The engine's own report: per-experiment cell counts and wall time,
    /// plus pool totals. Timings are wall-clock, so this table
    /// is diagnostic output (stderr), never part of the deterministic
    /// experiment document.
    pub fn stats_table(&self) -> Table {
        let mut t = Table::new(
            "SWEEP",
            &format!(
                "sweep engine — {} workers, {} cells simulated",
                self.jobs, self.executed
            ),
            &["experiment", "verdict", "cells", "cell time (ms)"],
        );
        for o in &self.outcomes {
            t.row(vec![
                o.id.clone(),
                o.verdict().to_string(),
                o.cells.to_string(),
                format!("{:.1}", o.cell_nanos as f64 / 1e6),
            ]);
        }
        let serial_ms = self.busy_nanos as f64 / 1e6;
        let wall_ms = self.wall.as_nanos() as f64 / 1e6;
        t.note(format!(
            "wall {:.1} ms vs {:.1} ms of cell work — speedup {:.2}x at {:.0}% worker utilization",
            wall_ms,
            serial_ms,
            if wall_ms > 0.0 {
                serial_ms / wall_ms
            } else {
                0.0
            },
            100.0 * self.utilization(),
        ));
        t
    }
}

/// Execute `sweeps` under `opts`: run every selected cell on the worker
/// pool, then render every table from results in declaration order.
///
/// # Errors
///
/// Returns `Err` for `--only` patterns that match no experiment (listing
/// the valid ids); cell and renderer panics are captured per experiment in
/// the report instead.
pub fn run(sweeps: &[Sweep], opts: &RunOptions) -> Result<RunReport, String> {
    if let Some(pats) = &opts.only {
        let unmatched: Vec<&str> = pats
            .iter()
            .filter(|p| !sweeps.iter().any(|s| matches(p, &s.id)))
            .map(String::as_str)
            .collect();
        if !unmatched.is_empty() {
            let ids: Vec<&str> = sweeps.iter().map(|s| s.id.as_str()).collect();
            return Err(format!(
                "--only pattern(s) {} match no experiment; valid ids: {}",
                unmatched.join(", "),
                ids.join(", ")
            ));
        }
    }
    let selected: Vec<&Sweep> = sweeps.iter().filter(|s| opts.selects(&s.id)).collect();
    let tasks: Vec<(usize, usize)> = (selected.iter().enumerate())
        .flat_map(|(si, sw)| (0..sw.cells.len()).map(move |ci| (si, ci)))
        .collect();

    let jobs = opts.effective_jobs();
    let run_cell = |(si, ci): (usize, usize)| (selected[si].cells[ci].run)();
    let t0 = Instant::now();
    let finished: Vec<_> = pool::scope(jobs.min(tasks.len()), run_cell, |pool| {
        let handles: Vec<_> = tasks.iter().map(|&task| pool.submit(task)).collect();
        handles.into_iter().map(Handle::wait).collect()
    });
    let wall = t0.elapsed();

    let mut metrics = Metrics::new();
    metrics.histogram_with_bounds(
        "sweep.cell.micros",
        vec![100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
    );
    // Results come back in task order, which is declaration order.
    let mut finished = finished.into_iter();
    let mut busy_nanos = 0u128;
    let mut outcomes = Vec::with_capacity(selected.len());
    for sweep in &selected {
        let (mut outs, mut panic) = (Vec::with_capacity(sweep.cells.len()), None);
        let mut cell_nanos = 0u128;
        for (result, nanos) in finished.by_ref().take(sweep.cells.len()) {
            // Panicked cells count too: their time was spent all the same.
            metrics.observe("sweep.cell.micros", nanos / 1_000);
            cell_nanos += u128::from(nanos);
            match result {
                Ok(out) => outs.push(out),
                Err(msg) => {
                    panic.get_or_insert(msg);
                }
            }
        }
        busy_nanos += cell_nanos;
        let table = if panic.is_none() {
            pool::catch(|| (sweep.render)(&outs))
                .map_err(|msg| panic = Some(msg))
                .ok()
        } else {
            None
        };
        metrics.add(&format!("sweep.cell_nanos.{}", sweep.id), cell_nanos as u64);
        outcomes.push(SweepOutcome {
            id: sweep.id.clone(),
            table,
            panic,
            cells: sweep.cells.len(),
            cell_nanos,
        });
    }

    metrics.add("sweep.cells.executed", tasks.len() as u64);
    metrics.gauge_set("sweep.jobs", jobs as u64);
    let mut report = RunReport {
        outcomes,
        executed: tasks.len(),
        jobs,
        wall,
        busy_nanos,
        metrics,
    };
    let util_pct = (100.0 * report.utilization()).round() as u64;
    report.metrics.gauge_set("sweep.utilization.pct", util_pct);
    Ok(report)
}
