//! The strict deterministic cost gate: metered `(Q_r, Q_w)` per canonical
//! workload/backend cell, compared **exactly** against the committed
//! `COSTS.json` snapshot.
//!
//! Wall-clock time jitters from run to run; I/O costs do not. The
//! simulator is deterministic, every cell is a pure function of
//! `(kind, algo, backend, M, B, ω, n, δ, seed)`, and the exact read/write
//! counts are the quantity the paper's theorems bound.
//! Any drift — one extra read on one cell — is a cost-model change that
//! must be reviewed, so the gate compares integers for equality and
//! `--strict` fails on the first mismatch. The committed snapshot is
//! refreshed deliberately with `cost_gate --write` when a change is
//! intentional, never silently.
//!
//! The cells are metered through the serving stack ([`aem_serve::planner`]
//! picks the algorithm, [`aem_serve::exec`] runs and meters it), so the
//! gate also pins the planner's choices: an algorithm flip on a canonical
//! cell shows up as a missing + new cell pair, not just new numbers.

use std::path::Path;

use aem_machine::Cost;
use aem_obs::json::{self, obj, Field, Json};
use aem_serve::exec::{execute, TraceCache};
use aem_serve::planner::plan;
use aem_serve::protocol::{JobKind, JobSpec};

/// The two canonical machine shapes: the paper-default sweet spot and a
/// small, block-hungry shape where algorithm crossovers sit nearby.
pub const CONFIGS: [(usize, usize, u64); 2] = [(1024, 64, 16), (64, 8, 16)];

/// The canonical cell registry: every registered kind's `gate_shapes`
/// on every config, once on the payload-carrying vec backend and once
/// cost-only through the trace backend (whose replay-equals-live
/// contract the gate thereby pins), plus a ghost cell wherever the
/// planner deems ghost pricing sound. A kind registered in `aem-core`
/// is metered here with zero edits — its descriptor names its shapes.
pub fn canonical_cells() -> Vec<JobSpec> {
    let mut cells = Vec::new();
    let mut id = 0;
    for &(mem, block, omega) in &CONFIGS {
        for kind in JobKind::ALL {
            for &(n, delta) in kind.descriptor().gate_shapes {
                for backend in ["vec", "trace"] {
                    id += 1;
                    cells.push(JobSpec {
                        id,
                        kind,
                        n,
                        mem,
                        block,
                        omega,
                        delta,
                        seed: 1,
                        payload: backend == "vec",
                        backend: Some(backend.to_string()),
                    });
                }
                // Ghost is only sound where the cheapest algorithm is
                // payload-oblivious; the planner is the authority on
                // that, so the cell is included exactly when it accepts
                // a forced ghost.
                id += 1;
                let ghost = JobSpec {
                    id,
                    kind,
                    n,
                    mem,
                    block,
                    omega,
                    delta,
                    seed: 1,
                    payload: false,
                    backend: Some("ghost".to_string()),
                };
                if plan(&ghost).is_ok() {
                    cells.push(ghost);
                }
            }
        }
    }
    cells
}

/// The stable identity of a cell in `COSTS.json`. Includes the chosen
/// algorithm so a planner flip is visible as a key change.
pub fn cell_name(spec: &JobSpec, algo: &str) -> String {
    format!(
        "{}/{}/{}/M{}/B{}/w{}/n{}/d{}/s{}",
        spec.kind.name(),
        algo,
        spec.backend.as_deref().unwrap_or("auto"),
        spec.mem,
        spec.block,
        spec.omega,
        spec.n,
        spec.delta,
        spec.seed
    )
}

/// Meter every canonical cell and render the snapshot document.
pub fn measure() -> Result<Json, String> {
    let cache = TraceCache::new();
    let mut cells = Vec::new();
    for spec in canonical_cells() {
        let p = plan(&spec).map_err(|e| format!("plan {}: {e}", spec.kind.name()))?;
        let r =
            execute(&spec, &p, &cache).map_err(|e| format!("exec {}: {e}", spec.kind.name()))?;
        cells.push((cell_name(&spec, p.algo), r.measured.to_json()));
    }
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(obj(vec![
        ("gate", Json::Str("cost-model".into())),
        (
            "note",
            Json::Str(
                "exact metered (Q_r, Q_w) per canonical cell; regenerate with \
                 `cargo run -p aem-bench --bin cost_gate -- --write` only when \
                 a cost-model change is intentional"
                    .into(),
            ),
        ),
        ("cells", Json::Obj(cells)),
    ]))
}

/// One cell's verdict: exact match, integer drift, or a key that exists
/// on only one side (all three are failures for this gate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostVerdict {
    /// The cell key.
    pub cell: String,
    /// Committed `(reads, writes)`, `None` when the cell is new.
    pub baseline: Option<(u64, u64)>,
    /// Freshly metered `(reads, writes)`, `None` when the cell vanished.
    pub current: Option<(u64, u64)>,
}

impl CostVerdict {
    /// Exact equality is the only passing state.
    pub fn drifted(&self) -> bool {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => b != c,
            _ => true, // missing or new cells are drift: the registry is fixed
        }
    }

    fn status(&self) -> &'static str {
        match (self.baseline, self.current) {
            (None, _) => "NEW",
            (_, None) => "GONE",
            (Some(b), Some(c)) if b != c => "DRIFT",
            _ => "ok",
        }
    }
}

/// The full gate report.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// One verdict per cell key seen on either side, key-sorted.
    pub verdicts: Vec<CostVerdict>,
}

impl CostReport {
    /// Cells that are not exact matches.
    pub fn drifts(&self) -> Vec<&CostVerdict> {
        self.verdicts.iter().filter(|v| v.drifted()).collect()
    }

    /// Render the verdict table.
    pub fn render(&self) -> String {
        let fmt = |x: Option<(u64, u64)>| match x {
            Some((r, w)) => format!("{r}r+{w}w"),
            None => "-".to_string(),
        };
        let mut out = String::from("cost gate: exact (Q_r, Q_w) vs committed COSTS.json\n");
        for v in &self.verdicts {
            out.push_str(&format!(
                "  {:<44} {:>16} -> {:>16}  {}\n",
                v.cell,
                fmt(v.baseline),
                fmt(v.current),
                v.status()
            ));
        }
        let drifts = self.drifts();
        if drifts.is_empty() {
            out.push_str("verdict: all cells exact\n");
        } else {
            out.push_str(&format!(
                "verdict: {} cell(s) drifted — if intentional, regenerate with --write\n",
                drifts.len()
            ));
        }
        out
    }
}

type CellCosts = Vec<(String, (u64, u64))>;

fn cells_of(doc: &Json) -> Result<CellCosts, String> {
    let cells: Vec<(String, Json)> = json::field(doc, "cells", None)?;
    cells
        .into_iter()
        .map(|(name, v)| {
            let c = Cost::from_json(&v).map_err(|e| format!("cell '{name}': {e}"))?;
            Ok((name, (c.reads, c.writes)))
        })
        .collect()
}

/// Compare a committed snapshot against a fresh measurement.
pub fn compare(baseline: &Json, current: &Json) -> Result<CostReport, String> {
    let base = cells_of(baseline)?;
    let cur = cells_of(current)?;
    let mut verdicts = Vec::new();
    for (cell, b) in &base {
        verdicts.push(CostVerdict {
            cell: cell.clone(),
            baseline: Some(*b),
            current: cur.iter().find(|(c, _)| c == cell).map(|&(_, x)| x),
        });
    }
    for (cell, c) in &cur {
        if !base.iter().any(|(b, _)| b == cell) {
            verdicts.push(CostVerdict {
                cell: cell.clone(),
                baseline: None,
                current: Some(*c),
            });
        }
    }
    verdicts.sort_by(|a, b| a.cell.cmp(&b.cell));
    Ok(CostReport { verdicts })
}

/// Meter the canonical cells and gate them against the snapshot at
/// `costs_path`.
pub fn run_cost_gate(costs_path: &Path) -> Result<CostReport, String> {
    let text = std::fs::read_to_string(costs_path)
        .map_err(|e| format!("cannot read {}: {e}", costs_path.display()))?;
    let baseline =
        aem_obs::json::parse(&text).map_err(|e| format!("{}: {e}", costs_path.display()))?;
    let current = measure()?;
    compare(&baseline, &current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_core::workload::{run_workload, LiveHarness, RunCtx};
    use aem_machine::{AemConfig, Backend};

    /// Every algorithm the registry marks `exact` meters exactly its
    /// prediction at every gate shape on both gate configs, whether or
    /// not the planner picks it there.
    #[test]
    fn exact_algorithms_meter_their_predictions_at_the_gate_shapes() {
        let mut checked = Vec::new();
        for &(mem, block, omega) in &CONFIGS {
            let cfg = AemConfig::new(mem, block, omega).unwrap();
            for kind in JobKind::ALL {
                let w = kind.descriptor();
                for a in w.algos.iter().filter(|a| a.exact) {
                    for &(n, delta) in w.gate_shapes {
                        let Some(predicted) = (a.predict)(cfg, n, delta) else {
                            continue;
                        };
                        let ctx = RunCtx::new(kind, a.name, cfg, n, delta, 1).unwrap();
                        let mut h = LiveHarness {
                            backend: Backend::Vec,
                        };
                        let (measured, _) = run_workload(&ctx, &mut h).unwrap();
                        let cell =
                            format!("{kind}/{}/{mem},{block},{omega}/n={n},d={delta}", a.name);
                        assert_eq!(measured, predicted, "{cell}");
                        checked.push(a.name);
                    }
                }
            }
        }
        // Each of the six exact algorithms was priced somewhere.
        checked.sort_unstable();
        checked.dedup();
        assert_eq!(
            checked,
            ["binary", "btree", "materialize", "stream", "tiled", "tree"]
        );
    }

    #[test]
    fn registry_is_nonempty_with_unique_stable_keys() {
        let cells = canonical_cells();
        assert!(cells.len() >= 2 * CONFIGS.len() * JobKind::ALL.len());
        let mut keys: Vec<String> = cells
            .iter()
            .map(|s| cell_name(s, plan(s).unwrap().algo))
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "cell keys must be unique");
        // Both shapes and both standard backends appear.
        assert!(keys.iter().any(|k| k.contains("/vec/M1024/")));
        assert!(keys.iter().any(|k| k.contains("/trace/M64/")));
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure().unwrap().to_string_compact();
        let b = measure().unwrap().to_string_compact();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_match_passes_and_any_drift_fails() {
        let doc = |r: u64| {
            obj(vec![(
                "cells",
                obj(vec![(
                    "sort/aem/vec/x",
                    obj(vec![("reads", Json::UInt(r)), ("writes", Json::UInt(10))]),
                )]),
            )])
        };
        let same = compare(&doc(100), &doc(100)).unwrap();
        assert!(same.drifts().is_empty());
        assert!(same.render().contains("all cells exact"));

        let off = compare(&doc(100), &doc(101)).unwrap();
        assert_eq!(off.drifts().len(), 1);
        assert!(off.render().contains("DRIFT"), "{}", off.render());
    }

    #[test]
    fn missing_and_new_cells_are_drift_not_schema_growth() {
        let empty = obj(vec![("cells", obj(vec![]))]);
        let one = obj(vec![(
            "cells",
            obj(vec![(
                "a",
                obj(vec![("reads", Json::UInt(1)), ("writes", Json::UInt(2))]),
            )]),
        )]);
        let gone = compare(&one, &empty).unwrap();
        assert_eq!(gone.drifts().len(), 1);
        assert!(gone.render().contains("GONE"));
        let new = compare(&empty, &one).unwrap();
        assert_eq!(new.drifts().len(), 1);
        assert!(new.render().contains("NEW"));
    }

    #[test]
    fn committed_costs_json_is_exact() {
        // The real gate, run as a unit test: the repo's committed snapshot
        // must match a fresh metering bit for bit.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../COSTS.json");
        let report = run_cost_gate(&path).unwrap();
        assert!(report.drifts().is_empty(), "{}", report.render());
        assert!(!report.verdicts.is_empty());
    }
}
