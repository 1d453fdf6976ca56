//! T12 — the reduce/scan family through the workload registry: prefix
//! sums under ω, from write-everything to write-nothing.
//!
//! Three strategies span the write spectrum: the classic materialized
//! scan rewrites the whole file once (`⌈n/B⌉` ω-priced writes) and then
//! answers each prefix query with one read; the blocked reduction tree
//! pays a small ω-weighted build (`~⌈n/B⌉/B` block-sum writes) for
//! `height` reads per query; and the pure rescan strategy writes nothing
//! ever, recomputing each prefix from reads alone. Sweeping (δ, ω)
//! exposes both crossovers: at small δ the winner slides tree → rescan
//! as ω grows, at large δ it slides materialize → tree. Every strategy
//! is position-routed, so the cost-only ghost backend runs the full
//! grid too.

use aem_core::workload::WorkloadKind;
use aem_machine::{AemConfig, Backend};

use super::{measured, registry_ctx};
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::Table;

/// All scan sweeps. Every registered strategy is ghost-sound, so the
/// grid runs on every backend.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    vec![t12(quick, backend)]
}

/// T12: scan + δ prefix queries across the (δ, ω) grid, every strategy
/// from the registry menu, metered vs predicted.
pub fn t12(quick: bool, backend: Backend) -> Sweep {
    let n = if quick { 512 } else { 2048 };
    let deltas: Vec<usize> = if quick { vec![8, 512] } else { vec![8, 1024] };
    let omegas: Vec<u64> = if quick {
        vec![1, 256]
    } else {
        vec![1, 16, 256]
    };
    let mut cells = Vec::new();
    for &delta in &deltas {
        for &omega in &omegas {
            cells.push(Cell::new(
                format!("delta={delta},omega={omega}"),
                move || {
                    let cfg = AemConfig::new(64, 8, omega).unwrap();
                    let w = WorkloadKind::Scan.descriptor();
                    let mut out = CellOut::new()
                        .with_u64("delta", delta as u64)
                        .with_u64("omega", omega);
                    let mut sound = true;
                    for a in w.algos {
                        let ctx =
                            registry_ctx(WorkloadKind::Scan, a.name, "seeded", cfg, n, delta, 7);
                        let m = measured(backend, ctx);
                        let p = (a.predict)(cfg, n, delta).expect("predictor accepts this config");
                        // materialize/tree predictors are exact schedules;
                        // rescan's is a certified bound (a query at position
                        // p reads ⌊p/B⌋ + 1 ≤ ⌈n/B⌉ blocks).
                        sound &= if a.name == "rescan" {
                            m.reads <= p.reads && m.writes == p.writes
                        } else {
                            m == p
                        };
                        out = out.with_u64(&format!("q_{}", a.name), m.q(cfg.omega));
                    }
                    let (best, _) = w.cheapest(cfg, n, delta).expect("non-empty menu");
                    out.with_bool("sound", sound).with_str("cheapest", best)
                },
            ));
        }
    }
    let (w_lo, w_hi) = (omegas[0], *omegas.last().unwrap());
    Sweep::new("T12", cells, move |outs| {
        let mut t = Table::new(
            "T12",
            &format!("scan — prefix sums under ω, scan + δ queries, N={n}, M=64, B=8, ω swept"),
            &[
                "δ",
                "ω",
                "Q materialize",
                "Q tree",
                "Q rescan",
                "registry cheapest",
                "predictor sound",
            ],
        );
        let mut all_sound = true;
        let mut crossed = true;
        for o in outs {
            all_sound &= o.bool("sound");
            t.row(vec![
                o.u64("delta").to_string(),
                o.u64("omega").to_string(),
                o.u64("q_materialize").to_string(),
                o.u64("q_tree").to_string(),
                o.u64("q_rescan").to_string(),
                o.str("cheapest").to_string(),
                o.bool("sound").to_string(),
            ]);
        }
        // At every δ the winner must change across the ω sweep — the
        // read/write crossover the family exists to exhibit.
        for d in outs.chunks(omegas_len(outs)) {
            let lo = d.iter().find(|o| o.u64("omega") == w_lo).unwrap();
            let hi = d.iter().find(|o| o.u64("omega") == w_hi).unwrap();
            crossed &= lo.str("cheapest") != hi.str("cheapest");
        }
        t.note(format!(
            "metered costs match the exact-schedule predictors (rescan within its \
             certified bound) on every row: {}",
            if all_sound { "PASS" } else { "FAIL" }
        ));
        t.note(format!(
            "at every δ the cheapest strategy flips between ω = {w_lo} and ω = {w_hi} \
             (write-heavy loses to write-avoiding as writes get dearer): {}",
            if crossed { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// Number of ω points per δ group (the grid is rectangular, row-major in
/// δ; recover the stride from the outputs so the renderer stays pure).
fn omegas_len(outs: &[CellOut]) -> usize {
    let first = outs[0].u64("delta");
    outs.iter().take_while(|o| o.u64("delta") == first).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::{markdown, passing_tables};

    #[test]
    fn scan_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }

    #[test]
    fn ghost_renders_the_same_scan_table() {
        assert_eq!(
            markdown(sweeps(true, Backend::Vec)),
            markdown(sweeps(true, Backend::Ghost))
        );
    }
}
