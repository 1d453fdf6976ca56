//! T14 — level-synchronous BFS through the workload registry: the
//! write-marking baseline vs frontier re-derivation under ω.
//!
//! The marking traversal is the textbook algorithm: visit an edge, read
//! the target's distance block, and on a miss write the block back and
//! push the vertex onto an external queue — `Θ(n)` ω-priced writes. The
//! write-avoiding traversal never materializes frontiers: each round it
//! re-reads the adjacency file to re-derive who is newly reachable,
//! writing only the final distance file (`⌈n/B⌉` writes total). The
//! sweep runs both on the path graph — the deepest conformation, so the
//! rescan traversal pays its worst-case round count — and still finds
//! the ω crossover. BFS is data-routed (traversal order derives from
//! adjacency payloads), so this family publishes **no ghost sweeps**;
//! the registry's ghost-soundness flags enforce the same verdict.

use aem_core::workload::WorkloadKind;
use aem_machine::{AemConfig, Backend};

use super::{measured, registry_ctx};
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::Table;

/// All BFS sweeps. Traversal is routed by edge payloads, so the
/// cost-only ghost backend sits this family out (the registry's
/// ghost-soundness flags say the same thing).
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![t14(quick, backend)]
}

/// T14: BFS on the depth-n path graph across the ω sweep, both
/// traversals from the registry menu, metered vs the certified bounds.
pub fn t14(quick: bool, backend: Backend) -> Sweep {
    let n = if quick { 256 } else { 2048 };
    let delta = 3;
    let omegas: Vec<u64> = if quick {
        vec![1, 64]
    } else {
        vec![1, 16, 64, 256]
    };
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(64, 8, omega).unwrap();
                let w = WorkloadKind::Bfs.descriptor();
                let mut out = CellOut::new().with_u64("omega", omega);
                let mut sound = true;
                let mut best = ("", u64::MAX);
                for a in w.algos {
                    // Seed 0 selects the path conformation — the deepest graph
                    // the generator emits, i.e. the rescan traversal's worst case.
                    let ctx = registry_ctx(WorkloadKind::Bfs, a.name, "seeded", cfg, n, delta, 0);
                    let m = measured(backend, ctx);
                    let p = (a.predict)(cfg, n, delta).expect("M=64 admits both traversals");
                    // Both predictors are certified bounds: marking's
                    // write term assumes every vertex is reachable,
                    // rescan's read term assumes depth-n rounds that
                    // re-read every block. The path graph meets both
                    // worst cases, but componentwise ≤ is the contract.
                    sound &= m.reads <= p.reads && m.writes <= p.writes;
                    let q = m.q(cfg.omega);
                    if q < best.1 {
                        best = (a.name, q);
                    }
                    out = out
                        .with_u64(&format!("r_{}", a.name), m.reads)
                        .with_u64(&format!("w_{}", a.name), m.writes)
                        .with_u64(&format!("q_{}", a.name), q);
                }
                out.with_bool("sound", sound).with_str("cheapest", best.0)
            })
        })
        .collect();
    let (w_lo, w_hi) = (omegas[0], *omegas.last().unwrap());
    Sweep::new("T14", cells, move |outs| {
        let mut t = Table::new(
            "T14",
            &format!(
                "bfs — path graph, N={n}, δ={delta}, marking vs frontier re-derivation, \
                 M=64, B=8, ω swept"
            ),
            &[
                "ω",
                "mark r/w",
                "Q mark",
                "rescan r/w",
                "Q rescan",
                "measured cheapest",
                "within bounds",
            ],
        );
        let mut all_sound = true;
        for o in outs {
            all_sound &= o.bool("sound");
            t.row(vec![
                o.u64("omega").to_string(),
                format!("{}/{}", o.u64("r_mark"), o.u64("w_mark")),
                o.u64("q_mark").to_string(),
                format!("{}/{}", o.u64("r_rescan"), o.u64("w_rescan")),
                o.u64("q_rescan").to_string(),
                o.str("cheapest").to_string(),
                o.bool("sound").to_string(),
            ]);
        }
        let crossed = outs.first().unwrap().str("cheapest") == "mark"
            && outs.last().unwrap().str("cheapest") == "rescan";
        t.note(format!(
            "metered costs stay componentwise within the certified bounds on every row: {}",
            if all_sound { "PASS" } else { "FAIL" }
        ));
        t.note(format!(
            "the marking traversal wins at ω = {w_lo}, the write-avoiding re-derivation \
             wins at ω = {w_hi} — even on its worst-case (depth-n) graph: {}",
            if crossed { "PASS" } else { "FAIL" }
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::passing_tables;

    #[test]
    fn bfs_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }

    #[test]
    fn ghost_gets_no_bfs_sweeps() {
        assert!(sweeps(true, Backend::Ghost).is_empty());
    }
}
