//! T11 — the search family through the workload registry: ω-weighted
//! static-layout builds vs read-only batched predecessor lookups.
//!
//! The three layouts trade a one-off build cost (writes, priced at ω)
//! against per-lookup reads: the sorted array builds for free but pays
//! `log₂` block probes per query, the blocked B-tree pays an ω-weighted
//! build once and then `log_B` probes, and the Eytzinger permutation
//! sits in between with a key-dependent descent. Sweeping δ (the lookup
//! batch size) exposes the crossover, and every cell cross-checks the
//! metered cost against the registry's exact-schedule predictors.

use aem_core::workload::WorkloadKind;
use aem_machine::{AemConfig, Backend};

use super::{measured, registry_ctx};
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::Table;

/// All search sweeps. The Eytzinger descent routes on keys, so the
/// cost-only ghost backend sits this family out (the registry's
/// ghost-soundness flags say the same thing).
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![t11(quick, backend)]
}

/// T11: build + δ lookups across the batch-size sweep, every layout from
/// the registry menu, metered vs predicted.
pub fn t11(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 16).unwrap();
    let n = if quick { 512 } else { 4096 };
    let deltas: Vec<usize> = if quick {
        vec![1, 64]
    } else {
        vec![1, 8, 64, 512, 4096]
    };
    let cells = deltas
        .iter()
        .map(|&delta| {
            Cell::new(format!("delta={delta}"), move || {
                let w = WorkloadKind::Search.descriptor();
                let mut out = CellOut::new().with_u64("delta", delta as u64);
                let mut sound = true;
                for a in w.algos {
                    let ctx =
                        registry_ctx(WorkloadKind::Search, a.name, "seeded", cfg, n, delta, 7);
                    let m = measured(backend, ctx);
                    let p = (a.predict)(cfg, n, delta).expect("predictor accepts this config");
                    // binary/btree predictors are exact schedules; the
                    // Eytzinger one is a certified upper bound (block
                    // reuse along the descent is key-dependent).
                    sound &= if a.name == "eytzinger" {
                        m.reads <= p.reads && m.writes == p.writes
                    } else {
                        m == p
                    };
                    out = out.with_u64(&format!("q_{}", a.name), m.q(cfg.omega));
                }
                let (best, _) = w.cheapest(cfg, n, delta).expect("non-empty menu");
                out.with_bool("sound", sound).with_str("cheapest", best)
            })
        })
        .collect();
    Sweep::new("T11", cells, move |outs| {
        let mut t = Table::new(
            "T11",
            &format!("search — static layouts, build + δ lookups, N={n}, {cfg}"),
            &[
                "δ",
                "Q binary",
                "Q btree",
                "Q eytzinger",
                "registry cheapest",
                "predictor sound",
            ],
        );
        let mut all_sound = true;
        for o in outs {
            all_sound &= o.bool("sound");
            t.row(vec![
                o.u64("delta").to_string(),
                o.u64("q_binary").to_string(),
                o.u64("q_btree").to_string(),
                o.u64("q_eytzinger").to_string(),
                o.str("cheapest").to_string(),
                o.bool("sound").to_string(),
            ]);
        }
        t.note(format!(
            "metered costs match the exact-schedule predictors (eytzinger within its \
             certified bound) on every row: {}",
            if all_sound { "PASS" } else { "FAIL" }
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::passing_tables;

    #[test]
    fn search_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }

    #[test]
    fn ghost_gets_no_search_sweeps() {
        assert!(sweeps(true, Backend::Ghost).is_empty());
    }
}
