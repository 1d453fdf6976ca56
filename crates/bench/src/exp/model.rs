//! F3 — §2's model observation: the `(M, ω)`-ARAM **is** the
//! `(M, 1, ω)`-AEM.
//!
//! The AEM machine at `B = 1` meters exactly the ARAM cost measure
//! (`Q = Q_r + ωQ_w` over single-element transfers), so every algorithm in
//! the workspace doubles as an ARAM algorithm. This table runs the sorting
//! and permuting stack at `B = 1` and reports costs against the ARAM-form
//! expressions (`log` base `ωM`, since `m = M` at `B = 1`).

use aem_machine::{AemConfig, Backend};

use super::permute::auto_cost;
use super::sorting::sort_cost;
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{f, Table};

/// All model sweeps. F3 sorts keys and permutes through the auto
/// strategy (which may pick the tag-steered sort), so the ghost backend
/// runs none of them.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![f3(quick, backend)]
}

/// F3: ARAM specialization.
pub fn f3(quick: bool, backend: Backend) -> Sweep {
    let mem = 32usize;
    let n = if quick { 1 << 10 } else { 1 << 13 };
    let omegas: Vec<u64> = vec![1, 4, 16, 64];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::aram(mem, omega).unwrap();
                assert_eq!(cfg.block, 1);
                let (cost, strategy) = auto_cost(backend, cfg, n, 71);
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("q_sort", sort_cost(backend, "aem", cfg, n, 70).q(omega))
                    .with_str("strategy", format!("{strategy:?}"))
                    .with_u64("q_perm", cost.q(omega))
            })
        })
        .collect();
    Sweep::new("F3", cells, move |outs| {
        let mut t = Table::new(
            "F3",
            &format!("§2 — (M,ω)-ARAM ≡ (M,1,ω)-AEM: sorting and permuting at B=1, M={mem}, N={n}"),
            &[
                "ω",
                "Q sort",
                "Q sort / ωN⌈log_ωM N⌉",
                "permute strategy",
                "Q permute",
            ],
        );
        let mut ok = true;
        for o in outs {
            let omega = o.u64("omega");
            let cfg = AemConfig::aram(mem, omega).unwrap();
            let q_sort = o.u64("q_sort");
            let norm = q_sort as f64 / (omega as f64 * n as f64 * cfg.log_fan_in(n as f64).ceil());
            ok &= norm < 40.0;
            t.row(vec![
                omega.to_string(),
                q_sort.to_string(),
                f(norm),
                o.str("strategy").to_string(),
                o.u64("q_perm").to_string(),
            ]);
        }
        t.note(format!(
            "at B = 1 the machine reproduces the ARAM accounting (n = N, m = M): {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::passing_tables;

    #[test]
    fn f3_passes() {
        passing_tables(vec![f3(true, Backend::Vec)]);
    }

    #[test]
    fn ghost_runs_no_model_sweeps() {
        assert!(sweeps(true, Backend::Ghost).is_empty());
    }
}
