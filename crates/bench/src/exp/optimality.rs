//! F5 — the paper's headline claim, §1.1: the permuting lower bound
//! "matches the sorting upper bound to within a constant factor for
//! reasonable ranges of the parameters ω, B, M and N".
//!
//! This experiment maps that claim: over a wide parameter grid (far larger
//! `N` than the simulator runs, since both sides are closed forms here) it
//! evaluates the ratio
//!
//! ```text
//!        upper bound (measured-calibrated predictor for the §3 mergesort)
//! gap = ──────────────────────────────────────────────────────────────────
//!        lower bound (Thm 4.5 counting, evaluated exactly)
//! ```
//!
//! and reports where the gap stays in a constant band (optimality) and
//! where the bound goes trivial (the "reasonable ranges" caveat: e.g.
//! `ω > N/B` breaks the theorem's assumption, and tiny `N/B` makes the
//! `min{N, ·}` branch flip). The predictor itself is validated against
//! measured costs in `tests/predictors.rs`, so using it here at scales the
//! simulator cannot reach is calibrated extrapolation, not guesswork.

use aem_core::bounds::{permute as pbounds, predict};
use aem_machine::{AemConfig, Backend};

use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{f, Table};

/// All optimality-map sweeps. Both sides of the gap are closed-form
/// evaluations — no machine runs at all — so the cells are backend-neutral
/// and run identically for every backend (including ghost).
pub fn sweeps(quick: bool, _backend: Backend) -> Vec<Sweep> {
    vec![f5(quick)]
}

/// F5: the optimality gap across the parameter grid.
pub fn f5(quick: bool) -> Sweep {
    let n_exps: Vec<u32> = if quick {
        vec![20, 24]
    } else {
        vec![20, 24, 28, 32]
    };
    let shapes: Vec<(usize, usize)> = vec![(1 << 14, 1 << 8), (1 << 20, 1 << 12)]; // (M, B)
    let omegas: Vec<u64> = vec![1, 4, 16, 64, 256, 4096];
    let mut grid: Vec<(u32, usize, usize, u64)> = Vec::new();
    for &ne in &n_exps {
        for &(m, b) in &shapes {
            for &w in &omegas {
                grid.push((ne, m, b, w));
            }
        }
    }
    let cells = grid
        .iter()
        .map(|&(ne, mem, b, omega)| {
            Cell::new(format!("n=2^{ne},m={mem},b={b},omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                let n = 1u64 << ne;
                let ub = predict::merge_sort_cost(cfg, n as usize).q(omega) as f64;
                let lb = pbounds::permute_cost_lower_bound(n, cfg);
                let in_range = omega <= n / b as u64;
                CellOut::new()
                    .with_u64("n", n)
                    .with_u64("m", mem as u64)
                    .with_u64("b", b as u64)
                    .with_u64("omega", omega)
                    .with_bool("in_range", in_range)
                    .with_f64("ub", ub)
                    .with_f64("lb", lb)
            })
        })
        .collect();
    Sweep::new("F5", cells, move |outs| {
        let mut t = Table::new(
            "F5",
            "§1.1 headline — sorting UB vs permuting LB across the parameter grid (closed forms)",
            &[
                "N",
                "M",
                "B",
                "ω",
                "ω ≤ N/B",
                "UB (pred)",
                "LB (Thm 4.5)",
                "gap UB/LB",
            ],
        );
        let mut gaps: Vec<f64> = Vec::new();
        for o in outs {
            let (ub, lb) = (o.f64("ub"), o.f64("lb"));
            let in_range = o.bool("in_range");
            let gap = if lb > 0.0 { ub / lb } else { f64::INFINITY };
            if in_range && lb > 0.0 {
                gaps.push(gap);
            }
            t.row(vec![
                format!("2^{}", (o.u64("n") as f64).log2() as u32),
                o.u64("m").to_string(),
                o.u64("b").to_string(),
                o.u64("omega").to_string(),
                in_range.to_string(),
                f(ub),
                f(lb),
                if gap.is_finite() {
                    f(gap)
                } else {
                    "∞ (bound trivial)".into()
                },
            ]);
        }
        let (lo, hi) = (
            gaps.iter().cloned().fold(f64::MAX, f64::min),
            gaps.iter().cloned().fold(f64::MIN, f64::max),
        );
        // "Constant factor" here: the gap band across 4096x of ω and 4096x of
        // N stays within two orders of magnitude — the product of the counting
        // argument's slack (~8-80x, see T5) and the algorithm's constants —
        // and, crucially, does NOT grow with N: optimality in the theorem's
        // sense (the per-N flatness is asserted in this module's tests).
        let ok = !gaps.is_empty() && hi / lo < 150.0;
        t.note(format!(
            "gap band over the in-range grid: [{lo:.1}, {hi:.1}] — bounded, and flat in N \
             (the claim of §1.1): {}",
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
    fn f5_passes() {
        passing_tables(vec![f5(true)]);
    }

    #[test]
    fn gap_stays_in_a_flat_band_across_n() {
        // The optimality claim in its sharpest testable form: at fixed
        // (M, B, ω) in range, the UB/LB ratio stays in a constant band as
        // N grows by 4096x. (It is not monotone: each additional merge
        // level bumps the UB step-wise while the bound moves smoothly.)
        let cfg = AemConfig::new(1 << 14, 1 << 8, 16).unwrap();
        let gaps: Vec<f64> = [20u32, 24, 28, 32]
            .iter()
            .map(|&ne| {
                let n = 1u64 << ne;
                let ub = predict::merge_sort_cost(cfg, n as usize).q(cfg.omega) as f64;
                let lb = pbounds::permute_cost_lower_bound(n, cfg);
                assert!(lb > 0.0);
                ub / lb
            })
            .collect();
        let (lo, hi) = (
            gaps.iter().cloned().fold(f64::MAX, f64::min),
            gaps.iter().cloned().fold(f64::MIN, f64::max),
        );
        assert!(hi / lo < 5.0, "gap band [{lo}, {hi}] not flat: {gaps:?}");
    }
}
