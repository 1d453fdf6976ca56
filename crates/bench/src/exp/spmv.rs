//! T6 / T7 — §5: SpMxV upper-bound crossover and the Theorem 5.1 lower
//! bound.

use aem_core::bounds::spmv as sbounds;
use aem_core::spmv::{choose_strategy, SpmvStrategy};
use aem_core::workload::WorkloadKind;
use aem_machine::{AemConfig, Backend};

use super::{measured, registry_ctx};
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{f, Table};

/// All SpMxV sweeps. Both algorithms move semiring values (and the sorted
/// one merge-sorts them), so the ghost backend runs none of them.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![
        t6_delta_sweep(quick, backend),
        t6_omega_sweep(quick, backend),
        t6_big_blocks(quick, backend),
        t7(quick, backend),
    ]
}

/// The metered `Q` of the registered SpMxV `algo` on the random
/// conformation drawn from `seed`, `delta` non-zeros per column. The
/// registry verifies `y` against the reference product; its matrix entries
/// order by row alone, so `Q` depends only on the conformation, not on the
/// values.
fn spmv_q(backend: Backend, algo: &str, cfg: AemConfig, n: usize, delta: usize, seed: u64) -> u64 {
    let ctx = registry_ctx(WorkloadKind::Spmv, algo, "random", cfg, n, delta, seed);
    measured(backend, ctx).q(cfg.omega)
}

/// T6c: the sorting-based algorithm's home turf — large blocks, mild
/// asymmetry. Direct gathering pays ≈ 2 reads per non-zero regardless of
/// `B`, while sorting moves whole blocks: `ω·lev/B ≪ 1` flips the winner.
pub fn t6_big_blocks(quick: bool, backend: Backend) -> Sweep {
    let (mem, b) = (1024usize, 128usize);
    let n = if quick { 1024 } else { 4096 };
    let delta = 2usize;
    let omegas: Vec<u64> = vec![1, 2, 4, 16, 64];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("q_direct", spmv_q(backend, "direct", cfg, n, delta, 63))
                    .with_u64("q_sorted", spmv_q(backend, "sorted", cfg, n, delta, 63))
                    .with_str("predicted", format!("{:?}", choose_strategy(cfg, n, delta)))
            })
        })
        .collect();
    Sweep::new("T6c", cells, move |outs| {
        let mut t = Table::new(
            "T6c",
            &format!("§5 — SpMxV with large blocks, N={n}, δ={delta}, M={mem}, B={b}"),
            &[
                "ω",
                "Q direct",
                "Q sorted",
                "measured winner",
                "predicted winner",
            ],
        );
        let mut sorted_wins = 0usize;
        for o in outs {
            let (dq, sq) = (o.u64("q_direct"), o.u64("q_sorted"));
            let measured = if dq <= sq {
                SpmvStrategy::Direct
            } else {
                SpmvStrategy::Sorted
            };
            sorted_wins += (measured == SpmvStrategy::Sorted) as usize;
            t.row(vec![
                o.u64("omega").to_string(),
                dq.to_string(),
                sq.to_string(),
                format!("{measured:?}"),
                o.str("predicted").to_string(),
            ]);
        }
        t.note(format!(
            "with B ≫ ω the sorting-based program wins (it moves blocks, the direct one \
             moves entries); the crossover appears as ω grows: {}",
            if sorted_wins > 0 { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// T6a: direct vs sorting-based cost across the density sweep.
pub fn t6_delta_sweep(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 8).unwrap();
    let n = if quick { 256 } else { 2048 };
    let deltas: Vec<usize> = if quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let cells = deltas
        .iter()
        .map(|&delta| {
            Cell::new(format!("delta={delta}"), move || {
                let seed = 60 + delta as u64;
                CellOut::new()
                    .with_u64("delta", delta as u64)
                    .with_u64("h", (n * delta) as u64)
                    .with_u64("q_direct", spmv_q(backend, "direct", cfg, n, delta, seed))
                    .with_u64("q_sorted", spmv_q(backend, "sorted", cfg, n, delta, seed))
                    .with_str("predicted", format!("{:?}", choose_strategy(cfg, n, delta)))
            })
        })
        .collect();
    Sweep::new("T6a", cells, move |outs| {
        let mut t = Table::new(
            "T6a",
            &format!("§5 — SpMxV direct vs sorting-based across δ, N={n}, {cfg}"),
            &[
                "δ",
                "H",
                "Q direct",
                "Q sorted",
                "measured winner",
                "predicted winner",
            ],
        );
        let mut ok = true;
        for o in outs {
            let (dq, sq) = (o.u64("q_direct"), o.u64("q_sorted"));
            let measured = if dq <= sq {
                SpmvStrategy::Direct
            } else {
                SpmvStrategy::Sorted
            };
            ok &= dq > 0 && sq > 0;
            t.row(vec![
                o.u64("delta").to_string(),
                o.u64("h").to_string(),
                dq.to_string(),
                sq.to_string(),
                format!("{measured:?}"),
                o.str("predicted").to_string(),
            ]);
        }
        t.note(format!(
            "both algorithms verified against the reference product on every row: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// T6b: the same crossover in `ω` at fixed δ.
pub fn t6_omega_sweep(quick: bool, backend: Backend) -> Sweep {
    let (mem, b) = (64usize, 8usize);
    let n = if quick { 256 } else { 2048 };
    let delta = 4usize;
    let omegas: Vec<u64> = vec![1, 4, 16, 64, 256];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("q_direct", spmv_q(backend, "direct", cfg, n, delta, 61))
                    .with_u64("q_sorted", spmv_q(backend, "sorted", cfg, n, delta, 61))
            })
        })
        .collect();
    Sweep::new("T6b", cells, move |outs| {
        let mut t = Table::new(
            "T6b",
            &format!(
                "§5 — SpMxV direct vs sorting-based across ω, N={n}, δ={delta}, M={mem}, B={b}"
            ),
            &[
                "ω",
                "Q direct",
                "Q sorted",
                "sorted/direct",
                "measured winner",
            ],
        );
        for o in outs {
            let (dq, sq) = (o.u64("q_direct"), o.u64("q_sorted"));
            let measured = if dq <= sq {
                SpmvStrategy::Direct
            } else {
                SpmvStrategy::Sorted
            };
            t.row(vec![
                o.u64("omega").to_string(),
                dq.to_string(),
                sq.to_string(),
                f(sq as f64 / dq as f64),
                format!("{measured:?}"),
            ]);
        }
        t.note("the direct O(H + ωn) program is ω-robust; the sorted one pays ω per merge level");
        t
    })
}

/// T7: the Theorem 5.1 numeric lower bound vs measured costs, within the
/// theorem's parameter range.
pub fn t7(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 2).unwrap();
    let n = if quick { 1 << 10 } else { 1 << 13 };
    let deltas: Vec<usize> = vec![1, 2, 4];
    let cells = deltas
        .iter()
        .map(|&delta| {
            Cell::new(format!("delta={delta}"), move || {
                let seed = 62 + delta as u64;
                let lb = sbounds::spmv_cost_lower_bound(n as u64, delta as u64, cfg);
                let asym = sbounds::spmv_lower_bound_asymptotic(n as u64, delta as u64, cfg);
                let applies = sbounds::theorem_applies(n as u64, delta as u64, cfg, 0.05);
                CellOut::new()
                    .with_u64("delta", delta as u64)
                    .with_bool("applies", applies)
                    .with_f64("lb", lb)
                    .with_f64("asym", asym)
                    .with_u64("q_direct", spmv_q(backend, "direct", cfg, n, delta, seed))
                    .with_u64("q_sorted", spmv_q(backend, "sorted", cfg, n, delta, seed))
            })
        })
        .collect();
    Sweep::new("T7", cells, move |outs| {
        let mut t = Table::new(
            "T7",
            &format!("Thm 5.1 — SpMxV lower bound vs measured, N={n}, {cfg}"),
            &[
                "δ",
                "in range (ε=0.05)",
                "Thm 5.1 LB",
                "asymptotic LB",
                "Q direct",
                "Q sorted",
                "best/LB",
            ],
        );
        let mut ok = true;
        for o in outs {
            let (dq, sq) = (o.u64("q_direct"), o.u64("q_sorted"));
            let lb = o.f64("lb");
            let best = dq.min(sq);
            // Soundness: the numeric bound may never exceed the best measured
            // program's cost.
            ok &= (best as f64) >= lb;
            t.row(vec![
                o.u64("delta").to_string(),
                o.bool("applies").to_string(),
                f(lb),
                f(o.f64("asym")),
                dq.to_string(),
                sq.to_string(),
                if lb > 0.0 {
                    f(best as f64 / lb)
                } else {
                    "—".into()
                },
            ]);
        }
        t.note(format!(
            "no measured program beats the Theorem 5.1 bound: {}",
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
    fn spmv_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }
}
