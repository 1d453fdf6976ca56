//! T2 — Theorem 3.2's merging primitive: `O(ω(n+m))` reads, `O(n+m)`
//! writes for one `ωm`-way merge.

use aem_core::sort::{merge_runs, MergeStats};
use aem_machine::{with_payload_machine, AemAccess, AemConfig, Backend, Cost, Region};
use aem_workloads::KeyDist;

use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{f, Table};

/// Merge `k` pre-sorted runs of `each` elements; return the cost and the
/// merge statistics (including the measured Lemma 3.1 active-run maximum).
/// The merge compares keys and chases external pointers, so `backend` must
/// carry payloads.
pub fn run_merge(
    backend: Backend,
    cfg: AemConfig,
    k: usize,
    each: usize,
    seed: u64,
) -> (Cost, MergeStats) {
    with_payload_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let regions: Vec<Region> = (0..k)
            .map(|i| {
                let mut run = KeyDist::Uniform {
                    seed: seed + i as u64,
                }
                .generate(each);
                run.sort();
                m.install(&run)
            })
            .collect();
        let (out, stats) = merge_runs(&mut m, &regions).expect("merge");
        debug_assert_eq!(out.elems, k * each);
        (m.cost(), stats)
    }, ghost => unreachable!("the merge reads keys and pointers; not payload-oblivious"))
}

/// All merging sweeps. Merging steers on key comparisons, so the ghost
/// backend runs none of them.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![t2_fan_sweep(quick, backend), t2_omega_sweep(quick, backend)]
}

/// T2a: merging cost vs the number of runs `k` up to the full fan-in.
pub fn t2_fan_sweep(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 16).unwrap(); // fan-in = 128
    let each = if quick { 64 } else { 512 };
    let ks: Vec<usize> = vec![2, 8, 32, 128];
    let cells = ks
        .iter()
        .map(|&k| {
            Cell::new(format!("k={k}"), move || {
                let (c, stats) = run_merge(backend, cfg, k, each, 10);
                CellOut::new()
                    .with_u64("k", k as u64)
                    .with_u64("reads", c.reads)
                    .with_u64("writes", c.writes)
                    .with_u64("max_active", stats.max_active as u64)
                    .with_u64("active_bound", stats.active_bound as u64)
            })
        })
        .collect();
    Sweep::new("T2a", cells, move |outs| {
        let mut t = Table::new(
            "T2a",
            &format!("Thm 3.2 — one k-way merge on {cfg}, runs of {each}"),
            &[
                "k",
                "N",
                "reads",
                "writes",
                "reads / ω(n+m)",
                "writes / (n+m)",
                "max active (≤ M̂/B)",
            ],
        );
        let mut ok = true;
        for o in outs {
            let k = o.u64("k") as usize;
            let c = Cost::new(o.u64("reads"), o.u64("writes"));
            let total = k * each;
            let n = cfg.blocks_for(total) as f64;
            let m = cfg.m() as f64;
            let rn = c.reads as f64 / (cfg.omega as f64 * (n + m));
            let wn = c.writes as f64 / (n + m);
            let (max_active, bound) = (o.u64("max_active"), o.u64("active_bound"));
            ok &= rn < 10.0 && wn < 5.0 && max_active <= bound;
            t.row(vec![
                k.to_string(),
                total.to_string(),
                c.reads.to_string(),
                c.writes.to_string(),
                f(rn),
                f(wn),
                format!("{max_active} (≤ {bound})"),
            ]);
        }
        t.note(format!(
            "normalized reads and writes stay in a constant band and Lemma 3.1's active-run \
             bound is never exceeded: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// T2b: merging at the full fan-in as `ω` grows (the pointer-array regime
/// `ωm > M` from ω = 16 on for this configuration).
pub fn t2_omega_sweep(quick: bool, backend: Backend) -> Sweep {
    let (mem, b) = (64usize, 8usize);
    let total = if quick { 1 << 12 } else { 1 << 15 };
    let omegas: Vec<u64> = vec![1, 4, 16, 64];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                let k = cfg.fan_in().min(total / 4).max(2);
                let each = total / k;
                let c = run_merge(backend, cfg, k, each, 20).0;
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("reads", c.reads)
                    .with_u64("writes", c.writes)
            })
        })
        .collect();
    Sweep::new("T2b", cells, move |outs| {
        let mut t = Table::new(
            "T2b",
            &format!("Thm 3.2 — full-fan-in merge vs ω at N={total}, M={mem}, B={b}"),
            &[
                "ω",
                "k = ωm",
                "pointers fit in M?",
                "reads",
                "writes",
                "reads / ω(n+m)",
                "writes / (n+m)",
            ],
        );
        let mut ok = true;
        for o in outs {
            let omega = o.u64("omega");
            let cfg = AemConfig::new(mem, b, omega).unwrap();
            let k = cfg.fan_in().min(total / 4).max(2);
            let c = Cost::new(o.u64("reads"), o.u64("writes"));
            let n = cfg.blocks_for(k * (total / k)) as f64;
            let m = cfg.m() as f64;
            let rn = c.reads as f64 / (omega as f64 * (n + m));
            let wn = c.writes as f64 / (n + m);
            ok &= rn < 10.0 && wn < 5.0;
            t.row(vec![
                omega.to_string(),
                k.to_string(),
                if k <= mem {
                    "yes".into()
                } else {
                    "NO — external b[i] required".into()
                },
                c.reads.to_string(),
                c.writes.to_string(),
                f(rn),
                f(wn),
            ]);
        }
        t.note(format!(
            "cost bands hold even when the ωm run pointers exceed M: {}",
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
    fn all_merge_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }
}
