//! T4 — Lemma 4.3 / Corollary 4.4: the flash-model simulation, executed.
//!
//! The full chain per cell: run a permutation program on the
//! move-semantics atom machine (a §4.2-legal program), compile it to a
//! flash program (removal-time normalization + interval covering), replay
//! it on the enforcing flash machine, verify the realized layout, and
//! compare the measured I/O volume against the lemma's `2N + 2QB/ω`.
//! Two program families run per parameter point: the read-heavy naive
//! gather and the write-heavy two-pass scatter — the lemma must hold for
//! both, and their volumes bracket the interesting range.

use aem_core::bounds::flash as flash_bounds;
use aem_flash::driver::{naive_atom_permutation, two_pass_atom_permutation};
use aem_flash::verify_lemma_4_3;
use aem_machine::{AemConfig, Backend};
use aem_workloads::PermKind;

use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{f, Table};

/// All flash sweeps. These run on the move-semantics atom machine and the
/// flash replay machine — neither stores payloads through a
/// [`aem_machine::BlockStore`] — so the cells are backend-neutral and run
/// identically for every backend (including ghost).
pub fn sweeps(quick: bool, _backend: Backend) -> Vec<Sweep> {
    vec![t4(quick)]
}

/// T4: volume of the simulated programs vs the Lemma 4.3 bound, for two
/// program families of opposite read/write profiles.
pub fn t4(quick: bool) -> Sweep {
    let mem = 2048usize; // two-pass scatter needs N ≤ ~M²/B at the largest N below
    let b = 16usize;
    let sizes: Vec<usize> = if quick {
        vec![1 << 9, 1 << 11]
    } else {
        vec![1 << 10, 1 << 13, 1 << 16]
    };
    let omegas: Vec<u64> = vec![2, 4, 8]; // B > ω and ω | B, per the lemma
    let grid: Vec<(usize, u64, bool)> = sizes
        .iter()
        .flat_map(|&n| {
            omegas
                .iter()
                .flat_map(move |&w| [(n, w, false), (n, w, true)])
        })
        .collect();
    let cells = grid
        .iter()
        .map(|&(n, omega, two_pass)| {
            let kind = if two_pass { "two_pass" } else { "naive" };
            Cell::new(format!("n={n},omega={omega},{kind}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                let pi = PermKind::Random { seed: 40 + omega }.generate(n);
                let (prog, _) = if two_pass {
                    two_pass_atom_permutation(cfg, &pi).expect("atom program")
                } else {
                    naive_atom_permutation(cfg, &pi).expect("atom program")
                };
                let realized = prog.realizes(&pi);
                let report = verify_lemma_4_3(&prog.program, cfg).expect("simulation");
                let cor44 = flash_bounds::flash_reduction_cost_bound(n as u64, cfg);
                CellOut::new()
                    .with_bool("two_pass", two_pass)
                    .with_u64("n", n as u64)
                    .with_u64("omega", omega)
                    .with_u64("aem_q", report.aem_q)
                    .with_u64("volume", report.flash_volume)
                    .with_u64("bound", report.volume_bound)
                    .with_bool("bound_holds", report.bound_holds())
                    .with_f64("cor44", cor44)
                    .with_bool("realized", realized)
            })
        })
        .collect();
    Sweep::new("T4", cells, move |outs| {
        let mut t = Table::new(
            "T4",
            &format!("Lemma 4.3 — flash simulation volume, M={mem}, B={b} (read block B/ω)"),
            &[
                "program",
                "N",
                "ω",
                "Q (AEM)",
                "volume",
                "bound 2N+2QB/ω",
                "vol/bound",
                "Cor 4.4 LB",
                "layout ok",
            ],
        );
        let mut ok = true;
        for o in outs {
            let realized = o.bool("realized");
            let cor44 = o.f64("cor44");
            ok &= o.bool("bound_holds") && realized;
            // Corollary 4.4 must also be a valid lower bound on the program.
            ok &= cor44 <= o.u64("aem_q") as f64;
            t.row(vec![
                if o.bool("two_pass") {
                    "two-pass scatter"
                } else {
                    "naive gather"
                }
                .to_string(),
                o.u64("n").to_string(),
                o.u64("omega").to_string(),
                o.u64("aem_q").to_string(),
                o.u64("volume").to_string(),
                o.u64("bound").to_string(),
                f(o.u64("volume") as f64 / o.u64("bound") as f64),
                f(cor44),
                realized.to_string(),
            ]);
        }
        t.note(format!(
            "both program families replay to the correct permutation within the volume bound, \
             and Corollary 4.4 never exceeds any measured program cost: {}",
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
    fn t4_passes() {
        assert_eq!(passing_tables(vec![t4(true)])[0].rows.len(), 12);
    }
}
