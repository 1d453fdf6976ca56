//! T13 — tiled dense matrix multiply through the workload registry:
//! write-avoiding vs streaming tiling under ω.
//!
//! Both tilings read `2·H³·bt` blocks of operand tiles (`H = ⌈d/t⌉`
//! tiles per side, `bt` blocks per tile). They differ only in how the
//! output matrix is produced: the write-avoiding tiling (Blelloch et
//! al.-style) keeps one C tile resident across the whole k-loop and
//! writes each output block exactly once (`H²·bt` writes), paying for
//! it with a smaller tile (three tiles must fit in M); the streaming
//! tiling holds only two tiles, so its C blocks cycle through memory
//! once per k-step (`H³·bt` writes) but its larger tile needs fewer
//! k-steps. Sweeping ω exposes the crossover: cheap writes favor the
//! streaming tiling's larger tiles, dear writes favor the resident
//! output. Both schedules are position-routed, so the cost-only ghost
//! backend runs the grid too.

use aem_core::workload::WorkloadKind;
use aem_machine::{AemConfig, Backend};

use super::{measured, registry_ctx};
use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::Table;

/// All matmul sweeps. Both registered tilings are ghost-sound, so the
/// grid runs on every backend.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    vec![t13(quick, backend)]
}

/// T13: d×d multiply across the ω sweep, both tilings from the registry
/// menu, metered vs the exact-schedule predictors.
pub fn t13(quick: bool, backend: Backend) -> Sweep {
    let n = 1764; // d = 42
    let omegas: Vec<u64> = if quick {
        vec![1, 64]
    } else {
        vec![1, 4, 8, 16, 64]
    };
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(1024, 64, omega).unwrap();
                let w = WorkloadKind::Matmul.descriptor();
                let mut out = CellOut::new().with_u64("omega", omega);
                let mut sound = true;
                for a in w.algos {
                    let ctx = registry_ctx(WorkloadKind::Matmul, a.name, "seeded", cfg, n, 0, 7);
                    let m = measured(backend, ctx);
                    let p = (a.predict)(cfg, n, 0).expect("both tilings fit at M=1024");
                    // Both predictors are exact schedules.
                    sound &= m == p;
                    out = out
                        .with_u64(&format!("r_{}", a.name), m.reads)
                        .with_u64(&format!("w_{}", a.name), m.writes)
                        .with_u64(&format!("q_{}", a.name), m.q(cfg.omega));
                }
                let (best, _) = w.cheapest(cfg, n, 0).expect("non-empty menu");
                out.with_bool("sound", sound).with_str("cheapest", best)
            })
        })
        .collect();
    let (w_lo, w_hi) = (omegas[0], *omegas.last().unwrap());
    Sweep::new("T13", cells, move |outs| {
        let mut t = Table::new(
            "T13",
            &format!("matmul — 42x42 multiply (N={n}), write-avoiding vs streaming tiling, M=1024, B=64, ω swept"),
            &[
                "ω",
                "tiled r/w",
                "Q tiled",
                "stream r/w",
                "Q stream",
                "registry cheapest",
                "predictor sound",
            ],
        );
        let mut all_sound = true;
        for o in outs {
            all_sound &= o.bool("sound");
            t.row(vec![
                o.u64("omega").to_string(),
                format!("{}/{}", o.u64("r_tiled"), o.u64("w_tiled")),
                o.u64("q_tiled").to_string(),
                format!("{}/{}", o.u64("r_stream"), o.u64("w_stream")),
                o.u64("q_stream").to_string(),
                o.str("cheapest").to_string(),
                o.bool("sound").to_string(),
            ]);
        }
        let crossed = outs.first().unwrap().str("cheapest") == "stream"
            && outs.last().unwrap().str("cheapest") == "tiled";
        t.note(format!(
            "metered costs match the exact-schedule predictors on every row: {}",
            if all_sound { "PASS" } else { "FAIL" }
        ));
        t.note(format!(
            "the streaming tiling's larger tiles win at ω = {w_lo}, the write-avoiding \
             resident-output tiling wins at ω = {w_hi}: {}",
            if crossed { "PASS" } else { "FAIL" }
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::{markdown, passing_tables};

    #[test]
    fn matmul_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }

    #[test]
    fn ghost_renders_the_same_matmul_table() {
        assert_eq!(
            markdown(sweeps(true, Backend::Vec)),
            markdown(sweeps(true, Backend::Ghost))
        );
    }
}
