//! T9 / T9b / T9G — the buffered external priority queue and replacement
//! selection run generation under the `(M, B, ω)` cost model.
//!
//! * T9 sandwiches the PQ-backed sorter between its certified-bound
//!   predictor ([`predict::pq_sort_cost`]) and the Theorem 3.2 mergesort.
//! * T9b measures replacement selection across input shapes: the classical
//!   `≈ 2h` expected run length, the `h + 1` adversarial floor on
//!   descending input, and the single-pass, `ω`-independent read cost.
//! * T9G is the backend-differential grid: with **constant keys** every
//!   comparison inside the queue resolves by the deterministic
//!   `(run, position)` tie-break, so the I/O schedule is payload-oblivious
//!   and the cost-only ghost store must reproduce the `vec` table
//!   byte-for-byte (checked in CI next to `T5N`).

use aem_core::bounds::predict;
use aem_core::pq::replacement_select;
use aem_core::sort::sort_via_pq;
use aem_machine::{
    with_backend_machine, with_payload_machine, AemAccess, AemConfig, Backend, Cost,
};
use aem_workloads::KeyDist;

use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{ratio, Table};

use super::sorting::sort_cost;

/// Run replacement selection on a fresh machine; returns
/// `(runs produced, heap capacity h, exact cost)`.
fn run_replacement_select(
    backend: Backend,
    cfg: AemConfig,
    dist: KeyDist,
    n: usize,
) -> (usize, usize, Cost) {
    let input = dist.generate(n);
    with_payload_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let r = m.install(&input);
        let (runs, stats) = replacement_select(&mut m, r).expect("replacement_select");
        debug_assert_eq!(runs.len(), stats.runs);
        (stats.runs, stats.heap_capacity, m.cost())
    }, ghost => unreachable!("replacement selection steers on key comparisons"))
}

/// Run the PQ-backed sorter on constant keys. Sound on **every** backend:
/// with all keys equal, control flow inside the queue depends only on the
/// deterministic `(run, position)` tie-breaks, never on payload bytes, so
/// the ghost store traces the identical I/O schedule.
fn run_pq_constant(backend: Backend, cfg: AemConfig, n: usize) -> Cost {
    let input = vec![0u64; n];
    with_backend_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let r = m.install(&input);
        sort_via_pq(&mut m, r).expect("sort_via_pq");
        m.cost()
    })
}

/// All priority-queue sweeps `backend` supports. The payload-carrying
/// backends run everything; ghost runs only the constant-key grid T9G.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return vec![t9g_constant_keys(quick, backend)];
    }
    vec![
        t9_sandwich(quick, backend),
        t9b_run_generation(quick, backend),
        t9g_constant_keys(quick, backend),
    ]
}

/// T9: the Theorem 3.2 sandwich for the PQ-backed sorter. Measured cost
/// must stay under the certified-bound predictor (component-wise) and
/// within a constant factor of the §3 mergesort across four orders of
/// magnitude of `ω`, including `ω > B`.
pub fn t9_sandwich(quick: bool, backend: Backend) -> Sweep {
    let (mem, b) = (64usize, 8usize);
    let n = if quick { 1 << 11 } else { 1 << 14 };
    let omegas: Vec<u64> = vec![1, 8, 64, 256];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                let pq = sort_cost(backend, "pq", cfg, n, 9);
                let merge = sort_cost(backend, "aem", cfg, n, 9);
                let pred = predict::pq_sort_cost(cfg, n);
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("pq_reads", pq.reads)
                    .with_u64("pq_writes", pq.writes)
                    .with_u64("pred_reads", pred.reads)
                    .with_u64("pred_writes", pred.writes)
                    .with_u64("merge_q", merge.q(omega))
            })
        })
        .collect();
    Sweep::new("T9", cells, move |outs| {
        let mut t = Table::new(
            "T9",
            &format!("Thm 3.2 sandwich — PQ-backed sort vs AEM mergesort at N={n}, M={mem}, B={b}"),
            &[
                "ω",
                "reads PQ",
                "writes PQ",
                "Q PQ-sort",
                "Q predicted",
                "Q AEM-merge",
                "PQ/merge",
            ],
        );
        let mut ok = true;
        for o in outs {
            let omega = o.u64("omega");
            let pq = Cost::new(o.u64("pq_reads"), o.u64("pq_writes"));
            let pred = Cost::new(o.u64("pred_reads"), o.u64("pred_writes"));
            let (qp, qm) = (pq.q(omega), o.u64("merge_q"));
            ok &= pq.reads <= pred.reads && pq.writes <= pred.writes;
            ok &= (qp as f64) < 40.0 * qm as f64;
            t.row(vec![
                omega.to_string(),
                pq.reads.to_string(),
                pq.writes.to_string(),
                qp.to_string(),
                pred.q(omega).to_string(),
                qm.to_string(),
                ratio(qp as f64, qm as f64),
            ]);
        }
        t.note(format!(
            "measured ≤ certified-bound predictor (component-wise) and within the 40x \
             constant of the mergesort side of the Thm 3.2 sandwich at every ω: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// T9b: replacement selection across input shapes at fixed `(M, B, ω)`.
/// Sorted input collapses to one run, descending input is the adversarial
/// floor (`h + 1` per run), random input shows the classical `≈ 2h`
/// snow-plow expectation — and the pass reads exactly `⌈n/B⌉` blocks
/// regardless of shape, because run generation is a single scan.
pub fn t9b_run_generation(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 16).unwrap();
    let n = if quick { 1 << 11 } else { 1 << 14 };
    let dists: Vec<(&str, KeyDist)> = vec![
        ("sorted", KeyDist::Sorted),
        ("reversed", KeyDist::Reversed),
        ("uniform", KeyDist::Uniform { seed: 9 }),
        (
            "dup-heavy",
            KeyDist::FewDistinct {
                distinct: 4,
                seed: 9,
            },
        ),
    ];
    let cells = dists
        .iter()
        .map(|&(label, dist)| {
            Cell::new(format!("dist={label}"), move || {
                let (runs, h, cost) = run_replacement_select(backend, cfg, dist, n);
                CellOut::new()
                    .with_str("dist", label)
                    .with_u64("runs", runs as u64)
                    .with_u64("h", h as u64)
                    .with_u64("reads", cost.reads)
                    .with_u64("writes", cost.writes)
            })
        })
        .collect();
    Sweep::new("T9b", cells, move |outs| {
        let mut t = Table::new(
            "T9b",
            &format!("Replacement selection — run generation on {cfg}, N={n}"),
            &["input", "runs", "avg run len", "avg / h", "reads", "writes"],
        );
        let nb = cfg.blocks_for(n) as u64;
        let mut ok = true;
        for o in outs {
            let (runs, h) = (o.u64("runs"), o.u64("h"));
            let avg = n as f64 / runs as f64;
            match o.str("dist") {
                // Presorted input never evicts across a boundary.
                "sorted" => ok &= runs == 1,
                // Descending input defeats the heap: h + 1 per full run.
                "reversed" => ok &= runs == (n as u64).div_ceil(h + 1),
                // Snow-plow effect: average run length well beyond h.
                "uniform" => ok &= avg >= 1.5 * h as f64,
                // Ties join the current run (`x ≥ last`), so duplicates
                // stretch runs beyond the continuous-key ≈2h expectation.
                _ => ok &= avg >= 2.0 * h as f64,
            }
            // Single pass: exactly ⌈n/B⌉ input reads, shape-independent.
            ok &= o.u64("reads") == nb;
            t.row(vec![
                o.str("dist").to_string(),
                runs.to_string(),
                format!("{avg:.1}"),
                format!("{:.2}", avg / h as f64),
                o.u64("reads").to_string(),
                o.u64("writes").to_string(),
            ]);
        }
        t.note(format!(
            "1 run on presorted, ⌈n/(h+1)⌉ on descending, ≥ 1.5h average on random, \
             ≥ 2h on duplicate-heavy, and exactly ⌈n/B⌉ reads on every shape: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

/// T9G: the backend-differential PQ grid. Constant keys make the queue's
/// I/O schedule payload-oblivious, so this one table also runs on the
/// cost-only ghost store — CI byte-compares the ghost rendering against
/// `vec`, extending the `T5N` differential to the PQ subsystem.
pub fn t9g_constant_keys(quick: bool, backend: Backend) -> Sweep {
    let (mem, b) = (64usize, 8usize);
    let n = if quick { 1 << 10 } else { 1 << 13 };
    let omegas: Vec<u64> = vec![1, 16, 256];
    let cells = omegas
        .iter()
        .map(|&omega| {
            Cell::new(format!("omega={omega}"), move || {
                let cfg = AemConfig::new(mem, b, omega).unwrap();
                let c = run_pq_constant(backend, cfg, n);
                let pred = predict::pq_sort_cost(cfg, n);
                CellOut::new()
                    .with_u64("omega", omega)
                    .with_u64("reads", c.reads)
                    .with_u64("writes", c.writes)
                    .with_u64("pred_reads", pred.reads)
                    .with_u64("pred_writes", pred.writes)
            })
        })
        .collect();
    Sweep::new("T9G", cells, move |outs| {
        let mut t = Table::new(
            "T9G",
            &format!("PQ-backed sort, constant keys (payload-oblivious) at N={n}, M={mem}, B={b}"),
            &["ω", "reads", "writes", "Q", "Q predicted"],
        );
        let mut ok = true;
        for o in outs {
            let omega = o.u64("omega");
            let c = Cost::new(o.u64("reads"), o.u64("writes"));
            let pred = Cost::new(o.u64("pred_reads"), o.u64("pred_writes"));
            ok &= c.reads <= pred.reads && c.writes <= pred.writes;
            t.row(vec![
                omega.to_string(),
                c.reads.to_string(),
                c.writes.to_string(),
                c.q(omega).to_string(),
                pred.q(omega).to_string(),
            ]);
        }
        t.note(format!(
            "measured ≤ certified-bound predictor on the constant-key grid \
             (identical on every storage backend): {}",
            if ok { "PASS" } else { "FAIL" }
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::tests::{markdown, passing_tables};

    #[test]
    fn all_pq_tables_pass() {
        passing_tables(sweeps(true, Backend::Vec));
    }

    #[test]
    fn arena_renders_identically_to_vec() {
        assert_eq!(
            markdown(sweeps(true, Backend::Vec)),
            markdown(sweeps(true, Backend::Arena))
        );
    }

    #[test]
    fn ghost_runs_only_the_constant_key_grid() {
        let ids: Vec<String> = sweeps(true, Backend::Ghost)
            .iter()
            .map(|s| s.id.clone())
            .collect();
        assert_eq!(ids, vec!["T9G".to_string()]);
    }

    #[test]
    fn ghost_t9g_matches_vec_byte_for_byte() {
        // The constant-key grid is payload-oblivious, so the cost-only
        // ghost store must render the identical table.
        assert_eq!(
            markdown(vec![t9g_constant_keys(true, Backend::Vec)]),
            markdown(vec![t9g_constant_keys(true, Backend::Ghost)])
        );
    }
}
