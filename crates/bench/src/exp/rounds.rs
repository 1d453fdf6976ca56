//! T3 — Lemma 4.1: round-based execution costs only a constant factor.
//!
//! Every algorithm in the workspace is run twice — on the plain machine
//! and under the [`RoundBasedMachine`] wrapper (internal memory `2M`,
//! writes buffered per round, `M'` snapshot/restore charged at round
//! boundaries) — and the overhead `Q'/Q` is reported, along with the
//! round count. Each algorithm is one sweep cell, so the four
//! double-executions run in parallel under the engine.

use aem_core::permute::by_sort::DestTagged;
use aem_core::sort::{em_merge_sort, merge_sort};
use aem_machine::{
    AemAccess, AemConfig, Backend, BlockStore, MachineCore, Region, RoundBasedMachine, VecStore,
};
use aem_workloads::{KeyDist, PermKind};

use crate::sweep::{Cell, CellOut, Sweep};
use crate::table::{ratio, Table};

/// All round-based sweeps. T3 compares sorted outputs between the plain
/// and round-based executions, so the ghost backend runs none of them.
pub fn sweeps(quick: bool, backend: Backend) -> Vec<Sweep> {
    if !backend.carries_payload() {
        return Vec::new();
    }
    vec![t3(quick, backend)]
}

/// An algorithm runnable on any machine flavour (the polymorphism
/// Lemma 4.1 needs: the *same* program, two execution disciplines).
trait Algo {
    fn name(&self) -> &'static str;
    fn run<A: AemAccess<u64>>(&self, machine: &mut A, input: Region) -> Region;
}

struct AemSort;
impl Algo for AemSort {
    fn name(&self) -> &'static str {
        "§3 AEM mergesort"
    }
    fn run<A: AemAccess<u64>>(&self, m: &mut A, r: Region) -> Region {
        merge_sort(m, r).expect("sort")
    }
}

struct EmSort;
impl Algo for EmSort {
    fn name(&self) -> &'static str {
        "EM mergesort"
    }
    fn run<A: AemAccess<u64>>(&self, m: &mut A, r: Region) -> Region {
        em_merge_sort(m, r).expect("sort")
    }
}

struct ScanCopy;
impl Algo for ScanCopy {
    fn name(&self) -> &'static str {
        "block scan-copy"
    }
    fn run<A: AemAccess<u64>>(&self, m: &mut A, r: Region) -> Region {
        let out = m.alloc_region(r.elems);
        for i in 0..r.blocks {
            let d = m.read_block(r.block(i)).expect("read");
            m.write_block(out.block(i), d).expect("write");
        }
        out
    }
}

/// Run an algorithm on both machines over one concrete store pair; return
/// (Q, Q', rounds, equal).
fn both_on<G, S, A>(cfg: AemConfig, input: &[u64], algo: &G) -> (u64, u64, u64, bool)
where
    G: Algo,
    S: BlockStore<u64>,
    A: BlockStore<u64>,
{
    let mut plain: MachineCore<u64, S, A> = MachineCore::new(cfg);
    let r = plain.install(input);
    let out_p = algo.run(&mut plain, r);
    let got_p = plain.inspect(out_p);
    let q = plain.cost().q(cfg.omega);

    let mut rb: RoundBasedMachine<u64, S, A> = RoundBasedMachine::new(cfg);
    let r = rb.install(input);
    let out_r = algo.run(&mut rb, r);
    let stats = rb.finish().expect("finish");
    let got_r = rb.inspect(out_r);
    (q, stats.cost.q(cfg.omega), stats.rounds, got_p == got_r)
}

/// [`both_on`] dispatched over the payload-carrying backends. The macro
/// dispatch cannot name the two coupled machine types here, so this is a
/// plain turbofish match.
fn both<G: Algo>(
    backend: Backend,
    cfg: AemConfig,
    input: &[u64],
    algo: &G,
) -> (u64, u64, u64, bool) {
    match backend {
        // Arena is the vec store under its own name, and the trace backend
        // wraps vec-semantics storage, so the round sweeps run all three on
        // the vec store pair.
        Backend::Vec | Backend::Arena | Backend::Trace => {
            both_on::<G, VecStore<u64>, VecStore<u64>>(cfg, input, algo)
        }
        Backend::Ghost => unreachable!("round sweeps are not built for ghost"),
    }
}

/// Permuting by sorting runs on a (dest, value)-typed machine; it gets
/// its own cell body rather than the [`Algo`] trait.
fn both_permute_on<S, A>(cfg: AemConfig, input: &[u64], n: usize) -> (u64, u64, u64, bool)
where
    S: BlockStore<DestTagged<u64>>,
    A: BlockStore<u64>,
{
    let pi = PermKind::Random { seed: 31 }.generate(n);
    let tagged: Vec<DestTagged<u64>> = input
        .iter()
        .zip(pi.iter())
        .map(|(v, &d)| DestTagged {
            dest: d as u64,
            value: *v,
        })
        .collect();
    let mut plain: MachineCore<DestTagged<u64>, S, A> = MachineCore::new(cfg);
    let r = plain.install(&tagged);
    let out = merge_sort(&mut plain, r).expect("sort");
    let got_p: Vec<u64> = plain.inspect(out).into_iter().map(|t| t.value).collect();
    let q = plain.cost().q(cfg.omega);

    let mut rb: RoundBasedMachine<DestTagged<u64>, S, A> = RoundBasedMachine::new(cfg);
    let r = rb.install(&tagged);
    let out = merge_sort(&mut rb, r).expect("sort");
    let stats = rb.finish().expect("finish");
    let got_r: Vec<u64> = rb.inspect(out).into_iter().map(|t| t.value).collect();
    (q, stats.cost.q(cfg.omega), stats.rounds, got_p == got_r)
}

/// [`both_permute_on`] dispatched over the payload-carrying backends.
fn both_permute(
    backend: Backend,
    cfg: AemConfig,
    input: &[u64],
    n: usize,
) -> (u64, u64, u64, bool) {
    match backend {
        Backend::Vec | Backend::Arena | Backend::Trace => {
            both_permute_on::<VecStore<DestTagged<u64>>, VecStore<u64>>(cfg, input, n)
        }
        Backend::Ghost => unreachable!("round sweeps are not built for ghost"),
    }
}

/// T3: the Lemma 4.1 constant, measured.
pub fn t3(quick: bool, backend: Backend) -> Sweep {
    let cfg = AemConfig::new(64, 8, 8).unwrap();
    let n = if quick { 1 << 11 } else { 1 << 14 };
    let pack = |name: &str, (q, q2, rounds, equal): (u64, u64, u64, bool)| {
        CellOut::new()
            .with_str("name", name)
            .with_u64("q", q)
            .with_u64("q2", q2)
            .with_u64("rounds", rounds)
            .with_bool("equal", equal)
    };
    let cells = vec![
        Cell::new("aem-sort", move || {
            let input = KeyDist::Uniform { seed: 30 }.generate(n);
            pack(AemSort.name(), both(backend, cfg, &input, &AemSort))
        }),
        Cell::new("em-sort", move || {
            let input = KeyDist::Uniform { seed: 30 }.generate(n);
            pack(EmSort.name(), both(backend, cfg, &input, &EmSort))
        }),
        Cell::new("scan-copy", move || {
            let input = KeyDist::Uniform { seed: 30 }.generate(n);
            pack(ScanCopy.name(), both(backend, cfg, &input, &ScanCopy))
        }),
        Cell::new("permute-by-sorting", move || {
            let input = KeyDist::Uniform { seed: 30 }.generate(n);
            pack("permute by sorting", both_permute(backend, cfg, &input, n))
        }),
    ];
    Sweep::new("T3", cells, move |outs| {
        let mut t = Table::new(
            "T3",
            &format!("Lemma 4.1 — round-based overhead on {cfg}, N={n}"),
            &[
                "algorithm",
                "Q (plain)",
                "Q' (round-based, 2M)",
                "Q'/Q",
                "rounds",
                "output equal",
            ],
        );
        let mut ok = true;
        for o in outs {
            let (q, q2) = (o.u64("q"), o.u64("q2"));
            let equal = o.bool("equal");
            t.row(vec![
                o.str("name").to_string(),
                q.to_string(),
                q2.to_string(),
                ratio(q2 as f64, q as f64),
                o.u64("rounds").to_string(),
                equal.to_string(),
            ]);
            ok &= equal && q2 <= 4 * q;
        }
        t.note(format!(
            "all overheads within the Lemma 4.1 constant (≤ 4x) and outputs identical: {}",
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
    fn t3_passes() {
        assert_eq!(
            passing_tables(vec![t3(true, Backend::Vec)])[0].rows.len(),
            4
        );
    }

    #[test]
    fn t3_arena_matches_vec() {
        assert_eq!(
            markdown(vec![t3(true, Backend::Vec)]),
            markdown(vec![t3(true, Backend::Arena)])
        );
    }
}
