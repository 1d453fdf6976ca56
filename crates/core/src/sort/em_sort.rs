//! The classical (symmetric) EM mergesort baseline, oblivious to `ω`.
//!
//! The Aggarwal–Vitter multi-way mergesort: base runs of `M` elements
//! formed by load-sort-store, then `(m−1)`-way streaming merges holding one
//! block per run plus an output block in memory. Per level it performs `n`
//! reads and `n` writes; with `log_{m}` levels its AEM cost is
//! `Θ((1 + ω) n log_m n)`.
//!
//! Against the paper's `ωm`-way mergesort this baseline loses a factor of
//! `log(ωm)/log(m)` on the write term — the separation that experiment F1
//! plots as a function of `ω`. It is *optimal* in the symmetric model
//! (`ω = 1`), which is exactly why the comparison isolates the effect of
//! asymmetry.

use aem_machine::{AemAccess, MachineError, Region, Result};

use crate::sort::heads::MergeHeads;

/// Sort `input` with the classical `ω`-oblivious EM mergesort. Returns the
/// sorted region.
///
/// Requires `M ≥ 3B` (two input heads plus an output buffer).
pub fn em_merge_sort<T, A>(machine: &mut A, input: Region) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let (mem, b) = (cfg.memory, cfg.block);
    if mem < 3 * b {
        return Err(MachineError::InvalidConfig(
            "em_merge_sort requires M >= 3B",
        ));
    }
    if input.elems == 0 {
        return Ok(machine.alloc_region(0));
    }

    // Base runs: load M elements, sort in memory (free), write out.
    machine.phase_enter("base-runs");
    let base_blocks = cfg.m();
    let parts = input.split_blockwise(input.blocks.div_ceil(base_blocks), b);
    let mut runs: Vec<Region> = Vec::with_capacity(parts.len());
    for p in &parts {
        let mut buf: Vec<T> = Vec::with_capacity(p.elems);
        for id in p.iter() {
            buf.extend(machine.read_block(id)?);
        }
        buf.sort();
        let out = machine.alloc_region(p.elems);
        let mut blk = 0usize;
        let mut iter = buf.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<T> = iter.by_ref().take(b).collect();
            machine.write_block(out.block(blk), chunk)?;
            blk += 1;
        }
        runs.push(out);
    }
    machine.phase_exit();

    // Merge levels with fan-in m − 1 (one block resident per run, one
    // output buffer).
    let fan_in = (cfg.m() - 1).max(2);
    let mut level = 1usize;
    while runs.len() > 1 {
        machine.phase_enter(&format!("merge-level-{level}"));
        let mut next = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                next.push(group[0]);
            } else {
                next.push(stream_merge(machine, group)?);
            }
        }
        machine.phase_exit();
        runs = next;
        level += 1;
    }
    Ok(runs.pop().expect("non-empty input"))
}

/// Streaming `k`-way merge with one resident block per run: the classical
/// EM merge. `n` reads and `n` writes for `n` input blocks.
fn stream_merge<T, A>(machine: &mut A, runs: &[Region]) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let b = machine.cfg().block;
    let total: usize = runs.iter().map(|r| r.elems).sum();
    let out = machine.alloc_region(total);

    let mut heads = MergeHeads::open(machine, runs, T::cmp)?;
    let mut out_buf: Vec<T> = Vec::with_capacity(b);
    let mut out_blk = 0usize;
    while let Some(x) = heads.pop(machine)? {
        out_buf.push(x);
        // The run's next block is read before a full output block leaves.
        heads.advance(machine)?;
        if out_buf.len() == b {
            machine.write_block(out.block(out_blk), std::mem::take(&mut out_buf))?;
            out_buf.reserve(b);
            out_blk += 1;
        }
    }
    if !out_buf.is_empty() {
        machine.write_block(out.block(out_blk), out_buf)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Cost, Machine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    fn sort_with(cfg: AemConfig, input: &[u64]) -> (Vec<u64>, Cost) {
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(input);
        let out = em_merge_sort(&mut m, r).unwrap();
        (m.inspect(out), m.cost())
    }

    #[test]
    fn sorts_correctly() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let input = KeyDist::Uniform { seed: 1 }.generate(2000);
        let (out, _) = sort_with(cfg, &input);
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
    }

    #[test]
    fn reads_equal_writes() {
        // The defining property of the symmetric algorithm: every level
        // reads and writes every block exactly once.
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let input = KeyDist::Uniform { seed: 2 }.generate(1024);
        let (_, cost) = sort_with(cfg, &input);
        assert_eq!(cost.reads, cost.writes);
    }

    #[test]
    fn cost_is_n_log_m_n_per_direction() {
        let cfg = AemConfig::new(16, 4, 1).unwrap();
        let n_elems = 4096;
        let input = KeyDist::Uniform { seed: 3 }.generate(n_elems);
        let (_, cost) = sort_with(cfg, &input);
        let n = cfg.blocks_for(n_elems) as f64;
        let levels = (n.ln() / (cfg.m() as f64 - 1.0).ln()).ceil() + 1.0;
        assert!((cost.writes as f64) <= n * (levels + 1.0));
    }

    #[test]
    fn oblivious_to_omega() {
        // Identical read/write counts regardless of ω — it never looks.
        let input = KeyDist::Uniform { seed: 4 }.generate(512);
        let (_, c1) = sort_with(AemConfig::new(16, 4, 1).unwrap(), &input);
        let (_, c2) = sort_with(AemConfig::new(16, 4, 64).unwrap(), &input);
        assert_eq!(c1, c2);
    }

    #[test]
    fn small_and_empty_inputs() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        assert!(sort_with(cfg, &[]).0.is_empty());
        let (out, _) = sort_with(cfg, &[3, 1, 2]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn duplicates_survive() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let input = KeyDist::FewDistinct {
            distinct: 2,
            seed: 5,
        }
        .generate(300);
        let (out, _) = sort_with(cfg, &input);
        assert!(is_sorted(&out));
        assert_eq!(out.len(), 300);
    }
}
