//! Blocked reduction and prefix scan under asymmetric read/write costs
//! (T12).
//!
//! The scenario behind Blelloch et al.'s reduce/scan upper bounds: a
//! value file of `n` words answers a batch of `δ` inclusive prefix-sum
//! queries, and every intermediate level the algorithm *materializes*
//! costs `ω` per block written. Three strategies bracket the read/write
//! trade:
//!
//! * [`scan_materialize`] — the classic write-heavy scan: one sequential
//!   pass rewrites the whole file as prefix sums (`⌈n/B⌉` reads and
//!   `ω`-priced writes), after which a query is a single block read.
//! * [`build_sum_tree`] / [`query_tree`] — the blocked reduction tree:
//!   each level stores one *block-sum* per block below (the same level
//!   recurrence as the search B-tree, so the build writes only
//!   `Θ(n/B²)` upper-level blocks), and a query descends the tree
//!   summing local prefixes — `height` reads, no writes.
//! * [`scan_rescan`] — the fully write-avoiding strategy: nothing is
//!   materialized; every query recomputes its prefix by re-reading the
//!   file from block 0. Zero writes, `⌊p/B⌋ + 1` reads per query.
//!
//! All three schedules depend only on the query *positions* (RAM-side
//! instance data), never on the summed values, so every algorithm is
//! ghost-sound. [`materialize_cost`] and [`tree_cost`] are
//! exact-schedule predictors; [`rescan_cost`] is a certified upper
//! bound (`δ·⌈n/B⌉`), because the exact read count depends on where the
//! seeded query positions fall.

use aem_machine::{AemAccess, AemConfig, Cost, Region, Result};

use crate::spmv::InstallExt;

/// A built reduction tree: the value file plus block-sum levels.
#[derive(Debug, Clone)]
pub struct SumTree {
    /// The installed value file (the leaves).
    pub values: Region,
    /// Block-sum levels, bottom-up: entry `e` of level `i` is the sum of
    /// block `e` one level below. Empty when the file fits one block.
    pub levels: Vec<Region>,
}

/// The classic scan: rewrite the file as inclusive prefix sums in one
/// sequential pass (`⌈n/B⌉` reads, `⌈n/B⌉` ω-priced writes), then answer
/// each query with one block read. Exactly [`materialize_cost`].
pub fn scan_materialize<A>(m: &mut A, values: Region, queries: &[usize]) -> Result<Vec<u64>>
where
    A: AemAccess<u64> + ?Sized,
{
    let b = m.cfg().block;
    let out = m.alloc_region(values.elems);
    let mut buf = Vec::new();
    let mut carry = 0u64;
    m.phase_enter("scan");
    m.reserve(1)?; // the running carry lives in internal memory
    for i in 0..values.blocks {
        m.read_block_into(values.block(i), &mut buf)?;
        for v in buf.iter_mut() {
            carry = carry.wrapping_add(*v);
            *v = carry;
        }
        m.write_block(out.block(i), std::mem::take(&mut buf))?;
    }
    m.discard(1)?;
    m.phase_exit();
    let mut answers = Vec::with_capacity(queries.len());
    m.phase_enter("queries");
    for &p in queries {
        let len = m.read_block_with(out.block(p / b), &mut |blk| answers.push(blk[p % b]))?;
        m.discard(len)?;
    }
    m.phase_exit();
    Ok(answers)
}

/// Build the blocked reduction tree: read each level's blocks once,
/// write one block-sum per block into the level above, until a single
/// root block remains — the same level recurrence as
/// [`crate::search::build_btree`], so the build term of [`tree_cost`]
/// matches `btree_cost` exactly.
///
/// Fan-out is the block size, so `B = 1` cannot contract a level; such
/// configs are rejected, and the registry predictor returns `None` to
/// keep the strategy off the candidate menu.
pub fn build_sum_tree<A>(m: &mut A, values: Region) -> Result<SumTree>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    if m.cfg().block < 2 {
        return Err(aem_machine::MachineError::InvalidConfig(
            "sum tree requires block size B >= 2 (fan-out)",
        ));
    }
    let b = m.cfg().block;
    let mut levels = Vec::new();
    let mut cur = values;
    m.phase_enter("build");
    while cur.blocks > 1 {
        let next = m.alloc_region(cur.blocks);
        let mut batch = Vec::with_capacity(b);
        let mut out_block = 0;
        for i in 0..cur.blocks {
            let mut sum = 0u64;
            let len = m.read_block_with(cur.block(i), &mut |blk| sum = wrapping_sum(blk))?;
            m.discard(len)?;
            m.reserve(1)?;
            batch.push(sum);
            if batch.len() == b {
                m.write_block(next.block(out_block), std::mem::take(&mut batch))?;
                out_block += 1;
            }
        }
        if !batch.is_empty() {
            m.write_block(next.block(out_block), batch)?;
        }
        levels.push(next);
        cur = next;
    }
    m.phase_exit();
    Ok(SumTree { values, levels })
}

/// Answer the query batch from a built tree: for query `p`, read one
/// block per level (summing the entries that precede the descent path
/// within that block) plus the leaf block's partial prefix — exactly
/// `height` reads per query, no writes.
pub fn query_tree<A>(m: &mut A, tree: &SumTree, queries: &[usize]) -> Result<Vec<u64>>
where
    A: AemAccess<u64> + ?Sized,
{
    let b = m.cfg().block;
    let mut out = Vec::with_capacity(queries.len());
    m.phase_enter("queries");
    for &p in queries {
        let mut total = 0u64;
        // Leaf block: entries 0..=p%B of block p/B.
        let len = m.read_block_with(tree.values.block(p / b), &mut |blk| {
            total = total.wrapping_add(wrapping_sum(&blk[..=p % b]));
        })?;
        m.discard(len)?;
        // Level i entry index on the path is the block index one level
        // below; its block-local predecessors cover what the leaf block
        // left out, and the remainder recurses upward.
        let mut idx = p / b;
        for level in &tree.levels {
            let len = m.read_block_with(level.block(idx / b), &mut |blk| {
                total = total.wrapping_add(wrapping_sum(&blk[..idx % b]));
            })?;
            m.discard(len)?;
            idx /= b;
        }
        out.push(total);
    }
    m.phase_exit();
    Ok(out)
}

/// The fully write-avoiding scan: each query re-reads the file from
/// block 0 through its own block, accumulating in a register — zero
/// writes ever, `⌊p/B⌋ + 1` reads per query.
pub fn scan_rescan<A>(m: &mut A, values: Region, queries: &[usize]) -> Result<Vec<u64>>
where
    A: AemAccess<u64> + ?Sized,
{
    let b = m.cfg().block;
    let mut out = Vec::with_capacity(queries.len());
    m.phase_enter("rescan");
    for &p in queries {
        let mut total = 0u64;
        for i in 0..=p / b {
            let len = m.read_block_with(values.block(i), &mut |blk| {
                let upto = if i == p / b { p % b + 1 } else { blk.len() };
                total = total.wrapping_add(wrapping_sum(&blk[..upto]));
            })?;
            m.discard(len)?;
        }
        out.push(total);
    }
    m.phase_exit();
    Ok(out)
}

/// The wrapping sum of a slice of values.
fn wrapping_sum(values: &[u64]) -> u64 {
    values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
}

/// Exact schedule cost of [`scan_materialize`]: `⌈n/B⌉ + δ` reads and
/// `⌈n/B⌉` writes.
pub fn materialize_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    if n == 0 {
        return Cost::ZERO;
    }
    let k = cfg.blocks_for(n) as u64;
    Cost {
        reads: k + delta as u64,
        writes: k,
    }
}

/// Exact schedule cost of the reduction tree: the build reads every
/// block of every non-root level once and writes each upper level once
/// (the [`crate::search::btree_cost`] recurrence verbatim); a query
/// reads one block per level of the final tree.
///
/// Requires `B >= 2` (the tree's fan-out; see [`build_sum_tree`]).
pub fn tree_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    assert!(
        cfg.block >= 2,
        "sum tree requires block size B >= 2 (fan-out)"
    );
    if n == 0 {
        return Cost::ZERO;
    }
    let b = cfg.block as u64;
    let mut level = cfg.blocks_for(n) as u64;
    let (mut reads, mut writes, mut height) = (0, 0, 1u64);
    while level > 1 {
        reads += level;
        level = level.div_ceil(b);
        writes += level;
        height += 1;
    }
    Cost {
        reads: reads + delta as u64 * height,
        writes,
    }
}

/// Certified upper bound for [`scan_rescan`]: at most `⌈n/B⌉` reads per
/// query (a query at position `p` reads `⌊p/B⌋ + 1 ≤ ⌈n/B⌉` blocks) and
/// never a write.
pub fn rescan_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    if n == 0 {
        return Cost::ZERO;
    }
    Cost {
        reads: delta as u64 * cfg.blocks_for(n) as u64,
        writes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::prefix_reference;
    use aem_machine::Machine;
    use aem_workloads::scan_instance;

    fn cfg(mem: usize, block: usize, omega: u64) -> AemConfig {
        AemConfig::new(mem, block, omega).unwrap()
    }

    fn run_algo(
        algo: &str,
        c: AemConfig,
        values: &[u64],
        queries: &[usize],
    ) -> (Vec<u64>, Cost, usize) {
        let mut m = Machine::<u64>::new(c);
        let r = m.install(values);
        let got = match algo {
            "materialize" => scan_materialize(&mut m, r, queries).unwrap(),
            "rescan" => scan_rescan(&mut m, r, queries).unwrap(),
            _ => {
                let t = build_sum_tree(&mut m, r).unwrap();
                query_tree(&mut m, &t, queries).unwrap()
            }
        };
        (got, m.cost(), m.internal_used())
    }

    #[test]
    fn all_strategies_match_the_oracle() {
        for algo in ["materialize", "tree", "rescan"] {
            for &(mem, block, n, q, seed) in &[
                (1024usize, 64usize, 2048usize, 64usize, 7u64),
                (64, 8, 300, 40, 4), // all-equal corner
                (64, 8, 1, 8, 1),
                (16, 2, 33, 9, 2),
            ] {
                let inst = scan_instance(n, q, seed);
                let (got, _, used) =
                    run_algo(algo, cfg(mem, block, 16), &inst.values, &inst.queries);
                assert_eq!(
                    got,
                    prefix_reference(&inst.values, &inst.queries),
                    "{algo} on n={n} seed={seed}"
                );
                assert_eq!(used, 0, "{algo} leaked budget");
            }
        }
    }

    #[test]
    fn materialize_and_tree_costs_are_exact_and_rescan_is_bounded() {
        let c = cfg(64, 8, 16);
        let inst = scan_instance(300, 25, 3);
        for algo in ["materialize", "tree", "rescan"] {
            let (_, total, _) = run_algo(algo, c, &inst.values, &inst.queries);
            let predict = match algo {
                "materialize" => materialize_cost,
                "tree" => tree_cost,
                _ => rescan_cost,
            }(c, 300, 25);
            if algo == "rescan" {
                assert!(total.reads <= predict.reads, "{algo}");
                assert_eq!(total.writes, 0, "{algo}");
            } else {
                assert_eq!(
                    (total.reads, total.writes),
                    (predict.reads, predict.writes),
                    "{algo}"
                );
            }
        }
    }

    #[test]
    fn tree_build_term_matches_the_btree_recurrence() {
        // Same level recurrence as the search B-tree: the build halves of
        // the two predictors agree on every shape.
        for &(mem, block, n) in &[(64usize, 8usize, 300usize), (1024, 64, 4096), (16, 2, 100)] {
            let c = cfg(mem, block, 16);
            let t = tree_cost(c, n, 0);
            let s = crate::search::btree_cost(c, n, 0);
            assert_eq!((t.reads, t.writes), (s.reads, s.writes), "n={n}");
        }
    }

    #[test]
    fn schedule_is_value_independent() {
        // Same positions, different value files: identical (Q_r, Q_w) —
        // the basis of the family's ghost-soundness flags.
        let c = cfg(64, 8, 16);
        let queries: Vec<usize> = vec![0, 13, 299, 150];
        for algo in ["materialize", "tree", "rescan"] {
            let (_, a, _) = run_algo(algo, c, &vec![1u64; 300], &queries);
            let (_, b, _) = run_algo(algo, c, &(0..300u64).collect::<Vec<_>>(), &queries);
            assert_eq!(a, b, "{algo}");
        }
    }

    #[test]
    fn crossover_materialize_tree_rescan_in_omega() {
        // n=2048 at (M=64, B=8). Large batches (δ=1024): the write-heavy
        // materialized scan wins at ω=1, the write-avoiding tree by
        // ω=16 (the crossover sits near ω ≈ 14). Small batches (δ=8) at
        // high ω: rescan's zero writes beat even the tree.
        let q = |k: fn(AemConfig, usize, usize) -> Cost, omega: u64, delta: usize| {
            k(cfg(64, 8, omega), 2048, delta).q(omega)
        };
        assert!(q(materialize_cost, 1, 1024) < q(tree_cost, 1, 1024));
        assert!(q(tree_cost, 16, 1024) < q(materialize_cost, 16, 1024));
        assert!(q(tree_cost, 16, 8) < q(rescan_cost, 16, 8));
        assert!(q(rescan_cost, 256, 8) < q(tree_cost, 256, 8));
    }

    #[test]
    fn tiny_blocks_reject_the_tree() {
        let mut m = Machine::<u64>::new(cfg(4, 1, 16));
        let r = m.install(&[1u64, 2, 3]);
        assert!(build_sum_tree(&mut m, r).is_err());
    }
}
