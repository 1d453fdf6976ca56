//! Static search structures under asymmetric read/write costs (T11).
//!
//! The scenario behind ROADMAP item 3: a read-heavy index is built once
//! (every index block written costs `ω`) and then serves a batch of `δ`
//! lookups (reads cost 1). Three layouts bracket the design space:
//!
//! * [`build_binary`] — no index at all: the sorted key file *is* the
//!   structure (build writes nothing), and each lookup bisects over the
//!   `⌈n/B⌉` blocks in exactly `⌈log₂ ⌈n/B⌉⌉ + 1` reads.
//! * [`build_btree`] — a blocked B-tree: separator levels of fan-out `B`
//!   are written above the key file (`ω`-priced once), and each lookup
//!   descends root→leaf in `height` reads. The classic build-vs-query
//!   trade: under large `ω` the tree only pays off once `δ` is large.
//! * [`build_eytzinger`] — the cache-oblivious BFS layout (SNIPPETS.md:
//!   LLTI benchmark, pachicobue simulator): the key file is *permuted*
//!   into implicit-heap order, costing one read per element and one
//!   `ω`-priced write per block, after which a lookup walks `2t`/`2t+1`
//!   touching a new block only when the path leaves the current one.
//!
//! Every build charges honest machine I/O (the input file arrives via the
//! free install hook, exactly like sort/permute/spmv inputs); lookups are
//! read-only. The predictors [`binary_cost`] and [`btree_cost`] are
//! exact-schedule (the lookup I/O *count* is data-independent, even
//! though which blocks are touched is not); [`eytzinger_cost`] is a
//! certified upper bound, because block-boundary reuse along the descent
//! path is key-dependent.

use aem_machine::{AemAccess, AemConfig, BlockId, Cost, Region, Result};

use crate::spmv::InstallExt;

/// The sentinel a lookup returns for an absent query.
pub const MISS: u64 = u64::MAX;

/// A built search structure: regions live on the machine that built it.
#[derive(Debug, Clone)]
pub enum SearchIndex {
    /// The sorted key file itself; lookups bisect over its blocks.
    Sorted {
        /// The installed key file.
        data: Region,
    },
    /// Key file plus separator levels, bottom-up (`levels.last()` is the
    /// single-block root). Level entry `e` holds the *last* (maximum) key
    /// of child block `e` one level below.
    Btree {
        /// The installed key file (the leaves).
        leaves: Region,
        /// Separator levels, bottom-up; empty when the file fits one block.
        levels: Vec<Region>,
    },
    /// The key file permuted into BFS (implicit heap) order.
    Eytzinger {
        /// The permuted key file.
        data: Region,
        /// Number of keys.
        n: usize,
    },
}

/// Build the trivial layout: installing the sorted file is the whole
/// build, so it costs nothing.
pub fn build_binary<A>(m: &mut A, keys: &[u64]) -> Result<SearchIndex>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    Ok(SearchIndex::Sorted {
        data: m.install_atoms(keys),
    })
}

/// Build the blocked B-tree: read each level's blocks once, write one
/// separator per block into the level above, until a single root block
/// remains. Exactly [`btree_cost`]'s build term.
///
/// Fan-out is the block size, so `B = 1` cannot form a tree (a level of
/// one separator per block never shrinks); such configs are rejected,
/// and the registry predictor returns `None` to keep the layout off the
/// candidate menu.
pub fn build_btree<A>(m: &mut A, keys: &[u64]) -> Result<SearchIndex>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    if m.cfg().block < 2 {
        return Err(aem_machine::MachineError::InvalidConfig(
            "btree layout requires block size B >= 2 (fan-out)",
        ));
    }
    let leaves = m.install_atoms(keys);
    let b = m.cfg().block;
    let mut levels = Vec::new();
    let mut cur = leaves;
    m.phase_enter("build");
    while cur.blocks > 1 {
        let next = m.alloc_region(cur.blocks);
        let mut batch = Vec::with_capacity(b);
        let mut out_block = 0;
        for i in 0..cur.blocks {
            let mut sep = None;
            let len = m.read_block_with(cur.block(i), &mut |blk| sep = blk.last().copied())?;
            let sep = sep.expect("region blocks are non-empty");
            m.discard(len)?;
            m.reserve(1)?;
            batch.push(sep);
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
    Ok(SearchIndex::Btree { leaves, levels })
}

/// Build the Eytzinger layout: for each BFS position (in output order),
/// read the input block holding its in-order key and append it to the
/// output batch — exactly `n` reads and `⌈n/B⌉` writes, the naive-permute
/// schedule.
pub fn build_eytzinger<A>(m: &mut A, keys: &[u64]) -> Result<SearchIndex>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    let src = m.install_atoms(keys);
    let n = keys.len();
    let b = m.cfg().block;
    let out = m.alloc_region(n);
    m.phase_enter("build");
    let mut batch = Vec::with_capacity(b);
    let mut out_block = 0;
    for t in 1..=n as u64 {
        let rank = bfs_to_inorder(t, n as u64) as usize;
        let mut key = 0;
        let len = m.read_block_with(src.block(rank / b), &mut |blk| key = blk[rank % b])?;
        m.discard(len)?;
        m.reserve(1)?;
        batch.push(key);
        if batch.len() == b {
            m.write_block(out.block(out_block), std::mem::take(&mut batch))?;
            out_block += 1;
        }
    }
    if !batch.is_empty() {
        m.write_block(out.block(out_block), batch)?;
    }
    m.phase_exit();
    Ok(SearchIndex::Eytzinger { data: out, n })
}

/// Run the query batch against a built index; returns, per query, the key
/// itself on a hit and [`MISS`] on a miss (compare with
/// [`crate::oracle::lookup_reference`]). Read-only: no lookup ever
/// charges a write I/O.
pub fn lookup_batch<A>(m: &mut A, index: &SearchIndex, queries: &[u64]) -> Result<Vec<u64>>
where
    A: AemAccess<u64> + ?Sized,
{
    let b = m.cfg().block;
    let mut out = Vec::with_capacity(queries.len());
    let mut buf = Vec::new();
    m.phase_enter("lookups");
    match index {
        SearchIndex::Sorted { data } => {
            for &q in queries {
                out.push(binary_lookup(m, *data, q)?);
            }
        }
        SearchIndex::Btree { leaves, levels } => {
            for &q in queries {
                out.push(btree_lookup(m, *leaves, levels, q, b)?);
            }
        }
        SearchIndex::Eytzinger { data, n } => {
            let mut resident = None;
            for &q in queries {
                out.push(eytzinger_lookup(
                    m,
                    *data,
                    *n,
                    q,
                    b,
                    &mut buf,
                    &mut resident,
                )?);
            }
            if resident.is_some() {
                m.discard(buf.len())?;
            }
        }
    }
    m.phase_exit();
    Ok(out)
}

/// Fixed-schedule block bisection: exactly `⌈log₂ blocks⌉ + 1` reads per
/// query, independent of the key values (padded with a re-read when the
/// span collapses early), so the ghost backend prices it exactly.
fn binary_lookup<A>(m: &mut A, data: Region, q: u64) -> Result<u64>
where
    A: AemAccess<u64> + ?Sized,
{
    if data.blocks == 0 {
        return Ok(MISS);
    }
    let (mut lo, mut hi) = (0usize, data.blocks);
    for _ in 0..ceil_log2(data.blocks) {
        let probe = if hi - lo > 1 { lo + (hi - lo) / 2 } else { lo };
        let mut first = 0;
        let len = m.read_block_with(data.block(probe), &mut |blk| first = blk[0])?;
        m.discard(len)?;
        if hi - lo > 1 {
            if q < first {
                hi = probe;
            } else {
                lo = probe;
            }
        }
    }
    probe_leaf(m, data.block(lo), q)
}

/// Root→leaf descent: exactly `levels + 1` reads per query. At each node
/// the child is the first separator `≥ q` (rightmost child when `q`
/// exceeds them all); entry `e` of a level indexes block `e` below.
fn btree_lookup<A>(m: &mut A, leaves: Region, levels: &[Region], q: u64, b: usize) -> Result<u64>
where
    A: AemAccess<u64> + ?Sized,
{
    if leaves.blocks == 0 {
        return Ok(MISS);
    }
    let mut child = 0usize;
    for level in levels.iter().rev() {
        let mut j = 0;
        let len = m.read_block_with(level.block(child), &mut |node| {
            debug_assert!(node.windows(2).all(|w| w[0] <= w[1]), "unsorted btree node");
            j = node.partition_point(|&s| s < q).min(node.len() - 1);
        })?;
        m.discard(len)?;
        child = child * b + j;
    }
    probe_leaf(m, leaves.block(child), q)
}

/// The last read of a lookup: `q` itself when the sorted block `id` holds
/// it, [`MISS`] otherwise.
fn probe_leaf<A>(m: &mut A, id: BlockId, q: u64) -> Result<u64>
where
    A: AemAccess<u64> + ?Sized,
{
    let mut hit = false;
    let len = m.read_block_with(id, &mut |leaf| {
        debug_assert!(leaf.windows(2).all(|w| w[0] <= w[1]), "unsorted key block");
        hit = leaf.binary_search(&q).is_ok();
    })?;
    m.discard(len)?;
    Ok(if hit { q } else { MISS })
}

/// BST descent over the BFS layout: `t → 2t` or `2t+1`, reading a block
/// only when the path leaves the resident one (the top `~log₂(B+1)`
/// levels share block 0). At most `⌊log₂ n⌋ + 1` reads per query.
fn eytzinger_lookup<A>(
    m: &mut A,
    data: Region,
    n: usize,
    q: u64,
    b: usize,
    buf: &mut Vec<u64>,
    resident: &mut Option<usize>,
) -> Result<u64>
where
    A: AemAccess<u64> + ?Sized,
{
    let mut t = 1u64;
    let mut res = MISS;
    while t as usize <= n {
        let blk = (t as usize - 1) / b;
        if *resident != Some(blk) {
            if resident.is_some() {
                m.exchange_block_into(data.block(blk), buf)?;
            } else {
                m.read_block_into(data.block(blk), buf)?;
            }
            *resident = Some(blk);
        }
        let key = buf[(t as usize - 1) % b];
        if q == key {
            res = key;
            break;
        }
        t = if q < key { 2 * t } else { 2 * t + 1 };
    }
    Ok(res)
}

/// In-order rank of BFS node `t` (1-based) in a complete-as-possible
/// binary tree over `n` keys: walk the path bits of `t` from the root,
/// accumulating the sizes of subtrees that precede it.
fn bfs_to_inorder(t: u64, n: u64) -> u64 {
    let mut start = 0;
    let mut node = 1u64;
    let depth = 63 - t.leading_zeros();
    for i in (0..depth).rev() {
        if (t >> i) & 1 == 0 {
            node *= 2;
        } else {
            start += subtree_size(2 * node, n) + 1;
            node = 2 * node + 1;
        }
    }
    start + subtree_size(2 * node, n)
}

/// Number of nodes in the subtree rooted at BFS index `x` of an `n`-node
/// implicit tree.
fn subtree_size(x: u64, n: u64) -> u64 {
    let mut first = x;
    let mut width = 1;
    let mut size = 0;
    while first <= n {
        size += width.min(n - first + 1);
        first *= 2;
        width *= 2;
    }
    size
}

fn ceil_log2(x: usize) -> u32 {
    usize::BITS - x.saturating_sub(1).leading_zeros()
}

/// Exact schedule cost of the sorted-array layout: a free build and
/// `δ · (⌈log₂ ⌈n/B⌉⌉ + 1)` lookup reads.
pub fn binary_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    if n == 0 {
        return Cost::ZERO;
    }
    let steps = u64::from(ceil_log2(cfg.blocks_for(n))) + 1;
    Cost {
        reads: delta as u64 * steps,
        writes: 0,
    }
}

/// Exact schedule cost of the blocked B-tree: the build reads every block
/// of every non-root level once and writes each upper level once; a
/// lookup reads one block per level of the final tree.
///
/// Requires `B >= 2` (the tree's fan-out; see [`build_btree`]) — with
/// fan-out 1 the level recurrence never contracts.
pub fn btree_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    assert!(
        cfg.block >= 2,
        "btree layout requires block size B >= 2 (fan-out)"
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

/// Certified upper bound for the Eytzinger layout: the build is exactly
/// `n` reads and `⌈n/B⌉` writes (the naive-permute schedule); each lookup
/// is at most `⌊log₂ n⌋ + 1` reads (block reuse along the descent only
/// reduces it, key-dependently — which is also why ghost pricing is
/// unsound for this layout).
pub fn eytzinger_cost(cfg: AemConfig, n: usize, delta: usize) -> Cost {
    if n == 0 {
        return Cost::ZERO;
    }
    let depth = u64::from(usize::BITS - n.leading_zeros());
    Cost {
        reads: n as u64 + delta as u64 * depth,
        writes: cfg.blocks_for(n) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::lookup_reference;
    use aem_machine::Machine;
    use aem_workloads::search_instance;

    fn cfg(mem: usize, block: usize, omega: u64) -> AemConfig {
        AemConfig::new(mem, block, omega).unwrap()
    }

    type Build = fn(&mut Machine<u64>, &[u64]) -> Result<SearchIndex>;
    const BUILDS: [(&str, Build); 3] = [
        ("binary", |m, k| build_binary(m, k)),
        ("btree", |m, k| build_btree(m, k)),
        ("eytzinger", |m, k| build_eytzinger(m, k)),
    ];

    #[test]
    fn all_layouts_match_the_oracle() {
        for &(name, build) in &BUILDS {
            for &(mem, block, n, q) in &[
                (1024, 64, 2048usize, 64usize),
                (64, 8, 300, 40),
                (64, 8, 1, 8),
            ] {
                let inst = search_instance(n, q, 7);
                let mut m = Machine::<u64>::new(cfg(mem, block, 16));
                let idx = build(&mut m, &inst.keys).unwrap();
                let got = lookup_batch(&mut m, &idx, &inst.queries).unwrap();
                assert_eq!(
                    got,
                    lookup_reference(&inst.keys, &inst.queries),
                    "{name} on n={n}"
                );
                assert_eq!(m.internal_used(), 0, "{name} leaked budget");
            }
        }
    }

    #[test]
    fn binary_and_btree_costs_are_exact_and_eytzinger_is_bounded() {
        let c = cfg(64, 8, 16);
        let inst = search_instance(300, 25, 3);
        for &(name, build) in &BUILDS {
            let mut m = Machine::<u64>::new(c);
            let idx = build(&mut m, &inst.keys).unwrap();
            let built = m.cost();
            lookup_batch(&mut m, &idx, &inst.queries).unwrap();
            let total = m.cost();
            let predict = match name {
                "binary" => binary_cost,
                "btree" => btree_cost,
                _ => eytzinger_cost,
            }(c, 300, 25);
            if name == "eytzinger" {
                assert_eq!(built.reads, 300, "build reads one element each");
                assert_eq!(built.writes, c.blocks_for(300) as u64);
                assert!(total.reads <= predict.reads && total.writes == predict.writes);
            } else {
                assert_eq!(
                    (total.reads, total.writes),
                    (predict.reads, predict.writes),
                    "{name}"
                );
            }
            assert_eq!(
                total.writes, built.writes,
                "{name}: lookups must be read-only"
            );
        }
    }

    #[test]
    fn binary_lookup_schedule_is_value_independent() {
        // Same δ, disjoint query batches: identical (Q_r, Q_w).
        let c = cfg(1024, 64, 16);
        let inst = search_instance(2048, 32, 11);
        let run = |qs: &[u64]| {
            let mut m = Machine::<u64>::new(c);
            let idx = build_binary(&mut m, &inst.keys).unwrap();
            lookup_batch(&mut m, &idx, qs).unwrap();
            m.cost()
        };
        let lows: Vec<u64> = inst.queries.iter().map(|q| q % 5).collect();
        assert_eq!(run(&inst.queries), run(&lows));
    }

    #[test]
    fn bfs_to_inorder_is_the_sorted_permutation() {
        for n in [1u64, 2, 3, 7, 10, 31, 300] {
            let mut ranks: Vec<u64> = (1..=n).map(|t| bfs_to_inorder(t, n)).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn btree_beats_binary_only_when_lookups_amortize_the_build() {
        let c = cfg(1024, 64, 16);
        let few = |k: fn(AemConfig, usize, usize) -> Cost| k(c, 2048, 3).q(16);
        let many = |k: fn(AemConfig, usize, usize) -> Cost| k(c, 2048, 1024).q(16);
        assert!(few(binary_cost) < few(btree_cost));
        assert!(many(btree_cost) < many(binary_cost));
    }
}
