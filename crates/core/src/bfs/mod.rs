//! Level-synchronous BFS under asymmetric read/write costs (T14).
//!
//! Graph traversal is the regime where write-avoidance gets expensive:
//! the classic external-memory BFS *marks* — it materializes a distance
//! file and a frontier queue, paying `ω` for every discovery it records.
//! The write-avoiding alternative keeps all mutable state in internal
//! registers and *re-derives* each frontier by re-reading the adjacency
//! structure, trading `Θ(depth)` full passes of reads for near-zero
//! writes. Two traversals bracket the trade, over the same CSR block
//! layout (an offsets file of `n + 1` words and an adjacency file of
//! `m = n·δ` target ids):
//!
//! * [`bfs_mark`] — the write-marking baseline: a distance region is
//!   initialized to [`MISS`], a blocked frontier queue is appended level
//!   by level, and every discovery read-modify-writes its distance
//!   block. Certified bound ([`mark_cost`]): at most `3n + 2m` reads
//!   and `⌈n/B⌉ + 2n + 1` writes. Needs `M ≥ 4B` (frontier block +
//!   output batch + one data block resident).
//! * [`bfs_rescan`] — the write-avoiding traversal: distances accumulate
//!   in internal memory and each round re-scans the offsets and (for
//!   frontier vertices) adjacency files sequentially with two resident
//!   blocks, so a depth-`d` graph costs `(d + 1)` scan rounds of reads;
//!   the distance file is emitted once at the end — exactly `⌈n/B⌉`
//!   writes, ever. Certified bound ([`rescan_cost`]):
//!   `n·(⌈(n+1)/B⌉ + ⌈m/B⌉)` reads.
//!
//! Unlike scan and matmul, **neither schedule is a pure function of the
//! shape**: which distance blocks are touched, how many queue blocks
//! each level flushes, and above all *how many rounds the re-scan runs*
//! all derive from adjacency payloads living in external memory. Both
//! traversals are therefore ghost-unsound — and not even ghost-runnable
//! (a placeholder-payload machine would traverse garbage edges), the
//! same verdict as the Eytzinger lookup but for a stronger reason: the
//! control flow itself is data-routed.
//!
//! ## Host work
//!
//! The model charges [`bfs_mark`] one read per adjacency probe and one
//! read, plus one write on a discovery, per distance probe; it charges no
//! host copying. The kernel copies nothing it does not need. Each
//! adjacency target comes from [`AemAccess::probe_elem`]: one read of the
//! block, one element cloned out, the charge released. Each distance probe
//! is one [`AemAccess::update_block_with`]: the closure tests the target's
//! slot and, on a discovery, writes the level into the stored block and
//! returns `true`, which meters the write-back. The block is never copied
//! out and back. Reads, writes, ledger steps and events are those of the
//! copying form (`tests/tests/schedule_identity.rs` pins them).

use aem_machine::{AemAccess, AemConfig, BlockId, Cost, Region, Result};

use crate::search::MISS;
use crate::spmv::InstallExt;

/// Read `offs[v]` and `offs[v + 1]` from the installed offsets region
/// (one borrowed block read, or a second one-element probe when the pair
/// straddles a block boundary, each discarded at once).
fn read_offsets<A>(m: &mut A, offs: Region, v: usize, b: usize) -> Result<(usize, usize)>
where
    A: AemAccess<u64> + ?Sized,
{
    let (mut o0, mut o1) = (0, 0);
    let same_block = (v + 1) / b == v / b;
    let len = m.read_block_with(offs.block(v / b), &mut |blk| {
        o0 = blk[v % b] as usize;
        if same_block {
            o1 = blk[(v + 1) % b] as usize;
        }
    })?;
    m.discard(len)?;
    if !same_block {
        o1 = m.probe_elem(offs.block((v + 1) / b), 0)? as usize;
    }
    Ok((o0, o1))
}

/// The write-marking baseline: materialize the distance file (init to
/// [`MISS`], vertex 0 at level 0), keep the frontier in a blocked queue,
/// and read-modify-write a distance block on every discovery. Returns
/// the distance region (`dist[v]` = hop count from vertex 0, [`MISS`]
/// when unreachable). Bounded by [`mark_cost`].
pub fn bfs_mark<A>(m: &mut A, n: usize, offs: &[u64], adj: &[u64]) -> Result<Region>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    let cfg = m.cfg();
    if cfg.memory < 4 * cfg.block {
        return Err(aem_machine::MachineError::InvalidConfig(
            "marking BFS needs frontier, batch and a data block resident (M >= 4B)",
        ));
    }
    let b = cfg.block;
    let offs_r = m.install_atoms(offs);
    let adj_r = m.install_atoms(adj);
    let dist = m.alloc_region(n);
    if n == 0 {
        return Ok(dist);
    }
    m.phase_enter("init");
    for i in 0..dist.blocks {
        let len = b.min(n - i * b);
        m.reserve(len)?;
        let mut block = vec![MISS; len];
        if i == 0 {
            block[0] = 0;
        }
        m.write_block(dist.block(i), block)?;
    }
    m.phase_exit();
    // Queue blocks are allocated as they are flushed, the seed block
    // first; `queue[i]` is the queue's `i`-th block.
    let mut queue = Vec::new();
    m.phase_enter("traverse");
    m.reserve(1)?;
    let seed = next_queue_block(m, &mut queue);
    m.write_block(seed, vec![0u64])?;
    let (mut cur_start, mut cur_len) = (0usize, 1usize);
    let mut level = 0u64;
    // `frontier` holds the resident queue block.
    let mut frontier = Vec::new();
    loop {
        level += 1;
        let next_start = queue.len();
        let mut next_len = 0usize;
        let mut batch: Vec<u64> = Vec::with_capacity(b);
        for qb in 0..cur_len.div_ceil(b) {
            let flen = m.read_block_into(queue[cur_start + qb], &mut frontier)?;
            for &v in &frontier {
                let (o0, o1) = read_offsets(m, offs_r, v as usize, b)?;
                for e in o0..o1 {
                    let w = m.probe_elem(adj_r.block(e / b), e % b)? as usize;
                    // Probe the distance block; on a discovery, record the
                    // level in place, which writes the block back.
                    let found = m.update_block_with(dist.block(w / b), &mut |blk| {
                        let slot = &mut blk[w % b];
                        let found = *slot == MISS;
                        if found {
                            *slot = level;
                        }
                        found
                    })?;
                    if found {
                        m.reserve(1)?;
                        batch.push(w as u64);
                        next_len += 1;
                        if batch.len() == b {
                            let id = next_queue_block(m, &mut queue);
                            m.write_run(id, &batch)?;
                            batch.clear();
                        }
                    }
                }
            }
            m.discard(flen)?;
        }
        if !batch.is_empty() {
            let id = next_queue_block(m, &mut queue);
            m.write_block(id, batch)?;
        }
        if next_len == 0 {
            break;
        }
        cur_start = next_start;
        cur_len = next_len;
    }
    m.phase_exit();
    Ok(dist)
}

/// Allocate the queue's next block and append it to `queue`. Nothing
/// else allocates during the traversal, so the ids are consecutive, the
/// ones a single region of queue blocks would have.
fn next_queue_block<A>(m: &mut A, queue: &mut Vec<BlockId>) -> BlockId
where
    A: AemAccess<u64> + ?Sized,
{
    let id = m.alloc_block();
    debug_assert!(queue.first().map_or(true, |q| id.0 == q.0 + queue.len()));
    queue.push(id);
    id
}

/// Advance a sequential cursor to `blk` of `region` (no-op when already
/// resident, exchange — one read, no extra occupancy — otherwise).
fn seq_load<A>(
    m: &mut A,
    region: Region,
    blk: usize,
    buf: &mut Vec<u64>,
    resident: &mut Option<usize>,
) -> Result<()>
where
    A: AemAccess<u64> + ?Sized,
{
    if *resident == Some(blk) {
        return Ok(());
    }
    if resident.is_some() {
        m.exchange_block_into(region.block(blk), buf)?;
    } else {
        m.read_block_into(region.block(blk), buf)?;
    }
    *resident = Some(blk);
    Ok(())
}

/// The write-avoiding traversal: distances accumulate in internal
/// memory; each round sequentially re-scans the offsets file (and the
/// adjacency blocks of current-frontier vertices) with two resident
/// blocks, marking round-`r` discoveries, until a round discovers
/// nothing. The distance file is then emitted once — `⌈n/B⌉` writes
/// total. Bounded by [`rescan_cost`].
pub fn bfs_rescan<A>(m: &mut A, n: usize, offs: &[u64], adj: &[u64]) -> Result<Region>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    let b = m.cfg().block;
    let offs_r = m.install_atoms(offs);
    let adj_r = m.install_atoms(adj);
    let dist_out = m.alloc_region(n);
    if n == 0 {
        return Ok(dist_out);
    }
    let mut dist = vec![MISS; n];
    dist[0] = 0;
    m.phase_enter("rescan");
    let (mut obuf, mut abuf) = (Vec::new(), Vec::new());
    let (mut ores, mut ares) = (None, None);
    let mut round = 0u64;
    loop {
        round += 1;
        let mut changed = false;
        for v in 0..n {
            seq_load(m, offs_r, v / b, &mut obuf, &mut ores)?;
            let o0 = obuf[v % b] as usize;
            seq_load(m, offs_r, (v + 1) / b, &mut obuf, &mut ores)?;
            let o1 = obuf[(v + 1) % b] as usize;
            if dist[v] != round - 1 {
                continue;
            }
            for e in o0..o1 {
                seq_load(m, adj_r, e / b, &mut abuf, &mut ares)?;
                let w = abuf[e % b] as usize;
                if dist[w] == MISS {
                    dist[w] = round;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if ores.is_some() {
        m.discard(obuf.len())?;
    }
    if ares.is_some() {
        m.discard(abuf.len())?;
    }
    m.phase_exit();
    m.phase_enter("emit");
    for i in 0..dist_out.blocks {
        let len = b.min(n - i * b);
        m.reserve(len)?;
        m.write_block(dist_out.block(i), dist[i * b..i * b + len].to_vec())?;
    }
    m.phase_exit();
    Ok(dist_out)
}

/// Certified upper bound for [`bfs_mark`]: every enqueued vertex is read
/// back once (`≤ n`), costs at most two offset reads (`≤ 2n`), and each
/// of its edges one adjacency plus one distance read (`≤ 2m`); writes
/// are the `⌈n/B⌉`-block init, the seed, one distance write-back per
/// discovery and at most one queue flush per discovery-or-level
/// (`≤ 2n`). `None` when `M < 4B` (keeps the algorithm off the menu —
/// the traversal needs frontier, batch and a data block resident).
pub fn mark_cost(cfg: AemConfig, n: usize, delta: usize) -> Option<Cost> {
    if cfg.memory < 4 * cfg.block {
        return None;
    }
    if n == 0 {
        return Some(Cost::ZERO);
    }
    let m = (n * delta) as u64;
    let n64 = n as u64;
    Some(Cost {
        reads: 3 * n64 + 2 * m,
        writes: cfg.blocks_for(n) as u64 + 2 * n64 + 1,
    })
}

/// Certified upper bound for [`bfs_rescan`]: at most `n` rounds (depth
/// plus the terminating empty round), each re-reading at most every
/// offsets and adjacency block once — `n·(⌈(n+1)/B⌉ + ⌈n·δ/B⌉)` reads —
/// and exactly `⌈n/B⌉` writes for the final distance emit. The *actual*
/// round count is the BFS depth, an adjacency-payload property: the
/// reason this family is ghost-unsound.
pub fn rescan_cost(cfg: AemConfig, n: usize, delta: usize) -> Option<Cost> {
    if n == 0 {
        return Some(Cost::ZERO);
    }
    let per_round = (cfg.blocks_for(n + 1) + cfg.blocks_for(n * delta)) as u64;
    Some(Cost {
        reads: n as u64 * per_round,
        writes: cfg.blocks_for(n) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::bfs_reference;
    use aem_machine::Machine;
    use aem_workloads::graph_instance;

    fn cfg(mem: usize, block: usize, omega: u64) -> AemConfig {
        AemConfig::new(mem, block, omega).unwrap()
    }

    fn run(algo: &str, c: AemConfig, n: usize, delta: usize, seed: u64) -> (Vec<u64>, Cost, usize) {
        let g = graph_instance(n, delta, seed);
        let mut m = Machine::<u64>::new(c);
        let dist = match algo {
            "mark" => bfs_mark(&mut m, n, &g.offs, &g.adj).unwrap(),
            _ => bfs_rescan(&mut m, n, &g.offs, &g.adj).unwrap(),
        };
        (m.inspect(dist), m.cost(), m.internal_used())
    }

    #[test]
    fn both_traversals_match_the_oracle() {
        for algo in ["mark", "rescan"] {
            // Seeds 0/1/2 hit the path, random and star shapes.
            for seed in [0u64, 1, 2, 4] {
                for &(mem, block, n, delta) in &[
                    (1024usize, 64usize, 300usize, 3usize),
                    (64, 8, 100, 2),
                    (64, 8, 1, 3),
                ] {
                    let g = graph_instance(n, delta, seed);
                    let want = bfs_reference(n, &g.offs, &g.adj);
                    let (got, _, used) = run(algo, cfg(mem, block, 16), n, delta, seed);
                    assert_eq!(got, want, "{algo} n={n} seed={seed}");
                    assert_eq!(used, 0, "{algo} leaked budget");
                }
            }
        }
    }

    #[test]
    fn measured_costs_respect_the_certified_bounds() {
        let c = cfg(64, 8, 16);
        for seed in [0u64, 1, 2] {
            let (_, mark, _) = run("mark", c, 256, 3, seed);
            let bound = mark_cost(c, 256, 3).unwrap();
            assert!(mark.reads <= bound.reads, "seed {seed}");
            assert!(mark.writes <= bound.writes, "seed {seed}");

            let (_, rescan, _) = run("rescan", c, 256, 3, seed);
            let bound = rescan_cost(c, 256, 3).unwrap();
            assert!(rescan.reads <= bound.reads, "seed {seed}");
            // The write side is exact: only the final distance emit.
            assert_eq!(rescan.writes, c.blocks_for(256) as u64, "seed {seed}");
        }
    }

    #[test]
    fn tiny_memory_rejects_mark_but_not_rescan() {
        let c = cfg(16, 8, 4); // M = 2B < 4B
        assert!(mark_cost(c, 100, 2).is_none());
        let g = graph_instance(100, 2, 1);
        let mut m = Machine::<u64>::new(c);
        assert!(bfs_mark(&mut m, 100, &g.offs, &g.adj).is_err());
        let mut m = Machine::<u64>::new(c);
        assert!(bfs_rescan(&mut m, 100, &g.offs, &g.adj).is_ok());
    }

    #[test]
    fn crossover_mark_vs_rescan_in_omega_on_a_path() {
        // Depth-255 path (seed 0), n=256, δ=3 at (M=64, B=8): marking
        // pays ~500 writes once; re-scanning pays a full offsets pass
        // per level but emits only 32 blocks. Measured Q crosses
        // between ω=4 and ω=64.
        let c = cfg(64, 8, 16);
        let (_, mark, _) = run("mark", c, 256, 3, 0);
        let (_, rescan, _) = run("rescan", c, 256, 3, 0);
        for omega in [1u64, 4] {
            assert!(mark.q(omega) < rescan.q(omega), "w={omega}");
        }
        for omega in [64u64, 256] {
            assert!(rescan.q(omega) < mark.q(omega), "w={omega}");
        }
    }
}
