//! The §3.1 round-based `ωm`-way merge.
//!
//! **Theorem 3.2.** Merging `ωm` sorted arrays containing in total `N`
//! elements takes `O(ω(n + m))` read and `O(n + m)` write I/Os.
//!
//! The difficulty, and the paper's contribution, is the regime `ω > B`:
//! with `k = ωm` runs, even one pointer per run (`k` words) exceeds the
//! internal memory (`k = ωM/B > M`). The algorithm therefore:
//!
//! * keeps the per-run block pointers `b[i]` in an **external** pointer
//!   array, streamed once per round (`⌈k/B⌉` blocks, so pointer *reads* are
//!   cheap) and **rewritten only for pointers that changed** — a pointer
//!   advances only when a block of its run is consumed, so pointer *writes*
//!   total `O(n)` over the whole merge;
//! * proceeds in **rounds**, each producing the next `M̂` smallest elements
//!   (`M̂` = half the internal memory, rounded to blocks — the paper's "let
//!   `M` be a constant fraction of the available internal memory");
//! * within a round: a **seeding scan** reads up to two blocks per run,
//!   keeping the `M̂` smallest candidates; an **activation scan** re-reads
//!   one block per run to determine the *active* runs (those whose next
//!   unloaded block may still contribute; by Lemma 3.1 there are at most
//!   `M̂/B ≤ m` of them, so their state fits in memory — this second scan
//!   is exactly how the paper avoids keeping per-run state for all `ωm`
//!   runs); a **merge loop** then repeatedly loads the next block from the
//!   active run with the smallest maximal loaded element, until no active
//!   run can contribute.
//!
//! The round buffer is a `Selector` fed through its sorted path: each
//! block read skips its prefix at or below the boundary by binary search
//! and stops at the first element that cannot enter a full buffer, and
//! the block maximum (`s_i`) is its last element. Activation and the
//! merge loop's `retain` read only `Selector::full_max`, the maximum of
//! the exact `M̂`-smallest set, so the I/O schedule is that of a plain
//! capped heap (`docs/COST_MODEL.md` §7).
//!
//! Ties are broken by `(key, run, position)`, making the merge stable and
//! every comparison strict. The tags are the constant per-element auxiliary
//! words §3.1 allows.

use aem_machine::{AemAccess, MachineError, Region, Result};

use crate::sort::Selector;

/// Statistics reported by [`merge_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Number of rounds executed (`⌈N/M̂⌉`).
    pub rounds: u64,
    /// Elements merged.
    pub elems: usize,
    /// Largest active-run set observed in any round — Lemma 3.1 bounds it
    /// by `M̂/B ≤ m`, and this field lets experiments verify the lemma
    /// empirically instead of only via debug assertions.
    pub max_active: usize,
    /// The Lemma 3.1 bound `M̂/B` for the configuration the merge ran on.
    pub active_bound: usize,
}

/// Tagged element: `(key, run index, position within run)` — a strict total
/// order consistent with the key order.
type Tagged<T> = (T, u32, u64);

/// State of one *active* run during the merge loop of a round.
#[derive(Debug, Clone)]
struct Active<T> {
    run: usize,
    /// Next block of the run to load.
    next_blk: usize,
    /// Largest element loaded from this run so far (`s_i` in the paper).
    s_max: Tagged<T>,
}

/// Merge `runs` (each sorted ascending) into a freshly allocated region.
///
/// Requirements: `runs.len() ≤ ωm` (the fan-in of §3) and `M ≥ 4B` (the
/// round buffer takes `M/2`, and a data block plus a pointer block must fit
/// alongside it).
///
/// Cost (Theorem 3.2): `O(ω(n + m))` reads and `O(n + m)` writes, with
/// small explicit constants — experiment T2 (`run_all --only T2`) measures
/// them.
pub fn merge_runs<T, A>(machine: &mut A, runs: &[Region]) -> Result<(Region, MergeStats)>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let b = cfg.block;
    if cfg.memory < 4 * b {
        return Err(MachineError::InvalidConfig("merge_runs requires M >= 4B"));
    }
    if runs.len() > cfg.fan_in() {
        return Err(MachineError::InvalidConfig(
            "merge_runs fan-in exceeds omega*m",
        ));
    }
    let total: usize = runs.iter().map(|r| r.elems).sum();
    let out = machine.alloc_region(total);
    if total == 0 {
        return Ok((out, MergeStats::default()));
    }
    let k = runs.len();
    let mut max_active = 0usize;

    // M̂: the round buffer size — half the memory, whole blocks.
    let mhat = ((cfg.memory / 2) / b).max(1) * b;

    // External pointer array: b[i] = index of the first block of run i that
    // may still hold unconsumed elements. Initialization costs ⌈k/B⌉ writes
    // (the "O(⌈ωm/B⌉) write I/Os" of the paper).
    let ptr_region = machine.alloc_aux_region(k);
    for pb in 0..ptr_region.blocks {
        let words = ptr_region.elems_in_block(pb, b);
        machine.reserve(words)?;
        machine.write_aux_block(ptr_region.block(pb), vec![0u64; words])?;
    }

    // Per-round scratch indexed by run: a contributing run's first member
    // position, member count (0 = none) and offset in the ordered round.
    let mut first = vec![0u64; k];
    let mut count = vec![0usize; k];
    let mut base = vec![0usize; k];
    let mut contributing: Vec<usize> = Vec::new();

    // Boundary: largest element written out so far.
    let mut boundary: Option<Tagged<T>> = None;
    let mut written = 0usize;
    let mut out_blk = 0usize;
    let mut rounds = 0u64;

    while written < total {
        rounds += 1;
        // The round buffer (the paper's in-memory array `M`): it always
        // holds the `mhat` smallest candidates seen this round.
        let mut sel: Selector<Tagged<T>> = Selector::new(mhat);

        // --- Seeding scan: up to two blocks from each run. -------------
        for pb in 0..ptr_region.blocks {
            let ptrs = machine.read_aux_block(ptr_region.block(pb))?;
            for (off, &ptr) in ptrs.iter().enumerate() {
                let run_idx = pb * b + off;
                let run = &runs[run_idx];
                let first = ptr as usize;
                for blk in first..(first + 2).min(run.blocks) {
                    read_merge(machine, run, run_idx, blk, &boundary, &mut sel)?;
                }
            }
            machine.discard(ptrs.len())?;
        }

        // --- Activation scan: one block per run (the block holding the
        // largest seeded element) to compute `s_i` and the active set.
        // Re-scanning instead of remembering per-run state is the point:
        // for ω > B, per-run state for all k runs does not fit in memory.
        let mut actives: Vec<Active<T>> = Vec::new();
        for pb in 0..ptr_region.blocks {
            let ptrs = machine.read_aux_block(ptr_region.block(pb))?;
            for (off, &ptr) in ptrs.iter().enumerate() {
                let run_idx = pb * b + off;
                let run = &runs[run_idx];
                let first = ptr as usize;
                if first >= run.blocks {
                    continue; // exhausted
                }
                let last_loaded = (first + 1).min(run.blocks - 1);
                let mut s_max = None;
                let len = machine.read_block_with(run.block(last_loaded), &mut |blk| {
                    s_max = blk
                        .last()
                        .map(|x| tag(x.clone(), run_idx, last_loaded, blk.len() - 1, b));
                })?;
                let s_max = s_max.expect("run blocks are non-empty");
                machine.discard(len)?;
                // Active (paper's conditions): (a) more blocks exist beyond
                // the loaded ones, and (b) s_i is among the M̂ smallest seen
                // (when the buffer is full, that means s_i ≤ its maximum).
                let more = last_loaded + 1 < run.blocks;
                let eligible = more && sel.full_max().map_or(true, |t| s_max <= *t);
                if eligible {
                    actives.push(Active {
                        run: run_idx,
                        next_blk: last_loaded + 1,
                        s_max,
                    });
                }
            }
            machine.discard(ptrs.len())?;
        }
        // Lemma 3.1: at most M̂/B runs can be active.
        max_active = max_active.max(actives.len());
        debug_assert!(
            actives.len() <= mhat / b,
            "Lemma 3.1 violated: {} active runs > M̂/B = {}",
            actives.len(),
            mhat / b
        );

        // --- Merge loop: load from the active run with smallest s_i. ----
        while !actives.is_empty() {
            // Drop runs that can no longer contribute this round.
            if let Some(t) = sel.full_max() {
                actives.retain(|a| a.s_max <= *t);
                if actives.is_empty() {
                    break;
                }
            }
            let (j, _) = actives
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, c)| a.s_max.cmp(&c.s_max))
                .expect("actives non-empty");
            let run_idx = actives[j].run;
            let run = &runs[run_idx];
            let blk = actives[j].next_blk;
            actives[j].s_max = read_merge(machine, run, run_idx, blk, &boundary, &mut sel)?
                .expect("non-empty block");
            actives[j].next_blk += 1;
            if actives[j].next_blk >= run.blocks {
                actives.swap_remove(j);
            }
        }

        // --- Output: write the round buffer in sorted order. -----------
        // A run's members are consecutive positions (see `in_order`):
        // note where each contributing run's members start and how many
        // there are.
        let members = sel.into_members();
        for (_, run_u32, pos) in &members {
            let r = *run_u32 as usize;
            if count[r] == 0 {
                contributing.push(r);
                first[r] = *pos;
            }
            first[r] = first[r].min(*pos);
            count[r] += 1;
        }
        contributing.sort_unstable();
        let batch = in_order(
            members,
            |t| t.1 as usize,
            &contributing,
            &first,
            &count,
            &mut base,
        );
        debug_assert!(!batch.is_empty(), "progress while written < total");
        boundary = batch.last().cloned();
        written += batch.len();

        // One bulk write for the whole round buffer: identical cost and
        // occupancies to the former per-block loop (chunks of exactly
        // `b`, final chunk partial), one ledger release, one bounds sweep.
        let round_out: Vec<T> = batch.into_iter().map(|(x, _, _)| x).collect();
        out_blk += machine.write_run(out.block(out_blk), &round_out)?;

        // Each contributing run's pointer moves to the block of its last
        // output element.
        let updates: Vec<(usize, u64)> = contributing
            .iter()
            .map(|&r| {
                let last = first[r] as usize + std::mem::take(&mut count[r]) - 1;
                (r, pointer_after(last, runs[r].elems, b))
            })
            .collect();
        advance_pointers(machine, ptr_region, &updates)?;
        contributing.clear();
    }

    Ok((
        out,
        MergeStats {
            rounds,
            elems: total,
            max_active,
            active_bound: mhat / b,
        },
    ))
}

/// The block pointer of a run whose last consumed element sits at
/// position `last`: that element's block, or the next one when the
/// element ended its block (the block is then fully consumed).
pub(crate) fn pointer_after(last: usize, run_elems: usize, b: usize) -> u64 {
    let consumed_block = last + 1 == run_elems || (last + 1) % b == 0;
    (last / b + usize::from(consumed_block)) as u64
}

/// Move external block pointers forward: `updates` holds `(slot, new
/// pointer)` pairs sorted by slot. Each pointer block an update falls in
/// is read once, in ascending order, and written back only when one of
/// its pointers advanced. A pointer changes only when a block of its run
/// was consumed, so these writes total O(n) over a merge (§3.1).
pub(crate) fn advance_pointers<T, A: AemAccess<T>>(
    machine: &mut A,
    ptrs: Region,
    updates: &[(usize, u64)],
) -> Result<()> {
    let b = machine.cfg().block;
    let mut rest = updates;
    while let Some(&(slot, _)) = rest.first() {
        let pb = slot / b;
        let in_block = rest.iter().take_while(|(s, _)| s / b == pb).count();
        let (group, tail) = rest.split_at(in_block);
        rest = tail;
        let mut words = machine.read_aux_block(ptrs.block(pb))?;
        let mut dirty = false;
        for &(slot, np) in group {
            let w = &mut words[slot % b];
            if np > *w {
                *w = np;
                dirty = true;
            }
        }
        let len = words.len();
        if dirty {
            machine.write_aux_block(ptrs.block(pb), words)?;
        } else {
            machine.discard(len)?;
        }
    }
    Ok(())
}

/// A round's members in ascending order.
///
/// Member `t` belongs to run `run_of(t)`, an index into `first`, `count`
/// and `base`. Run `r`'s members are the `count[r]` positions from
/// `first[r]` on: the buffer keeps the smallest candidates, a run's
/// candidates are its unconsumed elements in position order, and tags
/// ascend with position within a run. One pass therefore places every
/// member at its run's offset plus its distance from the run's first
/// member, leaving one ascending stretch per contributing run. The
/// standard library's stable sort finds long ascending stretches and
/// merges them, so a round fed by few runs — the buffered queue's
/// two-way merges — costs about
/// `M̂·log₂ k'` comparisons for `k'` contributing runs instead of the
/// `M̂·log₂ M̂` of sorting the buffer from scratch; many short stretches
/// cost no more than that.
pub(crate) fn in_order<T: Ord>(
    members: Vec<Tagged<T>>,
    run_of: impl Fn(&Tagged<T>) -> usize,
    contributing: &[usize],
    first: &[u64],
    count: &[usize],
    base: &mut [usize],
) -> Vec<Tagged<T>> {
    let mut next = 0;
    for &r in contributing {
        base[r] = next;
        next += count[r];
    }
    let mut slots: Vec<Option<Tagged<T>>> = (0..members.len()).map(|_| None).collect();
    for t in members {
        let r = run_of(&t);
        let slot = base[r] + (t.2 - first[r]) as usize;
        slots[slot] = Some(t);
    }
    let mut batch: Vec<Tagged<T>> = slots
        .into_iter()
        .map(|t| t.expect("a run's members are consecutive positions"))
        .collect();
    batch.sort();
    batch
}

/// Tag an element with `(run, global position within run)`.
fn tag<T>(x: T, run_idx: usize, blk: usize, off: usize, b: usize) -> Tagged<T> {
    (x, run_idx as u32, (blk * b + off) as u64)
}

/// Read block `blk` of `run` and merge its elements above `boundary` into
/// the round buffer. Returns the block's maximal tagged element.
fn read_merge<T, A>(
    machine: &mut A,
    run: &Region,
    run_idx: usize,
    blk: usize,
    boundary: &Option<Tagged<T>>,
    sel: &mut Selector<Tagged<T>>,
) -> Result<Option<Tagged<T>>>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let b = machine.cfg().block;
    let (mut kept, mut max) = (0, None);
    let len = machine.read_block_with(run.block(blk), &mut |data| {
        kept = sel.offer_sorted(data, run_idx as u32, (blk * b) as u64, boundary.as_ref());
        max = data
            .last()
            .map(|x| tag(x.clone(), run_idx, blk, data.len() - 1, b));
    })?;
    // Everything read but not net-retained leaves internal memory.
    machine.discard(len - kept)?;
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::small::small_sort;
    use aem_machine::{AemConfig, Cost, Machine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    /// Install `runs_data` as sorted runs and merge them.
    fn run_merge(cfg: AemConfig, runs_data: Vec<Vec<u64>>) -> (Vec<u64>, Cost, MergeStats) {
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions: Vec<Region> = runs_data.iter().map(|r| m.install(r)).collect();
        let (out, stats) = merge_runs(&mut m, &regions).unwrap();
        (m.inspect(out), m.cost(), stats)
    }

    fn sorted_runs(seed: u64, count: usize, each: usize) -> Vec<Vec<u64>> {
        (0..count)
            .map(|i| {
                let mut v = KeyDist::Uniform {
                    seed: seed + i as u64,
                }
                .generate(each);
                v.sort();
                v
            })
            .collect()
    }

    #[test]
    fn merges_two_runs() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let (out, _, _) = run_merge(cfg, vec![vec![1, 3, 5, 7], vec![2, 4, 6, 8]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn merges_full_fan_in() {
        let cfg = AemConfig::new(16, 4, 8).unwrap(); // fan-in = 32
        let runs = sorted_runs(10, 32, 12);
        let mut want: Vec<u64> = runs.iter().flatten().copied().collect();
        want.sort();
        let (out, _, stats) = run_merge(cfg, runs);
        assert_eq!(out, want);
        assert_eq!(stats.elems, 32 * 12);
    }

    #[test]
    fn merge_with_omega_exceeding_block() {
        // The paper's headline case: ω > B. Fan-in = ω·m = 64·4 = 256 runs,
        // whose pointers (256 words) exceed M = 16 — they must live in
        // external memory for this to work at all.
        let cfg = AemConfig::new(16, 4, 64).unwrap();
        let runs = sorted_runs(20, 256, 4);
        let mut want: Vec<u64> = runs.iter().flatten().copied().collect();
        want.sort();
        let (out, _, _) = run_merge(cfg, runs);
        assert_eq!(out, want);
    }

    #[test]
    fn merge_uneven_runs_and_duplicates() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let runs = vec![
            vec![1, 1, 1, 1, 1],
            vec![1, 2, 2],
            vec![],
            vec![2],
            vec![0, 0, 3, 3, 3, 3, 3, 3, 3, 9],
        ];
        let mut want: Vec<u64> = runs.iter().flatten().copied().collect();
        want.sort();
        let (out, _, _) = run_merge(cfg, runs);
        assert_eq!(out, want);
    }

    #[test]
    fn lemma_3_1_active_bound_holds_in_release_mode_too() {
        // The debug assertion vanishes in release builds; the recorded
        // statistic keeps the lemma checked everywhere.
        for omega in [1u64, 8, 64] {
            let cfg = AemConfig::new(32, 4, omega).unwrap();
            let k = cfg.fan_in().min(64);
            let runs = sorted_runs(70, k, 16);
            let (_, _, stats) = run_merge(cfg, runs);
            assert!(
                stats.max_active <= stats.active_bound,
                "omega={omega}: {} active > bound {}",
                stats.max_active,
                stats.active_bound
            );
            // max_active may legitimately be 0 (short runs are fully
            // seeded, leaving nothing to activate).
        }
    }

    #[test]
    fn merge_cost_matches_theorem_3_2() {
        // Theorem 3.2: O(ω(n+m)) reads, O(n+m) writes. Check an explicit
        // constant: reads ≤ 8·ω·(n+m), writes ≤ 4·(n+m).
        for omega in [1u64, 4, 16, 64] {
            let cfg = AemConfig::new(32, 4, omega).unwrap();
            let k = cfg.fan_in().min(64);
            let runs = sorted_runs(30, k, 16);
            let total: usize = runs.iter().map(|r| r.len()).sum();
            let n = cfg.blocks_for(total) as u64;
            let m = cfg.m() as u64;
            let (out, cost, _) = run_merge(cfg, runs);
            assert!(is_sorted(&out));
            assert!(
                cost.reads <= 8 * omega * (n + m) + 8 * m,
                "omega={omega}: reads {} vs bound {}",
                cost.reads,
                8 * omega * (n + m)
            );
            assert!(
                cost.writes <= 4 * (n + m),
                "omega={omega}: writes {} vs bound {}",
                cost.writes,
                4 * (n + m)
            );
        }
    }

    #[test]
    fn merge_after_small_sort_runs() {
        // End-to-end sanity at one mergesort level.
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let data = KeyDist::Uniform { seed: 40 }.generate(256);
        let whole = m.install(&data);
        let parts = whole.split_blockwise(8, cfg.block);
        let runs: Vec<Region> = parts
            .iter()
            .map(|p| small_sort(&mut m, *p).unwrap())
            .collect();
        let (out, _) = merge_runs(&mut m, &runs).unwrap();
        let mut want = data;
        want.sort();
        assert_eq!(m.inspect(out), want);
    }

    #[test]
    fn rejects_fan_in_overflow() {
        let cfg = AemConfig::new(16, 4, 1).unwrap(); // fan-in = 4
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions: Vec<Region> = (0..5).map(|_| m.install(&[1u64, 2])).collect();
        assert!(matches!(
            merge_runs(&mut m, &regions),
            Err(MachineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_tiny_memory() {
        let cfg = AemConfig::new(6, 3, 1).unwrap(); // M < 4B
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions = vec![m.install(&[1u64])];
        assert!(matches!(
            merge_runs(&mut m, &regions),
            Err(MachineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_input_is_free() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let (out, cost, stats) = run_merge(cfg, vec![vec![], vec![]]);
        assert!(out.is_empty());
        assert_eq!(cost, Cost::ZERO);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn aram_block_one_merge() {
        // B = 1 (the ARAM specialization) must work too.
        let cfg = AemConfig::new(8, 1, 4).unwrap();
        let runs = sorted_runs(50, 8, 5);
        let mut want: Vec<u64> = runs.iter().flatten().copied().collect();
        want.sort();
        let (out, _, _) = run_merge(cfg, runs);
        assert_eq!(out, want);
    }
}
