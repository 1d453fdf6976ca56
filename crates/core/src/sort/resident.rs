//! Ablation: the merge with **memory-resident** run state.
//!
//! The obvious way to merge `k` runs keeps one cursor per run in internal
//! memory. That is what the SPAA '15 mergesort of Blelloch et al.
//! effectively assumes, and why it needs `ω < B`: at the paper's fan-in
//! `k = ωm = ωM/B`, the cursors alone occupy `ωM/B > M` words once
//! `ω > B`. This module implements that variant *honestly* — the cursor
//! table is charged against the internal budget via `reserve` — so on an
//! enforcing machine it simply **fails with `InternalOverflow` when
//! `ω > B`-ish fan-ins are requested**, which is the cleanest possible
//! demonstration of why §3.1 moves the pointers to external memory.
//!
//! Where it does fit, it saves the pointer I/O and the activation re-scan,
//! so the T1d table (`run_all --only T1d`) also quantifies what the
//! external-pointer machinery costs when it is *not* needed.

use aem_machine::{AemAccess, MachineError, Region, Result};

use super::merge::{pointer_after, MergeStats};
use super::RunSelector;

/// Cursor of one run, resident in internal memory (charged 2 words ≈ 1
/// element slot each; we charge one slot per run, the model's constant-
/// words-per-item convention, via `reserve`).
struct Cursor {
    next_blk: usize,
    exhausted: bool,
}

/// Merge `runs` keeping all per-run cursors resident in internal memory.
///
/// # Errors
///
/// Fails with [`MachineError::InternalOverflow`] when the cursor table plus
/// working buffers do not fit in `M` — which is exactly the `k > M − M̂ − B`
/// regime (`k = ωm` with `ω ≳ B`) that motivates the paper's external
/// pointer array.
pub fn merge_runs_resident<T, A>(machine: &mut A, runs: &[Region]) -> Result<(Region, MergeStats)>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let b = cfg.block;
    if cfg.memory < 4 * b {
        return Err(MachineError::InvalidConfig(
            "merge_runs_resident requires M >= 4B",
        ));
    }
    if runs.len() > cfg.fan_in() {
        return Err(MachineError::InvalidConfig("fan-in exceeds omega*m"));
    }
    let total: usize = runs.iter().map(|r| r.elems).sum();
    let out = machine.alloc_region(total);
    if total == 0 {
        return Ok((out, MergeStats::default()));
    }
    let k = runs.len();

    // The resident cursor table: one budget slot per run. THIS is the
    // reservation that fails for ω ≳ B at full fan-in (k = ωm = ωM/B).
    machine.reserve(k)?;
    // Shrink the round buffer to what is left beside the cursor table —
    // the fairest version of the resident strategy. If even a minimal
    // working set no longer fits, report the overflow honestly.
    let avail = cfg.memory - k;
    if avail < 3 * b {
        machine.discard(k)?;
        return Err(MachineError::InternalOverflow {
            used: k,
            capacity: cfg.memory,
            requested: 3 * b,
        });
    }
    let mhat = (((avail - b) / 2) / b).max(1) * b;
    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|r| Cursor {
            next_blk: 0,
            exhausted: r.blocks == 0,
        })
        .collect();

    type Tagged<T> = (T, u32, u64);
    let mut boundary: Option<Tagged<T>> = None;
    let mut written = 0usize;
    let mut out_blk = 0usize;
    let mut rounds = 0u64;

    let mut sel: RunSelector<T> = RunSelector::new(mhat, k);
    while written < total {
        rounds += 1;
        // Per-round local state (free internal bookkeeping for the runs
        // touched this round): last block loaded and its maximal element.
        let mut loaded_through: Vec<usize> = vec![usize::MAX; k];
        let mut s_max: Vec<Option<Tagged<T>>> = vec![None; k];

        // Seed: one block from each non-exhausted run.
        for i in 0..k {
            if cursors[i].exhausted {
                continue;
            }
            let blk = cursors[i].next_blk;
            s_max[i] = load_merge(machine, runs, i, blk, &boundary, &mut sel)?;
            loaded_through[i] = blk;
        }

        // Merge loop: load the next block of the run with the smallest
        // maximal loaded element, while it may still contribute.
        loop {
            let t = sel.full_max().map(|(x, r, p)| (x.clone(), r, p));
            let candidate = (0..k)
                .filter(|&i| {
                    loaded_through[i] != usize::MAX && loaded_through[i] + 1 < runs[i].blocks
                })
                .filter(|&i| match (&s_max[i], &t) {
                    (Some(s), Some(tv)) => s <= tv,
                    (Some(_), None) => true,
                    (None, _) => false,
                })
                .min_by(|&a, &c| s_max[a].cmp(&s_max[c]));
            let Some(j) = candidate else { break };
            let blk = loaded_through[j] + 1;
            s_max[j] = load_merge(machine, runs, j, blk, &boundary, &mut sel)?;
            loaded_through[j] = blk;
        }

        // Output: advance cursors past fully consumed blocks.
        for span in sel.spans() {
            let i = span.slot;
            let new_next = pointer_after(span.last_pos() as usize, runs[i].elems, b) as usize;
            cursors[i].next_blk = cursors[i].next_blk.max(new_next);
            if cursors[i].next_blk >= runs[i].blocks {
                cursors[i].exhausted = true;
            }
        }
        boundary = sel.max_member().map(|(x, r, p)| (x.clone(), r, p));
        let batch = sel.take_sorted();
        debug_assert!(!batch.is_empty());
        written += batch.len();
        let mut iter = batch.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<T> = iter.by_ref().take(b).collect();
            machine.write_block(out.block(out_blk), chunk)?;
            out_blk += 1;
        }
    }
    machine.discard(k)?; // release the cursor table
    Ok((
        out,
        MergeStats {
            rounds,
            elems: total,
            ..MergeStats::default()
        },
    ))
}

/// Tagged element of the resident merge: `(key, run, position)`.
type Tag<T> = (T, u32, u64);

/// Read block `blk` of run `i`, merging elements above `boundary` into the
/// round buffer (same accounting as the external-pointer merge). Returns
/// the block's maximal tagged element.
fn load_merge<T, A>(
    machine: &mut A,
    runs: &[Region],
    i: usize,
    blk: usize,
    boundary: &Option<Tag<T>>,
    sel: &mut RunSelector<T>,
) -> Result<Option<Tag<T>>>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let b = machine.cfg().block;
    let first = (blk * b) as u64;
    let (mut kept, mut max) = (0, None);
    let len = machine.read_block_with(runs[i].block(blk), &mut |data| {
        kept = sel.offer(data, i, i as u32, first, boundary.as_ref());
        max = data
            .last()
            .map(|x| (x.clone(), i as u32, first + data.len() as u64 - 1));
    })?;
    machine.discard(len - kept)?;
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    fn runs_on(m: &mut Machine<u64>, count: usize, each: usize, seed: u64) -> Vec<Region> {
        (0..count)
            .map(|i| {
                let mut v = KeyDist::Uniform {
                    seed: seed + i as u64,
                }
                .generate(each);
                v.sort();
                m.install(&v)
            })
            .collect()
    }

    #[test]
    fn merges_when_state_fits() {
        let cfg = AemConfig::new(32, 4, 2).unwrap(); // k up to 16, fits in M=32
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions = runs_on(&mut m, 8, 20, 1);
        let (out, _) = merge_runs_resident(&mut m, &regions).unwrap();
        let got = m.inspect(out);
        assert!(is_sorted(&got));
        assert_eq!(got.len(), 160);
    }

    #[test]
    fn fails_honestly_when_pointers_do_not_fit() {
        // ω = 64 > B = 4: full fan-in is ωm = 512 ≫ M = 32. The resident
        // variant must refuse (InternalOverflow on the cursor table) — the
        // regime the paper's external pointers exist for.
        let cfg = AemConfig::new(32, 4, 64).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions = runs_on(&mut m, 64, 4, 2);
        let err = merge_runs_resident(&mut m, &regions).unwrap_err();
        assert!(
            matches!(err, MachineError::InternalOverflow { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn external_pointer_merge_succeeds_where_resident_fails() {
        let cfg = AemConfig::new(32, 4, 64).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions = runs_on(&mut m, 64, 4, 3);
        // Same machine, same runs: §3.1 merge works fine.
        let (out, _) = super::super::merge::merge_runs(&mut m, &regions).unwrap();
        assert!(is_sorted(&m.inspect(out)));
    }

    #[test]
    fn agrees_with_external_pointer_merge() {
        let cfg = AemConfig::new(32, 4, 2).unwrap();
        let mut m1: Machine<u64> = Machine::new(cfg);
        let r1 = runs_on(&mut m1, 6, 33, 4);
        let (o1, _) = merge_runs_resident(&mut m1, &r1).unwrap();

        let mut m2: Machine<u64> = Machine::new(cfg);
        let r2 = runs_on(&mut m2, 6, 33, 4);
        let (o2, _) = super::super::merge::merge_runs(&mut m2, &r2).unwrap();
        assert_eq!(m1.inspect(o1), m2.inspect(o2));
    }

    #[test]
    fn duplicates_and_empty_runs() {
        let cfg = AemConfig::new(32, 4, 2).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let regions = vec![
            m.install(&[1u64, 1, 1]),
            m.install(&[] as &[u64]),
            m.install(&[0u64, 1, 2, 2, 2]),
        ];
        let (out, _) = merge_runs_resident(&mut m, &regions).unwrap();
        assert_eq!(m.inspect(out), vec![0, 1, 1, 1, 1, 2, 2, 2]);
    }
}
