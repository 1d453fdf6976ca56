//! The mergesort base case: sorting `N' ≤ ωM` elements with `O(ω n')` reads
//! and `O(n')` writes.
//!
//! This is the algorithm of Lemma 4.2 in Blelloch et al. (SPAA '15), which
//! the paper invokes for the base of its recurrence: repeated *selection*.
//! The array is scanned once per output batch; each scan keeps the `C ≈ M`
//! smallest elements greater than the last batch's maximum in internal
//! memory, then writes them out in sorted order. With `N' ≤ ωM`, at most
//! `O(ω)` scans are needed, for `O(ω n')` reads total, and every element is
//! written exactly once, for `n'` writes — reads are cheap, writes are
//! dear, so trading `ω` scans for a single output write is exactly the
//! asymmetric-memory bargain.
//!
//! Each scan reads its blocks borrowed (`read_block_with`, metered exactly
//! as a copying read) and feeds them to a `Selector`: 64 elements at a
//! time are tested against the boundary and a running cut into bit masks,
//! with no branch per element, and only the elements under the cut are
//! cloned into a host pool, which is compacted with `select_nth_unstable`
//! whenever it reaches `2C`. Once the pool has a cut, whichever of the two
//! tests rejects more elements runs first, so early scans compare most
//! elements once against the cut and late ones once against the
//! boundary. The ledger still holds exactly `min(C, candidates seen)`
//! after every block (`docs/COST_MODEL.md` §7). Each batch is sorted once
//! and moved into its output blocks.
//!
//! Ties are broken by input position, making the sort stable and the
//! selection boundary exact even with duplicate keys. The position tag is
//! one auxiliary word per resident element, within the "constant number of
//! additional words of auxiliary data with each element" that §3.1 of the
//! paper allows.

use aem_machine::{AemAccess, MachineError, Region, Result};

use crate::sort::Selector;

/// Sort `input` (at most `ω·M` elements) into a freshly allocated region,
/// returned on success.
///
/// Cost: `⌈N'/C⌉ · n'` reads and `n'` writes, where `C` is the largest
/// multiple of `B` not exceeding `M − B` (one block of internal memory is
/// reserved as the scan buffer). For `N' ≤ ωM` and `M ≥ 2B` this is at most
/// `2ω·n'` reads.
///
/// # Errors
///
/// * [`MachineError::InvalidConfig`] if `input.elems > ω·M` — callers must
///   split larger inputs (that is what [`crate::sort::merge_sort()`] does).
/// * Any machine error (capacity violations indicate a bug and surface in
///   tests).
pub fn small_sort<T, A>(machine: &mut A, input: Region) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let (mem, b) = (cfg.memory, cfg.block);
    if input.elems as u128 > cfg.omega as u128 * mem as u128 {
        return Err(MachineError::InvalidConfig(
            "small_sort requires N' <= omega * M; split larger inputs first",
        ));
    }
    let out = machine.alloc_region(input.elems);
    if input.elems == 0 {
        return Ok(out);
    }

    // Selection capacity: full blocks only, so every non-final batch fills
    // whole output blocks and the output region stays densely packed.
    let cap = ((mem - b) / b).max(1) * b;

    // Boundary: the (key, position) of the largest element already written.
    let mut last: Option<(T, u64)> = None;
    let mut written = 0usize;
    let mut out_block = 0usize;

    while written < input.elems {
        // One selection scan: keep the `cap` smallest elements above `last`.
        // The ledger holds `min(cap, seen)` of each block; the rest leaves.
        let mut sel = Selector::new(cap);
        for blk in 0..input.blocks {
            let mut kept = 0;
            let len = machine.read_block_with(input.block(blk), &mut |data| {
                kept = sel.offer(data, (blk * b) as u64, last.as_ref());
            })?;
            machine.discard(len - kept)?;
        }

        // Drain the selection in ascending order and write it out.
        let batch = sel.into_sorted();
        debug_assert!(!batch.is_empty(), "progress guaranteed while written < N'");
        last = batch.last().cloned();
        written += batch.len();
        let blocks = batch.len().div_ceil(b);
        let mut iter = batch.into_iter().map(|(x, _)| x);
        for _ in 0..blocks {
            let chunk: Vec<T> = iter.by_ref().take(b).collect();
            machine.write_block(out.block(out_block), chunk)?;
            out_block += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    fn run(cfg: AemConfig, input: Vec<u64>) -> (Vec<u64>, aem_machine::Cost) {
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        let out = small_sort(&mut m, r).unwrap();
        (m.inspect(out), m.cost())
    }

    #[test]
    fn sorts_random_input() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let input = KeyDist::Uniform { seed: 1 }.generate(60); // 60 <= 4*16
        let (out, _) = run(cfg, input.clone());
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
    }

    #[test]
    fn sorts_with_duplicates() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let input = KeyDist::FewDistinct {
            distinct: 3,
            seed: 2,
        }
        .generate(64);
        let (out, _) = run(cfg, input);
        assert!(is_sorted(&out));
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn cost_is_omega_scans_reads_one_pass_writes() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let n_elems = 48; // passes = ceil(48 / 12) = 4
        let input = KeyDist::Uniform { seed: 3 }.generate(n_elems);
        let (_, cost) = run(cfg, input);
        let n_blocks = 12;
        // Writes: exactly one write per output block.
        assert_eq!(cost.writes, n_blocks);
        // Reads: passes * n' = 4 * 12.
        assert_eq!(cost.reads, 4 * n_blocks);
    }

    #[test]
    fn empty_and_single_block_inputs() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let (out, cost) = run(cfg, vec![]);
        assert!(out.is_empty());
        assert_eq!(cost, aem_machine::Cost::ZERO);

        let (out, _) = run(cfg, vec![3, 1, 2]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_oversized_input() {
        let cfg = AemConfig::new(16, 4, 2).unwrap(); // threshold 32
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&KeyDist::Uniform { seed: 4 }.generate(33));
        assert!(matches!(
            small_sort(&mut m, r),
            Err(MachineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn exactly_threshold_size_is_accepted() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let input = KeyDist::Uniform { seed: 5 }.generate(32);
        let (out, _) = run(cfg, input.clone());
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
    }

    #[test]
    fn internal_memory_never_exceeded() {
        // The machine errors on overflow, so mere completion proves the
        // bound; exercise the tightest configuration.
        let cfg = AemConfig::new(8, 4, 8).unwrap(); // cap = 4 elements
        let input = KeyDist::Uniform { seed: 6 }.generate(64);
        let (out, _) = run(cfg, input);
        assert!(is_sorted(&out));
    }

    #[test]
    fn presorted_input_costs_the_same_as_random() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let sorted = KeyDist::Sorted.generate(48);
        let random = KeyDist::Uniform { seed: 7 }.generate(48);
        let (_, c1) = run(cfg, sorted);
        let (_, c2) = run(cfg, random);
        assert_eq!(c1, c2, "selection sort is input-oblivious");
    }
}
