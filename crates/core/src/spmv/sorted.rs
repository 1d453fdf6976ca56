//! The sorting-based SpMxV program: `O(ω h log_{ωm} N/max{δ,B} + ωn)`.
//!
//! §5's upper-bound algorithm, implemented in four phases:
//!
//! 1. **Product scan** — simultaneous scan of `A` (column-major) and `x`
//!    (both streamed: column-major order visits `x` in index order),
//!    replacing each entry `a_ij` by the elementary product `a_ij·x_j`
//!    tagged with its row. Products are partitioned into `δ` *meta-columns*
//!    (groups of `⌈N/δ⌉` consecutive columns, ≈ `N` entries each) as they
//!    are produced.
//! 2. **Meta-column sorts** — each meta-column is sorted by row index with
//!    the §3 mergesort, virtually re-ordering it into row-major layout.
//! 3. **Merge-add** — the `δ` sorted lists are combined by streaming
//!    `(m−2)`-way merges that add atoms of equal row on the fly (a semiring
//!    addition *consumes* two atoms and produces one — the volume reduction
//!    the Theorem 5.1 counting argument has to account for via the `s_r`
//!    terms).
//! 4. **Dense emission** — one scan writes `y` in natural order, filling
//!    rows with no non-zeros with semiring zeros.
//!
//! Deviation from the paper (documented in DESIGN.md): the paper's
//! mergesort base case exploits that each *column* is already
//! row-sorted, giving `log_{ωm}(N/max{δ,B})` merge levels; our mergesort's
//! base case is oblivious (it small-sorts `ωM/2`-element runs at the same
//! `O(ωn')` cost), so our level count is `log_{ωm}(N/(ωM/2))` — never
//! more, since `ωM/2 ≥ max{δ, B}` whenever the base case is reachable. The
//! measured cost therefore sits *below* the paper's upper-bound expression,
//! which experiments T6 and T7 confirm.

use aem_machine::{AemAccess, Machine, MachineError, Region, Result};
use aem_workloads::Conformation;

use super::layout::{install_instance, MatEntry, SpmvInstance};
use super::semiring::Semiring;
use super::SpmvRun;
use crate::sort::heads::MergeHeads;
use crate::sort::merge_sort;

/// Run the sorting-based algorithm on an existing machine. `a` and `x` are
/// the regions from [`install_instance`]; returns the region of `y` in
/// natural row order.
pub fn spmv_sorted_on<S, A>(
    machine: &mut A,
    conf: &Conformation,
    a: Region,
    x: Region,
) -> Result<Region>
where
    S: Semiring,
    A: AemAccess<MatEntry<S>>,
{
    let cfg = machine.cfg();
    let b = cfg.block;
    if cfg.memory < 4 * b {
        return Err(MachineError::InvalidConfig("spmv_sorted requires M >= 4B"));
    }
    let n = conf.n;
    let delta = conf.delta;
    let h = conf.nnz();

    // ---- Phase 1: product scan into meta-columns. ----------------------
    machine.phase_enter("product-scan");
    let cols_per_meta = n.div_ceil(delta);
    let num_meta = n.div_ceil(cols_per_meta);
    let mut meta_regions: Vec<Region> = (0..num_meta)
        .map(|mc| {
            let cols = cols_per_meta.min(n - mc * cols_per_meta);
            machine.alloc_region(cols * delta)
        })
        .collect();

    {
        let mut a_blk: Option<(usize, Vec<MatEntry<S>>)> = None;
        let mut x_blk: Option<(usize, Vec<MatEntry<S>>)> = None;
        let mut out_buf: Vec<MatEntry<S>> = Vec::with_capacity(b);
        let mut cur_meta = 0usize;
        let mut meta_out_blk = 0usize;

        for e in 0..h {
            let col = e / delta;
            let mc = col / cols_per_meta;
            if mc != cur_meta {
                // Flush the previous meta-column's partial block.
                if !out_buf.is_empty() {
                    machine.write_block(
                        meta_regions[cur_meta].block(meta_out_blk),
                        std::mem::take(&mut out_buf),
                    )?;
                }
                cur_meta = mc;
                meta_out_blk = 0;
            }
            // Stream A.
            let want_a = e / b;
            if a_blk.as_ref().map(|(i, _)| *i) != Some(want_a) {
                if let Some((_, old)) = a_blk.take() {
                    machine.discard(old.len())?;
                }
                a_blk = Some((want_a, machine.read_block(a.block(want_a))?));
            }
            // Stream x (column-major order visits columns monotonically).
            let want_x = col / b;
            if x_blk.as_ref().map(|(i, _)| *i) != Some(want_x) {
                if let Some((_, old)) = x_blk.take() {
                    machine.discard(old.len())?;
                }
                x_blk = Some((want_x, machine.read_block(x.block(want_x))?));
            }
            let ae = &a_blk.as_ref().expect("loaded").1[e % b];
            let xe = &x_blk.as_ref().expect("loaded").1[col % b];
            let prod = MatEntry {
                row: ae.row,
                val: ae.val.mul(&xe.val),
            };
            machine.reserve(1)?; // the product is a new resident atom
            out_buf.push(prod);
            if out_buf.len() == b {
                machine.write_block(
                    meta_regions[cur_meta].block(meta_out_blk),
                    std::mem::take(&mut out_buf),
                )?;
                meta_out_blk += 1;
            }
        }
        if !out_buf.is_empty() {
            machine.write_block(meta_regions[cur_meta].block(meta_out_blk), out_buf)?;
        }
        if let Some((_, old)) = a_blk.take() {
            machine.discard(old.len())?;
        }
        if let Some((_, old)) = x_blk.take() {
            machine.discard(old.len())?;
        }
    }
    machine.phase_exit();

    // ---- Phase 2: sort each meta-column by row. -------------------------
    machine.phase_enter("meta-column-sorts");
    for region in meta_regions.iter_mut() {
        *region = merge_sort(machine, *region)?;
    }
    machine.phase_exit();

    // ---- Phase 3: merge-add the sorted lists. ---------------------------
    machine.phase_enter("merge-add");
    let fan_in = cfg.m().saturating_sub(2).max(2);
    while meta_regions.len() > 1 {
        let mut next = Vec::with_capacity(meta_regions.len().div_ceil(fan_in));
        for group in meta_regions.chunks(fan_in) {
            if group.len() == 1 {
                next.push(group[0]);
            } else {
                next.push(merge_add(machine, group)?);
            }
        }
        meta_regions = next;
    }
    let combined = meta_regions.pop().expect("at least one meta-column");
    machine.phase_exit();

    // ---- Phase 4: dense emission. ---------------------------------------
    machine.phase_enter("dense-emission");
    let y = machine.alloc_region(n);
    let mut out_buf: Vec<MatEntry<S>> = Vec::with_capacity(b);
    let mut out_blk = 0usize;
    let mut cursor: Option<(usize, Vec<MatEntry<S>>, usize)> = None; // (blk, data, off)
    let mut next_blk = 0usize;
    for i in 0..n {
        // Consume and accumulate every entry for row i. Duplicate rows can
        // reach this point when merge-add had a single list to work with
        // (δ = 1, or one meta-column per group), so the emission itself
        // performs the remaining additions.
        let mut acc: Option<S> = None;
        loop {
            let row = match &mut cursor {
                Some((_, data, off)) if *off < data.len() => {
                    let row = data[*off].row;
                    debug_assert!(row >= i as u64, "combined list is sorted by row");
                    if row != i as u64 {
                        break;
                    }
                    let e = data[*off].clone();
                    *off += 1;
                    acc = match acc.take() {
                        // Combining two atoms of the same row frees one.
                        Some(v) => {
                            machine.discard(1)?;
                            Some(v.add(&e.val))
                        }
                        None => Some(e.val),
                    };
                    row
                }
                _ if next_blk < combined.blocks => {
                    let data = machine.read_block(combined.block(next_blk))?;
                    cursor = Some((next_blk, data, 0));
                    next_blk += 1;
                    continue;
                }
                _ => break,
            };
            let _ = row;
        }
        let val = match acc {
            Some(v) => v, // the atom moves from the list into y
            None => {
                machine.reserve(1)?; // a fresh zero atom
                S::zero()
            }
        };
        out_buf.push(MatEntry { row: i as u64, val });
        if out_buf.len() == b {
            machine.write_block(y.block(out_blk), std::mem::take(&mut out_buf))?;
            out_blk += 1;
        }
    }
    if !out_buf.is_empty() {
        machine.write_block(y.block(out_blk), out_buf)?;
    }
    if let Some((_, data, off)) = cursor.take() {
        // Fully-consumed cursor blocks carry no residue; a partially
        // consumed one would mean duplicate rows survived merge-add.
        debug_assert_eq!(off, data.len(), "unconsumed combined entries");
        machine.discard(data.len() - off)?;
    }
    machine.phase_exit();
    Ok(y)
}

/// Streaming `k`-way merge of row-sorted lists that **adds** atoms of equal
/// row. Returns the (trimmed) output region.
fn merge_add<S, A>(machine: &mut A, lists: &[Region]) -> Result<Region>
where
    S: Semiring,
    A: AemAccess<MatEntry<S>>,
{
    let b = machine.cfg().block;
    let total: usize = lists.iter().map(|r| r.elems).sum();
    let out = machine.alloc_region(total);

    let mut heads = MergeHeads::open(machine, lists, |x: &MatEntry<S>, y: &MatEntry<S>| {
        x.row.cmp(&y.row)
    })?;
    let mut acc: Option<MatEntry<S>> = None;
    let mut out_buf: Vec<MatEntry<S>> = Vec::with_capacity(b);
    let mut out_blk = 0usize;
    let mut written = 0usize;

    // A full output block leaves before the list's next block is read:
    // the next `pop` does that read.
    while let Some(entry) = heads.pop(machine)? {
        match &mut acc {
            Some(a) if a.row == entry.row => {
                // Two atoms of the same row combine into one: the model's
                // volume reduction (one addition, one atom fewer).
                a.val = a.val.add(&entry.val);
                machine.discard(1)?;
            }
            Some(_) => {
                let done = acc.replace(entry).expect("checked some");
                out_buf.push(done);
                written += 1;
                if out_buf.len() == b {
                    machine.write_block(out.block(out_blk), std::mem::take(&mut out_buf))?;
                    out_blk += 1;
                }
            }
            None => acc = Some(entry),
        }
    }
    if let Some(a) = acc.take() {
        out_buf.push(a);
        written += 1;
    }
    if !out_buf.is_empty() {
        machine.write_block(out.block(out_blk), out_buf)?;
        out_blk += 1;
    }
    Ok(Region {
        first: out.first,
        blocks: out_blk,
        elems: written,
    })
}

/// Run the sorting-based algorithm as a complete workload on a fresh
/// machine.
pub fn spmv_sorted<S: Semiring>(
    cfg: aem_machine::AemConfig,
    conf: &Conformation,
    a_vals: &[S],
    x: &[S],
) -> Result<SpmvRun<S>> {
    let inst = SpmvInstance { conf, a_vals, x };
    inst.validate()
        .map_err(|_| MachineError::InvalidConfig("instance dimensions"))?;
    let mut machine: Machine<MatEntry<S>> = Machine::new(cfg);
    let (ra, rx) = install_instance(&mut machine, &inst);
    let y = spmv_sorted_on(&mut machine, conf, ra, rx)?;
    let output = machine.inspect(y).into_iter().map(|e| e.val).collect();
    Ok(SpmvRun {
        output,
        cost: machine.cost(),
        cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::reference::reference_multiply;
    use crate::spmv::semiring::{BoolRing, MaxPlus, U64Ring};
    use aem_machine::AemConfig;
    use aem_workloads::MatrixShape;

    fn u64_instance(
        n: usize,
        delta: usize,
        seed: u64,
    ) -> (Conformation, Vec<U64Ring>, Vec<U64Ring>) {
        let conf = Conformation::generate(MatrixShape::Random { seed }, n, delta);
        let a: Vec<U64Ring> = (0..conf.nnz())
            .map(|i| U64Ring((i as u64 * 31 + 7) % 113))
            .collect();
        let x: Vec<U64Ring> = (0..n).map(|j| U64Ring((j as u64 * 13 + 1) % 89)).collect();
        (conf, a, x)
    }

    #[test]
    fn matches_reference_across_shapes_and_sizes() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        for (n, delta) in [(16, 1), (32, 2), (64, 4), (64, 16), (48, 48)] {
            let (conf, a, x) = u64_instance(n, delta, 100 + n as u64 + delta as u64);
            let run = spmv_sorted(cfg, &conf, &a, &x).unwrap();
            assert_eq!(
                run.output,
                reference_multiply(&conf, &a, &x),
                "n={n} delta={delta}"
            );
        }
    }

    #[test]
    fn omega_above_block() {
        let cfg = AemConfig::new(16, 4, 32).unwrap();
        let (conf, a, x) = u64_instance(64, 4, 5);
        let run = spmv_sorted(cfg, &conf, &a, &x).unwrap();
        assert_eq!(run.output, reference_multiply(&conf, &a, &x));
    }

    #[test]
    fn zero_rows_are_emitted() {
        // δ = 1 with n columns: with high probability several rows have no
        // entries, so the dense emission must fill zeros.
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let (conf, a, x) = u64_instance(64, 1, 6);
        let want = reference_multiply(&conf, &a, &x);
        assert!(
            want.contains(&U64Ring(0)),
            "need an empty row for this test"
        );
        let run = spmv_sorted(cfg, &conf, &a, &x).unwrap();
        assert_eq!(run.output, want);
    }

    #[test]
    fn writes_grow_slower_than_reads_for_large_omega() {
        let (conf, a, x) = u64_instance(128, 4, 8);
        let run = spmv_sorted(AemConfig::new(32, 4, 64).unwrap(), &conf, &a, &x).unwrap();
        assert!(run.cost.writes < run.cost.reads);
    }

    #[test]
    fn other_semirings_work() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let conf = Conformation::generate(MatrixShape::Random { seed: 9 }, 32, 3);

        let a_b = vec![BoolRing(true); conf.nnz()];
        let x_b: Vec<BoolRing> = (0..32).map(|j| BoolRing(j % 4 == 1)).collect();
        let run = spmv_sorted(cfg, &conf, &a_b, &x_b).unwrap();
        assert_eq!(run.output, reference_multiply(&conf, &a_b, &x_b));

        let a_m: Vec<MaxPlus> = (0..conf.nnz())
            .map(|i| MaxPlus::finite(i as i64 % 17))
            .collect();
        let x_m: Vec<MaxPlus> = (0..32).map(|j| MaxPlus::finite(-(j as i64))).collect();
        let run = spmv_sorted(cfg, &conf, &a_m, &x_m).unwrap();
        assert_eq!(run.output, reference_multiply(&conf, &a_m, &x_m));
    }

    #[test]
    fn banded_and_block_diagonal() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        for conf in [
            Conformation::generate(
                MatrixShape::Banded {
                    bandwidth: 5,
                    seed: 10,
                },
                64,
                2,
            ),
            Conformation::generate(MatrixShape::BlockDiagonal { block: 8, seed: 11 }, 64, 4),
        ] {
            let a = vec![U64Ring(2); conf.nnz()];
            let x: Vec<U64Ring> = (0..64).map(|j| U64Ring(j as u64 + 1)).collect();
            let run = spmv_sorted(cfg, &conf, &a, &x).unwrap();
            assert_eq!(run.output, reference_multiply(&conf, &a, &x));
        }
    }
}
