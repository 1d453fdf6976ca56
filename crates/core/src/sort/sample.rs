//! The classical EM distribution sort (sample sort) baseline.
//!
//! The dual of the merge family: pick pivots from a sample, *distribute*
//! the input into `d = m − 2` buckets held behind in-memory write buffers
//! (one block each, plus a read block — hence the fan-out cap), recurse
//! per bucket. Per level it reads and writes every block once, so its AEM
//! cost is `Θ((1 + ω) n log_m n)` — the same profile as
//! [`super::em_merge_sort`], reached from the opposite direction.
//!
//! Scope note (documented in DESIGN.md): Blelloch et al. (SPAA '15) give
//! an AEM sample sort with fan-out `ωm` that is optimal unconditionally;
//! our paper only *cites* that result (its own contribution is the
//! mergesort), so this workspace implements the distribution family at the
//! classical fan-out as a baseline. The structural obstacle to fan-out
//! `ωm` is the same one §3.1 solves for merging — `ωm` cursors do not fit
//! in memory — and experiments T1e and F1 use this baseline to show the
//! paper's mergesort pulling ahead as `ω` grows.

use aem_machine::{AemAccess, MachineError, Region, Result};

/// Sort `input` with a pivot-based distribution sort at fan-out `m − 2`.
/// Returns the sorted region. Requires `M ≥ 4B`.
pub fn distribution_sort<T, A>(machine: &mut A, input: Region) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    if cfg.memory < 4 * cfg.block {
        return Err(MachineError::InvalidConfig(
            "distribution_sort requires M >= 4B",
        ));
    }
    sort_rec(machine, input, 0)
}

fn sort_rec<T, A>(machine: &mut A, input: Region, depth: usize) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let (mem, b) = (cfg.memory, cfg.block);
    assert!(depth < 64, "recursion depth implies a partitioning bug");

    // Base case: fits in memory (minus a staging block) — load, sort, write.
    if input.elems + b <= mem {
        let mut buf: Vec<T> = Vec::with_capacity(input.elems);
        for id in input.iter() {
            buf.extend(machine.read_block(id)?);
        }
        buf.sort();
        let out = machine.alloc_region(input.elems);
        let mut blk = 0usize;
        let mut iter = buf.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<T> = iter.by_ref().take(b).collect();
            machine.write_block(out.block(blk), chunk)?;
            blk += 1;
        }
        return Ok(out);
    }

    let d = (cfg.m() - 2).max(2);
    machine.phase_enter(&format!("distribute-depth-{depth}"));

    // --- Pivot selection: an evenly spaced sample of up to 4d elements
    // (capped so the sample plus one staging block fits in memory). ------
    let sample_size = (4 * d).min(input.elems).min(mem - b).max(d);
    let stride = input.elems / sample_size;
    let mut sample: Vec<T> = Vec::with_capacity(sample_size);
    let mut cur_block: Option<(usize, Vec<T>)> = None;
    for i in 0..sample_size {
        let pos = i * stride;
        let blk = pos / b;
        if cur_block.as_ref().map(|(j, _)| *j) != Some(blk) {
            if let Some((_, old)) = cur_block.take() {
                machine.discard(old.len())?;
            }
            cur_block = Some((blk, machine.read_block(input.block(blk))?));
        }
        sample.push(cur_block.as_ref().expect("loaded").1[pos % b].clone());
        machine.reserve(1)?; // the sampled copy occupies memory
    }
    if let Some((_, old)) = cur_block.take() {
        machine.discard(old.len())?;
    }
    sample.sort();
    let pivots: Vec<T> = (1..d)
        .map(|j| sample[j * sample.len() / d].clone())
        .collect();
    machine.discard(sample.len() - pivots.len())?; // keep only the pivots

    // --- Distribution pass: one read buffer + d bucket buffers. ----------
    // Bucket regions are allocated at full input capacity (external memory
    // is unbounded and unused blocks are empty).
    let bucket_regions: Vec<Region> = (0..d).map(|_| machine.alloc_region(input.elems)).collect();
    let mut bucket_buf: Vec<Vec<T>> = (0..d).map(|_| Vec::with_capacity(b)).collect();
    let mut bucket_blk: Vec<usize> = vec![0; d];
    let mut bucket_len: Vec<usize> = vec![0; d];

    for id in input.iter() {
        let data = machine.read_block(id)?;
        for x in data {
            let j = pivots.partition_point(|p| *p <= x);
            bucket_buf[j].push(x);
            bucket_len[j] += 1;
            if bucket_buf[j].len() == b {
                machine.write_block(
                    bucket_regions[j].block(bucket_blk[j]),
                    std::mem::take(&mut bucket_buf[j]),
                )?;
                bucket_buf[j].reserve(b);
                bucket_blk[j] += 1;
            }
        }
    }
    for j in 0..d {
        if !bucket_buf[j].is_empty() {
            let buf = std::mem::take(&mut bucket_buf[j]);
            machine.write_block(bucket_regions[j].block(bucket_blk[j]), buf)?;
            bucket_blk[j] += 1;
        }
    }
    machine.discard(pivots.len())?;
    drop(pivots);
    machine.phase_exit();

    // --- Recurse per bucket first (so no parent-frame data is resident
    // while a child runs — memory at any instant belongs to exactly one
    // recursion frame), then concatenate.
    let mut sorted_buckets: Vec<Region> = Vec::with_capacity(d);
    for (j, region) in bucket_regions.into_iter().enumerate() {
        let bucket = Region {
            first: region.first,
            blocks: bucket_blk[j],
            elems: bucket_len[j],
        };
        if bucket.elems == 0 {
            continue;
        }
        // Degenerate pivots (heavily duplicated keys) can funnel the whole
        // input into one bucket; recursing would not shrink the problem.
        // Fall back to the merge family, which is oblivious to duplicates.
        let sorted = if bucket.elems == input.elems {
            super::em_sort::em_merge_sort(machine, bucket)?
        } else {
            sort_rec(machine, bucket, depth + 1)?
        };
        sorted_buckets.push(sorted);
    }

    // Concatenate the sorted buckets, stitching across block boundaries.
    machine.phase_enter(&format!("concat-depth-{depth}"));
    let out = machine.alloc_region(input.elems);
    let mut out_blk = 0usize;
    let mut carry: Vec<T> = Vec::with_capacity(b);
    for sorted in sorted_buckets {
        for id in sorted.iter() {
            let data = machine.read_block(id)?;
            for x in data {
                carry.push(x);
                if carry.len() == b {
                    machine.write_block(out.block(out_blk), std::mem::take(&mut carry))?;
                    carry.reserve(b);
                    out_blk += 1;
                }
            }
        }
    }
    if !carry.is_empty() {
        machine.write_block(out.block(out_blk), carry)?;
    }
    machine.phase_exit();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine, RoundBasedMachine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    fn sort_with(cfg: AemConfig, input: &[u64]) -> (Vec<u64>, aem_machine::Cost) {
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(input);
        let out = distribution_sort(&mut m, r).unwrap();
        (m.inspect(out), m.cost())
    }

    #[test]
    fn sorts_across_distributions() {
        let cfg = AemConfig::new(32, 4, 8).unwrap();
        for dist in [
            KeyDist::Uniform { seed: 1 },
            KeyDist::Sorted,
            KeyDist::Reversed,
            KeyDist::FewDistinct {
                distinct: 4,
                seed: 2,
            },
            KeyDist::OrganPipe,
        ] {
            let input = dist.generate(1500);
            let (out, _) = sort_with(cfg, &input);
            let mut want = input;
            want.sort();
            assert_eq!(out, want, "{}", dist.label());
        }
    }

    #[test]
    fn near_constant_input_terminates() {
        // All-but-one equal keys: the sample sees only the duplicate value,
        // every element funnels into one bucket, and only the fallback
        // guarantees progress.
        let cfg = AemConfig::new(32, 4, 8).unwrap();
        let mut input = vec![1u64; 499];
        input.push(2);
        let (out, _) = sort_with(cfg, &input);
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
    }

    #[test]
    fn all_equal_keys_terminate() {
        // Degenerate pivots: everything lands in one bucket; progress must
        // come from the base case, not the split.
        let cfg = AemConfig::new(32, 4, 8).unwrap();
        let input = vec![42u64; 500];
        let (out, _) = sort_with(cfg, &input);
        assert_eq!(out, input);
    }

    #[test]
    fn cost_reads_equal_writes_shape() {
        // Distribution sorts read and write each level once; the ratio
        // must stay near 1 (unlike the AEM mergesort's read-heavy profile).
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let input = KeyDist::Uniform { seed: 3 }.generate(8192);
        let (out, cost) = sort_with(cfg, &input);
        assert!(is_sorted(&out));
        let ratio = cost.reads as f64 / cost.writes as f64;
        assert!(ratio < 3.0, "reads/writes = {ratio}");
    }

    #[test]
    fn loses_to_aem_mergesort_at_high_omega() {
        let cfg = AemConfig::new(64, 8, 256).unwrap();
        let input = KeyDist::Uniform { seed: 4 }.generate(16384);
        let (_, dist_cost) = sort_with(cfg, &input);
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        crate::sort::merge_sort(&mut m, r).unwrap();
        let aem_cost = m.cost();
        assert!(
            aem_cost.q(cfg.omega) < dist_cost.q(cfg.omega),
            "AEM mergesort {} must beat distribution sort {} at ω=256",
            aem_cost.q(cfg.omega),
            dist_cost.q(cfg.omega)
        );
    }

    #[test]
    fn works_round_based() {
        let cfg = AemConfig::new(32, 4, 4).unwrap();
        let input = KeyDist::Uniform { seed: 5 }.generate(700);
        let (plain, _) = sort_with(cfg, &input);
        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = distribution_sort(&mut rb, r).unwrap();
        rb.finish().unwrap();
        assert_eq!(rb.inspect(out), plain);
    }

    #[test]
    fn tiny_and_empty() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        assert!(sort_with(cfg, &[]).0.is_empty());
        assert_eq!(sort_with(cfg, &[9, 1]).0, vec![1, 9]);
    }

    #[test]
    fn rejects_tiny_memory() {
        let cfg = AemConfig::new(6, 3, 1).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&[1u64, 2, 3]);
        assert!(matches!(
            distribution_sort(&mut m, r),
            Err(MachineError::InvalidConfig(_))
        ));
    }
}
