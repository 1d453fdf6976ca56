//! The §3 AEM mergesort: `O(ω n log_{ωm} n)` cost for any `ω`.
//!
//! The recurrence of §3:
//!
//! ```text
//! Q(N) = d · Q(N/d) + O(ωn)   if N > ωM      (d = ωm subarrays, merged)
//! Q(N) = O(ωn)                if N ≤ ωM      (small-sort base case)
//! ```
//!
//! which solves to `Q(N) = O(ω n log_{ωm} n)`. We drive the recursion
//! bottom-up: split the input into base-case runs of at most `ωM̂` elements
//! (`M̂ = M/2` per the constant-fraction convention), [`small_sort`] each,
//! then repeatedly merge groups of `d = ωm` runs with [`merge_runs`] until
//! one run remains. Bottom-up execution is behaviourally identical to the
//! recursion (same merges, same I/Os) without the bookkeeping.

use aem_machine::{AemAccess, Region, Result};

use super::merge::merge_runs;
use super::small::small_sort;

/// Sort `input` into a freshly allocated region using the paper's `ωm`-way
/// mergesort. Returns the sorted region.
///
/// Cost: `O(ω n log_{ωm} n)` reads and `O(n log_{ωm} n)` writes — verified
/// against the closed-form predictor in the test suite and measured by
/// experiments T1a and T1b. The write term has no `ω` factor: that is Theorem 3.2's
/// point, and what the `ωm`-way merge of §3.1 buys over the classical
/// `m`-way EM mergesort.
///
/// ```
/// use aem_core::sort::merge_sort;
/// use aem_machine::{AemAccess, AemConfig, Machine};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut m: Machine<u64> = Machine::new(cfg);
/// let input: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(2654435761) % 997).collect();
/// let r = m.install(&input);
///
/// let sorted = merge_sort(&mut m, r).unwrap();
///
/// let out = m.inspect(sorted);
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// let mut want = input.clone();
/// want.sort();
/// assert_eq!(out, want);
/// assert!(m.cost().q(cfg.omega) > 0);
/// ```
pub fn merge_sort<T, A>(machine: &mut A, input: Region) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let fan_in = machine.cfg().fan_in();
    merge_sort_with_fan_in(machine, input, fan_in)
}

/// [`merge_sort`] with an explicit merge fan-in `d` (clamped to `[2, ωm]`).
///
/// Exists for the fan-in ablation (T1c, `run_all --only T1c`): the
/// paper's choice `d = ωm` against the classical `d = m` and intermediate
/// values, exhibiting the `log_d n` level count directly.
pub fn merge_sort_with_fan_in<T, A>(machine: &mut A, input: Region, fan_in: usize) -> Result<Region>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let cfg = machine.cfg();
    let d = fan_in.clamp(2, cfg.fan_in());

    // Base-case run size: ω·M̂ elements, block aligned. Using M/2 (not M)
    // keeps small_sort's scan count at ≤ 2ω even after block rounding.
    let omega = usize::try_from(cfg.omega).unwrap_or(usize::MAX);
    let base = omega
        .saturating_mul((cfg.memory / 2).max(cfg.block))
        .div_ceil(cfg.block)
        .saturating_mul(cfg.block);

    // Phase annotations: errors abort the whole run, so spans left open on
    // an early `?` are closed by the observability layer when it finalizes.
    if input.elems <= base {
        machine.phase_enter("small-sort");
        let out = small_sort(machine, input)?;
        machine.phase_exit();
        return Ok(out);
    }

    // Level 0: split block-wise into base runs and small-sort each.
    machine.phase_enter("base-runs");
    let parts = input.split_blockwise(input.elems.div_ceil(base), cfg.block);
    let mut runs: Vec<Region> = Vec::with_capacity(parts.len());
    for p in parts {
        runs.push(small_sort(machine, p)?);
    }
    machine.phase_exit();

    // Merge levels: d runs at a time until one remains.
    let mut level = 1usize;
    while runs.len() > 1 {
        machine.phase_enter(&format!("merge-level-{level}"));
        let mut next: Vec<Region> = Vec::with_capacity(runs.len().div_ceil(d));
        for group in runs.chunks(d) {
            if group.len() == 1 {
                next.push(group[0]);
            } else {
                let (merged, _) = merge_runs(machine, group)?;
                next.push(merged);
            }
        }
        machine.phase_exit();
        runs = next;
        level += 1;
    }
    Ok(runs.pop().expect("non-empty input yields one run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Cost, Machine, RoundBasedMachine};
    use aem_workloads::keys::{is_sorted, KeyDist};

    fn sort_with(cfg: AemConfig, input: &[u64]) -> (Vec<u64>, Cost) {
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(input);
        let out = merge_sort(&mut m, r).unwrap();
        (m.inspect(out), m.cost())
    }

    #[test]
    fn sorts_across_distributions() {
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        for dist in [
            KeyDist::Uniform { seed: 1 },
            KeyDist::Sorted,
            KeyDist::Reversed,
            KeyDist::FewDistinct {
                distinct: 5,
                seed: 2,
            },
            KeyDist::OrganPipe,
        ] {
            let input = dist.generate(1000);
            let (out, _) = sort_with(cfg, &input);
            let mut want = input;
            want.sort();
            assert_eq!(out, want, "{}", dist.label());
        }
    }

    #[test]
    fn sorts_with_omega_above_block() {
        // The headline regime ω > B at a size forcing several merge levels.
        let cfg = AemConfig::new(16, 4, 16).unwrap();
        let input = KeyDist::Uniform { seed: 3 }.generate(5000);
        let (out, _) = sort_with(cfg, &input);
        assert!(is_sorted(&out));
        assert_eq!(out.len(), 5000);
    }

    #[test]
    fn base_case_only_when_small() {
        let cfg = AemConfig::new(16, 4, 4).unwrap(); // base run <= 4*8 = 32
        let input = KeyDist::Uniform { seed: 4 }.generate(32);
        let (out, cost) = sort_with(cfg, &input);
        assert!(is_sorted(&out));
        // Pure small-sort: no pointer I/O, exactly n' writes.
        assert_eq!(cost.writes, 8);
    }

    #[test]
    fn cost_scales_like_omega_n_log_n() {
        // Check the Thm 3.2 + §3 recurrence shape with explicit constants:
        // Q <= c * ω n ⌈log_{ωm} n⌉ with c modest.
        for (mem, b, omega, n_elems) in [
            (32usize, 4usize, 1u64, 4096usize),
            (32, 4, 8, 4096),
            (32, 4, 64, 4096),
        ] {
            let cfg = AemConfig::new(mem, b, omega).unwrap();
            let input = KeyDist::Uniform { seed: 5 }.generate(n_elems);
            let (out, cost) = sort_with(cfg, &input);
            assert!(is_sorted(&out));
            let n = cfg.blocks_for(n_elems) as f64;
            let levels = cfg.log_fan_in(n).ceil().max(1.0);
            let bound = 40.0 * omega as f64 * n * levels;
            let q = cost.q(omega) as f64;
            assert!(q <= bound, "omega={omega}: q={q} bound={bound}");
            // Writes specifically are O(n log_{ωm} n), *without* the ω.
            let wbound = 8.0 * n * levels;
            assert!(
                (cost.writes as f64) <= wbound,
                "omega={omega}: writes={} wbound={wbound}",
                cost.writes
            );
        }
    }

    #[test]
    fn higher_omega_means_fewer_writes() {
        // The log base ωm grows with ω: fewer levels, fewer writes.
        let input = KeyDist::Uniform { seed: 6 }.generate(8192);
        let (_, c1) = sort_with(AemConfig::new(32, 4, 1).unwrap(), &input);
        let (_, c64) = sort_with(AemConfig::new(32, 4, 64).unwrap(), &input);
        assert!(
            c64.writes < c1.writes,
            "ω=64 writes {} should beat ω=1 writes {}",
            c64.writes,
            c1.writes
        );
    }

    #[test]
    fn explicit_fan_in_reduces_to_more_levels() {
        let cfg = AemConfig::new(32, 4, 16).unwrap();
        let input = KeyDist::Uniform { seed: 7 }.generate(4096);
        let mut m1: Machine<u64> = Machine::new(cfg);
        let r1 = m1.install(&input);
        let out1 = merge_sort_with_fan_in(&mut m1, r1, 2).unwrap();
        assert!(is_sorted(&m1.inspect(out1)));
        let mut m2: Machine<u64> = Machine::new(cfg);
        let r2 = m2.install(&input);
        let out2 = merge_sort(&mut m2, r2).unwrap();
        assert!(is_sorted(&m2.inspect(out2)));
        // Binary merging writes each element once per level: many more
        // writes than the ωm-way merge.
        assert!(m1.cost().writes > m2.cost().writes);
    }

    #[test]
    fn runs_under_round_based_wrapper() {
        // Lemma 4.1 executable check for the full mergesort.
        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let input = KeyDist::Uniform { seed: 8 }.generate(600);

        let (plain_out, plain_cost) = sort_with(cfg, &input);

        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = merge_sort(&mut rb, r).unwrap();
        let stats = rb.finish().unwrap();
        assert_eq!(rb.inspect(out), plain_out);

        let q = plain_cost.q(cfg.omega);
        let q2 = stats.cost.q(cfg.omega);
        assert!(q2 <= 4 * q, "round-based overhead too large: {q2} vs {q}");
    }

    #[test]
    fn tiny_inputs() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        assert_eq!(sort_with(cfg, &[]).0, Vec::<u64>::new());
        assert_eq!(sort_with(cfg, &[5]).0, vec![5]);
        assert_eq!(sort_with(cfg, &[2, 1]).0, vec![1, 2]);
    }
}
