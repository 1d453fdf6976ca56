//! Property tests of the bound evaluators: internal consistency of the
//! counting machinery across random parameters, and optimality of the
//! exhaustive search against the algorithms on random tiny instances.
//!
//! Each property runs a fixed number of seeded deterministic cases drawn
//! from the workspace's [`SplitMix64`] generator.

use aem_core::bounds::exhaustive::optimal_permutation_cost;
use aem_core::bounds::math;
use aem_core::bounds::permute::{counting_rounds, permute_cost_lower_bound};
use aem_core::bounds::spmv;
use aem_core::permute::{permute_by_sort, permute_naive};
use aem_machine::AemConfig;
use aem_workloads::{PermKind, SplitMix64};

/// `ln n!` is super-additive-consistent: `ln (a+b)! ≥ ln a! + ln b!`
/// (because C(a+b, a) ≥ 1), across magnitudes spanning the Stirling
/// switchover.
#[test]
fn ln_factorial_superadditive() {
    let mut rng = SplitMix64::seed_from_u64(0xfac7);
    for _ in 0..48 {
        let a = rng.next_below(2_000_000);
        let b = rng.next_below(2_000_000);
        let lhs = math::ln_factorial(a + b);
        let rhs = math::ln_factorial(a) + math::ln_factorial(b);
        assert!(lhs + 1e-6 >= rhs, "a={a} b={b}: {lhs} < {rhs}");
    }
}

/// The binomial bound `C(n,k) ≤ 2^n` in log space.
#[test]
fn binomial_below_power_set() {
    let mut rng = SplitMix64::seed_from_u64(0xb10);
    for _ in 0..48 {
        let n = 1 + rng.next_below(999_999);
        let k = rng.next_below(1_000_000);
        let v = math::ln_binomial(n, k);
        assert!(v <= n as f64 * std::f64::consts::LN_2 + 1e-6);
        assert!(v >= 0.0);
    }
}

/// Minimality of the counting round count: R rounds cover the target,
/// R−1 do not — for arbitrary machine shapes.
#[test]
fn counting_rounds_minimal() {
    let mut rng = SplitMix64::seed_from_u64(0xc0de);
    for _ in 0..48 {
        let mb = 2 + rng.next_below_usize(62);
        let be = 1 + rng.next_below_usize(5);
        let omega = 1 + rng.next_below(511);
        let n_exp = 8 + rng.next_below(14) as u32;
        let b = 1usize << be;
        let cfg = AemConfig::new(mb.max(2) * b, b, omega).unwrap();
        let cb = counting_rounds(1u64 << n_exp, cfg);
        if cb.rounds > 0 {
            assert!(cb.rounds as f64 * cb.per_round_ln >= cb.target_ln);
            assert!((cb.rounds - 1) as f64 * cb.per_round_ln < cb.target_ln);
        } else {
            assert!(cb.target_ln <= 0.0);
        }
    }
}

/// The general-program bound never exceeds the naive algorithm's
/// worst-case cost for any parameters (a violated instance would
/// falsify the theorem).
#[test]
fn counting_bound_below_naive_everywhere() {
    let mut rng = SplitMix64::seed_from_u64(0x7a1e);
    for _ in 0..48 {
        let mb = 2 + rng.next_below_usize(30);
        let be = 1 + rng.next_below_usize(5);
        let omega = 1 + rng.next_below(1023);
        let n_exp = 8 + rng.next_below(14) as u32;
        let b = 1usize << be;
        let cfg = AemConfig::new(mb.max(2) * b, b, omega).unwrap();
        let n = 1u64 << n_exp;
        let lb = permute_cost_lower_bound(n, cfg);
        let naive = n as f64 + omega as f64 * n.div_ceil(b as u64) as f64;
        assert!(lb <= naive, "{cfg} N={n}: lb {lb} > naive {naive}");
    }
}

/// Theorem 5.1's numeric bound never exceeds the direct algorithm's
/// worst case `2H + (ω+1)n`, for any parameters.
#[test]
fn spmv_bound_below_direct_everywhere() {
    let mut rng = SplitMix64::seed_from_u64(0x5b3c);
    for _ in 0..48 {
        let mb = 4 + rng.next_below_usize(60);
        let be = 1 + rng.next_below_usize(5);
        let omega = 1 + rng.next_below(255);
        let n_exp = 10 + rng.next_below(14) as u32;
        let delta = 1 + rng.next_below(63);
        let b = 1usize << be;
        let cfg = AemConfig::new(mb.max(2) * b, b, omega).unwrap();
        let n = 1u64 << n_exp;
        let h = (delta * n) as f64;
        let direct = 2.0 * h + (omega as f64 + 1.0) * n.div_ceil(b as u64) as f64;
        let lb = spmv::spmv_cost_lower_bound(n, delta, cfg);
        assert!(
            lb <= direct,
            "{cfg} N={n} δ={delta}: lb {lb} > direct {direct}"
        );
    }
}

/// On random tiny instances, the exhaustive optimum is at most both
/// permuters' cost. The counting bound cannot be compared with it: it is 0
/// at every size the search reaches, which this test pins, so a change to
/// the bound or to the search guard that gives the lower side teeth fails
/// here and can turn the comparison back on.
#[test]
fn exhaustive_optimum_is_at_most_both_permuters() {
    // The search guard: N ≤ 12, B ≤ 4, M ≤ 8.
    let identity = |n: usize| PermKind::Identity.generate(n);
    let edge = AemConfig::new(8, 4, 1).unwrap();
    assert!(optimal_permutation_cost(&identity(13), edge, 2).is_none());
    assert!(optimal_permutation_cost(&identity(8), AemConfig::new(16, 8, 1).unwrap(), 2).is_none());
    assert!(optimal_permutation_cost(&identity(8), AemConfig::new(16, 4, 1).unwrap(), 2).is_none());
    // Inside it the counting bound is 0 on every shape and size.
    for mem in 1..=8usize {
        for block in 1..=4usize {
            for omega in [1u64, 2, 4, 8, 16, 64, 256] {
                let Ok(cfg) = AemConfig::new(mem, block, omega) else {
                    continue;
                };
                for n in 1..=12u64 {
                    let lb = permute_cost_lower_bound(n, cfg);
                    assert_eq!(lb, 0.0, "N={n} on {cfg}: bound {lb}");
                }
            }
        }
    }
    // On (4, 2, ω) it first turns positive at N = 22.
    for omega in 1..=7u64 {
        let cfg = AemConfig::new(4, 2, omega).unwrap();
        assert_eq!(permute_cost_lower_bound(21, cfg), 0.0, "{cfg}");
        assert!(permute_cost_lower_bound(22, cfg) > 0.0, "{cfg}");
    }

    let mut rng = SplitMix64::seed_from_u64(0x0b7);
    for _ in 0..48 {
        let seed = rng.next_u64();
        let omega = 1 + rng.next_below(7);
        let cfg = AemConfig::new(4, 2, omega).unwrap();
        let n = 6usize;
        let pi = PermKind::Random { seed }.generate(n);
        let opt = optimal_permutation_cost(&pi, cfg, 2).expect("searchable");
        let values: Vec<u64> = (0..n as u64).collect();
        let naive = permute_naive(cfg, &values, &pi).unwrap().q();
        assert!(opt <= naive, "opt {opt} vs naive {naive}");
        // The sort-based permuter needs M >= 4B; compare where it runs.
        if cfg.memory >= 4 * cfg.block {
            let sort = permute_by_sort(cfg, &values, &pi).unwrap().q();
            assert!(opt <= sort, "opt {opt} vs sort {sort}");
        }
    }
}
