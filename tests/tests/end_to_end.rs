//! End-to-end property tests across the whole stack: random machine
//! configurations, random workloads, every algorithm family.
//!
//! Each property runs a fixed number of seeded deterministic cases drawn
//! from the workspace's `SplitMix64` generator.

use aem_core::permute::{permute_auto, permute_by_sort, permute_naive};
use aem_core::sort::{distribution_sort, em_merge_sort, merge_sort, sort_via_pq};
use aem_core::spmv::{reference_multiply, spmv_auto, spmv_direct, spmv_sorted, U64Ring};
use aem_machine::{AemAccess, AemConfig, Machine};
use aem_workloads::{perm, Conformation, MatrixShape, PermKind, SplitMix64};

fn random_cfg(rng: &mut SplitMix64) -> AemConfig {
    let be = 1 + rng.next_below_usize(3); // B ∈ {2, 4, 8}
    let mb = 2 + rng.next_below_usize(7);
    let omega = 1 + rng.next_below(128);
    let b = 1usize << be;
    AemConfig::new(mb.max(4) * b, b, omega).unwrap()
}

#[test]
fn all_sorters_agree_with_std_sort() {
    let mut rng = SplitMix64::seed_from_u64(0x50f7);
    for case in 0..32u64 {
        let cfg = random_cfg(&mut rng);
        let n = rng.next_below_usize(800);
        let input: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 16)).collect();
        let mut want = input.clone();
        want.sort();

        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        let out = merge_sort(&mut m, r).unwrap();
        assert_eq!(m.inspect(out), want, "case {case} merge_sort");

        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        let out = em_merge_sort(&mut m, r).unwrap();
        assert_eq!(m.inspect(out), want, "case {case} em_merge_sort");

        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        let out = distribution_sort(&mut m, r).unwrap();
        assert_eq!(m.inspect(out), want, "case {case} distribution_sort");

        // The priority-queue sorter needs M >= 8B.
        if cfg.memory >= 8 * cfg.block {
            let mut m: Machine<u64> = Machine::new(cfg);
            let r = m.install(&input);
            let out = sort_via_pq(&mut m, r).unwrap();
            assert_eq!(m.inspect(out), want, "case {case} sort_via_pq");
        }
    }
}

#[test]
fn all_permuters_realize_pi() {
    let mut rng = SplitMix64::seed_from_u64(0x9e4);
    for case in 0..32u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        let n = 1 + rng.next_below_usize(499);
        let pi = PermKind::Random { seed }.generate(n);
        let values: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let want = perm::apply(&pi, &values);

        assert_eq!(
            permute_naive(cfg, &values, &pi).unwrap().output,
            want,
            "case {case} naive"
        );
        assert_eq!(
            permute_by_sort(cfg, &values, &pi).unwrap().output,
            want,
            "case {case} by_sort"
        );
        assert_eq!(
            permute_auto(cfg, &values, &pi).unwrap().0.output,
            want,
            "case {case} auto"
        );
    }
}

#[test]
fn spmv_agrees_with_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5432);
    for case in 0..32u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        let n_exp = 4 + rng.next_below_usize(3);
        let delta = 1 + rng.next_below_usize(5);
        let n = 1usize << n_exp;
        let delta = delta.min(n);
        let conf = Conformation::generate(MatrixShape::Random { seed }, n, delta);
        let a: Vec<U64Ring> = (0..conf.nnz()).map(|i| U64Ring(i as u64 % 11)).collect();
        let x: Vec<U64Ring> = (0..n).map(|j| U64Ring(j as u64 % 7)).collect();
        let want = reference_multiply(&conf, &a, &x);

        assert_eq!(
            spmv_direct(cfg, &conf, &a, &x).unwrap().output,
            want,
            "case {case} direct"
        );
        assert_eq!(
            spmv_sorted(cfg, &conf, &a, &x).unwrap().output,
            want,
            "case {case} sorted"
        );
        assert_eq!(
            spmv_auto(cfg, &conf, &a, &x).unwrap().0.output,
            want,
            "case {case} auto"
        );
    }
}

#[test]
fn sorting_cost_envelope_holds_for_random_configs() {
    let mut rng = SplitMix64::seed_from_u64(0xe57);
    for _ in 0..32u64 {
        let cfg = random_cfg(&mut rng);
        let n_exp = 8 + rng.next_below_usize(4);
        // Thm 3.2 with a generous explicit constant, across random configs.
        let n = 1usize << n_exp;
        let input = aem_workloads::KeyDist::Uniform { seed: 9 }.generate(n);
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&input);
        merge_sort(&mut m, r).unwrap();
        let q = m.cost().q(cfg.omega) as f64;
        let nb = cfg.blocks_for(n) as f64;
        let envelope = 48.0 * cfg.omega as f64 * nb * cfg.log_fan_in(nb).ceil();
        assert!(q <= envelope, "{cfg} N={n}: q={q} envelope={envelope}");
    }
}

#[test]
fn duplicate_heavy_inputs_sort_stably_sized() {
    // All-equal keys: the tie-breaking machinery must not lose or
    // duplicate elements.
    let cfg = AemConfig::new(32, 4, 16).unwrap();
    let input = vec![7u64; 1000];
    let mut m: Machine<u64> = Machine::new(cfg);
    let r = m.install(&input);
    let out = merge_sort(&mut m, r).unwrap();
    assert_eq!(m.inspect(out), input);
}

#[test]
fn identity_permutation_is_cheapest_case() {
    let cfg = AemConfig::new(64, 8, 8).unwrap();
    let n = 4096;
    let values: Vec<u64> = (0..n as u64).collect();
    let ident = permute_naive(cfg, &values, &PermKind::Identity.generate(n)).unwrap();
    let random = permute_naive(cfg, &values, &PermKind::Random { seed: 1 }.generate(n)).unwrap();
    assert!(ident.q() <= random.q());
    assert_eq!(ident.cost.reads, cfg.blocks_for(n) as u64);
}
