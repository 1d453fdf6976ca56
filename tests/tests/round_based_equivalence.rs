//! Lemma 4.1, property-tested: every algorithm in the workspace produces
//! identical output under round-based execution, at constant-factor cost.
//!
//! Each property runs a fixed number of seeded deterministic cases drawn
//! from the workspace's `SplitMix64` generator.

use aem_core::permute::by_sort::DestTagged;
use aem_core::permute::transpose_tiled;
use aem_core::sort::{em_merge_sort, merge_sort, small_sort, sort_via_pq};
use aem_machine::{AemAccess, AemConfig, Machine, RoundBasedMachine};
use aem_workloads::SplitMix64;

fn random_cfg(rng: &mut SplitMix64) -> AemConfig {
    let b = 4usize;
    let mb = 4 + rng.next_below_usize(5);
    let omega = 1 + rng.next_below(64);
    AemConfig::new(mb * b, b, omega).unwrap()
}

#[test]
fn merge_sort_is_round_base_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x4d5);
    for case in 0..24u64 {
        let cfg = random_cfg(&mut rng);
        let n = rng.next_below_usize(600);
        let input: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 32)).collect();
        let mut plain: Machine<u64> = Machine::new(cfg);
        let r = plain.install(&input);
        let out = merge_sort(&mut plain, r).unwrap();
        let got_plain = plain.inspect(out);

        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = merge_sort(&mut rb, r).unwrap();
        let stats = rb.finish().unwrap();
        assert_eq!(rb.inspect(out), got_plain, "case {case}");

        let q = plain.cost().q(cfg.omega);
        let q2 = stats.cost.q(cfg.omega);
        assert!(q2 <= 4 * q + 1, "case {case}: overhead {q2} vs {q}");
    }
}

#[test]
fn sort_via_pq_is_round_base_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x9a5);
    for case in 0..24u64 {
        // The buffered queue needs M ≥ 8B.
        let b = 4usize;
        let cfg =
            AemConfig::new((8 + rng.next_below_usize(9)) * b, b, 1 + rng.next_below(64)).unwrap();
        let n = rng.next_below_usize(900);
        let input: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 32)).collect();
        let mut plain: Machine<u64> = Machine::new(cfg);
        let r = plain.install(&input);
        let out = sort_via_pq(&mut plain, r).unwrap();
        let got_plain = plain.inspect(out);

        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = sort_via_pq(&mut rb, r).unwrap();
        let stats = rb.finish().unwrap();
        assert_eq!(rb.inspect(out), got_plain, "case {case}");

        let q = plain.cost().q(cfg.omega);
        let q2 = stats.cost.q(cfg.omega);
        assert!(q2 <= 4 * q + 1, "case {case}: overhead {q2} vs {q}");
    }
}

#[test]
fn em_sort_is_round_base_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0xe35);
    for case in 0..24u64 {
        let cfg = random_cfg(&mut rng);
        let n = rng.next_below_usize(400);
        let input: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 32)).collect();
        let mut plain: Machine<u64> = Machine::new(cfg);
        let r = plain.install(&input);
        let out = em_merge_sort(&mut plain, r).unwrap();
        let got_plain = plain.inspect(out);

        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = em_merge_sort(&mut rb, r).unwrap();
        rb.finish().unwrap();
        assert_eq!(rb.inspect(out), got_plain, "case {case}");
    }
}

#[test]
fn small_sort_is_round_base_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x54a);
    for case in 0..24u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        // Size capped at the small-sort threshold ωM (use half).
        let n = (cfg.small_sort_threshold() / 2).min(500);
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(seed | 1) % 97)
            .collect();

        let mut plain: Machine<u64> = Machine::new(cfg);
        let r = plain.install(&input);
        let out = small_sort(&mut plain, r).unwrap();
        let got_plain = plain.inspect(out);

        let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = rb.install(&input);
        let out = small_sort(&mut rb, r).unwrap();
        rb.finish().unwrap();
        assert_eq!(rb.inspect(out), got_plain, "case {case}");
    }
}

#[test]
fn permute_by_sort_is_round_base_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x9b5);
    for case in 0..24u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        let n = 1 + rng.next_below_usize(399);
        let pi = aem_workloads::PermKind::Random { seed }.generate(n);
        let tagged: Vec<DestTagged<u64>> = (0..n)
            .map(|i| DestTagged {
                dest: pi[i] as u64,
                value: i as u64,
            })
            .collect();

        let mut plain: Machine<DestTagged<u64>> = Machine::new(cfg);
        let r = plain.install(&tagged);
        let out = merge_sort(&mut plain, r).unwrap();
        let got_plain: Vec<u64> = plain.inspect(out).into_iter().map(|t| t.value).collect();

        let mut rb: RoundBasedMachine<DestTagged<u64>> = RoundBasedMachine::new(cfg);
        let r = rb.install(&tagged);
        let out = merge_sort(&mut rb, r).unwrap();
        rb.finish().unwrap();
        let got_rb: Vec<u64> = rb.inspect(out).into_iter().map(|t| t.value).collect();
        assert_eq!(got_rb, got_plain, "case {case}");
        // And it actually is the permutation.
        assert_eq!(
            got_rb,
            aem_workloads::perm::invert(&pi)
                .iter()
                .map(|&s| s as u64)
                .collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

#[test]
fn transpose_round_based_matches_plain() {
    let cfg = AemConfig::new(80, 8, 8).unwrap(); // M ≥ B² + 2B = 80
    let (r, c) = (16usize, 24usize);
    let values: Vec<u64> = (0..(r * c) as u64).collect();

    let mut plain: Machine<u64> = Machine::new(cfg);
    let reg = plain.install(&values);
    let out = transpose_tiled(&mut plain, reg, r, c).unwrap();
    let want = plain.inspect(out);

    let mut rb: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
    let reg = rb.install(&values);
    let out = transpose_tiled(&mut rb, reg, r, c).unwrap();
    rb.finish().unwrap();
    assert_eq!(rb.inspect(out), want);
}
