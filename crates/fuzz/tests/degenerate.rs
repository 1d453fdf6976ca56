//! Pinned degenerate-configuration coverage (seeded from the first fuzz
//! corpus entries): `ω > B`, `B = 1`, `M = 2B`, and `n % B ≠ 0` on both
//! the Theorem 3.2 mergesort and the Lemma 4.3 flash simulation.
//!
//! The fuzzer samples these corners probabilistically; this test makes
//! the four named corners unconditional on every `cargo test`.

use aem_fuzz::runner::replay;
use aem_fuzz::{DistKind, FuzzCase};

fn case(mem: usize, block: usize, omega: u64, n: usize) -> FuzzCase {
    FuzzCase {
        mem,
        block,
        omega,
        n,
        case_seed: 0xDE9E,
        dist: DistKind::FewDistinct(3),
        delta: 2,
    }
}

fn assert_clean(target: &str, c: &FuzzCase) {
    let outcome = replay(target, c).expect("target name must resolve");
    assert!(!outcome.is_fail(), "{target} on {c}: {outcome:?}");
}

#[test]
fn merge_sort_with_omega_exceeding_block() {
    // ω = 4B: Theorem 3.2's whole point is that no ω < B assumption is
    // needed. Non-aligned n rides along.
    assert_clean("merge_sort", &case(16, 4, 16, 203));
}

#[test]
fn merge_sort_in_aram_mode() {
    // B = 1 specializes the AEM to the ARAM of §2.
    assert_clean("merge_sort", &case(2, 1, 8, 129));
    assert_clean("merge_sort", &case(3, 1, 64, 77));
}

#[test]
fn merge_sort_at_minimum_memory() {
    // M = 2B is the floor: one input block + one output block.
    assert_clean("merge_sort", &case(8, 4, 2, 100));
    assert_clean("merge_sort", &case(8, 4, 32, 101));
}

#[test]
fn merge_sort_with_partial_tail_block() {
    for n in [97, 99, 101, 103] {
        assert_clean("merge_sort", &case(32, 8, 4, n));
    }
}

#[test]
fn flash_simulation_survives_the_same_corners() {
    // The flash target internally lifts each config to the Lemma 4.3
    // preconditions (B > ω, ω | B) while preserving the corner's spirit.
    assert_clean("flash_lemma43", &case(16, 4, 16, 203)); // ω > B requested
    assert_clean("flash_lemma43", &case(2, 1, 8, 129)); // B = 1 requested
    assert_clean("flash_lemma43", &case(8, 4, 2, 100)); // M = 2B
    assert_clean("flash_lemma43", &case(32, 8, 4, 97)); // n % B ≠ 0
}

#[test]
fn every_sort_algorithm_survives_duplicate_floods() {
    // All-equal keys at ω ≥ B: tie handling must not break stability of
    // the differential check anywhere.
    for target in ["merge_sort", "em_sort", "dist_sort"] {
        let c = FuzzCase {
            dist: DistKind::FewDistinct(1),
            ..case(16, 4, 8, 150)
        };
        let outcome = replay(target, &c).expect("target resolves");
        assert!(!outcome.is_fail(), "{target}: {outcome:?}");
    }
}
