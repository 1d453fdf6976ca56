//! Greedy case minimization.
//!
//! When a target fails, replaying the raw sampled case is rarely
//! pleasant: `n` can be over a thousand and the failure usually survives
//! far smaller instances. [`shrink`] runs a greedy fixed-point loop: at
//! each step it proposes a fixed list of candidate simplifications in
//! priority order — halve `n`, drop a block, drop one element, collapse
//! `ω`, `B`, `M`, simplify the key distribution — and commits the first
//! candidate that still fails the same target. The loop ends when no
//! candidate fails (a local minimum) or after [`MAX_STEPS`] commits.
//!
//! Checks are wrapped in [`aem_obs::pool::catch`], so a candidate that
//! makes the algorithm panic counts as "still failing" — panics are
//! exactly the bugs worth keeping.

use aem_obs::pool::catch;

use crate::case::{DistKind, FuzzCase};
use crate::targets::Outcome;

/// Cap on committed shrink steps; a pure safety valve (greedy halving
/// reaches a fixed point in far fewer).
pub const MAX_STEPS: usize = 200;

/// `true` if `check` fails (or panics) on `case`.
pub fn fails<F>(check: &F, case: &FuzzCase) -> bool
where
    F: Fn(&FuzzCase) -> Outcome,
{
    catch(|| check(case)).map_or(true, |o| o.is_fail())
}

/// Candidate simplifications of `case`, most aggressive first. Only
/// candidates with a valid machine config are proposed.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |c: FuzzCase| {
        if c != *case && c.cfg().is_ok() && !out.contains(&c) {
            out.push(c);
        }
    };

    // Input size first: the biggest lever on repro readability.
    push(FuzzCase {
        n: case.n / 2,
        ..case.clone()
    });
    push(FuzzCase {
        n: case.n.saturating_sub(case.block.max(1)),
        ..case.clone()
    });
    push(FuzzCase {
        n: case.n.saturating_sub(1),
        ..case.clone()
    });

    // Collapse the asymmetry, then the geometry.
    push(FuzzCase {
        omega: 1,
        ..case.clone()
    });
    push(FuzzCase {
        omega: case.omega / 2,
        ..case.clone()
    });
    push(FuzzCase {
        block: 1,
        mem: case.mem.max(2),
        ..case.clone()
    });
    push(FuzzCase {
        block: case.block / 2,
        ..case.clone()
    });
    push(FuzzCase {
        mem: 2 * case.block,
        ..case.clone()
    });
    push(FuzzCase {
        mem: case.mem / 2,
        ..case.clone()
    });

    // Simplify the workload shape.
    push(FuzzCase {
        dist: DistKind::Sorted,
        ..case.clone()
    });
    push(FuzzCase {
        dist: DistKind::FewDistinct(1),
        ..case.clone()
    });
    push(FuzzCase {
        delta: 1,
        ..case.clone()
    });
    push(FuzzCase {
        case_seed: 0,
        ..case.clone()
    });

    out
}

/// Greedily minimize a failing `case` under `check`. Returns the local
/// minimum (possibly `case` itself if nothing smaller still fails).
/// The input is assumed to fail; the output is guaranteed to fail.
pub fn shrink<F>(case: &FuzzCase, check: &F) -> FuzzCase
where
    F: Fn(&FuzzCase) -> Outcome,
{
    let mut current = case.clone();
    for _ in 0..MAX_STEPS {
        let Some(next) = candidates(&current).into_iter().find(|c| fails(check, c)) else {
            break;
        };
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_case() -> FuzzCase {
        FuzzCase {
            mem: 96,
            block: 8,
            omega: 64,
            n: 1000,
            case_seed: 7,
            dist: DistKind::Uniform,
            delta: 5,
        }
    }

    #[test]
    fn shrinks_a_size_threshold_failure_to_the_threshold() {
        // "Fails whenever n ≥ 10" must shrink to exactly n = 10.
        let check = |c: &FuzzCase| {
            if c.n >= 10 {
                Outcome::Fail("n too big".into())
            } else {
                Outcome::Pass
            }
        };
        let min = shrink(&big_case(), &check);
        assert_eq!(min.n, 10);
        // Unrelated dimensions collapse too.
        assert_eq!(min.omega, 1);
        assert_eq!(min.block, 1);
    }

    #[test]
    fn treats_panics_as_failures() {
        let check = |c: &FuzzCase| {
            if c.n >= 3 {
                panic!("boom");
            }
            Outcome::Pass
        };
        // Silence the default panic-hook backtrace chatter for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let min = shrink(&big_case(), &check);
        std::panic::set_hook(prev);
        assert_eq!(min.n, 3);
    }

    #[test]
    fn result_always_fails_and_is_deterministic() {
        let check = |c: &FuzzCase| {
            if c.n > 0 && c.n % 3 == 0 && c.omega > 2 {
                Outcome::Fail("composite condition".into())
            } else {
                Outcome::Pass
            }
        };
        let a = shrink(&big_case(), &check);
        let b = shrink(&big_case(), &check);
        assert_eq!(a, b);
        assert!(fails(&check, &a));
        assert!(a.n <= big_case().n);
    }
}
